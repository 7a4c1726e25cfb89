"""The six paper dataset profiles (Table 1) and scaled instantiation.

The paper evaluates on Web-St, DBLP, LiveJournal, Orkut, Twitter and
Friendster from SNAP. Offline we reproduce each as a *profile* — node
count, edge count, average degree, skew class — instantiated as a
synthetic Chung-Lu graph at a configurable ``scale`` (nodes divided by
``scale``). The simulated clusters divide their per-machine memory by the
same factor (see :mod:`repro.cluster.cluster`), which preserves the
memory-pressure ratios that drive every experiment in the paper.
"""

from __future__ import annotations

import atexit
import functools
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.graph.csr import Graph, streaming_budget_bytes
from repro.graph.generators import chung_lu
from repro.graph.io import load_csr_dir, save_mapped
from repro.perf import timings
from repro.perf.cache import clear_cache, get_cache
from repro.rng import DEFAULT_SEED, SeedLike, derive_seed

#: Default graph-and-memory scale factor. 1/400 keeps the largest profile
#: (Friendster, 65.6M nodes) at ~164K synthetic nodes — tractable in
#: numpy while preserving workload-to-memory ratios.
DEFAULT_SCALE = 400

#: Transient working-set bytes per sampled arc of the in-RAM build path;
#: used to predict whether a profile fits the ``--max-ram`` budget. The
#: arc-proportional part measures 17-26 B (both endpoint draws, then the
#: keys formed in them, their distinct copy and the split); the rest
#: covers the sampler's guide table, up to ~270 B per *vertex* while it
#: is built, on the sparse profiles (web-st: 9 sampled arcs a vertex).
#: Measured peaks: 20 B/arc twitter@400, 47 livejournal@400, 55 web-st@400.
IN_RAM_BUILD_BYTES_PER_ARC = 72


@dataclass(frozen=True)
class DatasetProfile:
    """Statistics of one paper dataset (Table 1 row).

    ``power_law_exponent`` controls degree skew of the synthetic stand-in:
    social graphs get heavier tails than the web/co-author graphs.
    """

    name: str
    num_nodes: int
    num_edges: int
    avg_degree: float
    source: str
    directed: bool = True
    power_law_exponent: float = 2.1

    def scaled_nodes(self, scale: int) -> int:
        """Synthetic node count at the given scale (minimum 64)."""
        return max(64, int(round(self.num_nodes / scale)))

    def instantiate(
        self, scale: int = DEFAULT_SCALE, seed: SeedLike = None
    ) -> Graph:
        """Generate the synthetic stand-in graph at ``scale``."""
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        n = self.scaled_nodes(scale)
        if seed is None:
            # Stable per-dataset default seed (process-independent).
            seed = derive_seed(DEFAULT_SEED, f"dataset:{self.name}")
        graph = chung_lu(
            n,
            avg_degree=self.avg_degree,
            exponent=self.power_law_exponent,
            directed=self.directed,
            seed=seed,
            name=self.name,
        )
        return graph

    def estimated_build_bytes(self, scale: int) -> int:
        """Predicted transient peak of :meth:`instantiate` — what
        :func:`load_dataset` compares against the ``--max-ram`` budget
        to choose the builder."""
        n = self.scaled_nodes(scale)
        arcs = int(round(n * self.avg_degree * 1.12))
        if not self.directed:
            arcs *= 2
        return arcs * IN_RAM_BUILD_BYTES_PER_ARC + n * 24

    def instantiate_mapped(
        self,
        scale: int = DEFAULT_SCALE,
        seed: SeedLike = None,
        directory: Optional[str] = None,
        block_edges: Optional[int] = None,
    ) -> Graph:
        """:meth:`instantiate` without the O(m) transient: chunked
        generation through the external-merge builder into a CSR
        directory, byte-identical to the in-RAM graph (same seed
        stream, same dedup order — ``tests/perf/test_determinism.py``
        asserts it at the default scale)."""
        from repro.graph.build import build_csr_on_disk, choose_block_edges
        from repro.graph.generators import chung_lu_edge_blocks

        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        if directory is None:
            raise ConfigurationError(
                "instantiate_mapped needs a target directory"
            )
        n = self.scaled_nodes(scale)
        if seed is None:
            seed = derive_seed(DEFAULT_SEED, f"dataset:{self.name}")
        blocks = chung_lu_edge_blocks(
            n,
            self.avg_degree,
            exponent=self.power_law_exponent,
            seed=seed,
            block_edges=block_edges or choose_block_edges(self.directed),
        )
        return build_csr_on_disk(
            blocks,
            num_vertices=n,
            directory=directory,
            directed=self.directed,
            dedup=True,
            drop_self_loops=True,
            name=self.name,
        )


#: Table 1 of the paper (K = 1e3, M = 1e6, B = 1e9).
PAPER_DATASETS: Dict[str, DatasetProfile] = {
    "web-st": DatasetProfile(
        name="web-st",
        num_nodes=281_900,
        num_edges=2_300_000,
        avg_degree=8.2,
        source="stanford.edu",
        power_law_exponent=2.3,
    ),
    "dblp": DatasetProfile(
        name="dblp",
        num_nodes=613_600,
        num_edges=4_000_000,
        avg_degree=6.5,
        source="dblp.com",
        directed=False,
        power_law_exponent=2.4,
    ),
    "livejournal": DatasetProfile(
        name="livejournal",
        num_nodes=4_000_000,
        num_edges=34_700_000,
        avg_degree=8.7,
        source="livejournal.com",
        power_law_exponent=2.2,
    ),
    "orkut": DatasetProfile(
        name="orkut",
        num_nodes=3_100_000,
        num_edges=117_200_000,
        avg_degree=36.9,
        source="orkut.com",
        directed=False,
        power_law_exponent=2.0,
    ),
    "twitter": DatasetProfile(
        name="twitter",
        num_nodes=41_700_000,
        num_edges=1_500_000_000,
        avg_degree=35.2,
        source="twitter.com",
        power_law_exponent=1.9,
    ),
    "friendster": DatasetProfile(
        name="friendster",
        num_nodes=65_600_000,
        num_edges=1_800_000_000,
        avg_degree=46.1,
        source="snap.stanford.edu",
        directed=False,
        power_law_exponent=2.1,
    ),
}

# ----------------------------------------------------------------------
# Loading: one cache key, one on-disk format
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _session_tmp() -> str:
    """Per-process scratch root for CSR directories when no cache
    directory is configured: made on first use, removed at exit."""
    path = tempfile.mkdtemp(prefix="repro-mapped-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def load_dataset(
    name: str,
    scale: int = DEFAULT_SCALE,
    seed: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[str] = None,
) -> Graph:
    """Instantiate (and memoise) a paper dataset stand-in by name.

    ``name`` is case-insensitive and matches Table 1 ("DBLP", "Web-St",
    ...). Instantiations go through the shared artifact cache
    (:mod:`repro.perf.cache`): the in-memory LRU makes experiment sweeps
    cheap — pass ``cache=False`` for an independent copy — and a cache
    directory (``cache_dir``, ``--cache-dir``, or the ``REPRO_CACHE_DIR``
    environment variable) additionally persists each graph as a CSR
    directory (:mod:`repro.graph.io`: plain ``.npy`` files opened as
    maps, verified against their fingerprint, quarantined and rebuilt
    when damaged), so the large stand-ins (Twitter, Friendster) open in
    milliseconds across processes.

    The builder is chosen by size: with a ``--max-ram`` budget the
    in-RAM build's predicted peak exceeds, the profile is built out of
    core — chunked generation through the external merge, straight
    into the directory (a session scratch one without a cache
    directory); otherwise in RAM and, given a cache directory, written
    out. Same bytes, same class either way.
    """
    key_name = name.strip().lower().replace("_", "-")
    if key_name not in PAPER_DATASETS:
        known = ", ".join(sorted(PAPER_DATASETS))
        raise ConfigurationError(f"unknown dataset {name!r}; known: {known}")
    key = ("dataset", key_name, scale, seed)
    profile = PAPER_DATASETS[key_name]
    budget = streaming_budget_bytes()
    out_of_core = (
        budget is not None and profile.estimated_build_bytes(scale) > budget
    )
    cache_obj = get_cache()
    root = cache_dir or cache_obj.directory
    if not root and out_of_core:
        root = _session_tmp()
    directory = cache_obj.artifact_path(key, ".csr", key_name, root)

    def load() -> Optional[Graph]:
        # A torn or bit-rotted directory is quarantined as
        # ``<dir>.corrupt`` and ``None`` sends the cache on to ``build``.
        with timings.span("cache-load"):
            return load_csr_dir(directory)

    def build() -> Graph:
        with timings.span("graph-gen"):
            if out_of_core:
                return profile.instantiate_mapped(
                    scale=scale, seed=seed, directory=directory
                )
            graph = profile.instantiate(scale=scale, seed=seed)
        return graph if directory is None else save_mapped(graph, directory)

    return cache_obj.get_or_build(
        key,
        build,
        use_memory=cache,
        load=None if directory is None else load,
    )


def clear_dataset_cache() -> None:
    """Drop all memoised artifacts, datasets included (used by tests)."""
    clear_cache()
