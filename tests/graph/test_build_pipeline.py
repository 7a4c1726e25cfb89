"""The cold graph pipeline: generate -> dedup -> CSR -> mirror plan ->
transposed operator.

Every product of that pipeline is a cache key or feeds a ``sim_digest``,
so the stages may get cheaper but never different. The pinned values
below were generated at the commit *before* the pipeline was rebuilt
(``Generator.choice`` endpoint draws, ``np.unique`` mirror plans, a
stable argsort behind ``A^T``); the in-RAM and the out-of-core twin are
pinned separately, because tests that only compare the twins with each
other would let both drift together.
"""

from __future__ import annotations

import hashlib
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import csr
from repro.graph.build import (
    build_csr_on_disk,
    from_edges,
    from_owned_endpoints,
)
from repro.graph.datasets import PAPER_DATASETS, load_dataset
from repro.graph.generators import (
    EndpointSampler,
    _chung_lu_params,
    chung_lu,
    chung_lu_edge_blocks,
    power_law_degrees,
)
from repro.graph.mirrors import DEFAULT_DEGREE_THRESHOLD, build_mirror_plan
from repro.graph.partition import partition_graph
from repro.perf.cache import _checksum_array, clear_cache
from repro.rng import make_rng


@pytest.fixture(autouse=True)
def _fresh_state():
    saved_min = csr.MIN_STREAM_BLOCK_ARCS
    clear_cache()
    yield
    csr.MIN_STREAM_BLOCK_ARCS = saved_min
    csr.configure_streaming(None)
    clear_cache()


def array_digest(array: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(array).tobytes(), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# (a) Pinned at the parent commit
# ----------------------------------------------------------------------

#: (profile, scale) -> (fingerprint, num_vertices, num_arcs)
PINNED_GRAPHS = {
    ("twitter", 400): ("780a1ae5b627e930d2f0693c2e1a6d90", 104250, 2213973),
    ("livejournal", 100): ("98e09f6853693cff5aa990420982e9aa", 40000, 360246),
    ("web-st", 400): ("89e40e5c393e510c59807a5ab6dd076b", 705, 5205),
    ("dblp", 400): ("a9e2984af314c5c472626ee7373e3b39", 1534, 20418),
    ("orkut", 400): ("670b106ee756e2aa1d9b47d6a499c4ee", 7750, 307902),
    ("dblp", 4000): ("15d039e28993fd3d0ef80c5c9f0776f6", 153, 1746),
    ("friendster", 800): ("3ebd32f4bfd58f72f69f5a040f5c56ee", 82000, 6274924),
}

#: twitter@400 under ``hash``: machines -> (remote_machines digest,
#: remote_neighbors digest, num_mirrors)
PINNED_PLANS = {
    8: (
        "b20f7411fc085603f91ac5d3bb7b32b5",
        "d3fffbd9b44acbafad3e956edd1d71f4",
        18095,
    ),
    32: (
        "2ac63b760e45b97bbe7360f29501f7e7",
        "c15c804326ad4684c5815887c57dfaf3",
        79463,
    ),
}


def shape_of(graph):
    return graph.fingerprint, graph.num_vertices, graph.num_arcs


class TestPinnedGraphs:
    @pytest.mark.parametrize("name,scale", sorted(PINNED_GRAPHS))
    def test_in_ram(self, name, scale):
        assert shape_of(load_dataset(name, scale=scale)) == PINNED_GRAPHS[
            (name, scale)
        ]

    @pytest.mark.parametrize("name,scale", sorted(PINNED_GRAPHS))
    def test_out_of_core(self, name, scale, tmp_path):
        mapped = PAPER_DATASETS[name].instantiate_mapped(
            scale=scale, directory=str(tmp_path / "graph.csr")
        )
        assert shape_of(mapped) == PINNED_GRAPHS[(name, scale)]


class TestPinnedMirrorPlans:
    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        in_ram = PAPER_DATASETS["twitter"].instantiate(scale=400)
        mapped = PAPER_DATASETS["twitter"].instantiate_mapped(
            scale=400,
            directory=str(tmp_path_factory.mktemp("plans") / "twitter.csr"),
        )
        return {"in-ram": in_ram, "streamed": mapped}

    @pytest.mark.parametrize("machines", sorted(PINNED_PLANS))
    @pytest.mark.parametrize("twin", ["in-ram", "streamed"])
    def test_hash_plan(self, twins, twin, machines):
        graph = twins[twin]
        if twin == "streamed":
            # ~34 row blocks instead of the default budget's single one.
            csr.configure_streaming(max_ram_bytes=1)
            assert csr.streaming_block_arcs(graph) < graph.num_arcs // 8
        partition = partition_graph(graph, machines, "hash")
        plan = build_mirror_plan(graph, partition, DEFAULT_DEGREE_THRESHOLD)
        assert (
            array_digest(plan.remote_machines),
            array_digest(plan.remote_neighbors),
            plan.num_mirrors,
        ) == PINNED_PLANS[machines]


#: The four datasets of ``vcrepro report --quick`` at scale 400:
#: (dataset, strategy, machines) -> (partition digest, mirror-plan
#: digest at the default threshold), taken at the commit before the
#: monolithic plan bodies were deleted — there the in-RAM branch built
#: these, here the row-block body does, in one block or many.
PINNED_PARTITIONS = {
    ('dblp', 'edge-cut', 8): (
        '7a4b9ae4788ed2d29c3370171823809b',
        'ddf0315c4eb847b57924b89c2530dc25',
    ),
    ('dblp', 'edge-cut', 27): (
        '5a9c802c14e5cfed5c83f3013e4522b3',
        'b3d5b9cab98b8a6669141ca34c41b96c',
    ),
    ('dblp', 'hash', 8): (
        'b089cc1827a5a6a36523296b36b42d90',
        'f61636589c57632d44d52944a0463c6a',
    ),
    ('dblp', 'hash', 27): (
        '0a99212470ea87a166e7bbc5bade7bff',
        '81f8cfb738f2529a1e50cd0b404cf530',
    ),
    ('dblp', 'range', 8): (
        '710a4e396c740dbc70f29d4a150571b4',
        'c97e4b9ca97b5c00bf672ae740db93fa',
    ),
    ('dblp', 'range', 27): (
        '1969dff582ae0beb183e7850f18ba3cd',
        '517e5a8d2bc2007f8fe2e4110be08299',
    ),
    ('orkut', 'edge-cut', 8): (
        'cad7b1d884c560fbdfb695e9c803940f',
        '9e49e8d6d4a42a2c5e4841b976b67d38',
    ),
    ('orkut', 'edge-cut', 27): (
        'cdbc4d442e2a8068cda2b504a1c28a9b',
        '81452a0f68048cf14afbc273cf0952f2',
    ),
    ('orkut', 'hash', 8): (
        'e0026913d708e18b0c8ae98f48c7b6a0',
        '6cd5151f4e3f8f882a6aca20b1b80f27',
    ),
    ('orkut', 'hash', 27): (
        'a8b9d887894ceda7a1083626101ee347',
        '342a4f08e2cd0d73ae11a9c349311f12',
    ),
    ('orkut', 'range', 8): (
        'f29b7443b3d5cb84d8b6c4df0c58a386',
        '2281a30518e8aa9b9f043984114c6e53',
    ),
    ('orkut', 'range', 27): (
        'f5af33a1f9f8f4364fdcfbca59f125c6',
        'e46008498cb798b3400be29b4dba49b9',
    ),
    ('twitter', 'edge-cut', 8): (
        'b5556e85fd471cd6680fdd833577f2f8',
        '3aff5c16b89de0ebd28e20877e2067b1',
    ),
    ('twitter', 'edge-cut', 27): (
        '249daef98126335eb2ae98b7ff41e4a6',
        'cda8241a5fc8273eacc3cd17b5ad891d',
    ),
    ('twitter', 'hash', 8): (
        'fedff6df360d77961e71a95f6da79ef8',
        '92cd487211b4322abeeb6d1d14c96d7d',
    ),
    ('twitter', 'hash', 27): (
        '4318c57ff975e463be36025f1c5c3a95',
        '7412e34e248c4a6c282e5ddf8c65d3c1',
    ),
    ('twitter', 'range', 8): (
        '3d4b9b9418388f592c506a6376ce6be7',
        'd6066f84492c0d533e7b37720b066873',
    ),
    ('twitter', 'range', 27): (
        '712c4f3512a2cd6d1d276c3991302b30',
        '84fbdb98e18cb8bd5dc77165ff5e29ee',
    ),
    ('web-st', 'edge-cut', 8): (
        'e505c2d37c7c39c11dfdec1c52ab25a2',
        '46910f18cd807d19a66bf0a6db6820d7',
    ),
    ('web-st', 'edge-cut', 27): (
        '16f471bd5ee5d8b785ef77e1393bcb73',
        'dd584b1959ed6d1a44e5a5c45617d6ec',
    ),
    ('web-st', 'hash', 8): (
        '25573c252ac47a3866d4f7fba36a89c0',
        'b83c31bbd21021c6d357dacfbd2234fe',
    ),
    ('web-st', 'hash', 27): (
        'd01d5411dedaec75f70871fa8ce80385',
        'e540e63a52bb9d711af3697f1742515d',
    ),
    ('web-st', 'range', 8): (
        '1978b1f492d4e6b386d829647c190e8d',
        '190fb164faed309a77a69e313a2caeda',
    ),
    ('web-st', 'range', 27): (
        'b5f71ab46af78cddcf5ae15b91a919ad',
        '2b8b7441dba483fbe0b971afbced86a5',
    ),
}


def content_digest(*parts) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(np.ascontiguousarray(part))
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


class TestPinnedPartitionsAndPlans:
    @pytest.mark.parametrize("blocks", ["one-block", "streamed"])
    @pytest.mark.parametrize(
        "name,strategy", sorted({key[:2] for key in PINNED_PARTITIONS})
    )
    def test_every_field(self, name, strategy, blocks):
        graph = load_dataset(name, scale=400)
        if blocks == "streamed":
            csr.MIN_STREAM_BLOCK_ARCS = 1 << 10
            csr.configure_streaming(max_ram_bytes=1)
            assert csr.streaming_block_arcs(graph) == 1 << 10
        for machines in (8, 27):
            part = partition_graph(graph, machines, strategy)
            plan = build_mirror_plan(graph, part, DEFAULT_DEGREE_THRESHOLD)
            assert (
                content_digest(
                    part.owner,
                    part.num_machines,
                    part.vertices_per_machine,
                    part.arcs_per_machine,
                    part.cut_arcs,
                    part.replication_factor,
                    part.strategy,
                ),
                content_digest(
                    plan.mirrored,
                    plan.remote_machines,
                    plan.remote_neighbors,
                    plan.local_neighbors,
                    plan.degree_threshold,
                    plan.num_mirrors,
                ),
            ) == PINNED_PARTITIONS[(name, strategy, machines)]


def test_plan_without_remote_arcs(tmp_path):
    """One machine: no (source, owner) pair to de-duplicate, in either
    branch."""
    from repro.graph.io import save_mapped

    in_ram = chung_lu(200, 5.0, seed=2)
    csr.MIN_STREAM_BLOCK_ARCS = 64
    csr.configure_streaming(max_ram_bytes=1)
    for graph in (in_ram, save_mapped(in_ram, tmp_path / "one.csr")):
        clear_cache()
        plan = build_mirror_plan(graph, partition_graph(graph, 1, "hash"), 3)
        assert not plan.remote_machines.any()
        assert not plan.remote_neighbors.any()
        assert plan.num_mirrors == 0
        assert np.array_equal(plan.local_neighbors, graph.degrees)


class TestPinnedHashes:
    """Arrays are hashed through the buffer protocol, not ``tobytes()``
    copies; nothing a digest names may move."""

    def test_artifact_name_and_stored_checksum(self, tmp_path):
        graph = load_dataset("dblp", scale=4000, cache_dir=str(tmp_path))
        assert graph.fingerprint == PINNED_GRAPHS[("dblp", 4000)][0]
        # The key digest the ``.npz`` store named this graph by, on the
        # one format graphs are stored in now.
        assert os.listdir(tmp_path) == [
            "dblp-4fb6e2f5df6e2e2929517bb9690774f3.csr"
        ]
        assert graph.directory == str(tmp_path / os.listdir(tmp_path)[0])
        with open(os.path.join(graph.directory, "graph.json")) as fh:
            assert json.load(fh)["fingerprint"] == graph.fingerprint
        # ...and the checksum that store kept of it: what every other
        # artifact's ``.npz`` still carries, pinned on the same arrays.
        arrays = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "directed": np.asarray([graph.directed]),
            "name": np.asarray([graph.name]),
        }
        stored = bytes(_checksum_array(arrays)).decode("ascii")
        assert stored == "c7972ce8b10f6aa8a69431908f22e5f6"
        clear_cache()
        again = load_dataset("dblp", scale=4000, cache_dir=str(tmp_path))
        assert again.fingerprint == graph.fingerprint

    def test_checksum_of_empty_string_and_bool_arrays(self):
        arrays = {
            "a": np.empty(0, dtype=np.int64),
            "name": np.asarray(["x"]),
            "flag": np.asarray([True]),
        }
        digest = bytes(_checksum_array(arrays)).decode("ascii")
        assert digest == "55b4d8f7f7d1f39aafd2e85af6d99184"


# ----------------------------------------------------------------------
# (b) Sampler = numpy
# ----------------------------------------------------------------------


class FixedUniforms:
    """Stand-in generator handing out prepared uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.position = 0

    def random(self, size):
        out = self.uniforms[self.position : self.position + size]
        assert out.size == size
        self.position += size
        return out.copy()


def numpy_cdf(probs):
    """The CDF ``Generator.choice`` searches."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def resolve(sampler, uniforms):
    return sampler.draw(FixedUniforms(uniforms), len(uniforms))


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(min_value=2, max_value=5000))
    exponent = draw(st.floats(min_value=1.5, max_value=3.5))
    avg_degree = draw(st.floats(min_value=0.5, max_value=40.0))
    size = draw(st.integers(min_value=0, max_value=3000))
    block = draw(st.integers(min_value=1, max_value=4000))
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=size), max_size=4)
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, exponent, avg_degree, size, block, sorted(cuts), seed


class TestSamplerEqualsNumpy:
    @given(sampler_cases())
    @settings(max_examples=120, deadline=None)
    def test_power_law_weights(self, case):
        n, exponent, avg_degree, size, block, cuts, seed = case
        weights = power_law_degrees(n, avg_degree, exponent, make_rng(seed))
        probs = weights / weights.sum()
        sampler = EndpointSampler(probs)
        sampler.BLOCK = block  # internal block cuts must not show either

        ours, theirs, chunked = (make_rng(seed + 1) for _ in range(3))
        expected = theirs.choice(n, size=size, p=probs)
        got = sampler.draw(ours, size)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

        bounds = [0, *cuts, size]
        pieces = [
            sampler.draw(chunked, hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.array_equal(np.concatenate(pieces), expected)
        assert chunked.bit_generator.state == theirs.bit_generator.state

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.0)),
            min_size=2,
            max_size=60,
        ).filter(lambda ws: sum(ws) > 0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_zero_probability_runs(self, weights, seed):
        """Equal neighbouring ``cdf`` values crowd many steps into one
        bucket; on-the-step uniforms must still resolve to the right of
        the whole run."""
        probs = np.asarray(weights) / np.sum(weights)
        cdf = numpy_cdf(probs)
        sampler = EndpointSampler(probs)
        uniforms = np.concatenate(
            [make_rng(seed).random(200), cdf[cdf < 1.0], [0.0]]
        )
        assert np.array_equal(
            resolve(sampler, uniforms),
            cdf.searchsorted(uniforms, side="right"),
        )
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        assert np.array_equal(
            sampler.draw(rng_a, 300),
            rng_b.choice(probs.size, size=300, p=probs),
        )

    def test_one_vertex_holds_the_mass(self):
        n = 1000
        probs = np.full(n, 0.001 / (n - 1))
        probs[417] = 0.999
        probs /= probs.sum()
        sampler = EndpointSampler(probs)
        rng_a, rng_b = make_rng(3), make_rng(3)
        got = sampler.draw(rng_a, 20_000)
        assert np.array_equal(got, rng_b.choice(n, size=20_000, p=probs))
        assert np.count_nonzero(got == 417) > 19_900
        # every one of the 999 crowded steps, hit exactly
        cdf = numpy_cdf(probs)
        on_steps = cdf[cdf < 1.0]
        assert np.array_equal(
            resolve(sampler, on_steps),
            cdf.searchsorted(on_steps, side="right"),
        )

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 13])
    def test_uniform_on_a_step_on_a_bucket_edge(self, n):
        """A CDF step placed exactly on (and one ulp either side of)
        every bucket edge, probed by uniforms on and next to it — for
        the sampler's own bucket count and for ``8 n``, whose edges are
        not exact in floating point."""
        real_buckets = EndpointSampler(np.full(n, 1.0 / n)).buckets
        assert real_buckets >= 8 * n
        assert real_buckets & (real_buckets - 1) == 0
        for buckets in (real_buckets, 8 * n):
            for k in range(1, buckets):
                edge = k / buckets
                around = (np.nextafter(edge, 0), edge, np.nextafter(edge, 1))
                for step in around:
                    probs = np.zeros(n)
                    probs[0], probs[-1] = step, 1.0 - step
                    cdf = numpy_cdf(probs)
                    uniforms = np.array(
                        [np.nextafter(step, 0), step, np.nextafter(step, 1)]
                    )
                    assert np.array_equal(
                        resolve(EndpointSampler(probs), uniforms),
                        cdf.searchsorted(uniforms, side="right"),
                    ), (buckets, k, step)

    def test_guide_is_the_answer_at_every_bucket_edge(self):
        probs = np.array([0.25, 0.0, 0.25, 0.125, 0.375])
        sampler = EndpointSampler(probs)
        edges = np.arange(sampler.buckets + 1) / sampler.buckets
        assert np.array_equal(
            sampler.guide, numpy_cdf(probs).searchsorted(edges, side="right")
        )

    @pytest.mark.parametrize(
        "probs",
        [[0.5, float("nan")], [0.0, 0.0], [1.5, -0.5], [float("inf"), 1.0]],
    )
    def test_invalid_weights_rejected(self, probs):
        with pytest.raises(ConfigurationError):
            EndpointSampler(np.asarray(probs))


class TestBlockStreamEqualsMonolithicDraws:
    @pytest.mark.parametrize("block_edges", [1, 7, 1000, 10**6])
    def test_blocks_concatenate_to_the_two_draws(self, block_edges):
        rng, sampler, num_arcs = _chung_lu_params(300, 6.0, 2.2, seed=11)
        src = sampler.draw(rng, num_arcs)
        dst = sampler.draw(rng, num_arcs)
        blocks = list(
            chung_lu_edge_blocks(
                300, 6.0, 2.2, seed=11, block_edges=block_edges
            )
        )
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), src)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), dst)


# ----------------------------------------------------------------------
# (c) Transposition without a sort
# ----------------------------------------------------------------------


def stable_argsort_operator(graph):
    """``A^T`` the way it was built before: stable sort by target."""
    from scipy import sparse

    n = graph.num_vertices
    order = np.argsort(graph.indices, kind="stable")
    rev_src = graph.edge_sources()[order]
    in_deg = np.bincount(graph.indices, minlength=n)
    rev_indptr = np.concatenate(([0], np.cumsum(in_deg)))
    return sparse.csr_matrix(
        (np.ones(graph.num_arcs, dtype=np.float64), rev_src, rev_indptr),
        shape=(n, n),
    )


def parallel_arc_graph():
    rng = make_rng(5)
    src = rng.integers(0, 40, size=600)
    dst = rng.integers(0, 40, size=600)
    graph = from_edges(src, dst, num_vertices=40)
    assert graph.num_arcs == 600  # duplicates and self loops all kept
    assert len(set(zip(src.tolist(), dst.tolist()))) < 600
    return graph


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: chung_lu(500, 9.0, seed=4),
        lambda: chung_lu(300, 12.0, directed=False, seed=4),
        parallel_arc_graph,
    ],
    ids=["dedup-directed", "dedup-undirected", "parallel-arcs"],
)
class TestTransposedOperator:
    def test_arrays_equal_the_stable_argsort_construction(self, make_graph):
        graph = make_graph()
        op = csr._transposed_operator(graph, 0, graph.num_vertices)
        ref = stable_argsort_operator(graph)
        assert op.shape == ref.shape and op.format == "csr"
        for name in ("indices", "indptr", "data"):
            ours, theirs = getattr(op, name), getattr(ref, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name

    def test_matvec_equals_the_bincount_fallback_bit_for_bit(self, make_graph):
        graph = make_graph()
        x = make_rng(9).random(graph.num_vertices)
        fallback = np.bincount(
            graph.indices,
            weights=np.repeat(x, graph.degrees),
            minlength=graph.num_vertices,
        )
        assert csr.propagate_mass(graph, x).tobytes() == fallback.tobytes()


def stable_argsort_reverse(graph):
    """``Graph.reverse``'s arrays the way they were built before: a
    stable argsort of the arcs by target."""
    order = np.argsort(graph.indices, kind="stable")
    in_degrees = np.bincount(graph.indices, minlength=graph.num_vertices)
    weights = None if graph.weights is None else graph.weights[order]
    return (
        np.concatenate(([0], np.cumsum(in_degrees))),
        graph.edge_sources()[order],
        weights,
    )


def weighted_parallel_arc_graph():
    rng = make_rng(6)
    src = rng.integers(0, 30, size=400)
    dst = rng.integers(0, 30, size=400)
    # Distinct weights, a few of them zero: parallel arcs are told
    # apart and an explicit zero is still an arc.
    weights = rng.permutation(400).astype(np.float64) // 8
    return from_edges(src, dst, weights, num_vertices=30)


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: chung_lu(500, 9.0, seed=4),
        lambda: chung_lu(300, 12.0, directed=False, seed=4),
        parallel_arc_graph,
        weighted_parallel_arc_graph,
        lambda: from_edges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            num_vertices=3,
        ),
    ],
    ids=["directed", "undirected", "parallel-arcs", "weighted", "edgeless"],
)
class TestSharedTransposition:
    """One cached ``A^T`` per graph behind ``reverse``, the spread
    operator and the pull rounds — derived state, like ``degrees``."""

    def test_reverse_equals_the_stable_argsort_construction(self, make_graph):
        graph = make_graph()
        rev = graph.reverse()
        indptr, sources, weights = stable_argsort_reverse(graph)
        assert rev.directed == graph.directed and rev.name == f"{graph.name}^T"
        for ours, theirs in (
            (rev.indptr, indptr), (rev.indices, sources), (rev.weights, weights)
        ):
            if theirs is None:
                assert ours is None
            else:
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)
        assert rev.reverse() == graph

    def test_one_conversion_however_many_ask(self, make_graph, monkeypatch):
        from scipy import sparse

        conversions = []
        tocsc = sparse.csr_matrix.tocsc

        def counting(matrix, *args, **kwargs):
            conversions.append(matrix.shape)
            return tocsc(matrix, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_matrix, "tocsc", counting)
        graph = make_graph()
        assert graph._transpose is None  # lazy: nothing built yet
        x = make_rng(9).random(graph.num_vertices)
        csr.propagate_mass(graph, x)  # BPPR's operator
        graph.reverse()
        lists = graph.transposition()  # what a pull round asks for
        csr.propagate_mass(graph, x)
        assert graph.reverse().indices is lists[1]
        assert len(conversions) == 1

    def test_the_cache_is_no_part_of_the_graphs_identity(self, make_graph):
        graph, twin = make_graph(), make_graph()
        before = graph.fingerprint, hash(graph)
        graph.transposition()
        assert graph == twin and twin == graph
        assert (graph.fingerprint, hash(graph)) == before
        assert graph.fingerprint == twin.fingerprint


# ----------------------------------------------------------------------
# (d) Key-space builder
# ----------------------------------------------------------------------


def oracle_arcs(src, dst, directed):
    """Distinct loop-free arcs in (src, dst) order, from a Python set."""
    arcs = {(s, d) for s, d in zip(src.tolist(), dst.tolist()) if s != d}
    if not directed:
        arcs |= {(d, s) for s, d in arcs}
    return sorted(arcs)


def arcs_of(graph):
    return list(zip(graph.edge_sources().tolist(), graph.indices.tolist()))


@st.composite
def endpoint_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=200))
    kind = draw(st.sampled_from(["random", "self-loops", "one-arc"]))
    ids = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(ids, min_size=m, max_size=m))
    if kind == "self-loops":
        dst = list(src)
    elif kind == "one-arc":
        src = [src[0]] * m if m else []
        dst = [draw(ids)] * m
    else:
        dst = draw(st.lists(ids, min_size=m, max_size=m))
    # More vertices than the lists mention: the split must use the
    # declared count, not one inferred from the data.
    n += draw(st.integers(min_value=0, max_value=5))
    return (
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        draw(st.booleans()),
    )


class TestKeySpaceBuilder:
    @given(endpoint_lists())
    @settings(max_examples=200, deadline=None)
    def test_owned_builder_equals_from_edges_and_the_set_oracle(self, case):
        n, src, dst, directed = case
        public = from_edges(
            src,
            dst,
            num_vertices=n,
            directed=directed,
            dedup=True,
            drop_self_loops=True,
        )
        owned = from_owned_endpoints(
            src.copy(), dst.copy(), num_vertices=n, directed=directed
        )
        assert arcs_of(public) == oracle_arcs(src, dst, directed)
        assert owned == public and owned.fingerprint == public.fingerprint
        assert owned.num_vertices == n and owned.directed == directed

    @given(endpoint_lists(), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_from_edges_never_writes_its_inputs(self, case, dedup, drop):
        n, src, dst, directed = case
        src.setflags(write=False)
        dst.setflags(write=False)
        before = src.copy(), dst.copy()
        graph = from_edges(
            src,
            dst,
            num_vertices=n,
            directed=directed,
            dedup=dedup,
            drop_self_loops=drop,
        )
        assert np.array_equal(src, before[0])
        assert np.array_equal(dst, before[1])
        if dedup and not drop:  # a dedup that keeps self loops keeps them
            loops = {(s, d) for s, d in zip(src.tolist(), dst.tolist()) if s == d}
            assert loops <= set(arcs_of(graph))


# ----------------------------------------------------------------------
# (e) The auto-dispatch bound stays a bound
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,scale", [("livejournal", 100), ("dblp", 40)]
)
def test_build_peak_within_the_dispatch_estimate(name, scale):
    """``--max-ram`` builds a profile in RAM when ``estimated_build_bytes``
    fits the budget, so the estimate must not undershoot the build's
    real transient peak (one directed, one undirected profile; both
    sparse, where the per-vertex guide table weighs most)."""
    profile = PAPER_DATASETS[name]
    tracemalloc.start()
    try:
        graph = profile.instantiate(scale=scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_arcs > 200_000
    assert peak <= profile.estimated_build_bytes(scale)


# ----------------------------------------------------------------------
# (f) Hostile generator parameters
# ----------------------------------------------------------------------


class TestHostileParameters:
    @pytest.mark.parametrize(
        "avg_degree", [-1, -0.5, float("nan"), float("inf"), 1e308]
    )
    def test_bad_avg_degree_is_a_configuration_error(self, avg_degree):
        with pytest.raises(ConfigurationError, match="avg_degree"):
            chung_lu(10, avg_degree)
        with pytest.raises(ConfigurationError, match="avg_degree"):
            list(chung_lu_edge_blocks(10, avg_degree))

    def test_nan_exponent_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="exponent"):
            chung_lu(10, 3.0, exponent=float("nan"))

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("avg_degree", [0.0, 0.01])
    def test_zero_arcs_is_the_edgeless_graph(
        self, avg_degree, directed, tmp_path
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = chung_lu(10, avg_degree, directed=directed)
            blocks = list(chung_lu_edge_blocks(10, avg_degree))
            mapped = build_csr_on_disk(
                chung_lu_edge_blocks(10, avg_degree),
                num_vertices=10,
                directory=tmp_path / "empty.csr",
                directed=directed,
            )
        assert blocks == []
        assert (graph.num_vertices, graph.num_arcs) == (10, 0)
        assert graph.directed == directed
        assert np.array_equal(graph.indptr, np.zeros(11, dtype=np.int64))
        assert (mapped.num_vertices, mapped.num_arcs) == (10, 0)
        assert mapped.fingerprint == graph.fingerprint
        assert csr.propagate_mass(graph, np.ones(10)).tolist() == [0.0] * 10
