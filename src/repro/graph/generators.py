"""Synthetic graph generators.

The paper benchmarks on six public SNAP graphs. Those graphs are not
available offline, so :mod:`repro.graph.datasets` instantiates *profiles*
(node count, edge count, degree skew) through the generators in this
module. The central generator is :func:`chung_lu`, which produces graphs
with a prescribed expected degree sequence — enough to reproduce the
degree-skew effects the paper's mirroring mechanism depends on. Simpler
deterministic generators (chain, star, grid, complete) are used heavily by
the test-suite because their task results are known in closed form.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.build import from_edges, from_owned_endpoints
from repro.graph.csr import Graph
from repro.rng import SeedLike, make_rng

#: Default arcs per block yielded by :func:`chung_lu_edge_blocks`.
DEFAULT_BLOCK_EDGES = 1 << 21


def erdos_renyi(
    n: int,
    avg_degree: float,
    directed: bool = True,
    seed: SeedLike = None,
    name: str = "erdos-renyi",
) -> Graph:
    """G(n, m)-style random graph with ``n`` vertices and ``n * avg_degree``
    arcs sampled uniformly with replacement (then de-duplicated)."""
    if n <= 0:
        raise ConfigurationError("n must be positive")
    if avg_degree < 0:
        raise ConfigurationError("avg_degree must be non-negative")
    rng = make_rng(seed, label="erdos-renyi")
    num_arcs = int(round(n * avg_degree))
    src = rng.integers(0, n, size=num_arcs, dtype=np.int64)
    dst = rng.integers(0, n, size=num_arcs, dtype=np.int64)
    return from_edges(
        src,
        dst,
        num_vertices=n,
        directed=directed,
        dedup=True,
        drop_self_loops=True,
        name=name,
    )


def power_law_degrees(
    n: int, avg_degree: float, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample an expected-degree sequence with a power-law tail.

    Degrees follow a bounded Pareto shape with the given ``exponent``,
    rescaled so the mean matches ``avg_degree``. The maximum expected
    degree is capped at ``n - 1``.
    """
    if not exponent > 1.0:  # also catches NaN
        raise ConfigurationError("power-law exponent must exceed 1")
    raw = (1.0 - rng.random(n)) ** (-1.0 / (exponent - 1.0))
    raw *= avg_degree / raw.mean()
    return np.minimum(raw, float(max(n - 1, 1)))


def chung_lu(
    n: int,
    avg_degree: float,
    exponent: float = 2.1,
    directed: bool = True,
    seed: SeedLike = None,
    name: str = "chung-lu",
) -> Graph:
    """Chung-Lu style random graph with a power-law expected degree sequence.

    Arcs are sampled by drawing both endpoints proportionally to the
    expected degree weights, which yields the correlated hub structure of
    social graphs (hubs attract both in- and out-edges). Duplicate arcs
    and self loops are removed, so realised degree means run slightly
    below the target; dataset profiles compensate by oversampling.
    ``avg_degree == 0`` gives the edgeless ``n``-vertex graph.
    """
    rng, sampler, num_arcs = _chung_lu_params(n, avg_degree, exponent, seed)
    if sampler is None:
        return from_edges([], [], num_vertices=n, directed=directed, name=name)
    # The two draws are temporaries of this call, so the builder may
    # (and does) overwrite them instead of copying.
    return from_owned_endpoints(
        sampler.draw(rng, num_arcs),
        sampler.draw(rng, num_arcs),
        num_vertices=n,
        directed=directed,
        name=name,
    )


class EndpointSampler:
    """Inverse-CDF sampling through a guide table (Chen & Asau 1974;
    Devroye, *Non-Uniform Random Variate Generation*, §III.2.4).

    Draws exactly what ``Generator.choice(n, size, p=probs)`` draws —
    ``cdf.searchsorted(rng.random(size), "right")`` over the same
    normalised ``cdf`` — without the binary search: ``guide[k]`` is the
    answer for ``u = k / K``, so a uniform in bucket ``b = floor(u * K)``
    has its answer in ``[guide[b], guide[b + 1]]``, and only the buckets
    that hold a CDF step need a look at ``cdf`` at all. ``K`` is a power
    of two so ``u * K``, its floor and ``k / K`` are exact in floating
    point and the bracket holds without slack (DESIGN.md §11.2.1).
    """

    #: Uniforms per internal block: the temporaries of one block stay
    #: cache-resident, and a draw's transient footprint does not grow
    #: with its size.
    BLOCK = 1 << 16

    def __init__(self, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        cdf = probs.cumsum()
        if not (probs.min() >= 0 and 0 < cdf[-1] < np.inf):
            raise ConfigurationError(
                "sampling weights must be finite, non-negative, not all zero"
            )
        cdf /= cdf[-1]
        self.cdf = cdf
        self.buckets = 1 << (8 * cdf.size - 1).bit_length()
        edges = np.arange(self.buckets + 1, dtype=np.float64)
        edges /= self.buckets
        self.guide = cdf.searchsorted(edges, side="right")
        #: buckets whose interval contains at least one ``cdf`` value.
        self.has_step = self.guide[1:] != self.guide[:-1]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` vertex ids as a fresh ``int64`` array, consuming one
        uniform double per sample in stream order — so chunked draws
        concatenate to the monolithic one, and a clone advanced by
        ``size`` continues where this call stops."""
        out = np.empty(size, dtype=np.int64)
        for lo in range(0, size, self.BLOCK):
            block = out[lo : lo + self.BLOCK]
            block[:] = self._resolve(rng.random(block.size))
        return out

    def _resolve(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, "right")`` for uniforms in ``[0, 1)``."""
        cdf = self.cdf
        bucket = (u * self.buckets).astype(np.intp)
        idx = self.guide[bucket]
        todo = np.flatnonzero(self.has_step[bucket])
        # Walk up from the bucket's lower bracket; twice settles all but
        # buckets crowded with steps (ties, zero-probability runs),
        # which go to the binary search instead of more passes.
        for _ in range(2):
            if not todo.size:
                return idx
            at = idx[todo]
            moved = cdf[at] <= u[todo]
            at += moved
            idx[todo] = at
            todo = todo[moved]
        if todo.size:
            idx[todo] = cdf.searchsorted(u[todo], side="right")
        return idx


def _chung_lu_params(
    n: int, avg_degree: float, exponent: float, seed: SeedLike
) -> Tuple[np.random.Generator, Optional[EndpointSampler], int]:
    """Shared setup for :func:`chung_lu` and :func:`chung_lu_edge_blocks`.

    Returns the generator (positioned right after the degree draws), the
    endpoint sampler, and the oversampled arc count. Both callers must
    consume the stream identically from here for their outputs to match
    bit for bit. A graph of zero arcs has no sampler (``None``): with
    ``avg_degree == 0`` the weights sum to zero and there is no
    distribution to draw from.
    """
    if n <= 1:
        raise ConfigurationError("n must be at least 2")
    # Oversample ~12% to compensate for dedup/self-loop losses.
    target = n * avg_degree * 1.12
    if not (math.isfinite(target) and target >= 0):
        raise ConfigurationError("avg_degree must be finite and non-negative")
    rng = make_rng(seed, label="chung-lu")
    weights = power_law_degrees(n, avg_degree, exponent, rng)
    num_arcs = int(round(target))
    if num_arcs == 0:
        return rng, None, 0
    return rng, EndpointSampler(weights / weights.sum()), num_arcs


def _advanced_clone(
    rng: np.random.Generator, draws: int
) -> Optional[np.random.Generator]:
    """Clone ``rng`` skipped ``draws`` double-draws ahead, or ``None``
    when the bit generator cannot advance in O(1) (non-PCG streams)."""
    bit_gen = rng.bit_generator
    if not hasattr(bit_gen, "advance"):
        return None
    clone = type(bit_gen)()
    clone.state = bit_gen.state
    clone.advance(draws)
    return np.random.Generator(clone)


def chung_lu_edge_blocks(
    n: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: SeedLike = None,
    block_edges: int = DEFAULT_BLOCK_EDGES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield the exact arc stream of :func:`chung_lu` in bounded blocks.

    The bit-for-bit contract: concatenating the yielded ``(src, dst)``
    blocks reproduces the monolithic draws of :func:`chung_lu` exactly,
    so an out-of-core build from these blocks is byte-identical to the
    in-RAM graph. Two stream properties make that possible without
    materialising either endpoint array:

    * :meth:`EndpointSampler.draw` consumes exactly one uniform double
      per sample, so chunked draws concatenate to the monolithic draw;
    * PCG64's O(1) ``advance`` lets a cloned generator start the
      destination stream ``num_arcs`` draws ahead, so source and
      destination blocks interleave while each generator still emits
      its stream sequentially.

    A bit generator without ``advance`` falls back to materialising
    both endpoint arrays once and slicing (correct, not out-of-core);
    :func:`repro.rng.make_rng` always returns PCG64, so the fallback is
    never hit in practice.
    """
    if block_edges < 1:
        raise ConfigurationError("block_edges must be positive")
    rng, sampler, num_arcs = _chung_lu_params(n, avg_degree, exponent, seed)
    block = int(block_edges)
    if sampler is None:
        return
    dst_rng = _advanced_clone(rng, num_arcs)
    if dst_rng is None:
        src = sampler.draw(rng, num_arcs)
        dst = sampler.draw(rng, num_arcs)
        for start in range(0, num_arcs, block):
            yield src[start : start + block], dst[start : start + block]
        return
    for start in range(0, num_arcs, block):
        size = min(block, num_arcs - start)
        yield sampler.draw(rng, size), sampler.draw(dst_rng, size)


def chain(n: int, directed: bool = False) -> Graph:
    """Path graph ``0 - 1 - ... - (n-1)``; handy for distance tests."""
    if n <= 0:
        raise ConfigurationError("n must be positive")
    src = np.arange(n - 1, dtype=np.int64)
    return from_edges(
        src, src + 1, num_vertices=n, directed=directed, name=f"chain-{n}"
    )


def star(n: int, directed: bool = False) -> Graph:
    """Star with centre 0 and ``n - 1`` leaves; the extreme skew case."""
    if n <= 1:
        raise ConfigurationError("star needs at least 2 vertices")
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return from_edges(src, dst, num_vertices=n, directed=directed, name=f"star-{n}")


def complete(n: int, directed: bool = True) -> Graph:
    """Complete graph on ``n`` vertices (no self loops)."""
    if n <= 1:
        raise ConfigurationError("complete graph needs at least 2 vertices")
    grid_src, grid_dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = grid_src != grid_dst
    return from_edges(
        grid_src[mask].astype(np.int64),
        grid_dst[mask].astype(np.int64),
        num_vertices=n,
        directed=directed,
        name=f"complete-{n}",
    )


def grid_2d(rows: int, cols: int, directed: bool = False) -> Graph:
    """2-D lattice; used to exercise diameter-heavy (many-round) workloads."""
    if rows <= 0 or cols <= 0:
        raise ConfigurationError("grid dimensions must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz_src = ids[:, :-1].ravel()
    horiz_dst = ids[:, 1:].ravel()
    vert_src = ids[:-1, :].ravel()
    vert_dst = ids[1:, :].ravel()
    src = np.concatenate([horiz_src, vert_src])
    dst = np.concatenate([horiz_dst, vert_dst])
    return from_edges(
        src,
        dst,
        num_vertices=rows * cols,
        directed=directed,
        name=f"grid-{rows}x{cols}",
    )
