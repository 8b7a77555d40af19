"""Seeded random-graph generators: G(n,p), geometric placements, preferential attachment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuardError
from .graph import Graph, _from_rows, complete
from .robustness import is_r_robust


@dataclass(frozen=True)
class RngSeed:
    """PCG64 seed. Identical (seed, stream) reproduces generation bit-for-bit.

    Stream ids split one entropy value into independent generators; harnesses
    hand stream base+k to trial k.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream < 0:
            raise ValueError("stream must be nonnegative")

    def child(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, self.stream + offset)


def rng_for(seed) -> np.random.Generator:
    """Generator for an RngSeed; a bare int means stream 0 of that entropy."""
    if isinstance(seed, (int, np.integer)):
        seed = RngSeed(int(seed))
    ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream,))
    return np.random.Generator(np.random.PCG64(ss))


def pair_uniforms(n: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform per unordered node pair, in (u, v) lexicographic order.

    Thresholding these against p yields G(n, p); reusing the same array for
    several p values couples the samples monotonically.
    """
    return rng.random(n * (n - 1) // 2)


# Guards for G(n, p), which draws n(n-1)/2 float64 uniforms and a boolean mask
# over them, for preferential attachment, which keeps a Fenwick tree of n
# degrees and n adjacency rows, and for geometric placements, whose distance
# graph tests all n(n-1)/2 pairs in a Python loop (9 s at n = 5,000).
ER_NODE_LIMIT = 5000
PA_NODE_LIMIT = 5000
GEOM_NODE_LIMIT = 5000


def _er_guard(n: int) -> None:
    if n > ER_NODE_LIMIT:
        raise ResourceGuardError(
            f"G(n, p) draws one uniform per node pair; n={n} exceeds the guard "
            f"ER_NODE_LIMIT = {ER_NODE_LIMIT}"
        )


def _pa_guard(n: int) -> None:
    if n > PA_NODE_LIMIT:
        raise ResourceGuardError(
            f"preferential attachment: n={n} exceeds the guard PA_NODE_LIMIT = {PA_NODE_LIMIT}"
        )


def _geom_guard(n: int) -> None:
    if n > GEOM_NODE_LIMIT:
        raise ResourceGuardError(
            f"geometric placement: n={n} exceeds the guard GEOM_NODE_LIMIT = {GEOM_NODE_LIMIT}"
        )


def _pair_ends(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the given positions in pair_uniforms order: row u starts at
    u(2n - u - 1)/2, so u is the last row start at or below the position."""
    us = np.arange(n, dtype=np.int64)
    starts = us * (2 * n - us - 1) // 2
    u = np.searchsorted(starts, flat, side="right") - 1
    return u, flat - starts[u] + u + 1


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _pair_ends(n, np.arange(n * (n - 1) // 2, dtype=np.int64))


def graph_from_pair_mask(n: int, mask: np.ndarray) -> Graph:
    """The graph on the pairs that mask selects, in pair_indices(n) order."""
    return _graph_from_ends(n, *_pair_ends(n, np.flatnonzero(mask)))


def _graph_from_ends(n: int, iu: np.ndarray, ju: np.ndarray) -> Graph:
    """The graph with the edges {iu[i], ju[i]}, none a loop; nothing is checked.

    Both directions of every edge are ORed into one packed buffer of
    n * ceil(n/8) bytes, node u's row being bytes u*width .. (u+1)*width - 1
    in little-endian bit order; each row then becomes one int.
    """
    src = np.concatenate((iu, ju))
    dst = np.concatenate((ju, iu))
    width = max(1, (n + 7) // 8)  # a nonzero step for the slicing below, also at n = 0
    packed = np.zeros(n * width, np.uint8)
    np.bitwise_or.at(packed, src * width + dst // 8, (1 << dst % 8).astype(np.uint8))
    buf = packed.tobytes()
    rows = [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return _from_rows(n, rows)


def gen_erdos_renyi(n: int, p: float, seed) -> Graph:
    """G(n, p): each unordered pair present independently with probability p."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _er_guard(n)
    u = pair_uniforms(n, rng_for(seed))
    return graph_from_pair_mask(n, u < p)


@dataclass(frozen=True)
class GeometricPlacement:
    """Node positions in [0, side_length]^dimension with a connection radius."""

    positions: tuple
    side_length: float
    radius: float
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.side_length <= 0:
            raise ValueError("side_length must be positive")
        for pt in self.positions:
            if len(pt) != self.dimension:
                raise ValueError("coordinate dimension mismatch")
            if any(not 0 <= c <= self.side_length for c in pt):
                raise ValueError("coordinate outside the placement region")

    def spread(self) -> float:
        """max - min of coordinates (1-D only): x(n) - x(1)."""
        if self.dimension != 1:
            raise ValueError("spread is defined for 1-D placements")
        xs = [pt[0] for pt in self.positions]
        return max(xs) - min(xs)


def graph_from_placement(pl: GeometricPlacement) -> Graph:
    """Edge iff Euclidean distance <= radius. Deterministic in the given order."""
    n = len(pl.positions)
    r2 = pl.radius * pl.radius
    edges = []
    for u in range(n):
        pu = pl.positions[u]
        for v in range(u + 1, n):
            pv = pl.positions[v]
            if sum((a - b) * (a - b) for a, b in zip(pu, pv)) <= r2:
                edges.append((u, v))
    return Graph(n, edges)


def gen_geometric(n: int, radius: float, side_length: float, dimension: int, seed):
    """Uniform i.i.d. placement, then the distance graph.

    For dimension 1 the positions are sorted ascending (ties by draw index)
    before node indices are assigned, so node order equals position order.
    Returns (Graph, GeometricPlacement).
    """
    if n < 1:
        raise ValueError("n must be positive")
    _geom_guard(n)
    coords = rng_for(seed).random((n, dimension)) * side_length
    if dimension == 1:
        order = np.argsort(coords[:, 0], kind="stable")
        coords = coords[order]
    pl = GeometricPlacement(
        positions=tuple(tuple(float(c) for c in row) for row in coords),
        side_length=float(side_length),
        radius=float(radius),
        dimension=int(dimension),
    )
    return graph_from_placement(pl), pl


def gen_preferential(
    n: int,
    r: int,
    seed,
    seed_graph: Graph | None = None,
    verify_seed_graph: bool = False,
) -> Graph:
    """Preferential attachment: start from an r-robust seed graph (default
    K_{2r-1}), then attach each new node to r distinct existing nodes drawn
    with probability proportional to current degree.

    Sampling without replacement is by rejection of already-chosen targets;
    each draw descends a Fenwick tree of the degrees, so a graph costs
    O(n r log n). A zero total degree (only possible around K_1) falls back
    to uniform choice.
    """
    if r < 1:
        raise ValueError("r must be positive")
    _pa_guard(n)
    if verify_seed_graph and seed_graph is not None and not is_r_robust(seed_graph, r):
        raise ValueError("seed graph is not r-robust")
    n0 = 2 * r - 1 if seed_graph is None else seed_graph.n
    if n < n0:  # before K_{2r-1} is built, so n also bounds r
        raise ValueError("seed graph too small for n (need n >= seed graph size)")
    if seed_graph is None:
        seed_graph = complete(n0)
    if n0 < r:
        raise ValueError("seed graph too small to supply r distinct targets")
    rng = rng_for(seed)
    degrees = [row.bit_count() for row in seed_graph.adj]
    # Degrees only grow and each new node gets r, so after the first new node
    # at least r + 1 nodes have nonzero degree: only the seed graph can fail.
    if n > n0 and 0 < sum(d > 0 for d in degrees) < r:
        raise ValueError("seed graph cannot supply r distinct degree-weighted targets")
    # A Fenwick tree over the degrees, padded to a power of two: tree[i] sums
    # the degrees of nodes i - (i & -i) .. i - 1.
    size = 1 << (n - 1).bit_length()
    tree = [0, *degrees] + [0] * (size - n0)
    for i in range(1, size):
        tree[i + (i & -i)] += tree[i]
    rows = seed_graph.adj + [0] * (n - n0)
    total = sum(degrees)
    for new in range(n0, n):
        chosen: set = set()
        while len(chosen) < r:
            if total == 0:
                v = int(rng.integers(new))
            else:
                # The first node whose prefix sum of degrees exceeds the draw,
                # as bisect_right finds it: the sums are integers, so they may
                # be compared with its floor, below total. The descent starts
                # at the smallest power of two not below new, past which all
                # degrees are still 0.
                x, v, step = int(rng.random() * total), 0, 1 << (new - 1).bit_length() >> 1
                while step:
                    if tree[v + step] <= x:
                        v += step
                        x -= tree[v]
                    step >>= 1
            chosen.add(v)
        for v in chosen:
            rows[v] |= 1 << new
            rows[new] |= 1 << v
            _fenwick_add(tree, v, 1)
        _fenwick_add(tree, new, r)
        total += 2 * r
    return _from_rows(n, rows)


def _fenwick_add(tree: list, i: int, d: int) -> None:
    """Add d to entry i (0-based) of the Fenwick tree."""
    i, size = i + 1, len(tree)
    while i < size:
        tree[i] += d
        i += i & -i
