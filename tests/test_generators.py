"""Seeded generator behavior: determinism, parameter validation, and the
shape facts each family guarantees by construction."""

import bisect
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from netrobust import generators
from netrobust.errors import ResourceGuardError
from netrobust.generators import (
    ER_NODE_LIMIT,
    GEOM_NODE_LIMIT,
    PA_NODE_LIMIT,
    GeometricPlacement,
    RngSeed,
    _graph_from_ends,
    _pair_ends,
    gen_erdos_renyi,
    gen_geometric,
    gen_preferential,
    graph_from_pair_mask,
    graph_from_placement,
    pair_indices,
    pair_uniforms,
    rng_for,
)
from netrobust.graph import Graph, complete, cycle, is_connected, min_degree
from netrobust.robustness import is_r_robust, robustness


# --- seeds -------------------------------------------------------------------


def test_rng_seed_validation():
    RngSeed(0)
    RngSeed(2**64 - 1, 5)
    with pytest.raises(ValueError, match="64-bit"):
        RngSeed(2**64)
    with pytest.raises(ValueError, match="64-bit"):
        RngSeed(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        RngSeed(0, -1)


def test_child_offsets_stream():
    s = RngSeed(99, 2)
    assert s.child(3) == RngSeed(99, 5)
    assert s.child(0) == s


def test_rng_determinism_and_stream_independence():
    a = rng_for(RngSeed(5, 3)).random(3)
    b = rng_for(RngSeed(5, 3)).random(3)
    assert np.array_equal(a, b)
    assert [round(float(x), 6) for x in a] == [0.720196, 0.694664, 0.638412]
    c = rng_for(RngSeed(5, 4)).random(3)
    assert not np.array_equal(a, c)
    # bare ints mean stream 0
    assert np.array_equal(rng_for(5).random(3), rng_for(RngSeed(5, 0)).random(3))


# --- Erdos-Renyi -------------------------------------------------------------


def test_er_determinism_frozen():
    g = gen_erdos_renyi(6, 0.5, 42)
    assert list(g.edges()) == [(0, 4), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
    assert g == gen_erdos_renyi(6, 0.5, 42)


def test_er_extremes_and_validation():
    assert gen_erdos_renyi(7, 0.0, 1).edge_count() == 0
    assert gen_erdos_renyi(7, 1.0, 1) == complete(7)
    with pytest.raises(ValueError, match="p must lie"):
        gen_erdos_renyi(5, 1.5, 1)
    with pytest.raises(ValueError, match="n must be positive"):
        gen_erdos_renyi(0, 0.5, 1)


def test_er_edge_rate_matches_p():
    # 300 seeded samples of G(20, 0.3): total pair count is Binomial(57000, 0.3)
    n, p, trials = 20, 0.3, 300
    pairs = n * (n - 1) // 2
    total = sum(gen_erdos_renyi(n, p, RngSeed(77, k)).edge_count() for k in range(trials))
    lo = stats.binom.ppf(1e-9, pairs * trials, p)
    hi = stats.binom.isf(1e-9, pairs * trials, p)
    assert lo <= total <= hi


def test_pair_uniforms_coupling():
    # same trial seed thresholded at increasing p gives nested edge sets
    u = pair_uniforms(10, rng_for(RngSeed(3)))
    assert u.shape == (45,)
    sparse = graph_from_pair_mask(10, u < 0.2)
    dense = graph_from_pair_mask(10, u < 0.6)
    assert set(sparse.edges()) <= set(dense.edges())


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 63, 64, 65, 200, 1000])
@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
def test_pair_mask_rows_equal_the_checked_edge_build(n, p):
    # n straddles byte and word boundaries of the packed rows
    mask = pair_uniforms(n, rng_for(RngSeed(n, 7))) < p
    iu, ju = np.triu_indices(n, 1)
    sel = np.flatnonzero(mask)
    assert graph_from_pair_mask(n, mask) == Graph(n, zip(iu[sel].tolist(), ju[sel].tolist()))


@pytest.mark.parametrize("n", [2, 7, 9, 64, 65, 300, 1000])
def test_graph_from_held_ends_equals_the_pair_mask_build(n):
    # the ends a coupled sweep holds for its highest p, subset at each lower p
    u = pair_uniforms(n, rng_for(RngSeed(n, 3)))
    ps = [0.0, 2 / n, 0.05, 0.3, 1.0]
    top = np.flatnonzero(u < max(ps))
    u_top, (iu_top, ju_top) = u[top], _pair_ends(n, top)
    for p in ps:
        present = u_top < p
        assert _graph_from_ends(n, iu_top[present], ju_top[present]) == graph_from_pair_mask(n, u < p), p


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 64, 65, 1000, 2897])
def test_pair_ends_decode_every_position_as_triu_indices_does(n):
    iu, ju = np.triu_indices(n, 1)
    u, v = generators._pair_ends(n, np.arange(len(iu)))
    assert np.array_equal(u, iu) and np.array_equal(v, ju)
    assert all(np.array_equal(a, b) for a, b in zip(pair_indices(n), (iu, ju)))


def test_a_large_er_graph_leaves_no_index_arrays_behind():
    tracemalloc.start()
    try:
        gen_erdos_renyi(4000, 0.001, RngSeed(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_er_node_guard_is_inclusive_and_raised_before_sampling(monkeypatch):
    monkeypatch.setattr(generators, "ER_NODE_LIMIT", 5)
    assert gen_erdos_renyi(5, 1.0, RngSeed(0)) == complete(5)
    with pytest.raises(ResourceGuardError, match="n=6 exceeds the guard ER_NODE_LIMIT = 5"):
        gen_erdos_renyi(6, 0.5, RngSeed(0))
    assert ER_NODE_LIMIT == 5000


# --- geometric ---------------------------------------------------------------


def test_geometric_frozen_sample():
    g, pl = gen_geometric(5, 0.3, 1.0, 1, RngSeed(7))
    assert [round(pt[0], 6) for pt in pl.positions] == [
        0.053094, 0.591351, 0.72934, 0.797859, 0.868825,
    ]
    assert list(g.edges()) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_geometric_positions_sorted_in_1d():
    for seed in range(10):
        _, pl = gen_geometric(12, 0.1, 2.0, 1, RngSeed(seed))
        xs = [pt[0] for pt in pl.positions]
        assert xs == sorted(xs)
        assert all(0 <= x <= 2.0 for x in xs)


def test_geometric_adjacency_law():
    g, pl = gen_geometric(15, 0.25, 1.0, 1, RngSeed(41))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            dist = abs(pl.positions[u][0] - pl.positions[v][0])
            assert g.has_edge(u, v) == (dist <= 0.25)


def test_geometric_2d_supported_but_no_spread():
    g, pl = gen_geometric(8, 0.5, 1.0, 2, RngSeed(13))
    assert pl.dimension == 2
    assert len(pl.positions[0]) == 2
    with pytest.raises(ValueError, match="1-D"):
        pl.spread()


def test_placement_validation():
    with pytest.raises(ValueError, match="radius"):
        GeometricPlacement(((0.0,),), 1.0, 0.0, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        GeometricPlacement(((0.0, 0.0),), 1.0, 0.5, 1)
    with pytest.raises(ValueError, match="outside the placement region"):
        GeometricPlacement(((2.0,),), 1.0, 0.5, 1)


def test_geometric_node_guard_is_inclusive_and_raised_before_drawing(monkeypatch):
    monkeypatch.setattr(generators, "GEOM_NODE_LIMIT", 5)
    assert gen_geometric(5, 0.5, 1.0, 1, RngSeed(0))[0].n == 5

    def no_draws(seed):
        raise AssertionError("positions were drawn")

    monkeypatch.setattr(generators, "rng_for", no_draws)
    with pytest.raises(ResourceGuardError, match="n=6 exceeds the guard GEOM_NODE_LIMIT = 5"):
        gen_geometric(6, 0.5, 1.0, 1, RngSeed(0))
    assert GEOM_NODE_LIMIT == 5000


def test_graph_from_placement_by_hand():
    pl = GeometricPlacement(((0.0,), (1.0,), (2.5,)), 3.0, 1.2, 1)
    g = graph_from_placement(pl)
    assert list(g.edges()) == [(0, 1)]
    assert pl.spread() == 2.5


# --- preferential attachment -------------------------------------------------


def test_ba_frozen_sample():
    g = gen_preferential(8, 2, RngSeed(11))
    assert list(g.edges()) == [
        (0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 6),
        (2, 3), (2, 4), (4, 5), (4, 6), (4, 7), (6, 7),
    ]


def test_ba_shape_invariants():
    r = 3
    g = gen_preferential(14, r, RngSeed(0))
    # seed clique K_{2r-1} is intact
    for u in range(2 * r - 1):
        for v in range(u + 1, 2 * r - 1):
            assert g.has_edge(u, v)
    # node k only attaches backward, to exactly r targets
    for k in range(2 * r - 1, g.n):
        back = sum(1 for v in g.neighbors(k) if v < k)
        assert back == r
    assert min_degree(g) >= r
    assert is_connected(g)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_ba_graphs_are_exactly_r_robust(r):
    # degree-r youngest node caps robustness at r; the build keeps it >= r
    for seed in range(12):
        g = gen_preferential(2 * r - 1 + 5 + seed % 3, r, RngSeed(1000 + seed))
        assert robustness(g) == r


def test_ba_validation_and_custom_seed_graph():
    with pytest.raises(ValueError, match="r must be positive"):
        gen_preferential(5, 0, RngSeed(1))
    with pytest.raises(ValueError, match="too small for n"):
        gen_preferential(2, 2, RngSeed(1))
    with pytest.raises(ValueError, match="not r-robust"):
        gen_preferential(10, 2, RngSeed(1), seed_graph=cycle(5), verify_seed_graph=True)
    # unverified seed graphs are accepted as-is
    g = gen_preferential(10, 2, RngSeed(1), seed_graph=cycle(5))
    assert g.n == 10
    # K_5 is 3-robust, so it passes verification as a 3-seed
    g = gen_preferential(9, 3, RngSeed(2), seed_graph=complete(5), verify_seed_graph=True)
    assert is_r_robust(g, 3)
    # Only the first new node can lack r distinct targets of nonzero degree.
    one_edge = Graph(3, [(0, 1)])
    assert gen_preferential(3, 3, RngSeed(1), seed_graph=one_edge) == one_edge
    with pytest.raises(ValueError, match="cannot supply r distinct"):
        gen_preferential(4, 3, RngSeed(1), seed_graph=one_edge)
    # an edgeless seed graph draws its first targets uniformly
    g = gen_preferential(12, 3, RngSeed(1), seed_graph=Graph(3, []))
    assert all(g.has_edge(v, 3) for v in range(3))
    assert all(sum(v < k for v in g.neighbors(k)) == 3 for k in range(3, 12))


def test_ba_node_guard_is_inclusive_and_raised_before_building(monkeypatch):
    monkeypatch.setattr(generators, "PA_NODE_LIMIT", 5)
    assert gen_preferential(5, 2, RngSeed(0)).n == 5
    with pytest.raises(ResourceGuardError, match="n=6 exceeds the guard PA_NODE_LIMIT = 5"):
        gen_preferential(6, 2, RngSeed(0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="PA_NODE_LIMIT"):
            gen_preferential(10**8, 2, RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert PA_NODE_LIMIT == 5000


def test_ba_huge_r_is_refused_before_the_seed_clique_is_built():
    # K_{2r-1} needs 2r - 1 <= n nodes, so PA_NODE_LIMIT bounds r as well
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"seed graph too small for n \(need n >= seed graph size\)"):
            gen_preferential(5, 400, RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert gen_preferential(5, 3, RngSeed(0)) == complete(5)  # 2r - 1 = n still builds


def test_ba_determinism_across_calls():
    a = gen_preferential(20, 2, RngSeed(8, 4))
    b = gen_preferential(20, 2, RngSeed(8, 4))
    assert a == b
    assert a != gen_preferential(20, 2, RngSeed(8, 5))


def reference_preferential(n, r, seed, seed_graph):
    """The literal sampler: prefix sums of all degrees and bisect_right for
    every draw, from the same generator stream."""
    rng = rng_for(seed)
    edges = list(seed_graph.edges())
    degrees = [seed_graph.degree(v) for v in range(seed_graph.n)] + [0] * (n - seed_graph.n)
    for new in range(seed_graph.n, n):
        cum = list(itertools.accumulate(degrees[:new]))
        chosen = set()
        while len(chosen) < r:
            if cum[-1] == 0:
                chosen.add(int(rng.integers(new)))
            else:
                chosen.add(bisect.bisect_right(cum, rng.random() * cum[-1]))
        for v in sorted(chosen):
            edges.append((v, new))
            degrees[v] += 1
        degrees[new] = r
    return Graph(n, edges)


@pytest.mark.parametrize(
    "r, seed_graph",
    [
        (1, None),
        (2, None),
        (3, None),
        (5, None),
        (1, Graph(1)),
        (2, cycle(5)),
        (3, Graph(3)),
        (2, Graph(4, [(0, 1), (2, 3)])),
        (3, complete(6)),
    ],
)
def test_ba_matches_the_prefix_sum_sampler(r, seed_graph):
    start = complete(2 * r - 1) if seed_graph is None else seed_graph
    for k, n in enumerate((start.n, start.n + 1, start.n + 7, 40, 130)):
        seed = RngSeed(31 + k, r)
        assert gen_preferential(n, r, seed, seed_graph=seed_graph) == reference_preferential(n, r, seed, start), (n, r)


def test_ba_at_the_node_limit_is_fast():
    # Each draw descends the Fenwick tree, so n = 5,000 takes about 0.1 s on
    # a 2-core x86 host; rebuilding the prefix sums per node took 0.5-0.7 s.
    def seconds():
        start = time.perf_counter()
        gen_preferential(PA_NODE_LIMIT, 3, RngSeed(5, 3))
        return time.perf_counter() - start

    assert min(seconds() for _ in range(3)) < 0.4
