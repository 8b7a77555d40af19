import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrobust.connectivity import _has_articulation_point, _SplitFlow, connectivity_at_least, vertex_connectivity
from netrobust.generators import gen_erdos_renyi
from netrobust.graph import (
    Graph,
    complete,
    counterexample,
    cycle,
    is_connected,
    iter_bits,
    min_degree,
    path,
    with_added_node,
)


def brute_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects, n-1 for complete graphs."""
    if not is_connected(g):
        return 0
    if g.edge_count() == g.n * (g.n - 1) // 2:
        return g.n - 1
    for size in range(1, g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in cut]
            relabel = {v: i for i, v in enumerate(keep)}
            sub = Graph(
                len(keep),
                [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
            )
            if sub.n >= 2 and not is_connected(sub):
                return size
    return g.n - 1


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, [(min(u, v), max(u, v)) for u, v in outer + inner + spokes])


@pytest.mark.parametrize(
    "g,kappa",
    [
        (complete(2), 1),
        (complete(6), 5),
        (cycle(7), 2),
        (path(5), 1),
        (Graph(4, [(0, 1), (2, 3)]), 0),
        (Graph(3), 0),
        (counterexample(6), 3),
        (counterexample(10), 5),
        (petersen(), 3),
    ],
)
def test_known_connectivities(g, kappa):
    assert vertex_connectivity(g) == kappa


def test_star_has_a_cut_vertex():
    star = with_added_node(Graph(4), frozenset({0, 1, 2, 3}))
    assert vertex_connectivity(star) == 1
    assert connectivity_at_least(star, 1)
    assert not connectivity_at_least(star, 2)


def test_connectivity_at_least_boundaries():
    g = cycle(5)
    assert connectivity_at_least(g, 0)
    assert connectivity_at_least(g, -1)
    assert connectivity_at_least(g, 2)
    assert not connectivity_at_least(g, 3)
    assert not connectivity_at_least(g, g.n)
    with pytest.raises(ValueError, match="undefined"):
        vertex_connectivity(Graph(1))


def test_matches_brute_force_on_seeded_batch():
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert vertex_connectivity(g) == brute_connectivity(g), (n, edges)


def has_cut_vertex(g: Graph) -> bool:
    """Vertex-deletion oracle: some G - v is disconnected."""
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        relabel = {u: i for i, u in enumerate(keep)}
        sub = Graph(g.n - 1, [(relabel[a], relabel[b]) for a, b in g.edges() if v not in (a, b)])
        if not is_connected(sub):
            return True
    return False


def two_cycles_sharing_a_node() -> Graph:
    # cycles 0-1-2-3 and 3-4-5-6 meet at node 3
    ring = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6)]
    return Graph(7, ring)


def cliques_joined_by_a_bridge(k: int) -> Graph:
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u + k, v + k) for u, v in edges]
    return Graph(2 * k, edges + [(k - 1, k)])


@pytest.mark.parametrize(
    "g,cut_vertex",
    [
        (path(3), True),
        (path(9), True),
        (cycle(3), False),
        (cycle(12), False),
        (with_added_node(Graph(5), frozenset(range(5))), True),  # star, centre last
        (Graph(6, [(0, v) for v in range(1, 6)]), True),  # star whose centre is the DFS root
        (two_cycles_sharing_a_node(), True),
        (cliques_joined_by_a_bridge(4), True),
        (complete(5), False),
        (counterexample(4), False),
        (counterexample(10), False),
        (petersen(), False),
    ],
)
def test_articulation_scan_on_fixed_shapes(g, cut_vertex):
    assert has_cut_vertex(g) == cut_vertex
    assert _has_articulation_point(g) == cut_vertex


def test_articulation_scan_matches_vertex_deletion():
    # 600 connected graphs with n = 3..40: a random spanning tree plus a
    # random number of extra edges, so both verdicts are common
    rng = random.Random(6)
    verdicts = []
    for _ in range(600):
        n = rng.randint(3, 40)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        order = rng.sample(range(n), n)
        edges = {tuple(sorted((order[u], order[v]))) for u, v in edges}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        verdicts.append(has_cut_vertex(g))
        assert _has_articulation_point(g) == verdicts[-1], (n, sorted(edges))
    assert 100 < sum(verdicts) < 500


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_flow_equals_enumeration(g):
    assert vertex_connectivity(g) == brute_connectivity(g)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(0, 8))
def test_threshold_decision_consistent(g, k):
    assert connectivity_at_least(g, k) == (vertex_connectivity(g) >= k)


def test_split_flow_reused_across_pairs_matches_a_fresh_network():
    rng = random.Random(7)
    for n, p in [(12, 0.4), (30, 0.25), (60, 0.12), (40, 0.6)]:
        g = gen_erdos_renyi(n, p, rng.randrange(2**32))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and not g.has_edge(u, v)]
        rng.shuffle(pairs)
        net = _SplitFlow(g)
        for u, v in pairs[:150]:
            limit = rng.randint(1, 4)
            assert net.max_flow(u, v, limit) == _SplitFlow(g).max_flow(u, v, limit), (n, u, v, limit)
            assert net.res == g.adj  # every residual row is back at rest


def brute_local_connectivity(g: Graph, u: int, v: int) -> int:
    """Menger: the fewest nodes whose removal separates non-adjacent u and v."""
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(len(others) + 1):
        for cut in itertools.combinations(others, size):
            alive = g.full_mask() & ~sum(1 << w for w in cut)
            seen = frontier = 1 << u
            while frontier:
                nxt = 0
                for w in iter_bits(frontier):
                    nxt |= g.adj[w]
                frontier = nxt & alive & ~seen
                seen |= frontier
            if not seen >> v & 1:
                return size
    raise AssertionError("non-adjacent nodes cannot be separated")


# Trees plus chords where some augmenting path has to walk back along an
# earlier path, cancelling its flow: found by random search against an arc
# by arc max-flow. Without the out_v -> in_v residual arc the first graph's
# flow from 3 to 8 comes out one short; without giving a cancelled edge
# back to res, so does the second graph's flow from 3 to 4.
BACKTRACK_GRAPHS = [
    (9, [(0, 1), (0, 2), (1, 6), (1, 8), (2, 3), (2, 4), (3, 7), (4, 5), (5, 8), (6, 7)]),
    (10, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 7), (1, 3), (1, 8), (2, 4), (2, 5), (2, 7),
          (3, 5), (4, 7), (4, 9), (5, 6), (6, 9), (7, 8)]),
]


def sparse_graphs(rng, count):
    """Random trees plus a few chords: long paths, few shortcuts."""
    for _ in range(count):
        n = rng.randint(4, 10)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        yield n, sorted(edges)


def test_split_flow_on_sparse_graphs_matches_menger():
    assert _SplitFlow(Graph(*BACKTRACK_GRAPHS[0])).max_flow(3, 8, 9) == 2
    assert _SplitFlow(Graph(*BACKTRACK_GRAPHS[1])).max_flow(3, 4, 10) == 3
    for n, edges in BACKTRACK_GRAPHS + list(sparse_graphs(random.Random(5), 150)):
        g = Graph(n, edges)
        net = _SplitFlow(g)
        for u in range(n):
            for v in range(n):
                if u != v and not g.has_edge(u, v):
                    assert net.max_flow(u, v, n) == brute_local_connectivity(g, u, v), (edges, u, v)


def scipy_split_graph(g: Graph):
    """Node v becomes 2v -> 2v + 1; edge {u, v} becomes 2u + 1 -> 2v and
    2v + 1 -> 2u; every capacity is 1."""
    from scipy.sparse import csr_array

    rows = [2 * v for v in range(g.n)]
    cols = [2 * v + 1 for v in range(g.n)]
    for u, v in g.edges():
        rows += [2 * u + 1, 2 * v + 1]
        cols += [2 * v, 2 * u]
    return csr_array(
        (np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(2 * g.n, 2 * g.n)
    )


def scipy_connectivity(g: Graph) -> int:
    """Even's reduction on scipy's max-flow: a minimum vertex cut has at most
    min_degree(g) nodes, so it misses one of the first min_degree(g) + 1
    nodes, and the flow from that node to a non-neighbor meets the cut."""
    from scipy.sparse.csgraph import maximum_flow

    split = scipy_split_graph(g)
    best = g.n - 1
    for s in range(min_degree(g) + 1):
        for t in range(g.n):
            if t != s and not g.has_edge(s, t):
                best = min(best, maximum_flow(split, 2 * s + 1, 2 * t).flow_value)
    return best


# An augmenting path that walks back through a node on both of its flow
# edges takes all flow off that node, which must then leave the busy mask.
# Found by random search: keeping it busy ends this graph's flow from 7 to
# 15 in a KeyError.
FREED_NODE_GRAPH = (16, [(0, 7), (0, 8), (1, 4), (1, 7), (2, 9), (2, 13), (3, 13), (3, 15), (4, 11), (5, 6),
                         (5, 7), (5, 9), (6, 10), (7, 14), (8, 10), (9, 12), (10, 15), (11, 14), (11, 15), (12, 14)])


def test_split_flow_after_a_node_loses_its_flow():
    g = Graph(*FREED_NODE_GRAPH)
    assert _SplitFlow(g).max_flow(7, 15, g.n) == 3 == brute_local_connectivity(g, 7, 15)
    net = _SplitFlow(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v and not g.has_edge(u, v):
                assert net.max_flow(u, v, g.n) == brute_local_connectivity(g, u, v), (u, v)


def test_vertex_connectivity_matches_scipy_max_flow():
    pytest.importorskip("scipy")
    from scipy.sparse.csgraph import maximum_flow

    rng = random.Random(11)
    for n in [20, 35, 50, 70, 90, 120]:
        for c in (0.8, 1.5, 3.0):
            g = gen_erdos_renyi(n, min(1.0, c * math.log(n) / n), rng.randrange(2**32))
            assert vertex_connectivity(g) == scipy_connectivity(g), (n, c)
            # pair by pair on one reused network, without a limit
            split = scipy_split_graph(g)
            net = _SplitFlow(g)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v and not g.has_edge(u, v)]
            for u, v in rng.sample(pairs, 20):
                expected = maximum_flow(split, 2 * u + 1, 2 * v).flow_value
                assert net.max_flow(u, v, n) == expected, (n, c, u, v)
