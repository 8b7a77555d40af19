import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrobust import connectivity
from netrobust.connectivity import (
    _articulation,
    _ladder,
    _SplitFlow,
    connectivity_at_least,
    vertex_connectivity,
)
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
    assert _ladder(g, 2, True)[0] == (1 if cut_vertex else 2)


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
        assert _ladder(g, 2, True)[0] == (1 if verdicts[-1] else 2), (n, sorted(edges))
    assert 100 < sum(verdicts) < 500


def brute_kappa_upto_two(g: Graph) -> int:
    """min(kappa, 2) by deleting each vertex, then a BFS."""
    if not is_connected(g):
        return 0
    return 1 if has_cut_vertex(g) else 2


def test_scan_matches_vertex_deletion_also_on_disconnected_graphs():
    # 600 graphs with n = 3..40 made of one to three random pieces (trees
    # plus chords, or lone nodes), numbered in a random order, so that each
    # of kappa = 0, 1, 2 is common and node 0 may sit in any piece
    rng = random.Random(16)
    seen = []
    for _ in range(600):
        n = rng.randint(3, 40)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.choice((0, 0, 1, 2))))
        edges = set()
        for lo, hi in zip([0] + cuts, cuts + [n]):
            piece = order[lo:hi]
            for i in range(1, len(piece)):
                edges.add(tuple(sorted((piece[rng.randrange(i)], piece[i]))))
            for _ in range(rng.randint(0, 3 * len(piece)) if len(piece) > 2 else 0):
                u, v = rng.sample(piece, 2)
                edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        seen.append(brute_kappa_upto_two(g))
        assert _ladder(g, 2, True)[0] == seen[-1], (n, sorted(edges))
    assert all(seen.count(kappa) > 100 for kappa in (0, 1, 2))


@pytest.mark.parametrize(
    "g",
    [
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # two disjoint triangles
        # a bowtie on 0..4 (cut vertex 2), then a triangle on 5..7
        Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)]),
    ],
)
def test_disconnected_graphs_of_min_degree_two(g, caplog):
    assert min_degree(g) >= 2 and not is_connected(g)
    assert {_ladder(g, k, exact) for k in (1, 2) for exact in (True, False)} == {(0, 0, "disconnected")}
    caplog.set_level(logging.DEBUG, logger="netrobust.connectivity")
    assert vertex_connectivity(g) == 0
    assert [rec.getMessage() for rec in caplog.records] == ["connectivity 0: disconnected"]
    assert connectivity_at_least(g, 1) is False
    assert connectivity_at_least(g, 2) is False


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
# by arc max-flow. Without the out_v -> in_v arc (frontier & busy) the first
# graph's flow from 3 to 8 comes out one short; writing an augmentation's
# new flow edges before taking off the ones it cancels ends the second
# graph's flow from 3 to 4 in a KeyError.
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
    for n, edges in BACKTRACK_GRAPHS + [CANCEL_SEED_GRAPH] + list(sparse_graphs(random.Random(5), 150)):
        g = Graph(n, edges)
        net = _SplitFlow(g)
        for u in range(n):
            for v in range(n):
                if u != v and not g.has_edge(u, v):
                    flow = net.max_flow(u, v, n)
                    assert flow == brute_local_connectivity(g, u, v), (edges, u, v)
                    sep = net.reached
                    assert sep.bit_count() == flow and not (sep >> u | sep >> v) & 1, (edges, u, v)
                    assert not cut_off(g, sep, u) >> v & 1, (edges, u, v)


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


# --- the decision ladder ------------------------------------------------------


class _NoFlow:
    def __init__(self, g):
        raise AssertionError("a max-flow ran")


def min_degree_at_most_two(rng, count):
    """Connected trees plus chords, kept to those with minimum degree <= 2."""
    out = []
    while len(out) < count:
        n, edges = next(sparse_graphs(rng, 1))
        g = Graph(n, edges)
        if min_degree(g) <= 2:
            out.append(g)
    return out


def test_scan_alone_decides_min_degree_two(monkeypatch):
    monkeypatch.setattr(connectivity, "_SplitFlow", _NoFlow)
    shapes = [complete(2), complete(3), path(6), cycle(9), two_cycles_sharing_a_node(), Graph(5, [(0, 1), (2, 3)])]
    shapes += min_degree_at_most_two(random.Random(8), 120)
    cut_vertex = [g for g in shapes if g.n >= 3 and is_connected(g) and has_cut_vertex(g)]
    assert 10 < len(cut_vertex) < len(shapes) - 10  # both verdicts are common
    for g in shapes:
        assert vertex_connectivity(g) == brute_connectivity(g), g.edges()
        for k in range(min_degree(g) + 2):
            assert connectivity_at_least(g, k) == (brute_connectivity(g) >= k), (g.edges(), k)


def cliques_sharing_a_node(k: int) -> Graph:
    """Two k-cliques with node k - 1 in common: minimum degree k - 1, one cut vertex."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph(2 * k - 1, edges + [(u + k - 1, v + k - 1) for u, v in edges])


def glued(rng, a, b, shared, p):
    """Two G(a, p) and G(b, p) halves sharing `shared` nodes: a cut of that
    size, often below the minimum degree."""
    left = gen_erdos_renyi(a, p, rng.randrange(2**32))
    right = gen_erdos_renyi(b, p, rng.randrange(2**32))
    shift = [(u + a - shared, v + a - shared) for u, v in right.edges()]
    return Graph(a + b - shared, sorted(set(left.edges()) | set(shift)))


def test_cut_vertex_settles_min_degree_three_and_more(monkeypatch):
    rng = random.Random(9)
    joined = []
    for _ in range(20):
        g = glued(rng, rng.randint(5, 9), rng.randint(5, 9), 1, 0.9)
        if is_connected(g) and min_degree(g) >= 3:
            joined.append(g)
    assert len(joined) >= 10
    monkeypatch.setattr(connectivity, "_SplitFlow", _NoFlow)
    for g in [cliques_sharing_a_node(4), cliques_sharing_a_node(6), cliques_joined_by_a_bridge(5)] + joined:
        assert min_degree(g) >= 3 and has_cut_vertex(g)
        assert vertex_connectivity(g) == 1
        assert connectivity_at_least(g, 1)
        assert not any(connectivity_at_least(g, k) for k in range(2, min_degree(g) + 2))


def test_min_degree_three_with_a_two_node_cut_needs_the_flow():
    # Two dense random halves glued along two nodes: no cut vertex, but a
    # two-node cut below the minimum degree, which only the flows can find.
    rng = random.Random(13)
    joined = []
    while len(joined) < 12:
        g = glued(rng, rng.randint(5, 7), rng.randint(5, 7), 2, 0.85)
        if min_degree(g) >= 3 and brute_connectivity(g) == 2:
            joined.append(g)
    for g in joined:
        assert vertex_connectivity(g) == 2, g.edges()
        assert connectivity_at_least(g, 2)
        assert not connectivity_at_least(g, 3)


def cut_off(g: Graph, sep: int, u: int) -> int:
    """The nodes that u still reaches once the nodes of sep are removed."""
    seen = frontier = 1 << u
    while frontier:
        nxt = 0
        for w in iter_bits(frontier):
            nxt |= g.adj[w]
        frontier = nxt & ~sep & ~seen
        seen |= frontier
    return seen


def test_flow_separator_has_one_node_per_path_and_separates():
    rng = random.Random(21)
    pairs = 0
    for _ in range(60):
        g = glued(rng, rng.randint(4, 9), rng.randint(4, 9), rng.randint(1, 4), rng.choice((0.4, 0.7, 0.9)))
        net = _SplitFlow(g)
        for u in range(g.n):
            for v in iter_bits(g.full_mask() & ~g.adj[u] >> u + 1 << u + 1):
                flow = net.max_flow(u, v, g.n)  # always short of n: the last search fails
                sep = net.reached
                assert sep.bit_count() == flow and not sep & (1 << u | 1 << v), (g.edges(), u, v)
                assert not cut_off(g, sep, u) >> v & 1, (g.edges(), u, v)
                pairs += 1
    assert pairs > 1000


def test_separator_is_a_minimum_vertex_cut():
    # exact for k <= delta and not exact up to delta + 1, as connectivity_at_least
    # asks: whenever 1 <= c < k, sep is c nodes that disconnect g (a minimum
    # separator when exact), else 0
    rng = random.Random(22)
    branches, seen = set(), set()
    for _ in range(150):
        g = glued(rng, rng.randint(4, 9), rng.randint(4, 9), rng.randint(1, 4), rng.choice((0.5, 0.8, 0.95)))
        if not is_connected(g):
            continue
        kappa, delta = brute_connectivity(g), min_degree(g)
        for exact, top in ((True, delta), (False, min(delta + 1, g.n - 1))):
            for k in range(1, top + 1):
                c, sep, how = _ladder(g, k, exact)
                assert c == min(kappa, k) if exact else (c >= k) == (kappa >= k), (g.edges(), k, exact)
                if c == k:
                    assert sep == 0
                    continue
                branches.add(how.split(" pairs")[0])
                seen.add(c)
                assert sep.bit_count() == c, (g.edges(), k, exact)
                rest = g.full_mask() & ~sep
                assert cut_off(g, sep, (rest & -rest).bit_length() - 1) != rest, (g.edges(), k, exact)
    assert branches == {"cut vertex", "delta < k", "flowed"} and seen >= {1, 2, 3}


def test_articulation_names_a_cut_vertex():
    for g in (cliques_sharing_a_node(5), cliques_joined_by_a_bridge(4), path(6)):
        cut, unvisited = _articulation(g)
        assert unvisited == 0 and has_cut_vertex(g)
        rest = g.full_mask() & ~(1 << cut)
        assert cut_off(g, 1 << cut, (rest & -rest).bit_length() - 1) != rest
    assert _articulation(cycle(7)) == (-1, 0)
    assert _articulation(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])) == (-1, 0b11000)


def test_threshold_decision_matches_connectivity_on_seeded_graphs():
    rng = random.Random(10)
    graphs_ = [counterexample(12), petersen()]
    for n in (12, 20, 30, 40):
        for p in (0.15, 0.3, 0.5, 0.8):
            graphs_.append(gen_erdos_renyi(n, p, rng.randrange(2**32)))
    kappas = set()
    for g in graphs_:
        kappa = vertex_connectivity(g)
        kappas.add(kappa)
        for k in range(min_degree(g) + 2):
            assert connectivity_at_least(g, k) == (kappa >= k), (g.n, g.edges(), k)
    assert len(kappas) >= 6


def cube() -> Graph:
    return Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


def count_networks(monkeypatch) -> list:
    """The list every _SplitFlow the ladder builds from now on is added to."""
    made = []

    class Counted(_SplitFlow):
        def __init__(self, g):
            super().__init__(g)
            made.append(self)

    monkeypatch.setattr(connectivity, "_SplitFlow", Counted)
    return made


def test_flows_run_only_past_the_certificates(monkeypatch):
    made = count_networks(monkeypatch)
    assert vertex_connectivity(complete(7)) == 6
    assert connectivity_at_least(counterexample(8), 2)
    assert not made
    assert vertex_connectivity(counterexample(8)) == 4
    assert not connectivity_at_least(cube(), 4)
    assert connectivity_at_least(cube(), 3)
    assert len(made) == 2  # the (cube, 4) call stops at its degree check


# --- the closure ladder -------------------------------------------------------


def pairwise_connectivity(g: Graph) -> int:
    """Esfahanian and Hakimi without shortcuts: a min-degree node s against
    every non-neighbour, and every non-adjacent pair of its neighbours, each
    flowed up to the minimum degree on a _SplitFlow."""
    if not is_connected(g):
        return 0
    delta = min_degree(g)
    if delta == g.n - 1:
        return delta
    s = min(range(g.n), key=g.degree)
    nbrs = list(iter_bits(g.adj[s]))
    pairs = [(s, t) for t in range(g.n) if t != s and not g.has_edge(s, t)]
    pairs += [(x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1:] if not g.has_edge(x, y)]
    net = _SplitFlow(g)
    return min(net.max_flow(u, v, delta) for u, v in pairs)


def assert_ladder_matches(g, kappa):
    assert vertex_connectivity(g) == kappa, g.edges()
    for k in range(min_degree(g) + 2):
        assert connectivity_at_least(g, k) == (kappa >= k), (g.edges(), k)


def test_closure_ladder_matches_brute_force_at_min_degree_three_and_more():
    rng = random.Random(14)
    kappas = []
    while len(kappas) < 60:
        n = rng.randint(8, 12)
        if rng.random() < 0.3:
            g = glued(rng, n // 2 + 2, n - n // 2, rng.randint(1, 3), 0.8)
        else:
            g = gen_erdos_renyi(n, rng.choice((0.35, 0.5, 0.65)), rng.randrange(2**32))
        if min_degree(g) < 3:
            continue
        kappas.append(brute_connectivity(g))
        assert_ladder_matches(g, kappas[-1])
    assert {1, 2, 3, 4} <= set(kappas)


def test_closure_ladder_matches_every_terminal_pair_flowed():
    rng = random.Random(15)
    drops = kappas = 0
    for _ in range(40):
        n = rng.randint(20, 60)
        if rng.random() < 0.5:
            c = rng.choice((1.5, 2.5, 4.0))
            g = gen_erdos_renyi(n, min(1.0, c * math.log(n) / n), rng.randrange(2**32))
        else:
            g = glued(rng, n // 2 + 2, n - n // 2, rng.randint(2, 4), rng.choice((0.3, 0.5)))
        kappa = pairwise_connectivity(g)
        assert_ladder_matches(g, kappa)
        drops += 2 < kappa < min_degree(g)
        kappas |= 1 << kappa
    assert drops >= 3 and kappas.bit_count() >= 5


def best_drops_after_closure() -> Graph:
    """Node 0 sees 1..4, which with 5 and 6 form a 6-clique; 7..13 form a
    7-clique, joined to it only by 4-7, 5-8 and 6-9. Minimum degree 4,
    connectivity 3."""
    edges = [(0, v) for v in range(1, 5)]
    edges += [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    edges += [(u, v) for u in range(7, 14) for v in range(u + 1, 14)]
    return Graph(14, sorted(edges + [(4, 7), (5, 8), (6, 9)]))


def test_best_drops_after_part_of_the_closure_ran(monkeypatch, caplog):
    flows = []

    class Recorded(_SplitFlow):
        def max_flow(self, s, t, limit):
            flows.append((s, t, limit, super().max_flow(s, t, limit)))
            return flows[-1][-1]

    monkeypatch.setattr(connectivity, "_SplitFlow", Recorded)
    caplog.set_level(logging.DEBUG, logger="netrobust.connectivity")
    g = best_drops_after_closure()
    assert min_degree(g) == 4 and brute_connectivity(g) == 3
    assert vertex_connectivity(g) == 3
    # 5 and 6 have four linked neighbours among 1..4 and are closed at
    # threshold 4; the flow to 7 comes out at 3, and at threshold 3 the
    # closure settles 9..13 once 8 is flowed
    assert flows == [(0, 7, 4, 3), (0, 8, 3, 3)]
    assert caplog.records[-1].getMessage() == "connectivity 3: flowed pairs=2, closed=7, seeded=3, augmented=3"
    flows.clear()
    assert connectivity_at_least(g, 3) and not connectivity_at_least(g, 4)
    assert flows == [(0, 7, 3, 3), (0, 8, 3, 3), (0, 7, 4, 3)]


# (seed, k, exact, (c, how) of _ladder) on glued graphs where a short flow
# lowers best, some of them twice; the contagion recounts at each lower best.
LADDER_DROPS = [
    (0, 3, True, (2, "flowed pairs=1, closed=20, seeded=1, augmented=1")),
    (3, 4, True, (3, "flowed pairs=5, closed=40, seeded=14, augmented=1")),
    (3, 4, False, (3, "flowed pairs=1, closed=14, seeded=2, augmented=1")),
    (7, 6, True, (5, "flowed pairs=9, closed=24, seeded=44, augmented=1")),
    (13, 7, True, (3, "flowed pairs=7, closed=28, seeded=24, augmented=1")),
    (29, 5, True, (4, "flowed pairs=7, closed=32, seeded=28, augmented=0")),
    (50, 6, True, (4, "flowed pairs=9, closed=35, seeded=34, augmented=2")),
    (68, 12, True, (2, "flowed pairs=6, closed=8, seeded=62, augmented=0")),
    (81, 10, True, (4, "flowed pairs=26, closed=34, seeded=125, augmented=3")),
    (81, 10, False, (4, "flowed pairs=5, closed=13, seeded=41, augmented=3")),
    (134, 13, True, (3, "flowed pairs=35, closed=33, seeded=144, augmented=1")),
    (138, 10, True, (5, "flowed pairs=18, closed=23, seeded=99, augmented=1")),
    (295, 12, True, (4, "flowed pairs=25, closed=26, seeded=129, augmented=0")),
    (295, 12, False, (9, "flowed pairs=4, closed=4, seeded=45, augmented=0")),
]


@pytest.mark.parametrize("seed, k, exact, expected", LADDER_DROPS)
def test_ladder_results_where_a_flow_lowers_best(seed, k, exact, expected):
    rng = random.Random(seed)
    g = glued(rng, rng.randint(12, 30), rng.randint(12, 30), rng.randint(2, 5), rng.choice((0.3, 0.45, 0.6)))
    assert is_connected(g) and k <= min_degree(g)
    c, _, how = _ladder(g, k, exact)
    assert (c, how) == expected


def min_degree_node_in_every_minimum_cut() -> Graph:
    """Node 0 sees 1, 2 of the 5-clique 1..5 and 6, 7 of the 5-clique 6..10,
    which are otherwise joined by 3-8 and 4-9 only: every 3-node cut holds 0,
    so no flow from 0 finds one, and only a pair of its neighbours does."""
    edges = [(0, 1), (0, 2), (0, 6), (0, 7), (3, 8), (4, 9)]
    edges += [(u + d, v + d) for d in (0, 5) for u in range(1, 6) for v in range(u + 1, 6)]
    return Graph(11, sorted(edges))


def test_a_pair_of_neighbours_finds_the_cut_through_s():
    g = min_degree_node_in_every_minimum_cut()
    assert min_degree(g) == g.degree(0) == 4 and brute_connectivity(g) == 3
    assert all(_SplitFlow(g).max_flow(0, t, 4) == 4 for t in range(3, 11) if not g.has_edge(0, t))
    assert_ladder_matches(g, 3)


def test_closure_leaves_few_flows_near_the_threshold(monkeypatch):
    made = count_networks(monkeypatch)
    # p = (ln n + 2 ln ln n + 2) / n: a flow per non-neighbour of s would be
    # 199-201 flows on each of these graphs
    p = (math.log(200) + 2 * math.log(math.log(200)) + 2) / 200
    for seed in (0, 1, 2, 3, 4, 6, 8, 9):
        g = gen_erdos_renyi(200, p, seed)
        assert min_degree(g) >= 3
        made.clear()
        assert connectivity_at_least(g, 3)
        assert sum(net.calls for net in made) <= 30, seed


def test_decision_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="netrobust.connectivity")
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(cliques_joined_by_a_bridge(4)) == 1
    assert vertex_connectivity(cycle(6)) == 2
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(counterexample(10)) == 5
    assert vertex_connectivity(cube()) == 3
    assert connectivity_at_least(cube(), 3)  # logs nothing
    assert [rec.getMessage() for rec in caplog.records] == [
        "connectivity 0: disconnected",
        "connectivity 1: cut vertex",
        "connectivity 2: delta <= 2",
        "connectivity 4: complete",
        "connectivity 5: flowed pairs=7, closed=1, seeded=35, augmented=0",
        "connectivity 3: flowed pairs=6, closed=1, seeded=12, augmented=6",
    ]


# --- the warm start -----------------------------------------------------------


def warm_start_paths(g: Graph, s: int, t: int) -> list:
    """The paths max_flow lays before its first BFS, without a limit: s-w-t
    for each common neighbour w, then for each other neighbour x of s in
    node order the first unused neighbour y of t adjacent to x."""
    used = g.adj[s] & g.adj[t]
    paths = [(w,) for w in iter_bits(used)]
    for x in iter_bits(g.adj[s] & ~used):
        ys = [y for y in iter_bits(g.adj[t] & g.adj[x]) if not used >> y & 1]
        if ys:
            paths.append((x, ys[0]))
            used |= 1 << x | 1 << ys[0]
    return paths


def without(g: Graph, drop: set):
    keep = [v for v in range(g.n) if v not in drop]
    relabel = {v: i for i, v in enumerate(keep)}
    sub = [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel]
    return Graph(len(keep), sub), relabel


# Found by random search against the Menger count: from 3 to 4 the warm start
# lays 3-0-5-4, but the one maximum flow is 3-0-6-4 plus 3-2-5-4, so the BFS
# has to cancel the seeded arc 0 -> 5.
CANCEL_SEED_GRAPH = (7, [(0, 1), (0, 3), (0, 5), (0, 6), (1, 6), (2, 3), (2, 5), (4, 5), (4, 6), (5, 6)])


def test_bfs_cancels_a_seeded_path_that_no_maximum_flow_uses():
    g = Graph(*CANCEL_SEED_GRAPH)
    assert warm_start_paths(g, 3, 4) == [(0, 5)]
    h, relabel = without(g, {0, 5})
    assert brute_local_connectivity(h, relabel[3], relabel[4]) + 1 < brute_local_connectivity(g, 3, 4) == 2
    net = _SplitFlow(g)
    assert net.max_flow(3, 4, g.n) == 2
    assert (net.seeded, net.augmented) == (1, 1)


def test_warm_start_lays_disjoint_paths_up_to_the_limit():
    # Every limit from 1 to past the minimum degree: a flow whose counted
    # warm start reaches its limit returns before any bookkeeping, and
    # every other flow lays the warm start and searches on.
    rng = random.Random(12)
    laid = set()
    settled = searched = 0
    for n, p in [(9, 0.35), (11, 0.3), (12, 0.45), (9, 0.6), (10, 0.7)]:
        for _ in range(5):
            g = gen_erdos_renyi(n, p, rng.randrange(2**32))
            net = _SplitFlow(g)
            for u in range(n):
                for v in range(n):
                    if u == v or g.has_edge(u, v):
                        continue
                    paths = warm_start_paths(g, u, v)
                    inner = [w for path_ in paths for w in path_]
                    assert len(inner) == len(set(inner))
                    menger = brute_local_connectivity(g, u, v)
                    for limit in range(1, max(min_degree(g) + 1, 5) + 1):
                        before, augmented = net.seeded, net.augmented
                        flow = net.max_flow(u, v, limit)
                        assert net.seeded - before == min(len(paths), limit)
                        assert flow == min(limit, menger), (g.edges(), u, v, limit)
                        laid.add(max((len(path_) for path_ in paths[:limit]), default=0))
                        if flow == limit and net.augmented == augmented:
                            settled += 1
                        else:
                            searched += 1
    assert laid == {0, 1, 2}
    assert settled >= 1000 and searched >= 1000, (settled, searched)


def test_separator_stays_the_last_short_flows_across_settled_flows():
    rng = random.Random(23)
    settled = checked = 0
    for _ in range(40):
        g = glued(rng, rng.randint(4, 8), rng.randint(4, 8), rng.randint(1, 3), rng.choice((0.6, 0.8, 0.95)))
        net = _SplitFlow(g)
        pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v and not g.has_edge(u, v)]
        rng.shuffle(pairs)
        last = None  # (separator, flow, s, t) of the last flow short of its limit
        for u, v in pairs:
            limit = rng.choice((1, 2, g.n))
            augmented = net.augmented
            flow = net.max_flow(u, v, limit)
            if flow < limit:
                last = (net.reached, flow, u, v)
            elif last is not None and net.augmented == augmented:
                settled += 1
            if last is not None:
                sep, size, s, t = last
                assert net.reached == sep and sep.bit_count() == size, (g.edges(), s, t)
                assert not sep & (1 << s | 1 << t) and not cut_off(g, sep, s) >> t & 1, (g.edges(), s, t)
                checked += 1
    assert settled >= 300 and checked >= 1000, (settled, checked)
