import random

import pytest

import netrobust.graph as graph_module
from netrobust.graph import (
    _LEVELS_UPTO,
    Graph,
    _flags,
    _spread,
    complete,
    counterexample,
    cycle,
    is_connected,
    iter_bits,
    mask_of,
    min_degree,
    path,
    set_of,
    with_added_node,
)


def test_iter_bits_ascending():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_mask_set_round_trip():
    nodes = frozenset({0, 3, 7})
    assert set_of(mask_of(nodes)) == nodes


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)


def test_degrees_and_edges():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.edge_count() == 4
    # edges() yields canonical u < v pairs in lexicographic order
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_neighbors_iterates_sorted():
    g = Graph(5, [(2, 4), (0, 2), (1, 2)])
    assert list(g.neighbors(2)) == [0, 1, 4]


def test_components_and_connectivity_flag():
    g = Graph(5, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(path(4))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))


def test_min_degree():
    assert min_degree(path(3)) == 1
    assert min_degree(complete(6)) == 5
    with pytest.raises(ValueError, match="empty graph"):
        min_degree(Graph(0))


def test_with_added_node():
    g = with_added_node(path(3), frozenset({0, 2}))
    assert g.n == 4
    assert sorted(g.neighbors(3)) == [0, 2]
    with pytest.raises(ValueError, match="empty neighbor set"):
        with_added_node(path(3), frozenset())
    with pytest.raises(ValueError, match="out of range"):
        with_added_node(path(3), frozenset({5}))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_complete_counts(n):
    g = complete(n)
    assert g.edge_count() == n * (n - 1) // 2
    assert min_degree(g) == n - 1


def test_cycle_and_path_shapes():
    assert cycle(5).edge_count() == 5
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    assert path(5).edge_count() == 4
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_counterexample_structure(n):
    g = counterexample(n)
    half = n // 2
    # two half-cliques plus a perfect matching
    assert g.edge_count() == 2 * (half * (half - 1) // 2) + half
    assert min_degree(g) == half
    for i in range(half):
        assert g.has_edge(i, i + half)
    with pytest.raises(ValueError):
        counterexample(5)
    with pytest.raises(ValueError):
        counterexample(2)


def test_graph_equality():
    assert Graph(3, [(0, 1)]) == Graph(3, [(0, 1)])
    assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
    assert Graph(3) != Graph(4)


# --- threshold contagion against a per-node count ----------------------------


def reference_rounds(nbrs, seeds, r):
    """Synchronous threshold-r contagion from the seed set: each round infects
    every uninfected node with at least r infected neighbours, counted one by
    one, until a round infects none."""
    infected, rounds = set(seeds), []
    while True:
        newly = {v for v in range(len(nbrs)) if v not in infected and sum(u in infected for u in nbrs[v]) >= r}
        if not newly:
            return rounds
        rounds.append(newly)
        infected |= newly


def random_neighbours(rng, n):
    p = rng.choice((0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0))
    nbrs = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return nbrs


def test_spread_rounds_match_a_per_node_count():
    rng = random.Random(1618)
    thresholds = set()
    for _ in range(520):
        n = rng.randint(2, 60)
        nbrs = random_neighbours(rng, n)
        adj = [sum(1 << u for u in row) for row in nbrs]
        drawn = rng.sample(range(n), rng.randint(0, n))
        for seeds in (drawn, [], [rng.randrange(n)], list(range(n))):
            for r in {rng.randint(1, 3), rng.randint(4, 8), n, n + rng.randint(1, 5)}:
                got = [{v for v in range(n) if mask >> v & 1} for mask in _spread(adj, sum(1 << v for v in seeds), r)]
                assert got == reference_rounds(nbrs, seeds, r), (n, r, seeds)
                thresholds.add(r)
    assert set(range(1, 9)) <= thresholds


def recounted_levels(adj, infected, r):
    counts = [(row & infected).bit_count() for row in adj]
    return [sum(1 << v for v, c in enumerate(counts) if c > k) for k in range(r)]


def test_spread_wide_rounds_match_a_per_node_count(monkeypatch):
    """On 65-200 nodes with seed sets of at least one node in eight, the first
    rounds at r = 2 and 3 pick their rows by compress and later thin rounds
    take the low-bit loop, as every round does at other r; rounds and levels
    match a per-node count either way, also when a call resumes from a
    fixpoint with its levels and a dense newly, as the seed-set walk and
    _ladder's linking contagion do."""
    branches = set()

    def flags(mask):
        got = _flags(mask)
        branches.add((r, bool(got)))
        return got

    monkeypatch.setattr(graph_module, "_flags", flags)
    rng = random.Random(4669)
    for _ in range(60):
        n = rng.randint(65, 200)
        nbrs = random_neighbours(rng, n)
        adj = [sum(1 << u for u in row) for row in nbrs]
        for r in range(1, 6):
            seeds = rng.sample(range(n), rng.randint(n // 8, n // 2))
            levels = [0] * r
            rounds = list(_spread(adj, mask_of(seeds), r, None, levels))
            got = [{v for v in range(n) if mask >> v & 1} for mask in rounds]
            assert got == reference_rounds(nbrs, seeds, r), (n, r, seeds)
            fixpoint = mask_of(seeds) + sum(rounds)
            if r <= _LEVELS_UPTO:
                assert levels == recounted_levels(adj, fixpoint, r), (n, r, seeds)
            outside = [v for v in range(n) if not fixpoint >> v & 1]
            if outside:
                newly = mask_of(rng.sample(outside, rng.randint(1, len(outside))))
                resumed = list(_spread(adj, fixpoint | newly, r, newly, levels))
                assert resumed == list(_spread(adj, fixpoint | newly, r)), (n, r, seeds, newly)
                if r <= _LEVELS_UPTO:
                    assert levels == recounted_levels(adj, fixpoint + newly + sum(resumed), r), (n, r, seeds)
    assert branches == {(r, dense) for r in (2, 3) for dense in (False, True)}


def test_flags_mark_wide_dense_masks():
    assert _flags((1 << 64) - 1) == b""  # dense but narrow
    assert _flags(mask_of(range(7, 72, 9))) == b""  # 8 of 71 bits
    assert _flags(mask_of(range(0, 72, 8))) == (b"\x01" + bytes(7)) * 8 + b"\x01"  # 9 of 65 bits
    assert _flags(1 << 64 | 1) == b""

