"""Cut search, robustness decisions, and their agreement with brute force.

The enumeration oracle is the ground truth here; the branch-and-bound search
must match it exactly on everything small enough to enumerate.
"""

import importlib
import itertools
import logging
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from netrobust.connectivity import vertex_connectivity
from netrobust.dynamics import contagion_from_any_m
from netrobust.errors import ResourceGuardError
from netrobust.generators import RngSeed, gen_preferential
from netrobust.graph import Graph, complete, counterexample, cycle, is_connected, iter_bits, mask_of, min_degree, path
from netrobust.hardness import verify_cut
from netrobust.robustness import (
    DEFAULT_NODE_LIMIT,
    TriPartition,
    _bounds,
    _clique_closure,
    _core,
    _naive_robustness,
    _strong_pairs,
    _tie_classes,
    check_subsets_reachable,
    find_degree_cut,
    find_relaxed_degree_cut,
    is_r_reachable,
    is_r_robust,
    naive_is_r_robust,
    reach_index,
    robustness,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@st.composite
def graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def reference_has_cut(g: Graph, rho: int) -> bool:
    """Plain exhaustive {A, B, X} search with forced-assignment propagation
    only: no bounds and no strong-pair rule. Recursive; n stays small here."""
    adj = g.adj
    n = g.n
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())

    def place(a, b, x, bit, side):
        todo = [(bit, side)]
        while todo:
            bit, side = todo.pop()
            if side == "A":
                if bit & (b | x):
                    return None
                if bit & a:
                    continue
                a |= bit
            elif side == "B":
                if bit & (a | x):
                    return None
                if bit & b:
                    continue
                b |= bit
            else:
                x |= bit
            assigned = a | b | x
            check = adj[bit.bit_length() - 1] & (a | b)
            if side != "X":
                check |= bit
            for u in iter_bits(check):
                in_a = a >> u & 1
                outside = (adj[u] & assigned & ~(a if in_a else b)).bit_count()
                if outside > rho:
                    return None
                if outside == rho:
                    todo += [(1 << w, "A" if in_a else "B") for w in iter_bits(adj[u] & ~assigned)]
        return a, b, x

    def rec(a, b, x, idx):
        while idx < n and (a | b | x) >> order[idx] & 1:
            idx += 1
        if idx == n:
            return bool(a and b)
        for side in "ABX" if a else "AX":
            placed = place(a, b, x, 1 << order[idx], side)
            if placed is not None and rec(*placed, idx + 1):
                return True
        return False

    return rec(0, 0, 0, 0)


def reference_robustness(g: Graph) -> int:
    """The ascending loop robustness() ran before certified bounds: search
    every rho below the minimum degree, for a connected g."""
    bound = max(min_degree(g), 1)
    return next((rho for rho in range(1, bound) if reference_has_cut(g, rho)), bound)


def cut_is_valid(g: Graph, cut: TriPartition, rho: int) -> bool:
    for side in (cut.set_a, cut.set_b):
        for v in side:
            outside = sum(1 for u in g.neighbors(v) if u not in side)
            if outside > rho:
                return False
    return True


# --- reachability ---------------------------------------------------------


def test_reach_index_examples():
    assert reach_index(path(4), frozenset({1, 2})) == 1
    assert reach_index(complete(5), frozenset({0})) == 4
    assert reach_index(complete(5), frozenset(range(5))) == 0


def test_reach_index_rejects_bad_sets():
    with pytest.raises(ValueError, match="empty set"):
        reach_index(path(3), frozenset())
    with pytest.raises(ValueError, match="outside the graph"):
        reach_index(path(3), frozenset({3}))


def test_is_r_reachable_threshold():
    s = frozenset({0})
    assert is_r_reachable(complete(5), s, 4)
    assert not is_r_reachable(complete(5), s, 5)
    assert is_r_reachable(complete(5), s, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        is_r_reachable(complete(5), s, -1)


def test_far_off_and_negative_ids_are_refused_before_any_mask():
    # A mask of node id v holds v bits, 12.5 MB for 10**8; the peak shows it.
    g = path(3)
    tracemalloc.start()
    try:
        for ids in ({10**8}, {-1}, {0, 3}):
            s = frozenset(ids)
            far = s - {0, 1, 2}
            with pytest.raises(ValueError, match="set contains nodes outside the graph"):
                reach_index(g, s)
            with pytest.raises(ValueError, match="set contains nodes outside the graph"):
                is_r_reachable(g, s, 1)
            for cut in (
                TriPartition(frozenset({0}), frozenset({1, 2}), far),
                TriPartition(frozenset({0}) | far, frozenset({1, 2}), frozenset()),
            ):
                with pytest.raises(ValueError, match="cut contains nodes outside the graph"):
                    verify_cut(g, cut, 1, relaxed=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- cut search ------------------------------------------------------------


def test_tripartition_validation():
    TriPartition(frozenset({0}), frozenset({1}), frozenset())
    with pytest.raises(ValueError, match="nonempty"):
        TriPartition(frozenset(), frozenset({1}), frozenset())
    with pytest.raises(ValueError, match="disjoint"):
        TriPartition(frozenset({0}), frozenset({0}), frozenset())


def test_counterexample_has_clique_cut():
    g = counterexample(6)
    cut = find_degree_cut(g, 1)
    assert cut is not None
    assert {cut.set_a, cut.set_b} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert cut.set_x == frozenset()


def test_complete_graph_cut_thresholds():
    # splitting K_4 in half gives each node 2 outside neighbors, never fewer
    assert find_degree_cut(complete(4), 1) is None
    cut = find_degree_cut(complete(4), 2)
    assert cut is not None and cut_is_valid(complete(4), cut, 2)


def test_relaxed_cut_is_a_bipartition():
    for g in (cycle(4), cycle(5), counterexample(8), path(6)):
        cut = find_relaxed_degree_cut(g, 1)
        assert cut is not None
        assert cut.set_x == frozenset()
        assert cut.set_a | cut.set_b == frozenset(range(g.n))
        assert cut_is_valid(g, cut, 1)


def test_triangle_has_no_matching_cut():
    assert find_relaxed_degree_cut(complete(3), 1) is None


def test_rho_zero_means_disconnection():
    assert find_degree_cut(path(4), 0) is None
    two_parts = Graph(4, [(0, 1), (2, 3)])
    cut = find_degree_cut(two_parts, 0)
    assert cut is not None and cut_is_valid(two_parts, cut, 0)


def test_cut_search_rejects_bad_args():
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        find_degree_cut(path(4), -1)
    for n in (0, 1):  # _trivial_cut would return a malformed witness, or index past the end
        with pytest.raises(ValueError, match="at least 2 nodes"):
            find_degree_cut(Graph(n), 1)


# Two triangles {0, 1, 2} and {3, 4, 5} joined through node 6. Its minimum
# degree is 2, so at rho = 1 no trivial cut answers and the search is asked.
TWO_TRIANGLES = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (3, 6)])


def _masks(*sides):
    return tuple(sum(1 << v for v in side) for side in sides)


@pytest.mark.parametrize(
    "found",
    [
        _masks({3, 4, 5}, {3, 4, 5, 6}, {0, 1, 2}),  # A and B overlap, each side passes its recount
        _masks({0, 1, 2, 3, 4, 5}, set(), {6}),  # B empty
        _masks(set(), {0, 1, 2, 3, 4, 5}, {6}),  # A empty
        _masks({0}, {1, 2, 3, 4, 5, 6}, set()),  # node 0 has 2 > rho outside neighbors
        _masks({0, 1}, {2, 3, 4, 5, 6}, set()),  # node 2, in B, has 2 > rho outside neighbors
    ],
)
def test_both_finders_refuse_a_bad_witness(monkeypatch, found):
    monkeypatch.setattr(importlib.import_module("netrobust.robustness"), "_search_cut", lambda *args: found)
    with pytest.raises(AssertionError):
        find_degree_cut(TWO_TRIANGLES, 1)
    with pytest.raises(AssertionError):
        find_relaxed_degree_cut(TWO_TRIANGLES, 1)


def test_relaxed_finder_refuses_a_witness_with_x(monkeypatch):
    found = _masks({0, 1, 2}, {3, 4, 5}, {6})  # a valid 1-cut once X may be nonempty
    monkeypatch.setattr(importlib.import_module("netrobust.robustness"), "_search_cut", lambda *args: found)
    cut = find_degree_cut(TWO_TRIANGLES, 1)
    assert cut == TriPartition(frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6}))
    with pytest.raises(AssertionError):
        find_relaxed_degree_cut(TWO_TRIANGLES, 1)


def test_disconnected_graphs_are_decided_without_listing_components(monkeypatch):
    # Listing every component is quadratic on large sparse graphs; one BFS
    # from node 0 decides connectivity and gives the component witness.
    def refuse(g):
        raise AssertionError("component_masks called")

    for name in ("netrobust.graph", "netrobust.robustness"):
        monkeypatch.setattr(importlib.import_module(name), "component_masks", refuse, raising=False)
    g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert robustness(g) == 0
    assert not is_r_robust(g, 1)
    assert not is_r_robust(g, 3)
    split = TriPartition(frozenset({0, 1}), frozenset({2, 3, 4, 5}), frozenset())
    assert find_degree_cut(g, 0) == split
    assert find_relaxed_degree_cut(g, 0) == split


# --- robustness decisions ---------------------------------------------------


def test_robustness_known_values():
    assert robustness(complete(2)) == 1
    assert robustness(path(5)) == 1
    assert robustness(cycle(6)) == 1
    assert robustness(complete(7)) == 4
    assert robustness(counterexample(8)) == 1
    assert robustness(Graph(4, [(0, 1), (2, 3)])) == 0


def test_is_r_robust_edges_of_range():
    g = cycle(5)
    assert is_r_robust(g, 0)
    assert is_r_robust(g, 1)
    assert not is_r_robust(g, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        is_r_robust(g, -1)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        robustness(Graph(0))


def test_node_limit_guard_and_override():
    big = counterexample(DEFAULT_NODE_LIMIT + 1)  # its bounds leave 1..13 open
    with pytest.raises(ResourceGuardError, match="node limit"):
        robustness(big)
    assert robustness(big, node_limit=big.n) == 1


def _refuse_placement(monkeypatch):
    def refuse(*args):
        raise AssertionError("cut search placed a node")

    monkeypatch.setattr(importlib.import_module("netrobust.robustness"), "_place", refuse)


def test_graphs_decided_without_search_pass_the_node_limit(monkeypatch):
    # The limit refuses searches, not graphs: bounds and trivial cuts answer at any size.
    _refuse_placement(monkeypatch)
    pa = gen_preferential(200, 3, RngSeed(0, 1))
    for g, r in ((complete(30), 15), (path(30), 1), (pa, 3)):
        assert g.n > DEFAULT_NODE_LIMIT
        assert robustness(g) == r
        assert is_r_robust(g, r) and not is_r_robust(g, r + 1)
    assert find_degree_cut(path(30), 1) == TriPartition(frozenset({0}), frozenset(range(1, 30)), frozenset())


def test_node_limit_refuses_a_search_before_it_starts(monkeypatch):
    _refuse_placement(monkeypatch)
    g = counterexample(DEFAULT_NODE_LIMIT + 1)
    for decide in (robustness, lambda g: is_r_robust(g, 2), lambda g: find_degree_cut(g, 1),
                   lambda g: find_relaxed_degree_cut(g, 1)):
        with pytest.raises(ResourceGuardError, match="node limit"):
            decide(g)


def test_oracle_guard():
    with pytest.raises(ResourceGuardError):
        naive_is_r_robust(path(13), 1)


def test_search_agrees_with_oracle_on_seeded_batch():
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        exact = _naive_robustness(g)  # naive_is_r_robust(g, r) is r <= exact
        for r in range(0, n + 1):
            assert is_r_robust(g, r) == (r <= exact), (g.n, list(g.edges()), r)


def test_search_depth_is_not_bounded_by_recursion_limit():
    g = cycle(1500)
    cut = find_degree_cut(g, 1, node_limit=None)
    assert cut is not None and cut_is_valid(g, cut, 1)
    assert robustness(g, node_limit=None) == 1


def reference_corpus():
    """Connected graphs of 13-20 nodes. The reference search takes seconds
    on a dense G(n, p) above 16 nodes, so p = 0.8 stops at n = 16 and
    p = 0.6 at n = 18."""
    rng = random.Random(0xB0B)
    for p, top in ((0.4, 20), (0.6, 18), (0.8, 16)):
        for n in range(13, top + 1):
            g = random_graph(rng, n, p)
            if is_connected(g):
                yield g
    for r in (2, 3, 4):
        for n in (13, 16, 20):
            yield gen_preferential(n, r, RngSeed(7, 10 * r + n))
    for n in (13, 16):
        yield complete(n)
    for n in (14, 16, 18, 20):
        yield counterexample(n)


def test_bounded_search_matches_plain_ascending_search():
    for g in reference_corpus():
        assert robustness(g) == reference_robustness(g), (g.n, list(g.edges()))


# --- closed-core lookahead ----------------------------------------------------


def largest_closed_subset(g: Graph, mask: int, rho: int) -> int:
    """The union of every subset of mask whose nodes each have at most rho
    neighbors outside it, by enumeration."""
    union = 0
    sub = mask
    while sub:
        if all((g.adj[v] & ~sub).bit_count() <= rho for v in iter_bits(sub)):
            union |= sub
        sub = (sub - 1) & mask
    return union


def test_core_on_fixed_shapes():
    p5 = path(5)
    assert _core(p5.adj, 0, 1) == 0
    assert _core(p5.adj, p5.full_mask(), 0) == p5.full_mask()
    assert _core(p5.adj, 0b00111, 0) == 0  # peeled from node 2 back to node 0
    assert _core(p5.adj, 0b00111, 1) == 0b00111
    assert _core(p5.adj, 0b10111, 1) == 0b10111  # node 4 has one neighbor, 3, outside
    assert _core(p5.adj, 0b10111, 0) == 0
    k7 = complete(7)
    for size in range(8):
        mask = (1 << size) - 1
        # a clique subset keeps 7 - size outside neighbors per node
        assert _core(k7.adj, mask, 2) == (mask if 7 - size <= 2 else 0)
    ce = counterexample(10)
    half = 0b11111
    assert _core(ce.adj, half, 1) == half
    assert _core(ce.adj, half, 0) == 0
    assert _core(ce.adj, half | 1 << 5, 1) == half  # node 5 has 4 clique mates outside
    assert _core(ce.adj, half | 1 << 5, 4) == half | 1 << 5
    assert _core(ce.adj, ce.full_mask(), 0) == ce.full_mask()


def test_core_is_the_largest_closed_subset():
    rng = random.Random(0xC02E)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        mask = rng.getrandbits(n)
        for rho in range(4):
            assert _core(g.adj, mask, rho) == largest_closed_subset(g, mask, rho), (list(g.edges()), mask, rho)


def test_tie_classes_are_the_strong_pair_components():
    rng = random.Random(0x71E)
    corpus = [random_graph(rng, rng.randint(1, 16), rng.random()) for _ in range(200)]
    corpus += [complete(9), counterexample(12), gen_preferential(30, 4, RngSeed(3))]
    for g in corpus:
        for rho in range(4):
            strong = _strong_pairs(g.adj, rho)
            tie, near = [], []
            for v in range(g.n):
                comp, todo = 0, 1 << v
                while todo:  # the component of v over strong pairs
                    comp |= todo
                    todo = mask_of(u for w in iter_bits(todo) for u in iter_bits(strong[w])) & ~comp
                tie.append(comp)
                near.append(mask_of(u for w in iter_bits(comp) for u in iter_bits(g.adj[w])))
            assert _tie_classes(g.adj, rho) == (tie, near), (list(g.edges()), rho)


def test_core_prune_changes_no_witness(monkeypatch):
    rng = random.Random(0x9A7E)
    corpus = [random_graph(rng, rng.randint(2, 15), rng.random()) for _ in range(520)]

    def witnesses():
        return [(find_degree_cut(g, rho), find_relaxed_degree_cut(g, rho)) for g in corpus for rho in range(4)]

    pruned = witnesses()
    # Every mask is its own core: no branch is ever pruned.
    monkeypatch.setattr(importlib.import_module("netrobust.robustness"), "_core", lambda adj, mask, rho: mask)
    plain = witnesses()
    assert pruned == plain
    assert sum(1 for cut, _ in plain if cut is not None) > 500  # both outcomes are well covered


def test_core_prune_cuts_the_refutation_work(monkeypatch):
    module = importlib.import_module("netrobust.robustness")
    place = module._place
    calls = []

    def counted(rules, rho, *rest):
        calls.append(rho)
        return place(rules, rho, *rest)

    monkeypatch.setattr(module, "_place", counted)
    g = gen_preferential(20, 3, RngSeed(0, 1))
    # robustness() certifies this graph without search (see the closure
    # tests below), so the refutation runs through the finder, which has no
    # bound shortcut.
    assert find_degree_cut(g, 2) is None
    # Without the prune, refuting rho = 2 takes 4,456 placements; with it, 52.
    assert 0 < calls.count(2) <= 200


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=12))
def test_bounds_bracket_the_oracle(g):
    assume(is_connected(g))
    lb, ub, lb_from, ub_from = _bounds(g)
    assert type(lb) is int and type(ub) is int
    assert lb_from in {"connectivity", "delta", "closure"}
    assert ub_from in {"delta", "ceil(n/2)"}
    assert lb <= _naive_robustness(g) <= ub


def test_decision_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="netrobust.robustness")
    assert robustness(complete(8)) == 4
    assert robustness(counterexample(8)) == 1
    assert robustness(Graph(4, [(0, 1), (2, 3)])) == 0
    messages = [rec.getMessage() for rec in caplog.records]
    assert messages == [
        "robustness 4: lb=ub (lb from delta, ub from ceil(n/2)), no search",
        "robustness 1: searched rho=1..1 of [lb=1 from connectivity, ub=4 from delta)",
        "robustness 0: disconnected",
    ]


# --- clique closure certificate ---------------------------------------------


def count_closures(monkeypatch) -> list:
    """Record the answer of every _clique_closure call from here on."""
    module = importlib.import_module("netrobust.robustness")
    closure, fired = module._clique_closure, []

    def counted(adj, r):
        fired.append(closure(adj, r))
        return fired[-1]

    monkeypatch.setattr(module, "_clique_closure", counted)
    return fired


def test_closure_certificate_is_logged(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="netrobust.robustness")
    closures = count_closures(monkeypatch)
    assert robustness(gen_preferential(20, 3, RngSeed(0, 1))) == 3
    assert [rec.getMessage() for rec in caplog.records] == [
        "robustness 3: lb=ub (lb from closure, ub from delta), no search",
    ]
    assert closures == [True]  # the log names the bound without a second closure


def test_bipartite_bounds_leave_the_search_to_decide(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="netrobust.robustness")
    closures = count_closures(monkeypatch)
    # K_{a,a} has no clique of 2a - 1 nodes to certify ub = a, and
    # delta + 1 - floor(n/2) = 1, so the search starts from connectivity.
    for a in (3, 4):
        before = len(closures)
        assert robustness(Graph(2 * a, [(u, v) for u in range(a) for v in range(a, 2 * a)])) == 2
        assert len(closures) - before <= 1
    assert [rec.getMessage() for rec in caplog.records] == [
        "robustness 2: searched rho=1..2 of [lb=1 from connectivity, ub=3 from delta)",
        "robustness 2: searched rho=1..2 of [lb=1 from connectivity, ub=4 from delta)",
    ]


def wheel(rim: int) -> Graph:
    """Hub 0 joined to every node of the cycle 1..rim."""
    return Graph(rim + 1, [(0, v) for v in range(1, rim + 1)] + [(v, v % rim + 1) for v in range(1, rim + 1)])


def test_preferential_graphs_are_certified_without_search(monkeypatch):
    module = importlib.import_module("netrobust.robustness")

    def refuse(*args):
        raise AssertionError("cut search ran")

    monkeypatch.setattr(module, "_search_cut", refuse)
    for m in (2, 3, 4):
        for n in range(2 * m - 1, 26):
            for stream in range(3):
                g = gen_preferential(n, m, RngSeed(n, 10 * m + stream))
                assert robustness(g) == m, (n, m, stream)
                assert is_r_robust(g, m), (n, m, stream)
    # is_r_robust tries the certificate at its own r: the wheel's bounds
    # give 1 <= robustness <= 3, and a hub-rim triangle spreads around the
    # rim at threshold 2.
    g = wheel(8)
    assert _bounds(g)[:2] == (1, 3)
    assert is_r_robust(g, 2)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_closure_certificate_is_sound(g):
    for r in range(1, g.n + 2):
        if _clique_closure(g.adj, r):
            assert naive_is_r_robust(g, r), r


def test_closure_certificate_on_cliques():
    # K_n is r-robust exactly when n >= 2r - 1, and is its own base clique.
    for n in range(1, 12):
        for r in range(1, n + 2):
            assert _clique_closure(complete(n).adj, r) == (n >= 2 * r - 1), (n, r)


def test_closure_certificate_changes_no_answer(monkeypatch):
    module = importlib.import_module("netrobust.robustness")
    rng = random.Random(0xC11C)
    corpus = []
    for i in range(1000):
        n = rng.randint(3, 16)
        if i % 3 == 0 and n >= 5:
            m = rng.randint(2, (n + 1) // 2)
            corpus.append(gen_preferential(n, m, RngSeed(i, 5)))
        else:
            corpus.append(random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9])))

    def answers():
        out = []
        for g in corpus:
            rob = robustness(g)
            out.append((rob, [is_r_robust(g, r) for r in range(rob + 3)]))
        return out

    fired = count_closures(monkeypatch)
    certified = answers()
    monkeypatch.setattr(module, "_clique_closure", lambda adj, r: False)
    assert certified == answers()
    assert sum(fired) > 1000, (sum(fired), len(fired))  # 1,176 certificates


# --- subset reachability ----------------------------------------------------


def least_reach(g: Graph, cap: int) -> int:
    """The least reach index over the nonempty node sets of at most cap nodes,
    set by set (itertools and reach_index share no code with _spread): every
    such set is r-reachable exactly when r <= this."""
    sizes = range(1, cap + 1)
    sets = itertools.chain.from_iterable(itertools.combinations(range(g.n), k) for k in sizes)
    return min(reach_index(g, frozenset(s)) for s in sets)


def test_check_subsets_reachable_examples():
    # K_5: every strict subset has a node seeing everything outside
    assert check_subsets_reachable(complete(5), 2, 3)
    # a path endpoint pair {0,1} has reach 1 only
    assert not check_subsets_reachable(path(5), 2, 2)
    # an endpoint's singleton is not r-reachable; nothing is sized by r
    assert not check_subsets_reachable(path(5), 10**9, 2)
    with pytest.raises(ValueError, match="cap must be"):
        check_subsets_reachable(path(5), 1, 0)
    with pytest.raises(ResourceGuardError):
        check_subsets_reachable(path(27), 1, 3)


def test_subset_reachability_does_not_follow_from_robustness():
    # 2-robust yet one 3-node set has reach index 1: the implication only
    # runs from subset reachability to robustness, not back.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 3), (2, 4)])
    assert is_r_robust(g, 2)
    assert reach_index(g, frozenset({0, 1, 2})) == 1
    assert not check_subsets_reachable(g, 2, 3)


def test_subset_reachability_matches_the_set_by_set_oracle():
    rng = random.Random(1812)
    graphs_ = [random_graph(rng, n, p) for n in range(2, 13) for p in (0.0, 0.3, 0.5, 0.7, 1.0)]
    graphs_ += [random_graph(rng, rng.randint(2, 9), rng.random()) for _ in range(60)]
    graphs_ += [counterexample(8), counterexample(12), path(12), cycle(11)]
    checked = 0
    for g in graphs_:
        above = max(g.degree(v) for v in range(g.n)) + 1
        for cap in range(1, g.n):
            least, m = least_reach(g, cap), g.n - cap
            for r in (*range(6), above):
                expected = r <= least
                assert check_subsets_reachable(g, r, cap) == expected, (g.n, list(g.edges()), r, cap)
                if 1 <= r <= m:
                    assert contagion_from_any_m(g, m, r) == expected, (g.n, list(g.edges()), r, cap)
                    assert contagion_from_any_m(g, m, r, method="simulate") == expected, (g.n, list(g.edges()), r, cap)
                    checked += 1
    assert checked > 1000, checked


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.integers(1, 4))
def test_subset_reachability_implies_robustness(g, r):
    cap = g.n // 2
    if cap >= 1 and check_subsets_reachable(g, r, cap):
        assert is_r_robust(g, r)


# --- property suite ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_robustness_chain(g):
    assert robustness(g) <= vertex_connectivity(g) <= min_degree(g)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_one_robust_iff_connected(g):
    assert is_r_robust(g, 1) == is_connected(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.integers(0, 27))
def test_edge_addition_never_hurts(g, pick):
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    u, v = non_edges[pick % len(non_edges)]
    denser = Graph(g.n, list(g.edges()) + [(u, v)])
    assert robustness(denser) >= robustness(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.integers(0, 3))
def test_found_cuts_are_witnesses(g, rho):
    cut = find_degree_cut(g, rho)
    if cut is None:
        # absence claims are exactly the oracle's (rho+1)-robustness
        assert naive_is_r_robust(g, rho + 1)
    else:
        assert cut_is_valid(g, cut, rho)
        assert not naive_is_r_robust(g, rho + 1)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.integers(0, 2))
def test_relaxed_cuts_cover_all_nodes(g, rho):
    cut = find_relaxed_degree_cut(g, rho)
    if cut is not None:
        assert cut.set_x == frozenset()
        assert cut.set_a | cut.set_b == frozenset(range(g.n))
        assert cut_is_valid(g, cut, rho)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8))
def test_robustness_is_the_is_r_robust_frontier(g):
    r = robustness(g)
    assert is_r_robust(g, r)
    assert not is_r_robust(g, r + 1)
    assert r <= math.ceil(g.n / 2)
