"""Not-all-equal 3-SAT reduction gadgets.

The builders are deterministic, so most tests pin structural facts: node
counts, clique blocks, variable-pair wiring, and cut round-trips. The
exhaustive satisfiable-iff-cut sweep lives in the acceptance suite; here a
small slice runs as a smoke check.
"""

import itertools

import pytest

from netrobust.errors import ResourceGuardError
from netrobust.hardness import (
    GADGET_NODE_LIMIT,
    Assignment,
    CnfFormula,
    GadgetGraph,
    _append_core,
    assignment_from_cut,
    build_g_phi,
    build_g_rho_phi,
    build_h_phi,
    build_h_rho_phi,
    cut_from_assignment,
    enumerate_nae3sat,
    nae3sat_satisfiable,
    nae_check,
    verify_cut,
)
from netrobust.graph import Graph, complete
from netrobust.robustness import TriPartition, find_relaxed_degree_cut

PHI = CnfFormula(3, (((1, False), (2, True), (3, True)),))


def g_nodes(m: int, t: int) -> int:
    return 2 * (4 * m + t) + 2 * t + 9 * m


def g_rho_nodes(m: int, t: int, rho: int) -> int:
    return g_nodes(m, t) + 2 * (rho - 1) * (4 * m + t) + 2 * (rho - 1) * (9 * m + 2 * t)


# --- formulas ------------------------------------------------------------------


def test_formula_validation():
    with pytest.raises(ValueError, match="num_variables"):
        CnfFormula(0, ())
    with pytest.raises(ValueError, match="exactly 3 literals"):
        CnfFormula(2, (((1, True), (2, True)),))
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(2, (((1, True), (3, True), (2, False)),))


def test_assignment_reads_literals():
    a = Assignment((True, False))
    assert a.value_of((1, True)) and not a.value_of((1, False))
    assert not a.value_of((2, True)) and a.value_of((2, False))


def test_nae_check():
    assert nae_check(PHI, Assignment((False, False, False)))
    # all three literals true: not-all-equal fails
    assert not nae_check(PHI, Assignment((False, True, True)))
    with pytest.raises(ValueError, match="does not match"):
        nae_check(PHI, Assignment((True,)))


def test_satisfiable_returns_lexicographic_first():
    assert nae3sat_satisfiable(PHI) == Assignment((False, False, False))
    constant = CnfFormula(1, (((1, True), (1, True), (1, True)),))
    assert nae3sat_satisfiable(constant) is None


def test_satisfiable_guard():
    wide = CnfFormula(25, (((1, True), (2, True), (3, True)),))
    with pytest.raises(ResourceGuardError, match="t <= 24"):
        nae3sat_satisfiable(wide)


@pytest.mark.parametrize("t,m,count", [(1, 1, 4), (2, 1, 20), (3, 1, 56), (1, 2, 10)])
def test_enumeration_counts(t, m, count):
    formulas = list(enumerate_nae3sat(t, m))
    assert len(formulas) == count
    assert len(set(formulas)) == count


# --- construction ---------------------------------------------------------------


@pytest.mark.parametrize("t,m", [(1, 1), (3, 1), (2, 2), (3, 2)])
def test_g_phi_node_count(t, m):
    clause = (((1, True), (1, False), (1, True)),)
    phi = CnfFormula(t, clause * m)
    assert build_g_phi(phi).graph.n == g_nodes(m, t)


def test_role_layout():
    gg = build_g_phi(PHI)
    kinds = [r.kind for r in gg.roles]
    assert kinds[:7] == ["true_block"] * 7
    assert kinds[7:14] == ["false_block"] * 7
    assert kinds[14:20] == ["variable_node"] * 3 * 2
    assert kinds[20:] == ["clause_node"] * 9
    assert [r.param2 for r in gg.roles[20:]] == list(range(1, 10))


def test_blocks_are_cliques_and_disjoint():
    gg = build_g_phi(PHI)
    tb = [n for n, r in enumerate(gg.roles) if r.kind == "true_block"]
    fb = [n for n, r in enumerate(gg.roles) if r.kind == "false_block"]
    for block in (tb, fb):
        assert all(gg.graph.has_edge(u, v) for u, v in itertools.combinations(block, 2))
    assert not any(gg.graph.has_edge(u, v) for u in tb for v in fb)


def test_variable_pair_wiring():
    gg = build_g_phi(PHI)
    # v_i and its negation share one block anchor per block and avoid each other
    for i in (1, 2, 3):
        pos = next(n for n, r in enumerate(gg.roles) if r.kind == "variable_node" and r.param1 == i and r.param2 == "pos")
        neg = pos + 1
        assert gg.roles[neg].param2 == "neg"
        assert not gg.graph.has_edge(pos, neg)
        tb_anchors = [u for u in gg.graph.neighbors(pos) if gg.roles[u].kind == "true_block"]
        fb_anchors = [u for u in gg.graph.neighbors(pos) if gg.roles[u].kind == "false_block"]
        assert len(tb_anchors) == 1 and len(fb_anchors) == 1
        assert tb_anchors[0] in set(gg.graph.neighbors(neg))
        assert fb_anchors[0] in set(gg.graph.neighbors(neg))


def test_literal_nodes_reach_their_variables():
    gg = build_g_phi(PHI)
    var_node = {
        (r.param1, r.param2): n for n, r in enumerate(gg.roles) if r.kind == "variable_node"
    }
    for j, clause in enumerate(PHI.clauses, start=1):
        for label, (var, polarity) in zip((1, 5, 9), clause):
            lit = next(
                n
                for n, r in enumerate(gg.roles)
                if r.kind == "clause_node" and r.param1 == j and r.param2 == label
            )
            target = var_node[(var, "pos" if polarity else "neg")]
            assert gg.graph.has_edge(lit, target)


def test_rho_one_builder_is_the_base_builder():
    assert build_g_rho_phi(PHI, 1).graph == build_g_phi(PHI).graph
    assert build_h_rho_phi(PHI, 1).graph == build_h_phi(PHI).graph
    with pytest.raises(ValueError, match="rho must be positive"):
        build_g_rho_phi(PHI, 0)
    with pytest.raises(ValueError, match="rho must be positive"):
        build_h_rho_phi(PHI, 0)


def test_gadget_size_guard_fires_before_the_build():
    # 4m + t = 600 nodes a block: g_phi has 2,400 nodes, h_phi three times that
    wide = CnfFormula(600, ())
    assert build_g_phi(wide).graph.n == g_nodes(0, 600) <= GADGET_NODE_LIMIT
    with pytest.raises(ResourceGuardError, match="7200 nodes exceeds the guard"):
        build_h_phi(wide)
    # 2*rho + 1 copies of g_rho: 7 * 271 = 1,897 nodes at rho = 3, m = 3, t = 4
    phi = CnfFormula(4, (((1, True), (2, False), (4, True)),) * 3)
    assert build_h_rho_phi(phi, 3).graph.n == 7 * g_rho_nodes(3, 4, 3) == 1897
    with pytest.raises(ResourceGuardError, match="3357 nodes exceeds the guard"):
        build_h_rho_phi(phi, 4)


@pytest.mark.parametrize("rho", [2, 3])
def test_g_rho_counts_and_block_sizes(rho):
    gg = build_g_rho_phi(PHI, rho)
    m, t = PHI.num_clauses, PHI.num_variables
    assert gg.graph.n == g_rho_nodes(m, t, rho)
    expect_block = (4 * m + t) * rho + (9 * m + 2 * t) * (rho - 1)
    for kind in ("true_block", "false_block"):
        block = [
            n
            for n, r in enumerate(gg.roles)
            if r.kind == kind or (r.kind == "block_support" and r.param2 == kind.split("_")[0])
        ]
        assert len(block) == expect_block
        assert all(gg.graph.has_edge(u, v) for u, v in itertools.combinations(block, 2))


def test_h_phi_is_three_copies():
    h = build_h_phi(PHI)
    assert h.copies == 3
    assert h.graph.n == 3 * g_nodes(PHI.num_clauses, PHI.num_variables)
    tb = [n for n, r in enumerate(h.roles) if r.kind == "true_block"]
    assert len(tb) == 3 * (4 * PHI.num_clauses + PHI.num_variables)
    assert all(h.graph.has_edge(u, v) for u, v in itertools.combinations(tb, 2))


def test_h_rho_copy_count():
    hrho = build_h_rho_phi(PHI, 2)
    assert hrho.copies == 5
    assert hrho.graph.n == 5 * g_rho_nodes(PHI.num_clauses, PHI.num_variables, 2)


def _edge_list_assembly(phi, rho, copies):
    """The reference: every edge, block cliques included, through the
    checked Graph(n, edges) constructor."""
    roles, edges, tb_members, fb_members = [], [], [], []
    base = 0
    for _ in range(copies):
        base = _append_core(phi, rho, base, roles, edges, tb_members, fb_members)
    for members in (tb_members, fb_members):
        edges.extend(itertools.combinations(sorted(members), 2))
    return Graph(base, edges)


@pytest.mark.parametrize("t,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_row_assembly_equals_the_edge_list_assembly(t, m):
    # Every formula under the single-copy builders and the three-copy build.
    # The 2*rho + 1 copies of hrho at rho = 2, 3 cost the reference up to
    # 270,000 checked edges a formula, so they run on every 30th formula;
    # the copies repeat the single-copy core that every formula checks.
    for i, phi in enumerate(enumerate_nae3sat(t, m)):
        builds = [(build_g_phi(phi), 1, 1), (build_h_phi(phi), 1, 3)]
        builds += [(build_g_rho_phi(phi, rho), rho, 1) for rho in (1, 2, 3)]
        builds.append((build_h_rho_phi(phi, 1), 1, 3))
        if i % 30 == 0:
            builds += [(build_h_rho_phi(phi, rho), rho, 2 * rho + 1) for rho in (2, 3)]
        for gg, rho, copies in builds:
            assert gg.graph == _edge_list_assembly(phi, rho, copies), (phi, rho, copies)


# --- cuts ------------------------------------------------------------------------


def test_verify_cut_on_plain_graphs():
    g = complete(5)
    rest = frozenset(range(1, 5))
    cut = TriPartition(frozenset({0}), rest, frozenset())
    assert not verify_cut(g, cut, 3, relaxed=True)
    assert verify_cut(g, cut, 4, relaxed=True)
    with pytest.raises(ValueError, match="cover all nodes"):
        verify_cut(g, TriPartition(frozenset({0}), frozenset({1}), frozenset()), 1, relaxed=False)
    with pytest.raises(ValueError, match="empty X"):
        verify_cut(g, TriPartition(frozenset({0}), rest - {4}, frozenset({4})), 4, relaxed=True)


def test_cut_round_trip():
    gg = build_g_phi(PHI)
    a = Assignment((False, True, False))
    assert nae_check(PHI, a)
    cut = cut_from_assignment(gg, a)
    assert verify_cut(gg, cut, 1, relaxed=True)
    assert cut.set_x == frozenset()
    assert assignment_from_cut(gg, cut) == a


def test_cut_requires_nae_satisfying_assignment():
    gg = build_g_phi(PHI)
    with pytest.raises(ValueError, match="no valid cut exists"):
        cut_from_assignment(gg, Assignment((False, True, True)))


def test_replicated_cut_passes_strict_verification():
    a = nae3sat_satisfiable(PHI)
    for build, rho in ((build_h_phi(PHI), 1), (build_h_rho_phi(PHI, 2), 2)):
        cut = cut_from_assignment(build, a)
        assert verify_cut(build, cut, rho, relaxed=False)


def test_bad_cut_does_not_decode():
    gg = build_g_phi(PHI)
    n = gg.graph.n
    lopsided = TriPartition(frozenset({0}), frozenset(range(1, n)), frozenset())
    with pytest.raises(ValueError, match="does not verify"):
        assignment_from_cut(gg, lopsided)


def test_keystone_smoke_single_variable():
    # every one-variable formula, both constructions; the full grid runs in
    # the acceptance suite
    for m in (1, 2):
        for phi in enumerate_nae3sat(1, m):
            sat = nae3sat_satisfiable(phi)
            g1 = build_g_phi(phi)
            cut1 = find_relaxed_degree_cut(g1.graph, 1, node_limit=250)
            assert (cut1 is not None) == (sat is not None)
            g2 = build_g_rho_phi(phi, 2)
            cut2 = find_relaxed_degree_cut(g2.graph, 2, node_limit=250)
            assert (cut2 is not None) == (sat is not None)
            if sat is not None:
                assert nae_check(phi, assignment_from_cut(g1, cut1))
                assert nae_check(phi, assignment_from_cut(g2, cut2))


@pytest.mark.parametrize("rho", [1, 2])
def test_relaxed_verdicts_match_brute_force_up_to_two_variables(rho):
    # the strong-pair blocks placed whole must never hide a relaxed cut
    build = build_g_phi if rho == 1 else lambda phi: build_g_rho_phi(phi, 2)
    for t in (1, 2):
        for m in (1, 2):
            for phi in enumerate_nae3sat(t, m):
                cut = find_relaxed_degree_cut(build(phi).graph, rho, node_limit=250)
                assert (cut is not None) == (nae3sat_satisfiable(phi) is not None), phi
