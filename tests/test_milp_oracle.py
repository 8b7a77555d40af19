"""Exact robustness checked against an independent mixed-integer model.

The pair-enumeration oracle stops at 12 nodes. A rho-degree cut is also the
feasible set of a small 0/1 program (after Usevitch & Panagou, "Determining
r- and (r,s)-robustness of digraphs using mixed integer linear programming",
Automatica 2020), which HiGHS decides through scipy.optimize.milp for
graphs of 16-30 nodes in well under a second each.
"""

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from netrobust.generators import RngSeed, gen_erdos_renyi, gen_preferential
from netrobust.graph import Graph, counterexample, is_connected, min_degree
from netrobust.robustness import is_r_robust, robustness


def milp_has_cut(g: Graph, rho: int) -> bool:
    """True iff g has a rho-degree cut, decided by HiGHS.

    Binary a_i, b_i mark the two sides: a_i + b_i <= 1, sum(a) >= 1,
    sum(b) >= 1, and for each side s and node i the big-M row
    deg(i) - sum_{j in N(i)} s_j <= rho + n (1 - s_i), which binds only when
    s_i = 1 and then counts i's neighbors outside the side.
    """
    n = g.n
    adjacency = np.zeros((n, n))
    for u, v in g.edges():
        adjacency[u, v] = adjacency[v, u] = 1
    degree = adjacency.sum(axis=1)
    eye, zero = np.eye(n), np.zeros((n, n))
    ones, nones = np.ones((1, n)), np.zeros((1, n))
    rows = np.vstack([
        np.hstack([eye, eye]),
        np.hstack([ones, nones]),
        np.hstack([nones, ones]),
        np.hstack([n * eye - adjacency, zero]),
        np.hstack([zero, n * eye - adjacency]),
    ])
    lower = np.concatenate([np.full(n, -np.inf), [1, 1], np.full(2 * n, -np.inf)])
    upper = np.concatenate([np.ones(n), [np.inf, np.inf], np.tile(rho + n - degree, 2)])
    result = milp(
        np.zeros(2 * n),
        constraints=LinearConstraint(rows, lower, upper),
        integrality=np.ones(2 * n),
        bounds=Bounds(0, 1),
    )
    assert result.status in (0, 2), result.message  # 0: feasible, 2: infeasible
    return result.status == 0


def milp_corpus():
    """15 graphs of 16-30 nodes: preferential attachment with r = 2-4,
    connected G(n, p) at 1.5 times the 2-connectivity threshold, and
    counterexample(n)."""
    for r in (2, 3, 4):
        for n in (16, 22, 28):
            yield gen_preferential(n, r, RngSeed(3, 10 * r + n))
    for n in (16, 20, 24, 30):
        p = 1.5 * (math.log(n) + math.log(math.log(n))) / n
        stream = 100 * n
        while not is_connected(g := gen_erdos_renyi(n, p, RngSeed(5, stream))):
            stream += 1
        yield g
    for n in (16, 24):
        yield counterexample(n)


def test_robustness_matches_the_milp_oracle():
    seen = set()
    for g in milp_corpus():
        r = robustness(g, node_limit=None)
        seen.add(r)
        context = (g.n, list(g.edges()), r)
        assert milp_has_cut(g, r), context
        assert r == 0 or not milp_has_cut(g, r - 1), context
    assert seen >= {1, 2, 3, 4}


def dense_corpus():
    """Six connected G(n, p) graphs of 14-24 nodes at p = 0.5 and 0.6, each
    with robustness below delta, so that the search covers most of [lb, ub).
    Streams are picked to keep HiGHS well under a second per graph."""
    for n, p, stream in ((14, 0.6, 1), (16, 0.5, 2), (18, 0.6, 2), (20, 0.5, 2), (22, 0.5, 0), (24, 0.5, 9)):
        yield gen_erdos_renyi(n, p, RngSeed(7, stream))


def test_dense_decisions_match_the_milp_oracle():
    for g in dense_corpus():
        r = robustness(g)
        context = (g.n, list(g.edges()), r)
        assert is_connected(g) and 1 < r < min_degree(g), context
        assert milp_has_cut(g, r), context
        assert not milp_has_cut(g, r - 1), context
        assert is_r_robust(g, r) and not is_r_robust(g, r + 1), context
