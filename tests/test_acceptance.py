"""Acceptance suite: one test per advertised guarantee, timed where a budget
is part of the guarantee. Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import math
import time

import pytest

from netrobust.connectivity import vertex_connectivity
from netrobust.dynamics import (
    Constant,
    ConsensusConfig,
    Ramp,
    UniformRandom,
    contagion_from_any_m,
    run_consensus,
)
from netrobust.experiments import SweepSpec, half_crossing, run_er_sweep
from netrobust.generators import RngSeed, gen_erdos_renyi, gen_geometric, gen_preferential
from netrobust.graph import complete, counterexample, is_connected, min_degree
from netrobust.hardness import (
    CnfFormula,
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
from netrobust.robustness import (
    _naive_robustness,
    find_relaxed_degree_cut,
    is_r_robust,
    robustness,
)
from test_robustness import least_reach


def report(num: str, detail: str) -> None:
    print(f"\n[criterion {num}] PASS  {detail}")


@pytest.fixture(scope="module")
def er_corpus():
    """500 seeded G(n, p) samples with n <= 10, shared by criteria 3 and 4."""
    samples = []
    ps = (0.15, 0.3, 0.5, 0.7, 0.85)
    for k in range(500):
        n = 4 + k % 7
        p = ps[(k // 7) % 5]
        samples.append(gen_erdos_renyi(n, p, RngSeed(31337, k)))
    return samples


def test_criterion_01_clique_pair_figure():
    start = time.perf_counter()
    for n in (6, 8, 10):
        g = counterexample(n)
        assert min_degree(g) == n // 2
        assert vertex_connectivity(g) == n // 2
        assert robustness(g) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("01", f"counterexample(6,8,10): degree = connectivity = n/2, robustness 1 ({elapsed:.2f}s)")


def test_criterion_02_complete_graph_law():
    start = time.perf_counter()
    for n in range(2, 11):
        assert robustness(complete(n)) == math.ceil(n / 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("02", f"robustness(K_n) = ceil(n/2) for n = 2..10 ({elapsed:.2f}s)")


def test_criterion_03_oracle_equivalence(er_corpus):
    checks = 0
    for g in er_corpus:
        exact = _naive_robustness(g)  # naive_is_r_robust(g, r) is r <= exact
        for r in range(6):
            assert is_r_robust(g, r) == (r <= exact), (g.n, list(g.edges()), r)
            checks += 1
    report("03", f"cut search matches the enumeration oracle on {len(er_corpus)} graphs, {checks} decisions")


def test_criterion_04_degree_connectivity_chain(er_corpus):
    for g in er_corpus:
        rob, conn = robustness(g), vertex_connectivity(g)
        assert rob <= conn <= min_degree(g), (g.n, list(g.edges()))
        assert is_r_robust(g, 1) == is_connected(g)
    report("04", f"robustness <= connectivity <= min degree and 1-robust iff connected on {len(er_corpus)} graphs")


def test_criterion_05_geometric_equivalence():
    start = time.perf_counter()
    premise_hits = 0
    connected = 0
    for k in range(300):
        n = 6 + k % 13
        radius = (0.08, 0.12, 0.2, 0.3)[k % 4]
        g, placement = gen_geometric(n, radius, 1.0, 1, RngSeed(777, k))
        rob, conn = robustness(g), vertex_connectivity(g)
        assert rob >= conn // 2, (n, radius, k)
        if placement.spread() > 3 * radius:
            premise_hits += 1
            assert conn == rob, (n, radius, k)
        connected += conn > 0
    elapsed = time.perf_counter() - start
    # the sweep has to exercise both the premise and both phases
    assert premise_hits >= 50
    assert 0 < connected < 300
    assert elapsed < 300.0
    report("05", f"300 1-D samples: spread > 3*radius forced equality {premise_hits} times, floor law always ({elapsed:.1f}s)")


def test_criterion_06_preferential_attachment_robustness():
    checked = 0
    for r in (2, 3):
        for k in range(50):
            n = 2 * r - 1 + 6 + k % (22 - 2 * r - 6)
            g = gen_preferential(min(n, 20), r, RngSeed(4200 + k, r))
            assert robustness(g) == r, (r, k)
            checked += 1
    report("06", f"{checked} preferential graphs, r in (2, 3), every one exactly r-robust")


def test_criterion_07_threshold_coincidence():
    start = time.perf_counter()
    # desk-scale coupled sweep at n = 20
    records = run_er_sweep(SweepSpec("erdos_renyi", 20, 2, 500, RngSeed(20260814)))
    cells = {}
    xs = []
    for rec in records:
        x = float(rec.flags.split(";")[0].split("=")[1])
        cells[(x, rec.property)] = rec
        if x not in xs:
            xs.append(x)
    xs.sort()
    for x in xs:
        d = cells[(x, "min_degree_r")].estimate
        k = cells[(x, "r_connected")].estimate
        r = cells[(x, "r_robust")].estimate
        assert r <= k <= d, x
    for prop in ("min_degree_r", "r_connected", "r_robust"):
        curve = [cells[(x, prop)].estimate for x in xs]
        assert curve == sorted(curve), prop
    gap = cells[(xs[-1], "min_degree_r")].estimate - cells[(xs[-1], "r_robust")].estimate
    assert gap <= 0.05

    # at n = 1000 the two cheap properties must cross 0.5 at the same place
    big = run_er_sweep(
        SweepSpec(
            "erdos_renyi",
            1000,
            2,
            500,
            RngSeed(20260815),
            properties=("min_degree_r", "r_connected"),
        )
    )
    points = {"min_degree_r": [], "r_connected": []}
    for rec in big:
        x = float(rec.flags.split(";")[0].split("=")[1])
        points[rec.property].append((x, rec.estimate, rec.trials))
    x_d, se_d = half_crossing(sorted(points["min_degree_r"]))
    x_k, se_k = half_crossing(sorted(points["r_connected"]))
    combined = math.hypot(se_d, se_k)
    assert abs(x_d - x_k) <= 2 * combined, (x_d, x_k, combined)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        "07",
        f"n=20: ordering + monotone + end gap {gap:.3f} <= 0.05; "
        f"n=1000: crossings {x_d:.3f} vs {x_k:.3f}, gap {abs(x_d - x_k):.3f} <= 2se={2 * combined:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_08a_stalemate():
    g = counterexample(8)
    values = [0.0] * 4 + [1.0] * 4
    for mode in ("strict", "literal"):
        config = ConsensusConfig(
            f_parameter=1, filter_mode=mode, max_rounds=100, convergence_epsilon=1e-12
        )
        trace = run_consensus(g, values, config)
        assert not trace.converged
        assert len(trace.rounds) == 101
        assert all(row == tuple(values) for row in trace.rounds)
    report("08a", "counterexample(8) holds both cliques constant for 100 rounds in both filter modes")


def test_criterion_08b_consensus_on_3_robust_graphs():
    graphs = []
    for k in range(10):
        g = gen_preferential(12 + k % 5, 3, RngSeed(880, k))
        assert robustness(g) == 3
        graphs.append(g)
    strategies = (
        Constant(2.0),
        UniformRandom(-0.5, 1.5),
        Ramp(-1.0, 0.002),
    )
    runs = 0
    for g in graphs:
        adversary = max(range(g.n), key=g.degree)
        initial = [(v * 7 % g.n) / g.n for v in range(g.n)]
        normal_values = [initial[v] for v in range(g.n) if v != adversary]
        lo, hi = min(normal_values), max(normal_values)
        for strategy in strategies:
            config = ConsensusConfig(
                f_parameter=1,
                adversary_set=frozenset({adversary}),
                adversary_strategy={adversary: strategy},
                max_rounds=10**4,
                convergence_epsilon=1e-6,
                rng_seed=RngSeed(881, runs),
            )
            trace = run_consensus(g, initial, config)  # raises if validity breaks
            assert trace.converged, (g.n, strategy)
            assert trace.final_spread < 1e-6
            normal_final = [trace.rounds[-1][v] for v in range(g.n) if v != adversary]
            assert all(lo <= v <= hi for v in normal_final)
            runs += 1
    report("08b", f"{runs} adversarial runs on 10 exactly-3-robust graphs all reached spread < 1e-6, validity intact")


def test_criterion_09_contagion_equivalence():
    start = time.perf_counter()
    checks = 0
    for k in range(40):
        n = 4 + k % 7
        g = gen_erdos_renyi(n, (0.3, 0.45, 0.6)[k % 3], RngSeed(99, k))
        least = {m: least_reach(g, n - m) for m in range(1, n)}
        for r in (1, 2, 3, 4):
            for m in range(r, n):
                exact = contagion_from_any_m(g, m, r)
                assert exact == contagion_from_any_m(g, m, r, method="simulate"), (k, m, r)
                assert exact == (r <= least[m]), (k, m, r)  # against every set of <= n - m nodes
                checks += 1
    assert not contagion_from_any_m(counterexample(8), 4, 2)
    assert not contagion_from_any_m(counterexample(8), 4, 2, method="simulate")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("09", f"exact = simulate on {checks} (graph, m, r) cases; counterexample(8) m=4 r=2 false ({elapsed:.1f}s)")


def g_nodes(m: int, t: int, rho: int) -> int:
    base = 2 * (4 * m + t) + 2 * t + 9 * m
    return base + 2 * (rho - 1) * (4 * m + t) + 2 * (rho - 1) * (9 * m + 2 * t)


def test_criterion_10_hardness_keystone():
    start = time.perf_counter()
    formulas = satisfiable = 0
    for t in (1, 2, 3):
        for m in (1, 2):
            for phi in enumerate_nae3sat(t, m):
                formulas += 1
                witness = nae3sat_satisfiable(phi)
                gadget = build_g_phi(phi)
                relaxed_graph_cut = find_relaxed_degree_cut(gadget.graph, 1, node_limit=300)
                assert (relaxed_graph_cut is not None) == (witness is not None), phi
                widened = build_g_rho_phi(phi, 2)
                gadget_cut = find_relaxed_degree_cut(widened.graph, 2, node_limit=300)
                assert (gadget_cut is not None) == (witness is not None), phi

                if witness is None:
                    continue
                satisfiable += 1
                # search cuts decode to not-all-equal satisfying assignments
                assert nae_check(phi, assignment_from_cut(gadget, relaxed_graph_cut))
                assert nae_check(phi, assignment_from_cut(widened, gadget_cut))
                # constructed cuts verify and round-trip
                built = cut_from_assignment(gadget, witness)
                assert verify_cut(gadget, built, 1, relaxed=True)
                assert assignment_from_cut(gadget, built) == witness
                # replicated cut on the tripled graph, strict (non-relaxed) check
                tripled = build_h_phi(phi)
                assert verify_cut(tripled, cut_from_assignment(tripled, witness), 1, relaxed=False)

    assert formulas == 1896
    assert satisfiable == 1418

    # closed-form node counts across the (m, t, rho) grid
    grid_checks = 0
    for m in (1, 2, 3):
        for t in (1, 2, 3, 4):
            clause = (((1, True), (1, False), (1, True)),)
            phi = CnfFormula(t, clause * m)
            for rho in (1, 2, 3):
                assert build_g_rho_phi(phi, rho).graph.n == g_nodes(m, t, rho)
                hrho = build_h_rho_phi(phi, rho)
                assert hrho.graph.n == (2 * rho + 1) * g_nodes(m, t, rho)
                assert hrho.copies == 2 * rho + 1
                grid_checks += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report(
        "10",
        f"{formulas} formulas ({satisfiable} satisfiable): cut exists iff satisfiable at rho=1 and rho=2, "
        f"round-trips and tripled-graph checks pass; {grid_checks} node counts match ({elapsed:.1f}s)",
    )
