"""Resilient-averaging rounds and threshold cascades."""

import functools
import importlib
import itertools
import logging
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from netrobust import dynamics
from netrobust.dynamics import (
    _neighbor_blocks,
    CascadeState,
    Constant,
    ConsensusConfig,
    ConsensusTrace,
    Ramp,
    UniformRandom,
    cascade_step,
    cascade_trace,
    contagion_from_any_m,
    run_cascade,
    run_consensus,
    validate_f_local,
    wmsr_filter,
    wmsr_round,
)
from netrobust.errors import ResourceGuardError
from netrobust.generators import RngSeed, gen_erdos_renyi, gen_preferential, rng_for
from netrobust.graph import (
    _LEVELS_UPTO,
    Graph,
    _spread,
    complete,
    counterexample,
    cycle,
    is_connected,
    iter_bits,
    mask_of,
    path,
)
from netrobust.robustness import check_subsets_reachable
from test_robustness import least_reach


# --- filtering ---------------------------------------------------------------


@pytest.mark.parametrize(
    "own,vals,f,mode,kept",
    [
        # strict mode only drops values strictly beyond own
        (5.0, [9.0, 9.0, 1.0], 1, "strict", [9.0]),
        (5.0, [1.0, 1.0], 1, "strict", [1.0]),
        (5.0, [5.0, 5.0, 5.0], 2, "strict", [5.0, 5.0, 5.0]),
        (5.0, [7.0, 3.0, 4.0], 0, "strict", [7.0, 3.0, 4.0]),
        (2.0, [1.0, 3.0, 2.0], 1, "strict", [2.0]),
        # literal mode drops f from each end unconditionally
        (5.0, [3.0, 3.0, 3.0], 1, "literal", [3.0]),
        (5.0, [7.0, 3.0], 1, "literal", []),
        (0.0, [4.0, 1.0, 9.0, 2.0, 6.0], 2, "literal", [4.0]),
    ],
)
def test_wmsr_filter_cases(own, vals, f, mode, kept):
    assert wmsr_filter(own, vals, f, mode) == kept


def test_wmsr_filter_validation():
    with pytest.raises(ValueError, match="f must be nonnegative"):
        wmsr_filter(0.0, [1.0], -1)
    with pytest.raises(ValueError, match="mode"):
        wmsr_filter(0.0, [1.0], 1, "median")


@settings(max_examples=200)
@given(
    st.floats(-100, 100),
    st.lists(st.floats(-100, 100), max_size=12),
    st.integers(0, 4),
    st.sampled_from(["strict", "literal"]),
)
def test_wmsr_filter_drops_at_most_2f(own, vals, f, mode):
    kept = wmsr_filter(own, vals, f, mode)
    assert len(vals) - len(kept) <= 2 * f
    # kept values form a sub-multiset of the inputs
    pool = list(vals)
    for v in kept:
        pool.remove(v)


@settings(max_examples=200)
@given(
    st.floats(-100, 100),
    st.lists(st.floats(-100, 100), max_size=12),
    st.integers(0, 4),
)
def test_strict_mode_never_drops_equals(own, vals, f):
    kept = wmsr_filter(own, vals, f, "strict")
    assert kept.count(own) == vals.count(own)


# --- consensus rounds ---------------------------------------------------------


def test_round_averages_kept_values():
    g = path(3)
    cfg = ConsensusConfig(f_parameter=0)
    out = wmsr_round(g, [0.0, 3.0, 9.0], cfg)
    # f = 0 keeps every neighbor: plain local averaging with self included
    assert out == [1.5, 4.0, 6.0]


def test_round_filters_an_outlier():
    g = complete(4)
    cfg = ConsensusConfig(f_parameter=1)
    out = wmsr_round(g, [0.0, 10.0, 10.0, 10.0], cfg)
    # node 1 sees [0, 10, 10]; the 0 is its single small outlier
    assert out[1] == 10.0


def test_config_validation():
    with pytest.raises(ValueError, match="f_parameter"):
        ConsensusConfig(f_parameter=-1)
    with pytest.raises(ValueError, match="filter_mode"):
        ConsensusConfig(f_parameter=1, filter_mode="mean")
    with pytest.raises(ValueError, match="cover exactly"):
        ConsensusConfig(f_parameter=1, adversary_set=frozenset({0}))
    with pytest.raises(ValueError, match="cover exactly"):
        ConsensusConfig(f_parameter=1, adversary_strategy={0: Constant(1.0)})


def test_f_local_placement():
    g = complete(4)
    assert validate_f_local(g, frozenset({0}), 1)
    assert not validate_f_local(g, frozenset({0, 1}), 1)
    cfg = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0, 1}),
        adversary_strategy={0: Constant(0.0), 1: Constant(0.0)},
    )
    with pytest.raises(ValueError, match="violates F-local"):
        wmsr_round(g, [0.0] * 4, cfg)


def test_clique_pair_stalemate_both_modes():
    g = counterexample(8)
    vals = [0.0] * 4 + [1.0] * 4
    for mode in ("strict", "literal"):
        cfg = ConsensusConfig(
            f_parameter=1, filter_mode=mode, max_rounds=100, convergence_epsilon=1e-9
        )
        tr = run_consensus(g, vals, cfg)
        assert not tr.converged
        assert tr.final_spread == 1.0
        assert len(tr.rounds) == 101
        assert all(row == tuple(vals) for row in tr.rounds)


def test_consensus_on_a_clique():
    tr = run_consensus(complete(6), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], ConsensusConfig(f_parameter=1))
    assert tr.converged
    assert tr.final_spread < 1e-6
    assert all(0.0 <= v <= 5.0 for v in tr.rounds[-1])


def test_consensus_despite_ramp_adversary():
    cfg = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0}),
        adversary_strategy={0: Ramp(10.0, 0.5)},
        max_rounds=10000,
    )
    tr = run_consensus(complete(7), [10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], cfg)
    assert tr.converged
    # adversary column records its broadcasts, normals stay in their own range
    assert tr.rounds[2][0] == 11.0
    assert all(1.0 <= v <= 6.0 for row in tr.rounds for v in row[1:])


def test_uniform_random_adversary_needs_seed():
    cfg = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0}),
        adversary_strategy={0: UniformRandom(0.0, 1.0)},
    )
    with pytest.raises(ValueError, match="needs an rng seed"):
        run_consensus(complete(5), [0.5, 0.0, 1.0, 0.2, 0.8], cfg)
    seeded = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0}),
        adversary_strategy={0: UniformRandom(0.0, 1.0)},
        rng_seed=RngSeed(3),
    )
    a = run_consensus(complete(5), [0.5, 0.0, 1.0, 0.2, 0.8], seeded)
    b = run_consensus(complete(5), [0.5, 0.0, 1.0, 0.2, 0.8], seeded)
    assert a.rounds == b.rounds and a.converged


def test_strategy_broadcasts():
    assert Constant(7.5).broadcast(99, None) == 7.5
    assert Ramp(1.0, 0.25).broadcast(4, None) == 2.0
    vals = [UniformRandom(2.0, 4.0).broadcast(k, rng_for(RngSeed(1, k))) for k in range(20)]
    assert all(2.0 <= v <= 4.0 for v in vals)
    with pytest.raises(ValueError, match="low"):
        UniformRandom(4.0, 2.0)


def test_run_consensus_validation():
    with pytest.raises(ValueError, match="one initial value per node"):
        run_consensus(path(3), [0.0], ConsensusConfig(f_parameter=0))
    cfg = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0, 1, 2}),
        adversary_strategy={v: Constant(0.0) for v in range(3)},
    )
    with pytest.raises(ValueError, match="at least one normal node"):
        run_consensus(path(3), [0.0, 0.0, 0.0], cfg)


# --- cascades ------------------------------------------------------------------


def test_cascade_state_validation():
    with pytest.raises(ValueError, match="threshold must be positive"):
        CascadeState(frozenset({0}), 0)
    with pytest.raises(ValueError, match="outside the graph"):
        cascade_step(path(3), CascadeState(frozenset({5}), 1))


def test_cascade_step_is_simultaneous():
    state = CascadeState(frozenset({2}), 1)
    nxt = cascade_step(path(5), state)
    assert nxt.infected == frozenset({1, 2, 3})
    assert nxt.round == 1


def test_cascade_runs():
    assert run_cascade(path(4), frozenset({0}), 1) == (frozenset({0, 1, 2, 3}), 3)
    # threshold 2 on a cycle never fires from adjacent seeds
    assert run_cascade(cycle(6), frozenset({0, 1}), 2) == (frozenset({0, 1}), 0)
    assert run_cascade(complete(5), frozenset({0, 1}), 2) == (frozenset(range(5)), 1)
    with pytest.raises(ValueError, match="empty initial set"):
        run_cascade(path(3), frozenset(), 1)


def test_cascade_trace_rows():
    assert cascade_trace(path(4), frozenset({0}), 1) == [
        (0, 1, 1),
        (1, 2, 1),
        (2, 3, 1),
        (3, 4, 1),
    ]
    # stalled cascade still reports its seed row
    assert cascade_trace(cycle(6), frozenset({0, 1}), 2) == [(0, 2, 2)]


def test_contagion_examples():
    assert contagion_from_any_m(complete(6), 2, 2)
    assert contagion_from_any_m(complete(6), 2, 2, method="simulate")
    assert not contagion_from_any_m(counterexample(8), 4, 2)
    assert not contagion_from_any_m(counterexample(8), 4, 2, method="simulate")


def test_contagion_validation():
    with pytest.raises(ValueError, match="m must be at least r"):
        contagion_from_any_m(complete(6), 1, 2)
    with pytest.raises(ValueError, match="smaller than the node count"):
        contagion_from_any_m(complete(6), 6, 2)
    with pytest.raises(ValueError, match="method"):
        contagion_from_any_m(complete(6), 2, 2, method="magic")
    with pytest.raises(ResourceGuardError, match="C\\(n, m\\)"):
        contagion_from_any_m(path(13), 2, 1, method="simulate")


def test_exact_route_is_subset_reachability():
    g = cycle(8)
    for m in range(2, 8):
        expected = 2 <= least_reach(g, 8 - m)
        assert contagion_from_any_m(g, m, 2) == check_subsets_reachable(g, 2, 8 - m) == expected, m


def test_exact_matches_simulation_on_seeded_batch():
    rng = random.Random(321)
    for _ in range(12):
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        for r in (1, 2, 3):
            for m in range(r, n):
                exact = contagion_from_any_m(g, m, r)
                sim = contagion_from_any_m(g, m, r, method="simulate")
                assert exact == sim, (n, edges, m, r)


# --- the simulate walk against one literal cascade per seed set ---------------


def literal_contagion(g, m, r):
    """One full cascade for every size-m seed set: the loop the walk replaced."""
    bits = [1 << v for v in range(g.n)]
    seeds = map(sum, itertools.combinations(bits, m))
    return all(s + sum(_spread(g.adj, s, r)) == g.full_mask() for s in seeds)


def seeded_graph(rng, n):
    # p = 0 gives edgeless graphs; a second part (rng.random() < 0.3) leaves
    # nodes from split on without edges to those before it.
    p = rng.choice((0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    split = rng.randint(1, n) if rng.random() < 0.3 else n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < split) == (v < split)]
    return Graph(n, [e for e in pairs if rng.random() < p])


def test_simulate_matches_the_literal_loop():
    rng = random.Random(1414)
    graphs = [seeded_graph(rng, rng.randint(2, 10)) for _ in range(400)]
    graphs += [seeded_graph(rng, n) for n in (11, 11, 12, 12) for _ in range(2)]
    graphs += [Graph(n, []) for n in range(2, 13)] + [counterexample(12), complete(12)]
    kinds = set()
    for g in graphs:
        kinds.add((g.n, bool(g.edge_count()), is_connected(g)))
        for r in range(1, 5):
            for m in range(r, g.n):
                expected = literal_contagion(g, m, r)
                assert contagion_from_any_m(g, m, r, method="simulate") == expected, (g.n, list(g.edges()), m, r)
    assert {n for n, _, _ in kinds} == set(range(2, 13))
    assert any(has_edges and not connected for _, has_edges, connected in kinds)
    assert {n for n, has_edges, _ in kinds if not has_edges} == set(range(2, 13))


def test_simulate_walk_bounds_its_closures(monkeypatch):
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return _spread(*args)

    monkeypatch.setattr(importlib.import_module("netrobust.robustness"), "_spread", counting)
    assert contagion_from_any_m(complete(12), 6, 1, method="simulate")
    assert calls[0] <= 12  # the literal loop runs C(12, 6) = 924 cascades
    calls[0] = 0
    g = gen_erdos_renyi(10, 0.5, RngSeed(0, 1))
    for r in (1, 2, 3):
        for m in range(r, 10):
            contagion_from_any_m(g, m, r, method="simulate")
    assert calls[0] <= 250  # the literal loop, stopping at a first failure, runs 1,855


def recounted_levels(adj, infected, r):
    """levels[k]: the nodes with more than k neighbours in infected, counted
    node by node."""
    counts = [(row & infected).bit_count() for row in adj]
    return [sum(1 << v for v, c in enumerate(counts) if c > k) for k in range(r)]


def test_spread_from_a_fixpoint_carries_its_levels():
    rng = random.Random(2718)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        g = seeded_graph(rng, n)
        r = rng.randint(1, 5)
        seeds = mask_of(rng.sample(range(n), rng.randint(0, n)))
        levels = [0] * r
        fixpoint = seeds + sum(_spread(g.adj, seeds, r, None, levels))
        if r <= _LEVELS_UPTO:
            assert levels == recounted_levels(g.adj, fixpoint, r), (n, r, seeds)
        outside = [v for v in range(n) if not fixpoint >> v & 1]
        if outside:
            newly = mask_of(rng.sample(outside, rng.randint(1, len(outside))))
            imask = fixpoint | newly
            rounds = list(_spread(g.adj, imask, r, newly, levels))
            assert rounds == list(_spread(g.adj, imask, r)), (n, r, seeds, newly)
            if r <= _LEVELS_UPTO:
                assert levels == recounted_levels(g.adj, imask + sum(rounds), r), (n, r, seeds, newly)
            checked += 1
    assert checked > 150


# --- equivalence with the step-by-step references ----------------------------
#
# The references below are the straightforward loops the kernels replaced: a
# frozenset CascadeState rebuilt every step, and one checked wmsr_round per
# round with an index-set filter. Results must be == to theirs, floats included.


def reference_cascade_step(g, state):
    imask = mask_of(state.infected)
    newly = [
        v
        for v in range(g.n)
        if not imask >> v & 1 and (g.adj[v] & imask).bit_count() >= state.threshold
    ]
    return CascadeState(state.infected | frozenset(newly), state.threshold, state.round + 1)


def reference_run_cascade(g, initial, r):
    state = CascadeState(frozenset(initial), r)
    rounds = 0
    while True:
        nxt = reference_cascade_step(g, state)
        if nxt.infected == state.infected:
            return state.infected, rounds
        rounds += 1
        state = nxt


def reference_cascade_trace(g, initial, r):
    state = CascadeState(frozenset(initial), r)
    rows = [(0, len(state.infected), len(state.infected))]
    while True:
        nxt = reference_cascade_step(g, state)
        newly = len(nxt.infected) - len(state.infected)
        if newly == 0:
            return rows
        rows.append((nxt.round, len(nxt.infected), newly))
        state = nxt


def reference_wmsr_filter(own, neighbor_values, f, mode):
    vals = list(neighbor_values)
    if f == 0:
        return vals
    if mode == "literal" and len(vals) <= 2 * f:
        return []
    keep = set(range(len(vals)))
    high = [i for i in keep if vals[i] > own] if mode == "strict" else list(keep)
    high.sort(key=lambda i: (vals[i], i))
    for i in high[len(high) - min(f, len(high)):]:
        keep.discard(i)
    low = [i for i in keep if vals[i] < own] if mode == "strict" else list(keep)
    low.sort(key=lambda i: (vals[i], -i))
    for i in low[: min(f, len(low))]:
        keep.discard(i)
    return [vals[i] for i in sorted(keep)]


def reference_wmsr_round(g, values, config, round_index, rng):
    assert validate_f_local(g, config.adversary_set, config.f_parameter)
    out = [0.0] * g.n
    for v in range(g.n):
        if v in config.adversary_set:
            out[v] = config.adversary_strategy[v].broadcast(round_index, rng)
            continue
        nbr_vals = [values[u] for u in iter_bits(g.adj[v])]
        kept = reference_wmsr_filter(values[v], nbr_vals, config.f_parameter, config.filter_mode)
        # A left fold from int 0 in neighbor order: sum() up to Python 3.11
        # (3.12 made sum() of floats compensated).
        out[v] = (values[v] + functools.reduce(operator.add, kept, 0)) / (1 + len(kept))
    return out


def reference_run_consensus(g, initial_values, config):
    normal = [v for v in range(g.n) if v not in config.adversary_set]
    rng = rng_for(config.rng_seed) if config.rng_seed is not None else None

    def spread(values):
        return max(values[v] for v in normal) - min(values[v] for v in normal)

    rounds = [tuple(float(x) for x in initial_values)]
    values = list(initial_values)
    k = 0
    while not spread(values) < config.convergence_epsilon and k < config.max_rounds:
        k += 1
        values = reference_wmsr_round(g, values, config, k, rng)
        rounds.append(tuple(values))
    return rounds, spread(values) < config.convergence_epsilon, spread(values)


def _cascade_graphs():
    for n, c, stream in [(5, 2.0, 1), (30, 3.0, 2), (100, 4.0, 3), (100, 8.0, 4), (300, 6.0, 5), (300, 10.0, 6)]:
        yield gen_erdos_renyi(n, min(1.0, c / n), RngSeed(41, stream))


def test_cascades_match_the_frozenset_reference():
    rng = random.Random(5)
    for g in _cascade_graphs():
        for r in (1, 2, 3):
            seeds = [frozenset(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 8)))) for _ in range(6)]
            seeds.append(frozenset(range(g.n)))
            seeds.append(reference_run_cascade(g, seeds[0], r)[0])  # already at the fixpoint
            for seed in seeds:
                assert cascade_trace(g, seed, r) == reference_cascade_trace(g, seed, r)
                assert run_cascade(g, seed, r) == reference_run_cascade(g, seed, r)
                state = CascadeState(seed, r)
                for _ in range(3):
                    ours, ref = cascade_step(g, state), reference_cascade_step(g, state)
                    assert ours == ref
                    state = ours


def test_consensus_matches_the_round_by_round_reference():
    strategies = [Constant(2.5), UniformRandom(-0.5, 1.5), Ramp(-1.0, 0.01)]
    cases = 0
    for f in (0, 1, 2):
        for mode in ("strict", "literal"):
            for s, strategy in enumerate(strategies if f else [None]):
                n = 24 + 7 * s
                g = gen_preferential(n, 2 * f + 1, RngSeed(9, 10 * f + s))
                adversaries = sorted(range(n), key=lambda v: (-g.degree(v), v))[:f]
                config = ConsensusConfig(
                    f_parameter=f,
                    filter_mode=mode,
                    max_rounds=300,
                    adversary_set=frozenset(adversaries),
                    adversary_strategy={a: strategy for a in adversaries},
                    rng_seed=RngSeed(3, s),
                )
                rng = random.Random(f"{f}{mode}{s}")
                initial = [rng.random() for _ in range(n)]
                trace = run_consensus(g, initial, config)
                rounds, converged, spread = reference_run_consensus(g, initial, config)
                assert trace == ConsensusTrace(tuple(rounds), converged, spread)
                assert len(rounds) > 2
                cases += 1
    assert cases == 14


_REPEATS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=400)
@given(
    _REPEATS | st.floats(-3, 3),
    st.lists(_REPEATS | st.floats(-3, 3), max_size=14),
    st.integers(0, 5),
    st.sampled_from(["strict", "literal"]),
)
def test_filter_matches_the_reference(own, vals, f, mode):
    expected = [repr(x) for x in reference_wmsr_filter(own, vals, f, mode)]
    assert [repr(x) for x in wmsr_filter(own, vals, f, mode)] == expected


def test_simulate_matches_exact_for_every_m_and_r():
    rng = random.Random(77)
    checked = 0
    for n in range(2, 10):
        for p in (0.3, 0.5, 0.8):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph(n, edges)
            for r in range(1, n):
                for m in range(r, n):
                    exact = contagion_from_any_m(g, m, r)
                    assert contagion_from_any_m(g, m, r, method="simulate") == exact, (n, edges, m, r)
                    checked += 1
    assert checked > 300


def test_f_local_is_checked_once_a_round_runs():
    config = ConsensusConfig(
        f_parameter=1,
        adversary_set=frozenset({0, 1}),
        adversary_strategy={0: Constant(0.0), 1: Constant(0.0)},
    )
    with pytest.raises(ValueError, match="violates F-local"):
        run_consensus(complete(4), [0.0, 0.0, 0.0, 1.0], config)
    # round 0 has converged, so no round runs and nothing is checked
    trace = run_consensus(complete(4), [5.0, 5.0, 1.0, 1.0], config)
    assert trace.converged and trace.rounds == ((5.0, 5.0, 1.0, 1.0),)


def test_far_off_node_ids_are_refused_before_any_shift():
    for ids in ({10**12}, {-1}, {0, 3}):
        with pytest.raises(ValueError, match="infected set contains nodes outside the graph"):
            cascade_trace(path(3), frozenset(ids), 1)
        with pytest.raises(ValueError, match="adversary set contains nodes outside the graph"):
            validate_f_local(path(3), frozenset(ids), 1)
    config = ConsensusConfig(
        f_parameter=0, adversary_set=frozenset({10**12}), adversary_strategy={10**12: Constant(0.0)}
    )
    with pytest.raises(ValueError, match="adversary set contains nodes outside the graph"):
        run_consensus(path(3), [0.0, 1.0, 2.0], config)


# --- the batched round against the per-node reference --------------------------


def _bits(rows):
    """Rows of values as (type, float hex): == only if bit-identical, signed
    zeros and int-versus-float included."""
    return [[(type(x), float(x).hex()) for x in row] for row in rows]


def _consensus_graphs():
    hub = gen_preferential(30, 3, RngSeed(12, 1))  # several nodes of degree > 8
    yield hub
    yield Graph(hub.n + 1, hub.edges())  # plus an isolated normal node
    yield Graph(7, [])
    yield complete(9)
    yield cycle(6)  # no padding: every node's row is full


@pytest.mark.parametrize("pad_cells", [dynamics._PAD_CELLS, 0])
def test_batched_rounds_match_the_reference_bit_for_bit(pad_cells, monkeypatch):
    monkeypatch.setattr(dynamics, "_PAD_CELLS", pad_cells)  # 0: one block per degree class
    rng = random.Random(8)
    strategies = [Constant(0.5), UniformRandom(-1.0, 2.0), Ramp(-0.5, 0.05)]
    assert max(max(hub.degree(v) for v in range(hub.n)) for hub in _consensus_graphs()) > 8
    cases = 0
    for g in _consensus_graphs():
        for f in (0, 1, 2, 3):
            for mode in ("strict", "literal"):
                adversaries = rng.sample(range(g.n), f)
                config = ConsensusConfig(
                    f_parameter=f,
                    filter_mode=mode,
                    max_rounds=25,
                    adversary_set=frozenset(adversaries),
                    adversary_strategy={a: rng.choice(strategies) for a in adversaries},
                    rng_seed=RngSeed(5, cases),
                )
                initial = [rng.choice([0.0, -0.0, 0.5, 1.0, rng.random()]) for _ in range(g.n)]
                trace = run_consensus(g, initial, config)
                rounds, converged, spread = reference_run_consensus(g, initial, config)
                assert _bits(trace.rounds) == _bits(rounds)
                assert (trace.converged, float(trace.final_spread).hex()) == (converged, float(spread).hex())
                # -0.0 neighbours of a -0.0 node: the fold starts from 0, so it gives 0.0
                for k, values in enumerate(rounds[:4] + [[-0.0] * (g.n - 1) + [1.0]]):
                    ours = wmsr_round(g, values, config, k + 1, rng_for(RngSeed(6, k)))
                    ref = reference_wmsr_round(g, values, config, k + 1, rng_for(RngSeed(6, k)))
                    assert _bits([ours]) == _bits([ref])
                cases += 1
    assert cases == 40


def test_int_values_and_an_int_broadcast_keep_the_reference_types():
    g = gen_preferential(12, 3, RngSeed(4))
    config = ConsensusConfig(
        f_parameter=1, max_rounds=40, adversary_set=frozenset({0}), adversary_strategy={0: Constant(2)}
    )
    initial = [v % 4 for v in range(g.n)]
    trace = run_consensus(g, initial, config)
    rounds, converged, spread = reference_run_consensus(g, initial, config)
    assert _bits(trace.rounds) == _bits(rounds)
    assert type(trace.rounds[1][0]) is int and type(trace.rounds[1][1]) is float
    out = wmsr_round(g, initial, config)
    assert _bits([out]) == _bits([reference_wmsr_round(g, initial, config, 1, None)])


def test_adversaries_broadcast_in_node_order():
    adversaries = frozenset({5, 8})
    assert list(adversaries) != sorted(adversaries)  # iteration order is not node order
    g = gen_preferential(14, 5, RngSeed(2))
    config = ConsensusConfig(
        f_parameter=2,
        max_rounds=20,
        adversary_set=adversaries,
        adversary_strategy={5: UniformRandom(0.0, 1.0), 8: UniformRandom(10.0, 11.0)},
        rng_seed=RngSeed(1),
    )
    initial = [v / 14 for v in range(g.n)]
    rounds, _, _ = reference_run_consensus(g, initial, config)
    assert _bits(run_consensus(g, initial, config).rounds) == _bits(rounds)


def test_consensus_logs_its_run(caplog):
    caplog.set_level(logging.DEBUG, logger="netrobust.dynamics")
    config = ConsensusConfig(f_parameter=0, max_rounds=3)
    run_consensus(path(3), [0.0, 3.0, 9.0], config)
    run_consensus(complete(4), [1.0] * 4, config)
    messages = [rec.getMessage() for rec in caplog.records]
    assert messages == [
        "consensus not converged after 3 rounds: spread 1.125, n=3, widths=[2]",
        "consensus converged after 0 rounds: spread 0.0, n=4, widths=[]",
    ]


def _padded_cells(g):
    blocks = _neighbor_blocks(g)
    assert sorted(v for nodes, _, _ in blocks for v in nodes.tolist()) == list(range(g.n))
    return sum(idx.size for _, idx, _ in blocks)


def test_padding_stays_linear_in_the_edges():
    star = Graph(3000, [(0, v) for v in range(1, 3000)])
    hub = Graph(3000, [(0, v) for v in range(1, 3000)] + [(v, v + 1) for v in range(1, 2999)])
    for g in (star, hub, gen_preferential(2000, 3, RngSeed(6))):
        m = g.edge_count()
        assert max(g.degree(v) for v in range(g.n)) * g.n > dynamics._PAD_CELLS
        assert _padded_cells(g) <= 4 * m + g.n
    small = gen_preferential(60, 3, RngSeed(6))  # one block of the maximum degree
    assert _padded_cells(small) == small.n * max(small.degree(v) for v in range(small.n))


def test_consensus_on_a_star_stays_small():
    # One (degree, n) matrix would hold 3000 x 2999 cells, 72 MB per array.
    g = Graph(3000, [(0, v) for v in range(1, 3000)])
    config = ConsensusConfig(f_parameter=1, max_rounds=3)
    tracemalloc.start()
    try:
        trace = run_consensus(g, [v / 3000 for v in range(3000)], config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.rounds) == 4
    assert peak < 4 * 2**20
