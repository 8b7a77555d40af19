"""Tests of the benchmark's own checkers and tracing.

A deliberately wrong verdict or witness, injected by patching the library
function an item calls, must turn into a failed item.

    PYTHONPATH=src python -m pytest -q benchmark/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, lib  # noqa: E402


def corpus(name, tmp_path, seed=5):
    workload = WORKLOADS[name]()
    return workload, workload.build(seed, tmp_path)


def failures(name, tmp_path, count):
    workload, items = corpus(name, tmp_path)
    stats = run.run_pass(workload, items, count=count)
    return stats.failed / stats.attempted


def test_recount_accepts_a_cut_and_rejects_a_corrupted_one():
    # two 4-cliques joined by a perfect matching: the cliques are a 1-degree cut
    edges = [(u, v) for half in (0, 4) for u in range(half, half + 4) for v in range(u + 1, half + 4)]
    edges += [(i, i + 4) for i in range(4)]
    nbrs = checks.adjacency(8, edges)
    checks.recount_cut(nbrs, {0, 1, 2, 3}, {4, 5, 6, 7}, set(), 1)
    with pytest.raises(checks.CheckFailed):
        checks.recount_cut(nbrs, {1, 2, 3}, {0, 4, 5, 6, 7}, set(), 1)
    with pytest.raises(checks.CheckFailed):
        checks.recount_cut(nbrs, {0, 1, 2, 3}, {4, 5, 6}, set(), 1)  # node 7 on no side


def test_references_are_independent_of_the_library():
    assert checks.nae_satisfiable((((1, True), (1, False), (2, True)),), 2)
    assert not checks.nae_satisfiable((((1, True), (1, True), (1, True)),), 1)
    assert checks.cascade_rows(checks.adjacency(3, [(0, 1), (1, 2)]), {0}, 1) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    assert checks.gadget_nodes(2, 3, 2) == 116
    with pytest.raises(checks.CheckFailed):
        checks.within_envelope([(0.0, 1.0), (0.5, 1.5)], [0, 1], 1e-9)


@pytest.mark.parametrize("name, count", [("exact_decide", 16), ("nae_gadgets", 12), ("er_sweep", 3), ("dynamics", 3)])
def test_unpatched_items_pass(name, count, tmp_path):
    assert failures(name, tmp_path, count) == 0


def test_wrong_robustness_verdict_fails(monkeypatch, tmp_path):
    module = lib("robustness")
    original = module.robustness
    monkeypatch.setattr(module, "robustness", lambda g, *a, **k: original(g, *a, **k) + 1)
    assert failures("exact_decide", tmp_path, 16) > 0


def test_corrupted_cut_witness_fails(monkeypatch, tmp_path):
    robustness, hardness = lib("robustness"), lib("hardness")
    original = robustness.find_relaxed_degree_cut

    def corrupted(g, rho, **kw):
        cut = original(g, rho, **kw)
        if cut is None:
            return None
        moved = min(cut.set_a)
        return robustness.TriPartition(cut.set_a - {moved}, cut.set_b | {moved}, frozenset())

    # Let the decoder accept anything, so only the benchmark's recount can object.
    monkeypatch.setattr(robustness, "find_relaxed_degree_cut", corrupted)
    monkeypatch.setattr(hardness, "assignment_from_cut", lambda gg, cut: hardness.nae3sat_satisfiable(gg.formula))
    assert failures("nae_gadgets", tmp_path, 12) > 0


def test_wrong_sweep_record_fails(monkeypatch, tmp_path):
    experiments = lib("experiments")
    original = experiments.run_er_sweep

    def flipped(spec):
        records = original(spec)
        records[0] = dataclasses.replace(records[0], estimate=1.0 - records[0].estimate, ci_halfwidth=0.0)
        return records

    monkeypatch.setattr(experiments, "run_er_sweep", flipped)
    assert failures("er_sweep", tmp_path, 3) > 0


def test_truncated_cascade_fails(monkeypatch, tmp_path):
    dynamics = lib("dynamics")
    original = dynamics.cascade_trace
    monkeypatch.setattr(dynamics, "cascade_trace", lambda g, s, r: original(g, s, r)[:1])
    assert failures("dynamics", tmp_path, 3) > 0


def test_pinned_outcome_mismatch_fails(tmp_path):
    workload, items = corpus("er_sweep", tmp_path, seed=run.DEFAULT_SEED)
    table = json.loads(run.EXPECTED.read_text())["er_sweep"]
    assert len(table) == len(items)
    assert run.run_pass(workload, items, count=2, expected=table).failed == 0
    wrong = [[[1 - x for x in row] for row in outcome] for outcome in table]
    assert run.run_pass(workload, items, count=2, expected=wrong).failed == 2


def test_trace_counts_repeat_and_wrappers_come_off(tmp_path):
    workload, items = corpus("er_sweep", tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            assert lib("generators").Graph is not lib("graph").Graph
            assert run.run_pass(workload, items, count=2, tracer=tracer).failed == 0
        finally:
            tracing.uninstall(restore)
        counts.append(tracer.calls())
        own = tracer.self_seconds()
        assert all(v >= 0 for v in own.values())
        assert counts[-1]["experiments.run_er_sweep"] == 2
        assert counts[-1]["connectivity.connectivity_at_least.k2"] > 0
    assert counts[0] == counts[1]
    assert run.graph_type_intact()


@pytest.mark.parametrize("host, library", [(1.0, 1.0), (2.0, 1.0), (1.0, 1.5), (1.7, 0.5)])
def test_host_speed_correction_keeps_library_changes_only(host, library):
    # Two items timed three times each; the host runs `host` times slower
    # than nominal and the library `library` times slower than before.
    stats = run.Pass()
    before_ns = [3_000_000, 5_000_000]
    for pos in range(6):
        stats.timings.append((pos, pos % 2, host * library * before_ns[pos % 2]))
    stats.kernel_ns = [host * run.KERNEL_NOMINAL_NS] * 7
    corrected, wall = run.item_latencies(stats)
    assert corrected == pytest.approx([library * t for t in before_ns])
    assert wall == pytest.approx([host * library * t for t in before_ns])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
