"""End-to-end command-line runs, in process via main(argv)."""

import contextlib
import io
import json
import locale
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from netrobust.cli import main
from netrobust.generators import (
    ER_NODE_LIMIT,
    GEOM_NODE_LIMIT,
    PA_NODE_LIMIT,
    RngSeed,
    gen_geometric,
    graph_from_pair_mask,
    pair_uniforms,
    rng_for,
)
from netrobust.graph import Graph, complete, counterexample
from netrobust.io import read_graph, read_positions, read_records, read_roles, write_graph

from test_io import HOSTILE_CONSENSUS_CONFIGS, HOSTILE_FORMULAS, HUGE_GRAPHS, write_input


@pytest.fixture
def k8(tmp_path):
    p = tmp_path / "k8.edges"
    write_graph(complete(8), p)
    return str(p)


@pytest.fixture
def gap8(tmp_path):
    p = tmp_path / "gap8.edges"
    write_graph(counterexample(8), p)
    return str(p)


def test_robustness_value(k8, capsys):
    assert main(["robustness", k8]) == 0
    assert capsys.readouterr().out == "robustness: 4\n"


def test_robustness_decision(gap8, capsys):
    assert main(["robustness", gap8, "--r", "2"]) == 0
    assert capsys.readouterr().out == "2-robust: false\n"
    assert main(["robustness", gap8, "--r", "1"]) == 0
    assert capsys.readouterr().out == "1-robust: true\n"


def test_cut_output(gap8, capsys):
    assert main(["cut", gap8, "--rho", "1", "--relaxed"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "A: 0 1 2 3"
    assert out[1] == "B: 4 5 6 7"
    assert out[2] == "X:"


def test_cut_absent(k8, capsys):
    assert main(["cut", k8, "--rho", "2"]) == 0
    assert capsys.readouterr().out == "no cut\n"


def test_gen_er_deterministic(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["gen", "er", "--n", "10", "--p", "0.4", "--seed", "3", "--out", str(out)]) == 0
    first = read_graph(out)
    assert main(["gen", "er", "--n", "10", "--p", "0.4", "--seed", "3", "--out", str(out)]) == 0
    assert read_graph(out) == first
    # stdout form matches the file form
    assert main(["gen", "er", "--n", "10", "--p", "0.4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_geom_with_positions(tmp_path):
    out = tmp_path / "g.edges"
    pos = tmp_path / "g.pos"
    args = [
        "gen", "geom", "--n", "9", "--radius", "0.2", "--seed", "5",
        "--out", str(out), "--positions-out", str(pos),
    ]
    assert main(args) == 0
    g = read_graph(out)
    xs = read_positions(pos)
    assert g.n == 9 and len(xs) == 9
    for u in range(9):
        for v in range(u + 1, 9):
            assert g.has_edge(u, v) == (abs(xs[u][0] - xs[v][0]) <= 0.2)


@pytest.mark.parametrize("option, message", [
    (["--radius", "nan"], "radius must be positive"),
    (["--radius", "0.2", "--side", "inf"], "side_length must be positive and finite"),
])
def test_gen_geom_refuses_non_finite_parameters(tmp_path, capsys, option, message):
    out, pos = tmp_path / "g.edges", tmp_path / "g.pos"
    assert main(["gen", "geom", "--n", "5", *option, "--out", str(out), "--positions-out", str(pos)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() and not pos.exists()


def test_gen_ba_json(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "ba", "--n", "12", "--r", "2", "--seed", "1",
                 "--out", str(out), "--format", "json"]) == 0
    assert read_graph(out).n == 12


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_gen_er_writes_the_pair_mask_graph(tmp_path, fmt):
    # 1000 nodes: the pair draw is split between two threads where two CPUs are usable
    out, expected = tmp_path / "g", tmp_path / "expected"
    assert main(["gen", "er", "--n", "1000", "--p", "0.01", "--seed", "3", "--stream", "2",
                 "--out", str(out), "--format", fmt]) == 0
    u = pair_uniforms(1000, rng_for(RngSeed(3, 2)))
    write_graph(graph_from_pair_mask(1000, u < 0.01), expected, fmt)
    assert out.read_bytes() == expected.read_bytes()


def test_gen_missing_family_parameter(capsys):
    assert main(["gen", "er", "--n", "5"]) == 1
    assert "gen er needs --p" in capsys.readouterr().err
    assert main(["gen", "ba", "--n", "5"]) == 1
    assert main(["gen", "geom", "--n", "5"]) == 1


def test_gen_bad_probability(capsys):
    assert main(["gen", "er", "--n", "5", "--p", "1.5"]) == 1
    assert "p must lie" in capsys.readouterr().err


def test_missing_file_is_a_plain_error(capsys):
    assert main(["robustness", "no-such-file.edges"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("float.json", '{"n": 3, "edges": [[0, 1.0], [1, 2]]}'),
        ("string.json", '{"n": "3", "edges": [[0, 1], [1, 2]]}'),
        ("token.edges", "3 1\n0 x\n"),
        ("image.png", b"\x89PNG\r\n\x1a\n"),
    ],
)
def test_hostile_graph_file_is_a_plain_error(tmp_path, capsys, name, text):
    p = tmp_path / name
    write_input(p, text)
    assert main(["robustness", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["robustness", "cut"])
@pytest.mark.parametrize("name", sorted(HUGE_GRAPHS))
def test_huge_node_count_is_a_plain_error(tmp_path, capsys, command, name):
    p = tmp_path / name
    p.write_text(HUGE_GRAPHS[name])
    args = [command, str(p)] + (["--rho", "1"] if command == "cut" else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "GRAPH_NODE_LIMIT" in err and "Traceback" not in err


def test_large_edgeless_graph_under_the_guard_is_decided(tmp_path, capsys):
    p = tmp_path / "wide.edges"
    p.write_text("200000 0\n")
    assert main(["robustness", str(p)]) == 0
    assert capsys.readouterr().out == "robustness: 0\n"


@pytest.mark.parametrize(
    "args, what",
    [
        (["robustness"], "robustness"),
        (["robustness", "--r", "2"], "robustness"),
        (["cut", "--rho", "1"], "cut search"),
        (["cut", "--rho", "1", "--relaxed"], "cut search"),
    ],
)
@pytest.mark.parametrize("name, text", [("empty.edges", "0 0\n"), ("one.edges", "1 0\n"), ("one.json", '{"n": 1, "edges": []}')])
def test_graph_of_fewer_than_two_nodes_names_the_file(tmp_path, capsys, args, what, name, text):
    p = tmp_path / name
    p.write_text(text)
    assert main([args[0], str(p), *args[1:]]) == 1
    assert capsys.readouterr().err == f"error: {p}: {what} needs at least 2 nodes\n"


@pytest.mark.parametrize(
    "tag, spec",
    [
        ("er", {"family": "erdos_renyi", "n": 8, "offsets": [[1, 2]]}),
        ("geom", {"family": "geometric1d", "l": 6.0, "offsets": [1.5]}),
        ("er", {"family": "erdos_renyi", "n": 8.5}),
        ("ba", {"family": "preferential", "n": "10"}),
        ("er", {"family": "erdos_renyi", "n": 8, "stream": 1.5}),
        ("ba", {"family": "preferential", "n": 10, "exact_limit": 22.5}),
        ("er", b'{"family": "erd\xf6s_renyi", "n": 8, "r": 2, "trials": 2, "seed": 0}'),
    ],
)
def test_hostile_sweep_spec_is_a_plain_error(tmp_path, capsys, tag, spec):
    p = tmp_path / "spec.json"
    write_input(p, spec if isinstance(spec, bytes) else json.dumps({**spec, "r": 2, "trials": 2, "seed": 0}))
    assert main(["sweep", tag, "--spec", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "tag, spec",
    [
        ("er", {"family": "erdos_renyi", "n": 8, "r": 2.5, "trials": 2, "seed": 0}),
        ("er", {"family": "erdos_renyi", "n": 8, "r": 2, "trials": "3", "seed": 0}),
        ("ba", {"family": "preferential", "n": 10, "r": 2, "trials": 2, "seed": 1.2}),
    ],
)
def test_fractional_sweep_integers_are_a_plain_error(tmp_path, capsys, tag, spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert main(["sweep", tag, "--spec", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "must be an integer" in err


@pytest.mark.parametrize("text", [text for text, _ in HOSTILE_FORMULAS])
def test_hostile_formula_is_a_plain_error(tmp_path, capsys, text):
    p = tmp_path / "phi.cnf"
    write_input(p, text)
    assert main(["gadget", "--formula", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


# gap8 has 8 nodes, so node 9 is outside it
ADVERSARY_OUTSIDE = '{"f_parameter": 1, "initial_values": [1, 2, 3, 4, 5, 6, 7, 8], "adversaries": [{"node": 9, ' \
    '"strategy": "constant", "params": [1]}]}'
# two initial values for gap8's 8 nodes
TOO_FEW_VALUES = '{"f_parameter": 0, "initial_values": [1, 2]}'


@pytest.mark.parametrize("text", [text for text, _ in HOSTILE_CONSENSUS_CONFIGS] + [ADVERSARY_OUTSIDE, TOO_FEW_VALUES])
def test_hostile_consensus_config_is_a_plain_error(gap8, tmp_path, capsys, text):
    p = tmp_path / "consensus.json"
    write_input(p, text)
    assert main(["consensus", "--graph", gap8, "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


@pytest.mark.parametrize("text", ["0 x\n", "-1\n", b"0 1 \x892\n", "0 9\n"])
def test_hostile_seed_set_is_a_plain_error(gap8, tmp_path, capsys, text):
    p = tmp_path / "seeds.txt"
    write_input(p, text)
    assert main(["cascade", "--graph", gap8, "--seed-set", str(p), "--threshold", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


def test_node_ids_outside_the_graph_name_the_file_and_the_node(gap8, tmp_path, capsys):
    seeds, config = tmp_path / "seeds.txt", tmp_path / "consensus.json"
    seeds.write_text("0 9 12\n")
    config.write_text(ADVERSARY_OUTSIDE)
    assert main(["cascade", "--graph", gap8, "--seed-set", str(seeds), "--threshold", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {seeds}: seed set contains nodes outside the graph: node 9 (the graph has 8 nodes)\n"
    )
    assert main(["consensus", "--graph", gap8, "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: adversary set contains nodes outside the graph: node 9 (the graph has 8 nodes)\n"
    )


def test_unknown_json_keys_are_refused(gap8, tmp_path, capsys):
    config, spec = tmp_path / "consensus.json", tmp_path / "spec.json"
    config.write_text(json.dumps({"f_parameter": 0, "initial_values": [0.0] * 8, "adversary_set": [9]}))
    assert main(["consensus", "--graph", gap8, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: unknown consensus config key 'adversary_set'")
    spec.write_text(json.dumps({"family": "erdos_renyi", "n": 8, "r": 1, "trials": 1, "seed": 0, "exact_limt": 9}))
    assert main(["sweep", "er", "--spec", str(spec)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: unknown sweep spec key 'exact_limt'")


def test_sweep_ba_with_a_repeated_property(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "preferential", "n": 10, "r": 2, "trials": 4, "seed": 0,
        "properties": ["r_robust", "r_robust"],
    }))
    out = tmp_path / "ba.csv"
    assert main(["sweep", "ba", "--spec", str(spec), "--out", str(out)]) == 0
    records = read_records(out)
    assert [rec.property for rec in records] == ["r_robust", "r_robust"]
    assert all(rec.estimate <= 1.0 for rec in records)


def test_node_limit_guard_exit_code(tmp_path, capsys):
    # K_{15,15}: no bound, certificate or probe decides it, so it needs a search
    p = tmp_path / "k15_15.edges"
    write_graph(Graph(30, [(u, v) for u in range(15) for v in range(15, 30)]), p)
    assert main(["robustness", str(p)]) == 2
    assert "resource guard" in capsys.readouterr().err
    # an explicit limit lifts the guard; the rho=2 decision stays cheap
    assert main(["robustness", str(p), "--r", "3", "--node-limit", "40"]) == 0
    assert capsys.readouterr().out == "3-robust: true\n"


def test_graph_above_the_node_limit_decided_without_search(tmp_path, capsys):
    # A 1-D geometric graph of 80 nodes: the kappa ceiling and the closure
    # decide it, so the node limit, which refuses searches, lets it through.
    p = tmp_path / "geom80.edges"
    write_graph(gen_geometric(80, 2.5 * math.log(80) / 80, 1.0, 1, RngSeed(3, 1))[0], p)
    assert main(["robustness", str(p)]) == 0
    assert capsys.readouterr().out == "robustness: 4\n"


def test_sweep_er_csv_and_gnuplot(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "erdos_renyi", "n": 8, "r": 2, "trials": 10, "seed": 4,
        "offsets": [-2.0, 0.0, 2.0],
    }))
    out = tmp_path / "records.csv"
    plot = tmp_path / "plot.gp"
    assert main(["sweep", "er", "--spec", str(spec), "--out", str(out),
                 "--gnuplot", str(plot)]) == 0
    records = read_records(out)
    assert len(records) == 9
    assert str(out) in plot.read_text()
    # family tag mismatch
    assert main(["sweep", "ba", "--spec", str(spec)]) == 1
    assert "subcommand expects" in capsys.readouterr().err


def test_sweep_seed_override(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "preferential", "n": 10, "r": 2, "trials": 5, "seed": 4,
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "ba", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["sweep", "ba", "--spec", str(spec), "--out", str(b), "--seed", "99"]) == 0
    ra, rb = read_records(a), read_records(b)
    assert all(r.property and 0 <= r.estimate <= 1 for r in ra + rb)
    assert ra == read_records(a)


def test_gnuplot_needs_csv_out(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "erdos_renyi", "n": 6, "r": 1, "trials": 2, "seed": 0,
    }))
    assert main(["sweep", "er", "--spec", str(spec), "--gnuplot", str(tmp_path / "p.gp")]) == 1
    captured = capsys.readouterr()
    assert "--gnuplot needs --out" in captured.err
    assert captured.out == ""  # refused before the sweep runs and prints its records


def test_consensus_command(gap8, tmp_path, capsys):
    config = tmp_path / "consensus.json"
    config.write_text(json.dumps({
        "f_parameter": 1,
        "max_rounds": 100,
        "convergence_epsilon": 1e-9,
        "initial_values": [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
    }))
    out = tmp_path / "trace.csv"
    assert main(["consensus", "--graph", gap8, "--config", str(config), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "converged: false rounds: 100 final_spread: 1.0" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "round,node,value,is_adversary"
    assert len(lines) == 1 + 8 * 101


def test_cascade_command(tmp_path, capsys):
    graph = tmp_path / "p4.edges"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0\n")
    out = tmp_path / "cascade.csv"
    assert main(["cascade", "--graph", str(graph), "--seed-set", str(seeds),
                 "--threshold", "1", "--out", str(out)]) == 0
    assert "infected: 4/4 rounds: 3" in capsys.readouterr().err
    assert out.read_text().splitlines()[1:] == ["0,1,1", "1,2,1", "2,3,1", "3,4,1"]


def test_cascade_with_a_huge_threshold_infects_only_the_seeds(k8, tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 1\n")
    tracemalloc.start()
    try:
        assert main(["cascade", "--graph", k8, "--seed-set", str(seeds), "--threshold", "1000000000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["round,infected_count,newly_infected", "0,2,2"]
    assert captured.err == "infected: 2/8 rounds: 0\n"
    assert peak < 1 << 20


def test_gadget_command(tmp_path, capsys):
    formula = tmp_path / "phi.cnf"
    formula.write_text("p nae3sat 3 1\n-1 2 3\n")
    out = tmp_path / "gadget.edges"
    roles = tmp_path / "roles.csv"
    assert main(["gadget", "--formula", str(formula), "--out", str(out),
                 "--roles-out", str(roles)]) == 0
    assert "nodes: 29" in capsys.readouterr().err
    assert read_graph(out).n == 29
    assert len(read_roles(roles)) == 29

    assert main(["gadget", "--formula", str(formula), "--build", "grho",
                 "--rho", "2", "--out", str(out)]) == 0
    assert "nodes: 73" in capsys.readouterr().err

    assert main(["gadget", "--formula", str(formula), "--build", "g", "--rho", "2"]) == 1
    assert "use grho/hrho" in capsys.readouterr().err


def test_gadget_size_guard(tmp_path, capsys):
    # 1,500 variables and no clause: two blocks of 1,500 nodes, 6,000 nodes in
    # all, refused before any adjacency row is built
    formula = tmp_path / "wide.cnf"
    formula.write_text("p nae3sat 1500 0\n\n")
    out = tmp_path / "gadget.edges"
    assert main(["gadget", "--formula", str(formula), "--out", str(out)]) == 2
    assert "6000 nodes exceeds the guard 2500" in capsys.readouterr().err
    assert not out.exists()


def test_er_size_guard_refuses_before_sampling(tmp_path, capsys):
    # n = 20,000 would draw about 200 million uniforms, some 5 GB with the indices
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "erdos_renyi", "n": ER_NODE_LIMIT + 1, "r": 2, "trials": 1, "seed": 0,
        "offsets": [0.0], "properties": ["min_degree_r"],
    }))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["gen", "er", "--n", "20000", "--p", "0.001", "--out", str(out)]) == 2
        assert "n=20000 exceeds the guard ER_NODE_LIMIT = 5000" in capsys.readouterr().err
        assert main(["sweep", "er", "--spec", str(spec), "--out", str(out)]) == 2
        assert "n=5001 exceeds the guard ER_NODE_LIMIT" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not out.exists()


def test_ba_size_guard_refuses_before_building(tmp_path, capsys):
    # n = 10**8 would first allocate a degree list of 10**8 entries
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "preferential", "n": PA_NODE_LIMIT + 1, "r": 2, "trials": 1, "seed": 0,
        "properties": ["r_robust", "min_degree_r"],
    }))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["gen", "ba", "--n", "100000000", "--r", "2", "--out", str(out)]) == 2
        assert "n=100000000 exceeds the guard PA_NODE_LIMIT = 5000" in capsys.readouterr().err
        assert main(["sweep", "ba", "--spec", str(spec), "--out", str(out)]) == 2
        assert "n=5001 exceeds the guard PA_NODE_LIMIT" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not out.exists()


def test_geom_size_guard_refuses_before_drawing(tmp_path, capsys):
    # the distance graph tests every pair in Python: 9 s at n = 5,000
    out = tmp_path / "out"
    for n in (GEOM_NODE_LIMIT + 1, 10**6):
        assert main(["gen", "geom", "--n", str(n), "--radius", "0.1", "--out", str(out)]) == 2
        assert f"n={n} exceeds the guard GEOM_NODE_LIMIT = 5000" in capsys.readouterr().err
    # n x dimension coordinates: 74.5 GiB here, had the guard not refused
    assert main(["gen", "geom", "--n", "10", "--radius", "0.1", "--dim", "1000000000", "--out", str(out)]) == 2
    assert "n=10 nodes at dimension=1000000000 hold 10000000000 coordinates, over the guard" in capsys.readouterr().err
    assert not out.exists()


def test_gen_ba_huge_r_fails_before_building_the_seed_clique(tmp_path, capsys):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["gen", "ba", "--n", "5", "--r", "5000", "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "seed graph too small for n" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not out.exists()


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "robustness" in capsys.readouterr().out


def test_only_sampling_commands_take_a_seed(capsys, k8):
    # the command line is refused before any file is read
    argvs = [["robustness", k8], ["cut", k8, "--rho", "1"], ["gadget", "--formula", "phi.cnf"],
             ["cascade", "--graph", k8, "--seed-set", k8, "--threshold", "1"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for command in ("robustness", "cut", "gadget", "cascade", "gen", "sweep", "consensus"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--seed " in capsys.readouterr().out) == (command in ("gen", "sweep", "consensus")), command


# --- fuzzing the dynamics commands ------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _config_fields(hostile):
    def field(valid):
        return valid | _JSON if hostile else valid

    strategy = st.fixed_dictionaries({
        "node": field(st.integers(-1, 8)),
        "strategy": field(st.sampled_from(["constant", "uniform_random", "ramp"])),
        "params": field(st.lists(st.floats(-3, 3), min_size=1, max_size=2)),
    })
    return {
        "f_parameter": field(st.integers(0, 2)),
        "initial_values": field(st.lists(st.floats(-5, 5), min_size=8, max_size=8)),
        "filter_mode": field(st.sampled_from(["strict", "literal"])),
        # bounded so that a valid config cannot ask for an unbounded run
        "max_rounds": st.integers(1, 40) | st.sampled_from([0, None, True, 2.5, "7", [], float("inf")])
        if hostile else st.integers(1, 40),
        "convergence_epsilon": field(st.floats(1e-9, 1.0)),
        "seed": field(st.integers(0, 5)),
        "stream": field(st.integers(0, 5)),
        "adversaries": field(st.lists(strategy, max_size=2)),
    }


def _valid_configs():
    fields = _config_fields(hostile=False)
    required = {key: fields.pop(key) for key in ("f_parameter", "initial_values")}
    return st.fixed_dictionaries(required, optional=fields)


# a valid config, a config whose every field may be hostile, or any JSON value
_CONFIGS = _valid_configs() | st.fixed_dictionaries({}, optional=_config_fields(hostile=True)) | _JSON


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS)
def test_fuzzed_consensus_config_exits_cleanly(payload):
    with tempfile.TemporaryDirectory() as tmp:
        graph, config = Path(tmp, "gap8.edges"), Path(tmp, "consensus.json")
        write_graph(counterexample(8), graph)
        config.write_text(json.dumps(payload))
        argv = ["consensus", "--graph", str(graph), "--config", str(config), "--out", str(Path(tmp, "t.csv"))]
        assert _run_quietly(argv) in (0, 1, 2)


_TOKENS = st.lists(st.integers(0, 7), min_size=1, max_size=6) | st.lists(
    st.integers(-3, 12) | st.integers() | st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(_TOKENS, st.integers(-1, 4))
def test_fuzzed_seed_set_exits_cleanly(tokens, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        graph, seeds = Path(tmp, "gap8.edges"), Path(tmp, "seeds.txt")
        write_graph(counterexample(8), graph)
        seeds.write_text(" ".join(map(str, tokens)), encoding="utf-8")
        argv = ["cascade", "--graph", str(graph), "--seed-set", str(seeds), "--threshold", str(threshold)]
        assert _run_quietly(argv) in (0, 1, 2)


# --- fuzzing the graph and formula commands ----------------------------------------

# Integer tokens stay small, and the other tokens hold no digit, so that no
# input asks for a large graph or a slow search.
_SMALL_TOKEN = st.integers(-2, 11).map(str) | st.text("xpce.-+", min_size=1, max_size=3)
_JSON_ID = st.integers(-2, 11) | st.sampled_from([1.5, "3", True, None, [], {}])


@st.composite
def _graph_texts(draw):
    """Edge-list or JSON text for at most 10 nodes, valid about half the time."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    json_form = draw(st.booleans())
    if draw(st.booleans()):
        return json.dumps({"n": n, "edges": [list(e) for e in pairs]}) if json_form else "\n".join(
            [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]
        )
    if json_form:
        edges = draw(st.lists(st.lists(_JSON_ID, max_size=3), max_size=12))
        return json.dumps({"n": draw(_JSON_ID), "edges": edges})
    return "\n".join(" ".join(line) for line in draw(st.lists(st.lists(_SMALL_TOKEN, max_size=3), max_size=8)))


# Bytes that are not UTF-8 on their own: continuation bytes with no lead,
# lead bytes cut short, bytes UTF-8 never uses, and an encoded surrogate.
_RAW_BYTES = st.sampled_from([b"\x80", b"\xbf", b"\xc3", b"\xe9", b"\xf0\x9f", b"\xfe", b"\xff", b"\xed\xa0\x80"])


@st.composite
def _encoded(draw, texts):
    """A text as UTF-8 bytes, with raw bytes put in at random places one
    time in two. Raw bytes that meet may still form a valid character."""
    data = draw(texts).encode()
    if draw(st.booleans()):
        for raw in draw(st.lists(_RAW_BYTES, min_size=1, max_size=3)):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + raw + data[at:]
    return data


def _exits_cleanly(data: bytes, path: Path, argv) -> bool:
    """main on a file at path holding data exits 0, 1 or 2, and exits 1 with
    the path named when data is not text in the locale's encoding."""
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return code == 1 and err.getvalue().startswith(f"error: {path}: ")
    return code in (0, 1, 2)


def _graph_exits_cleanly(data, args) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "g.txt")
        return _exits_cleanly(data, graph, [args[0], str(graph), *args[1:]])


@settings(max_examples=150, deadline=None)
@given(_encoded(_graph_texts()), st.none() | st.integers(-1, 6))
def test_fuzzed_robustness_graph_exits_cleanly(data, r):
    args = ["robustness"] if r is None else ["robustness", "--r", str(r)]
    assert _graph_exits_cleanly(data, args)


@settings(max_examples=150, deadline=None)
@given(_encoded(_graph_texts()), st.integers(-1, 4), st.booleans())
def test_fuzzed_cut_graph_exits_cleanly(data, rho, relaxed):
    args = ["cut", "--rho", str(rho)] + (["--relaxed"] if relaxed else [])
    assert _graph_exits_cleanly(data, args)


_LITERAL = st.integers(1, 3).flatmap(lambda v: st.sampled_from([str(v), str(-v)]))
_JUNK_LINE = st.lists(_SMALL_TOKEN, max_size=4).map(" ".join) | st.tuples(_SMALL_TOKEN, _SMALL_TOKEN).map(
    lambda tm: "p nae3sat %s %s" % tm
)


@st.composite
def _formula_texts(draw):
    """A formula on 3 variables, or one with a random line put in or swapped in."""
    clauses = draw(st.lists(st.lists(_LITERAL, min_size=3, max_size=3).map(" ".join), max_size=3))
    lines = [f"p nae3sat 3 {len(clauses)}"] + clauses
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(_JUNK_LINE)]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(_encoded(_formula_texts()), st.sampled_from(["g", "h", "grho", "hrho"]), st.integers(0, 2))
def test_fuzzed_formula_exits_cleanly(data, build, rho):
    with tempfile.TemporaryDirectory() as tmp:
        formula = Path(tmp, "phi.cnf")
        argv = ["gadget", "--formula", str(formula), "--build", build, "--rho", str(rho),
                "--out", str(Path(tmp, "g.edges"))]
        assert _exits_cleanly(data, formula, argv)


# --- fuzzing the generator and sweep commands ---------------------------------------


def _exit_code(argv) -> int:
    """main's exit code, or argparse's when it refuses the command line."""
    try:
        return _run_quietly(argv)
    except SystemExit as exc:
        return exc.code


# Numbers as the shell would pass them, plus tokens no parser accepts.
_FLOAT_ARG = st.floats(-2, 3).map(repr) | st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "x", ""])
_INT_ARG = st.integers(-3, 40).map(str) | st.sampled_from(["1.5", "x", "", str(2**64)])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["er", "geom", "ba"]),
    st.fixed_dictionaries({}, optional={
        "--n": _INT_ARG,
        "--p": _FLOAT_ARG,
        "--radius": _FLOAT_ARG,
        "--side": _FLOAT_ARG,
        "--dim": st.integers(-1, 3).map(str),
        "--r": st.integers(-1, 6).map(str),
        "--seed": _INT_ARG,
        "--stream": _INT_ARG,
        "--format": st.sampled_from(["edgelist", "json"]),
    }),
)
@example("ba", {"--n": str(2**64), "--r": "1"})  # refused by the node guard
@example("geom", {"--n": "10", "--radius": "0.1", "--dim": "1000000000"})  # refused by the coordinate guard
def test_fuzzed_gen_exits_cleanly(family, options):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["gen", family, "--out", str(Path(tmp, "g.out")), "--positions-out", str(Path(tmp, "pos.csv"))]
        for flag, value in options.items():
            argv.append(f"{flag}={value}")
        assert _exit_code(argv) in (0, 1, 2)


_SWEEP_FAMILIES = {"er": "erdos_renyi", "geom": "geometric1d", "ba": "preferential"}
_REAL_OFFSETS = st.lists(st.floats(-8, 8), max_size=4)
_POINT_OFFSETS = st.lists(st.lists(st.floats(-1, 3), min_size=2, max_size=2), max_size=3)
# at most 40 nodes, so that no draw allocates a large pair-uniform array
_SIZE_N = st.integers(-1, 40)
_SIZE_L = st.floats(-1, 4) | st.sampled_from([float("inf"), float("nan")])


def _optional_spec_fields(field):
    return {
        "stream": field(st.integers(0, 5)),
        "properties": field(st.lists(
            st.sampled_from(["min_degree_r", "r_connected", "r_robust", "s_property:1", "s_property:3", "bogus"]),
            max_size=3,
        )),
        "exact_limit": field(st.integers(-1, 40)),
    }


@st.composite
def _valid_specs(draw):
    """A spec with every required field, sized and shaped for its family."""
    family = draw(st.sampled_from(sorted(_SWEEP_FAMILIES.values())))
    payload = {
        "family": family,
        "r": draw(st.integers(1, 4)),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 5)),
    }
    geometric = family == "geometric1d"
    payload["l" if geometric else "n"] = draw(_SIZE_L if geometric else _SIZE_N)
    fields = _optional_spec_fields(lambda valid: valid)
    fields["offsets"] = _POINT_OFFSETS if geometric else _REAL_OFFSETS
    payload.update(draw(st.fixed_dictionaries({}, optional=fields)))
    return payload


# Hostile values that are no usable size: an arbitrary JSON number could ask
# for a huge graph, trial count or node limit.
_NOT_A_SIZE = st.none() | st.booleans() | st.text(max_size=8) | st.lists(st.none(), max_size=2) | st.sampled_from(
    [1.5, -0.0, float("inf"), float("nan"), "3", {}]
)


def _hostile_specs():
    def field(valid):
        return valid | _NOT_A_SIZE

    fields = _optional_spec_fields(field)
    fields.update({
        "family": field(st.sampled_from(sorted(_SWEEP_FAMILIES.values()))),
        "n": field(_SIZE_N),
        "l": field(_SIZE_L),
        "r": field(st.integers(-1, 4)),
        "trials": field(st.integers(-1, 3)),
        "seed": field(st.integers(-1, 5)),
        "offsets": field(_REAL_OFFSETS | _POINT_OFFSETS),
    })
    return st.fixed_dictionaries({}, optional=fields)


# a spec that names each required field, one whose every field may be hostile, or
# any JSON value (whose strings are too short to name a family)
_SPECS = _valid_specs() | _hostile_specs() | _JSON


_GEOMETRIC = {"family": "geometric1d", "l": 6.0, "r": 1, "trials": 1, "seed": 0}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_SPECS, st.sampled_from(sorted(_SWEEP_FAMILIES)), st.integers(0, 3), st.none() | st.integers(0, 5))
@example(_GEOMETRIC, "geom", 1, None)  # no offsets: the default ones are not (k, radius) pairs
@example({**_GEOMETRIC, "l": float("inf"), "offsets": [[1.0, 1.0]]}, "geom", 1, None)
def test_fuzzed_sweep_spec_exits_cleanly(payload, tag, own_tag, seed):
    # the subcommand of the spec's own family three times in four
    if own_tag and isinstance(payload, dict):
        tag = next((t for t, family in _SWEEP_FAMILIES.items() if family == payload.get("family")), tag)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(payload))
        argv = ["sweep", tag, "--spec", str(spec), "--out", str(Path(tmp, "r.csv"))]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert _exit_code(argv) in (0, 1, 2)
