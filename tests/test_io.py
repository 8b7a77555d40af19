"""Round-trips and rejection cases for every on-disk format."""

import ast
import importlib
import json
import tracemalloc
from pathlib import Path

import pytest

import netrobust
from netrobust.dynamics import Constant, ConsensusConfig, Ramp, UniformRandom, run_consensus
from netrobust.generators import GeometricPlacement, RngSeed
from netrobust.graph import Graph, complete, counterexample, path as path_graph
from netrobust.hardness import CnfFormula, build_g_phi
from netrobust.io import (
    GRAPH_NODE_LIMIT,
    read_consensus_config,
    read_formula,
    read_graph,
    read_node_set,
    read_positions,
    read_records,
    read_roles,
    read_sweep_spec,
    write_cascade_trace,
    write_consensus_trace,
    write_formula,
    write_graph,
    write_positions,
    write_roles,
)


# --- graphs ---------------------------------------------------------------


@pytest.mark.parametrize("format", ["edgelist", "json"])
def test_graph_round_trip(tmp_path, format):
    g = counterexample(6)
    p = tmp_path / "g.txt"
    write_graph(g, p, format=format)
    assert read_graph(p) == g


def test_edgelist_layout(tmp_path):
    p = tmp_path / "g.edges"
    write_graph(Graph(4, [(2, 3), (0, 1)]), p)
    assert p.read_text() == "4 2\n0 1\n2 3\n"


def test_json_layout(tmp_path):
    p = tmp_path / "g.json"
    write_graph(Graph(3, [(0, 2)]), p, format="json")
    assert json.loads(p.read_text()) == {"n": 3, "edges": [[0, 2]]}


def test_graph_format_validation(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_graph(complete(3), tmp_path / "g", format="gml")


def test_read_graph_rejections(tmp_path):
    cases = {
        "empty.txt": ("", "empty graph file"),
        "header.txt": ("3\n", "header must be"),
        "count.txt": ("3 2\n0 1\n", "promises 2 edges"),
        "order.txt": ("3 1\n2 1\n", "canonical u < v order"),
        "range.txt": ("3 1\n0 5\n", "out of range"),
        "dup.txt": ("3 2\n0 1\n0 1\n", "duplicate"),
        "line.txt": ("3 1\n0 1 2\n", "malformed edge line"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_graph(p)


def test_read_json_graph_rejections(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"n": 3}')
    with pytest.raises(ValueError, match="exactly 'n' and 'edges'"):
        read_graph(p)
    p.write_text('{"n": 3, "edges": [[1, 0]]}')
    with pytest.raises(ValueError, match="canonical"):
        read_graph(p)


def test_read_graph_rejects_non_integer_ids(tmp_path):
    cases = {
        "float.json": ('{"n": 3, "edges": [[0, 1.0], [1, 2]]}', "edge endpoint must be an integer, got 1.0"),
        "string.json": ('{"n": "3", "edges": [[0, 1], [1, 2]]}', "'n' must be an integer, got '3'"),
        "bool.json": ('{"n": 3, "edges": [[0, true]]}', "must be an integer, got True"),
        "shape.json": ('{"n": 3, "edges": [[0, 1, 2]]}', "list of \\[u, v\\] pairs"),
        "syntax.json": ('{"n": 3,', "invalid JSON"),
        "token.edges": ("3 1\n0 x\n", "edge line '0 x' needs two integers"),
        "head.edges": ("three 0\n", "header 'three 0' needs two integers"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            read_graph(p)
        assert str(exc.value).startswith(f"{p}: ")


HUGE_GRAPHS = {
    "billion.edges": "1000000000 0\n",
    "billion.json": '{"n": 1000000000, "edges": []}',
    "over.edges": f"{GRAPH_NODE_LIMIT + 1} 1\n0 1\n",
}


def test_read_graph_refuses_a_huge_node_count_before_building(tmp_path):
    # The graph holds one row per node: a header of 10**9 would ask for ~8 GB.
    tracemalloc.start()
    try:
        for name, text in HUGE_GRAPHS.items():
            p = tmp_path / name
            p.write_text(text)
            with pytest.raises(ValueError, match="GRAPH_NODE_LIMIT") as exc:
                read_graph(p)
            assert str(exc.value).startswith(f"{p}: ")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_read_graph_node_limit_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(importlib.import_module("netrobust.io"), "GRAPH_NODE_LIMIT", 5)
    p = tmp_path / "g.edges"
    p.write_text("5 1\n0 4\n")
    assert read_graph(p) == Graph(5, [(0, 4)])
    p.write_text("6 1\n0 4\n")
    with pytest.raises(ValueError, match="6 nodes exceed"):
        read_graph(p)


def test_error_messages_name_the_file(tmp_path):
    p = tmp_path / "weird.edges"
    p.write_text("2 1\n1 0\n")
    with pytest.raises(ValueError, match="weird.edges"):
        read_graph(p)


# --- positions -------------------------------------------------------------


def test_positions_round_trip(tmp_path):
    pl = GeometricPlacement(
        ((0.1234567890123456,), (0.5,), (0.9999999999999999,)), 1.0, 0.25, 1
    )
    p = tmp_path / "pos.txt"
    write_positions(pl, p)
    assert read_positions(p) == pl.positions


def test_positions_2d(tmp_path):
    pl = GeometricPlacement(((0.25, 0.75), (0.5, 0.125)), 1.0, 0.3, 2)
    p = tmp_path / "pos.txt"
    write_positions(pl, p)
    assert read_positions(p) == ((0.25, 0.75), (0.5, 0.125))


# --- formulas ---------------------------------------------------------------


def test_formula_round_trip(tmp_path):
    phi = CnfFormula(3, (((1, False), (2, True), (3, True)), ((2, True), (2, False), (1, True))))
    p = tmp_path / "phi.cnf"
    write_formula(phi, p)
    assert p.read_text() == "p nae3sat 3 2\n-1 2 3\n2 -2 1\n"
    assert read_formula(p) == phi


def test_formula_comments_and_blanks(tmp_path):
    p = tmp_path / "phi.cnf"
    p.write_text("c a comment\n\np nae3sat 2 1\nc inner comment\n1 -2 2\n")
    assert read_formula(p) == CnfFormula(2, (((1, True), (2, False), (2, True)),))


def test_formula_rejections(tmp_path):
    cases = {
        "zero.cnf": ("p nae3sat 1 1\n1 0 1\n", "literal 0"),
        "missing.cnf": ("1 2 3\n", "missing 'p nae3sat"),
        "badhead.cnf": ("p cnf 1 1\n1 1 1\n", "header must be"),
        "dup.cnf": ("p nae3sat 1 1\np nae3sat 1 1\n1 1 1\n", "duplicate header"),
        "count.cnf": ("p nae3sat 1 2\n1 1 1\n", "promises 2 clauses"),
        "range.cnf": ("p nae3sat 1 1\n1 2 1\n", "out of range"),
        "width.cnf": ("p nae3sat 2 1\n1 2\n", "exactly 3 literals"),
        "token.cnf": ("p nae3sat 3 1\n1 x 3\n", "line '1 x 3' needs integers"),
        "headtoken.cnf": ("p nae3sat three 1\n1 2 3\n", "line 'p nae3sat three 1' needs integers"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_formula(p)


HOSTILE_FORMULAS = [
    ("p nae3sat 3 1\n1 x 3\n", "line '1 x 3' needs integers"),
    ("p nae3sat three 1\n1 2 3\n", "line 'p nae3sat three 1' needs integers"),
    ("p nae3sat 3 1\n1 2\n", "exactly 3 literals"),
    ("p nae3sat 3 1\n1 -4 2\n", "variable index out of range"),
    ("p nae3sat 0 0\n", "num_variables must be positive"),
    (b"c \xe9nonc\xe9\np nae3sat 3 1\n1 2 3\n", "can't decode byte 0xe9"),
]


def write_input(p, content):
    """str is written as text; bytes as given, for files that are not UTF-8."""
    if isinstance(content, bytes):
        p.write_bytes(content)
    else:
        p.write_text(content)


@pytest.mark.parametrize("text, message", HOSTILE_FORMULAS)
def test_formula_errors_name_the_path(tmp_path, text, message):
    p = tmp_path / "phi.cnf"
    write_input(p, text)
    with pytest.raises(ValueError, match=message) as exc:
        read_formula(p)
    assert str(exc.value).startswith(f"{p}: ")


# --- roles -------------------------------------------------------------------


def test_roles_round_trip(tmp_path):
    gg = build_g_phi(CnfFormula(2, (((1, True), (2, False), (1, False)),)))
    p = tmp_path / "roles.csv"
    write_roles(gg, p)
    assert read_roles(p) == gg.roles
    lines = p.read_text().splitlines()
    assert lines[0] == "node,role,param1,param2"


def test_roles_require_dense_node_column(tmp_path):
    p = tmp_path / "roles.csv"
    p.write_text("node,role,param1,param2\n1,true_block,,\n")
    with pytest.raises(ValueError, match="count up from 0"):
        read_roles(p)


# --- traces -------------------------------------------------------------------


def test_consensus_trace_csv(tmp_path):
    tr = run_consensus(
        counterexample(6),
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        ConsensusConfig(f_parameter=1, max_rounds=2),
    )
    p = tmp_path / "trace.csv"
    write_consensus_trace(tr, frozenset({5}), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "round,node,value,is_adversary"
    assert lines[1] == "0,0,0.0,0"
    assert lines[6] == "0,5,1.0,1"
    # one row per node per round, trace includes the initial state
    assert len(lines) == 1 + 6 * len(tr.rounds)


def test_cascade_trace_csv(tmp_path):
    p = tmp_path / "cascade.csv"
    write_cascade_trace([(0, 1, 1), (1, 2, 1)], p)
    assert p.read_text().splitlines() == [
        "round,infected_count,newly_infected",
        "0,1,1",
        "1,2,1",
    ]


def test_node_set(tmp_path):
    p = tmp_path / "seeds.txt"
    p.write_text("3 1\n4\n")
    assert read_node_set(p) == frozenset({1, 3, 4})
    p.write_text("\n")
    with pytest.raises(ValueError, match="empty node set"):
        read_node_set(p)


@pytest.mark.parametrize(
    "text, message",
    [("0 x\n", "node index 'x' is not an integer"), ("2 -1\n", "node index -1 is negative")],
)
def test_node_set_rejections_name_the_path(tmp_path, text, message):
    p = tmp_path / "seeds.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        read_node_set(p)
    assert str(exc.value).startswith(f"{p}: ")


# --- configs --------------------------------------------------------------------


def test_consensus_config_file(tmp_path):
    p = tmp_path / "consensus.json"
    p.write_text(
        json.dumps(
            {
                "f_parameter": 1,
                "filter_mode": "literal",
                "max_rounds": 50,
                "convergence_epsilon": 1e-9,
                "initial_values": [0.0, 1.0, 2.0, 3.0],
                "seed": 7,
                "stream": 2,
                "adversaries": [
                    {"node": 0, "strategy": "constant", "params": [9.0]},
                    {"node": 3, "strategy": "uniform_random", "params": [0.0, 1.0]},
                ],
            }
        )
    )
    config, initial = read_consensus_config(p)
    assert initial == [0.0, 1.0, 2.0, 3.0]
    assert config.filter_mode == "literal"
    assert config.max_rounds == 50
    assert config.adversary_set == frozenset({0, 3})
    assert config.adversary_strategy[0] == Constant(9.0)
    assert config.adversary_strategy[3] == UniformRandom(0.0, 1.0)
    assert config.rng_seed == RngSeed(7, 2)


def test_consensus_config_defaults_and_errors(tmp_path):
    p = tmp_path / "consensus.json"
    p.write_text(json.dumps({"f_parameter": 0, "initial_values": [1, 2]}))
    config, initial = read_consensus_config(p)
    assert config.filter_mode == "strict" and config.max_rounds == 1000
    assert config.rng_seed is None and initial == [1.0, 2.0]

    p.write_text(json.dumps({"initial_values": [1]}))
    with pytest.raises(ValueError, match="missing config key"):
        read_consensus_config(p)

    p.write_text(
        json.dumps(
            {
                "f_parameter": 1,
                "initial_values": [1, 2],
                "adversaries": [{"node": 0, "strategy": "ramp", "params": [1.0]}],
            }
        )
    )
    with pytest.raises(ValueError, match="takes 2 parameter"):
        read_consensus_config(p)


HOSTILE_CONSENSUS_CONFIGS = [
    ('{"f_parameter": 1, "initial_values": [[1], 2, 3, 4]}', "initial value must be a finite real number"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversaries": [{"node": 0, "strategy": "constant", '
     '"params": 5}]}', "takes 1 parameter"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversaries": [7]}', "not subscriptable"),
    ("[1, 2]", "must be a JSON object"),
    ('{"f_parameter": 1,', "invalid JSON"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversaries": [{"node": 0, "strategy": "loud"}]}',
     "unknown adversary strategy 'loud'"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversaries": [{"node": 0, '
     '"strategy": "uniform_random", "params": [2, 1]}]}', "low must not exceed high"),
    ('{"f_parameter": -1, "initial_values": [1, 2]}', "f_parameter must be nonnegative"),
    ('{"f_parameter": 1, "initial_values": [1, NaN]}', "initial value must be a finite real number"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "max_rounds": Infinity}', "infinity"),
    ('{"f_parameter": 1, "initial_values": "12"}', "initial value must be a finite real number"),
    ('{"f_parameter": 1.9, "initial_values": [1, 2]}', "f_parameter must be an integer, got 1.9"),
    ('{"f_parameter": 1, "initial_values": [1, 2, 3], "adversaries": [{"node": 2.5, "strategy": "constant", '
     '"params": [1]}]}', "adversary node must be an integer, got 2.5"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "max_rounds": 3.7}', "max_rounds must be an integer, got 3.7"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "seed": 1.2}', "seed must be an integer, got 1.2"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "seed": 1, "stream": "2"}', "stream must be an integer, got '2'"),
    (b'{"f_parameter": 1, "initial_values": [1, 2], "filter_mode": "strict \xe9"}', "can't decode byte 0xe9"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversary_set": [9]}',
     "unknown consensus config key 'adversary_set'"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "seeds": 1, "rounds": 5}',
     "unknown consensus config keys 'rounds', 'seeds'"),
    ('{"f_parameter": 1, "initial_values": [1, 2], "adversaries": [{"node": 0, "strategy": "constant", '
     '"param": [1]}]}', "unknown adversary entry key 'param'"),
    ('{"f_parameter": 1, "initial_values": [1, 2, 3, 4], "adversaries": [{"node": 1, "strategy": "constant", '
     '"params": [1]}, {"node": 1, "strategy": "ramp", "params": [0, 1]}]}', "adversary node 1 is listed twice"),
]


@pytest.mark.parametrize("text, message", HOSTILE_CONSENSUS_CONFIGS)
def test_consensus_config_errors_name_the_path(tmp_path, text, message):
    p = tmp_path / "consensus.json"
    write_input(p, text)
    with pytest.raises(ValueError, match=message) as exc:
        read_consensus_config(p)
    assert str(exc.value).startswith(f"{p}: ")


def test_sweep_spec_file(tmp_path):
    p = tmp_path / "sweep.json"
    p.write_text(
        json.dumps(
            {
                "family": "erdos_renyi",
                "n": 12,
                "r": 2,
                "trials": 30,
                "seed": 5,
                "offsets": [-1.0, 0.0, 1.0],
                "properties": ["min_degree_r"],
            }
        )
    )
    spec = read_sweep_spec(p)
    assert spec.n_or_l == 12 and spec.base_seed == RngSeed(5)
    assert spec.offsets == (-1.0, 0.0, 1.0)
    assert spec.properties == ("min_degree_r",)


def test_sweep_spec_l_key_and_pair_offsets(tmp_path):
    p = tmp_path / "sweep.json"
    p.write_text(
        json.dumps(
            {
                "family": "geometric1d",
                "l": 6.0,
                "r": 2,
                "trials": 10,
                "seed": 1,
                "offsets": [[4.0, 6.5]],
            }
        )
    )
    spec = read_sweep_spec(p)
    assert spec.n_or_l == 6.0
    assert spec.offsets == ((4.0, 6.5),)


def test_sweep_spec_rejections(tmp_path):
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps({"family": "erdos_renyi", "n": 5, "l": 5, "r": 1, "trials": 1, "seed": 0}))
    with pytest.raises(ValueError, match="give n or l, not both"):
        read_sweep_spec(p)
    p.write_text(json.dumps({"family": "erdos_renyi", "r": 1, "trials": 1, "seed": 0}))
    with pytest.raises(ValueError, match="missing spec key"):
        read_sweep_spec(p)


@pytest.mark.parametrize(
    "family, offsets, message",
    [
        ("erdos_renyi", [[1, 2]], "erdos_renyi offset must be a finite real number"),
        ("erdos_renyi", [0.0, "1.5"], "erdos_renyi offset must be a finite real number"),
        ("erdos_renyi", [True], "erdos_renyi offset must be a finite real number"),
        ("erdos_renyi", [float("nan")], "erdos_renyi offset must be a finite real number"),
        ("preferential", [None], "preferential offset must be a finite real number"),
        ("erdos_renyi", 2.0, "'offsets' must be a list"),
        ("geometric1d", [1.5], r"\[k, radius\] pairs"),
        ("geometric1d", [[4.0, 6.5, 1.0]], r"\[k, radius\] pairs"),
        ("geometric1d", [[4.0, "6.5"]], "radius must be a finite real number"),
        ("geometric1d", [[False, 6.5]], "k must be a finite real number"),
        ("geometric1d", [[4.0, float("inf")]], "radius must be a finite real number"),
    ],
)
def test_sweep_spec_offsets_are_checked_per_family(tmp_path, family, offsets, message):
    p = tmp_path / "sweep.json"
    size = {"l": 6.0} if family == "geometric1d" else {"n": 12}
    p.write_text(
        json.dumps({"family": family, **size, "r": 2, "trials": 3, "seed": 1, "offsets": offsets})
    )
    with pytest.raises(ValueError, match=message) as exc:
        read_sweep_spec(p)
    assert str(exc.value).startswith(f"{p}: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "must be a JSON object"),
        ("{", "invalid JSON"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "properties": [1]}',
         "'properties' must be a list of names"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 0, "seed": 1}', "trials must be positive"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": [1]}', "int"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": Infinity, "seed": 1}', "infinity"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "offsets": [1%s]}' % ("0" * 400),
         "too large"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2.5, "trials": 3, "seed": 1}', "r must be an integer, got 2.5"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": "3", "seed": 1}', "trials must be an integer, got '3'"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1.2}', "seed must be an integer, got 1.2"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "stream": 0.5}',
         "stream must be an integer, got 0.5"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "exact_limit": 22.5}',
         "exact_limit must be an integer, got 22.5"),
        ('{"family": "erdos_renyi", "n": 12.5, "r": 2, "trials": 3, "seed": 1}', "n must be an integer, got 12.5"),
        ('{"family": "preferential", "n": "10", "r": 2, "trials": 3, "seed": 1}', "n must be an integer, got '10'"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": -Infinity, "seed": 1}',
         "trials must be an integer, got -infinity"),
        ('{"family": "geometric1d", "l": Infinity, "r": 2, "trials": 3, "seed": 1, "offsets": [[1, 1]]}',
         "l must be a finite real number, got inf"),
        ('{"family": "geometric1d", "l": "6", "r": 2, "trials": 3, "seed": 1, "offsets": [[1, 1]]}',
         "l must be a finite real number, got '6'"),
        ('{"family": "geometric1d", "l": 6.0, "r": 2, "trials": 3, "seed": 1}', "missing spec key 'offsets'"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "offset": [0.5]}',
         "unknown sweep spec key 'offset'"),
        ('{"family": "erdos_renyi", "n": 12, "r": 2, "trials": 3, "seed": 1, "exact_limt": 20}',
         "unknown sweep spec key 'exact_limt'"),
    ],
)
def test_sweep_spec_errors_name_the_path(tmp_path, text, message):
    p = tmp_path / "sweep.json"
    p.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        read_sweep_spec(p)
    assert str(exc.value).startswith(f"{p}: ")


# --- the reader boundary -------------------------------------------------------


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_positions, "0.5\n0.x\n", "could not convert string to float: '0.x'"),
        (read_roles, "node,role\n0,true_block\n", "missing column key 'param1'"),
        (
            read_records,
            "family,n_or_l,r,param,property,estimate,ci_halfwidth,trials,seed_lo,seed_hi,flags\n"
            "erdos_renyi,20,2,0.15,r_robust,high,0.08,100,0,99,x=-2.0\n",
            "could not convert string to float: 'high'",
        ),
    ],
)
def test_reader_content_errors_name_the_path(tmp_path, reader, text, message):
    p = tmp_path / "input"
    p.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        reader(p)
    assert str(exc.value).startswith(f"{p}: ")


def _open_calls(node, where):
    """Names of the functions that call open, bare or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "open":
                yield where
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _open_calls(child, f"{where}.{child.name}" if named else where)


def test_every_file_is_opened_through_io_opened():
    # One opener: readers get their path-naming errors from io._reading, and
    # an already-open file passes through wherever the package takes a path.
    calls = []
    for source in sorted(Path(netrobust.__file__).parent.glob("*.py")):
        calls += _open_calls(ast.parse(source.read_text(), str(source)), source.stem)
    assert calls == ["io.opened"]
