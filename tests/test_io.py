"""Round-trips and rejection cases for every on-disk format."""

import ast
import importlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import netrobust
from netrobust.dynamics import Constant, ConsensusConfig, Ramp, UniformRandom, run_consensus
from netrobust.generators import GeometricPlacement, RngSeed
from netrobust.graph import Graph, complete, counterexample, path as path_graph
from netrobust.hardness import CnfFormula, build_g_phi
from netrobust.io import (
    GRAPH_NODE_LIMIT,
    _reading,
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
        "negative.txt": ("-1 0\n", "node count must be nonnegative"),
        "below.txt": ("3 1\n-1 2\n", "out of range"),
        "loop.txt": ("3 1\n1 1\n", "canonical u < v order"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_graph(p)
    p = tmp_path / "spaced.txt"
    p.write_bytes(b"4 2\n\n0 1\r\n \n2\t3\n")
    assert read_graph(p) == Graph(4, [(0, 1), (2, 3)])


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


def test_read_graph_allocates_its_rows_once(tmp_path):
    # n rows of 8-byte pointers: a second list of n zeros would double the peak
    n = 200_000
    p = tmp_path / "wide.edges"
    p.write_text(f"{n} 0\n")
    tracemalloc.start()
    try:
        g = read_graph(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and peak < 1.5 * 8 * n


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


def reference_read_edgelist(path) -> Graph:
    """The three-pass edge-list reader that read_graph's one pass replaced:
    the lines are parsed to pairs, the pairs checked for u < v order, and
    Graph(n, pairs) checks the node count and every edge again."""
    with _reading(path, "graph") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError("header must be 'n <edge count>'")
        try:
            n, count = int(head[0]), int(head[1])
        except ValueError:
            raise ValueError(f"header {lines[0]!r} needs two integers") from None
        if count != len(lines) - 1:
            raise ValueError(f"header promises {count} edges, file has {len(lines) - 1}")
        pairs = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {ln!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"edge line {ln!r} needs two integers") from None
        if n > GRAPH_NODE_LIMIT:
            raise ValueError(f"{n} nodes exceed the guard GRAPH_NODE_LIMIT = {GRAPH_NODE_LIMIT}")
        for u, v in pairs:
            if not u < v:
                raise ValueError(f"edge ({u}, {v}) not in canonical u < v order")
        return Graph(n, pairs)


# Each fault puts one refusable flaw into a valid file. The header's edge
# count is the number of edge lines unless wrong_count is drawn.
EDGE_LIST_FAULTS = (
    "reversed", "self_loop", "negative_id", "out_of_range", "duplicate", "one_token",
    "three_tokens", "junk_token", "wrong_count", "negative_n", "huge_n", "junk_header",
)
# Decimal digits of other scripts, which int() reads as it reads ASCII ones.
DIGIT_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
JUNK_TOKENS = ("x", "1.5", "0x1", "1e3", "--1", "1_", "\u2167", "\u00bd")


@st.composite
def edge_list_files(draw):
    """(file bytes, faults put in): a valid graph on at most 8 nodes with
    some faults, spelled with blank and whitespace-only lines, LF, CRLF or
    CR endings, tabs and other whitespace around tokens, and integers with
    leading zeros, a plus sign or another script's digits."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    lines = [list(e) for e in edges]
    head, count_offset, faults = [n, None], 0, []
    small = st.integers(0, 9)
    for fault in draw(st.lists(st.sampled_from(EDGE_LIST_FAULTS), max_size=3)):
        line = None
        if fault == "reversed":
            v = draw(small)
            line = [v + draw(st.integers(1, 3)), v]
        elif fault == "self_loop":
            line = [draw(small)] * 2
        elif fault == "negative_id":
            line = [-draw(st.integers(1, 3)), draw(st.integers(0, max(n - 1, 0)))]
        elif fault == "out_of_range":
            v = n + draw(st.integers(0, 3))
            line = [draw(st.integers(0, v - 1)) if v else -1, v]
        elif fault == "duplicate":
            if n < 2:
                continue
            if not edges:  # a first edge to repeat
                edges = [(0, 1)]
                lines.insert(draw(st.integers(0, len(lines))), [0, 1])
            line = list(draw(st.sampled_from(edges)))
        elif fault == "one_token":
            line = [draw(small)]
        elif fault == "three_tokens":
            line = [draw(small), draw(small), draw(small)]
        elif fault == "junk_token":
            line = [draw(small), draw(st.sampled_from(JUNK_TOKENS))][:: draw(st.sampled_from((1, -1)))]
        elif fault == "wrong_count":
            count_offset = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        elif fault == "negative_n":
            head[0] = -draw(st.integers(1, 5))
        elif fault == "huge_n":
            head[0] = GRAPH_NODE_LIMIT + draw(st.integers(1, 10**12))
        else:
            head = draw(st.sampled_from(([head[0]], [head[0], None, 0], ["n", None], [head[0], "m"])))
        if line is not None:
            lines.insert(draw(st.integers(0, len(lines))), line)
        faults.append(fault)
    head = [len(lines) + count_offset if t is None else t for t in head]

    def spelled(token):
        if not isinstance(token, int):
            return token
        digits = draw(st.sampled_from(DIGIT_SCRIPTS))
        text = "0" * draw(st.integers(0, 2)) + "".join(digits[int(d)] for d in str(abs(token)))
        return ("-" if token < 0 else draw(st.sampled_from(("", "", "+")))) + text

    space = st.sampled_from(("", "", " ", "\t", "\u00a0"))
    gap = st.sampled_from((" ", " ", "\t", "  ", " \t ", "\u00a0"))
    out = []
    for tokens in [head] + lines:
        out += draw(st.lists(space, max_size=1))  # a blank or whitespace-only line
        out.append(draw(space) + draw(gap).join(spelled(t) for t in tokens) + draw(space))
    out += draw(st.lists(space, max_size=2))
    endings = st.sampled_from(("\n", "\n", "\r\n", "\r"))
    text = "".join(line + draw(endings) for line in out)
    return (text if draw(st.booleans()) else text.rstrip("\r\n")).encode(), faults


def _read_or_refuse(reader, path):
    try:
        return reader(path), None
    except ValueError as exc:
        return None, str(exc)


ONE_FAULT_FILES = [
    ("3 1\n2 1\n", "reversed"), ("3 1\n1 1\n", "self_loop"), ("3 1\n-1 2\n", "negative_id"),
    ("3 1\n0 5\n", "out_of_range"), ("3 2\n0 1\n0 1\n", "duplicate"), ("3 1\n0\n", "one_token"),
    ("3 1\n0 1 2\n", "three_tokens"), ("3 1\n0 x\n", "junk_token"), ("3 2\n0 1\n", "wrong_count"),
    ("-1 1\n0 1\n", "negative_n"), (f"{GRAPH_NODE_LIMIT + 1} 1\n0 1\n", "huge_n"), ("three 0\n", "junk_header"),
]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_files())
def test_one_pass_reader_matches_the_reference_reader(tmp_path, drawn):
    data, faults = drawn
    p = tmp_path / "g.edges"
    p.write_bytes(data)
    want, want_error = _read_or_refuse(reference_read_edgelist, p)
    got, error = _read_or_refuse(read_graph, p)
    assert (want_error is None) == (not faults)  # every fault drawn is refused
    if want_error is None:
        assert error is None and got == want
    else:
        # With several faults the one-pass reader reports the first in file order.
        assert error is not None and error.startswith(f"{p}: ")
        if len(faults) == 1:
            assert error == want_error


@pytest.mark.parametrize("text, fault", ONE_FAULT_FILES)
def test_one_fault_is_reported_as_the_reference_reader_reports_it(tmp_path, text, fault):
    p = tmp_path / f"{fault}.edges"
    p.write_text(text)
    want, want_error = _read_or_refuse(reference_read_edgelist, p)
    assert want is None and _read_or_refuse(read_graph, p) == (None, want_error)


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
