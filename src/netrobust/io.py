"""File formats: graphs (edge list / JSON), positions, NAE3SAT formulas,
gadget role sidecars, simulation traces, sweep records (CSV / JSON), and
the JSON config files the CLI consumes."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, fields

from .dynamics import ConsensusConfig, Constant, Ramp, UniformRandom
from .experiments import SweepRecord, SweepSpec
from .generators import GeometricPlacement, RngSeed
from .graph import Graph
from .hardness import CnfFormula, GadgetGraph, Role

# Largest node count read_graph accepts: the graph holds one row per node,
# so a header's count is refused above this before any row is allocated.
GRAPH_NODE_LIMIT = 10**7


def opened(path, mode: str = "w", **kw):
    """open() that passes already-open file objects straight through."""
    if hasattr(path, "write") or hasattr(path, "read"):
        return nullcontext(path)
    return open(path, mode, **kw)


@contextmanager
def _reading(path, what: str, **open_kw):
    """The one way a reader gets its file. Malformed content raised inside
    the block, undecodable bytes included, comes out as ValueError naming
    the path; a missing key is reported as a missing `what` key."""
    try:
        with opened(path, "r", **open_kw) as fh:
            yield fh
    except KeyError as exc:
        raise ValueError(f"{path}: missing {what} key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _json_object(text: str, what: str) -> dict:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


def write_graph(g: Graph, path, format: str = "edgelist") -> None:
    """edgelist: first line `n <edge count>`, then one `u v` line per edge,
    0-indexed with u < v. json: {"n": ..., "edges": [[u, v], ...]}."""
    edges = list(g.edges())
    if format == "edgelist":
        with opened(path) as fh:
            fh.write(f"{g.n} {len(edges)}\n")
            for u, v in edges:
                fh.write(f"{u} {v}\n")
    elif format == "json":
        with opened(path) as fh:
            json.dump({"n": g.n, "edges": [list(e) for e in edges]}, fh)
            fh.write("\n")
    else:
        raise ValueError("format must be 'edgelist' or 'json'")


def read_graph(path) -> Graph:
    """Reads either graph format (sniffed from the first character).

    Malformed content raises ValueError with a message naming the path."""
    with _reading(path, "graph") as fh:
        text = fh.read()
        if text.lstrip().startswith("{"):
            payload = _json_object(text, "graph")
            if set(payload) != {"n", "edges"}:
                raise ValueError("graph object needs exactly 'n' and 'edges'")
            n = _integer(payload["n"], "'n'")
            edges = payload["edges"]
            if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges
            ):
                raise ValueError("'edges' must be a list of [u, v] pairs")
            pairs = [(_integer(u, "edge endpoint"), _integer(v, "edge endpoint")) for u, v in edges]
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
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
                raise ValueError(
                    f"header promises {count} edges, file has {len(lines) - 1}"
                )
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


def write_positions(pl: GeometricPlacement, path) -> None:
    """One line per node, coordinates space-separated at full precision."""
    with opened(path) as fh:
        for pt in pl.positions:
            fh.write(" ".join(repr(c) for c in pt) + "\n")


def read_positions(path) -> tuple:
    with _reading(path, "position") as fh:
        return tuple(
            tuple(float(c) for c in ln.split())
            for ln in fh
            if ln.strip()
        )


def write_formula(phi: CnfFormula, path) -> None:
    """DIMACS-like: header `p nae3sat t m`, then one signed-literal line per
    clause (negative integer = negated variable)."""
    with opened(path) as fh:
        fh.write(f"p nae3sat {phi.num_variables} {phi.num_clauses}\n")
        for clause in phi.clauses:
            fh.write(" ".join(str(v if pol else -v) for v, pol in clause) + "\n")


def _integers(line: str, tokens: list) -> list:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"line {line!r} needs integers") from None


def read_formula(path) -> CnfFormula:
    """Malformed content raises ValueError with a message naming the path."""
    header = None
    clauses = []
    with _reading(path, "formula") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("c"):
                continue
            parts = ln.split()
            if ln.startswith("p"):
                if header is not None:
                    raise ValueError("duplicate header")
                if len(parts) != 4 or parts[1] != "nae3sat":
                    raise ValueError("header must be 'p nae3sat t m'")
                header = _integers(ln, parts[2:])
                continue
            lits = _integers(ln, parts)
            if 0 in lits:
                raise ValueError("literal 0 is not allowed")
            clauses.append(tuple((abs(a), a > 0) for a in lits))
        if header is None:
            raise ValueError("missing 'p nae3sat t m' header")
        t, m = header
        if len(clauses) != m:
            raise ValueError(f"header promises {m} clauses, file has {len(clauses)}")
        return CnfFormula(t, tuple(clauses))


def write_roles(gg: GadgetGraph, path) -> None:
    with opened(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("node", "role", "param1", "param2"))
        for node, role in enumerate(gg.roles):
            writer.writerow(
                (
                    node,
                    role.kind,
                    "" if role.param1 is None else role.param1,
                    "" if role.param2 is None else role.param2,
                )
            )


def read_roles(path) -> tuple:
    def parse(text):
        if text == "":
            return None
        try:
            return int(text)
        except ValueError:
            return text

    roles = []
    with _reading(path, "column", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            if int(row["node"]) != i:
                raise ValueError("node column must count up from 0")
            roles.append(Role(row["role"], parse(row["param1"]), parse(row["param2"])))
    return tuple(roles)


def write_consensus_trace(trace, adversary_set, path) -> None:
    """CSV `round,node,value,is_adversary`, one row per node per round."""
    with opened(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("round", "node", "value", "is_adversary"))
        for rnd, values in enumerate(trace.rounds):
            for node, value in enumerate(values):
                writer.writerow(
                    (rnd, node, repr(value), 1 if node in adversary_set else 0)
                )


def write_cascade_trace(rows, path) -> None:
    """CSV `round,infected_count,newly_infected` from dynamics.cascade_trace."""
    with opened(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("round", "infected_count", "newly_infected"))
        for row in rows:
            writer.writerow(row)


_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def _cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean record cell")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _uncell(column: str, text: str):
    if column in ("r", "trials", "seed_lo", "seed_hi"):
        return int(text)
    if column in ("estimate", "ci_halfwidth"):
        return float(text)
    if column in ("n_or_l", "param"):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text
    return text


def write_records(records, path, format: str = "csv") -> None:
    """Persist sweep records; floats keep full repr precision so the file
    round-trips exactly."""
    try:
        if format == "csv":
            with opened(path, newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_COLUMNS)
                for rec in records:
                    d = asdict(rec)
                    writer.writerow([_cell(d[c]) for c in _COLUMNS])
        elif format == "structured":
            with opened(path) as fh:
                json.dump({"records": [asdict(r) for r in records]}, fh, indent=1)
                fh.write("\n")
        else:
            raise ValueError("format must be 'csv' or 'structured'")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def read_records(path, format: str = "csv"):
    if format not in ("csv", "structured"):
        raise ValueError("format must be 'csv' or 'structured'")
    try:
        with _reading(path, "record", newline="") as fh:
            if format == "csv":
                return [
                    SweepRecord(**{c: _uncell(c, row[c]) for c in _COLUMNS})
                    for row in csv.DictReader(fh)
                ]
            return [SweepRecord(**d) for d in _json_object(fh.read(), "records file")["records"]]
    except OSError as exc:
        raise OSError(f"cannot read records from {path}: {exc}") from exc


def read_node_set(path) -> frozenset:
    """Whitespace-separated nonnegative node indices (the cascade seed-set file).

    Malformed content raises ValueError with a message naming the path."""
    with _reading(path, "node set") as fh:
        tokens = fh.read().split()
        if not tokens:
            raise ValueError("empty node set")
        nodes = set()
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"node index {tok!r} is not an integer") from None
            if v < 0:
                raise ValueError(f"node index {v} is negative")
            nodes.add(v)
    return frozenset(nodes)


def _known_keys(payload, keys: tuple, what: str) -> None:
    """Refuse keys outside keys, so that a misspelt optional key is not
    silently dropped."""
    unknown = sorted(set(payload) - set(keys)) if isinstance(payload, dict) else []
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise ValueError(f"unknown {what} key{plural} {', '.join(map(repr, unknown))}; known: {', '.join(keys)}")


_STRATEGIES = {
    "constant": (Constant, 1),
    "uniform_random": (UniformRandom, 2),
    "ramp": (Ramp, 2),
}


def read_consensus_config(path):
    """JSON config for the consensus runner; returns (config, initial values).

    Keys: f_parameter, initial_values, and optionally filter_mode, max_rounds,
    convergence_epsilon, seed, stream, and adversaries as a list of
    {"node": .., "strategy": constant|uniform_random|ramp, "params": [..]}.

    Malformed content, an unknown key among them, raises ValueError with a
    message naming the path.
    """
    with _reading(path, "config") as fh:
        payload = _json_object(fh.read(), "consensus config")
        _known_keys(payload, (
            "f_parameter", "initial_values", "filter_mode", "max_rounds",
            "convergence_epsilon", "seed", "stream", "adversaries",
        ), "consensus config")
        initial = [_real(v, "initial value") for v in payload["initial_values"]]
        adversaries = {}
        for entry in payload.get("adversaries", []):
            _known_keys(entry, ("node", "strategy", "params"), "adversary entry")
            if entry["strategy"] not in _STRATEGIES:
                raise ValueError(f"unknown adversary strategy {entry['strategy']!r}")
            cls, arity = _STRATEGIES[entry["strategy"]]
            params = entry.get("params", [])
            if not isinstance(params, list) or len(params) != arity:
                raise ValueError(
                    f"strategy {entry['strategy']} takes {arity} parameter(s)"
                )
            params = [_real(p, "strategy parameter") for p in params]
            node = _integer(entry["node"], "adversary node")
            if node in adversaries:
                raise ValueError(f"adversary node {node} is listed twice")
            adversaries[node] = cls(*params)
        seed = payload.get("seed")
        if seed is not None:
            seed = RngSeed(_integer(seed, "seed"), _integer(payload.get("stream", 0), "stream"))
        kwargs = {"f_parameter": _integer(payload["f_parameter"], "f_parameter")}
        if "filter_mode" in payload:
            kwargs["filter_mode"] = payload["filter_mode"]
        if "max_rounds" in payload:
            kwargs["max_rounds"] = _integer(payload["max_rounds"], "max_rounds")
        if "convergence_epsilon" in payload:
            kwargs["convergence_epsilon"] = _real(payload["convergence_epsilon"], "convergence_epsilon")
        config = ConsensusConfig(
            adversary_set=frozenset(adversaries),
            adversary_strategy=adversaries,
            rng_seed=seed,
            **kwargs,
        )
    return config, initial


def _real(value, what: str) -> float:
    # bool is an int subclass, but true/false is never a real-valued field.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    # bool is an int subclass, but true/false is never an integer field; a
    # float is refused rather than truncated, and JSON's Infinity is spelled out.
    if isinstance(value, bool) or not isinstance(value, int):
        shown = repr(value).replace("inf", "infinity") if isinstance(value, float) else repr(value)
        raise ValueError(f"{what} must be an integer, got {shown}")
    return value


def _sweep_offsets(family, offsets) -> tuple:
    """geometric1d sweeps take [k, radius] pairs; the other families take
    real-number offsets."""
    if not isinstance(offsets, list):
        raise ValueError(f"'offsets' must be a list, got {offsets!r}")
    if family != "geometric1d":
        return tuple(_real(x, f"{family} offset") for x in offsets)
    points = []
    for point in offsets:
        if not (isinstance(point, list) and len(point) == 2):
            raise ValueError(f"geometric1d offsets are [k, radius] pairs, got {point!r}")
        points.append((_real(point[0], "k"), _real(point[1], "radius")))
    return tuple(points)


def read_sweep_spec(path) -> SweepSpec:
    """JSON sweep spec. Keys: family, n (or l), r, trials, seed, and
    optionally stream, offsets, properties, exact_limit.

    Malformed content, an unknown key among them, raises ValueError with a
    message naming the path."""
    with _reading(path, "spec") as fh:
        payload = _json_object(fh.read(), "sweep spec")
        _known_keys(payload, (
            "family", "n", "l", "r", "trials", "seed", "stream", "offsets", "properties", "exact_limit",
        ), "sweep spec")
        family = payload["family"]
        if "n" in payload and "l" in payload:
            raise ValueError("give n or l, not both")
        n_or_l = _integer(payload["n"], "n") if "n" in payload else _real(payload["l"], "l")
        seed = RngSeed(_integer(payload["seed"], "seed"), _integer(payload.get("stream", 0), "stream"))
        kwargs = {}
        if "offsets" in payload or family == "geometric1d":  # the default offsets are not (k, radius) pairs
            kwargs["offsets"] = _sweep_offsets(family, payload["offsets"])
        if "properties" in payload:
            props = payload["properties"]
            if not (isinstance(props, list) and all(isinstance(x, str) for x in props)):
                raise ValueError(f"'properties' must be a list of names, got {props!r}")
            kwargs["properties"] = tuple(props)
        if "exact_limit" in payload:
            kwargs["exact_limit"] = _integer(payload["exact_limit"], "exact_limit")
        return SweepSpec(
            family=family,
            n_or_l=n_or_l,
            r=_integer(payload["r"], "r"),
            trials=_integer(payload["trials"], "trials"),
            base_seed=seed,
            **kwargs,
        )
