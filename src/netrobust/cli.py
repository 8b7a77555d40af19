"""Command-line front end.

Exit codes: 0 = decided/completed, 2 = a resource guard tripped, 1 = any
other error. Robustness decisions are exact: certified bounds, then a
branch-and-bound cut search, which is refused by default on more than
--node-limit nodes (the decision problem is coNP-complete); raise it
deliberately. An answer that needs no search is given at any size.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import io as nio
from .dynamics import cascade_trace, run_consensus
from .errors import ResourceGuardError
from .experiments import _FAMILIES, gnuplot_script
from .generators import RngSeed, gen_erdos_renyi, gen_geometric, gen_preferential
from .graph import _node_mask
from .hardness import build_g_phi, build_g_rho_phi, build_h_phi, build_h_rho_phi
from .robustness import (
    DEFAULT_NODE_LIMIT,
    find_degree_cut,
    find_relaxed_degree_cut,
    is_r_robust,
    robustness,
)


def _out_or_stdout(path):
    return sys.stdout if path is None else path


def _check_nodes(g, nodes, path, what: str) -> None:
    """Refuse node ids that g lacks, naming the file that gave them."""
    try:
        _node_mask(g, nodes, what)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _seed(args, default=0) -> RngSeed:
    return RngSeed(default if args.seed is None else args.seed, args.stream)


def _cmd_robustness(args) -> int:
    g = nio.read_graph(args.graphfile)
    if g.n < 2:
        raise ValueError(f"{args.graphfile}: robustness needs at least 2 nodes")
    if args.r is not None:
        verdict = is_r_robust(g, args.r, node_limit=args.node_limit)
        print(f"{args.r}-robust: {'true' if verdict else 'false'}")
    else:
        print(f"robustness: {robustness(g, node_limit=args.node_limit)}")
    return 0


def _cmd_cut(args) -> int:
    g = nio.read_graph(args.graphfile)
    if g.n < 2:
        raise ValueError(f"{args.graphfile}: cut search needs at least 2 nodes")
    search = find_relaxed_degree_cut if args.relaxed else find_degree_cut
    cut = search(g, args.rho, node_limit=args.node_limit)
    if cut is None:
        print("no cut")
    else:
        for name, nodes in (("A", cut.set_a), ("B", cut.set_b), ("X", cut.set_x)):
            print(f"{name}: {' '.join(str(v) for v in sorted(nodes))}".rstrip())
    return 0


def _cmd_gen(args) -> int:
    seed = _seed(args)
    if args.family == "er":
        if args.p is None:
            raise ValueError("gen er needs --p")
        g = gen_erdos_renyi(args.n, args.p, seed)
    elif args.family == "geom":
        if args.radius is None:
            raise ValueError("gen geom needs --radius")
        g, placement = gen_geometric(args.n, args.radius, args.side, args.dim, seed)
        if args.positions_out:
            nio.write_positions(placement, args.positions_out)
    else:
        if args.r is None:
            raise ValueError("gen ba needs --r")
        g = gen_preferential(args.n, args.r, seed)
    nio.write_graph(g, _out_or_stdout(args.out), args.format)
    return 0


_FAMILY_TAGS = {tag: (family, runner) for family, (tag, runner) in _FAMILIES.items()}


def _cmd_sweep(args) -> int:
    family, runner = _FAMILY_TAGS[args.family]
    spec = nio.read_sweep_spec(args.spec)
    if spec.family != family:
        raise ValueError(
            f"spec file is for family {spec.family!r}, subcommand expects {family!r}"
        )
    if args.seed is not None:
        spec = dataclasses.replace(spec, base_seed=RngSeed(args.seed, args.stream))
    if args.gnuplot and (args.out is None or args.format != "csv"):
        raise ValueError("--gnuplot needs --out with the csv format")
    records = runner(spec)
    nio.write_records(records, _out_or_stdout(args.out), args.format)
    if args.gnuplot:
        with nio.opened(args.gnuplot) as fh:
            fh.write(gnuplot_script(args.out, spec.properties) + "\n")
    return 0


def _cmd_consensus(args) -> int:
    g = nio.read_graph(args.graph)
    config, initial = nio.read_consensus_config(args.config)
    _check_nodes(g, config.adversary_set, args.config, "adversary set")
    if len(initial) != g.n:
        raise ValueError(f"{args.config}: {len(initial)} initial values for {g.n} nodes; one per node required")
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=RngSeed(args.seed, args.stream))
    trace = run_consensus(g, initial, config)
    nio.write_consensus_trace(trace, config.adversary_set, _out_or_stdout(args.out))
    print(
        f"converged: {'true' if trace.converged else 'false'} "
        f"rounds: {len(trace.rounds) - 1} final_spread: {trace.final_spread!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_cascade(args) -> int:
    g = nio.read_graph(args.graph)
    seeds = nio.read_node_set(args.seed_set)
    _check_nodes(g, seeds, args.seed_set, "seed set")
    rows = cascade_trace(g, seeds, args.threshold)
    nio.write_cascade_trace(rows, _out_or_stdout(args.out))
    print(
        f"infected: {rows[-1][1]}/{g.n} rounds: {rows[-1][0]}",
        file=sys.stderr,
    )
    return 0


def _cmd_gadget(args) -> int:
    phi = nio.read_formula(args.formula)
    if args.build in ("g", "h") and args.rho != 1:
        raise ValueError("builds g and h are the rho=1 constructions; use grho/hrho")
    builders = {
        "g": lambda: build_g_phi(phi),
        "h": lambda: build_h_phi(phi),
        "grho": lambda: build_g_rho_phi(phi, args.rho),
        "hrho": lambda: build_h_rho_phi(phi, args.rho),
    }
    gg = builders[args.build]()
    nio.write_graph(gg.graph, _out_or_stdout(args.out), args.format)
    if args.roles_out:
        nio.write_roles(gg, args.roles_out)
    print(
        f"nodes: {gg.graph.n} edges: {gg.graph.edge_count()} copies: {gg.copies}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed (where sampling happens)")
    seeded.add_argument("--stream", type=int, default=0, help="RNG stream id")

    parser = argparse.ArgumentParser(
        prog="netrobust",
        description="Exact graph robustness, resilient consensus and contagion "
        "simulation, random-graph sweeps, and satisfiability gadget graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    node_limit_help = "refuse a cut search on more nodes (exit 2); answers that need none come at any size"

    p = sub.add_parser("robustness", help="exact robustness of a graph file")
    p.add_argument("graphfile")
    p.add_argument("--r", type=int, default=None, help="decide r-robustness instead of computing the maximum")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT, help=node_limit_help)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("cut", help="search for a rho-degree cut")
    p.add_argument("graphfile")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--relaxed", action="store_true", help="force X empty (full bipartition)")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT, help=node_limit_help)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("gen", parents=[seeded], help="generate a random graph")
    p.add_argument("family", choices=("er", "geom", "ba"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, help="edge probability (er)")
    p.add_argument("--radius", type=float, help="connection radius (geom)")
    p.add_argument("--side", type=float, default=1.0, help="region side length (geom)")
    p.add_argument("--dim", type=int, default=1, help="dimension (geom)")
    p.add_argument("--r", type=int, help="attachment count (ba)")
    p.add_argument("--out", default=None)
    p.add_argument("--positions-out", default=None)
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", parents=[seeded], help="run a Monte-Carlo sweep from a spec file")
    p.add_argument("family", choices=tuple(_FAMILY_TAGS))
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("consensus", parents=[seeded], help="run W-MSR consensus, trace to CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_consensus)

    # no prefix matching, which would read --seed as --seed-set
    p = sub.add_parser("cascade", allow_abbrev=False, help="run threshold contagion, trace to CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed-set", required=True, dest="seed_set")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("gadget", help="build a reduction graph from a formula file")
    p.add_argument("--formula", required=True)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--build", choices=("g", "h", "grho", "hrho"), default="g")
    p.add_argument("--out", default=None)
    p.add_argument("--roles-out", default=None)
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p.set_defaults(func=_cmd_gadget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (ValueError, OverflowError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
