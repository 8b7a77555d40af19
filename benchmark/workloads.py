"""The four benchmark workloads: seeded inputs, the timed call into
netrobust, and the output check for each item.

Every library call goes through a module object fetched from sys.modules at
call time (``lib("robustness").robustness``), so the traced run can swap in
wrappers and take them out again. Inputs come only from the seed given on
the command line; the library sees nothing but the generated inputs.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    adjacency,
    cascade_rows,
    er_min_degree_flags,
    er_threshold,
    gadget_nodes,
    min_degree,
    nae_holds,
    nae_satisfiable,
    nondecreasing,
    recount_cut,
    require,
    within_envelope,
)


def lib(module: str):
    # The package re-exports functions under its submodules' names
    # (netrobust.robustness is a function), so resolve through importlib.
    return importlib.import_module("netrobust." + module)


def interleave(strata: list) -> list:
    """Merge strata so that every prefix holds them in their overall
    proportions; a run that stops anywhere sees the intended mix."""
    keyed = []
    for s, items in enumerate(strata):
        for j, item in enumerate(items):
            keyed.append(((j + 0.5) / len(items), s, item))
    keyed.sort(key=lambda e: (e[0], e[1]))
    return [item for _, _, item in keyed]


def write_edgelist(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


class Workload:
    """One corpus of items. build() is set-up; run() is the only timed call;
    check() raises CheckFailed or returns a JSON-ready outcome that must be
    identical wherever the same item runs again."""

    name = ""
    warmup_items = 1  # items run once, untimed, at the end of set-up
    trace_items = 1  # fixed item count of each traced pass

    def __init__(self):
        # Memoised references; the corpus repeats within a run and across
        # the set-up repetitions, which rebuild the same corpus.
        self._reference: dict = {}

    def prepare_once(self) -> None:
        """One-time cache fills that belong to set-up."""

    def build(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError

    def reference(self, key, compute):
        if key not in self._reference:
            self._reference[key] = compute()
        return self._reference[key]


# --------------------------------------------------------------- exact_decide


@dataclass
class GraphItem:
    index: int
    family: str
    path: Path
    n: int
    edges: tuple
    robustness: int | None = None  # closed form, where theory gives one
    connectivity: int | None = None


class ExactDecide(Workload):
    """read_graph + robustness + vertex_connectivity on connected graphs of
    14-24 nodes: the CLI `robustness` path and the degree/connectivity chain."""

    name = "exact_decide"
    # family -> graphs in the corpus. The cheap families get twice the
    # weight so that the median item sits inside one cluster of costs
    # instead of in the gap between the cheap and the searched graphs.
    # A run times the corpus about five times.
    families = {
        "pa2": 84, "threshold": 84, "geometric": 84, "counterexample": 84,
        "pa3": 42, "pa4": 42, "dense": 42, "complete": 16,
    }
    warmup_items = len(families)
    trace_items = 80

    def build(self, seed, workdir):
        # Sizes and densities run over fixed grids; the seed picks the graphs.
        # Near-threshold and geometric graphs keep minimum degree <= 2, the
        # sparse regime they stand for, which also bounds the exponential
        # tail of a single item.
        gen = lib("generators")
        graph = lib("graph")
        stream = 0

        def sample(make, max_degree=None):
            nonlocal stream
            while True:
                stream += 1
                g = make(gen.RngSeed(seed, stream))
                if graph.is_connected(g) and (max_degree is None or graph.min_degree(g) <= max_degree):
                    return g

        strata = []
        for family, size in self.families.items():
            rows = []
            for j in range(size):
                rob = conn = None
                if family.startswith("pa"):
                    r = int(family[2])
                    n = {2: 18 + j % 7, 3: 16 + j % 7, 4: 14 + j % 5}[r]
                    g = sample(lambda s: gen.gen_preferential(n, r, s))
                    rob = r  # r-robust seed clique, r new edges per node, min degree r
                elif family == "dense":
                    n, p = 14, (0.5, 0.55, 0.6)[j % 3]
                    g = sample(lambda s: gen.gen_erdos_renyi(n, p, s))
                elif family == "threshold":
                    n = 18 + j % 7
                    p = er_threshold(n, 2) + (0.0, 1.0, 2.0, 3.0)[j // 7 % 4] / n
                    g = sample(lambda s: gen.gen_erdos_renyi(n, p, s), max_degree=2)
                elif family == "geometric":
                    n, radius = 16 + j % 9, (0.2, 0.225, 0.25)[j // 9 % 3]
                    g = sample(lambda s: gen.gen_geometric(n, radius, 1.0, 1, s)[0], max_degree=2)
                elif family == "complete":
                    n = 10 + j % 4
                    g = graph.complete(n)
                    rob, conn = (n + 1) // 2, n - 1
                else:
                    n = 14 + 2 * (j % 6)
                    g = graph.counterexample(n)
                    rob, conn = 1, n // 2
                edges = tuple(g.edges())
                path = workdir / f"{family}-{j:03d}.edges"
                write_edgelist(path, g.n, edges)
                rows.append(GraphItem(0, family, path, g.n, edges, rob, conn))
            strata.append(rows)
        items = interleave(strata)
        for i, item in enumerate(items):
            item.index = i
        return items

    def run(self, item):
        g = lib("io").read_graph(item.path)
        return lib("robustness").robustness(g), lib("connectivity").vertex_connectivity(g)

    def check(self, item, result):
        rob, conn = result
        delta = min_degree(item.n, item.edges)
        require(0 <= rob <= conn <= delta, f"chain robustness {rob} <= connectivity {conn} <= min degree {delta} fails")
        if item.robustness is not None:
            require(rob == item.robustness, f"robustness {rob}, closed form {item.robustness}")
        if item.connectivity is not None:
            require(conn == item.connectivity, f"connectivity {conn}, closed form {item.connectivity}")
        if item.n <= 12:
            def oracle():
                g = lib("graph").Graph(item.n, item.edges)
                naive = lib("robustness").naive_is_r_robust
                return next(r for r in range(item.n + 1) if not naive(g, r + 1))

            exact = self.reference(item.edges, oracle)
            require(rob == exact, f"robustness {rob}, pair-enumeration oracle {exact}")
        return [rob, conn]


# ---------------------------------------------------------------- nae_gadgets


@dataclass
class FormulaItem:
    index: int
    t: int
    m: int
    formula: object
    clauses: tuple


class NaeGadgets(Workload):
    """build_g_phi -> relaxed rho=1 search -> build_g_rho_phi(., 2) -> relaxed
    rho=2 search on up to 116 nodes, then assignment_from_cut per cut found."""

    name = "nae_gadgets"
    # (t, m) -> formulas sampled; the small strata are taken whole.
    strata = {(1, 1): 4, (1, 2): 10, (2, 1): 20, (2, 2): 60, (3, 1): 56, (3, 2): 90}
    warmup_items = len(strata)
    trace_items = sum(strata.values())

    def build(self, seed, workdir):
        rng = random.Random(f"nae_gadgets:{seed}")
        enumerate_nae3sat = lib("hardness").enumerate_nae3sat
        strata = []
        for (t, m), k in self.strata.items():
            population = list(enumerate_nae3sat(t, m))
            # Satisfiable and unsatisfiable formulas are sampled apart, in the
            # population's proportions: an unsatisfiable one costs a full
            # search, so a sample that drew more of them would move the
            # timings with the seed.
            sat = [phi for phi in population if nae_satisfiable(phi.clauses, t)]
            unsat = [phi for phi in population if not nae_satisfiable(phi.clauses, t)]
            k_unsat = round(k * len(unsat) / len(population))
            for part, size in ((sat, k - k_unsat), (unsat, k_unsat)):
                if size:
                    picked = rng.sample(part, size)
                    strata.append([FormulaItem(0, t, m, phi, phi.clauses) for phi in picked])
        items = interleave(strata)
        for i, item in enumerate(items):
            item.index = i
        return items

    def run(self, item):
        hardness = lib("hardness")
        find = lib("robustness").find_relaxed_degree_cut
        g1 = hardness.build_g_phi(item.formula)
        c1 = find(g1.graph, 1, node_limit=300)
        g2 = hardness.build_g_rho_phi(item.formula, 2)
        c2 = find(g2.graph, 2, node_limit=300)
        a1 = hardness.assignment_from_cut(g1, c1) if c1 is not None else None
        a2 = hardness.assignment_from_cut(g2, c2) if c2 is not None else None
        return (g1, c1, a1, 1), (g2, c2, a2, 2)

    def check(self, item, result):
        def existence():
            own = nae_satisfiable(item.clauses, item.t)
            witness = lib("hardness").nae3sat_satisfiable(item.formula)
            require((witness is not None) == own, "brute-force satisfiability disagrees with the own evaluator")
            require(witness is None or nae_holds(item.clauses, witness.values), "brute-force witness is not NAE")
            return own

        sat = self.reference(item.clauses, existence)
        sizes = []
        for gg, cut, assignment, rho in result:
            n = gg.graph.n
            require(n == gadget_nodes(item.m, item.t, rho), f"rho={rho} gadget has {n} nodes")
            require((cut is not None) == sat, f"rho={rho}: cut {'found' if cut else 'missing'}, satisfiable={sat}")
            if cut is not None:
                require(not cut.set_x, f"rho={rho}: relaxed cut has a nonempty X")
                recount_cut(adjacency(n, gg.graph.edges()), cut.set_a, cut.set_b, cut.set_x, rho)
                require(nae_holds(item.clauses, assignment.values), f"rho={rho}: decoded assignment is not NAE")
            sizes.append(n)
        return [sat] + sizes


# ------------------------------------------------------------------- er_sweep


@dataclass
class SweepItem:
    index: int
    n: int
    r: int
    entropy: int
    stream: int


class ErSweep(Workload):
    """One-trial coupled run_er_sweep calls on advancing streams, two at
    n = 1000, r = 2 (articulation scan) for each one at n = 200, r = 3
    (max-flow), properties min_degree_r and r_connected."""

    name = "er_sweep"
    size = 150  # each item runs about twice in a run
    pattern = ((1000, 2), (1000, 2), (200, 3))
    offsets = (-4.0, -2.0, 0.0, 2.0, 4.0)
    properties = ("min_degree_r", "r_connected")
    warmup_items = len(pattern)
    trace_items = 45

    def prepare_once(self):
        lib("generators").pair_indices(1000)

    def build(self, seed, workdir):
        return [
            SweepItem(i, *self.pattern[i % len(self.pattern)], seed, i)
            for i in range(self.size)
        ]

    def run(self, item):
        gen = lib("generators")
        exp = lib("experiments")
        spec = exp.SweepSpec(
            "erdos_renyi", item.n, item.r, 1, gen.RngSeed(item.entropy, item.stream),
            offsets=self.offsets, properties=self.properties,
        )
        return exp.run_er_sweep(spec)

    def check(self, item, records):
        require(len(records) == len(self.offsets) * len(self.properties), f"{len(records)} records")
        est = {prop: [] for prop in self.properties}
        t = er_threshold(item.n, item.r)
        for k, rec in enumerate(records):
            x = self.offsets[k // len(self.properties)]
            prop = self.properties[k % len(self.properties)]
            require(rec.property == prop and rec.flags.startswith(f"x={x!r}"), f"record {k} out of order")
            require(rec.trials == 1 and rec.seed_lo == rec.seed_hi == item.stream, f"record {k} trial bookkeeping")
            require(abs(rec.param - min(1.0, max(0.0, t + x / item.n))) <= 1e-12, f"record {k} p={rec.param!r}")
            require(rec.estimate in (0.0, 1.0), f"one-trial estimate {rec.estimate!r}")
            est[prop].append(int(rec.estimate))
        for prop, curve in est.items():
            require(nondecreasing(curve), f"{prop} not monotone across coupled offsets: {curve}")
        require(
            all(c <= d for c, d in zip(est["r_connected"], est["min_degree_r"])),
            "r_connected without minimum degree r",
        )
        flags = self.reference(
            item.stream, lambda: er_min_degree_flags(item.entropy, item.stream, item.n, item.r, self.offsets)
        )
        require(est["min_degree_r"] == [int(f) for f in flags], f"min_degree_r {est['min_degree_r']}, numpy {flags}")
        return [est[prop] for prop in self.properties]


# ------------------------------------------------------------------- dynamics


@dataclass
class DynamicsItem:
    index: int
    kind: str
    graph: object
    nbrs: list
    params: dict = field(default_factory=dict)


class Dynamics(Workload):
    """W-MSR consensus on preferential graphs, exact-vs-simulated contagion on
    10 nodes and threshold cascades on 300-1000 nodes, in equal shares.

    Each kind of item is sized to cost tens of milliseconds, so that the
    three kinds overlap and the median item does not fall in a gap between
    them."""

    name = "dynamics"
    per_kind = 40  # small enough that each item runs about six times in a run
    cascade_seeds = 24
    warmup_items = 3
    trace_items = 30

    def build(self, seed, workdir):
        rng = random.Random(f"dynamics:{seed}")
        gen = lib("generators")
        dyn = lib("dynamics")
        stream = 0
        consensus, contagion, cascade = [], [], []
        for j in range(self.per_kind):
            stream += 1
            f = 1 + j % 2
            n = 60 + (17 * j) % 41
            g = gen.gen_preferential(n, 2 * f + 1, gen.RngSeed(seed, stream))
            nbrs = adjacency(n, g.edges())
            adversaries = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))[:f]
            kind = (j // 2) % 3
            if kind == 0:
                strategy = dyn.Constant(rng.uniform(1.5, 3.0))
            elif kind == 1:
                strategy = dyn.UniformRandom(-0.5, 1.5)
            else:
                strategy = dyn.Ramp(-1.0, rng.uniform(0.001, 0.003))
            config = dyn.ConsensusConfig(
                f_parameter=f,
                filter_mode=("strict", "literal")[(j // 6) % 2],
                max_rounds=10**4,
                convergence_epsilon=1e-6,
                adversary_set=frozenset(adversaries),
                adversary_strategy={a: strategy for a in adversaries},
                rng_seed=gen.RngSeed(seed, 10**6 + j),
            )
            initial = [rng.random() for _ in range(n)]
            consensus.append(DynamicsItem(0, "consensus", g, nbrs, {"config": config, "initial": initial}))

            stream += 1
            # 12 nodes would cost four times 10 and form a separate tail
            n, p = 10, (0.4, 0.5, 0.6)[j % 3]
            g = gen.gen_erdos_renyi(n, p, gen.RngSeed(seed, stream))
            contagion.append(DynamicsItem(0, "contagion", g, adjacency(n, g.edges())))

            stream += 1
            # A few fixed sizes: G(n, p) generation caches index arrays per
            # n, so drawing n freely would make peak memory depend on the seed.
            n, c = (300, 500, 700, 1000)[j % 4], (6.0, 8.0, 10.0)[j % 3]
            g = gen.gen_erdos_renyi(n, c / n, gen.RngSeed(seed, stream))
            seeds = [
                frozenset(rng.sample(range(n), rng.randint(n // 50, n // 20)))
                for _ in range(self.cascade_seeds)
            ]
            params = {"r": 2 + j % 2, "seeds": seeds, "source": (seed, stream)}
            cascade.append(DynamicsItem(0, "cascade", g, adjacency(n, g.edges()), params))
        items = interleave([consensus, contagion, cascade])
        for i, item in enumerate(items):
            item.index = i
        return items

    def run(self, item):
        dyn = lib("dynamics")
        g, p = item.graph, item.params
        if item.kind == "consensus":
            return dyn.run_consensus(g, p["initial"], p["config"])
        if item.kind == "contagion":
            return [
                [(dyn.contagion_from_any_m(g, m, r), dyn.contagion_from_any_m(g, m, r, method="simulate"))
                 for m in range(r, g.n)]
                for r in (1, 2, 3)
            ]
        return [dyn.cascade_trace(g, s, p["r"]) for s in item.params["seeds"]]

    def check(self, item, result):
        p = item.params
        if item.kind == "consensus":
            config = p["config"]
            normal = [v for v in range(len(item.nbrs)) if v not in config.adversary_set]
            rounds = result.rounds
            require(tuple(rounds[0]) == tuple(p["initial"]), "round 0 is not the initial state")
            scale = max(1.0, *(abs(p["initial"][v]) for v in normal))
            within_envelope(rounds, normal, 1e-9 * scale)
            last = [rounds[-1][v] for v in normal]
            spread = max(last) - min(last)
            require(result.converged and spread < config.convergence_epsilon, f"no consensus, spread {spread!r}")
            require(result.final_spread == spread, "final_spread disagrees with the last round")
            return [result.converged, len(rounds)]
        if item.kind == "contagion":
            # verdicts[r - 1][m] for seed sets of size m; below m = r there is no verdict
            require(len(result) == 3, f"{len(result)} thresholds")
            verdicts = []
            for r, row in zip((1, 2, 3), result):
                require(len(row) == len(item.nbrs) - r, f"r={r}: {len(row)} seed-set sizes")
                require(all(exact == sim for exact, sim in row), f"r={r}: exact and simulate disagree: {row}")
                by_m = [False] * r + [exact for exact, _ in row]
                require(nondecreasing(by_m[r:]), f"r={r}: verdict not monotone in m: {by_m}")
                require(not verdicts or all(a <= b for a, b in zip(by_m, verdicts[-1])),
                        f"r={r}: a higher threshold spread further")
                verdicts.append(by_m)
            return verdicts
        require(len(result) == len(p["seeds"]), f"{len(result)} traces for {len(p['seeds'])} seed sets")
        outcome = []
        for k, (seed_set, rows) in enumerate(zip(p["seeds"], result)):
            expected = self.reference(
                ("cascade", p["source"], k), lambda: cascade_rows(item.nbrs, seed_set, p["r"])
            )
            require([tuple(row) for row in rows] == expected, "cascade rows differ from the reference fixpoint run")
            outcome.append([list(row) for row in expected])
        return outcome


WORKLOADS = {w.name: w for w in (ExactDecide, NaeGadgets, ErSweep, Dynamics)}
