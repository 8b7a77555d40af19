"""W-MSR resilient consensus under F-local adversaries, and threshold contagion."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .errors import ResourceGuardError
from .graph import Graph, _node_mask, iter_bits, set_of
from .generators import rng_for
from .robustness import check_subsets_reachable

# Guard for the all-seed-sets contagion simulation: C(n, m) blows up fast.
SIMULATE_NODE_LIMIT = 12

# Slack for float roundoff when asserting the consensus validity invariant.
_VALIDITY_SLACK = 1e-9


@dataclass(frozen=True)
class Constant:
    """Adversary broadcasts a fixed value every round."""

    value: float

    def broadcast(self, round_index: int, rng) -> float:
        return self.value


@dataclass(frozen=True)
class UniformRandom:
    """Adversary broadcasts a fresh uniform draw from [low, high] each round."""

    low: float
    high: float

    def __post_init__(self):
        if self.high < self.low:
            raise ValueError("low must not exceed high")

    def broadcast(self, round_index: int, rng) -> float:
        if rng is None:
            raise ValueError("uniform_random adversary strategy needs an rng seed")
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Ramp:
    """Adversary broadcasts start + slope * round, growing without bound."""

    start: float
    slope: float

    def broadcast(self, round_index: int, rng) -> float:
        return self.start + self.slope * round_index


@dataclass
class ConsensusConfig:
    f_parameter: int
    filter_mode: str = "strict"
    max_rounds: int = 1000
    convergence_epsilon: float = 1e-6
    adversary_set: frozenset = frozenset()
    adversary_strategy: dict = field(default_factory=dict)
    rng_seed: object = None

    def __post_init__(self):
        if self.f_parameter < 0:
            raise ValueError("f_parameter must be nonnegative")
        if self.filter_mode not in ("strict", "literal"):
            raise ValueError("filter_mode must be 'strict' or 'literal'")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.convergence_epsilon <= 0:
            raise ValueError("convergence_epsilon must be positive")
        if set(self.adversary_strategy) != set(self.adversary_set):
            raise ValueError("adversary_strategy must cover exactly the adversary nodes")


@dataclass(frozen=True)
class ConsensusTrace:
    rounds: tuple
    converged: bool
    final_spread: float


def validate_f_local(g: Graph, adversaries: frozenset, f: int) -> bool:
    """True iff every normal node has at most f adversarial neighbors."""
    amask = _node_mask(g, adversaries, "adversary set")
    normal = iter_bits(g.full_mask() & ~amask)
    return all((g.adj[v] & amask).bit_count() <= f for v in normal)


def wmsr_filter(own: float, neighbor_values: list, f: int, mode: str = "strict") -> list:
    """Retained neighbor values after dropping up to f per extreme side.

    strict: drop the min(f, count) largest values strictly greater than own
    and the min(f, count) smallest strictly less than own. literal: drop the
    f largest and f smallest unconditionally (everything if <= 2f values).
    Ties break by list position, earlier entries kept.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    if mode not in ("strict", "literal"):
        raise ValueError("mode must be 'strict' or 'literal'")
    return _filter(own, list(neighbor_values), f, mode)


def _filter(own: float, vals: list, f: int, mode: str) -> list:
    """wmsr_filter without the argument checks; drops from vals in place."""
    if f == 0:
        return vals
    idx = range(len(vals))
    # Stable sorts by value of ascending (high) and descending (low) positions put
    # later duplicates first among the extremes; literal drops all of <= 2f values.
    if mode == "strict":
        high = sorted([i for i in idx if vals[i] > own], key=vals.__getitem__)[-f:]
        low = [i for i in reversed(idx) if vals[i] < own]
    else:
        high = sorted(idx, key=vals.__getitem__)[-f:]
        low = [i for i in reversed(idx) if i not in high]
    for i in sorted(high + sorted(low, key=vals.__getitem__)[:f], reverse=True):
        del vals[i]
    return vals


def _wmsr_update(nbrs: list, values, config: ConsensusConfig, round_index: int, rng) -> list:
    f, mode, strategy = config.f_parameter, config.filter_mode, config.adversary_strategy
    out = []
    for v, own in enumerate(values):
        if v in config.adversary_set:
            out.append(strategy[v].broadcast(round_index, rng))
        else:
            kept = _filter(own, [values[u] for u in nbrs[v]], f, mode)
            out.append((own + sum(kept)) / (1 + len(kept)))
    return out


def wmsr_round(g: Graph, values, config: ConsensusConfig, round_index: int = 1, rng=None):
    """One synchronous update: normal nodes average their own value with the
    filtered neighbor values (equal weights); adversaries broadcast per strategy."""
    if len(values) != g.n:
        raise ValueError("one value per node required")
    if not validate_f_local(g, config.adversary_set, config.f_parameter):
        raise ValueError("adversary placement violates F-local")
    return _wmsr_update([list(iter_bits(row)) for row in g.adj], values, config, round_index, rng)


def _normal_spread(values, normal) -> float:
    vals = [values[v] for v in normal]
    return max(vals) - min(vals)


def run_consensus(g: Graph, initial_values, config: ConsensusConfig) -> ConsensusTrace:
    """Iterate wmsr_round until the normal-node spread drops under epsilon or
    max_rounds is hit, checking F-locality once, before the first round. Also
    enforces the validity invariant: normal values never leave the initial
    normal [min, max] envelope."""
    if len(initial_values) != g.n:
        raise ValueError("one initial value per node required")
    normal = [v for v in range(g.n) if v not in config.adversary_set]
    if not normal:
        raise ValueError("at least one normal node required")
    rng = rng_for(config.rng_seed) if config.rng_seed is not None else None
    lo = min(initial_values[v] for v in normal)
    hi = max(initial_values[v] for v in normal)
    slack = _VALIDITY_SLACK * max(1.0, abs(lo), abs(hi))
    rounds = [tuple(float(x) for x in initial_values)]
    values = list(initial_values)
    spread = _normal_spread(values, normal)
    if not spread < config.convergence_epsilon:
        if not validate_f_local(g, config.adversary_set, config.f_parameter):
            raise ValueError("adversary placement violates F-local")
        nbrs = [list(iter_bits(row)) for row in g.adj]
    k = 0
    while not spread < config.convergence_epsilon and k < config.max_rounds:
        k += 1
        values = _wmsr_update(nbrs, values, config, k, rng)
        rounds.append(tuple(values))
        for v in normal:
            if not lo - slack <= values[v] <= hi + slack:
                raise RuntimeError(
                    f"validity violated: node {v} left [{lo}, {hi}] at round {k}"
                )
        spread = _normal_spread(values, normal)
    return ConsensusTrace(tuple(rounds), spread < config.convergence_epsilon, spread)


@dataclass(frozen=True)
class CascadeState:
    infected: frozenset
    threshold: int
    round: int = 0

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be positive")


def _spread(adj: list, imask: int, r: int):
    """Masks of the nodes newly infected in each round of threshold-r contagion
    from imask, up to the fixpoint. A round tests only uninfected neighbors of the
    nodes infected the round before (the seeds, at first): no other count rose."""
    newly = imask
    while True:
        frontier = 0
        while newly:
            low = newly & -newly
            newly ^= low
            frontier |= adj[low.bit_length() - 1]
        newly = 0
        fresh = frontier & ~imask
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            if (adj[low.bit_length() - 1] & imask).bit_count() >= r:
                newly |= low
        if not newly:
            return
        imask |= newly
        yield newly


def cascade_step(g: Graph, state: CascadeState) -> CascadeState:
    """Simultaneously infect every node with >= threshold infected neighbors."""
    imask = _node_mask(g, state.infected, "infected set")
    newly = next(_spread(g.adj, imask, state.threshold), 0)
    return replace(state, infected=state.infected | set_of(newly), round=state.round + 1)


def _seed_mask(g: Graph, initial, r: int) -> int:
    if not initial:
        raise ValueError("empty initial set")
    return _node_mask(g, CascadeState(frozenset(initial), r).infected, "infected set")


def run_cascade(g: Graph, initial: frozenset, r: int):
    """Run threshold-r contagion to its fixpoint; returns (final set, productive rounds)."""
    imask = _seed_mask(g, initial, r)
    rounds = list(_spread(g.adj, imask, r))
    return set_of(imask + sum(rounds)), len(rounds)  # the masks are disjoint


def cascade_trace(g: Graph, initial: frozenset, r: int):
    """(round, infected_count, newly_infected) rows up to the fixpoint; the
    seed set counts as round 0."""
    imask = _seed_mask(g, initial, r)
    rows = [(0, imask.bit_count(), imask.bit_count())]
    for k, newly in enumerate(_spread(g.adj, imask, r), 1):
        rows.append((k, rows[-1][1] + newly.bit_count(), newly.bit_count()))
    return rows


def contagion_from_any_m(g: Graph, m: int, r: int, method: str = "exact") -> bool:
    """Whether threshold-r contagion from every size-m seed set infects all nodes.

    exact: equivalent subset-reachability check (every set with size <= n-m
    must be r-reachable). simulate: literally run every seed set (guarded).
    """
    if r < 1:
        raise ValueError("r must be positive")
    if m < r:
        raise ValueError("m must be at least r")
    if m >= g.n:
        raise ValueError("m must be smaller than the node count")
    if method == "exact":
        return check_subsets_reachable(g, r, g.n - m)
    if method == "simulate":
        if g.n > SIMULATE_NODE_LIMIT:
            raise ResourceGuardError(
                f"simulate method enumerates C(n, m) seed sets; n={g.n} exceeds "
                f"the guard {SIMULATE_NODE_LIMIT}"
            )
        bits = [1 << v for v in range(g.n)]
        seeds = map(sum, itertools.combinations(bits, m))
        return all(s + sum(_spread(g.adj, s, r)) == g.full_mask() for s in seeds)
    raise ValueError("method must be 'exact' or 'simulate'")
