"""W-MSR resilient consensus under F-local adversaries, and threshold contagion."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ResourceGuardError
from .graph import Graph, _node_mask, _spread, iter_bits, set_of
from .generators import rng_for
from .robustness import check_subsets_reachable

_log = logging.getLogger("netrobust.dynamics")

# Guard for the all-seed-sets contagion simulation: C(n, m) blows up fast.
SIMULATE_NODE_LIMIT = 12

# Slack for float roundoff when asserting the consensus validity invariant.
_VALIDITY_SLACK = 1e-9
# Up to this many padded cells, one neighbor matrix for all nodes costs fewer
# numpy calls a round than one per degree class, and little memory.
_PAD_CELLS = 2**16


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
    Among equal values the later entry is dropped first. Values are compared
    as float64; the retained ones are returned as given.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    if mode not in ("strict", "literal"):
        raise ValueError("mode must be 'strict' or 'literal'")
    vals = list(neighbor_values)  # the one-row case of _kept, listed last first
    row = np.array(vals[::-1], dtype=float).reshape(1, -1)
    keep = _kept(row, own, np.ones(row.shape, bool), [0], f, mode)
    return [x for x, k in zip(vals, keep[0, ::-1]) if k]


def _kept(values, own, keep, rows, f: int, mode: str):
    """Which entries of each row of values W-MSR keeps, of those keep marks,
    for rows that list a node's neighbors last first (rows indexes them): f
    passes drop the largest candidate, f the smallest (in strict mode only
    values above, or below, own are candidates); of equal ones the last goes."""
    if f == 0 or not values.size:
        return keep
    # int64 keys in float order: + 0.0 ties -0.0 with 0.0, and a negative
    # float's magnitude bits are flipped so that larger ones sort lower.
    bits = (values + 0.0).view(np.int64)
    key, none = bits ^ ((bits >> 63) & (2**63 - 1)), -(2**63)
    for order, beyond in ((key, np.greater), (~key, np.less)):
        cand = keep & beyond(values, own) if mode == "strict" else keep
        left = np.where(cand, order, none)
        for _ in range(f):
            # A row's first maximum is the last of equals; with no candidate
            # left, argmax names a cell that holds none already.
            left[rows, left.argmax(axis=1)] = none
        keep = keep ^ cand ^ (left > none)
    return keep


def _neighbor_blocks(g: Graph) -> list:
    """(nodes, idx, real, rows) per block: row j of idx lists the neighbors of
    nodes[j] last first, after padding with n, the index of a spare value
    slot; real marks the neighbors, rows numbers the rows. A block holds the
    nodes whose degree rounds up to one power of two, padding at most 4m + n
    cells in all, unless one block of the maximum degree pads at most
    _PAD_CELLS."""
    nbrs = [list(iter_bits(row)) for row in g.adj]
    top = max(map(len, nbrs), default=0)
    blocks: dict = {}
    for v, row in enumerate(nbrs):
        w = top if top * g.n <= _PAD_CELLS else 1 << max(len(row) - 1, 0).bit_length()
        blocks.setdefault(max(w, 1), []).append(v)
    for w, nodes in blocks.items():
        idx = np.full((len(nodes), w), g.n, np.intp)
        for j, v in enumerate(nodes):
            idx[j, w - len(nbrs[v]):] = nbrs[v][::-1]
        blocks[w] = (np.array(nodes), idx, idx < g.n, np.arange(len(nodes)))
    return [blocks[w] for w in sorted(blocks)]


def _wmsr_update(blocks, values, config: ConsensusConfig, round_index: int, rng) -> list:
    """One round for all nodes at once, a block of _neighbor_blocks at a time."""
    n = len(values)
    x = np.array([*values, 0.0], dtype=float)
    total, count = np.empty(n), np.empty(n)
    for nodes, idx, real, rows in blocks:
        nbr = x[idx]
        keep = _kept(nbr, x[nodes, None], real, rows, config.f_parameter, config.filter_mode)
        # accumulate adds entry after entry from each row's far end, keeping
        # each partial sum: a left fold in neighbor order; + 0.0 makes it one
        # from 0.0 (-0.0 becomes 0.0).
        total[nodes] = np.add.accumulate(np.where(keep, nbr, 0.0)[:, ::-1], axis=1)[:, -1] + 0.0
        count[nodes] = keep.sum(axis=1)
    out = ((x[:n] + total) / (1 + count)).tolist()
    for v in sorted(config.adversary_set):
        out[v] = config.adversary_strategy[v].broadcast(round_index, rng)
    return out


def wmsr_round(g: Graph, values, config: ConsensusConfig, round_index: int = 1, rng=None):
    """One synchronous update: normal nodes average their own value with the
    filtered neighbor values (equal weights); adversaries broadcast per strategy.
    Values are taken as float64."""
    if len(values) != g.n:
        raise ValueError("one value per node required")
    if not validate_f_local(g, config.adversary_set, config.f_parameter):
        raise ValueError("adversary placement violates F-local")
    return _wmsr_update(_neighbor_blocks(g), values, config, round_index, rng)


def run_consensus(g: Graph, initial_values, config: ConsensusConfig) -> ConsensusTrace:
    """Iterate wmsr_round until the normal-node spread drops under epsilon or
    max_rounds is hit, checking F-locality once, before the first round. Also
    enforces the validity invariant: normal values never leave the initial
    normal [min, max] envelope. Values are taken as float64."""
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
    values, at = list(initial_values), np.array(normal)
    spread, blocks = hi - lo, []
    if not spread < config.convergence_epsilon:
        if not validate_f_local(g, config.adversary_set, config.f_parameter):
            raise ValueError("adversary placement violates F-local")
        blocks = _neighbor_blocks(g)
    k = 0
    while not spread < config.convergence_epsilon and k < config.max_rounds:
        k += 1
        values = _wmsr_update(blocks, values, config, k, rng)
        rounds.append(tuple(values))
        now = np.array(values, dtype=float)[at]
        least, most = now.min(), now.max()
        if not (lo - slack <= least and most <= hi + slack):  # also if a value is NaN
            v = next(v for v in normal if not lo - slack <= values[v] <= hi + slack)
            raise RuntimeError(f"validity violated: node {v} left [{lo}, {hi}] at round {k}")
        spread = float(most - least) + 0.0  # max and min may be zeros of opposite signs
    converged = spread < config.convergence_epsilon
    if _log.isEnabledFor(logging.DEBUG):
        state, widths = "converged" if converged else "not converged", [b[1].shape[1] for b in blocks]
        _log.debug("consensus %s after %d rounds: spread %r, n=%d, widths=%s", state, k, spread, g.n, widths)
    return ConsensusTrace(tuple(rounds), converged, spread)


@dataclass(frozen=True)
class CascadeState:
    infected: frozenset
    threshold: int
    round: int = 0

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be positive")


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

    Both methods make one subset-reachability check (every set with size
    <= n-m must be r-reachable), a walk over the seed sets; simulate holds
    it to the tighter SIMULATE_NODE_LIMIT guard.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if m < r:
        raise ValueError("m must be at least r")
    if m >= g.n:
        raise ValueError("m must be smaller than the node count")
    if method not in ("exact", "simulate"):
        raise ValueError("method must be 'exact' or 'simulate'")
    if method == "simulate" and g.n > SIMULATE_NODE_LIMIT:
        raise ResourceGuardError(
            f"simulate method enumerates C(n, m) seed sets; n={g.n} exceeds "
            f"the guard {SIMULATE_NODE_LIMIT}"
        )
    return check_subsets_reachable(g, r, g.n - m)
