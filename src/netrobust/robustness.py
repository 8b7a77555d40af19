"""r-reachability, r-robustness, and exact degree-cut search.

A rho-degree cut is a pair of disjoint nonempty node sets (A, B) such that
every node of A has at most rho neighbors outside A and likewise for B;
remaining nodes form an unconstrained set X. A graph is r-robust exactly
when no (r-1)-degree cut exists, so the cut search below is the decision
engine for robustness. The problem is coNP-complete, hence the advisory
node limit, checked as each cut search starts (bounds need no search).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ResourceGuardError
from .graph import Graph, _component, _node_mask, _spread, is_connected, iter_bits, min_degree, set_of

# Advisory guard for the exponential cut search; callers may raise or lift it.
DEFAULT_NODE_LIMIT = 25

# Hard guard for the literal pair-enumeration oracle (3^n pairs).
ORACLE_NODE_LIMIT = 12

# Guard for subset reachability, whose walk visits up to C(n + 1, n - cap)
# seed-set prefixes: those of every (n - cap)-node seed set, empty one included.
SUBSET_ENUM_LIMIT = 26

_A, _B, _X = 0, 1, 2

_log = logging.getLogger("netrobust.robustness")


@dataclass(frozen=True)
class TriPartition:
    """Witness for a degree cut: set_a, set_b nonempty and disjoint, set_x the rest."""

    set_a: frozenset
    set_b: frozenset
    set_x: frozenset

    def __post_init__(self):
        if not self.set_a or not self.set_b:
            raise ValueError("set_a and set_b must be nonempty")
        if self.set_a & self.set_b or self.set_a & self.set_x or self.set_b & self.set_x:
            raise ValueError("partition sets must be pairwise disjoint")


def _validate_set(g: Graph, s: frozenset) -> int:
    if not s:
        raise ValueError("empty set")
    return _node_mask(g, s, "set")


def _reach(adj: list, mask: int) -> int:
    """The largest number of neighbors outside the nonempty mask that a node
    of the mask has: the one recount behind reach_index, is_r_reachable and
    the check of every cut witness (the finders' and verify_cut)."""
    return max((adj[v] & ~mask).bit_count() for v in iter_bits(mask))


def reach_index(g: Graph, s: frozenset) -> int:
    """Max over i in s of the number of i's neighbors outside s."""
    return _reach(g.adj, _validate_set(g, s))


def is_r_reachable(g: Graph, s: frozenset, r: int) -> bool:
    """True iff some node of s has at least r neighbors outside s."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    m = _validate_set(g, s)
    return r == 0 or _reach(g.adj, m) >= r


def _place(rules, rho: int, a: int, b: int, x: int, bit: int, side: int):
    """Assign one node, then run forced-assignment propagation.

    A node of A (or B) with exactly rho assigned outside neighbors pins all
    its unassigned neighbors to its own side; more than rho is a conflict.
    rules is (adj, tie, near, foe): placing v on a side places all of tie[v]
    there too (near[v] is the union of their adjacency rows), and a node of
    foe[v] already on the opposite side is a conflict (see _search_cut).
    Returns settled (a, b, x) masks, or None on conflict.
    """
    adj, tie, near_of, foe = rules
    todo = [(bit, side)]
    while todo:
        new, side = todo.pop()
        if side == _X:
            x |= new
            check = adj[new.bit_length() - 1] & (a | b)
        else:
            own, opp = (a, b) if side == _A else (b, a)
            new &= ~own
            if not new:
                continue
            grown = near = avoid = 0
            while new:
                low = new & -new
                new ^= low
                v = low.bit_length() - 1
                grown |= tie[v]
                near |= near_of[v]
                avoid |= foe[v]
            if grown & (opp | x) or avoid & opp:
                return None
            if side == _A:
                a |= grown
            else:
                b |= grown
            check = (near & (a | b)) | grown
        assigned = a | b | x
        while check:
            ub = check & -check
            check ^= ub
            u = ub.bit_length() - 1
            in_a = bool(ub & a)
            cnt = (adj[u] & assigned & ~(a if in_a else b)).bit_count()
            if cnt > rho:
                return None
            if cnt == rho:
                free = adj[u] & ~assigned
                if free:
                    todo.append((free, _A if in_a else _B))
    return a, b, x


def _strong_pairs(adj: list, rho: int) -> list:
    """strong[v]: neighbors of v sharing at least 2*rho - 1 neighbors with it.

    Such a pair never sits on opposite sides A and B of a rho-cut: the two
    endpoints, plus each common neighbor (wherever it lies), give u and v
    together at least 2 + (2*rho - 1) = 2*rho + 1 outside neighbors, so one
    of them has more than rho.
    """
    need = 2 * rho - 1
    strong = [0] * len(adj)
    for v, row in enumerate(adj):
        higher = row >> (v + 1) << (v + 1)
        while higher:
            low = higher & -higher
            higher ^= low
            u = low.bit_length() - 1
            if (row & adj[u]).bit_count() >= need:
                strong[v] |= low
                strong[u] |= 1 << v
    return strong


def _tie_classes(adj: list, rho: int):
    """tie[v]: the component of v in the graph of strong pairs (see
    _strong_pairs), and near[v]: the union of the adjacency rows of tie[v].

    A pair already tied through other strong pairs is never tested, so a
    clique costs one pass over the star of its first node; nor is a pair
    tested twice, as node v tests only neighbors above v.
    """
    need = 2 * rho - 1
    tie = [1 << v for v in range(len(adj))]
    for v, row in enumerate(adj):
        merged = tie[v]
        rest = (row >> (v + 1) << (v + 1)) & ~merged
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if (row & adj[u]).bit_count() >= need:
                merged |= tie[u]
        if merged != tie[v]:
            rest = merged
            while rest:
                low = rest & -rest
                rest ^= low
                tie[low.bit_length() - 1] = merged
    rows: dict = {}
    for v, t in enumerate(tie):
        rows[t] = rows.get(t, 0) | adj[v]
    return tie, [rows[t] for t in tie]


def _core(adj: list, mask: int, rho: int) -> int:
    """The largest rho-closed subset of mask: every node of it has at most
    rho neighbors outside it. Closed sets are closed under union, so this is
    well defined; it is found by peeling nodes with more than rho outside
    neighbors, re-checking only the neighbors of each node peeled."""
    core = todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        if (adj[v] & ~core).bit_count() > rho:
            core ^= low
            todo |= adj[v] & core
    return core


def _search_cut(g: Graph, rho: int, allow_x: bool, node_limit):
    """Exhaustive branch-and-bound over {A, B, X} labelings.

    Static descending-degree order; the first non-X node is forced into A to
    break the A/B swap symmetry. Strong pairs (_strong_pairs) never sit on
    opposite sides: with X allowed that is checked on placement; with X
    empty each strong-pair component is placed as one block. A rho-cut is
    two disjoint nonempty rho-closed sets (see _core), and the final B is
    one that avoids a | x, so once A is started a branch is dropped unless
    the core of the complement of a | x is nonempty and holds b. That prune
    drops only branches without a cut and keeps the search order, so it
    changes no witness. Depth-first over an explicit stack of pending
    placements, so the depth of the search is not bounded by the
    interpreter's recursion limit. Returns (a_mask, b_mask, x_mask) or None;
    a graph above node_limit is refused before any of it runs.
    """
    _guard(g.n, node_limit)
    n = g.n
    adj = g.adj
    full = g.full_mask()
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    if allow_x:
        rules = (adj, [1 << v for v in range(n)], adj, _strong_pairs(adj, rho))
        first, rest = (_X, _A), (_X, _B, _A)
    else:
        tie, near = _tie_classes(adj, rho)
        rules = (adj, tie, near, [0] * n)
        first, rest = (_A,), (_B, _A)
    # Pending placements, pushed in reverse so that A is tried before B
    # before X, the order the returned witness depends on.
    stack = [(0, 0, 0, 0, side) for side in first]
    while stack:
        a, b, x, idx, side = stack.pop()
        placed = _place(rules, rho, a, b, x, 1 << order[idx], side)
        if placed is None:
            continue
        a, b, x = placed
        assigned = a | b | x
        while idx < n and (1 << order[idx]) & assigned:
            idx += 1
        if idx == n:
            if a and b:
                return a, b, x
            continue
        if a:
            room = _core(adj, full & ~(a | x), rho)
            if not room or b & ~room:
                continue
        for side in rest if a else first:
            stack.append((a, b, x, idx, side))
    return None


def _guard(n: int, node_limit) -> None:
    """Refuse a cut search on n nodes before any of it runs."""
    if node_limit is not None and n > node_limit:
        raise ResourceGuardError(
            f"cut search on {n} nodes exceeds the node limit {node_limit}; "
            "pass a higher node_limit to override (search is exponential)"
        )


def _trivial_cut(g: Graph, rho: int):
    """Cheap witnesses: node 0's component against the rest (rho >= 0) and
    min-degree singletons."""
    a = _component(g, 0)
    if a != g.full_mask():
        return a, g.full_mask() & ~a, 0
    if rho >= 1:
        v = min(range(g.n), key=g.degree)
        if g.degree(v) <= rho:
            a = 1 << v
            b = g.full_mask() & ~a
            return a, b, 0
    return None


def _find_cut(g: Graph, rho: int, node_limit, allow_x: bool):
    """The body of both finders; X stays empty unless allow_x."""
    if g.n < 2:
        raise ValueError("cut search needs at least 2 nodes")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    found = _trivial_cut(g, rho)
    if found is None and rho > 0:
        found = _search_cut(g, rho, allow_x, node_limit)
    if found is None:
        return None
    a, b, x = found
    # Independent check of every witness the search hands back.
    if not (a and b) or a & b or (x and not allow_x):
        raise AssertionError("malformed cut witness")
    if max(_reach(g.adj, a), _reach(g.adj, b)) > rho:
        raise AssertionError("cut witness fails outside-neighbor recount")
    return TriPartition(set_of(a), set_of(b), set_of(x))


def find_degree_cut(g: Graph, rho: int, node_limit=DEFAULT_NODE_LIMIT):
    """A rho-degree cut (A, B, X) of g, or None if none exists. Exact."""
    return _find_cut(g, rho, node_limit, allow_x=True)


def find_relaxed_degree_cut(g: Graph, rho: int, node_limit=DEFAULT_NODE_LIMIT):
    """As find_degree_cut but X forced empty (a full bipartition)."""
    return _find_cut(g, rho, node_limit, allow_x=False)


def _bounds(g: Graph) -> tuple:
    """Certified (lb, ub, lb_from, ub_from) with lb <= robustness(g) <= ub, for
    connected g; lb_from and ub_from name the bound that set each, for the
    decision log.

    ub = min(delta, ceil(n/2)): a min-degree singleton against the rest, or a
    balanced bipartition, is always a cut. lb is the larger of 1 (connected)
    and delta + 1 - floor(n/2) (the smaller side S of a cut has |S| <= n/2,
    so each of its nodes keeps delta - |S| + 1 outside neighbors), raised to
    ub if a clique's closure certifies ub (_clique_closure).
    """
    n = g.n
    delta = min_degree(g)
    half = n // 2
    ub, ub_from = (delta, "delta") if delta <= n - half else (n - half, "ceil(n/2)")
    lb = max(1, delta + 1 - half)
    lb_from = "delta" if lb > 1 else "connectivity"
    if lb < ub and _clique_closure(g.adj, ub):
        lb, lb_from = ub, "closure"
    return lb, ub, lb_from, ub_from


def _clique_closure(adj: list, r: int) -> bool:
    """True if a greedy clique of 2r - 1 or more nodes spreads to every node by
    threshold-r contagion. Then g is r-robust: K_{2r-1} is, and a node joined to
    r nodes of an r-robust graph keeps it so, as does an edge (LeBlanc et al. 2013)."""
    need = 2 * r - 1
    if sum(row.bit_count() >= need - 1 for row in adj) < need:
        return False  # too few nodes of degree 2r - 2 to hold the clique
    for start in sorted(range(len(adj)), key=lambda v: -adj[v].bit_count())[:2]:
        clique, cand = 1 << start, adj[start]
        while cand and clique.bit_count() + cand.bit_count() >= need:
            v = max(iter_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            clique |= 1 << v
            cand &= adj[v]
        if clique.bit_count() >= need and clique + sum(_spread(adj, clique, r)) == (1 << len(adj)) - 1:
            return True
    return False


def is_r_robust(g: Graph, r: int, node_limit=DEFAULT_NODE_LIMIT) -> bool:
    """True iff no (r-1)-degree cut exists; r = 0 is trivially true."""
    if g.n < 2:
        raise ValueError("robustness needs at least 2 nodes")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return True
    if not is_connected(g):
        return False
    if r == 1:
        return True  # connected, and 1-robust iff connected
    if min_degree(g) < r:
        return False  # min-degree singleton plus the rest is an (r-1)-cut
    lb, ub, _, _ = _bounds(g)
    if r <= lb:
        return True
    if r > ub:
        return False
    # At r = ub the closure has just failed inside _bounds.
    return (r < ub and _clique_closure(g.adj, r)) or _search_cut(g, r - 1, True, node_limit) is None


def robustness(g: Graph, node_limit=DEFAULT_NODE_LIMIT) -> int:
    """Largest r with is_r_robust(g, r): the smallest rho admitting a cut.

    Certified bounds (_bounds) first; then an ascending search over the
    rho in [lb, ub) only, ub being the answer when none of them has a cut.
    Each call logs how it was decided at DEBUG level on
    "netrobust.robustness".
    """
    if g.n < 2:
        raise ValueError("robustness needs at least 2 nodes")
    if not is_connected(g):
        _log.debug("robustness 0: disconnected")
        return 0
    lb, ub, lb_from, ub_from = _bounds(g)
    rho = lb
    while rho < ub and _search_cut(g, rho, True, node_limit) is None:
        rho += 1
    if lb == ub:
        _log.debug("robustness %d: lb=ub (lb from %s, ub from %s), no search", rho, lb_from, ub_from)
    else:
        _log.debug(
            "robustness %d: searched rho=%d..%d of [lb=%d from %s, ub=%d from %s)",
            rho, lb, min(rho, ub - 1), lb, lb_from, ub, ub_from,
        )
    return rho


def _subset_guard(n: int, cap: int) -> None:
    """Refuse a subset enumeration on n nodes before any of it runs."""
    if not 1 <= cap <= n - 1:
        raise ValueError("cap must be between 1 and n-1")
    if n > SUBSET_ENUM_LIMIT:
        raise ResourceGuardError(
            f"subset enumeration on {n} nodes exceeds the guard {SUBSET_ENUM_LIMIT}"
        )


def check_subsets_reachable(g: Graph, r: int, cap: int) -> bool:
    """True iff every nonempty node set of size <= cap is r-reachable.

    A set S is not r-reachable exactly when threshold-r contagion from V - S
    never enters it, so this asks whether every seed set of n - cap nodes
    infects all nodes (_every_seed_set_spreads). Note the one-directional
    bridge to robustness: if this holds with cap = floor(n/2) the graph is
    r-robust (the smaller set of any disjoint pair fits under the cap); the
    converse fails in general.
    """
    n = g.n
    _subset_guard(n, cap)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return True
    if r > min_degree(g):
        return False  # a node of lower degree is a singleton that is not r-reachable
    return _every_seed_set_spreads(g.adj, n - cap, r)


def _every_seed_set_spreads(adj: list, m: int, r: int) -> bool:
    """Whether threshold-r contagion (r >= 1) from every m-node seed set
    infects all nodes: the closure of every seed set, reached depth-first over
    seed prefixes in combination order: cl(T + u) = cl(cl(T) + u), and once a
    prefix infects all, so does every seed set that extends it."""
    n, full = len(adj), (1 << len(adj)) - 1

    def walk(start: int, left: int, closure: int, levels: list) -> bool:
        # Whether every left more seeds from start on complete the closure;
        # levels count the closure's infected neighbours (see _spread).
        if closure == full or not left:
            return closure == full
        for v in range(start, n - left + 1):
            bit = 1 << v
            if closure & bit:
                grown, counts = closure, levels
            else:
                counts = levels[:]
                grown = closure + bit + sum(_spread(adj, closure + bit, r, bit, counts))
            if not walk(v + 1, left - 1, grown, counts):
                return False
        return True

    return walk(0, m, 0, [0] * r)


def _naive_robustness(g: Graph) -> int:
    adj = g.adj
    full = g.full_mask()
    reach = [0] * (full + 1)
    for m in range(1, full + 1):
        best = 0
        mm = m
        while mm:
            vb = mm & -mm
            mm ^= vb
            c = (adj[vb.bit_length() - 1] & ~m).bit_count()
            if c > best:
                best = c
        reach[m] = best
    rob = g.n
    for s1 in range(1, full + 1):
        comp = full & ~s1
        r1 = reach[s1]
        if r1 >= rob:
            # every pair containing s1 already meets the current minimum
            continue
        s2 = comp
        while s2:
            pair = reach[s2]
            if pair < r1:
                pair = r1
            if pair < rob:
                rob = pair
                if rob == 0:
                    return 0
            s2 = (s2 - 1) & comp
    return rob


def naive_is_r_robust(g: Graph, r: int) -> bool:
    """Literal Definition-2 oracle: every disjoint nonempty pair has an
    r-reachable member. Enumerates all pairs; guarded to small n."""
    if g.n < 2:
        raise ValueError("robustness needs at least 2 nodes")
    if g.n > ORACLE_NODE_LIMIT:
        raise ResourceGuardError("oracle size exceeded")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return True
    return r <= _naive_robustness(g)
