"""Reference checks that do not trust the code under test.

Nothing in this module imports netrobust. Every check recomputes its answer
from plain edge lists, Python sets and numpy arrays, so a defect in the
library cannot also hide the evidence of itself. In particular the cut
recount below shares no code with the library's own witness checks.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An item's output disagrees with a reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def adjacency(n: int, edges) -> list:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def min_degree(n: int, edges) -> int:
    return min(len(s) for s in adjacency(n, edges))


def recount_cut(nbrs: list, side_a, side_b, side_x, rho: int) -> None:
    """Raise unless (A, B, X) is a rho-degree cut of the graph with these
    neighbour sets: A and B nonempty, the three sides a partition of the
    nodes, and every node of A (of B) with at most rho neighbours outside A
    (outside B)."""
    a, b, x = set(side_a), set(side_b), set(side_x)
    require(bool(a) and bool(b), "cut witness has an empty side")
    require(not (a & b or a & x or b & x), "cut witness sides overlap")
    require(a | b | x == set(range(len(nbrs))), "cut witness does not cover the nodes")
    for side in (a, b):
        for v in side:
            outside = len(nbrs[v] - side)
            require(outside <= rho, f"node {v} has {outside} > {rho} neighbours across the cut")


def nae_holds(clauses, values) -> bool:
    """clauses: ((var 1..t, polarity), ...) triples; values: t booleans."""
    for clause in clauses:
        truths = {values[var - 1] == polarity for var, polarity in clause}
        if len(truths) != 2:
            return False
    return True


def nae_satisfiable(clauses, t: int) -> bool:
    return any(
        nae_holds(clauses, [bool(bits >> k & 1) for k in range(t)])
        for bits in range(1 << t)
    )


def gadget_nodes(m: int, t: int, rho: int) -> int:
    """Closed-form node count of the rho-augmented single-copy gadget graph."""
    base = 2 * (4 * m + t) + 2 * t + 9 * m
    return base + 2 * (rho - 1) * (4 * m + t) + 2 * (rho - 1) * (9 * m + 2 * t)


def er_threshold(n: int, r: int) -> float:
    return (math.log(n) + (r - 1) * math.log(math.log(n))) / n


def er_min_degree_flags(entropy: int, stream: int, n: int, r: int, offsets) -> list:
    """Whether G(n, p) has minimum degree >= r at each coupled offset.

    Draws the per-pair uniforms from the documented PCG64 stream contract
    (SeedSequence(entropy, spawn_key=(stream,))) and counts degrees with
    numpy, independently of the library's graph code.
    """
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(stream,))
    u = np.random.Generator(np.random.PCG64(ss)).random(n * (n - 1) // 2)
    iu, ju = np.triu_indices(n, 1)
    t = er_threshold(n, r)
    flags = []
    for x in offsets:
        p = min(1.0, max(0.0, t + float(x) / n))
        present = u < p
        deg = np.bincount(iu[present], minlength=n) + np.bincount(ju[present], minlength=n)
        flags.append(bool(deg.min() >= r))
    return flags


def nondecreasing(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def cascade_rows(nbrs: list, initial, r: int) -> list:
    """(round, infected count, newly infected) rows of synchronous
    threshold-r contagion up to its fixpoint; the seed set is round 0."""
    infected = set(initial)
    rows = [(0, len(infected), len(infected))]
    k = 0
    while True:
        newly = {
            v
            for v in range(len(nbrs))
            if v not in infected and len(nbrs[v] & infected) >= r
        }
        if not newly:
            return rows
        k += 1
        infected |= newly
        rows.append((k, len(infected), len(newly)))


def within_envelope(rounds, normal, slack: float) -> None:
    """Raise unless every normal node stays inside the [min, max] of the
    initial normal values in every round (W-MSR validity)."""
    first = rounds[0]
    lo = min(first[v] for v in normal)
    hi = max(first[v] for v in normal)
    for k, row in enumerate(rounds):
        for v in normal:
            require(
                lo - slack <= row[v] <= hi + slack,
                f"validity: node {v} at {row[v]!r} left [{lo!r}, {hi!r}] in round {k}",
            )
