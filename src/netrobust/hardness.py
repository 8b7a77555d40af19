"""NAE3SAT instances and the degree-cut reduction graphs built from them.

Every formula turns into a graph made of two block cliques (True / False),
a two-node gadget per variable, and a nine-node gadget per clause; relaxed
degree cuts of that graph correspond exactly to not-all-equal satisfying
assignments, and the translators in both directions live here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .errors import ResourceGuardError
from .graph import Graph, _from_rows, _node_mask, mask_of
from .robustness import TriPartition, _reach

# 2^t assignments; beyond this the brute-force satisfiability oracle refuses.
NAE_VARIABLE_LIMIT = 24

# Largest gadget graph the builders assemble. The two block cliques hold up
# to about half the nodes each, so edges grow with the square of the node
# count: 2,500 nodes is at most about 1.6 million edges.
GADGET_NODE_LIMIT = 2500

# Clause-gadget internal wiring on labels 1..9; literal nodes are 1, 5, 9.
_CLAUSE_INTERNAL = ((2, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8))
# (block slot, attached labels): slot 0 shared by 1 and 2, slot 3 by 8 and 9.
_CLAUSE_BLOCK = ((0, (1, 2)), (1, (3,)), (2, (7,)), (3, (8, 9)))
_LITERAL_LABELS = (1, 5, 9)


@dataclass(frozen=True)
class CnfFormula:
    """num_variables t, clauses as 3-tuples of (variable index 1..t, polarity)."""

    num_variables: int
    clauses: tuple

    def __post_init__(self):
        if self.num_variables < 1:
            raise ValueError("num_variables must be positive")
        frozen = []
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("each clause needs exactly 3 literals")
            lits = []
            for var, polarity in clause:
                if not 1 <= var <= self.num_variables:
                    raise ValueError("literal variable index out of range")
                lits.append((int(var), bool(polarity)))
            frozen.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(frozen))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(bool(v) for v in self.values))

    def value_of(self, literal) -> bool:
        var, polarity = literal
        return self.values[var - 1] if polarity else not self.values[var - 1]


@dataclass(frozen=True)
class Role:
    """Node label inside a gadget graph.

    kinds: true_block / false_block (no params), variable_node (variable
    index, "pos"/"neg"), clause_node (clause index, label 1..9),
    block_support (owner node index, block "true"/"false").
    """

    kind: str
    param1: object = None
    param2: object = None


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    roles: tuple
    formula: CnfFormula
    rho: int
    copies: int = 1


def nae_check(phi: CnfFormula, a: Assignment) -> bool:
    """True iff every clause gets at least one true and one false literal."""
    if len(a.values) != phi.num_variables:
        raise ValueError("assignment size does not match the formula")
    for clause in phi.clauses:
        truths = [a.value_of(lit) for lit in clause]
        if all(truths) or not any(truths):
            return False
    return True


def nae3sat_satisfiable(phi: CnfFormula):
    """First NAE-satisfying assignment in lexicographic order (False < True),
    or None. Brute force, guarded."""
    t = phi.num_variables
    if t > NAE_VARIABLE_LIMIT:
        raise ResourceGuardError(
            f"brute force over 2^{t} assignments exceeds the guard "
            f"t <= {NAE_VARIABLE_LIMIT}"
        )
    for bits in range(1 << t):
        a = Assignment(tuple(bool(bits >> (t - 1 - k) & 1) for k in range(t)))
        if nae_check(phi, a):
            return a
    return None


def enumerate_nae3sat(num_variables: int, num_clauses: int):
    """All formulas with these exact dimensions, deduplicated up to literal
    order within clauses and clause order within the formula."""
    lits = sorted(
        (v, p) for v in range(1, num_variables + 1) for p in (False, True)
    )
    clauses = list(itertools.combinations_with_replacement(lits, 3))
    for combo in itertools.combinations_with_replacement(clauses, num_clauses):
        yield CnfFormula(num_variables, combo)


def _append_core(phi, rho, base, roles, edges, tb_members, fb_members):
    """Emit one copy's nodes and non-clique edges starting at index base.

    Block cliques are completed later by the assembler (they may span copies).
    Returns the next free node index.
    """
    m = phi.num_clauses
    t = phi.num_variables
    nb = 4 * m + t
    tb0, fb0 = base, base + nb
    v0 = base + 2 * nb
    c0 = v0 + 2 * t

    def var_node(i, polarity):
        return v0 + 2 * (i - 1) + (0 if polarity else 1)

    def cnode(j, label):
        return c0 + 9 * (j - 1) + (label - 1)

    tb_members.extend(range(tb0, tb0 + nb))
    fb_members.extend(range(fb0, fb0 + nb))
    roles.extend([Role("true_block")] * nb)
    roles.extend([Role("false_block")] * nb)
    for i in range(1, t + 1):
        roles.append(Role("variable_node", i, "pos"))
        roles.append(Role("variable_node", i, "neg"))
    for j in range(1, m + 1):
        for label in range(1, 10):
            roles.append(Role("clause_node", j, label))

    # variable gadgets: v_i and its negation share T_i and F_i, no edge between
    for i in range(1, t + 1):
        ti, fi = tb0 + 4 * m + i - 1, fb0 + 4 * m + i - 1
        for polarity in (True, False):
            edges.append((var_node(i, polarity), ti))
            edges.append((var_node(i, polarity), fi))

    for j, clause in enumerate(phi.clauses, start=1):
        for a, b in _CLAUSE_INTERNAL:
            edges.append((cnode(j, a), cnode(j, b)))
        for slot, labels in _CLAUSE_BLOCK:
            for label in labels:
                edges.append((cnode(j, label), tb0 + 4 * (j - 1) + slot))
                edges.append((cnode(j, label), fb0 + 4 * (j - 1) + slot))
        for pos, label in enumerate(_LITERAL_LABELS):
            var, polarity = clause[pos]
            edges.append((cnode(j, label), var_node(var, polarity)))

    nxt = c0 + 9 * m
    if rho > 1:
        # supports (i): each block node gains rho-1 helpers in the other block;
        # supports (ii): each gadget node gains rho-1 helpers in each block
        supports = [(owner, "false", fb_members) for owner in range(tb0, tb0 + nb)]
        supports += [(owner, "true", tb_members) for owner in range(fb0, fb0 + nb)]
        supports += [
            (owner, block, members)
            for owner in range(v0, c0 + 9 * m)
            for block, members in (("true", tb_members), ("false", fb_members))
        ]
        for owner, block, members in supports:
            for _ in range(rho - 1):
                roles.append(Role("block_support", owner, block))
                members.append(nxt)
                edges.append((owner, nxt))
                nxt += 1
    return nxt


def _gadget_nodes(phi: CnfFormula, rho: int, copies: int) -> int:
    """Node count of _assemble's graph: per copy, two blocks of 4m + t nodes
    and 2t + 9m gadget nodes, with rho - 1 supports per block node and
    2(rho - 1) per gadget node."""
    m, t = phi.num_clauses, phi.num_variables
    return copies * (2 * (4 * m + t) * rho + (2 * t + 9 * m) * (2 * rho - 1))


def _assemble(phi: CnfFormula, rho: int, copies: int) -> GadgetGraph:
    n = _gadget_nodes(phi, rho, copies)
    if n > GADGET_NODE_LIMIT:
        raise ResourceGuardError(
            f"gadget graph of {n} nodes exceeds the guard {GADGET_NODE_LIMIT}"
        )
    roles: list = []
    edges: list = []
    tb_members: list = []
    fb_members: list = []
    base = 0
    for _ in range(copies):
        base = _append_core(phi, rho, base, roles, edges, tb_members, fb_members)
    rows = [0] * base
    for members in (tb_members, fb_members):
        block = mask_of(members)
        for v in members:
            rows[v] |= block ^ (1 << v)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return GadgetGraph(
        graph=_from_rows(base, rows),
        roles=tuple(roles),
        formula=phi,
        rho=rho,
        copies=copies,
    )


def build_g_phi(phi: CnfFormula) -> GadgetGraph:
    """Single-copy construction: 2(4m+t) block nodes, 2t variable nodes,
    9m clause nodes."""
    return _assemble(phi, 1, 1)


def build_h_phi(phi: CnfFormula) -> GadgetGraph:
    """Three copies with the True blocks merged into one clique, False likewise."""
    return _assemble(phi, 1, 3)


def build_g_rho_phi(phi: CnfFormula, rho: int) -> GadgetGraph:
    """Support-augmented copy: blocks grow to (4m+t)rho + (9m+2t)(rho-1)."""
    if rho < 1:
        raise ValueError("rho must be positive")
    return _assemble(phi, rho, 1)


def build_h_rho_phi(phi: CnfFormula, rho: int) -> GadgetGraph:
    """2*rho+1 support-augmented copies with merged blocks."""
    if rho < 1:
        raise ValueError("rho must be positive")
    return _assemble(phi, rho, 2 * rho + 1)


def _role_side(role: Role, a: Assignment, truths) -> bool:
    """True means the True-block side (set A) under the deterministic cut rule."""
    if role.kind == "true_block":
        return True
    if role.kind == "false_block":
        return False
    if role.kind == "block_support":
        return role.param2 == "true"
    if role.kind == "variable_node":
        val = a.values[role.param1 - 1]
        return val if role.param2 == "pos" else not val
    b1, b2, b3 = truths[role.param1 - 1]
    label = role.param2
    if label == 1:
        return b1
    if label == 5:
        return b2
    if label == 9:
        return b3
    # 2, 3, 4 oppose literal node 1; 6, 7, 8 oppose literal node 9
    return not b1 if label in (2, 3, 4) else not b3


def cut_from_assignment(gg: GadgetGraph, a: Assignment) -> TriPartition:
    """Bipartition realizing the assignment: True block plus True-valued
    gadget nodes in A, the rest in B, X empty. Verified before returning."""
    if not nae_check(gg.formula, a):
        raise ValueError("no valid cut exists for this assignment")
    truths = [
        tuple(a.value_of(lit) for lit in clause) for clause in gg.formula.clauses
    ]
    side_a, side_b = [], []
    for node, role in enumerate(gg.roles):
        (side_a if _role_side(role, a, truths) else side_b).append(node)
    cut = TriPartition(frozenset(side_a), frozenset(side_b), frozenset())
    if not verify_cut(gg, cut, gg.rho, relaxed=True):
        raise AssertionError("constructed cut failed verification")
    return cut


def verify_cut(gg, cut: TriPartition, rho: int, relaxed: bool) -> bool:
    """Whether each node of A (resp. B) has at most rho neighbors outside A
    (resp. B). Accepts a GadgetGraph or a bare Graph."""
    g = gg.graph if isinstance(gg, GadgetGraph) else gg
    am, bm, xm = (_node_mask(g, s, "cut") for s in (cut.set_a, cut.set_b, cut.set_x))
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if (am | bm | xm) != g.full_mask():
        raise ValueError("cut does not cover all nodes")
    if relaxed and xm:
        raise ValueError("relaxed cut must have an empty X")
    return max(_reach(g.adj, am), _reach(g.adj, bm)) <= rho


def assignment_from_cut(gg: GadgetGraph, cut: TriPartition) -> Assignment:
    """Read the assignment off a verified cut: x_i true iff v_i sits on the
    True block's side. Multi-copy graphs read the first copy (every copy's
    pair must still be opposed)."""
    if not verify_cut(gg, cut, gg.rho, relaxed=not cut.set_x):
        raise ValueError("cut does not verify at the gadget graph's rho")
    in_a = cut.set_a
    tb_sides = {n in in_a for n, r in enumerate(gg.roles) if r.kind == "true_block"}
    fb_sides = {n in in_a for n, r in enumerate(gg.roles) if r.kind == "false_block"}
    if len(tb_sides) != 1 or len(fb_sides) != 1:
        raise ValueError("block split across the cut")
    tb_in_a = tb_sides.pop()
    if tb_in_a == fb_sides.pop():
        raise ValueError("degenerate cut: both blocks on one side")
    nodes_of = defaultdict(list)
    for n, r in enumerate(gg.roles):
        if r.kind == "variable_node":
            nodes_of[(r.param1, r.param2)].append(n)
    values = []
    for i in range(1, gg.formula.num_variables + 1):
        for pn, nn in zip(nodes_of[(i, "pos")], nodes_of[(i, "neg")]):
            if ((pn in in_a) == tb_in_a) == ((nn in in_a) == tb_in_a):
                raise ValueError("variable pair on the same side")
        values.append((nodes_of[(i, "pos")][0] in in_a) == tb_in_a)
    return Assignment(tuple(values))
