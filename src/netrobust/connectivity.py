"""Vertex connectivity by unit-capacity max-flow over a node-split digraph,
behind a ladder of cheap certificates that settle most graphs without a flow."""

from __future__ import annotations

import logging

from .graph import Graph, _spread, is_connected, iter_bits, min_degree

_log = logging.getLogger("netrobust.connectivity")


class _SplitFlow:
    """Unit-capacity max-flow on the node-split digraph of g, searched with
    bitmask frontiers.

    Node v stands for an arc in_v -> out_v and edge {u, v} for the arcs
    out_u -> in_v and out_v -> in_u, all of capacity 1, so a flow of value k
    from out_s to in_t is k internally node-disjoint s-t paths. The split
    digraph is never built. res[v] is the bitmask of residual arcs
    out_v -> in_w: the adjacency row of v less the flow edge leaving v.

    Built once per graph and reused for every terminal pair: max_flow puts
    back the rows it changed before it returns, so each call starts from
    zero flow. calls, seeded and augmented count the max_flow calls, the
    paths laid by their warm starts and their BFS augmentations.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.res = list(g.adj)
        self.calls = self.seeded = self.augmented = 0

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """Number of internally node-disjoint s-t paths for non-adjacent s, t,
        counted up to limit.

        A warm start lays the short paths first: s -> w -> t for each common
        neighbour w, then, greedily in node order, s -> x -> y -> t over nodes
        no path uses yet. Each is recorded exactly as an augmentation would
        record it, so the search below may still cancel it.

        Each further augmenting path comes from a BFS over the residual
        states, one layer of in-states and one of out-states at a time:

        - out_v -> in_w for w in res[v];
        - out_v -> in_v if flow passes through v (cancelling it);
        - in_w -> out_w if no flow passes through w;
        - in_w -> out_pred[w] if flow passes through w (cancelling the edge
          pred[w] -> w).
        """
        adj, res = self.adj, self.res
        t_bit = 1 << t
        pred: dict = {}  # flow edge pred[w] -> w, for every w with flow through it
        succ: dict = {}  # flow edge v -> succ[v], likewise
        busy = 0  # bitmask of the nodes with flow through them
        touched = [s]  # rows of res that lost a bit
        flow = 0
        common = adj[s] & adj[t]
        while common and flow < limit:
            bit = common & -common
            common ^= bit
            w = bit.bit_length() - 1
            res[s] ^= bit
            res[w] ^= t_bit
            touched.append(w)
            pred[w], succ[w] = s, t
            busy |= bit
            flow += 1
        if flow < limit:
            firsts = adj[s] & ~busy
            lasts = adj[t] & ~busy
            while firsts:
                bit = firsts & -firsts
                firsts ^= bit
                x = bit.bit_length() - 1
                ys = adj[x] & lasts
                if not ys:
                    continue
                y_bit = ys & -ys
                y = y_bit.bit_length() - 1
                lasts ^= y_bit
                res[s] ^= bit
                res[x] ^= y_bit
                res[y] ^= t_bit
                touched += (x, y)
                pred[x], succ[x], pred[y], succ[y] = s, y, x, t
                busy |= bit | y_bit
                flow += 1
                if flow == limit:
                    break
        self.calls += 1
        self.seeded += flow
        while flow < limit:
            outs = []  # outs[i]: the out-states first reached in layer i
            seen_in = seen_out = frontier = 1 << s
            while frontier:
                outs.append(frontier)
                step = 0
                f = frontier
                while f and not step & t_bit:
                    low = f & -f
                    f ^= low
                    step |= res[low.bit_length() - 1]
                if step & t_bit:
                    break
                step = (step | frontier & busy) & ~seen_in
                seen_in |= step
                frontier = step & ~busy
                f = step & busy
                while f:
                    low = f & -f
                    f ^= low
                    frontier |= 1 << pred[low.bit_length() - 1]
                frontier &= ~seen_out
                seen_out |= frontier
            else:
                break  # in_t is out of reach: the flow is maximum
            # Walk back from in_t: in_w was reached from some out_u of the
            # previous layer, and out_u from in_u, or from in_succ[u] when
            # flow passes through u.
            added, removed = [], []
            w = t
            for frontier in reversed(outs):
                f = frontier & adj[w]
                while f:
                    low = f & -f
                    u = low.bit_length() - 1
                    if res[u] >> w & 1:
                        break
                    f ^= low
                else:
                    u = w  # out_w -> in_w, cancelling the flow through w
                if u != w:
                    added.append((u, w))
                if busy >> u & 1:
                    removed.append((u, succ[u]))
                    w = succ[u]
                else:
                    w = u
            for u, w in removed:
                res[u] |= 1 << w
                del succ[u], pred[w]
                busy &= ~(1 << w)
            for u, w in added:
                res[u] &= ~(1 << w)
                touched.append(u)
                if u != s:
                    succ[u] = w
                if w != t:
                    pred[w] = u
                    busy |= 1 << w
            flow += 1
            self.augmented += 1
        for v in touched:
            res[v] = adj[v]
        return flow


def _kappa_upto_two(g: Graph) -> int:
    """min(kappa, 2) for n >= 3, from one depth-first lowpoint scan from node
    0 on the bit rows.

    The next child of v is the lowest bit of adj[v] & unvisited. An
    undirected DFS has no cross edges (a finished node would have reached
    every unvisited neighbour itself), so a subtree's lowpoint lies above
    its parent p iff the union of its rows meets the path above p. A
    non-root p is a cut vertex iff some child's subtree fails that test; the
    root is one iff it has a second child. Every step is a few bitmask
    operations; no neighbour is visited one at a time. With no cut vertex,
    the scan has visited all of node 0's component, so a node left
    unvisited means kappa = 0; a cut vertex costs one BFS to tell kappa = 0
    from kappa = 1.
    """
    adj = g.adj
    unvisited = g.full_mask() ^ 1
    stack = []  # (node, bit, mask of its ancestors, reach) for each ancestor of v
    v, vbit, up, reach = 0, 1, 0, adj[0]  # reach: rows of v and its finished descendants
    while True:
        fresh = adj[v] & unvisited
        if fresh:
            bit = fresh & -fresh
            unvisited ^= bit
            stack.append((v, vbit, up, reach))
            v, vbit, up = bit.bit_length() - 1, bit, up | vbit
            reach = adj[v]
            continue
        if not stack:
            break  # node 0 is isolated
        v, vbit, up, earlier = stack.pop()
        if not up:  # back at the root: a second child is one the first one's subtree missed
            if adj[0] & unvisited:
                return int(is_connected(g))
            break
        if not reach & up:
            return int(is_connected(g))
        reach |= earlier
    return 0 if unvisited else 2


def _ladder(g: Graph, k: int, exact: bool) -> tuple[int, str]:
    """The one decision path of both public functions, for k <= min degree
    (k = 0 only on a disconnected graph).

    Returns (c, how). With exact, c = min(kappa, k); without, c >= k iff
    kappa >= k, and the flows stop at the first terminal pair that falls
    short of k. how names what settled c: a certificate, or the flow work.
    The cheap certificates come first:

    - for k <= 1, one BFS: a disconnected graph has kappa = 0, and a
      connected one meets k;
    - for k >= 2, the bit-row lowpoint scan gives min(kappa, 2), which
      settles c when it is below 2 or when k = 2 (with k = delta, every
      graph with delta <= 2 is settled here);
    - a complete graph has kappa = n - 1.

    Only then are the Esfahanian-Hakimi terminal pairs flowed, each up to
    best, the smallest flow so far; exact flows stop at the scan's bound 2.
    linked holds the nodes that no set of fewer than best nodes cuts from s.
    A non-neighbour of s with best linked neighbours is linked too, as such
    a set misses one of them: this contagion spares most of the s-t flows.
    It keeps its counts of linked neighbours from one terminal to the next
    and recounts them only when a short flow lowers best.
    """
    if k <= 1:
        return (1, "delta <= 2") if is_connected(g) else (0, "disconnected")
    low = _kappa_upto_two(g)
    if low < 2:
        return low, ("disconnected", "cut vertex")[low]
    if k == 2:
        return 2, "delta <= 2"
    if k == g.n - 1:
        return k, "complete"
    net = _SplitFlow(g)
    adj, s = g.adj, min(range(g.n), key=g.degree)
    best, closed, linked = k, 0, adj[s] | 1 << s

    def pairs():  # reads best as the loop below lowers it
        nonlocal closed, linked
        counted = 0  # the threshold levels counts for, or 0 before any count
        while True:
            if best != counted:  # a fixpoint at a higher threshold need not be one at best
                counted, levels, bit = best, [0] * best, linked
            for newly in _spread(adj, linked, best, bit, levels):
                closed += newly.bit_count()
                linked |= newly
            bit = ~linked & linked + 1  # the lowest unlinked node
            if bit >> g.n:
                break
            linked |= bit
            yield s, bit.bit_length() - 1
        for x in iter_bits(adj[s]):
            for y in iter_bits(adj[s] & ~adj[x] >> x + 1 << x + 1):
                yield x, y

    for u, v in pairs():
        flow = net.max_flow(u, v, best)
        if flow < best:
            best = flow
            if not exact or best == 2:
                break
    return best, f"flowed pairs={net.calls}, closed={closed}, seeded={net.seeded}, augmented={net.augmented}"


def vertex_connectivity(g: Graph) -> int:
    """Largest k such that every node pair is joined by k node-disjoint paths.

    n-1 for complete graphs, 0 iff disconnected. Decided by _ladder with
    k = min degree; each call logs what decided it at DEBUG level on
    "netrobust.connectivity".
    """
    if g.n < 2:
        raise ValueError("connectivity undefined")
    kappa, how = _ladder(g, min_degree(g), exact=True)
    _log.debug("connectivity %d: %s", kappa, how)
    return kappa


def connectivity_at_least(g: Graph, k: int) -> bool:
    """Exact decision vertex_connectivity(g) >= k.

    k <= 0 holds and k above the min degree fails at once; otherwise _ladder
    decides, with flows only when k >= 3 and no certificate settles it,
    stopping at the first terminal pair with fewer than k paths.
    """
    if g.n < 2:
        raise ValueError("connectivity undefined")
    if k <= 0:
        return True
    if k > min_degree(g):
        return False
    return _ladder(g, k, exact=False)[0] >= k
