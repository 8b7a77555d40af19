"""Vertex connectivity by unit-capacity max-flow over a node-split digraph."""

from __future__ import annotations

from .graph import Graph, is_connected, iter_bits, min_degree


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
    zero flow.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.res = list(g.adj)

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """Number of internally node-disjoint s-t paths for non-adjacent s, t,
        counted up to limit.

        Each augmenting path comes from a BFS over the residual states, one
        layer of in-states and one of out-states at a time:

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
        touched = []  # rows of res that lost a bit
        flow = 0
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
                for w in iter_bits(step & busy):
                    frontier |= 1 << pred[w]
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
                for u in iter_bits(frontier & adj[w]):
                    if res[u] >> w & 1:
                        break
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
        for v in touched:
            res[v] = adj[v]
        return flow


def _terminal_pairs(g: Graph):
    """Pairs covering some minimum cut: a min-degree node against its
    non-neighbors, plus non-adjacent pairs among its neighbors."""
    s = min(range(g.n), key=g.degree)
    nbrs = list(iter_bits(g.adj[s]))
    for t in range(g.n):
        if t != s and not g.has_edge(s, t):
            yield s, t
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            if not g.has_edge(x, y):
                yield x, y


def vertex_connectivity(g: Graph) -> int:
    """Largest k such that every node pair is joined by k node-disjoint paths.

    n-1 for complete graphs, 0 iff disconnected.
    """
    if g.n < 2:
        raise ValueError("connectivity undefined")
    if not is_connected(g):
        return 0
    best = min_degree(g)
    if best == g.n - 1:
        return best  # complete graph convention
    net = _SplitFlow(g)
    for u, v in _terminal_pairs(g):
        best = min(best, net.max_flow(u, v, best))
        if best == 0:
            break
    return best


def _has_articulation_point(g: Graph) -> bool:
    """Depth-first lowpoint scan on the bit rows; assumes g is connected,
    n >= 3.

    The next child of v is the lowest bit of adj[v] & ~visited. An
    undirected DFS has no cross edges (a finished node would have reached
    every unvisited neighbour itself), so a subtree's lowpoint lies above
    its parent p iff the union of its rows meets the path above p. A
    non-root p is a cut vertex iff some child's subtree fails that test; the
    root is one iff it has a second child. Every step is a few bitmask
    operations; no neighbour is visited one at a time.
    """
    adj = g.adj
    visited = 1
    path = [0]
    upto = [1]  # upto[i]: mask of path[0..i]
    reach = [adj[0]]  # reach[i]: rows of path[i] and its finished descendants
    while path:
        fresh = adj[path[-1]] & ~visited
        if fresh:
            if len(path) == 1 and visited != 1:
                return True  # a second root child, which the first one's subtree missed
            bit = fresh & -fresh
            visited |= bit
            path.append(bit.bit_length() - 1)
            upto.append(upto[-1] | bit)
            reach.append(adj[path[-1]])
            continue
        path.pop()
        upto.pop()
        below = reach.pop()
        if len(path) >= 2:
            if not below & upto[-2]:
                return True
            reach[-1] |= below
    return False


def connectivity_at_least(g: Graph, k: int) -> bool:
    """Exact decision vertex_connectivity(g) >= k, with fast small-k paths."""
    if g.n < 2:
        raise ValueError("connectivity undefined")
    if k <= 0:
        return True
    if k > g.n - 1:
        return False
    delta = min_degree(g)
    if delta < k:
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    if k == 2:
        return not _has_articulation_point(g)
    if delta == g.n - 1:
        return True  # complete
    net = _SplitFlow(g)
    for u, v in _terminal_pairs(g):
        if net.max_flow(u, v, k) < k:
            return False
    return True
