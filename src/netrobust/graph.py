"""Simple undirected graphs with bitset adjacency rows, plus named constructors."""

from __future__ import annotations

from typing import Iterable, Iterator

def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset:
    return frozenset(iter_bits(mask))


def _node_mask(g: Graph, nodes, what: str) -> int:
    # Range first: mask_of would allocate 1 << v bits for a far-off id v.
    outside = [v for v in nodes if not 0 <= v < g.n]
    if outside:
        raise ValueError(
            f"{what} contains nodes outside the graph: node {min(outside)} (the graph has {g.n} nodes)"
        )
    return mask_of(nodes)


class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Adjacency is one Python int bitmask per node, so membership tests and
    outside-neighbor counts are constant-time popcounts. Instances are
    treated as immutable once built.

    There are two ways to build one. ``Graph(n, edges)`` is the checked path
    for edges from files and users: it rejects out-of-range ends, self-loops
    and duplicate edges one edge at a time. ``_from_rows(n, rows)`` is the
    trusted path for the library's own generators, whose rows are symmetric
    and loop-free by construction; it runs no per-edge checks.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if self.adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted lexicographically."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _from_rows(n: int, rows: list) -> Graph:
    """The graph with these adjacency rows, which must be n symmetric,
    loop-free bitmasks; nothing is checked."""
    g = Graph(n)
    g.adj = rows
    return g


def _component(g: Graph, v: int) -> int:
    """Bitmask of the connected component holding v, by one frontier BFS."""
    visited = frontier = 1 << v
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~visited
        visited |= frontier
    return visited


def component_masks(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if not seen >> v & 1:
            out.append(_component(g, v))
            seen |= out[-1]
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _component(g, 0) == g.full_mask()


# Up to this threshold _spread keeps bit-row counts of infected neighbours.
# A row's carry can climb r - 1 levels, so above it the popcount test wins on
# dense graphs with many seeds (timings in README, "How the dynamics run").
_LEVELS_UPTO = 3


def _spread(adj: list, imask: int, r: int, newly: int | None = None, levels: list | None = None):
    """Masks of the nodes newly infected in each round of threshold-r contagion
    from imask, up to the fixpoint. Only the rows of newly (default imask) are
    counted afresh; imask & ~newly must already be a fixpoint.

    For r <= _LEVELS_UPTO, levels[k] holds the nodes with more than k infected
    neighbours. Each infected node's row is added once, by an ascending carry
    that stops when it is empty or at level r - 1, and a round infects
    levels[r - 1] & ~imask. A given levels must count imask & ~newly; it is
    updated in place and counts the fixpoint once the rounds are exhausted.
    Without it every row of imask is counted. For larger r a round tests only
    uninfected neighbours of the nodes infected the round before (the seeds,
    at first), as no other count rose, and levels is not read."""
    newly = imask if newly is None else newly
    if r <= _LEVELS_UPTO:
        if levels is None:
            levels, newly = [0] * r, imask
        top = r - 1
        while True:
            while newly:
                low = newly & -newly
                newly ^= low
                carry, k = adj[low.bit_length() - 1], 0
                while k < top:
                    level = levels[k]
                    levels[k] = level | carry
                    carry &= level
                    if not carry:
                        break
                    k += 1
                else:
                    levels[top] |= carry
            newly = levels[top] & ~imask
            if not newly:
                return
            imask |= newly
            yield newly
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


def min_degree(g: Graph) -> int:
    """Smallest node degree; errors on the empty graph."""
    if g.n == 0:
        raise ValueError("empty graph")
    return min(row.bit_count() for row in g.adj)


def with_added_node(g: Graph, neighbors: frozenset) -> Graph:
    """New graph with node index n attached to the given nonempty neighbor set."""
    if not neighbors:
        raise ValueError("empty neighbor set")
    for v in neighbors:
        if not 0 <= v < g.n:
            raise ValueError(f"neighbor {v} out of range")
    edges = list(g.edges()) + [(v, g.n) for v in sorted(neighbors)]
    return Graph(g.n + 1, edges)


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return Graph(n, sorted(edges))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 node")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def counterexample(n: int) -> Graph:
    """Two n/2-cliques joined by a perfect matching (node i matched to i + n/2).

    Minimum degree and connectivity are both n/2, yet the two cliques form a
    1-degree cut, so the graph is only 1-robust.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("counterexample graph needs even n >= 4")
    half = n // 2
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [(u + half, v + half) for u in range(half) for v in range(u + 1, half)]
    edges += [(i, i + half) for i in range(half)]
    return Graph(n, sorted(edges))
