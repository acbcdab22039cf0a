"""Small immutable graphs on up to 32 labeled vertices.

Vertices are integers 0..n-1 and every vertex set is a bit mask, so the
primitives below (cliques, chromatic number, complement, join) reduce to
mask arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce

MAX_VERTICES = 32
CHROMATIC_MAX_VERTICES = 16

# An edge is a pair (u, v) with u < v.
Edge = tuple[int, int]


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(namedtuple("Graph", "n adj")):
    """Undirected simple graph; adj[v] is the neighbor mask of vertex v.

    A tuple (n, adj) that keeps an instance dict for its cached properties.
    """

    def __new__(cls, n: int, adj: tuple[int, ...]):
        self = tuple.__new__(cls, (n, adj))
        self._validate()
        return self

    def _validate(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if mask >> v & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
        for u in range(self.n):
            row = self.adj[u]
            for v in bits(row >> (u + 1) << (u + 1)):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges (u, v) with u < v, in lexicographic order."""
        out = []
        for u, row in enumerate(self.adj):
            row &= -2 << u
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return tuple(out)

    def non_edges(self) -> list[Edge]:
        """All non-adjacent pairs (u, v) with u < v, in lexicographic order."""
        full = self.full_mask
        out = []
        for u, row in enumerate(self.adj):
            rest = full & ~row & -2 << u
            while rest:
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return out

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2


def unchecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without validation, for rows that are symmetric,
    loop-free and within 0..n-1 by construction (a decoded graph6 line, or a
    valid graph plus one new vertex)."""
    return tuple.__new__(Graph, (n, adj))


def _check_edge(g: Graph, e: Edge) -> Edge:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ValueError(f"edge {e} out of range for a graph on {g.n} vertices")
    return (u, v) if u < v else (v, u)


def from_edges(n: int, edges) -> Graph:
    """Build a graph on n vertices from an iterable of (u, v) pairs."""
    adj = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complete_multipartite_graph(parts) -> Graph:
    """Complete multipartite graph with the given part sizes, parts in order."""
    parts = list(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    return reduce(join, map(empty_graph, parts))


def add_edge(g: Graph, e: Edge) -> Graph:
    """Return g plus the non-edge e; g itself is unchanged."""
    u, v = _check_edge(g, e)
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def remove_edge(g: Graph, e: Edge) -> Graph:
    """Return g minus the edge e; g itself is unchanged."""
    u, v = _check_edge(g, e)
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all cross edges; g's vertices come first."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join has {n} > {MAX_VERTICES} vertices")
    h_block = ((1 << h.n) - 1) << g.n
    g_block = (1 << g.n) - 1
    adj = [g.adj[v] | h_block for v in range(g.n)]
    adj += [(h.adj[v] << g.n) | g_block for v in range(h.n)]
    return Graph(n, tuple(adj))


def induced_subgraph(g: Graph, within: int) -> Graph:
    """Subgraph induced by the vertex mask, relabeled to 0..k-1 in mask order."""
    verts = list(bits(within & g.full_mask))
    if not verts:
        raise ValueError("induced subgraph must keep at least one vertex")
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in bits(g.adj[v] & within):
            adj[i] |= 1 << pos[w]
    return Graph(len(verts), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, g.full_mask & ~(1 << v))


def degree_stats(g: Graph) -> tuple[int, int, tuple[int, ...]]:
    """Return (min degree, max degree, per-vertex degree tuple)."""
    degs = tuple(m.bit_count() for m in g.adj)
    return min(degs), max(degs), degs


def _max_clique(adj, cand: int, size: int, best: int) -> int:
    while cand:
        if size + cand.bit_count() <= best:
            return best
        v = (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        if size + 1 > best:
            best = size + 1
        best = _max_clique(adj, cand & adj[v], size + 1, best)
    return best


def clique_number(g: Graph) -> int:
    """Exact clique number by branch and bound over neighbor masks."""
    return _max_clique(g.adj, g.full_mask, 0, 0)


def mask_has_clique(adj, cand: int, need: int) -> bool:
    """True iff the vertices of cand contain a clique of size need (K_0 always)."""
    if need <= 0:
        return True
    if need == 1:
        return cand != 0
    while cand:
        if cand.bit_count() < need:
            return False
        v = (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        if mask_has_clique(adj, cand & adj[v], need - 1):
            return True
    return False


def first_free_non_edge(classes, non_edges: list[Edge]) -> int:
    """Index of the first non-edge uv that some (adj, need) pair of classes
    leaves free: the common neighborhood adj[u] & adj[v] holds no K_need.

    Adding uv to a K_t-free graph closes a K_t exactly when that
    neighborhood holds a K_{t-2}.  Returns len(non_edges) when no non-edge
    is free.
    """
    for index, (u, v) in enumerate(non_edges):
        for adj, need in classes:
            if not mask_has_clique(adj, adj[u] & adj[v], need):
                return index
    return len(non_edges)


def has_clique(g: Graph, t: int) -> bool:
    """True iff g contains K_t."""
    if t < 1:
        raise ValueError("clique size must be at least 1")
    return mask_has_clique(g.adj, g.full_mask, t)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; branch and bound, vertices in max-degree order."""
    if g.n > CHROMATIC_MAX_VERTICES:
        raise ValueError(
            f"chromatic_number supports at most {CHROMATIC_MAX_VERTICES} vertices"
        )
    n = g.n
    lower = clique_number(g)
    adj = g.adj
    # sorted is stable, so ties keep ascending vertex order.
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    # Greedy upper bound along the same order: each vertex joins the first
    # colour class that holds none of its neighbours.
    classes: list[int] = []
    for v in order:
        nbrs = adj[v]
        for i, members in enumerate(classes):
            if not members & nbrs:
                classes[i] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    upper = len(classes)
    if lower == upper:
        return lower

    best = upper
    assign = [0] * n

    def down(i: int, used: int) -> None:
        nonlocal best
        if used >= best or best == lower:
            return
        if i == n:
            best = used
            return
        v = order[i]
        forbidden = 0
        for w in bits(adj[v]):
            if assign[w]:
                forbidden |= 1 << assign[w]
        limit = min(used + 1, best - 1)
        for c in range(1, limit + 1):
            if not forbidden >> c & 1:
                assign[v] = c
                down(i + 1, used if c <= used else c)
                assign[v] = 0

    down(0, 0)
    return best


def is_complete_multipartite(g: Graph) -> tuple[bool, int]:
    """True (with part count) iff non-adjacency is an equivalence relation.

    The closed non-neighborhoods full & ~adj[v] are then the parts, so the
    distinct ones partition the vertices exactly when their sizes sum to n.
    """
    parts = {g.full_mask & ~row for row in g.adj}
    if sum(p.bit_count() for p in parts) != g.n:
        return False, 0
    return True, len(parts)


def twin_pairs(g: Graph) -> list[tuple[int, int]]:
    """Consecutive members (a, b), a < b, of every class of twin vertices.

    Twins u, w have N(u) - {w} = N(w) - {u}: the same open neighborhood
    when they are not adjacent, the same closed one when they are.  Either
    way swapping them is an automorphism of g.  No vertex has both kinds of
    twin, so the classes are disjoint.  The last vertex seen with the same
    neighborhood is the previous member of the class.
    """
    last_open: dict[int, int] = {}
    last_closed: dict[int, int] = {}
    pairs = []
    for v, nbrs in enumerate(g.adj):
        for last, key in ((last_open, nbrs), (last_closed, nbrs | 1 << v)):
            prev = last.get(key)
            if prev is not None:
                pairs.append((prev, v))
            last[key] = v
    return pairs
