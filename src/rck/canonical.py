"""Canonical labeling for graphs on at most 12 vertices.

Degree refinement splits the vertices into order-invariant classes, then a
backtracking search over class-respecting relabelings finds the relabeling
whose graph6 bit stream is lexicographically smallest.  Equal canonical byte
strings therefore mean isomorphic graphs and vice versa.
"""

from __future__ import annotations

from .graph6 import to_graph6
from .graphs import Graph, bits, relabel, twin_pairs

CANONICAL_MAX_VERTICES = 12

_HIGH = 1 << 40  # sentinel larger than any column value


def refinement_classes(g: Graph) -> list[int]:
    """Stable per-vertex class ids from iterated degree refinement.

    Ids are assigned by sorted signature, so they are invariant under
    relabeling: isomorphic vertices always receive the same id.
    """
    n = g.n
    colors = [0] * n
    while True:
        sigs = []
        for v in range(n):
            neigh = sorted(colors[w] for w in bits(g.adj[v]))
            sigs.append((colors[v], tuple(neigh)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


class _OrbitUnion:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        fx, fy = self.find(x), self.find(y)
        if fx != fy:
            self.parent[fy] = fx


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """Relabeling (old vertex -> new label) realizing the canonical form."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices"
        )
    n = g.n
    adj = g.adj
    if n == 1:
        return (0,)

    colors = refinement_classes(g)
    # Swapping twins is an automorphism, so each level tries one vertex of
    # each twin class; twin[v] names v's class.
    twin = list(range(n))
    for a, b in twin_pairs(g):
        twin[b] = twin[a]
    required = sorted(colors)  # class id that each position must hold

    # best[j] is the adjacency column of position j+1 against positions 0..j,
    # first row in the most significant bit (graph6 bit order).
    best = [_HIGH] * (n - 1)
    perm: list[int] = []  # position -> vertex
    placed_bits = [0] * n  # vertex -> bit of its position, 0 if unplaced
    best_perm: list[int] | None = None
    orbits = _OrbitUnion(n)

    def place(p: int) -> None:
        nonlocal best_perm
        if p == n:
            if best_perm is None:
                best_perm = perm.copy()
            else:
                # A tie reveals an automorphism; remember its orbits so the
                # root level skips equivalent starting vertices.
                for a, b in zip(best_perm, perm):
                    orbits.union(a, b)
            return
        want = required[p]
        cands = [v for v in range(n) if placed_bits[v] == 0 and colors[v] == want]
        scored = []
        for v in cands:
            col = 0
            row = adj[v]
            for i in range(p):
                col = (col << 1) | (row >> perm[i] & 1)
            scored.append((col, v))
        scored.sort()
        tried = 0  # twin classes tried at this level, as a mask
        tried_roots: list[int] = []
        for col, v in scored:
            if p == 0 and any(orbits.find(v) == orbits.find(u) for u in tried_roots):
                continue
            if tried >> twin[v] & 1:
                continue
            if p > 0:
                slot = best[p - 1]
                if col > slot:
                    break  # candidates are sorted; the rest are worse
                if col < slot:
                    best[p - 1] = col
                    for j in range(p, n - 1):
                        best[j] = _HIGH
                    best_perm = None
            tried |= 1 << twin[v]
            if p == 0:
                tried_roots.append(v)
            perm.append(v)
            placed_bits[v] = 1
            place(p + 1)
            placed_bits[v] = 0
            perm.pop()

    place(0)
    assert best_perm is not None
    out = [0] * n
    for pos, v in enumerate(best_perm):
        out[v] = pos
    return tuple(out)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal iff the graphs are isomorphic."""
    return to_graph6(relabel(g, canonical_permutation(g))).encode("ascii")
