"""Canonical labeling for graphs on at most 12 vertices.

Counting refinement on the adjacency bitmasks splits the vertices into
order-invariant classes, then a backtracking search over class-respecting
relabelings finds the one whose graph6 bit stream is lexicographically
smallest.  Each placement extends every vertex's adjacency column by one bit,
so the winning columns are that bit stream.  Equal canonical graph6 strings
therefore mean isomorphic graphs and vice versa.  Leaves that tie differ by an
automorphism; `automorphism_generators` reports those and the twin swaps.
"""

from __future__ import annotations

from .graph6 import pack_graph6
from .graphs import Graph, twin_pairs

CANONICAL_MAX_VERTICES = 12

_HIGH = 1 << 40  # sentinel larger than any column value


def refinement_classes(g: Graph) -> list[int]:
    """Stable per-vertex class ids from iterated degree refinement.

    Ids are ranks of sorted signatures, so they are invariant under
    relabeling: isomorphic vertices always receive the same id.  Start from
    the degree ranks; a round ranks each vertex by its class, then by its
    neighbour count in each class, more neighbours in a lower class first,
    and stops when no class splits.  A round's signature is packed into one
    int of fixed-width fields, the class highest and then n minus each
    count, so integer order is that lexicographic order.  A vertex alone in
    its class cannot split, so its key is its class field alone.
    """
    n = g.n
    adj = g.adj
    degrees = [a.bit_count() for a in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    width = n.bit_length()  # every field value lies in 0..n
    while True:
        k = len(rank)
        if k == n:
            return colors
        classes = [0] * k
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        shift = width * k
        keys = []
        for c, a in zip(colors, adj):
            key = c
            if classes[c] & (classes[c] - 1):
                for m in classes:
                    key = key << width | n - (a & m).bit_count()
            else:
                key <<= shift
            keys.append(key)
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(rank) == k:
            return colors
        colors = [rank[key] for key in keys]


def _search(
    g: Graph, *, classes: list[int] | None = None
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """(columns, vertices, automorphisms) of the canonical relabeling.

    columns[j] is the adjacency column of position j+1 against positions
    0..j, first row in the most significant bit (graph6 bit order), and
    vertices[i] is the vertex at position i.  classes, when given, must be
    refinement_classes(g).
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices"
        )
    n = g.n
    adj = g.adj
    colors = refinement_classes(g) if classes is None else classes
    members: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        members[c].append(v)
    # Swapping twins is an automorphism, so each level tries one vertex of
    # each twin class; twin[v] names v's class.  A tied leaf maps the vertex
    # at each position of the best leaf to the one at that position here.
    twin = list(range(n))
    automorphisms = []
    for a, b in twin_pairs(g):
        twin[b] = twin[a]
        swap = list(range(n))
        swap[a], swap[b] = b, a
        automorphisms.append(tuple(swap))
    required = sorted(colors)  # class id that each position must hold

    best = [_HIGH] * (n - 1)
    perm: list[int] = []  # position -> vertex
    best_perm: list[int] | None = None
    orbit = list(range(n))  # vertex -> orbit id under the automorphisms found

    def place(p: int, cols: list[int], placed: int) -> None:
        # cols[v] is v's adjacency to positions 0..p-1, position 0 highest;
        # placed is the mask of the vertices at those positions.
        nonlocal best_perm
        if p == n:
            if best_perm is None:
                best_perm = perm.copy()
            else:
                # A tie reveals an automorphism; its orbits let the root
                # level skip equivalent starting vertices.
                image = [0] * n
                for a, b in zip(best_perm, perm):
                    image[a] = b
                    keep, drop = orbit[a], orbit[b]
                    orbit[:] = [keep if o == drop else o for o in orbit]
                automorphisms.append(tuple(image))
            return
        cand = [v for v in members[required[p]] if not placed >> v & 1]
        if len(cand) == 1:
            # The last free vertex of its class: no order, twin or orbit
            # to consult, only the bound on this position's column.
            v = cand[0]
            if p > 0:
                col = cols[v]
                slot = best[p - 1]
                if col > slot:
                    return
                if col < slot:
                    best[p - 1] = col
                    for j in range(p, n - 1):
                        best[j] = _HIGH
                    best_perm = None
            perm.append(v)
            place(p + 1, [c << 1 | (a >> v & 1) for c, a in zip(cols, adj)], placed | 1 << v)
            perm.pop()
            return
        # Stable, so ties keep vertex order: the order of (col, v).
        cand.sort(key=cols.__getitem__)
        tried = 0  # twin classes tried at this level, as a mask
        tried_roots: list[int] = []
        for v in cand:
            if p == 0 and any(orbit[v] == orbit[u] for u in tried_roots):
                continue
            if tried >> twin[v] & 1:
                continue
            if p > 0:
                col = cols[v]
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
            place(p + 1, [c << 1 | (a >> v & 1) for c, a in zip(cols, adj)], placed | 1 << v)
            perm.pop()

    place(0, [0] * n, 0)
    assert best_perm is not None
    return best, best_perm, automorphisms


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms of g (sigma[v] is the image of v): the twin swaps and
    one per tied leaf of the canonical search.  They generate a subgroup of
    Aut(g), not always all of it."""
    return _search(g)[2]


def canonical_form(g: Graph, *, classes: list[int] | None = None) -> str:
    """Canonical graph6 string: equal iff the graphs are isomorphic.  It is
    packed from the search's winning columns.  classes, when given, must be
    refinement_classes(g); a caller that has refined g already passes it."""
    word = 0
    for j, col in enumerate(_search(g, classes=classes)[0]):
        word = word << (j + 1) | col
    return pack_graph6(g.n, word)
