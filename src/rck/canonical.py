"""Canonical labeling for graphs on at most 12 vertices.

Counting refinement on the adjacency bitmasks splits the vertices into
order-invariant classes, then a backtracking search over class-respecting
relabelings finds the one whose graph6 bit stream is lexicographically
smallest.  The winning columns, each placed vertex's adjacency to the
positions before it, are that bit stream, so equal canonical graph6 strings
mean isomorphic graphs and vice versa.  Leaves that tie differ by an
automorphism; `automorphism_generators` reports those and the twin swaps.

When every refinement class is one twin class (discrete partitions
included), every class-respecting relabeling spells the same graph, so the
class order is canonical with no search and the twin swaps generate all of
Aut(g); that holds for 9,276 of the 12,346 graphs on 8 vertices.  Otherwise
the search keeps the candidates of each position as a vertex mask and
narrows it by each placed vertex's non-neighbours, which leaves exactly the
candidates with the least column and spells that column.
"""

from __future__ import annotations

from .graph6 import pack_graph6
from .graphs import Graph, twin_pairs

CANONICAL_MAX_VERTICES = 12

_HIGH = 1 << 40  # sentinel larger than any column value


def refinement_classes(g: Graph, *, watch: int | None = None) -> list[int] | None:
    """Stable per-vertex class ids from iterated degree refinement.

    Ids are ranks of sorted signatures, so they are invariant under
    relabeling: isomorphic vertices always receive the same id.  Start from
    the degree ranks; a round ranks each vertex by its class, then by its
    neighbour count in each class, more neighbours in a lower class first,
    and stops when no class splits.  A round's signature is packed into one
    int of fixed-width fields, the class highest and then n minus each
    count, so integer order is that lexicographic order.  A vertex alone in
    its class cannot split, so its key is its class field alone.

    With watch given, the result is None as soon as a round leaves vertex
    watch outside class 0, and the classes otherwise.  A round ranks by the
    previous class first, so class 0 only shrinks from round to round and
    watch never returns to it: None exactly when
    refinement_classes(g)[watch] != 0.
    """
    n = g.n
    adj = g.adj
    degrees = [a.bit_count() for a in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    width = n.bit_length()  # every field value lies in 0..n
    while True:
        if watch is not None and colors[watch]:
            return None
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
    g: Graph, *, classes: list[int] | None = None, swaps: bool = True
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """(columns, vertices, automorphisms) of the canonical relabeling.

    columns[j] is the adjacency column of position j+1 against positions
    0..j, first row in the most significant bit (graph6 bit order), and
    vertices[i] is the vertex at position i.  classes, when given, must be
    refinement_classes(g).  With swaps false the automorphisms leave out
    the twin swaps, for a caller that reads only the columns.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices"
        )
    n = g.n
    adj = g.adj
    colors = refinement_classes(g) if classes is None else classes
    order = sorted(range(n), key=colors.__getitem__)  # class order, then vertex
    pairs = twin_pairs(g)
    automorphisms = []
    if swaps:
        for a, b in pairs:
            swap = list(range(n))
            swap[a], swap[b] = b, a
            automorphisms.append(tuple(swap))
    if len(pairs) == n - 1 - max(colors):
        # Twin classes lie inside refinement classes, so as many twin
        # classes (n minus the pairs) as refinement classes means every
        # refinement class is one twin class.  Then each class induces a
        # clique or an independent set and joins every other class
        # completely or not at all: every class-respecting relabeling spells
        # the same graph, and the twin swaps generate Aut(g).  The search
        # would try the first free vertex of each class and skip its twins,
        # so its one leaf is the class order.
        columns = []
        for j in range(1, n):
            row = adj[order[j]]
            col = 0
            for u in order[:j]:
                col = col << 1 | row >> u & 1
            columns.append(col)
        return columns, order, automorphisms
    # Swapping twins is an automorphism, so each level tries one vertex of
    # each twin class.
    twin = list(range(n))  # the least member of v's twin class
    for a, b in pairs:
        twin[b] = twin[a]
    masks = [0] * n
    for v, t in enumerate(twin):
        masks[t] |= 1 << v
    twins = [masks[t] for t in twin]
    cells = [0] * n
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    need = [cells[colors[v]] for v in order]  # the class mask of each position
    nonadj = [~a for a in adj]

    best = [_HIGH] * (n - 1)
    perm: list[int] = []  # position -> vertex
    best_perm: list[int] | None = None
    orbit = list(range(n))  # vertex -> orbit id under the automorphisms found

    def place(p: int, placed: int) -> None:
        # Positions 0..p-1 hold perm, whose vertices make the mask placed.
        nonlocal best_perm
        if p == n:
            if best_perm is None:
                best_perm = perm.copy()
            else:
                # A tie reveals an automorphism: it maps the vertex at each
                # position of the best leaf to the one at that position
                # here.  Its orbits let the root skip equivalent vertices.
                image = [0] * n
                for a, b in zip(best_perm, perm):
                    image[a] = b
                    keep, drop = orbit[a], orbit[b]
                    orbit[:] = [keep if o == drop else o for o in orbit]
                automorphisms.append(tuple(image))
            return
        # The least column among the free vertices of this position's class,
        # bit by bit: keep the candidates not adjacent to the next placed
        # vertex (a 0 bit) if there are any, else all of them (a 1 bit).
        # Only the candidates left spell it; the others are never tried.
        cand = need[p] & ~placed
        col = 0
        for u in perm:
            m = cand & nonadj[u]
            if m:
                cand = m
                col <<= 1
            else:
                col = col << 1 | 1
        slot = best[p - 1]
        if col > slot:
            return
        if col < slot:
            best[p - 1] = col
            for j in range(p, n - 1):
                best[j] = _HIGH
            best_perm = None
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand &= ~twins[v]
            perm.append(v)
            place(p + 1, placed | low)
            perm.pop()

    cand = need[0]
    tried_roots: list[int] = []
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if any(orbit[v] == orbit[u] for u in tried_roots):
            continue  # an automorphism found so far maps v to a tried root
        cand &= ~twins[v]
        tried_roots.append(v)
        perm.append(v)
        place(1, low)
        perm.pop()
    assert best_perm is not None
    return best, best_perm, automorphisms


def automorphism_generators(
    g: Graph, *, classes: list[int] | None = None
) -> list[tuple[int, ...]]:
    """Automorphisms of g (sigma[v] is the image of v): the twin swaps and
    one per tied leaf of the canonical search.  They generate a subgroup of
    Aut(g), not always all of it; when every refinement class of g is one
    twin class they are the twin swaps alone and generate all of Aut(g).
    classes, when given, must be refinement_classes(g)."""
    return _search(g, classes=classes)[2]


def canonical_form(g: Graph, *, classes: list[int] | None = None) -> str:
    """Canonical graph6 string: equal iff the graphs are isomorphic.  It is
    packed from the search's winning columns.  classes, when given, must be
    refinement_classes(g); a caller that has refined g already passes it."""
    word = 0
    for j, col in enumerate(_search(g, classes=classes, swaps=False)[0]):
        word = word << (j + 1) | col
    return pack_graph6(g.n, word)
