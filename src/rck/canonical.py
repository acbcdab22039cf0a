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


def _ranks(keys: list) -> list[int]:
    """Dense rank of each key among the distinct keys, smallest first."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    rank = 0
    for prev, v in zip(order, order[1:]):
        rank += keys[v] != keys[prev]
        ranks[v] = rank
    return ranks


def refinement_classes(g: Graph) -> list[int]:
    """Stable per-vertex class ids from iterated degree refinement.

    Ids are ranks of sorted signatures, so they are invariant under
    relabeling: isomorphic vertices always receive the same id.  Start from
    the degree ranks; a round ranks each vertex by its class, then by its
    neighbour count in each class, more neighbours in a lower class first,
    and stops when no class splits.
    """
    colors = _ranks([a.bit_count() for a in g.adj])
    while True:
        classes = [0] * (max(colors) + 1)
        if len(classes) == g.n:
            return colors
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        new = _ranks([(c, [-(a & m).bit_count() for m in classes]) for c, a in zip(colors, g.adj)])
        if new == colors:
            return colors
        colors = new


def _search(g: Graph) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """(columns, vertices, automorphisms) of the canonical relabeling.

    columns[j] is the adjacency column of position j+1 against positions
    0..j, first row in the most significant bit (graph6 bit order), and
    vertices[i] is the vertex at position i.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices"
        )
    n = g.n
    adj = g.adj
    colors = refinement_classes(g)
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

    def place(p: int, cols: list[int]) -> None:
        # cols[v] is v's adjacency to positions 0..p-1, position 0 highest.
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
        want = required[p]
        scored = sorted((cols[v], v) for v in range(n) if colors[v] == want and v not in perm)
        tried = 0  # twin classes tried at this level, as a mask
        tried_roots: list[int] = []
        for col, v in scored:
            if p == 0 and any(orbit[v] == orbit[u] for u in tried_roots):
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
            place(p + 1, [c << 1 | (a >> v & 1) for c, a in zip(cols, adj)])
            perm.pop()

    place(0, [0] * n)
    assert best_perm is not None
    return best, best_perm, automorphisms


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """Relabeling (old vertex -> new label) realizing the canonical form."""
    return tuple(sorted(range(g.n), key=_search(g)[1].__getitem__))


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms of g (sigma[v] is the image of v): the twin swaps and
    one per tied leaf of the canonical search.  They generate a subgroup of
    Aut(g), not always all of it."""
    return _search(g)[2]


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal iff the graphs are isomorphic.  It is
    packed from the search's winning columns."""
    word = 0
    for j, col in enumerate(_search(g)[0]):
        word = word << (j + 1) | col
    return pack_graph6(g.n, word)
