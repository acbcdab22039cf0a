"""Exhaustive enumeration of non-isomorphic graphs on up to 12 vertices.

Graphs on n vertices are produced by attaching a new vertex to every graph
on n-1 vertices, but only so that the new vertex has minimum degree and
lies in refinement class 0 in the result (a weak form of McKay's canonical
deletion, J. Algorithms 26, 1998), and deduplicating by canonical form.
The counts match the published numbers of non-isomorphic simple graphs (1,
2, 4, 11, 34, 156, 1044, 12346 for n = 1..8), which the test suite asserts.
"""

from __future__ import annotations

from functools import partial

from .canonical import (
    CANONICAL_MAX_VERTICES,
    automorphism_generators,
    canonical_form,
    refinement_classes,
)
from .graph6 import parse_graph6
from .graphs import Graph, bits, degree_stats, twin_pairs, unchecked_graph
from .parallel import ordered_map, usable_cpus


def graphs_up_to(n: int) -> dict[int, list[Graph]]:
    """Non-isomorphic graphs for every vertex count 1..n, canonically labeled.

    Each graph g on size-1 vertices is extended by a new vertex whose
    neighbourhood is a mask of old vertices, keeping only the masks under
    which the new vertex has minimum degree.  With d = mask.bit_count(),
    that means degs[v] + (mask >> v & 1) >= d for every old vertex v.  If
    delta is the minimum degree of g, this holds exactly when d <= delta,
    or when d == delta + 1 and the mask holds every vertex of degree delta.
    The filter loses no isomorphism class: every graph H has a vertex w of
    minimum degree, H - w is isomorphic to some g on the previous level, and
    extending g by the image of N(w) gives a graph isomorphic to H in which
    the new vertex has minimum degree.

    Only the first admissible mask of each orbit under automorphisms of g
    is canonicalised.  An automorphism sigma of g preserves degrees, so
    sigma(mask) passes the filter exactly when mask does, and sigma extends
    to an isomorphism from g + N(mask) to g + N(sigma(mask)) that fixes the
    new vertex: the skipped masks give no new class.  Generators of any
    subgroup of Aut(g) suffice.  When every refinement class of g is one
    twin class (the case in which canonical._search needs no search),
    Aut(g) is the product of the symmetric groups on the classes, so two
    masks share an orbit exactly when they hold as many vertices of each
    class.  The first mask of such an orbit takes a prefix of every class:
    let M do so and let M' != M share its orbit.  At the highest vertex v
    where they differ, say of class C, the masks agree on C above v and
    hold as many of C in all, so as many of C at or below v.  If M held v
    it would hold every member of C below v, and M' without v could not
    match that count; so M' holds v, and M < M'.  These parents therefore
    take the products of the class prefixes that pass the filter, with no
    automorphism search and no orbit closure.

    Of the children left, only those whose new vertex lies in refinement
    class 0 are canonicalised.  Class ids are ranks of relabeling-invariant
    signatures, and every refinement round ranks by the previous class
    first, so class 0 holds only vertices of minimum degree.  Every graph H
    has some vertex w in class 0; H - w is isomorphic to some g on the
    previous level, and the orbit representative of the image of N(w)
    gives a child isomorphic to H, by an isomorphism taking w to the new
    vertex, so the new vertex has class 0 there too.  No class is lost, and
    the refinement computed for the filter is handed to canonical_form.
    Class 0 only shrinks from round to round, so a child's refinement stops
    at the first round that leaves the new vertex outside it.

    A parent needs no refinement of its own.  The canonical search fills
    positions in class order, so the vertex at canonical position i of a
    child has class sorted(classes)[i], and class ids do not change under
    relabeling: refinement_classes of a decoded graph is the sorted classes
    of any child that produced its form.  Each level keeps them while
    another level follows, for the twin-class test and the automorphism
    search of its graphs.

    Each level is decoded once, when complete, from its sorted canonical
    graph6 strings, so its order is a deterministic function of the vertex
    count alone.  The children of one parent depend on no other parent (the
    split geng's res/mod makes), so the final level, which holds most of
    the children, is built one parent per job in parallel.ordered_map over
    the usable CPUs; the merged forms, and so the levels, do not depend on
    the worker count.
    """
    if not 1 <= n <= CANONICAL_MAX_VERTICES:
        raise ValueError(f"enumeration supports 1..{CANONICAL_MAX_VERTICES} vertices")
    levels = {1: [Graph(1, (0,))]}
    classes = [[0]]
    for size in range(2, n + 1):
        levels[size], classes = _extend(levels[size - 1], classes, carry=size < n)
    return levels


def _extend(
    parents: list[Graph], parent_classes: list[list[int]], *, carry: bool
) -> tuple[list[Graph], list[list[int]] | None]:
    """The next level, decoded from its sorted canonical forms, and with
    carry the refinement classes of each graph in it (None otherwise).
    parent_classes[i] must be refinement_classes(parents[i])."""
    rows = [(g.adj, classes) for g, classes in zip(parents, parent_classes)]
    # Only the final level fans out over the CPUs: it holds most of the
    # children, and carrying no classes its workers return only short
    # strings.  Rows rather than Graphs go to the workers, since unpickling
    # a Graph validates it again.
    workers = 1 if carry else usable_cpus()
    forms: dict[str, list[int] | None] = {}
    for found in ordered_map(partial(_child_forms, carry=carry), rows, workers):
        forms.update(found)
    order = sorted(forms)
    level = [parse_graph6(form) for form in order]
    return level, [sorted(forms[form]) for form in order] if carry else None


def _child_forms(
    row: tuple[tuple[int, ...], list[int]], carry: bool
) -> dict[str, list[int] | None]:
    """The canonical form of each child of one parent that graphs_up_to
    keeps, with carry mapped to its refinement classes (None otherwise).
    row is the parent's adjacency and its refinement classes."""
    adj, classes = row
    g = unchecked_graph(len(adj), adj)
    size = g.n + 1
    top = 1 << g.n
    forms: dict[str, list[int] | None] = {}
    for mask in _orbit_representatives(g, classes):
        child_adj = list(adj)
        for v in bits(mask):
            child_adj[v] |= top
        child_adj.append(mask)
        child = unchecked_graph(size, tuple(child_adj))
        child_classes = refinement_classes(child, watch=size - 1)
        if child_classes is not None:
            forms[canonical_form(child, classes=child_classes)] = child_classes if carry else None
    return forms


def _orbit_representatives(g: Graph, classes: list[int]) -> list[int]:
    """The first mask of each orbit of the admissible masks, those under
    which a new vertex joined to the mask has minimum degree.  The orbits
    are those of Aut(g) on twin-generated parents and those of the group
    automorphism_generators spans on the others; classes must be
    refinement_classes(g)."""
    n = g.n
    delta, _, degs = degree_stats(g)
    low = sum(1 << v for v, dv in enumerate(degs) if dv == delta)

    def admissible(masks):
        return [m for m in masks if (d := m.bit_count()) <= delta or d == delta + 1 and m & low == low]

    k = max(classes) + 1
    if len(twin_pairs(g)) == n - k:
        # Every refinement class is one twin class: the first masks are the
        # products of the class prefixes (see graphs_up_to).
        cells = [0] * k
        for v, c in enumerate(classes):
            cells[c] |= 1 << v
        masks = [0]
        for cell in cells:
            prefixes = [0]
            for v in bits(cell):
                prefixes.append(prefixes[-1] | 1 << v)
            masks = [m | p for m in masks for p in prefixes]
        return admissible(masks)
    # images[i][v] is the bit of v's image under the i-th generator.
    images = [[1 << s for s in sigma] for sigma in automorphism_generators(g, classes=classes)]
    seen: set[int] = set()
    representatives = []
    for mask in admissible(range(1 << n)):
        if mask in seen:
            continue
        orbit = [mask]
        seen.add(mask)
        for x in orbit:
            for image in images:
                y = 0
                for v in bits(x):
                    y |= image[v]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        representatives.append(mask)
    return representatives
