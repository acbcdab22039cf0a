"""Exhaustive enumeration of non-isomorphic graphs on up to 12 vertices.

Graphs on n vertices are produced by attaching a new vertex to every graph
on n-1 vertices, but only so that the new vertex has minimum degree and
lies in refinement class 0 in the result (a weak form of McKay's canonical
deletion, J. Algorithms 26, 1998), and deduplicating by canonical form.
The counts match the published numbers of non-isomorphic simple graphs (1,
2, 4, 11, 34, 156, 1044, 12346 for n = 1..8), which the test suite asserts.
"""

from __future__ import annotations

from .canonical import (
    CANONICAL_MAX_VERTICES,
    automorphism_generators,
    canonical_form,
    refinement_classes,
)
from .graph6 import parse_graph6
from .graphs import Graph, bits, degree_stats, unchecked_graph


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
    subgroup of Aut(g) suffice.

    Of the children left, only those whose new vertex lies in refinement
    class 0 are canonicalised.  Class ids are ranks of relabeling-invariant
    signatures, and every refinement round ranks by the previous class
    first, so class 0 holds only vertices of minimum degree.  Every graph H
    has some vertex w in class 0; H - w is isomorphic to some g on the
    previous level, and the orbit representative of the image of N(w)
    gives a child isomorphic to H, by an isomorphism taking w to the new
    vertex, so the new vertex has class 0 there too.  No class is lost, and
    the refinement computed for the filter is handed to canonical_form.

    Each level is decoded once, when complete, from its sorted canonical
    graph6 strings, so its order is a deterministic function of the vertex
    count alone.
    """
    if not 1 <= n <= CANONICAL_MAX_VERTICES:
        raise ValueError(f"enumeration supports 1..{CANONICAL_MAX_VERTICES} vertices")
    levels = {1: [Graph(1, (0,))]}
    for size in range(2, n + 1):
        forms: set[str] = set()
        for g in levels[size - 1]:
            delta, _, degs = degree_stats(g)
            low = sum(1 << v for v, dv in enumerate(degs) if dv == delta)
            # images[i][v] is the bit of v's image under the i-th generator.
            images = [[1 << s for s in sigma] for sigma in automorphism_generators(g)]
            seen: set[int] = set()
            for mask in range(1 << (size - 1)):
                d = mask.bit_count()
                if mask in seen or d > delta and (d > delta + 1 or mask & low != low):
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
                adj = [g.adj[v] | ((mask >> v & 1) << (size - 1)) for v in range(size - 1)]
                adj.append(mask)
                child = unchecked_graph(size, tuple(adj))
                classes = refinement_classes(child)
                if classes[-1] == 0:
                    forms.add(canonical_form(child, classes=classes))
        levels[size] = [parse_graph6(form) for form in sorted(forms)]
    return levels
