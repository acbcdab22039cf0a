"""Independent brute-force oracles used to freeze expected values, and
small graph fixtures.

The oracles enumerate exhaustively (vertex subsets, label permutations, all
k^m edge colorings) and never call the search engine, so they can check the
engine without sharing code paths with it.  The one exception,
greedy_cocritical, builds co-critical graphs past the exhaustive range from
plain arrows calls, without any of is_cocritical's shortcuts.  The fixtures
at the end build paths, cycles and relabelings.  reference_canonical_search
is the column-list canonical search that rck's mask search replaced;
canonical_permutation reads its vertex order, as the reference for the
form's graph6 packing.  breaks_lex_leader is the full lex-leader walk that
the search's skip of undecided pairs replaced.  reference_orbit_representatives
is the mask scan and orbit closure that graphs_up_to used for every parent
before twin-generated parents took the prefixes of their twin classes.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from rck.arrowing import CliqueVector, arrows
from rck.graphs import Graph, add_edge, bits, from_edges, twin_pairs


def subsets_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            if all(g.adj[u] >> v & 1 for u, v in combinations(combo, 2)):
                return size
    return best


def subsets_independence_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            if all(not g.adj[u] >> v & 1 for u, v in combinations(combo, 2)):
                return size
    return best


def assignments_chromatic_number(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def permutation_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    g_edges = set(g.edges)
    for perm in permutations(range(h.n)):
        mapped = {
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in h.edges
        }
        if mapped == g_edges:
            return True
    return False


def sorted_tuple_refinement(g: Graph) -> list[int]:
    """Class ids by iterated refinement from one class: each round ranks
    (own class, sorted tuple of neighbour classes) until nothing splits."""
    colors = [0] * g.n
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in range(g.n) if g.adj[v] >> w & 1)))
            for v in range(g.n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def complement_clique_components(g: Graph) -> tuple[bool, int]:
    """(complete multipartite, part count) from the definition: every
    connected component of the complement is a clique of the complement."""
    comp = list(range(g.n))
    for u, v in combinations(range(g.n), 2):
        if not g.adj[u] >> v & 1:
            old, new = comp[v], comp[u]
            comp = [new if c == old else c for c in comp]
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, []).append(v)
    for members in groups.values():
        if any(g.adj[u] >> v & 1 for u, v in combinations(members, 2)):
            return False, 0
    return True, len(groups)


def clique_edge_masks(g: Graph, t: int) -> list[int]:
    """Edge-index masks of every K_t subgraph of g."""
    edges = g.edges
    index = {e: i for i, e in enumerate(edges)}
    masks = []
    for combo in combinations(range(g.n), t):
        if all(g.adj[u] >> v & 1 for u, v in combinations(combo, 2)):
            mask = 0
            for u, v in combinations(combo, 2):
                mask |= 1 << index[(u, v)]
            masks.append(mask)
    return masks


def all_critical_words(g: Graph, spec: CliqueVector) -> list[tuple[int, ...]]:
    """Every critical coloring as a color word, by checking all k^m colorings."""
    m = g.edge_count
    per_color = [clique_edge_masks(g, t) for t in spec.sizes]
    words = []
    for word in product(range(1, spec.k + 1), repeat=m):
        class_mask = [0] * (spec.k + 1)
        for i, c in enumerate(word):
            class_mask[c] |= 1 << i
        ok = True
        for ell in range(1, spec.k + 1):
            mask = class_mask[ell]
            for cm in per_color[ell - 1]:
                if cm & mask == cm:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            words.append(word)
    return words


def brute_arrows(g: Graph, spec: CliqueVector) -> bool:
    m = g.edge_count
    per_color = [clique_edge_masks(g, t) for t in spec.sizes]
    for word in product(range(1, spec.k + 1), repeat=m):
        class_mask = [0] * (spec.k + 1)
        for i, c in enumerate(word):
            class_mask[c] |= 1 << i
        if all(
            cm & class_mask[ell] != cm
            for ell in range(1, spec.k + 1)
            for cm in per_color[ell - 1]
        ):
            return False
    return True


def brute_extremal_class_size(
    g: Graph, spec: CliqueVector, color: int, mode: str
) -> int | None:
    """Exact optimum of |E_color| over all critical colorings, or None."""
    sizes = [sum(1 for c in word if c == color) for word in all_critical_words(g, spec)]
    if not sizes:
        return None
    return max(sizes) if mode == "max" else min(sizes)


def completes_clique(class_adj: list[int], t: int, u: int, v: int) -> bool:
    """Would a new edge uv in the color class with adjacency class_adj close a K_t?

    The from-scratch test that the search's feasible-color masks maintain
    incrementally.  A new monochromatic clique must contain uv, so it closes
    one iff some t-2 vertices of the common class neighborhood of u and v
    are pairwise joined in the class (always, for t = 2).
    """
    both = class_adj[u] & class_adj[v]
    common = [w for w in range(len(class_adj)) if both >> w & 1]
    return any(
        all(class_adj[a] >> b & 1 for a, b in combinations(combo, 2))
        for combo in combinations(common, t - 2)
    )


def twin_swap_images(g: Graph) -> list[list[int]]:
    """For each pair (a, b) of twin_pairs(g), the edge permutation of the
    swap of a and b: entry e is the index of the image of edge e."""
    index = {e: j for j, e in enumerate(g.edges)}
    images = []
    for a, b in twin_pairs(g):
        swap = list(range(g.n))
        swap[a], swap[b] = b, a
        images.append([index[tuple(sorted((swap[u], swap[v])))] for u, v in g.edges])
    return images


def breaks_lex_leader(images: list[list[int]], colors, i: int) -> bool:
    """True iff the colors decided so far (0 marks an uncolored edge) break
    the lex-leader constraint of some swap in images that moves edge i.

    The full walk, from the definition: the color word must be at most its
    image under the swap.  Read in edge order, edges the swap fixes equal
    their image; the first moved edge whose color is not decided and equal
    to its image's decides, and breaks the constraint iff both are decided
    and the edge's color is the greater.
    """
    for image in images:
        if image[i] == i:
            continue
        for e, f in enumerate(image):
            if e == f:
                continue
            ce, cf = colors[e], colors[f]
            if not ce or not cf or ce != cf:
                if ce > cf > 0:
                    return True
                break
    return False


def brute_is_saturated(g: Graph, t: int) -> bool:
    def has_kt(h: Graph) -> bool:
        return any(
            all(h.adj[u] >> v & 1 for u, v in combinations(combo, 2))
            for combo in combinations(range(h.n), t)
        )

    if has_kt(g):
        return False
    non_edges = g.non_edges()
    if not non_edges:
        return True
    return all(has_kt(add_edge(g, e)) for e in non_edges)


def brute_is_cocritical(g: Graph, spec: CliqueVector) -> bool:
    if g.is_complete():
        return False
    if brute_arrows(g, spec):
        return False
    return all(brute_arrows(add_edge(g, e), spec) for e in g.non_edges())


def greedy_cocritical(n: int, spec: CliqueVector, seed: int) -> Graph:
    """A maximal non-arrowing graph on n vertices: start from the empty
    graph, shuffle the pairs with random.Random(seed), and add each pair
    whose addition does not arrow.

    A pair turned down arrowed when it was tried, and by monotonicity still
    arrows in the final, larger graph, so that graph is co-critical whenever
    it is not complete, with no shortcut in the argument.
    """
    pairs = list(combinations(range(n), 2))
    random.Random(seed).shuffle(pairs)
    g = from_edges(n, [])
    for e in pairs:
        h = add_edge(g, e)
        if arrows(h, spec).arrows is False:
            g = h
    return g


def bitwise_graph6_rows(line: str) -> tuple[int, tuple[int, ...]]:
    """(n, adjacency rows) of a graph6 line, decoded one bit position at a
    time; the checks and messages are those of rck.graph6.parse_graph6."""
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("empty graph6 line")
    first = ord(text[0])
    if first == 126:
        raise ValueError("multi-byte graph6 sizes exceed the 32-vertex limit")
    n = first - 63
    if not 1 <= n <= 32:
        raise ValueError(f"graph6 vertex count {n} outside 1..32")
    nbits = n * (n - 1) // 2
    body = text[1:]
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}"
        )
    word = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        word = word << 6 | val
    pad = 6 * expect - nbits
    if word & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 line")
    bit = (1 << 6 * expect) >> 1
    adj = [0] * n
    for v in range(1, n):
        for u in range(v):
            if word & bit:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit >>= 1
    return n, tuple(adj)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = sum(1 << perm[w] for w in bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """The relabeling (old vertex -> new label) that canonical_form spells:
    the vertex the canonical search places at position i gets label i."""
    perm = [0] * g.n
    for i, v in enumerate(reference_canonical_search(g)[1]):
        perm[v] = i
    return tuple(perm)


_HIGH = 1 << 40  # sentinel larger than any column value


def reference_canonical_search(g: Graph) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """The column-list canonical search, kept as the reference for
    rck.canonical._search: the same (columns, vertices, automorphisms)
    triple, found by sorting every candidate's adjacency column at each
    level.  Classes come from sorted_tuple_refinement."""
    n = g.n
    adj = g.adj
    colors = sorted_tuple_refinement(g)
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


def reference_orbit_representatives(g: Graph) -> list[int]:
    """The first mask of each orbit, in increasing order, of the masks under
    which a new vertex joined to the mask has minimum degree.  The orbits are
    closed under the automorphisms reference_canonical_search reports."""
    degs = [a.bit_count() for a in g.adj]
    delta = min(degs)
    low = sum(1 << v for v, dv in enumerate(degs) if dv == delta)
    images = [[1 << s for s in sigma] for sigma in reference_canonical_search(g)[2]]
    seen: set[int] = set()
    representatives = []
    for mask in range(1 << g.n):
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
        representatives.append(mask)
    return representatives
