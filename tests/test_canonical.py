import random
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import (
    canonical_permutation,
    cycle_graph,
    path_graph,
    permutation_isomorphic,
    reference_canonical_search,
    relabel,
    sorted_tuple_refinement,
)
from rck.arrowing import CliqueVector
from rck.canonical import (
    _search,
    automorphism_generators,
    canonical_form,
    refinement_classes,
)
from rck.constructions import hanson_toft
from rck.graph6 import to_graph6
from rck.graphs import (
    complete_graph,
    complete_multipartite_graph,
    empty_graph,
    from_edges,
    twin_pairs,
)


def test_c5_relabelings_agree():
    c5 = cycle_graph(5)
    assert canonical_form(c5) == canonical_form(relabel(c5, [1, 3, 0, 2, 4]))


def test_different_degree_sequences_differ():
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(path_graph(4)) != canonical_form(star)


def test_all_four_vertex_graphs_distinct():
    # Oracle: group all 2^6 labeled graphs by permutation-brute-force
    # isomorphism; there are 11 classes and 11 distinct canonical strings.
    pairs = list(combinations(range(4), 2))
    reps = []
    for bitsel in range(64):
        g = from_edges(4, [pairs[i] for i in range(6) if bitsel >> i & 1])
        if not any(permutation_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 11
    assert len({canonical_form(g) for g in reps}) == 11


def test_canonical_matches_brute_force_on_pairs():
    rng = random.Random(20240601)
    pairs = list(combinations(range(5), 2))
    for _ in range(120):
        g = from_edges(5, [e for e in pairs if rng.random() < 0.5])
        h = from_edges(5, [e for e in pairs if rng.random() < 0.5])
        assert (canonical_form(g) == canonical_form(h)) == permutation_isomorphic(g, h)


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=2, max_n=8), st.randoms(use_true_random=False))
def test_relabel_invariance(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_fifty_random_relabelings_per_graph():
    rng = random.Random(7)
    # Twin-rich inputs too: twin classes prune the relabeling search.
    twin_rich = (
        [complete_graph(n) for n in (2, 7, 10)]
        + [hanson_toft(CliqueVector((3, 3)), n) for n in range(6, 11)]
        + [complete_multipartite_graph(p) for p in ([2, 3], [1, 2, 3], [3, 3, 3], [1, 1, 4, 4])]
    )
    for g in (cycle_graph(6), path_graph(7), complete_graph(5), empty_graph(6), *twin_rich):
        base = canonical_form(g)
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base


PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
     (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_highly_symmetric_graphs_terminate():
    for g in (complete_graph(12), cycle_graph(12), empty_graph(12), PETERSEN):
        perm = canonical_permutation(g)
        assert sorted(perm) == list(range(g.n))


def test_size_cap():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(13))


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_form_is_graph6_of_the_canonical_relabeling(g):
    # canonical_form packs the search's columns itself; it must spell the
    # same string as writing the relabeled graph out with to_graph6.
    assert canonical_form(g) == to_graph6(relabel(g, canonical_permutation(g)))


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_counting_refinement_matches_sorted_tuple_reference(g):
    assert refinement_classes(g) == sorted_tuple_refinement(g)


@pytest.mark.parametrize(
    "g",
    [PETERSEN, cycle_graph(12), complete_graph(7), complete_multipartite_graph([1, 1, 4, 4])]
    + [hanson_toft(CliqueVector((3, 3)), n) for n in range(6, 11)],
    ids=["petersen", "c12", "k7", "multipartite-1144"] + [f"ht33-{n}" for n in range(6, 11)],
)
def test_generators_are_automorphisms(g):
    rng = random.Random(g.n)
    for h in (g, relabel(g, rng.sample(range(g.n), g.n))):
        generators = automorphism_generators(h)
        assert generators  # every graph here has a non-trivial automorphism
        for sigma in generators:
            assert sorted(sigma) == list(range(h.n))
            assert relabel(h, sigma) == h


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_class_zero_holds_only_minimum_degree_vertices(g):
    # graphs_up_to canonicalises a child only when its new vertex is in
    # class 0, which is sound only if class 0 lies within minimum degree.
    delta = min(a.bit_count() for a in g.adj)
    classes = refinement_classes(g)
    assert 0 in classes
    assert all(g.adj[v].bit_count() == delta for v, c in enumerate(classes) if c == 0)


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_watched_refinement_stops_once_the_vertex_leaves_class_zero(g):
    classes = refinement_classes(g)
    for v in range(g.n):
        assert refinement_classes(g, watch=v) == (classes if classes[v] == 0 else None)


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12), st.randoms(use_true_random=False))
def test_class_ids_move_with_a_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = refinement_classes(relabel(g, perm))
    classes = refinement_classes(g)
    assert all(moved[perm[v]] == classes[v] for v in range(g.n))


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_form_from_given_classes_is_the_form(g):
    assert canonical_form(g, classes=refinement_classes(g)) == canonical_form(g)


def test_packed_refinement_keys_match_reference_past_twelve_vertices():
    # Near-complete graphs on 17..32 vertices give a vertex 16 or more
    # neighbours of its own degree, so the first keyed round counts 16 or
    # more neighbours in one class: more than a 4-bit key field holds.
    rng = random.Random(1998)
    graphs = []
    for i in range(40):
        n = rng.randint(13, 16) if i < 8 else rng.randint(17, 32)
        density = rng.random() if n < 17 else rng.choice([0.6, 0.75, 0.9, 0.97, 0.99, 1.0])
        graphs.append(from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < density]))

    def same_degree_neighbours(g, v):
        d = g.adj[v].bit_count()
        return sum(g.adj[u].bit_count() == d for u in range(g.n) if g.adj[v] >> u & 1)

    assert any(same_degree_neighbours(g, v) >= 16 for g in graphs for v in range(g.n))
    for g in graphs:
        assert refinement_classes(g) == sorted_tuple_refinement(g)


def classes_are_twin_classes(g):
    # Twin classes lie inside refinement classes, so they coincide exactly
    # when there are as many twin classes, n minus the twin pairs, as
    # refinement classes.
    return g.n - len(twin_pairs(g)) == len(set(refinement_classes(g)))


@settings(max_examples=300, deadline=None)
@given(small_graphs(min_n=1, max_n=12))
def test_search_matches_the_reference_search(g):
    assert _search(g) == reference_canonical_search(g)


@pytest.mark.parametrize(
    "g, shortcut",
    [(PETERSEN, False), (cycle_graph(12), False),
     (complete_multipartite_graph([4, 4, 4]), False), (complete_graph(12), True),
     (empty_graph(12), True)]
    + [(hanson_toft(CliqueVector((3, 3)), n), True) for n in range(6, 11)]
    + [(complete_multipartite_graph([1, 2, 3]), True), (path_graph(5), False)],
    ids=["petersen", "c12", "k444", "k12", "e12"]
    + [f"ht33-{n}" for n in range(6, 11)] + ["k123", "p5"],
)
def test_search_matches_the_reference_on_named_graphs(g, shortcut):
    assert classes_are_twin_classes(g) == shortcut
    rng = random.Random(g.n)
    for h in (g, relabel(g, rng.sample(range(g.n), g.n))):
        assert _search(h) == reference_canonical_search(h)


def test_twin_classes_generate_the_whole_group(corpus):
    # When every refinement class is one twin class, the canonical search is
    # skipped: its claim is that Aut(g) is then the product of the symmetric
    # groups on the classes, generated by the twin swaps alone.
    checked = 0
    for n in range(1, 7):
        for g in corpus[n]:
            if not classes_are_twin_classes(g):
                continue
            count = sum(
                all(g.adj[sigma[v]] == sum(1 << sigma[w] for w in range(n) if g.adj[v] >> w & 1)
                    for v in range(n))
                for sigma in permutations(range(n))
            )
            sizes = [refinement_classes(g).count(c) for c in set(refinement_classes(g))]
            assert count == prod(map(factorial, sizes))
            swaps = []
            for a, b in twin_pairs(g):
                swap = list(range(n))
                swap[a], swap[b] = b, a
                swaps.append(tuple(swap))
            assert automorphism_generators(g) == swaps
            checked += 1
    assert checked == 135
