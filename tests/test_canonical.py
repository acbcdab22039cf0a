import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import permutation_isomorphic, sorted_tuple_refinement
from rck.arrowing import CliqueVector
from rck.canonical import (
    automorphism_generators,
    canonical_form,
    canonical_permutation,
    refinement_classes,
)
from rck.constructions import hanson_toft
from rck.graph6 import to_graph6
from rck.graphs import (
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    relabel,
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
