import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import (
    assignments_chromatic_number,
    complement_clique_components,
    cycle_graph,
    path_graph,
    subsets_clique_number,
    subsets_independence_number,
)
from rck.graphs import (
    Graph,
    add_edge,
    chromatic_number,
    clique_number,
    complement,
    complete_graph,
    complete_multipartite_graph,
    degree_stats,
    delete_vertex,
    empty_graph,
    first_free_non_edge,
    from_edges,
    has_clique,
    induced_subgraph,
    is_complete_multipartite,
    join,
    mask_has_clique,
    remove_edge,
    unchecked_graph,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(33, (0,) * 33)
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # self loop at 1
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # neighbor out of range


@settings(max_examples=100)
@given(small_graphs(max_n=12))
def test_unchecked_graph_equals_the_validated_one(g):
    h = unchecked_graph(g.n, g.adj)
    assert h == g and hash(h) == hash(g)
    assert h.edges == g.edges and h.edge_count == g.edge_count
    assert h.edges is h.edges  # cached after the first access


@settings(max_examples=200)
@given(small_graphs(max_n=12))
def test_edges_and_non_edges_match_the_pairwise_definition(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    assert g.edges == tuple(e for e in pairs if g.adj[e[0]] >> e[1] & 1)
    assert g.non_edges() == [e for e in pairs if not g.adj[e[0]] >> e[1] & 1]


def test_add_edge_completes_path_to_triangle():
    p3 = path_graph(3)
    assert add_edge(p3, (0, 2)) == complete_graph(3)


def test_add_edge_on_two_isolated_vertices():
    assert add_edge(empty_graph(2), (0, 1)) == complete_graph(2)


def test_add_edge_restores_k6():
    k6 = complete_graph(6)
    assert add_edge(remove_edge(k6, (0, 1)), (0, 1)) == k6


def test_add_edge_rejects_present_and_out_of_range():
    k3 = complete_graph(3)
    with pytest.raises(ValueError):
        add_edge(k3, (0, 1))
    with pytest.raises(ValueError):
        add_edge(k3, (0, 3))
    with pytest.raises(ValueError):
        add_edge(k3, (1, 1))


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(5)) == empty_graph(5)


def test_c5_self_complementary():
    from rck.canonical import canonical_form

    c5 = cycle_graph(5)
    assert canonical_form(complement(c5)) == canonical_form(c5)


@settings(max_examples=200)
@given(small_graphs(max_n=7))
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(small_graphs(min_n=2, max_n=7))
def test_complement_add_edge_relation(g):
    non_edges = g.non_edges()
    if not non_edges:
        return
    e = non_edges[0]
    assert complement(add_edge(g, e)) == remove_edge(complement(g), e)


def test_join_edge_counts_and_degrees():
    g = join(complete_graph(4), empty_graph(2))
    assert g.n == 6
    assert g.edge_count == 14
    assert join(empty_graph(1), empty_graph(1)) == complete_graph(2)
    h = join(complete_graph(7), empty_graph(2))
    delta, big, _ = degree_stats(h)
    assert (delta, big) == (7, 8)


@given(small_graphs(min_n=1, max_n=4), small_graphs(min_n=1, max_n=4))
def test_join_degree_law(g, h):
    joined = join(g, h)
    for v in range(g.n):
        assert joined.degree(v) == g.degree(v) + h.n
    for v in range(h.n):
        assert joined.degree(g.n + v) == h.degree(v) + g.n


def test_clique_number_examples():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(5)) == 2
    # Frozen from the subset-enumeration oracle.
    assert subsets_clique_number(join(complete_graph(4), empty_graph(2))) == 5
    assert clique_number(join(complete_graph(4), empty_graph(2))) == 5


def test_clique_equals_complement_independence_exhaustive(corpus):
    # All non-isomorphic graphs up to 6 vertices, against the subset oracle.
    for n in range(1, 7):
        for g in corpus[n]:
            assert clique_number(g) == subsets_independence_number(complement(g))


def test_has_clique_examples():
    assert has_clique(complete_graph(4), 4)
    assert not has_clique(cycle_graph(5), 3)
    g = join(complete_graph(4), empty_graph(2))
    assert mask_has_clique(g.adj, 0b011111, 5)  # the clique side plus one apex
    with pytest.raises(ValueError):
        has_clique(g, 0)


@settings(max_examples=100)
@given(small_graphs(min_n=2, max_n=6), st.integers(min_value=1, max_value=6))
def test_has_clique_matches_clique_number(g, t):
    assert has_clique(g, t) == (clique_number(g) >= t)


def test_first_free_non_edge_examples():
    c4 = cycle_graph(4)
    non_edges = c4.non_edges()
    assert non_edges == [(0, 2), (1, 3)]
    # Each diagonal of C4 has two common neighbours, so no K_3 target is free.
    assert first_free_non_edge([(c4.adj, 1)], non_edges) == 2
    # One free pair is enough: an edgeless class frees the first diagonal.
    assert first_free_non_edge([(c4.adj, 1), ((0,) * 4, 1)], non_edges) == 0


@settings(max_examples=100)
@given(
    small_graphs(min_n=2, max_n=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=63),
)
def test_has_clique_within_matches_induced_subgraph(g, t, mask):
    mask &= g.full_mask
    if mask == 0:
        assert not mask_has_clique(g.adj, mask, t)
    else:
        expected = clique_number(induced_subgraph(g, mask)) >= t
        assert mask_has_clique(g.adj, mask, t) == expected


def test_chromatic_number_examples():
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(cycle_graph(5)) == 3
    # Frozen from the assignment-enumeration oracle.
    assert assignments_chromatic_number(join(complete_graph(4), empty_graph(2))) == 5
    assert chromatic_number(join(complete_graph(4), empty_graph(2))) == 5


def test_chromatic_number_size_cap():
    with pytest.raises(ValueError):
        chromatic_number(empty_graph(17))


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=1, max_n=6))
def test_chromatic_oracle_and_clique_bound(g):
    chi = chromatic_number(g)
    assert chi == assignments_chromatic_number(g)
    assert chi >= clique_number(g)


def test_degree_stats():
    assert degree_stats(empty_graph(3)) == (0, 0, (0, 0, 0))
    delta, big, seq = degree_stats(join(complete_graph(4), empty_graph(2)))
    assert delta == 4 and big == 5
    assert seq == (5, 5, 5, 5, 4, 4)


def test_is_complete_multipartite():
    g = join(complete_graph(4), empty_graph(2))
    assert is_complete_multipartite(g) == (True, 5)
    assert is_complete_multipartite(cycle_graph(5)) == (False, 0)
    assert is_complete_multipartite(complete_multipartite_graph([3, 3])) == (True, 2)
    assert is_complete_multipartite(complete_graph(4)) == (True, 4)
    assert is_complete_multipartite(empty_graph(4)) == (True, 1)


def test_is_complete_multipartite_matches_definition(corpus):
    for n in range(1, 8):
        for g in corpus[n]:
            assert is_complete_multipartite(g) == complement_clique_components(g)


def test_induced_subgraph_and_delete_vertex():
    g = join(complete_graph(4), empty_graph(2))
    assert induced_subgraph(g, 0b001111) == complete_graph(4)
    assert delete_vertex(g, 5) == join(complete_graph(4), empty_graph(1))
    with pytest.raises(ValueError):
        delete_vertex(g, 6)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
