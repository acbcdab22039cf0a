import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import brute_is_saturated, cycle_graph
from rck.graphs import (
    add_edge,
    complete_graph,
    degree_stats,
    empty_graph,
    from_edges,
    has_clique,
    join,
)
from rck.saturation import check_hajnal, is_saturated


def star(n_leaves: int):
    return from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


class TestIsSaturated:
    def test_star_is_triangle_saturated(self):
        report = is_saturated(star(4), 3)
        assert report.is_free and report.is_saturated
        assert report.violating_non_edge is None
        assert report.hajnal_holds

    def test_c5_verdict_from_oracle(self):
        # Frozen from checking all 5 chords: each closes a triangle, so the
        # 5-cycle is in fact K_3-saturated.
        assert brute_is_saturated(cycle_graph(5), 3)
        report = is_saturated(cycle_graph(5), 3)
        assert report.is_free and report.is_saturated

    def test_empty_five_vertices_not_saturated(self):
        report = is_saturated(empty_graph(5), 3)
        assert report.is_free and not report.is_saturated
        assert report.violating_non_edge == (0, 1)

    def test_graph_containing_target_is_not_free(self):
        report = is_saturated(join(complete_graph(3), empty_graph(1)), 3)
        assert not report.is_free and not report.is_saturated

    def test_complete_inputs_flagged_vacuous(self):
        free_complete = is_saturated(complete_graph(3), 4)
        assert free_complete.vacuously_complete
        assert free_complete.is_free and free_complete.is_saturated
        full_complete = is_saturated(complete_graph(4), 4)
        assert full_complete.vacuously_complete
        assert not full_complete.is_free and not full_complete.is_saturated

    def test_t_validation(self):
        with pytest.raises(ValueError):
            is_saturated(cycle_graph(5), 1)

    @settings(max_examples=120, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(min_value=3, max_value=4))
    def test_matches_definitional_oracle(self, g, t):
        report = is_saturated(g, t)
        assert report.is_saturated == brute_is_saturated(g, t)
        # Internal consistency of the report fields.
        assert report.is_free == (not has_clique(g, t))
        if report.is_saturated:
            assert report.is_free
        # The least non-edge whose addition keeps g K_t-free, if g is free.
        keeps_free = [e for e in g.non_edges() if not has_clique(add_edge(g, e), t)]
        expect = keeps_free[0] if report.is_free and keeps_free else None
        assert report.violating_non_edge == expect


class TestHajnal:
    def test_star_passes_via_max_degree(self):
        g = star(4)
        assert check_hajnal(g, 3)
        assert degree_stats(g)[1] == g.n - 1

    def test_apex_join_passes_via_max_degree(self):
        g = join(complete_graph(2), empty_graph(4))
        assert is_saturated(g, 4).is_saturated
        assert check_hajnal(g, 4)

    def test_requires_saturated_input(self):
        with pytest.raises(ValueError):
            check_hajnal(empty_graph(5), 3)

    def test_exhaustive_on_six_vertices(self, corpus):
        # The dichotomy holds for every saturated graph; exhaustive here at
        # n <= 6, the full n <= 8 sweep runs in the acceptance suite.
        for t in (3, 4):
            for g in corpus[6]:
                report = is_saturated(g, t)
                if report.is_saturated and not report.vacuously_complete:
                    assert check_hajnal(g, t)
