import pytest

from oracles import brute_is_cocritical, cycle_graph, greedy_cocritical
from rck.arrowing import (
    CliqueVector,
    EdgeColoring,
    NodeLimitExceeded,
    arrows,
    extremal_critical_coloring,
    is_critical,
    node_budget,
)
from rck.cocritical import (
    check_lemma_1_2,
    check_lemma_1_5,
    graph_facts,
    is_cocritical,
    is_minimal_cocritical,
    lemma_suite,
    max_disjoint_cliques,
    mindeg_assert,
)
from rck.constructions import hanson_toft, k6_minus, sharp_mindeg_bound
from rck.graph6 import parse_graph6
from rck.graphs import (
    add_edge,
    complete_graph,
    degree_stats,
    empty_graph,
    from_edges,
    join,
    remove_edge,
)

S33 = CliqueVector((3, 3))
S34 = CliqueVector((3, 4))
S35 = CliqueVector((3, 5))
S333 = CliqueVector((3, 3, 3))


class TestIsCocritical:
    def test_k6_minus(self):
        report = is_cocritical(k6_minus(), S33)
        assert report.is_cocritical is True
        assert report.failing_edge is None
        assert report.delta == 4 and report.chi == 5
        assert report.ht_bound == 14 and report.meets_ht
        assert is_critical(k6_minus(), report.base_witness, S33)

    def test_hanson_toft_33(self):
        report = is_cocritical(hanson_toft(S33, 6), S33)
        assert report.is_cocritical is True

    def test_c5_is_not(self):
        report = is_cocritical(cycle_graph(5), S33)
        assert report.is_cocritical is False
        assert report.failing_edge == (0, 2)
        assert report.base_witness is None

    def test_complete_graph_is_not_cocritical(self):
        report = is_cocritical(complete_graph(6), S33)
        assert report.is_cocritical is False
        assert report.failing_edge is None and report.base_witness is None
        assert report.nodes == 0
        assert graph_facts(complete_graph(6), S33) == (5, 6, 14)
        # Only a co-critical report carries the graph's facts.
        assert (report.delta, report.chi, report.ht_bound, report.meets_ht) == (
            None, None, None, None,
        )

    def test_no_hanson_toft_bound_below_r(self):
        # No graph on fewer than r(3,4) = 9 vertices is co-critical.
        assert graph_facts(cycle_graph(5), S34) == (2, 3, None)
        report = is_cocritical(cycle_graph(5), S34)
        assert report.ht_bound is None and report.meets_ht is None
        assert graph_facts(cycle_graph(5), CliqueVector((4, 4)))[2] is None
        assert graph_facts(hanson_toft(S34, 9), S34)[2] == 35

    def test_graph_that_arrows_is_not_cocritical(self):
        g = join(complete_graph(6), empty_graph(2))
        report = is_cocritical(g, S33)
        assert report.is_cocritical is False
        assert report.failing_edge is None

    def test_workers_do_not_change_the_report(self):
        seq = is_cocritical(k6_minus(), S33, workers=1)
        par = is_cocritical(k6_minus(), S33, workers=2)
        assert seq == par
        # Negative verdicts too: parallel mode stops at the first failing
        # non-edge in lexicographic order, as sequential mode does.
        seq_false = is_cocritical(cycle_graph(5), S33, workers=1)
        par_false = is_cocritical(cycle_graph(5), S33, workers=2)
        assert seq_false == par_false
        # And on a graph whose extensions are all searched.
        ht = hanson_toft(S34, 10)
        assert is_cocritical(ht, S34, workers=2) == is_cocritical(ht, S34, workers=1)

    def test_matches_brute_force_on_five_vertices(self, corpus):
        for g in corpus[5]:
            if g.is_complete():
                continue
            assert is_cocritical(g, S33).is_cocritical == brute_is_cocritical(g, S33)

    def test_budget_covers_the_base_and_every_extension(self):
        # D^{ under (3,3): its base search takes 11 nodes and its one
        # searched extension, (0,1), 12 nodes without arrowing.  A limit of
        # 22 fits each search but not their sum.
        g = parse_graph6("D^{")
        for limit in (11, 22):
            with node_budget(limit):
                assert is_cocritical(g, S33).is_cocritical is None
        with node_budget(23):
            report = is_cocritical(g, S33)
        assert report.is_cocritical is False and report.failing_edge == (0, 1)
        assert report.nodes == 23

    def test_exhausted_budget_gives_indeterminate(self):
        with node_budget(3):
            report = is_cocritical(k6_minus(), S33)
        assert report.is_cocritical is None


def plain_cocritical(g, spec):
    """Verdict and failing edge by one search per non-edge, in lexicographic order."""
    if arrows(g, spec).arrows:
        return False, None
    for e in g.non_edges():
        if not arrows(add_edge(g, e), spec).arrows:
            return False, e
    return True, None


class TestWitnessFirstRefutation:
    @pytest.mark.parametrize("spec", [S33, S34], ids=str)
    def test_matches_plain_extension_search_up_to_eight_vertices(self, corpus, spec):
        for n, graphs in corpus.items():
            for g in graphs:
                if g.is_complete():
                    continue
                report = is_cocritical(g, spec)
                got = (report.is_cocritical, report.failing_edge)
                assert got == plain_cocritical(g, spec), (n, g.adj)

    def test_refuted_extension_costs_no_search(self):
        # C5's least non-edge (0,2) takes a free color under the base witness.
        base = arrows(cycle_graph(5), S33)
        report = is_cocritical(cycle_graph(5), S33)
        assert report.failing_edge == (0, 2)
        assert report.nodes == base.stats.nodes


class TestGreedyOracle:
    """Greedy maximal non-arrowing graphs are co-critical by monotonicity
    alone, past the exhaustive corpus and off the Hanson-Toft family."""

    @pytest.mark.parametrize(
        "spec, n, seed",
        [(S33, 10, 0), (S33, 10, 1), (S34, 10, 0), (S34, 10, 1), (S34, 11, 0),
         (S34, 11, 1), (S35, 14, 0)],
        ids=str,
    )
    def test_greedy_graph_is_cocritical(self, spec, n, seed):
        g = greedy_cocritical(n, spec, seed)
        assert is_cocritical(g, spec).is_cocritical is True
        assert all(f.holds for f in lemma_suite(g, spec))
        assert degree_stats(g)[0] >= sharp_mindeg_bound(spec)
        # One edge fewer it is not co-critical; the shortcuts must find the
        # same failing edge as the definition.
        h = remove_edge(g, g.edges[-1])
        report = is_cocritical(h, spec)
        assert (report.is_cocritical, report.failing_edge) == plain_cocritical(h, spec)


class TestRamseyCliqueRule:
    def test_extensions_holding_k9_cost_no_search(self):
        # Every non-edge extension of HT(3,4) holds K9, so the verdict costs
        # only the base search.
        for n in range(9, 13):
            g = hanson_toft(S34, n)
            base = arrows(g, S34)
            report = is_cocritical(g, S34)
            assert report.is_cocritical is True
            assert report.nodes == base.stats.nodes

    def test_base_graph_holding_k_r_costs_no_search(self):
        report = is_cocritical(join(complete_graph(6), empty_graph(2)), S33)
        assert (report.is_cocritical, report.failing_edge, report.nodes) == (False, None, 0)

    def test_cited_ramsey_value_never_takes_the_rule(self):
        # r(3,3,3) = 17 is only cited: a graph holding K17 is still searched,
        # so a small budget leaves it undecided instead of settled for free.
        g = join(complete_graph(17), empty_graph(2))
        with node_budget(50):
            report = is_cocritical(g, S333)
        assert report.is_cocritical is None and report.nodes > 50


class TestHansonToftFamily:
    def test_cocritical_through_r_plus_two(self):
        # Construction invariant for every verified spec: co-critical with
        # the closed-form edge count and minimum degree r-2, for every
        # r <= n <= r+2.
        from rck.constructions import hanson_toft_edge_count, mindeg_bound
        from rck.graphs import degree_stats

        for spec, r in ((S33, 6), (S34, 9), (S35, 14)):
            for n in range(r, r + 3):
                g = hanson_toft(spec, n)
                assert g.edge_count == hanson_toft_edge_count(r, n)
                assert degree_stats(g)[0] == r - 2 >= mindeg_bound(spec)
                report = is_cocritical(g, spec, workers=2)
                assert report.is_cocritical is True

    def test_hanson_toft_35_meets_every_lemma(self):
        # (3,5) is the first spec checked against the general bound (8)
        # rather than a sharp value.
        from rck.constructions import mindeg_bound

        g = hanson_toft(S35, 14)
        assert mindeg_bound(S35) == 8
        findings = lemma_suite(g, S35)
        assert findings and all(f.holds for f in findings)
        assert {f.clause for f in findings} >= {"1.2", "thm1.6-degree", "1.5a", "1.5b"}


class TestMinimality:
    def test_k6_minus_is_minimal(self):
        assert is_minimal_cocritical(k6_minus(), S33) is True

    def test_hanson_toft_seven_is_not(self):
        # Deleting one stable-set vertex leaves the 6-vertex construction,
        # which is still co-critical (vertex-deletion scan).
        assert is_minimal_cocritical(hanson_toft(S33, 7), S33) is False

    def test_requires_cocritical_input(self):
        with pytest.raises(ValueError):
            is_minimal_cocritical(cycle_graph(5), S33)

    def test_raises_one_node_short(self):
        # K6-e: the co-critical verdict takes 16 nodes (its one extension is
        # K6), the six deletions 92.
        g = k6_minus()
        report = is_cocritical(g, S33)
        with node_budget(92):
            assert is_minimal_cocritical(g, S33, report=report) is True
        with node_budget(91), pytest.raises(NodeLimitExceeded):
            is_minimal_cocritical(g, S33, report=report)
        with node_budget(16 + 91), pytest.raises(NodeLimitExceeded):
            is_minimal_cocritical(g, S33)
        with node_budget(16 + 92):
            assert is_minimal_cocritical(g, S33) is True

    def test_exhausted_verdict_is_not_a_value_error(self):
        with node_budget(5), pytest.raises(NodeLimitExceeded):
            is_minimal_cocritical(k6_minus(), S33)


class TestLemma12:
    def test_k6_minus(self):
        finding = check_lemma_1_2(k6_minus(), S33, 6)
        assert finding.holds
        assert finding.context["chi"] == 5
        assert finding.context["parts"] == 5

    def test_hanson_toft_33(self):
        assert check_lemma_1_2(hanson_toft(S33, 6), S33, 6).holds

    def test_hanson_toft_34(self):
        finding = check_lemma_1_2(hanson_toft(S34, 9), S34, 9)
        assert finding.holds
        assert finding.context["chi"] == 8

    def test_violation_detected_on_non_cocritical_graph(self):
        # C_5 has chi=3 < 5; the checker must flag it (C_5 is not
        # co-critical, so this exercises the failure path only).
        assert not check_lemma_1_2(cycle_graph(5), S33, 6).holds


class TestLemma15:
    def test_suite_passes_on_known_cocritical_graphs(self):
        for g, spec in (
            (k6_minus(), S33),
            (hanson_toft(S33, 7), S33),
            (hanson_toft(S34, 9), S34),
        ):
            findings = check_lemma_1_5(g, spec)
            assert findings
            assert all(f.holds for f in findings)

    def test_clause_b_on_k6_minus(self):
        findings = [
            f for f in check_lemma_1_5(k6_minus(), S33)
            if f.clause == "1.5b"
        ]
        # Both low-degree vertices, both colors; all hold.
        assert len(findings) == 4
        assert all(f.holds for f in findings)

    def test_c2_vacuous_cases_are_marked(self):
        findings = check_lemma_1_5(hanson_toft(S34, 9), S34)
        c2 = [f for f in findings if f.clause == "1.5c2"]
        assert c2
        for f in c2:
            assert f.holds
            if not f.vacuous:
                assert f.context["last_neighborhood"] >= 5

    def test_policy_and_spec_validation(self):
        with pytest.raises(ValueError):
            check_lemma_1_5(k6_minus(), CliqueVector((4, 3)))
        with pytest.raises(ValueError):
            check_lemma_1_5(k6_minus(), CliqueVector((2, 3)))

    def test_non_cocritical_graph_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_1_5(complete_graph(6), S33)

    def test_explicit_coloring_is_respected(self):
        coloring = extremal_critical_coloring(k6_minus(), S33, 2, "max")
        findings = check_lemma_1_5(k6_minus(), S33, coloring=coloring)
        assert all(f.holds for f in findings)

    def test_explicit_coloring_must_be_critical_for_the_graph(self):
        # An all-red K6-e holds red triangles; a critical coloring of C6
        # colors another graph.  Neither may be reported as a violation.
        g = k6_minus()
        all_red = EdgeColoring(g, (1,) * g.edge_count, 2)
        other_host = arrows(cycle_graph(6), S33).witness
        for coloring in (all_red, other_host):
            with pytest.raises(ValueError):
                check_lemma_1_5(g, S33, coloring=coloring)

    def test_three_colors_run_a_b_and_c1(self):
        # K6-e is not (3,3,3)-co-critical, so only the mechanics are
        # checked: both low-degree vertices get clauses a and b for each of
        # the three colors, c1 runs, and c2 is stated for two colors only.
        findings = check_lemma_1_5(k6_minus(), CliqueVector((3, 3, 3)))
        assert {f.clause for f in findings} == {"1.5a", "1.5b", "1.5c1"}
        a_findings = [
            (f.context["x"], f.context["ell"]) for f in findings if f.clause == "1.5a"
        ]
        assert a_findings == [(x, ell) for x in (0, 1) for ell in (1, 2, 3)]


class TestMaxDisjointCliques:
    def test_triangle_packing(self):
        g = join(complete_graph(3), complete_graph(3))
        # Two disjoint triangles exist inside K_3 + K_3 (it is K_6).
        assert max_disjoint_cliques(g.adj, g.full_mask, 3) == 2

    def test_edge_packing_in_cycle(self):
        c6 = cycle_graph(6)
        assert max_disjoint_cliques(c6.adj, c6.full_mask, 2) == 3

    def test_singletons(self):
        g = empty_graph(4)
        assert max_disjoint_cliques(g.adj, g.full_mask, 1) == 4

    def test_no_cliques(self):
        g = empty_graph(4)
        assert max_disjoint_cliques(g.adj, g.full_mask, 2) == 0


class TestMindegAssert:
    def test_bounds_per_spec(self):
        assert mindeg_assert(k6_minus(), S33).context["bound"] == 4
        assert mindeg_assert(hanson_toft(S34, 9), S34).context["bound"] == 7
        g333 = hanson_toft(CliqueVector((3, 3, 3)), 17)
        assert mindeg_assert(g333, CliqueVector((3, 3, 3))).context["bound"] == 5

    def test_holds_on_examples(self):
        assert mindeg_assert(k6_minus(), S33).holds
        assert mindeg_assert(hanson_toft(S34, 10), S34).holds

    def test_detects_low_degree(self):
        finding = mindeg_assert(cycle_graph(5), S33)
        assert not finding.holds


class TestLemmaSuite:
    def test_zero_violations_on_examples(self):
        for g, spec in ((k6_minus(), S33), (hanson_toft(S34, 9), S34)):
            findings = lemma_suite(g, spec)
            assert findings
            assert all(f.holds for f in findings)
            clauses = {f.clause for f in findings}
            assert {"1.2", "thm1.6-degree", "1.5a", "1.5b"} <= clauses

    def test_target_order_does_not_matter(self):
        g = hanson_toft(S34, 9)
        descending = CliqueVector((4, 3))
        assert descending.sorted() == S34
        assert lemma_suite(g, descending) == lemma_suite(g, S34) != []
        assert mindeg_assert(g, descending).context["bound"] == 7

    def test_raises_one_node_short(self):
        # The extremal coloring of K6-e for Lemma 1.5 takes 33 nodes.
        unlimited = lemma_suite(k6_minus(), S33)
        with node_budget(33):
            assert lemma_suite(k6_minus(), S33) == unlimited
        with node_budget(32), pytest.raises(NodeLimitExceeded):
            lemma_suite(k6_minus(), S33)

    def test_chromatic_bound_skipped_past_the_chromatic_limit(self):
        # HT(3,3) n=17 has 17 vertices, one past chromatic_number's limit;
        # the other checks still run.
        findings = lemma_suite(hanson_toft(S33, 17), S33)
        clauses = {f.clause for f in findings}
        assert "1.2" not in clauses
        assert {"thm1.6-degree", "1.5a", "1.5b"} <= clauses
        assert all(f.holds for f in findings)
        assert any(f.clause == "1.2" for f in lemma_suite(hanson_toft(S33, 16), S33))

    def test_suite_empty_for_unqualified_spec(self):
        g = from_edges(3, [(0, 1)])
        assert lemma_suite(g, CliqueVector((2, 3))) == []

    def test_suite_empty_for_one_color(self):
        # C5 is co-critical for (3) with delta = 2; the structural checks
        # are stated for two or more colors only.
        one = CliqueVector((3,))
        assert is_cocritical(cycle_graph(5), one).is_cocritical is True
        assert lemma_suite(cycle_graph(5), one) == []
