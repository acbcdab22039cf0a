import pytest

from rck.arrowing import CliqueVector, is_critical
from rck.constructions import (
    construction_by_name,
    hanson_toft,
    hanson_toft_edge_count,
    k6_minus,
    known_ramsey,
    mindeg_bound,
    ramsey_fact,
    ramsey_lower_bound,
    sharp_mindeg_bound,
)
from rck.graphs import (
    complete_graph,
    complete_multipartite_graph,
    degree_stats,
    empty_graph,
    join,
)

S33 = CliqueVector((3, 3))
S34 = CliqueVector((3, 4))


class TestHansonToft:
    def test_edge_counts_match_formula(self):
        assert hanson_toft(S33, 6).edge_count == 14
        assert hanson_toft(S33, 7).edge_count == 18
        assert hanson_toft(S33, 8).edge_count == 22
        assert hanson_toft(S34, 9).edge_count == 35
        assert hanson_toft(S34, 10).edge_count == 42
        assert hanson_toft_edge_count(9, 9) == 35

    def test_shape_is_clique_joined_to_stable_set(self):
        assert hanson_toft(S33, 6) == join(complete_graph(4), empty_graph(2))
        assert hanson_toft(S34, 9) == join(complete_graph(7), empty_graph(2))

    def test_min_degree_is_r_minus_two(self):
        for spec, r in ((S33, 6), (S34, 9)):
            for n in range(r, r + 3):
                assert degree_stats(hanson_toft(spec, n))[0] == r - 2

    def test_unknown_spec_needs_user_r(self):
        with pytest.raises(ValueError):
            hanson_toft(CliqueVector((4, 4)), 20)
        g = hanson_toft(CliqueVector((4, 4)), 20, r=18)
        assert g.n == 20 and degree_stats(g)[0] == 16

    def test_n_below_r_rejected(self):
        with pytest.raises(ValueError):
            hanson_toft(S33, 5)


class TestK6Minus:
    def test_edge_count_and_degree(self):
        g = k6_minus()
        assert g.edge_count == 14
        assert degree_stats(g)[0] == 4


class TestMindegBound:
    def test_values(self):
        assert mindeg_bound(S33) == 4
        assert mindeg_bound(S34) == 6
        assert mindeg_bound(CliqueVector((4, 4))) == 7
        assert mindeg_bound(CliqueVector((3, 3, 3))) == 5

    def test_sharp_upgrades(self):
        assert sharp_mindeg_bound(S33) == 4
        assert sharp_mindeg_bound(S34) == 7  # strictly above the formula value
        assert sharp_mindeg_bound(CliqueVector((4, 4))) == 7

    def test_rejects_unsorted_or_small(self):
        with pytest.raises(ValueError):
            mindeg_bound(CliqueVector((4, 3)))
        with pytest.raises(ValueError):
            mindeg_bound(CliqueVector((2, 3)))
        with pytest.raises(ValueError):
            mindeg_bound(CliqueVector((3,)))  # the formula needs two colors


class TestRamseyLowerBound:
    def test_values(self):
        assert ramsey_lower_bound(3, 3) == 6
        assert ramsey_lower_bound(3, 4) == 9
        # The closed form overshoots at s=2; reported verbatim by design.
        assert ramsey_lower_bound(2, 5) == 8

    def test_domain(self):
        with pytest.raises(ValueError):
            ramsey_lower_bound(1, 3)


class TestRamseyFact:
    def test_verified_values_with_witnesses(self):
        fact33 = ramsey_fact(S33)
        assert fact33.r == 6 and fact33.provenance == "verified-by-search"
        assert is_critical(complete_graph(5), fact33.lower_witness, S33)
        fact34 = ramsey_fact(S34)
        assert fact34.r == 9 and fact34.provenance == "verified-by-search"
        assert is_critical(complete_graph(8), fact34.lower_witness, S34)

    def test_cited_only_spec(self):
        spec = CliqueVector((3, 3, 3))
        with pytest.raises(ValueError):
            ramsey_fact(spec)  # out of the verified budget
        fact = ramsey_fact(spec, verify=False)
        assert fact.r == 17 and fact.provenance == "paper-cited"
        assert fact.lower_witness is None

    def test_known_ramsey(self):
        assert known_ramsey(S33) == 6
        assert known_ramsey(CliqueVector((4, 4))) is None


class TestConstructionNames:
    def test_known_names(self):
        assert construction_by_name("kn:6") == complete_graph(6)
        assert construction_by_name("k6minus") == k6_minus()
        assert construction_by_name("hanson-toft:3,4:9") == hanson_toft(S34, 9)
        assert construction_by_name("complete-multipartite:2,2,2") == (
            complete_multipartite_graph([2, 2, 2])
        )

    def test_bad_names(self):
        for name in ("kn", "kn:x", "nope:3", "hanson-toft:3,4", "k6minus:1"):
            with pytest.raises(ValueError):
                construction_by_name(name)
