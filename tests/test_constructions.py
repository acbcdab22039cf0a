import pytest

from rck.arrowing import CliqueVector, arrows, is_critical
from rck.constructions import (
    CITED_RAMSEY,
    VERIFIED_RAMSEY,
    construction_by_name,
    hanson_toft,
    hanson_toft_edge_count,
    holds_ramsey_clique,
    k6_minus,
    known_ramsey,
    mindeg_bound,
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

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            hanson_toft(CliqueVector((4, 4)), 20)

    def test_target_order_does_not_matter(self):
        assert hanson_toft(CliqueVector((4, 3)), 9) == hanson_toft(S34, 9)
        assert construction_by_name("hanson-toft:4,3:9") == hanson_toft(S34, 9)

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
        assert sharp_mindeg_bound(CliqueVector((4, 3))) == 7  # targets sorted first

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
    """The Ramsey values of VERIFIED_RAMSEY and CITED_RAMSEY."""

    def test_verified_values_with_witnesses(self):
        """Search re-proves every stored value r: K_r arrows, and K_{r-1}
        has a critical coloring."""
        assert set(VERIFIED_RAMSEY) == {(3, 3), (3, 4), (3, 5)}
        for sizes, r in VERIFIED_RAMSEY.items():
            spec = CliqueVector(sizes)
            assert arrows(complete_graph(r), spec).arrows is True
            lower = arrows(complete_graph(r - 1), spec)
            assert lower.arrows is False
            assert is_critical(complete_graph(r - 1), lower.witness, spec)

    def test_cited_only_spec(self):
        assert (3, 3, 3) in CITED_RAMSEY and (3, 3, 3) not in VERIFIED_RAMSEY
        assert known_ramsey(CliqueVector((3, 3, 3))) == 17

    def test_known_ramsey(self):
        assert known_ramsey(S33) == 6
        assert known_ramsey(CliqueVector((3, 5))) == 14
        assert known_ramsey(CliqueVector((4, 4))) is None
        # Ramsey numbers do not depend on the order of the targets.
        assert known_ramsey(CliqueVector((4, 3))) == 9


class TestRamseyCliqueRule:
    """holds_ramsey_clique: a graph that contains K_r, r verified, arrows."""

    def test_whole_graph(self):
        assert holds_ramsey_clique(complete_graph(6), S33)
        assert holds_ramsey_clique(join(complete_graph(6), empty_graph(2)), S33)
        assert not holds_ramsey_clique(complete_graph(5), S33)
        assert not holds_ramsey_clique(k6_minus(), S33)
        # The spec is looked up sorted.
        assert holds_ramsey_clique(complete_graph(9), CliqueVector((4, 3)))

    def test_extension_closes_the_clique(self):
        assert holds_ramsey_clique(k6_minus(), S33, (0, 1))
        ht = hanson_toft(S34, 10)
        for e in ht.non_edges():
            assert holds_ramsey_clique(ht, S34, e)
        # HT(3,3) n=6 plus its non-edge is K6, which holds no K9.
        ht33 = hanson_toft(S33, 6)
        assert not holds_ramsey_clique(ht33, S34, ht33.non_edges()[0])

    def test_cited_values_never_take_the_rule(self):
        k17 = complete_graph(17)
        assert known_ramsey(CliqueVector((3, 3, 3))) == 17
        assert not holds_ramsey_clique(k17, CliqueVector((3, 3, 3)))
        assert not holds_ramsey_clique(complete_graph(18), CliqueVector((4, 4)))


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
