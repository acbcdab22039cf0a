import contextlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import (
    all_critical_words,
    breaks_lex_leader,
    brute_arrows,
    brute_extremal_class_size,
    completes_clique,
    cycle_graph,
    twin_swap_images,
)
from rck.arrowing import (
    _Search,
    CliqueVector,
    EdgeColoring,
    NodeLimitExceeded,
    arrows,
    extremal_critical_coloring,
    is_critical,
    node_budget,
    parse_coloring,
    serialize_coloring,
)
from rck.constructions import hanson_toft
from rck.graph6 import to_graph6
from rck.graphs import (
    Graph,
    add_edge,
    complement,
    complete_graph,
    complete_multipartite_graph,
    empty_graph,
    join,
    twin_pairs,
)
from rck.parallel import ordered_map, usable_cpus
from rck.saturation import is_saturated

S33 = CliqueVector((3, 3))
S34 = CliqueVector((3, 4))
S23 = CliqueVector((2, 3))
S35 = CliqueVector((3, 5))
S334 = CliqueVector((3, 3, 4))


def c5_coloring_of_k5() -> EdgeColoring:
    k5 = complete_graph(5)
    red = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    return EdgeColoring(k5, tuple(1 if e in red else 2 for e in k5.edges), 2)


class TestCliqueVector:
    def test_parse_and_str(self):
        assert CliqueVector.parse("3,4").sizes == (3, 4)
        assert str(CliqueVector((3, 3, 3))) == "3,3,3"

    def test_validation(self):
        with pytest.raises(ValueError):
            CliqueVector(())
        with pytest.raises(ValueError):
            CliqueVector((3, 1))
        with pytest.raises(ValueError):
            CliqueVector((3,) * 5)
        with pytest.raises(ValueError):
            CliqueVector.parse("3,x")

    def test_ordering_helpers(self):
        assert CliqueVector((3, 4)).is_standard()
        assert CliqueVector((3, 3, 4)).is_standard()
        assert not CliqueVector((4, 3)).is_standard()
        assert not CliqueVector((2, 3)).is_standard()
        assert not CliqueVector((3,)).is_standard()


class TestIsCritical:
    def test_two_five_cycles_on_k5(self):
        # Both classes are 5-cycles, verified triangle-free by enumeration.
        k5 = complete_graph(5)
        assert is_critical(k5, c5_coloring_of_k5(), S33)

    def test_monochromatic_triangle_fails(self):
        k3 = complete_graph(3)
        assert not is_critical(k3, EdgeColoring(k3, (1, 1, 1), 2), S33)

    def test_single_edge_always_critical_for_triangles(self):
        k2 = complete_graph(2)
        assert is_critical(k2, EdgeColoring(k2, (1,), 2), S33)
        assert is_critical(k2, EdgeColoring(k2, (2,), 2), S33)

    def test_class_adj_splits_the_edges(self):
        coloring = c5_coloring_of_k5()
        assert coloring.class_adj(1) == cycle_graph(5).adj
        assert coloring.class_adj(2) == complement(cycle_graph(5)).adj
        assert Graph(5, coloring.class_adj(2)) == complement(cycle_graph(5))

    def test_errors(self):
        k3 = complete_graph(3)
        with pytest.raises(ValueError):
            is_critical(complete_graph(4), EdgeColoring(k3, (1, 1, 2), 2), S33)
        with pytest.raises(ValueError):
            is_critical(k3, EdgeColoring(k3, (1, 1, 2), 2), CliqueVector((3, 3, 3)))
        with pytest.raises(ValueError):
            EdgeColoring(k3, (1, 1, 3), 2)  # color out of range


# Runs K9, HT(3,4) n=9 and HT(3,4) n=10 in the order given on the command
# line, in a fresh interpreter, and prints each verdict with its node count.
_ORDER_SCRIPT = """
import json, sys
from rck.arrowing import CliqueVector, arrows
from rck.cocritical import is_cocritical
from rck.constructions import hanson_toft
from rck.graphs import complete_graph

S34 = CliqueVector((3, 4))
out = {}
for name in sys.argv[1:]:
    if name == "K9":
        v = arrows(complete_graph(9), S34)
        out[name] = [v.arrows, v.stats.nodes, v.stats.max_depth]
    else:
        r = is_cocritical(hanson_toft(S34, int(name[2:])), S34)
        out[name] = [r.is_cocritical, r.nodes]
print(json.dumps(out, sort_keys=True))
"""


class TestArrows:
    def test_k6_arrows_and_k5_does_not(self):
        assert arrows(complete_graph(6), S33).arrows is True
        verdict = arrows(complete_graph(5), S33)
        assert verdict.arrows is False
        assert is_critical(complete_graph(5), verdict.witness, S33)

    def test_k8_has_witness_for_3_4(self):
        verdict = arrows(complete_graph(8), S34)
        assert verdict.arrows is False
        assert is_critical(complete_graph(8), verdict.witness, S34)

    def test_degenerate_pair_target(self):
        # A K_2 target forbids the color entirely.
        assert arrows(complete_graph(3), S23).arrows is True
        verdict = arrows(complete_graph(2), S23)
        assert verdict.arrows is False
        assert verdict.witness.colors == (2,)

    def test_edgeless_graph_never_arrows(self):
        verdict = arrows(empty_graph(3), S33)
        assert verdict.arrows is False
        assert verdict.witness.colors == ()

    def test_exhausted_budget_reports_indeterminate(self):
        with node_budget(5):
            verdict = arrows(complete_graph(6), S33)
        assert verdict.arrows is None
        assert verdict.witness is None

    def test_monotone_under_edge_addition(self):
        # Spot check: a supergraph of K_6 arrows, and stays arrowing under
        # any further edge addition.
        sup = join(complete_graph(6), empty_graph(2))
        assert arrows(sup, S33).arrows is True
        for e in sup.non_edges():
            assert arrows(add_edge(sup, e), S33).arrows is True

    def test_determinism_across_runs_and_workers(self):
        g = complete_graph(8)
        first = arrows(g, S34, workers=1)
        second = arrows(g, S34, workers=1)
        third = arrows(g, S34, workers=2)
        assert first.arrows == second.arrows == third.arrows is False
        assert first.witness == second.witness == third.witness
        assert first.stats.nodes == second.stats.nodes == third.stats.nodes
        assert first.stats.max_depth == third.stats.max_depth

    def test_counts_do_not_depend_on_call_order(self):
        # Every HT(3,4) extension holds a K9 and is settled by the K_r rule,
        # while K9 itself is searched.  Each search counts its own nodes, so
        # no verdict reuses an uncounted proof made earlier in the process.
        names = ["K9", "HT9", "HT10"]
        orders = [names[i:] + names[:i] for i in range(len(names))]
        results = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", _ORDER_SCRIPT, *order],
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=300,
                ).stdout
            )
            for order in orders
        ]
        assert results[0] == results[1] == results[2]
        assert results[0] == {
            "HT10": [True, 58],
            "HT9": [True, 50],
            "K9": [True, 220, 30],
        }


class TestNodeBudget:
    """node_budget bounds the nodes of every search started in the block."""

    def test_witness_past_the_limit_is_indeterminate(self):
        # The K8 (3,4) witness takes 39 nodes.
        g = complete_graph(8)
        with node_budget(39):
            assert arrows(g, S34).arrows is False
        with node_budget(38):
            verdict = arrows(g, S34)
        assert verdict.arrows is None and verdict.witness is None
        assert verdict.stats.nodes > 38

    def test_proof_past_the_limit_is_indeterminate(self):
        # The K9 (3,4) proof takes 220 nodes.
        with node_budget(220):
            assert arrows(complete_graph(9), S34).arrows is True
        with node_budget(219):
            verdict = arrows(complete_graph(9), S34)
        assert verdict.arrows is None
        assert (verdict.stats.nodes, verdict.stats.max_depth) == (220, 30)

    def test_searches_in_a_block_share_one_count(self):
        g = complete_graph(8)
        with node_budget(78):
            assert [arrows(g, S34).arrows for _ in range(2)] == [False, False]
        with node_budget(77):
            first, second, third = (arrows(g, S34) for _ in range(3))
        assert first.arrows is False and first.stats.nodes == 39
        # The second search runs out at node 39; the third at its first node.
        assert second.arrows is None and second.stats.nodes == 39
        assert third.arrows is None and third.stats.nodes == 1

    def test_ledger_counts_every_node_of_the_block(self):
        g = complete_graph(8)
        with node_budget(None) as ledger:
            assert ledger.nodes == 0
            arrows(g, S34)
            arrows(g, S34)
            assert ledger.nodes == 78
        # 39, then 39 with the node that passed the limit, then 1.
        with node_budget(77) as ledger:
            for _ in range(3):
                arrows(g, S34)
        assert ledger.nodes == 79

    def test_innermost_block_governs_and_none_sets_no_limit(self):
        g = complete_graph(8)
        with node_budget(38):
            with node_budget(None):
                assert arrows(g, S34).arrows is False
            with node_budget(39):
                assert arrows(g, S34).arrows is False
            assert arrows(g, S34).arrows is None
        assert arrows(g, S34).arrows is False

    def test_extremal_raises_one_node_short(self):
        g = complete_graph(5)
        search = _Search(g, S33, twins=True)
        search.optimum(2, True)
        cost = search.nodes
        with node_budget(cost):
            coloring = extremal_critical_coloring(g, S33, 2, "max")
        assert coloring == extremal_critical_coloring(g, S33, 2, "max")
        with node_budget(cost - 1), pytest.raises(NodeLimitExceeded):
            extremal_critical_coloring(g, S33, 2, "max")


class TestOrderedMap:
    def test_one_worker_returns_a_list(self):
        assert ordered_map(abs, [-1, 2, -3], 1) == [1, 2, 3]

    def test_pool_keeps_input_order(self):
        jobs = list(range(-40, 40, 3))
        assert ordered_map(abs, jobs, 2) == [abs(j) for j in jobs]

    @pytest.mark.parametrize(
        "workers, jobs, cpus, started",
        [
            (4096, 2, 8, 2),  # never more processes than jobs
            (4096, 100, 8, 8),  # nor than usable CPUs
            (3, 100, 8, 3),
            (2, 100, 2, 2),  # corpus-n8's two workers on two CPUs
            (4096, 100, 1, None),  # one CPU: inline
            (2, 1, 8, None),  # one job: inline
        ],
    )
    def test_pool_is_capped(self, monkeypatch, workers, jobs, cpus, started):
        # A stub executor records its size and maps inline, so no process
        # starts whatever the requested worker count.
        sizes = []

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, items, chunksize):
                return map(fn, items)

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recording)
        monkeypatch.setattr("rck.parallel.usable_cpus", lambda: cpus)
        assert ordered_map(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
        assert sizes == ([] if started is None else [started])

    def test_usable_cpus_within_the_machine(self):
        assert 1 <= usable_cpus() <= (os.cpu_count() or 1)


def masks(s: _Search) -> list[int]:
    """The feasible-color mask of every edge, expanded from the search's
    per-color edge sets: bit ell of mask i is set while uncolored edge i can
    still take color ell.  A colored edge reads 0."""
    return [
        sum(1 << ell for ell in range(1, s.k + 1) if s.can[ell] >> i & 1)
        if s.can[0] >> i & 1
        else 0
        for i in range(s.m)
    ]


class TestSymmetryBreaking:
    """Bit ell of a feasible-color mask stands for color ell."""

    def test_equal_targets_restrict_first_edge(self):
        assert masks(_Search(complete_graph(6), S33, color_seed=True))[0] == 0b010

    def test_distinct_targets_on_complete_graph_restrict_nothing(self):
        assert masks(_Search(complete_graph(9), S34, color_seed=True))[0] == 0b110

    def test_non_complete_graph_color_restriction_only(self):
        assert masks(_Search(cycle_graph(5), S33, color_seed=True))[0] == 0b010
        assert masks(_Search(cycle_graph(5), S34, color_seed=True))[0] == 0b110

    def test_three_color_groups(self):
        s = _Search(complete_graph(4), S334, color_seed=True)
        assert masks(s)[0] == 0b1010  # colors 1 and 3

    def test_twin_pairs(self):
        assert twin_pairs(complete_graph(4)) == [(0, 1), (1, 2), (2, 3)]
        assert twin_pairs(cycle_graph(5)) == []
        # Part {0} is no twin; parts {1, 2} and {3, 4, 5} are independent.
        km = complete_multipartite_graph((1, 2, 3))
        assert twin_pairs(km) == [(1, 2), (3, 4), (4, 5)]
        # The clique {0..3} of HT(3,3) n=7 and its stable set {4, 5, 6}.
        assert twin_pairs(hanson_toft(S33, 7)) == [
            (0, 1), (1, 2), (2, 3), (4, 5), (5, 6),
        ]

    @staticmethod
    def outcomes(g, spec, twins):
        """The verdict and the four optima |E_1|, |E_2| (max, min)."""
        arrowing = _Search(g, spec, color_seed=True, twins=twins).decide() is None
        optima = []
        for color in (1, 2):
            for maximizing in (True, False):
                word = _Search(g, spec, twins=twins).optimum(color, maximizing)
                if word is not None:
                    assert is_critical(g, EdgeColoring(g, word, spec.k), spec)
                optima.append(None if word is None else word.count(color))
        return arrowing, optima

    def test_twin_constraints_keep_verdicts_and_optima(self, corpus):
        specs = (S33, S34)
        graphs = [(g, spec) for n in range(1, 8) for g in corpus[n] for spec in specs]
        # Twin-rich graphs up to ten vertices.  HT(3,4) n=10 and the (3,4)
        # case of K_{2,2,2,2,2} are left out: their unconstrained optima take
        # over 15 s each.
        rich = [complete_graph(n) for n in range(2, 11)]
        rich += [hanson_toft(S33, n) for n in range(6, 11)]
        parts = ((2, 2, 2, 2), (3, 3, 3), (1, 1, 2, 2, 2), (2, 2, 3, 3), (1, 3, 3, 3))
        rich += [complete_multipartite_graph(p) for p in parts]
        graphs += [(g, spec) for g in rich for spec in specs]
        graphs += [
            (hanson_toft(S34, 9), S34),
            (complete_multipartite_graph((2,) * 5), S33),
        ]
        for g, spec in graphs:
            on = self.outcomes(g, spec, True)
            if not twin_pairs(g):
                continue
            if on[0]:
                # No critical coloring: a plain decide() settles the optima too.
                assert on[1] == [None] * 4
                assert _Search(g, spec, color_seed=True).decide() is None
            else:
                assert on == self.outcomes(g, spec, False), g.adj

    def test_lex_skip_matches_the_full_walk(self, corpus):
        """assign() walks a constraint only once i's partner is colored; a
        search that also makes the full walk after every assign must get
        the same wipe-out verdict from it."""

        class FullWalk(_Search):
            __slots__ = ("images",)

            def assign(self, i, ell):
                wiped = super().assign(i, ell)
                full = breaks_lex_leader(self.images, self.colors, i)
                forward = any(
                    not mask for j, mask in enumerate(masks(self)) if not self.colors[j]
                )
                assert wiped == (forward or full), (i, self.colors)
                assert self._breaks_lex_order(i) == full, (i, self.colors)
                return wiped

        graphs = [(complete_graph(n), spec) for n in range(5, 10) for spec in (S33, S34)]
        graphs += [(hanson_toft(S34, n), S34) for n in (9, 10)]
        graphs += [(g, S33) for n in range(1, 8) for g in corpus[n] if twin_pairs(g)]
        for g, spec in graphs:
            images = twin_swap_images(g)
            for color_seed, run in (
                (True, lambda s: s.decide()),
                (False, lambda s: s.optimum(1, True)),
                (False, lambda s: s.optimum(spec.k, False)),
            ):
                s = FullWalk(g, spec, color_seed=color_seed, twins=True)
                s.images = images
                run(s)

    # Graphs with many twin pairs, and random ones, some with none.
    TWIN_GRAPHS = st.one_of(
        st.lists(st.integers(1, 3), min_size=2, max_size=4).map(complete_multipartite_graph),
        small_graphs(min_n=4, max_n=8),
        small_graphs(min_n=4, max_n=8).map(complement),
    )

    @settings(max_examples=80, deadline=None)
    @given(TWIN_GRAPHS, st.sampled_from((S33, S34)), st.data())
    def test_lex_skip_matches_the_full_walk_in_any_order(self, g, spec, data):
        # Edges colored in a drawn order; a wiped-out assign is undone at
        # once, as the searches do.
        s = _Search(g, spec, twins=True)
        assume(s.lex is not None)
        images = twin_swap_images(g)
        for _ in range(data.draw(st.integers(0, s.m))):
            dom = masks(s)
            open_edges = [i for i in range(s.m) if dom[i]]
            if not open_edges:
                break
            i = data.draw(st.sampled_from(open_edges))
            ell = data.draw(st.sampled_from([c for c in range(1, s.k + 1) if dom[i] >> c & 1]))
            saved = s.can[:]
            wiped = s.assign(i, ell)
            assert s._breaks_lex_order(i) == breaks_lex_leader(images, s.colors, i)
            if wiped:
                s.unassign(i)
                s.can[:] = saved

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(min_n=2, max_n=5, max_edges=12))
    def test_seeding_preserves_verdicts(self, g):
        for spec in (S33, S23):
            off = _Search(g, spec).decide() is None
            assert arrows(g, spec).arrows == off


def _search_state(s: _Search):
    return list(s.can), [list(a) for a in s.adjc], list(s.colors), s.uncolored, list(s.free)


class TestSearchCore:
    """The feasible colors against a from-scratch recomputation."""

    # (3,5) makes assign() recheck edges inside a common neighborhood with a
    # clique test of its own; (3,4) with none; (3,3) not at all.  (3,3,4)
    # counts three colors per edge and seeds edge 0 from two groups.
    SPECS = (S33, S34, S35, S334)

    @staticmethod
    def assert_masks_exact(s: _Search) -> None:
        """For a search built with color_seed, which leaves edge 0 only the
        least color of each group of equal targets."""
        targets = s.targets
        least = [ell for ell, t in enumerate(targets, 1) if targets.index(t) == ell - 1]
        assert s.can[0] == sum(1 << i for i in range(s.m) if not s.colors[i])
        assert s.uncolored == s.can[0].bit_count()
        free = [0] * s.n
        for i, (u, v) in enumerate(s.edges):
            if not s.colors[i]:
                free[u] |= 1 << v
                free[v] |= 1 << u
        assert s.free == free
        got = masks(s)
        for i, (u, v) in enumerate(s.edges):
            if s.colors[i]:
                continue
            want = 0
            for ell in least if i == 0 else range(1, s.k + 1):
                if not completes_clique(s.adjc[ell], s.targets[ell - 1], u, v):
                    want |= 1 << ell
            assert got[i] == want, (i, s.colors)

    # Sparse draws rarely hold the cliques that shrink masks; their
    # complements are dense.
    GRAPHS = st.one_of(
        small_graphs(min_n=5, max_n=9),
        small_graphs(min_n=5, max_n=9).map(complement),
    )

    @settings(max_examples=120, deadline=None)
    @given(GRAPHS, st.sampled_from(SPECS), st.data())
    def test_masks_match_recomputation_after_every_step(self, g, spec, data):
        s = _Search(g, spec, color_seed=True)
        initial = _search_state(s)
        self.assert_masks_exact(s)
        # Each assign() is undone by unassign() and the copy of can made
        # before it; the next test checks the copies the searches themselves
        # restore.
        stack: list[tuple[int, list[int]]] = []

        def undo():
            i, saved = stack.pop()
            s.unassign(i)
            s.can[:] = saved

        for _ in range(data.draw(st.integers(0, 60))):
            dom = masks(s)
            open_edges = [i for i in range(s.m) if not s.colors[i] and dom[i]]
            if open_edges and (not stack or data.draw(st.integers(0, 3))):
                i = data.draw(st.sampled_from(open_edges))
                ell = data.draw(
                    st.sampled_from([c for c in range(1, s.k + 1) if dom[i] >> c & 1])
                )
                empty = {j for j in range(s.m) if not s.colors[j] and not dom[j]}
                stack.append((i, s.can[:]))
                wiped = s.assign(i, ell)
                dom = masks(s)
                now = {j for j in range(s.m) if not s.colors[j] and not dom[j]}
                assert wiped == bool(now - empty)
            elif stack:
                undo()
            self.assert_masks_exact(s)
        while stack:
            undo()
        assert _search_state(s) == initial

    @example(complete_graph(9), S35)
    @settings(max_examples=20, deadline=None)
    @given(GRAPHS, st.sampled_from(SPECS))
    def test_searches_restore_exact_masks_before_every_assign(self, g, spec):
        check = self.assert_masks_exact

        class Checked(_Search):
            __slots__ = ()

            def assign(self, i, ell):
                check(self)
                return super().assign(i, ell)

        # Unconstrained optima can be huge (K9 with (3,5) takes 1,852,098
        # nodes), so the example ends at the budget; every assign up to it
        # is checked.
        with node_budget(20_000), contextlib.suppress(NodeLimitExceeded):
            Checked(g, spec, color_seed=True).decide()
            Checked(g, spec, color_seed=True).optimum(1, True)
            Checked(g, spec, color_seed=True).optimum(spec.k, False)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(min_n=5, max_n=9, max_edges=14), st.sampled_from(SPECS))
    def test_full_runs_restore_the_initial_state(self, g, spec):
        runs = [
            (True, True, lambda s: s.decide()),
            (False, True, lambda s: s.optimum(1, True)),
            (False, True, lambda s: s.optimum(spec.k, False)),
            (False, False, lambda s: s.decide()),
        ]
        for color_seed, twins, run in runs:
            s = _Search(g, spec, color_seed=color_seed, twins=twins)
            initial = _search_state(s)
            run(s)
            assert _search_state(s) == initial


class TestNodeCounts:
    """Totals that a change to the search core's bookkeeping must keep."""

    def test_corpus_totals_up_to_seven_vertices(self, corpus):
        totals = {}
        for spec in (S33, S34):
            stats = [arrows(g, spec).stats for n in range(1, 8) for g in corpus[n]]
            totals[str(spec)] = (sum(s.nodes for s in stats), sum(s.max_depth for s in stats))
        assert totals == {"3,3": (14026, 12277), "3,4": (13682, 12342)}

    def test_hanson_toft_optimum(self):
        nodes = {}
        for n in (9, 10):
            search = _Search(hanson_toft(S34, n), S34, twins=True)
            search.optimum(2, True)
            nodes[n] = search.nodes
        assert nodes == {9: 1075, 10: 1819}


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(small_graphs(min_n=2, max_n=6, max_edges=11))
    def test_arrows_matches_full_enumeration(self, g):
        for spec in (S23, S33, S34):
            assert arrows(g, spec).arrows == brute_arrows(g, spec)

    def test_arrows_matches_enumeration_at_13_and_14_edges(self):
        import random

        rng = random.Random(5)
        from itertools import combinations
        from rck.graphs import from_edges

        for m in (13, 14):
            for _ in range(4):
                n = rng.choice([6, 7])
                pairs = list(combinations(range(n), 2))
                rng.shuffle(pairs)
                g = from_edges(n, pairs[:m])
                for spec in (S23, S33, S34):
                    assert arrows(g, spec).arrows == brute_arrows(g, spec)

    @settings(max_examples=40, deadline=None)
    @given(
        small_graphs(min_n=2, max_n=5, max_edges=10),
        st.sampled_from(["max", "min"]),
    )
    def test_extremal_matches_full_enumeration(self, g, mode):
        for spec in (S33, S23):
            for color in (1, spec.k):
                got = extremal_critical_coloring(g, spec, color, mode)
                want = brute_extremal_class_size(g, spec, color, mode)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.class_size(color) == want
                    assert is_critical(g, got, spec)

    # K_2 targets forbid a color outright, so small graphs still arrow; the
    # unsorted specs give the color seed groups that are not contiguous.
    MULTI_COLOR_SPECS = tuple(
        CliqueVector(sizes)
        for sizes in (
            (3, 3, 3), (2, 2, 3), (3, 2, 3), (3, 3, 3, 3), (2, 2, 2, 3), (2, 3, 2, 3),
        )
    )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_three_and_four_colors_match_full_enumeration(self, data):
        spec = data.draw(st.sampled_from(self.MULTI_COLOR_SPECS))
        g = data.draw(small_graphs(min_n=2, max_n=6, max_edges=8 if spec.k == 3 else 6))
        assert arrows(g, spec).arrows == brute_arrows(g, spec)
        # brute_extremal_class_size's enumeration, made once for all 2k optima.
        words = all_critical_words(g, spec)
        for color in range(1, spec.k + 1):
            sizes = [word.count(color) for word in words]
            for mode, pick in (("max", max), ("min", min)):
                got = extremal_critical_coloring(g, spec, color, mode)
                if not words:
                    assert got is None
                    continue
                assert is_critical(g, got, spec)
                assert got.class_size(color) == pick(sizes)


class TestGateInstances:
    """Node counts and words of the search core's gate instances.  They do
    not depend on how the feasible colors are stored."""

    def test_k14_arrows_for_3_5(self):
        verdict = arrows(complete_graph(14), S35)
        assert (verdict.arrows, verdict.stats.nodes, verdict.stats.max_depth) == (True, 7873, 71)

    def test_k16_does_not_arrow_for_4_4(self):
        # The only gate instance past 45 edges.
        verdict = arrows(complete_graph(16), CliqueVector((4, 4)))
        assert (verdict.arrows, verdict.stats.nodes, verdict.stats.max_depth) == (False, 109340, 120)
        assert verdict.witness.word() == (
            "111111112222222111222211112222211221122112212121212221212122"
            "111212212122121122212112112212122121211221111112122211122211"
        )

    # Per n: the words for (color 2, max), (color 1, min) and (color 1, max).
    # Colors 1 and 2 split every critical coloring's edges, so the first two
    # optima share a word.
    HT34_WORDS = {
        9: (
            "11222222212222221122211222212221111",
            "11222222212222221122211222212221111",
            "11122222221122221212221211221112211",
        ),
        10: (
            "112222222212222222112222112222212222111111",
            "112222222212222222112222112222212222111111",
            "111222222221122222121222212111221111222111",
        ),
        11: (
            "1122222222212222222211222221122222212222211111111",
            "1122222222212222222211222221122222212222211111111",
            "1112222222221122222212122222121111221111122221111",
        ),
        12: (
            "11222222222212222222221122222211222222212222221111111111",
            "11222222222212222222221122222211222222212222221111111111",
            "11122222222221122222221212222221211111221111112222211111",
        ),
    }

    def test_three_and_four_color_node_totals(self, corpus):
        # Decisions on every graph up to seven vertices, optima up to six.
        totals = {}
        for spec in (CliqueVector((3, 3, 3)), CliqueVector((3, 3, 3, 3))):
            decide = sum(arrows(g, spec).stats.nodes for n in range(1, 8) for g in corpus[n])
            optimum = 0
            for g in (g for n in range(1, 7) for g in corpus[n]):
                search = _Search(g, spec, twins=True)
                search.optimum(1, True)
                optimum += search.nodes
            totals[str(spec)] = (decide, optimum)
        assert totals == {"3,3,3": (13646, 13191), "3,3,3,3": (13602, 35472)}

    def test_hanson_toft_extremal_words(self):
        optima = {}
        for n, words in self.HT34_WORDS.items():
            g = hanson_toft(S34, n)
            got = []
            for (color, mode), word in zip(((2, "max"), (1, "min"), (1, "max")), words):
                coloring = extremal_critical_coloring(g, S34, color, mode)
                assert coloring.word() == word
                got.append(coloring.class_size(color))
            optima[n] = tuple(got)
        assert optima == {9: (23, 12, 15), 10: (28, 14, 18), 11: (33, 16, 21), 12: (38, 18, 24)}


class TestExtremal:
    def test_optima_match_the_oracle_on_every_graph_up_to_six_vertices(self, corpus):
        for n in range(1, 7):
            for g in corpus[n]:
                for spec in (S33, S34):
                    words = all_critical_words(g, spec)
                    for color in (1, 2):
                        sizes = [word.count(color) for word in words]
                        for mode, pick in (("max", max), ("min", min)):
                            got = extremal_critical_coloring(g, spec, color, mode)
                            if not words:
                                assert got is None
                                continue
                            assert is_critical(g, got, spec)
                            assert got.class_size(color) == pick(sizes)

    def test_k5_max_blue_is_five(self):
        # Frozen from enumerating all 2^10 colorings of K_5.
        coloring = extremal_critical_coloring(complete_graph(5), S33, 2, "max")
        assert coloring.class_size(2) == 5

    def test_k2_max_blue(self):
        coloring = extremal_critical_coloring(complete_graph(2), S33, 2, "max")
        assert coloring.colors == (2,)

    def test_no_critical_coloring_returns_none(self):
        assert extremal_critical_coloring(complete_graph(6), S33, 2, "max") is None

    def test_max_last_class_is_saturated_on_cocritical_hosts(self):
        # Cross-checked against full enumeration of the 2^14 colorings via
        # the oracle in test_extremal_matches_full_enumeration; here the
        # saturation module confirms the maximal blue class is saturated on
        # co-critical hosts (checked as a spanning subgraph).
        from rck.constructions import hanson_toft, k6_minus

        cases = [
            (join(complete_graph(4), empty_graph(2)), S33, 3),
            (k6_minus(), S33, 3),
            (hanson_toft(S34, 9), S34, 4),
        ]
        for g, spec, t in cases:
            coloring = extremal_critical_coloring(g, spec, spec.k, "max")
            assert coloring is not None
            blue = Graph(g.n, coloring.class_adj(spec.k))
            assert is_saturated(blue, t).is_saturated

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            extremal_critical_coloring(complete_graph(3), S33, 3, "max")
        with pytest.raises(ValueError):
            extremal_critical_coloring(complete_graph(3), S33, 1, "most")


@st.composite
def coloring_texts(draw):
    """A graph6 line and a color line, either of them possibly garbled."""
    g = draw(small_graphs(max_n=8))
    head = draw(st.one_of(st.just(to_graph6(g)), st.text(max_size=6)))
    digits = draw(st.sampled_from(["1", "12", "1234", "0123456789"]))
    word = draw(st.one_of(
        st.text(digits, min_size=g.edge_count, max_size=g.edge_count),
        st.text(max_size=8),
    ))
    text = head + "\n" + word + draw(st.sampled_from(["\n", "", "\n\n", "\nx"]))
    # Sometimes cut short, so that lines go missing.
    return text[: draw(st.one_of(st.just(len(text)), st.integers(len(head), len(text))))]


class TestWitnessSerialization:
    def test_round_trip_is_bit_exact(self):
        coloring = c5_coloring_of_k5()
        text = serialize_coloring(coloring)
        assert text.endswith("\n")
        parsed = parse_coloring(text, k=2)
        assert parsed == coloring
        assert serialize_coloring(parsed) == text

    def test_unused_top_color_round_trips(self):
        # Every edge of C5 gets color 1, so the text alone cannot tell k.
        c5 = cycle_graph(5)
        witness = arrows(c5, S33).witness
        text = serialize_coloring(witness)
        assert text == "Dhc\n11111\n"
        parsed = parse_coloring(text, k=2)
        assert parsed == witness
        assert is_critical(c5, parsed, S33)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_coloring("Bw\n12\n", k=2)  # wrong word length
        with pytest.raises(ValueError):
            parse_coloring("Bw\n", k=2)
        with pytest.raises(ValueError):
            parse_coloring("A_\n\uff12\n", k=2)  # a full-width 2, not an ASCII digit

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), coloring_texts()), st.integers(1, 4))
    def test_parse_raises_only_value_error(self, text, k):
        try:
            coloring = parse_coloring(text, k)
        except ValueError:
            return
        assert text.split("\n")[1] == coloring.word()
        assert len(coloring.colors) == coloring.host.edge_count

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_parse_inverts_serialize(self, data):
        # Edgeless hosts have an empty color word, so a blank second line.
        hosts = st.one_of(st.integers(1, 8).map(empty_graph), small_graphs(max_n=8))
        g = data.draw(hosts)
        k = data.draw(st.integers(1, 4))
        word = data.draw(st.lists(st.integers(1, k), min_size=g.edge_count, max_size=g.edge_count))
        coloring = EdgeColoring(g, tuple(word), k)
        assert parse_coloring(serialize_coloring(coloring), k) == coloring
