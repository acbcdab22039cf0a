import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import cycle_graph
import rck
from rck.arrowing import CliqueVector
from rck.canonical import canonical_form
from rck.cli import EXIT_INDETERMINATE, EXIT_INPUT_ERROR, EXIT_OK, main, run
from rck.cocritical import graph_facts
from rck.constructions import construction_by_name, hanson_toft, k6_minus
from rck.graph6 import parse_graph6, to_graph6
from rck.graphs import complete_graph, empty_graph, join


def invoke(argv, stdin_text=None):
    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = run(argv, out)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def records(text):
    return [json.loads(line) for line in text.splitlines() if line]


def assert_input_fault(argv, message, capsys, stdin_text=None):
    """argv exits 2 with no records and the one stderr line `error: message`,
    with one worker and with two."""
    for workers in ("1", "2"):
        code, out = invoke([argv[0], "--workers", workers, *argv[1:]], stdin_text)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestArrowCommand:
    def test_kn6_arrows(self):
        code, out = invoke(["arrow", "--spec", "3,3", "--construct", "kn:6"])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is True
        assert rec["g6"] == to_graph6(complete_graph(6))
        assert list(rec) == [
            "g6", "spec", "verdict", "delta", "chi", "edges", "ht_bound",
            "witness", "lemmas", "stats",
        ]

    def test_k8_emits_witness_file(self):
        from rck.arrowing import parse_coloring

        code, out = invoke(["arrow", "--spec", "3,4", "--construct", "kn:8"])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is False
        coloring = parse_coloring(rec["witness"], k=2)
        assert to_graph6(coloring.host) == rec["g6"] == to_graph6(complete_graph(8))

    def test_edgeless_witness_reads_back(self):
        from rck.arrowing import parse_coloring

        code, out = invoke(["arrow", "--spec", "3,3", "--construct", "kn:1"])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["witness"] == "@\n\n"
        assert parse_coloring(rec["witness"], k=2).host == complete_graph(1)

    def test_stream_witness_files_numbered_by_input_order(self):
        from rck.arrowing import parse_coloring

        graphs = (cycle_graph(4), complete_graph(3))
        stream = "".join(to_graph6(g) + "\n" for g in graphs)
        code, out = invoke(["arrow", "--spec", "3,3"], stdin_text=stream)
        assert code == EXIT_OK
        recs = records(out)
        assert [r["verdict"] for r in recs] == [False, False]
        for g, rec in zip(graphs, recs):
            coloring = parse_coloring(rec["witness"], k=2)
            assert to_graph6(coloring.host) == rec["g6"] == to_graph6(g)

    def test_empty_input_zero_records(self):
        code, out = invoke(["arrow", "--spec", "3,3"], stdin_text="")
        assert code == EXIT_OK
        assert out == ""

    def test_parse_failure_exit_2(self):
        code, _ = invoke(["arrow", "--spec", "3,3"], stdin_text="not-a-graph\n")
        assert code == EXIT_INPUT_ERROR

    def test_bad_spec_exit_2(self, capsys):
        for spec in ("3;3", "3,x"):
            argv = ["arrow", "--spec", spec, "--construct", "kn:3"]
            assert_input_fault(argv, f"bad clique vector {spec!r}", capsys)

    def test_node_limit_exit_3(self):
        code, out = invoke([
            "arrow", "--spec", "3,3", "--construct", "kn:6", "--node-limit", "4",
        ])
        assert code == EXIT_INDETERMINATE
        (rec,) = records(out)
        assert rec["verdict"] is None

    def test_stream_skips_blank_lines(self):
        stream = "Bw\n\n  \n@\n"
        code, out = invoke(["arrow", "--spec", "3,3"], stdin_text=stream)
        assert code == EXIT_OK
        assert [rec["g6"] for rec in records(out)] == ["Bw", "@"]

    def test_target_order_does_not_matter(self):
        _, ascending = invoke(["arrow", "--spec", "3,4", "--construct", "kn:9"])
        code, out = invoke(["arrow", "--spec", "4,3", "--construct", "kn:9"])
        assert code == EXIT_OK
        assert records(out)[0]["ht_bound"] == records(ascending)[0]["ht_bound"] == 35
        code, out = invoke(["arrow", "--spec", "3,4", "--construct", "hanson-toft:4,3:9"])
        assert code == EXIT_OK
        _, ascending = invoke(["arrow", "--spec", "3,4", "--construct", "hanson-toft:3,4:9"])
        assert out == ascending

    def test_no_hanson_toft_bound_below_r(self):
        # No graph on fewer than r(3,3) = 6 vertices is co-critical.
        for n, bound in ((1, None), (5, None), (6, 14)):
            _, out = invoke(["arrow", "--spec", "3,3", "--construct", f"kn:{n}"])
            assert records(out)[0]["ht_bound"] == bound


class TestCocriticalCommand:
    def test_k6minus_minimal(self):
        code, out = invoke([
            "cocritical", "--spec", "3,3", "--construct", "k6minus",
            "--minimal", "--lemmas",
        ])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is True
        assert rec["minimal"] is True
        assert rec["lemmas"] and all(f["holds"] for f in rec["lemmas"])

    def test_hanson_toft_34(self):
        code, out = invoke([
            "cocritical", "--spec", "3,4", "--construct", "hanson-toft:3,4:9",
        ])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is True
        assert rec["delta"] == 7

    def test_complete_graph_is_not_cocritical(self):
        stream = f"{to_graph6(cycle_graph(5))}\n{to_graph6(complete_graph(6))}\n"
        code, out = invoke(["cocritical", "--spec", "3,3"], stdin_text=stream)
        assert code == EXIT_OK
        c5, k6 = records(out)
        assert (c5["verdict"], c5["failing_edge"]) == (False, [0, 2])
        assert (k6["verdict"], k6["failing_edge"]) == (False, None)
        assert k6["chi"] == 6 and k6["stats"] == {"nodes": 0}
        assert list(k6) == list(c5)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("spec", ["3,3", "3,4"])
    def test_record_facts_are_graph_facts(self, spec, workers):
        # Every record prints graph_facts, whatever its verdict: C5 (refuted
        # by the witness), K6 (complete), K6 + 2K1 (holds K_r), K6-e
        # (co-critical for (3,3)) and HT(3,3) n=17 (chi unknown).
        graphs = [
            cycle_graph(5), complete_graph(6), join(complete_graph(6), empty_graph(2)),
            k6_minus(), hanson_toft(CliqueVector((3, 3)), 17),
        ]
        stream = "".join(to_graph6(g) + "\n" for g in graphs)
        code, out = invoke(["cocritical", "--spec", spec, "--workers", workers], stream)
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == len(graphs)
        for g, rec in zip(graphs, recs):
            delta, chi, ht_bound = graph_facts(g, CliqueVector.parse(spec))
            assert (rec["delta"], rec["chi"], rec["ht_bound"]) == (delta, chi, ht_bound)
            meets = None if ht_bound is None else rec["edges"] >= ht_bound
            assert rec["meets_ht"] is meets
        if spec == "3,3":
            assert [rec["verdict"] for rec in recs] == [False, False, False, True, True]
            assert recs[-1]["chi"] is None and recs[-1]["meets_ht"] is True

    def test_target_order_does_not_matter_for_lemmas(self):
        lemmas = []
        for spec in ("3,4", "4,3"):
            code, out = invoke([
                "cocritical", "--spec", spec, "--construct", "hanson-toft:3,4:9", "--lemmas",
            ])
            assert code == EXIT_OK
            (rec,) = records(out)
            assert rec["verdict"] is True
            lemmas.append(rec["lemmas"])
        assert lemmas[0] == lemmas[1] != []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_covers_minimality_and_lemmas(self, workers):
        # K6-e: the verdict takes 16 nodes, minimality 92 and the lemma
        # suite 33, 141 in all.  Each input line has its own budget.
        stream = 2 * (to_graph6(k6_minus()) + "\n")
        argv = [
            "cocritical", "--spec", "3,3", "--minimal", "--lemmas", "--workers", workers,
        ]
        _, unlimited = invoke(argv, stream)
        assert invoke(argv + ["--node-limit", "141"], stream) == (EXIT_OK, unlimited)
        # The part that runs out, and every part after it, keep their defaults.
        # A record that runs out counts every node it spent, the one that
        # passed the limit included.
        for limit, minimal in ((140, True), (107, None), (16, None)):
            code, out = invoke(argv + ["--node-limit", str(limit)], stream)
            assert code == EXIT_INDETERMINATE
            for rec in records(out):
                assert (rec["verdict"], rec["minimal"], rec["lemmas"]) == (True, minimal, [])
                assert rec["stats"] == {"nodes": limit + 1}

    def test_lemmas_past_the_chromatic_limit(self):
        # chi is unknown past 16 vertices, so the chromatic bound is skipped.
        code, out = invoke([
            "cocritical", "--spec", "3,3", "--construct", "hanson-toft:3,3:17", "--lemmas",
        ])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is True and rec["chi"] is None
        assert rec["lemmas"] and all(f["holds"] for f in rec["lemmas"])
        assert "1.2" not in {f["clause"] for f in rec["lemmas"]}

    def test_one_color_spec_has_no_lemma_findings(self):
        # C5 is co-critical for (3); the structural checks need two colors.
        code, out = invoke(
            ["cocritical", "--spec", "3", "--lemmas"], stdin_text="Dhc\n"
        )
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"] is True and rec["lemmas"] == []
        assert (rec["ht_bound"], rec["meets_ht"]) == (None, None)


class TestSaturatedCommand:
    def test_complete_graph_vacuous_flag(self):
        code, out = invoke(["saturated", "--t", "3", "--construct", "kn:3"])
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"]["vacuously_complete"] is True

    def test_empty_graph_violating_edge(self):
        g6 = to_graph6(empty_graph(5))
        code, out = invoke(["saturated", "--t", "3"], stdin_text=g6 + "\n")
        assert code == EXIT_OK
        (rec,) = records(out)
        assert rec["verdict"]["is_saturated"] is False
        assert rec["verdict"]["violating_non_edge"] == [0, 1]

    def test_corpus_stream_passes_hajnal(self, corpus):
        stream = "".join(to_graph6(g) + "\n" for g in corpus[6])
        code, out = invoke(["saturated", "--t", "4"], stdin_text=stream)
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 156
        for rec in recs:
            assert rec["verdict"]["hajnal_holds"] is True


class TestScanCommand:
    def test_six_vertex_scan(self, corpus):
        stream = "".join(to_graph6(g) + "\n" for g in corpus[6])
        code, out = invoke(["scan", "--spec", "3,3"], stdin_text=stream)
        assert code == EXIT_OK
        (summary,) = records(out)
        assert summary["graphs"] == 156
        assert summary["cocritical"] == 1
        assert summary["min_delta"] == 4
        assert summary["lemma_fail"] == 0
        # K_6 minus an edge and the 6-vertex join construction coincide.
        assert len(summary["cocritical_canonical"]) == 1

    def test_one_color_spec(self):
        # The minimum-degree bound is stated for two or more colors, so a
        # one-color scan reports none rather than a failure on C5 (delta 2).
        code, out = invoke(["scan", "--spec", "3"], stdin_text="Dhc\n")
        assert code == EXIT_OK
        (summary,) = records(out)
        assert summary["cocritical"] == 1 and summary["min_delta"] == 2
        assert (summary["delta_bound"], summary["delta_ok"]) == (None, None)
        assert (summary["lemma_pass"], summary["lemma_fail"]) == (0, 0)

    def test_oracle_mode_on_four_vertices(self, corpus):
        # Brute-force-verified census for the degenerate (2,3) spec.
        from oracles import brute_is_cocritical
        from rck.arrowing import CliqueVector

        stream = "".join(to_graph6(g) + "\n" for g in corpus[4])
        code, out = invoke(["scan", "--spec", "2,3"], stdin_text=stream)
        assert code == EXIT_OK
        (summary,) = records(out)
        expect = sum(
            1
            for g in corpus[4]
            if not g.is_complete() and brute_is_cocritical(g, CliqueVector((2, 3)))
        )
        assert summary["cocritical"] == expect

    def test_deterministic_across_workers(self, corpus):
        stream = "".join(to_graph6(g) + "\n" for g in corpus[5])
        outputs = set()
        for workers in ("1", "4"):
            _, out = invoke(
                ["scan", "--spec", "3,3", "--workers", workers], stdin_text=stream
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_target_order_does_not_matter(self):
        stream = "".join(to_graph6(g) + "\n" for g in (complete_graph(9), cycle_graph(5)))
        code, out = invoke(["scan", "--spec", "4,3"], stdin_text=stream)
        assert code == EXIT_OK
        (summary,) = records(out)
        assert (summary["delta_bound"], summary["delta_ok"]) == (7, True)

    def test_chromatic_number_only_for_cocritical_graphs(self, corpus, monkeypatch):
        # chi is printed for no scanned graph: each co-critical graph pays
        # one call for its report's facts and one for Lemma 1.2, the others
        # none.
        import rck.cocritical

        called = []
        chromatic_number = rck.cocritical.chromatic_number

        def counting(g):
            called.append(canonical_form(g))
            return chromatic_number(g)

        monkeypatch.setattr(rck.cocritical, "chromatic_number", counting)
        stream = "".join(to_graph6(g) + "\n" for n in range(1, 8) for g in corpus[n])
        code, out = invoke(["scan", "--spec", "3,3", "--workers", "1"], stream)
        assert code == EXIT_OK
        (summary,) = records(out)
        assert summary["cocritical"] >= 2
        assert sorted(called) == sorted(2 * summary["cocritical_canonical"])

    @pytest.mark.parametrize("construct", ["hanson-toft:3,4:13", "kn:13"])
    def test_graph_past_the_canonical_limit_rejected_before_search(
        self, construct, monkeypatch, capsys
    ):
        # The check does not wait for a co-critical verdict to need the
        # canonical form, so the exit cannot depend on what the search finds.
        def no_search(*args, **kwargs):
            raise AssertionError("is_cocritical called")

        monkeypatch.setattr("rck.cli.is_cocritical", no_search)
        line = to_graph6(construction_by_name(construct))
        assert_input_fault(
            ["scan", "--spec", "3,4", "--construct", construct],
            f"scan supports at most 12 vertices, got 13 in {line!r}",
            capsys,
        )

    def test_node_limit_marks_indeterminate_and_exits_3(self):
        code, out = invoke([
            "scan", "--spec", "3,3", "--construct", "k6minus",
            "--node-limit", "3",
        ])
        assert code == EXIT_INDETERMINATE
        (summary,) = records(out)
        assert summary["indeterminate"] == 1
        assert summary["cocritical"] == 0

    def test_budget_short_of_the_lemma_suite_is_indeterminate(self):
        # K6-e: the verdict takes 16 nodes and the lemma suite 33 more.
        argv = ["scan", "--spec", "3,3", "--construct", "k6minus", "--node-limit"]
        for limit, code, counts in (("48", EXIT_INDETERMINATE, (0, 1)), ("49", EXIT_OK, (1, 0))):
            got, out = invoke(argv + [limit])
            (summary,) = records(out)
            assert got == code
            assert (summary["cocritical"], summary["indeterminate"]) == counts


class TestNodeLedger:
    """A cocritical record's stats.nodes counts every search of its
    node_budget block, so it is the least --node-limit under which the
    record completes.  A scan summary counts the verdicts' searches only."""

    # K6-e: the verdict takes 16 nodes, minimality 92 and the lemma suite 33.
    # Two input lines, each in its own block.
    STREAM = 2 * (to_graph6(k6_minus()) + "\n")

    @staticmethod
    def nodes(out):
        return [rec["stats"]["nodes"] for rec in records(out)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cocritical_nodes_are_the_least_sufficient_limit(self, workers):
        argv = ["cocritical", "--spec", "3,3", "--minimal", "--lemmas", "--workers", workers]
        code, out = invoke(argv, self.STREAM)
        assert (code, self.nodes(out)) == (EXIT_OK, [141, 141])
        assert invoke(argv + ["--node-limit", "141"], self.STREAM) == (EXIT_OK, out)
        code, short = invoke(argv + ["--node-limit", "140"], self.STREAM)
        assert (code, self.nodes(short)) == (EXIT_INDETERMINATE, [141, 141])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_scan_counts_the_verdicts_only(self, workers):
        # The lemma suite is charged to the limit, 49 nodes a line, but the
        # summary sums the two verdicts' 16 nodes each.
        argv = ["scan", "--spec", "3,3", "--workers", workers]
        for extra, code in (([], EXIT_OK), (["--node-limit", "49"], EXIT_OK),
                            (["--node-limit", "48"], EXIT_INDETERMINATE)):
            got, out = invoke(argv + extra, self.STREAM)
            assert (got, self.nodes(out)) == (code, [32])


class TestWorkerDispatch:
    """Records are parsed and computed in the workers of one ordered pool."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["scan", "--spec", "3,3"],
            ["saturated", "--t", "4"],
            ["arrow", "--spec", "3,3"],
            ["cocritical", "--spec", "3,3"],
        ],
        ids=lambda command: command[0],
    )
    def test_malformed_line_between_valid_ones(self, command, workers, capsys):
        with pytest.raises(ValueError) as parse_error:
            parse_graph6("not-a-graph")
        stream = f"{to_graph6(cycle_graph(5))}\nnot-a-graph\n{to_graph6(complete_graph(4))}\n"
        code, out = invoke(command + ["--workers", workers], stdin_text=stream)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        expect = f"error: bad graph6 line 'not-a-graph': {parse_error.value}\n"
        assert capsys.readouterr().err == expect

    @pytest.mark.parametrize(
        "command",
        [
            ["saturated", "--t", "4"],
            ["cocritical", "--spec", "3,3"],
            ["arrow", "--spec", "3,3"],
            ["cocritical", "--spec", "3,3", "--lemmas", "--minimal"],
        ],
        ids=["saturated", "cocritical", "arrow", "cocritical-lemmas-minimal"],
    )
    def test_records_do_not_depend_on_workers(self, corpus, command):
        graphs = corpus[6]
        if command[0] == "cocritical":
            graphs = [g for g in graphs if not g.is_complete()]
        stream = "".join(to_graph6(g) + "\n" for g in graphs)
        runs = [
            invoke(command + ["--workers", workers], stdin_text=stream)
            for workers in ("1", "2")
        ]
        assert runs[0][0] == EXIT_OK
        assert len(records(runs[0][1])) == len(graphs)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "command",
        [["saturated", "--t", "4"], ["cocritical", "--spec", "3,3"], ["arrow", "--spec", "3,3"]],
        ids=lambda command: command[0],
    )
    def test_record_g6_is_the_line_without_its_header(self, command, workers):
        lines = [to_graph6(g) for g in (cycle_graph(5), complete_graph(4), empty_graph(3))]
        stream = "".join(f">>graph6<<{line}\n" for line in lines)
        code, out = invoke(command + ["--workers", workers], stdin_text=stream)
        assert code == EXIT_OK
        assert [rec["g6"] for rec in records(out)] == lines


def rejected(text: str) -> bool:
    try:
        parse_graph6(text)
    except ValueError:
        return True
    return False


# One line that parse_graph6 rejects; blank lines are skipped, not rejected.
BAD_LINES = st.text(st.characters(blacklist_characters="\n\r"), min_size=1).filter(
    lambda text: text.strip() and rejected(text.strip())
)


class TestMalformedInput:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from([
            ["arrow", "--spec", "3,3"],
            ["cocritical", "--spec", "3,3"],
            ["saturated", "--t", "4"],
            ["scan", "--spec", "3,3"],
        ]),
        graphs=st.lists(small_graphs(min_n=8, max_n=8), max_size=3),
        bad=BAD_LINES,
        at=st.integers(min_value=0),
    )
    def test_one_bad_line_exits_2_with_no_records(self, command, graphs, bad, at):
        lines = [to_graph6(g) for g in graphs]
        lines.insert(at % (len(lines) + 1), bad)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(command, stdin_text="".join(f"{line}\n" for line in lines))
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        text = bad.strip()
        with pytest.raises(ValueError) as parse_error:
            parse_graph6(text)
        assert err.getvalue() == f"error: bad graph6 line {text!r}: {parse_error.value}\n"


SATURATED = ["saturated", "--t", "3", "--construct", "kn:3"]
COMMANDS = [
    ["arrow", "--spec", "3,3", "--construct", "kn:3"],
    ["cocritical", "--spec", "3,3", "--construct", "k6minus"],
    ["scan", "--spec", "3,3", "--construct", "k6minus"],
    SATURATED,
]
# Output routes that no subcommand has: records are JSON on stdout only.
REMOVED_OPTIONS = [
    ["--timing"], ["--witness-dir", "D"], ["--report", "F"], ["--text"], ["--json"],
]


class TestConfig:
    def test_two_input_sources_rejected(self, capsys):
        assert_input_fault(
            ["arrow", "--spec", "3,3", "--construct", "kn:3", "--in", "x.g6"],
            "choose one input source: --construct or --in",
            capsys,
        )

    def test_workers_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("RCK_WORKERS", "many")
        code, out = invoke(["arrow", "--spec", "3,3", "--construct", "kn:3"])
        assert code == EXIT_OK
        assert records(out)[0]["verdict"] is False

    @pytest.mark.parametrize("workers", ["0", "-1"], ids=["flag", "flag-negative"])
    def test_workers_below_one_rejected(self, workers, capsys):
        code, out = invoke(["arrow", "--spec", "3,3", "--construct", "kn:3", "--workers", workers])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == "error: worker count must be at least 1\n"

    def test_negative_node_limit_rejected(self, capsys):
        for limit in ("-5", "-3"):
            argv = ["arrow", "--spec", "3,3", "--construct", "kn:6", "--node-limit", limit]
            assert_input_fault(argv, "node limit must be at least 0", capsys)

    def test_unknown_construction(self, capsys):
        assert_input_fault(
            ["arrow", "--spec", "3,3", "--construct", "webgraph:9"],
            "unknown construction 'webgraph:9'",
            capsys,
        )

    def test_missing_file(self, capsys):
        assert_input_fault(
            ["arrow", "--spec", "3,3", "--in", "/nonexistent.g6"],
            "[Errno 2] No such file or directory: '/nonexistent.g6'",
            capsys,
        )

    @pytest.mark.parametrize(
        "t, stdin_text", [("1", ""), ("1", "Dhc\n"), ("0", ""), ("-5", "Dhc\n")],
        ids=["1-empty", "1-line", "0-empty", "negative-line"],
    )
    def test_clique_target_below_two_rejected(self, t, stdin_text, capsys):
        # Checked before any input is read, so empty input is rejected too.
        assert_input_fault(
            ["saturated", "--t", t], "clique target must be at least 2", capsys, stdin_text
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_smallest_clique_target_accepted(self, workers):
        code, out = invoke(["saturated", "--t", "2", "--workers", workers], "Dhc\n")
        assert (code, len(records(out))) == (EXIT_OK, 1)

    @pytest.mark.parametrize("argv", [
        pytest.param([*base, *option], id=f"{base[0]}-{option[0].lstrip('-')}")
        for base in COMMANDS
        for option in REMOVED_OPTIONS
    ] + [pytest.param(SATURATED + ["--node-limit", "5"], id="saturated-node-limit")])
    def test_option_only_on_the_commands_that_read_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConsoleEntry:
    def test_import_starts_no_pool_machinery(self):
        # concurrent.futures loads multiprocessing, a large share of start-up
        # that a run with one worker never needs.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rck, rck.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "False\n"

    def test_import_loads_no_dataclasses(self):
        # The core types are namedtuples: dataclasses, and the inspect module
        # it imports, would add a large share of every process's start-up.
        src = Path(rck.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rck, rck.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout == "[]\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rck.cli", "arrow", "--spec", "3,3",
             "--construct", "kn:5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        rec = json.loads(proc.stdout)
        assert rec["verdict"] is False
        assert rec["witness"] is not None


class TestPinnedOutput:
    """stdout and exit code of a fixed list of commands, pinned at f2fb156.

    A change that claims only speed must leave these bytes alone.  The
    stream is every graph on 1..6 vertices, 208 graph6 lines in sorted
    order, so the pins do not depend on the enumeration order.
    """

    PINS = [
        (["cocritical", "--spec", "3,3"],
         "8a72d4b5fa034388b8f89eb1efc81d0c29fc9ba25048407cfdc1596703ec03b0"),
        (["cocritical", "--spec", "3,4"],
         "79892f42aa7c9b8a3d7651ddd71ac683c22856136d7b20bf2f421168b4625164"),
        (["scan", "--spec", "3,3"],
         "4f5745a81aa10cb8b4d42f1472cfec9197500856715c8ea9279d6fceff92fc4c"),
        (["arrow", "--spec", "3,4"],
         "dde0ec4c439617ec1c06a15cba7ae2162d3150ed310506928c732e575b4c2c15"),
        (["saturated", "--t", "3"],
         "695ade725fbac07a9404ba5a8790b56902d53a984cb9b899154bef990a9f5c5d"),
        (["cocritical", "--spec", "3,3", "--construct", "k6minus", "--lemmas", "--minimal"],
         "4e74adcaa07b53b40fea88562f3e5a0ccc436d1b86abb554dd7c42ce8b314ed7"),
        (["cocritical", "--spec", "3,4", "--construct", "hanson-toft:3,4:9",
          "--lemmas", "--minimal"],
         "2e94dbc912104f4b0f0226d57701743aafbd0da1fe382f1386e440f5ce1e5ac3"),
    ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(argv) for argv, _ in PINS])
    def test_output_bytes(self, corpus, argv, digest, workers):
        stream = None
        if "--construct" not in argv:
            lines = sorted(to_graph6(g) + "\n" for n in range(1, 7) for g in corpus[n])
            assert len(lines) == 208
            stream = "".join(lines)
        code, out = invoke(argv + ["--workers", workers], stream)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, digest)
