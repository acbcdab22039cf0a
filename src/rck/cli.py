"""Batch command line front end.

Subcommands: arrow, cocritical, saturated (one JSON record per input graph)
and scan (one summary record for a whole graph6 stream).  Inputs come from a
named construction, a graph6 file, or stdin.  Records are emitted in input
order and are byte-identical across runs and worker counts.

Exit codes: 0 all assertions hold, 1 a theorem assertion failed, 2 input
error (one stderr line, no records), 3 node budget exceeded (indeterminate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .arrowing import (
    CliqueVector, NodeLimitExceeded, arrows, node_budget, serialize_coloring,
)
from .canonical import CANONICAL_MAX_VERTICES, canonical_form
from .cocritical import (
    graph_facts, is_cocritical, is_minimal_cocritical, lemma_suite, meets_hanson_toft,
)
from .constructions import construction_by_name, sharp_mindeg_bound
from .graph6 import HEADER, parse_graph6, to_graph6
from .graphs import Graph, degree_stats
from .saturation import is_saturated

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INDETERMINATE = 3
# Theorem failures outrank budget truncation, which outranks success.
SEVERITY = (EXIT_OK, EXIT_INDETERMINATE, EXIT_ASSERTION_FAILED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rck",
        description="Exact arrowing, saturation, and co-criticality checks "
        "for small graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, brief in (
        ("arrow", "decide arrowing per input graph"),
        ("cocritical", "decide co-criticality per input graph"),
        ("scan", "summarize co-criticality over a graph6 stream"),
        ("saturated", "report clique saturation per input graph"),
    ):
        p = sub.add_parser(name, help=brief)
        if name == "saturated":
            p.add_argument("--t", type=int, required=True, help="clique target")
            p.set_defaults(spec=None, budget=None)
        else:
            p.add_argument("--spec", required=True, help="clique sizes, e.g. 3,3")
            p.add_argument("--node-limit", dest="budget", type=int, default=None)
        p.add_argument("--construct", help="named construction instead of a stream")
        p.add_argument("--in", dest="in_path", help="graph6 file (default: stdin)")
        if name == "cocritical":
            p.add_argument("--lemmas", action="store_true", help="append findings")
            p.add_argument("--minimal", action="store_true", help="append minimality")
        p.add_argument("--workers", type=int, default=1)
    return parser


def parse_config(argv) -> argparse.Namespace:
    """The arguments, checked before any input is read; spec is a CliqueVector."""
    cfg = build_parser().parse_args(argv)
    if cfg.spec is not None:
        cfg.spec = CliqueVector.parse(cfg.spec)
    if cfg.construct is not None and cfg.in_path is not None:
        raise ValueError("choose one input source: --construct or --in")
    if cfg.workers < 1:
        raise ValueError("worker count must be at least 1")
    if cfg.budget is not None and cfg.budget < 0:
        raise ValueError("node limit must be at least 0")
    if cfg.subcommand == "saturated" and cfg.t < 2:
        raise ValueError("clique target must be at least 2")
    return cfg


def load_inputs(cfg: argparse.Namespace) -> list[str]:
    """The graph6 line of each input graph, unparsed; blank lines are skipped.

    Each record worker parses its own line with _parse_line, so a pool
    parses every line once, in the worker that uses it.
    """
    if cfg.construct is not None:
        return [to_graph6(construction_by_name(cfg.construct))]
    if not cfg.in_path:
        lines = sys.stdin.readlines()
    else:
        with open(cfg.in_path) as stream:
            lines = stream.readlines()
    return [text for text in map(str.strip, lines) if text]


def _parse_line(text: str) -> tuple[Graph, str]:
    """The graph of an input line and its graph6 string.  Parsing is strict,
    so the line without its header is the graph's only encoding."""
    try:
        return parse_graph6(text), text.removeprefix(HEADER)
    except ValueError as exc:
        raise ValueError(f"bad graph6 line {text!r}: {exc}")


def _record_base(g: Graph, g6: str, spec: CliqueVector, facts) -> dict:
    """The fields every arrow and cocritical record starts with; facts is
    the (delta, chi, ht_bound) triple of cocritical.graph_facts."""
    delta, chi, ht = facts
    return {
        "g6": g6,
        "spec": list(spec.sizes),
        "verdict": None,
        "delta": delta,
        "chi": chi,
        "edges": g.edge_count,
        "ht_bound": ht,
        "witness": None,
        "lemmas": [],
        "stats": {},
    }


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, jobs: list, workers: int) -> list:
    """fn over jobs, with the results in input order.

    The pool has min(workers, jobs, usable CPUs) processes, since a process
    pool may start all of them at the first job; below two the jobs run
    inline.  A pool runs them in about eight chunks per process, enough to
    balance uneven jobs while keeping the per-chunk hand-over rare.  A job
    that raises stops the map and cancels the chunks not yet started.
    """
    workers = min(workers, len(jobs), _usable_cpus())
    if workers < 2:
        return list(map(fn, jobs))
    # Imported here because it loads multiprocessing, which a run with one
    # worker never uses, and that import is a large share of start-up.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(jobs) // (8 * workers))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, jobs, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)


def _in_block(record, cfg: argparse.Namespace, line: str):
    with node_budget(cfg.budget) as ledger:
        return record(cfg, line, ledger)


def _stream_records(cfg: argparse.Namespace, record) -> list:
    """record(cfg, line, ledger) per input line, in input order.

    Each record runs in its own node_budget block of --node-limit nodes and
    gets the block as its ledger; only cocritical records read it.  The
    workers form one ordered pool across the input graphs, so the records do
    not depend on their number.  A record that raises (a bad input line)
    stops the run before any record is emitted.
    """
    fn = partial(_in_block, record, cfg)
    return ordered_map(fn, load_inputs(cfg), cfg.workers)


def _arrow_record(cfg: argparse.Namespace, line: str, _ledger) -> tuple[str, int]:
    g, g6 = _parse_line(line)
    verdict = arrows(g, cfg.spec)
    record = _record_base(g, g6, cfg.spec, graph_facts(g, cfg.spec))
    record["verdict"] = verdict.arrows
    record["stats"] = verdict.stats._asdict()
    if verdict.witness is not None:
        record["witness"] = serialize_coloring(verdict.witness)
    code = EXIT_INDETERMINATE if verdict.arrows is None else EXIT_OK
    return json.dumps(record) + "\n", code


def _cocritical_record(cfg: argparse.Namespace, line: str, ledger) -> tuple[str, int]:
    g, g6 = _parse_line(line)
    spec = cfg.spec
    report = is_cocritical(g, spec)
    facts = graph_facts(g, spec)
    record = _record_base(g, g6, spec, facts)
    record["verdict"] = report.is_cocritical
    record["failing_edge"] = list(report.failing_edge) if report.failing_edge else None
    record["meets_ht"] = meets_hanson_toft(g, facts[2])
    record["minimal"] = None
    if report.base_witness is not None:
        record["witness"] = serialize_coloring(report.base_witness)
    code = EXIT_INDETERMINATE if report.is_cocritical is None else EXIT_OK
    if report.is_cocritical:
        try:
            if cfg.minimal:
                record["minimal"] = is_minimal_cocritical(g, spec, report=report)
            if cfg.lemmas:
                findings = lemma_suite(g, spec)
                record["lemmas"] = [f._asdict() for f in findings]
                if any(not f.holds for f in findings):
                    code = EXIT_ASSERTION_FAILED
        except NodeLimitExceeded:
            code = EXIT_INDETERMINATE
    record["stats"] = {"nodes": ledger.nodes}
    return json.dumps(record) + "\n", code


def _scan_graph(cfg: argparse.Namespace, line: str, _ledger):
    g, _ = _parse_line(line)
    # A co-critical graph's record needs its canonical form, so check the
    # size before the search rather than fail only on some verdicts.
    if g.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"scan supports at most {CANONICAL_MAX_VERTICES} vertices, "
            f"got {g.n} in {line!r}"
        )
    report = is_cocritical(g, cfg.spec)
    if report.is_cocritical is not True:
        return report.is_cocritical, None, report.nodes
    try:
        findings = lemma_suite(g, cfg.spec)
    except NodeLimitExceeded:
        return None, None, report.nodes
    return (
        True,
        {
            "delta": report.delta,
            "canonical": canonical_form(g),
            "holds": [f.holds for f in findings],
        },
        report.nodes,
    )


def cmd_scan(cfg: argparse.Namespace, out) -> int:
    spec = cfg.spec
    results = _stream_records(cfg, _scan_graph)

    total = len(results)
    cocritical_info = []
    indeterminate = 0
    total_nodes = 0
    for verdict, info, nodes in results:
        total_nodes += nodes
        if verdict is None:
            indeterminate += 1
        elif verdict:
            cocritical_info.append(info)

    holds = [h for info in cocritical_info for h in info["holds"]]
    lemma_pass = sum(holds)
    lemma_fail = len(holds) - lemma_pass
    deltas = [info["delta"] for info in cocritical_info]
    bound = sharp_mindeg_bound(spec) if spec.sorted().is_standard() else None
    delta_ok = None if bound is None else all(d >= bound for d in deltas)

    summary = {
        "spec": list(spec.sizes),
        "graphs": total,
        "cocritical": len(cocritical_info),
        "min_delta": min(deltas) if deltas else None,
        "delta_bound": bound,
        "delta_ok": delta_ok,
        "lemma_pass": lemma_pass,
        "lemma_fail": lemma_fail,
        "indeterminate": indeterminate,
        "cocritical_canonical": sorted({info["canonical"] for info in cocritical_info}),
        "stats": {"nodes": total_nodes},
    }
    out.write(json.dumps(summary) + "\n")
    if lemma_fail or delta_ok is False:
        return EXIT_ASSERTION_FAILED
    if indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _saturated_record(cfg: argparse.Namespace, line: str, _ledger) -> tuple[str, int]:
    g, g6 = _parse_line(line)
    report = is_saturated(g, cfg.t)
    record = {
        "g6": g6,
        "t": cfg.t,
        "verdict": {
            "is_free": report.is_free,
            "is_saturated": report.is_saturated,
            "violating_non_edge": list(report.violating_non_edge)
            if report.violating_non_edge
            else None,
            "hajnal_holds": report.hajnal_holds,
            "vacuously_complete": report.vacuously_complete,
        },
        "delta": degree_stats(g)[0],
        "edges": g.edge_count,
    }
    failed = report.is_saturated and not report.hajnal_holds
    return json.dumps(record) + "\n", EXIT_ASSERTION_FAILED if failed else EXIT_OK


# Each returns its JSON output line and exit code, so pool workers serialise.
RECORDS = {
    "arrow": _arrow_record,
    "cocritical": _cocritical_record,
    "saturated": _saturated_record,
}


def cmd_records(cfg: argparse.Namespace, out) -> int:
    """Emit one record per input graph; exit with the worst record's code."""
    results = _stream_records(cfg, RECORDS[cfg.subcommand])
    out.writelines(text for text, _ in results)
    return max((code for _, code in results), key=SEVERITY.index, default=EXIT_OK)


def run(argv, out) -> int:
    try:
        cfg = parse_config(argv)
        handler = cmd_scan if cfg.subcommand == "scan" else cmd_records
        return handler(cfg, out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    code = run(sys.argv[1:] if argv is None else argv, sys.stdout)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
