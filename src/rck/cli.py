"""Batch command line front end.

Subcommands: arrow, cocritical, saturated (one JSON or text record per input
graph) and scan (one summary record for a whole graph6 stream).  Inputs come
from a named construction, a graph6 file, or stdin.  Records are emitted in
input order and are byte-identical across runs and worker counts; timing
information appears only with --timing.

Exit codes: 0 all assertions hold, 1 a theorem assertion failed, 2 input
error, 3 node budget exceeded (indeterminate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .arrowing import CliqueVector, arrows, serialize_coloring
from .canonical import canonical_form
from .cocritical import is_cocritical, is_minimal_cocritical, lemma_suite
from .constructions import (
    construction_by_name,
    hanson_toft_edge_count,
    known_ramsey,
    sharp_mindeg_bound,
)
from .graph6 import parse_graph6, to_graph6
from .graphs import CHROMATIC_MAX_VERTICES, Graph, chromatic_number, degree_stats
from .saturation import is_saturated

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INDETERMINATE = 3

WORKERS_ENV = "RCK_WORKERS"


@dataclass
class RunConfig:
    subcommand: str
    spec: CliqueVector | None
    t: int | None
    construct: str | None
    in_path: str | None
    lemmas: bool
    minimal: bool
    workers: int
    node_limit: int | None
    json_out: bool
    timing: bool
    witness_dir: str | None
    report_path: str | None


class InputError(Exception):
    pass


class _Tee:
    def __init__(self, *targets):
        self.targets = targets

    def write(self, text: str) -> None:
        for target in self.targets:
            target.write(text)


def default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"bad {WORKERS_ENV} value {env!r}")
    return 1


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
        else:
            p.add_argument("--spec", required=True, help="clique sizes, e.g. 3,3")
        p.add_argument("--construct", help="named construction instead of a stream")
        p.add_argument("--in", dest="in_path", help="graph6 file (default: stdin)")
        if name == "cocritical":
            p.add_argument("--lemmas", action="store_true", help="append findings")
            p.add_argument("--minimal", action="store_true", help="append minimality")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--node-limit", type=int, default=None)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="json_out", action="store_true", default=True)
        fmt.add_argument("--text", dest="json_out", action="store_false")
        p.add_argument("--timing", action="store_true")
        p.add_argument("--report", help="also write records to this file")
        if name == "arrow":
            p.add_argument("--witness-dir", help="write witness files here")
    return parser


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    spec = None
    if getattr(args, "spec", None) is not None:
        try:
            spec = CliqueVector.parse(args.spec)
        except ValueError as exc:
            raise InputError(str(exc))
    if args.construct is not None and args.in_path is not None:
        raise InputError("choose one input source: --construct or --in")
    workers = args.workers if args.workers is not None else default_workers()
    if workers < 1:
        raise InputError("worker count must be at least 1")
    return RunConfig(
        subcommand=args.subcommand,
        spec=spec,
        t=getattr(args, "t", None),
        construct=args.construct,
        in_path=args.in_path,
        lemmas=getattr(args, "lemmas", False),
        minimal=getattr(args, "minimal", False),
        workers=workers,
        node_limit=args.node_limit,
        json_out=args.json_out,
        timing=args.timing,
        witness_dir=getattr(args, "witness_dir", None),
        report_path=args.report,
    )


def load_inputs(cfg: RunConfig):
    """Yield the graph6 line of each input graph, unparsed.

    Each record worker parses its own line with _parse_line, so a pool
    parses every line once, in the worker that uses it.
    """
    if cfg.construct is not None:
        try:
            g = construction_by_name(cfg.construct)
        except ValueError as exc:
            raise InputError(str(exc))
        yield to_graph6(g)
        return
    stream = open(cfg.in_path) if cfg.in_path else sys.stdin
    try:
        for line in stream:
            text = line.strip()
            if text:
                yield text
    finally:
        if cfg.in_path:
            stream.close()


def _parse_line(text: str) -> Graph:
    try:
        return parse_graph6(text)
    except ValueError as exc:
        raise InputError(f"bad graph6 line {text!r}: {exc}")


def _chi_or_none(g: Graph) -> int | None:
    return chromatic_number(g) if g.n <= CHROMATIC_MAX_VERTICES else None


def _finding_json(f) -> dict:
    return {
        "clause": f.clause,
        "holds": f.holds,
        "vacuous": f.vacuous,
        "context": f.context,
    }


def _emit(out, record: dict, cfg: RunConfig) -> None:
    if cfg.json_out:
        out.write(json.dumps(record) + "\n")
    else:
        parts = []
        for key, value in record.items():
            if key in ("witness", "lemmas", "stats") and not value:
                continue
            parts.append(f"{key}={value}")
        out.write("  ".join(str(p) for p in parts) + "\n")


def _record_base(g6: str, g: Graph, spec: CliqueVector | None, chi: int | None) -> dict:
    delta, _, _ = degree_stats(g)
    known = known_ramsey(spec) if spec else None
    ht = hanson_toft_edge_count(known[0], g.n) if known is not None else None
    return {
        "g6": g6,
        "spec": list(spec.sizes) if spec else None,
        "verdict": None,
        "delta": delta,
        "chi": chi,
        "edges": g.edge_count,
        "ht_bound": ht,
        "witness": None,
        "lemmas": [],
        "stats": {},
    }


def _worse_exit(a: int, b: int) -> int:
    # Theorem failures outrank budget truncation, which outranks success.
    order = {EXIT_OK: 0, EXIT_INDETERMINATE: 1, EXIT_ASSERTION_FAILED: 2}
    return a if order.get(a, 0) >= order.get(b, 0) else b


def _stream_records(cfg: RunConfig, jobs, worker) -> list:
    """worker(job, workers) per input graph; results come back in input order.

    This decides where the workers go.  With two or more jobs they form the
    command line's one pool across input graphs, and each job runs with one
    worker.  The pool gets about eight chunks per worker, enough to balance
    uneven graphs while keeping the per-chunk hand-over rare.  Otherwise the
    jobs run inline and each gets all the workers to use inside its own
    search.  Either way the records are identical.  A job that raises (a
    bad input line) stops the run.
    """
    if cfg.workers > 1 and len(jobs) > 1:
        chunksize = max(1, len(jobs) // (8 * cfg.workers))
        pool = ProcessPoolExecutor(max_workers=cfg.workers)
        try:
            return list(pool.map(worker, jobs, repeat(1), chunksize=chunksize))
        finally:
            pool.shutdown(cancel_futures=True)
    return [worker(job, cfg.workers) for job in jobs]


def _arrow_record(args, workers: int) -> tuple[dict, int]:
    line, spec_sizes, node_limit, timing = args
    g = _parse_line(line)
    g6 = to_graph6(g)
    spec = CliqueVector((*spec_sizes,))
    verdict = arrows(g, spec, workers=workers, node_limit=node_limit)
    record = _record_base(g6, g, spec, _chi_or_none(g))
    record["verdict"] = verdict.arrows
    record["stats"] = {
        "nodes": verdict.stats.nodes,
        "max_depth": verdict.stats.max_depth,
    }
    if timing:
        record["stats"]["wall_time"] = round(verdict.stats.wall_time, 6)
    if verdict.witness is not None:
        record["witness"] = serialize_coloring(verdict.witness)
    code = EXIT_INDETERMINATE if verdict.indeterminate else EXIT_OK
    return record, code


def cmd_arrow(cfg: RunConfig, out) -> int:
    jobs = [
        (line, cfg.spec.sizes, cfg.node_limit, cfg.timing) for line in load_inputs(cfg)
    ]
    exit_code = EXIT_OK
    for index, (record, code) in enumerate(_stream_records(cfg, jobs, _arrow_record)):
        exit_code = _worse_exit(exit_code, code)
        if record["witness"] and cfg.witness_dir:
            path = Path(cfg.witness_dir)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"witness-{index}.txt").write_text(record["witness"])
        _emit(out, record, cfg)
    return exit_code


def _cocritical_record(args, workers: int) -> tuple[dict, int]:
    line, spec_sizes, node_limit, want_minimal, want_lemmas = args
    g = _parse_line(line)
    g6 = to_graph6(g)
    spec = CliqueVector((*spec_sizes,))
    if g.is_complete():
        raise InputError(f"graph {g6} is complete; co-criticality undefined")
    report = is_cocritical(g, spec, workers=workers, node_limit=node_limit)
    record = _record_base(g6, g, spec, report.chi)
    record["verdict"] = report.is_cocritical
    record["failing_edge"] = list(report.failing_edge) if report.failing_edge else None
    record["meets_ht"] = report.meets_ht
    record["minimal"] = None
    record["stats"] = {"nodes": report.nodes}
    if report.base_witness is not None:
        record["witness"] = serialize_coloring(report.base_witness)
    code = EXIT_INDETERMINATE if report.is_cocritical is None else EXIT_OK
    if report.is_cocritical:
        if want_minimal:
            record["minimal"] = is_minimal_cocritical(
                g, spec, report=report, workers=workers
            )
        if want_lemmas:
            findings = lemma_suite(g, spec, workers=workers)
            record["lemmas"] = [_finding_json(f) for f in findings]
            if any(not f.holds for f in findings):
                code = EXIT_ASSERTION_FAILED
    return record, code


def cmd_cocritical(cfg: RunConfig, out) -> int:
    jobs = [
        (line, cfg.spec.sizes, cfg.node_limit, cfg.minimal, cfg.lemmas)
        for line in load_inputs(cfg)
    ]
    exit_code = EXIT_OK
    for record, code in _stream_records(cfg, jobs, _cocritical_record):
        exit_code = _worse_exit(exit_code, code)
        _emit(out, record, cfg)
    return exit_code


# _scan_graph's verdict for a complete graph, which co-criticality excludes.
SCAN_SKIPPED = "skipped"


def _scan_graph(args, workers: int):
    line, spec_sizes, node_limit = args
    g = _parse_line(line)
    spec = CliqueVector((*spec_sizes,))
    if g.is_complete():
        return SCAN_SKIPPED, None, 0
    report = is_cocritical(g, spec, workers=workers, node_limit=node_limit)
    if report.is_cocritical is not True:
        return report.is_cocritical, None, report.nodes
    findings = lemma_suite(g, spec)
    return (
        True,
        {
            "delta": report.delta,
            "canonical": canonical_form(g).decode("ascii"),
            "findings": [(f.clause, f.holds, f.vacuous) for f in findings],
        },
        report.nodes,
    )


def cmd_scan(cfg: RunConfig, out) -> int:
    spec = cfg.spec
    jobs = [(line, spec.sizes, cfg.node_limit) for line in load_inputs(cfg)]
    results = _stream_records(cfg, jobs, _scan_graph)

    total = len(results)
    cocritical_info = []
    indeterminate = 0
    total_nodes = 0
    for verdict, info, nodes in results:
        total_nodes += nodes
        if verdict == SCAN_SKIPPED:
            continue
        if verdict is None:
            indeterminate += 1
        elif verdict and info:
            cocritical_info.append(info)

    lemma_pass = sum(
        1 for info in cocritical_info for _, holds, _ in info["findings"] if holds
    )
    lemma_fail = sum(
        1 for info in cocritical_info for _, holds, _ in info["findings"] if not holds
    )
    deltas = [info["delta"] for info in cocritical_info]
    try:
        bound = sharp_mindeg_bound(spec)
    except ValueError:
        bound = None
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
    _emit(out, summary, cfg)
    if lemma_fail or delta_ok is False:
        return EXIT_ASSERTION_FAILED
    if indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _saturated_record(args, _workers: int) -> tuple[dict, int]:
    line, t = args
    g = _parse_line(line)
    g6 = to_graph6(g)
    report = is_saturated(g, t)
    record = {
        "g6": g6,
        "t": t,
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
    return record, EXIT_ASSERTION_FAILED if failed else EXIT_OK


def cmd_saturated(cfg: RunConfig, out) -> int:
    jobs = [(line, cfg.t) for line in load_inputs(cfg)]
    exit_code = EXIT_OK
    for record, code in _stream_records(cfg, jobs, _saturated_record):
        exit_code = _worse_exit(exit_code, code)
        _emit(out, record, cfg)
    return exit_code


def run(argv, out) -> int:
    try:
        cfg = parse_config(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    handler = {
        "arrow": cmd_arrow,
        "cocritical": cmd_cocritical,
        "scan": cmd_scan,
        "saturated": cmd_saturated,
    }[cfg.subcommand]
    try:
        if cfg.report_path:
            with open(cfg.report_path, "w") as report:
                code = handler(cfg, _Tee(out, report))
        else:
            code = handler(cfg, out)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
