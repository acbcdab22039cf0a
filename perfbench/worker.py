"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|setup|trace [--serial]

Set-up is interpreter start, imports and input generation; it ends at the
first call into rck.  Mode "setup" stops there, "run" times the workload
and "trace" also records spans (see spans.py).  --serial runs corpus-n8
with one worker instead of two.  The last stdout line is one JSON object
with the timings and the raw outputs, which run.py checks.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"


def clock() -> float:
    # System-wide, so run.py's spawn time and this process's times compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def coloring_json(coloring) -> dict | None:
    if coloring is None:
        return None
    return {"host": list(coloring.host.adj), "colors": list(coloring.colors), "k": coloring.k}


def finding_json(finding) -> dict:
    return {"clause": finding.clause, "holds": finding.holds, "context": finding.context}


def run_corpus(rck, path, serial):
    workers = "1" if serial else "2"
    scan, sat = io.StringIO(), io.StringIO()
    scan_exit = rck.cli.run(["scan", "--spec", "3,3", "--in", path, "--workers", workers], scan)
    sat_exit = rck.cli.run(["saturated", "--t", "4", "--in", path, "--workers", workers], sat)
    return scan_exit, scan.getvalue(), sat_exit, sat.getvalue()


def corpus_json(raw) -> tuple[dict, list[int]]:
    scan_exit, scan_out, sat_exit, sat_out = raw
    nodes = json.loads(scan_out)["stats"]["nodes"] if scan_exit == 0 else -1
    return {"scan_exit": scan_exit, "scan_out": scan_out, "sat_exit": sat_exit, "sat_out": sat_out}, [nodes]


def run_decide(rck, graphs, serial):
    spec = rck.CliqueVector((3, 4))
    return [
        (op, rck.arrowing.arrows(g, spec, workers=1) if op == "arrows"
         else rck.cocritical.is_cocritical(g, spec, workers=1))
        for op, g in graphs
    ]


def decide_json(raw) -> tuple[list, list[int]]:
    results = []
    for op, result in raw:
        if op == "arrows":
            results.append({"verdict": result.arrows, "nodes": result.stats.nodes,
                            "witness": coloring_json(result.witness)})
        else:
            edge = list(result.failing_edge) if result.failing_edge else None
            results.append({"verdict": result.is_cocritical, "failing_edge": edge,
                            "nodes": result.nodes, "witness": coloring_json(result.base_witness)})
    return results, [r["nodes"] for r in results]


def run_extremal(rck, graphs, serial):
    spec = rck.CliqueVector((3, 4))
    out = []
    for _, g in graphs:
        coloring = rck.arrowing.extremal_critical_coloring(g, spec, 2, "max")
        out.append((
            coloring,
            rck.cocritical.check_lemma_1_2(g, spec, 9),
            rck.cocritical.mindeg_assert(g, spec),
            rck.cocritical.check_lemma_1_5(g, spec, coloring=coloring),
        ))
    return out


def extremal_json(raw) -> tuple[list, list[int]]:
    return [
        {"coloring": coloring_json(c), "lemma_1_2": finding_json(l12),
         "mindeg": finding_json(md), "lemma_1_5": [finding_json(f) for f in l15]}
        for c, l12, md, l15 in raw
    ], []


def run_enumerate(rck, _, serial):
    return rck.enumerate_graphs.graphs_up_to(8)


def enumerate_json(raw) -> tuple[dict, list[int]]:
    from oracle import encode_graph6

    return {str(n): [encode_graph6(g.n, list(g.adj)) for g in graphs] for n, graphs in raw.items()}, []


# Each workload's timed call and the serialisation of its raw outputs.
RUNNERS = {
    "corpus-n8": (run_corpus, corpus_json),
    "decide-ht34": (run_decide, decide_json),
    "extremal-ht34": (run_extremal, extremal_json),
    "enumerate-n8": (run_enumerate, enumerate_json),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    parser.add_argument("--serial", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import rck
    import rck.arrowing
    import rck.cli
    import rck.cocritical
    import rck.enumerate_graphs

    if Path(rck.__file__).resolve().parent != ROOT / "src" / "rck":
        raise SystemExit(f"imported rck from {rck.__file__}, not from this checkout")
    from inputs import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    corpus_path = None
    if args.workload == "corpus-n8":
        STATE.mkdir(exist_ok=True)
        corpus_path = STATE / f"corpus8-{os.getpid()}.g6"
        corpus_path.write_text("\n".join(inputs) + "\n")
        prepared = str(corpus_path)
    else:
        prepared = [(item["op"], rck.Graph(len(item["adj"]), tuple(item["adj"]))) for item in inputs]
    runner, serialize = RUNNERS[args.workload]
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.wrap(args.workload)

    try:
        t_first = clock()
        if args.mode == "setup":
            print(json.dumps({"t_first": t_first}))
            return 0
        cpu0 = cpu_seconds()
        raw = runner(rck, prepared, args.serial)
        t_last = clock()
        cpu1 = cpu_seconds()
    finally:
        if corpus_path is not None:
            corpus_path.unlink()
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    results, counts = serialize(raw)
    report = {
        "t_first": t_first,
        "wall_s": t_last - t_first,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024,
        "counts": counts,
        "results": results,
    }
    if tracer is not None:
        STATE.mkdir(exist_ok=True)
        tracer.dump(STATE / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report["trace"] = tracer.summary()
        report["silent_bindings"] = tracer.silent_bindings()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
