"""rck benchmark: run one workload in fresh processes, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a new interpreter (worker.py), as every CLI call is, so
any in-process memo pays its fill cost in every repetition.  With --trace 0
repetitions run until about S seconds are used and the end-to-end metrics
are medians over them; set-up is also sampled in set-up-only processes.
While a worker runs, this process times a short fixed loop every 0.1 s, and
the end-to-end times are scaled to the speed at which that loop takes
REF_PROBE_MS (see README.md for why).
With --trace 1 one untraced and one traced repetition run (corpus-n8 adds an
untraced serial one), and the per-layer metrics come from the traced one.
Every verdict is checked against oracle.py, which shares no code with rck.
The last stdout line is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from inputs import CORPUS, CORPUS_SHA256, WORKLOADS, make_inputs, operations_per_rep  # noqa: E402

RUN_LIMIT_S = 170  # the whole run must end within 180 s
SETUP_SAMPLES = 5
PROBE_PERIOD_S = 0.1
# Roughly the probe's time on the baseline host (2-vCPU Xeon under KVM) when
# other tenants leave it alone.  A reported time is the measured time times
# REF_PROBE_MS over the mean probe time taken while its process ran.
REF_PROBE_MS = 2.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_ms() -> float:
    """A fixed pure-Python loop, timed to measure the machine's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def source_digest() -> str:
    """Hash of the rck sources and this benchmark, keying persisted counts."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.inputs = make_inputs(workload, seed)
        self.ops = operations_per_rep(workload, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict[str, int] = {}  # results hash -> failed operations
        self.probes: list[float] = []

    def spawn(self, mode: str, serial: bool = False) -> dict | None:
        """One worker process; None if it crashed, failed or timed out."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if serial:
            cmd.append("--serial")
        timeout = max(1.0, RUN_LIMIT_S - (clock() - self.started))
        STATE.mkdir(exist_ok=True)
        out_path = STATE / f"worker-{os.getpid()}.out"
        err_path = STATE / f"worker-{os.getpid()}.err"
        probes = [probe_ms()]
        timed_out = False
        with open(out_path, "w+") as out, open(err_path, "w+") as err:
            t_spawn = clock()
            # Own process group, so a timeout also stops the worker's pool.
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err, start_new_session=True)
            while True:
                try:
                    proc.wait(timeout=PROBE_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if clock() - t_spawn > timeout:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    timed_out = True
                    break
                probes.append(probe_ms())
            out.seek(0)
            err.seek(0)
            lines, err_text = out.read().strip().splitlines(), err.read()
        out_path.unlink()
        err_path.unlink()
        self.probes += probes
        if timed_out:
            self.problems.append(f"{mode} worker timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{mode} worker exited {proc.returncode}: {err_text.strip()[-2000:]}")
            return None
        report = json.loads(lines[-1])
        report["setup_s"] = report["t_first"] - t_spawn
        report["probe_ms"] = sum(probes) / len(probes)
        report["speed"] = REF_PROBE_MS / report["probe_ms"]
        return report

    def repetition(self, mode: str, serial: bool = False) -> dict | None:
        """Spawn one timed repetition and check every verdict it returned."""
        self.attempted += self.ops
        report = self.spawn(mode, serial)
        if report is None:
            self.failed += self.ops
            return None
        results = json.dumps(report["results"], sort_keys=True)
        key = hashlib.sha256(results.encode()).hexdigest()
        if key not in self.verified:
            if self.verified:
                self.problems.append(f"{mode} repetition returned different results")
            failures = oracle.CHECKS[self.workload](self.inputs, report["results"])
            self.verified[key] = min(len(failures), self.ops)
            self.problems += failures[:20]
        self.failed += self.verified[key]
        report["results_sha"] = key
        del report["results"]
        return report

    def check_repeats(self, reps: list[dict], traced: dict | None) -> None:
        """Deterministic counts must repeat exactly within and between runs."""
        counts = {json.dumps(r["counts"]) for r in reps}
        if len(counts) > 1:
            self.problems.append(f"node counts differ between repetitions: {sorted(counts)}")
        record = {"results_sha": reps[0]["results_sha"], "counts": reps[0]["counts"]}
        if traced is not None:
            layers = traced["trace"]["layers"]
            arrows = layers.get("arrowing.arrows", {})
            record["traced"] = {
                "arrowing.nodes": arrows.get("nodes", 0),
                "arrowing.calls": arrows.get("calls", 0),
                "canonical.calls": layers.get("canonical.canonical_form", {}).get("calls", 0),
            }
            if reps[0]["counts"] and record["traced"]["arrowing.nodes"] != sum(reps[0]["counts"]):
                self.problems.append("traced arrowing.nodes differ from the verdicts' node counts")
            if traced["silent_bindings"]:
                self.problems.append(f"wrapped bindings recorded no calls: {traced['silent_bindings']}")
        STATE.mkdir(exist_ok=True)
        path = STATE / "counts.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        key = f"{self.workload}:{self.seed}:{source_digest()}"
        previous = known.get(key, {})
        for field, value in record.items():
            if field in previous and previous[field] != value:
                self.problems.append(f"{field} differs from an earlier run on this seed: {previous[field]} != {value}")
        known[key] = {**previous, **record}
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def measure(run: Run, seconds: int) -> dict | None:
    """Repetitions until about `seconds` are used; medians of their metrics."""
    reps = []
    started = clock()
    while True:
        rep = run.repetition("run")
        if rep is not None:
            reps.append(rep)
        elapsed = clock() - started
        per_rep = elapsed / (len(reps) or 1)
        if elapsed + per_rep / 2 > seconds or elapsed + 2 * per_rep > RUN_LIMIT_S - 20:
            break
    if not reps:
        return None
    setups = [rep["setup_s"] * rep["speed"] for rep in reps]
    for _ in range(SETUP_SAMPLES):
        sample = run.spawn("setup")
        if sample is not None:
            setups.append(sample["setup_s"] * sample["speed"])
    run.check_repeats(reps, None)
    for rep in reps:
        print(f"  rep: probe_ms={rep['probe_ms']:.4f} measured wall_s={rep['wall_s']:.4f} "
              f"cpu_s={rep['cpu_s']:.4f} setup_s={rep['setup_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f} counts={rep['counts']}")
    return {
        "wall_s": (median(r["wall_s"] * r["speed"] for r in reps), "s"),
        "setup_s": (median(setups), "s"),
        "cpu_s": (median(r["cpu_s"] * r["speed"] for r in reps), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), "MB"),
        "verified_share": ((run.attempted - run.failed) / run.attempted, "share"),
    }


def per_layer(run: Run) -> dict | None:
    """One untraced and one traced repetition; corpus-n8 adds an untraced serial one."""
    corpus = run.workload == "corpus-n8"
    plain = run.repetition("run")
    serial = run.repetition("run", serial=True) if corpus else plain
    traced = run.repetition("trace", serial=corpus)
    if plain is None or serial is None or traced is None:
        return None
    run.check_repeats([plain, serial, traced], traced)
    summary = traced["trace"]
    layers = summary["layers"]

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    def per_call(layer, scale):
        calls = get(layer, "calls")
        return get(layer, "busy_s") * scale / calls if calls else 0.0

    nodes = get("arrowing.arrows", "nodes")
    serial_busy = get("cli.run", "busy_s")
    for name, rep in (("untraced", plain), ("untraced serial", serial), ("traced", traced)):
        print(f"  {name}: probe_ms={rep['probe_ms']:.4f} measured wall_s={rep['wall_s']:.4f} cpu_s={rep['cpu_s']:.4f}")
    return {
        "arrowing.nodes": (nodes, "count"),
        "arrowing.calls": (get("arrowing.arrows", "calls"), "count"),
        "arrowing.busy_s": (get("arrowing.arrows", "busy_s"), "s"),
        "arrowing.ns_per_node": (get("arrowing.arrows", "busy_s") * 1e9 / nodes if nodes else 0.0, "ns"),
        "arrowing.us_per_call": (per_call("arrowing.arrows", 1e6), "us"),
        "arrowing.extremal_s": (get("arrowing.extremal", "busy_s"), "s"),
        "cocritical.busy_s": (get("cocritical.is_cocritical", "busy_s"), "s"),
        "cocritical.self_s": (get("cocritical.is_cocritical", "self_s"), "s"),
        "cocritical.extensions_per_call": (summary["extensions_per_call"], "ext/call"),
        "cocritical.graph_p50_ms": (summary["cocritical_graph_ms"]["p50"], "ms"),
        "cocritical.graph_p99_ms": (summary["cocritical_graph_ms"]["p99"], "ms"),
        "cocritical.lemma_s": (get("cocritical.lemma", "busy_s"), "s"),
        "graphs.chromatic_s": (get("graphs.chromatic_number", "busy_s"), "s"),
        "saturation.us_per_graph": (per_call("saturation.is_saturated", 1e6), "us"),
        "canonical.calls": (get("canonical.canonical_form", "calls"), "count"),
        "canonical.us_per_call": (per_call("canonical.canonical_form", 1e6), "us"),
        "enumerate_graphs.self_s": (get("enumerate_graphs.graphs_up_to", "self_s"), "s"),
        "graph6.parse_us": (per_call("graph6.parse", 1e6), "us"),
        "cli.pool_speedup": (serial_busy / plain["wall_s"] if corpus else 0.0, "x"),
        "cli.pool_overhead_s": (plain["cpu_s"] - serial_busy if corpus else 0.0, "s"),
        # Two serial repetitions, each scaled by its own probe as wall_s is.
        "trace.overhead_s": (traced["wall_s"] * traced["speed"] - serial["wall_s"] * serial["speed"], "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = clock()

    if not (ROOT / "src" / "rck" / "__init__.py").is_file():
        print(f"error: no rck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "corpus-n8" and hashlib.sha256(CORPUS.read_bytes()).hexdigest() != CORPUS_SHA256:
        print(f"error: {CORPUS} does not match its recorded sha256", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, started)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    metrics = per_layer(run) if args.trace else measure(run, args.seconds)
    for problem in run.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    calib_ms = median(run.probes)
    if args.trace:
        metrics["calib.loop_ms"] = (calib_ms, "ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  calibration probe: median {calib_ms:.4f} ms over {len(run.probes)} samples, "
          f"range {min(run.probes):.4f}..{max(run.probes):.4f} ms (reference {REF_PROBE_MS} ms)")
    print(f"  verdicts: {run.attempted} attempted, {run.failed} failed; run took {clock() - started:.1f} s")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
