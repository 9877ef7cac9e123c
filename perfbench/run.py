"""Run one hallrep benchmark workload and print its metrics.

Run from the root of a hallrep checkout:

    python3 perfbench/run.py --workload mc_laughlin --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller: the next op starts only after
the previous one returns and has been checked against its oracle.  Every op
runs under a deadline enforced by an interval timer; a miss is a failed op
and the loop goes on.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 the first half of the run
is untraced, the second half traced, and the JSON holds the per-layer
metrics.  --workload all runs the four workloads one after another, each in
its own process.  Run records and spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

WORKLOADS = ("mc_laughlin", "mc_hierarchy", "exact_arith", "reps")
SETUP_REPEATS = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hallrep, hallrep.cli; "
    "print(repr(time.perf_counter() - t))"
)
TAIL_BEYOND = 10
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Record:
    op_id: int
    cycle: int
    kind: str
    sizes: dict
    latency: float
    ok: bool
    reason: str
    silent: bool
    info: dict


def measure_setup(src: str) -> list[float]:
    """Seconds to import hallrep and hallrep.cli in fresh interpreters.

    One untimed import first writes the bytecode caches a user's install
    already has.
    """
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(out.stdout.strip()))
    return times[1:]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines(src: str) -> int:
    total = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _on_alarm(signum, frame):
    from workloads import DeadlineExceeded

    raise DeadlineExceeded()


def run_op(op, op_id: int, cycle: int) -> Record:
    """Time one call under its deadline, then judge the outcome untimed."""
    from workloads import DeadlineExceeded, loud, silent

    result = error = None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline)
        try:
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (DeadlineExceeded, Exception) as exc:
        error = exc
    latency = perf_counter() - start
    if isinstance(error, DeadlineExceeded):
        verdict = loud("deadline")
    else:
        try:
            verdict = op.judge_error(error) if error is not None else op.check(result)
        except Exception as exc:  # a malformed result the check could not read
            verdict = silent(f"check raised {type(exc).__name__}: {exc}")
    return Record(op_id, cycle, op.kind, op.sizes, latency, verdict.ok, verdict.reason, verdict.silent, verdict.info)


def closed_loop(workload, seconds: float, tracer=None) -> tuple[list[Record], float]:
    """Ops back to back until `seconds` have passed and an input cycle ends.

    Returns the records and the time spent inside ops.
    """
    records: list[Record] = []
    busy = 0.0
    cycle = 0
    t0 = perf_counter()
    for op in workload.ops():
        if tracer is not None:
            tracer.begin_op(len(records))
        record = run_op(op, len(records), cycle)
        busy += record.latency
        records.append(record)
        if op.ends_cycle:
            if perf_counter() - t0 >= seconds:
                return records, busy
            cycle += 1


def ops_per_s(records: list[Record]) -> float:
    """Median over input cycles of passed ops per second inside the cycle's ops.

    Every cycle has the same composition, so the median drops the cycles a
    transient slowdown of the machine lands in, where one rate over the
    whole run would carry it.
    """
    passed: dict[int, int] = {}
    busy: dict[int, float] = {}
    for r in records:
        passed[r.cycle] = passed.get(r.cycle, 0) + r.ok
        busy[r.cycle] = busy.get(r.cycle, 0.0) + r.latency
    return statistics.median(passed[c] / busy[c] for c in busy)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with fewer samples than
    that, the smallest latency and however many lie beyond it.
    """
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    if name == "mc_laughlin":
        return workloads.MCLaughlin(seed)
    if name == "mc_hierarchy":
        return workloads.MCHierarchy(seed)
    if name == "exact_arith":
        return workloads.ExactArith(seed)
    return workloads.Reps(seed, workdir)


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def report_failures(records: list[Record]) -> str:
    reasons: dict[str, int] = {}
    for r in records:
        if not r.ok:
            key = f"{r.kind}: {r.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return "; ".join(f"{key} x{count}" for key, count in sorted(reasons.items())) or "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hallrep", "__init__.py")):
        print(f"error: {root} is not a hallrep checkout (no src/hallrep)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup_times = [] if args.trace else measure_setup(src)
    sys.path.insert(0, src)
    import numpy as np

    import hallrep

    if os.path.dirname(os.path.dirname(os.path.abspath(hallrep.__file__))) != src:
        print(f"error: imported hallrep from {hallrep.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing

    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        workload.prepare()
        tracer = None
        if args.trace:
            records, busy = closed_loop(workload, args.seconds / 2)
            untraced_rate = ops_per_s(records)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records, busy = closed_loop(make_workload(args.workload, args.seed, workdir), args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            records, busy = closed_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = workload.finish()
        defects = [run_op(op, -1, -1) for op in workload.known_defects()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r.latency for r in records]
    attempted, failed = len(records), sum(not r.ok for r in records)
    tail_value, tail_pct, tail_n = tail(latencies)
    e2e = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "ops_per_s": ops_per_s(records),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"failed_ops_ratio": (failed / attempted, "ratio"), "op_tail_s": (tail_value, "s")}
    if workload.mc:
        to_1pct = [r.latency * (r.info["rel_stderr_worst"] / 0.01) ** 2 for r in records if "rel_stderr_worst" in r.info]
        extra["time_to_1pct_s"] = (statistics.median(to_1pct), "s")
    correct = not any(r.silent for r in records + defects) and checks.get("stream_equal", True)

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(src),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in env.items()))
    for key, value in checks.items():
        print(f"check {key} = {value}")
    print(f"check silent_wrong_outputs = {sum(r.silent for r in records)}")
    print(f"check failed_ops = {failed} of {attempted}: {report_failures(records)}")
    for r in defects:
        outcome = "passed" if r.ok else f"failed: {r.reason}"
        print(f"check known_defect {r.kind} {r.sizes} = {outcome} in {r.latency:.3f} s")
    if args.trace:
        metrics = tracer.layer_metrics(attempted)
        metrics["trace.overhead_ratio"] = ops_per_s(records) / untraced_rate
        out_metrics = {name: {"value": value, "unit": tracing.layer_unit(name)} for name, value in metrics.items()}
        for name, metric in out_metrics.items():
            print(f"layer {name} = {metric['value']!r} {metric['unit']}")
        tracer.dump(f"{stem}-spans.jsonl")
    else:
        print(f"metric setup_s = {e2e['setup_s']!r} s (median of {len(setup_times)} fresh imports)")
        cycles = records[-1].cycle + 1
        print(
            f"metric ops_per_s = {e2e['ops_per_s']!r} 1/s (median over {cycles} input cycles; "
            f"whole run: {attempted - failed} passed ops / {busy:.3f} s inside ops)"
        )
        print(f"metric op_p50_s = {e2e['op_p50_s']!r} s (median of {attempted} ops)")
        print(f"metric peak_rss_mb = {e2e['peak_rss_mb']!r} MB (timed phase)")
        for name, (value, unit) in extra.items():
            note = f" (p{tail_pct:.1f} of {attempted} ops, {tail_n} beyond)" if name == "op_tail_s" else ""
            print(f"metric {name} = {value!r} {unit}{note}")
        out_metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_times_s": setup_times,
        "checks": checks,
        "known_defects": [r.__dict__ for r in defects],
        "metrics": out_metrics,
        "extra_metrics": {name: value for name, (value, _) in extra.items()},
        "ops": [r.__dict__ for r in records],
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    print(f"record {os.path.relpath(stem, root)}.json")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
