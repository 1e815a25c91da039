"""Benchmark of cheegernet: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 35 [--workload sweep ...]

Run from the root of a source checkout; the package is imported from its
`src` directory.  A single run prints human-readable lines, then one JSON
object as the last line: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Each run also writes its full result to
perfbench/out/.  --repeat N runs every named workload N times with seeds
1..N and prints each end-to-end metric's median and quartiles against the
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "hyperbolicity", "net_reports")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB"))
# A run is split between this many fresh processes, one after another.
PROCESSES = 3
# Processes that only set up, for more samples of setup_s.
SETUP_ONLY = 2
# The host's speed changes in phases that can outlast a run, so times are
# reported at a fixed speed: each operation's time is divided by the time
# of reference.py's computation timed just before it, and multiplied by
# REFERENCE_S, that computation's median time on the host the bounds were
# set on (2-vCPU Xeon guest, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.035
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["CHEEGERNET_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def medians(passes: list) -> list:
    """Each operation's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def at_reference_speed(part: dict) -> list:
    """A process's untraced passes, each time scaled by REFERENCE_S over
    the reference time taken just before the operation."""
    return [[t * REFERENCE_S / r for t, r in zip(times, refs)]
            for times, refs in zip(part["plain"], part["reference"])]


def reference_time(part: dict) -> float:
    """A process's median reference time."""
    return statistics.median(r for refs in part["reference"] for r in refs)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--out", str(OUT), "--trace", str(trace)]
    spans = OUT / f"{workload}-seed{seed}.spans.json.gz"
    parts = [run_child(base + ["--seconds", str(seconds / PROCESSES)]
                       + (["--spans", str(spans)] if trace and i == 0 else []), deadline)
             for i in range(PROCESSES)]
    setups = parts + [run_child(base + ["--seconds", "0"], deadline) for _ in range(SETUP_ONLY)]
    plain = [t for s in parts for t in s["plain"]]
    scaled_passes = [t for s in parts for t in at_reference_speed(s)]
    scaled = medians(scaled_passes)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not any(s["unexpected"] for s in parts),
        "attempted": sum(s["attempted"] for s in parts),
        "failed": sum(s["failed"] for s in parts),
        "failures": {},
        "passes": sum(len(s["plain"]) + len(s["traced"]) for s in parts),
        "ops_per_pass": len(parts[0]["ops"]),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["setup_reference_s"] for s in setups),
        "run_s": sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1000.0,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in parts),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_reference_samples_s": [s["setup_reference_s"] for s in setups],
        "reference_samples_s": [reference_time(s) for s in parts],
        "measured_setup_s": statistics.median(s["setup_s"] for s in setups),
        "measured_run_s": sum(medians(plain)),
        "op_times_s": {name: [t[i] for t in plain] for i, name in enumerate(parts[0]["ops"])},
        "op_times_at_reference_speed_s": {
            name: [t[i] for t in scaled_passes] for i, name in enumerate(parts[0]["ops"])},
        "passes_per_process": [len(s["plain"]) for s in parts],
        "host": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                 "numpy": parts[0]["numpy"], "cpu_count": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine()},
    }
    for s in parts:
        for problem, count in s["failures"].items():
            result["failures"][problem] = result["failures"].get(problem, 0) + count
    if trace:
        layers = [layer for s in parts for layer in s["layers"]]
        result["traced_run_s"] = sum(medians([t for s in parts for t in s["traced"]]))
        result["trace_overhead_s"] = result["traced_run_s"] - result["measured_run_s"]
        result["per_layer"] = {}
        for name, (value, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit == "count" and len(set(values)) != 1:
                raise BenchError(f"{name} differs between traced passes: {sorted(set(values))}")
            result["per_layer"][name] = {"value": min(values) if unit == "s" else value, "unit": unit}
        names = sorted({k for s in parts for p in s["shares"] for k in p})
        result["layer_share_of_run_s"] = {
            k: statistics.median(p.get(k, 0.0) for s in parts for p in s["shares"]) for k in names}
        result["op_calls"] = parts[0]["op_calls"]
        result["spans_file"] = str(spans)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_single(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['passes']} passes of "
          f"{result['ops_per_pass']} operations; {result['failed']} of {result['attempted']} failed")
    for problem, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {problem}")
    if result["trace"]:
        print(f"  tracing overhead: {result['trace_overhead_s']:.3f} s per pass "
              f"(traced run_s {result['traced_run_s']:.3f} s, untraced {result['measured_run_s']:.3f} s, "
              f"both as measured)")
        for layer, share in sorted(result["layer_share_of_run_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self time of {layer}: {100.0 * share:.1f}% of traced run_s")
    print(json.dumps(report_line(result)))


def repeat(workloads: list, runs: int, seconds: float) -> int:
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            results.append(run_workload(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={results[-1][name]:.4g}" for name, _ in END_TO_END)
                + f" (measured run_s={results[-1]['measured_run_s']:.4g})", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name, unit in END_TO_END:
            values = [r[name] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            verdict = "" if bound is None else f" bound {bound:.2f}" + (" OK" if spread <= bound / 3 else " WIDE")
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {name:12s} median {med:.4g} {unit}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {100 * spread:.1f}%{verdict}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, with seeds 1..N")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cheegernet" / "__init__.py").is_file():
        print(f"run.py: no cheegernet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.repeat:
            return repeat(args.workload or list(WORKLOADS), args.repeat, args.seconds)
        if not args.workload or len(args.workload) != 1:
            ap.error("name exactly one --workload, or use --repeat")
        print_single(run_workload(args.workload[0], args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
