"""One share of a workload run, in one fresh process: set up, run passes.

Started by run.py with the package's `src` directory on PYTHONPATH and
numeric thread pools pinned to one thread.  Prints one JSON object as its
last line of output: the set-up time, the time of every operation in every
pass, the check failures, and with --trace 1 the per-layer figures of each
traced pass.  With --seconds 0 it only sets up.  run.py combines the
shares of a run.

A pass runs every operation of the workload once, in order, in-process
through `cheegernet.cli.main` with stdout captured; the garbage collector
runs before each operation, outside its timing.  reference.py's computation
is timed just before each operation, so run.py can scale the operation's
time to a fixed host speed; it runs in traced passes too, so that they
differ from untraced ones only by the tracing.  Outputs are checked
after each pass.  Passes repeat while the next one is expected to end within
--seconds, give or take half a pass.  With --trace 1, untraced and traced
passes alternate, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import reference
import workloads


def run_op(cli, op) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(op.argv)
        t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue() if rc == 0 else err.getvalue()


def check_op(op, rc: int, text: str) -> list:
    if rc != 0:
        return [f"{op.name}: exit code {rc}: {text.strip()}"]
    try:
        return op.check(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.name}: output could not be checked: {exc!r}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the spans of the first traced pass here")
    args = ap.parse_args()

    import numpy  # part of the program's import cost
    from cheegernet import cli

    work = Path(args.out) / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        data = Path(cli.__file__).parent / "data"
        ops = workloads.WORKLOADS[args.workload](data, work, args.seed)
        run_op(cli, ops[0])  # warm-up
        setup_s = time.monotonic() - args.spawned
        setup_reference_s = statistics.median(reference.measure() for _ in range(5))
        result = measure(cli, ops, args) if args.seconds > 0 else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = setup_s
    result["setup_reference_s"] = setup_reference_s
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(cli, ops, args) -> dict:
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    result = {"ops": [op.name for op in ops], "plain": [], "traced": [], "layers": [], "shares": [],
              "reference": [],
              "attempted": 0, "failed": 0, "failures": {}, "unexpected": False}
    passes = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            runs, ref = [], []
            for op in ops:
                ref.append(reference.measure())
                runs.append(run_op(cli, op))
        finally:
            if traced:
                tracer.uninstall()
        times = [t for t, _, _ in runs]
        passes += 1
        if traced:
            result["traced"].append(times)
            result["layers"].append(tracing.per_layer_metrics(tracer))
            result["shares"].append({k: v / sum(times) for k, v in tracer.layer_self().items()})
            if "op_calls" not in result:
                result["op_calls"] = dict(zip(result["ops"], tracer.calls_per_operation()))
                if args.spans:
                    with gzip.open(args.spans, "wt") as fh:
                        json.dump({"fields": ["name", "start", "end", "parent", "busy", "child"],
                                   "spans": tracer.spans}, fh)
        else:
            result["plain"].append(times)
            result["reference"].append(ref)
        for op, (_, rc, text) in zip(ops, runs):
            result["attempted"] += 1
            problems = check_op(op, rc, text)
            if problems:
                result["failed"] += 1
                for p in problems:
                    result["failures"][p] = result["failures"].get(p, 0) + 1
                    result["unexpected"] |= not p.startswith(checks.KNOWN_FAULT)
        # Start another pass while it would end by the share's end, give or
        # take half a pass, so that a slow process still gets a second pass.
        elapsed = time.perf_counter() - start
        enough = tracer is None or passes >= 2
        if enough and elapsed + 0.5 * elapsed / passes > args.seconds:
            return result


if __name__ == "__main__":
    sys.exit(main())
