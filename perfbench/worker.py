"""One pass of one workload in a fresh interpreter.

Prints READY when set-up (imports plus the pass's inputs) is done and the
first timed operation is about to start, then runs every operation once,
in order, as a closed loop with one client, and prints one JSON line with
the latencies, the host speed probes (lib.probe) taken before the first
operation and after each one, the failures and the peak resident
memory.

    python3 perfbench/worker.py --workload tower --seed 1 --pass-index 0
        [--setup-only] [--traced] [--in-process] [--corrupt]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback


def cli_runner(lib, in_process: bool, src: str):
    """runner(argv, stdin) -> (exit code, stdout) for the cli workload."""
    if in_process:
        def run(argv, stdin):
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = lib.cli.run(argv)
            finally:
                sys.stdin = saved
            return code, out.getvalue()
        return run

    env = dict(os.environ, PYTHONPATH=src)

    def run(argv, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", "kolberg.cli", *argv], input=stdin or "",
            capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout
    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    import lib as harness
    import workloads
    from spans import Tracer

    lib = harness.load()
    rng = workloads.pass_rng(args.workload, args.seed, args.pass_index)
    tracer = Tracer()
    if args.traced:
        # before the operations are built, so that a function they hold
        # directly is the wrapped one
        tracer.install(lib)
    runner = cli_runner(lib, args.in_process, str(harness.SRC)) \
        if args.workload == "cli" else None
    ops = workloads.build(args.workload, lib, rng, harness.golden(),
                          runner=runner, corrupt=args.corrupt)
    hits0 = lib.numeric._h_u_values.cache_info()
    print("READY", flush=True)
    probes = [harness.probe() for _ in range(harness.PROBE_WINDOW)]
    if args.setup_only:
        print(json.dumps({"probes": probes}), flush=True)
        return 0

    clock = time.perf_counter
    latencies, failures = [], []
    for op in ops:
        error = None
        tracer.active = args.traced
        start = clock()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = clock() - start
        tracer.active = False
        if error is None:
            try:
                verdict = op.check(result)
                if isinstance(verdict, str) or not verdict:
                    error = verdict or "result differs from the reference"
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        latencies.append(latency)
        probes.append(harness.probe())
        if error is not None:
            failures.append({"kind": op.kind, "key": op.key[:200],
                             "error": error[-600:]})

    who = resource.RUSAGE_CHILDREN if runner is not None and not args.in_process \
        else resource.RUSAGE_SELF
    hits1 = lib.numeric._h_u_values.cache_info()
    out = {
        "latencies": latencies,
        "probes": probes,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "cache": {"hits": hits1.hits - hits0.hits,
                  "misses": hits1.misses - hits0.misses},
    }
    if args.traced:
        out["trace"] = tracer.summary()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
