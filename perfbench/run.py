"""kolberg benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload {tower,certify,cli} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (perfbench/worker.py); passes are repeated, each with
new seeded inputs, until the timed operations have taken --seconds at
the reference speed and number at least MIN_OPS.  Set-up time is
measured as the wall clock from spawning a worker to its first timed
operation, over at least MIN_SETUPS spawns.  Every timed figure is
reported at the reference host speed (lib.probe); the raw wall-clock
figures are printed as wall_* on the summary line.

With --trace 1 the run makes one untraced and one traced pass over the
same inputs instead, and reports per-layer metrics from the spans of the
traced pass; the tracing overhead is the ratio of the two passes' timed
seconds at the reference speed.  Counts repeat exactly between traced
runs of one seed.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The exit code is 0 only when every operation matched its
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from lib import (  # noqa: E402
    PROBE_REF_S, PROBE_WINDOW, SRC, require_source, speed_factors)

WORKLOADS = ("tower", "certify", "cli")
MIN_OPS = 100
MIN_SETUPS = 7
RUN_LIMIT_S = 150   # no new pass starts once a run has taken this long

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _layer(name, field):
    return lambda t: t["layers"].get(name, {}).get(field, 0)


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _ratio(num, den):
    return lambda t: (t["counts"].get(num, 0) / t["counts"][den]
                      if t["counts"].get(den) else 0.0)


# (metric, unit, better, value from the trace summary)
PER_LAYER = [
    ("rational.poly_gcd.calls", "count", "lower", _layer("rational.poly_gcd", "calls")),
    ("rational.poly_gcd.self_s", "s", "lower", _layer("rational.poly_gcd", "self_s")),
    ("rational.RatFunc.mul.s", "s", "lower", _layer("rational.RatFunc.mul", "s")),
    ("rational.RatFunc.add.s", "s", "lower", _layer("rational.RatFunc.add", "s")),
    ("rational.RatFunc.truediv.s", "s", "lower", _layer("rational.RatFunc.truediv", "s")),
    ("rational.RatFunc.pow.s", "s", "lower", _layer("rational.RatFunc.pow", "s")),
    ("rational.format_element.s", "s", "lower", _layer("rational.format_element", "s")),
    ("rational.substitute_y.s", "s", "lower", _layer("rational.substitute_y", "s")),
    ("rational.rational_roots.s", "s", "lower", _layer("rational.rational_roots", "s")),
    ("parsing.parse_to.calls", "count", "lower", _layer("parsing.parse_to", "calls")),
    ("parsing.parse_to.s", "s", "lower", _layer("parsing.parse_to", "s")),
    ("parsing.parse_to.chars", "count", "lower", _count("parsing.parse_to.chars")),
    ("assoc.from_associated.QY.s", "s", "lower", _layer("assoc.from_associated.QY", "s")),
    ("assoc.from_associated.QQ.s", "s", "lower", _layer("assoc.from_associated.QQ", "s")),
    ("assoc.to_associated.s", "s", "lower",
     lambda t: _layer("assoc.to_associated.QQ", "s")(t)
     + _layer("assoc.to_associated.QY", "s")(t)),
    ("assoc.terms", "count", "lower", _count("assoc.terms")),
    ("quatuor.taylor_series.QY.s", "s", "lower", _layer("quatuor.taylor_series.QY", "s")),
    ("quatuor.taylor_series.QQ.s", "s", "lower", _layer("quatuor.taylor_series.QQ", "s")),
    ("quatuor.step_up.calls", "count", "lower", _layer("quatuor.step_up", "calls")),
    ("quatuor.step_up.s", "s", "lower", _layer("quatuor.step_up", "s")),
    ("quatuor.step_up.fertile_ratio", "ratio", "higher",
     _ratio("quatuor.step_up.fertile", "quatuor.step_up.calls")),
    ("quatuor.step_down.s", "s", "lower", _layer("quatuor.step_down", "s")),
    ("quatuor.generate_range.s", "s", "lower", _layer("quatuor.generate_range", "s")),
    ("quatuor.quatuor_from_json.s", "s", "lower", _layer("quatuor.quatuor_from_json", "s")),
    ("quatuor.g_coeffs.s", "s", "lower", _layer("quatuor.g_coeffs", "s")),
    ("quatuor.h_coeffs.s", "s", "lower", _layer("quatuor.h_coeffs", "s")),
    ("quatuor.pole_set.s", "s", "lower", _layer("quatuor.pole_set", "s")),
    ("numeric.eval_theorem_series.s", "s", "lower", _layer("numeric.eval_theorem_series", "s")),
    ("numeric.eval_theorem_series.self_s", "s", "lower",
     _layer("numeric.eval_theorem_series", "self_s")),
    ("numeric.eval_theorem_series.terms", "count", "lower",
     _count("numeric.eval_theorem_series.terms")),
    ("numeric.check_identity.s", "s", "lower", _layer("numeric.check_identity", "s")),
    ("numeric.check_identity.self_s", "s", "lower", _layer("numeric.check_identity", "self_s")),
    ("numeric.check_identity.terms", "count", "lower", _count("numeric.check_identity.terms")),
    ("numeric.check_identity.pass_ratio", "ratio", "higher",
     _ratio("numeric.check_identity.passed", "numeric.check_identity.clean")),
    ("numeric.check_identity.fault_detect_ratio", "ratio", "higher",
     _ratio("numeric.check_identity.detected", "numeric.check_identity.injected")),
    ("numeric.eval_H_series.s", "s", "lower", _layer("numeric.eval_H_series", "s")),
    ("numeric.tree_t_interval.s", "s", "lower", _layer("numeric.tree_t_interval", "s")),
    ("numeric.h_u_cache.hit_ratio", "ratio", "higher", lambda t: t["cache_hit_ratio"]),
    ("cli.startup_s", "s", "lower", lambda t: t["cli_startup_s"]),
    ("cli.run.s", "s", "lower", _layer("cli.run", "s")),
    ("cli.exit_code_mismatches", "count", "lower", lambda t: t["exit_code_mismatches"]),
    ("fail_ratio", "ratio", "lower", lambda t: t["fail_ratio"]),
    ("trace.overhead_ratio", "ratio", "lower", lambda t: t["overhead_ratio"]),
    ("trace.spans", "count", "lower", lambda t: t["spans"]),
]


def spawn(workload, seed, pass_index, *flags):
    """Start a worker; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.wait()
        raise SystemExit(f"perfbench: worker for {workload} failed during set-up")
    return proc, ready


def finish(proc) -> str:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return out


def run_pass(workload, seed, pass_index, *flags):
    proc, ready = spawn(workload, seed, pass_index, *flags)
    return json.loads(finish(proc).strip().splitlines()[-1]), ready


def startup_seconds(repeats=5) -> float:
    """Median import time of kolberg.cli less that of a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_wall(code):
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)
    return median_wall("import kolberg.cli") - median_wall("pass")


def timings(setups, lat) -> dict:
    """The timed end-to-end figures from set-up and operation seconds."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def setup_at_reference(res, ready) -> float:
    """A worker's set-up seconds at the reference speed."""
    return ready * PROBE_REF_S / statistics.median(res["probes"][:PROBE_WINDOW])


def at_reference(res) -> list[float]:
    """A pass's operation seconds at the reference speed."""
    lat = res["latencies"]
    return [x * f for x, f in zip(lat, speed_factors(res["probes"], len(lat)))]


def measure(workload, seed, seconds, flags):
    """Untraced passes until the time and sample floors are met."""
    t0 = time.perf_counter()
    passes, readies, timed, ops = [], [], 0.0, 0
    while True:
        res, ready = run_pass(workload, seed, len(passes), *flags)
        passes.append(res)
        readies.append(ready)
        # at the reference speed, so that the number of passes does not
        # follow the host's speed
        timed += sum(at_reference(res))
        ops += len(res["latencies"])
        if timed >= seconds and ops >= MIN_OPS:
            break
        if time.perf_counter() - t0 > RUN_LIMIT_S:
            if ops < MIN_OPS:
                raise SystemExit(f"perfbench: only {ops} operations in "
                                 f"{RUN_LIMIT_S} s, fewer than {MIN_OPS}")
            break
    setup_runs = list(zip(passes, readies))
    while len(setup_runs) < MIN_SETUPS:
        setup_runs.append(run_pass(workload, seed, 0, "--setup-only", *flags))
    metrics = timings([setup_at_reference(*run) for run in setup_runs],
                      [x for p in passes for x in at_reference(p)])
    metrics["peak_rss_mb"] = max(p["peak_rss_kb"] for p in passes) / 1024
    raw = timings(readies, [x for p in passes for x in p["latencies"]])
    probes = [x for p in passes for x in p["probes"]]
    return passes, metrics, {
        "setup_samples": len(setup_runs), "passes": len(passes),
        "timed_ref_s": round(timed, 3),
        "host_speed": round(PROBE_REF_S / statistics.median(probes), 4),
        **{"wall_" + k: round(v, 4) for k, v in raw.items()}}


def trace(workload, seed, flags):
    """One untraced and one traced pass over the same inputs."""
    if workload == "cli":
        flags = [*flags, "--in-process"]
    plain, _ = run_pass(workload, seed, 0, *flags)
    traced, _ = run_pass(workload, seed, 0, "--traced", *flags)
    passes = [plain, traced]
    summary = traced["trace"]
    cache = traced["cache"]
    lookups = cache["hits"] + cache["misses"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    summary.update(
        cache_hit_ratio=cache["hits"] / lookups if lookups else 0.0,
        cli_startup_s=startup_seconds(),
        exit_code_mismatches=sum(
            1 for f in traced["failures"] if f["error"].startswith("exit code ")),
        fail_ratio=failed / attempted,
        overhead_ratio=sum(at_reference(traced)) / sum(at_reference(plain)) - 1,
    )
    metrics = {name: get(summary) for name, _, _, get in PER_LAYER}
    return passes, metrics, {"spans": summary["spans"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one reference value; the run must fail")
    args = ap.parse_args()
    require_source()
    flags = ["--corrupt"] if args.corrupt else []

    if args.trace:
        passes, values, info = trace(args.workload, args.seed, flags)
        table = [(n, u) for n, u, _, _ in PER_LAYER]
    else:
        passes, values, info = measure(args.workload, args.seed, args.seconds, flags)
        table = [(n, u) for n, u, _ in END_TO_END]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:10]:
        print(f"FAILED {f['kind']} [{f['key'][:120]}]: {f['error']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={attempted} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, unit in table:
        print(f"{name:45s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
