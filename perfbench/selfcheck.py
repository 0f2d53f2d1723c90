"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

1. The same seed gives the same operation list, and another seed another.
2. Counts (units "count") repeat exactly between two traced runs.
3. A deliberately corrupted reference is reported as a failure, and the
   benchmark command then exits non-zero.
4. BENCHMARK.json lists exactly the metrics and workloads run.py reports.

Exits non-zero when any check fails.  Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import lib as harness  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def op_keys(lib, workload, seed):
    rng = workloads.pass_rng(workload, seed, 0)
    ops = workloads.build(workload, lib, rng, harness.golden(),
                          runner=lambda argv, stdin: (0, ""))
    return [(op.kind, op.key) for op in ops]


def main() -> int:
    lib = harness.load()
    problems = []

    for w in run.WORKLOADS:
        a, b, c = op_keys(lib, w, 5), op_keys(lib, w, 5), op_keys(lib, w, 6)
        if a != b:
            problems.append(f"{w}: seed 5 gave two different operation lists")
        if a == c:
            problems.append(f"{w}: seeds 5 and 6 gave the same operation list")

    counts = [n for n, unit, _, _ in run.PER_LAYER if unit == "count"]
    for w in run.WORKLOADS:
        first, second = bench("--workload", w, "--seed", "3", "--seconds", "1",
                              "--trace", "1"), \
            bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
        for n in counts:
            x, y = first[1]["metrics"][n]["value"], second[1]["metrics"][n]["value"]
            if x != y:
                problems.append(f"{w}: {n} read {x} then {y}")

        code, res = bench("--workload", w, "--seed", "3", "--seconds", "1",
                          "--corrupt")
        if code == 0 or res["correct"] or res["failed"] == 0:
            problems.append(f"{w}: a corrupted reference was not caught")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
            != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != [(n, u, b) for n, u, b, _ in run.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
