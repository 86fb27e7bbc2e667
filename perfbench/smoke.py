"""The benchmark's own smoke check, on a tiny shape with a short budget.

Run from the root of a checkout (about 20 s):

    python3 perfbench/smoke.py

It checks that one untraced command prints every end-to-end metric with
its unit and direction and a well-formed result line; that two traced
commands on the same seed pass their span checks (every parent exists,
no negative self time) and report identical per-iteration counts for
madmm; and that the runner fails without printing a result in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import layers
import run

SECONDS = "3"
REPEATED_COUNTS = ("logistic.matvecs_per_iter", "data.column_norms_per_iter", "logistic.phi_eval.calls_per_iter")
# The untraced table also carries the two shares that are not in the result line.
TABLE = [(name, unit) for name, unit in run.END_TO_END] + [("madmm.cert_fail_share", "share"), ("runs_failed_share", "share")]


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def bench(trace: int, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(os.path.dirname(run.CHILD), "run.py"),
           "--workload", "smoke", "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    check(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    check(not any(line.startswith("FAILED") for line in lines), proc.stdout)
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, str(res))
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, str(res))
    return res


def main() -> int:
    untraced = bench(0)
    res = result(untraced)
    rows = {line.split()[0]: line.split()[1:] for line in untraced.stdout.splitlines() if line.strip()}
    for name, unit in TABLE:
        check(name in rows and rows[name][-2:] == [unit, "lower"], f"{name}: {rows.get(name)}")
    expected = {name: {"value": res["metrics"][name]["value"], "unit": unit} for name, unit in run.END_TO_END}
    check(res["metrics"] == expected, str(res["metrics"]))

    first, second = (result(bench(1)) for _ in range(2))
    for res in (first, second):
        check(list(res["metrics"]) == [name for name, _, _ in layers.PER_LAYER], str(list(res["metrics"])))
    for name in REPEATED_COUNTS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        check(a == b, f"{name} differs between traced runs: {a} vs {b}")

    bare = os.path.join(run.ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copytree(os.path.dirname(run.CHILD), os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = bench(0, cwd=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the madmm sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a concurrent run still uses it
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
