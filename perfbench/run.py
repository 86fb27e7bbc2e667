"""madmm benchmark: fitting error against wall clock, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0

Each solver process is a fresh ``python3 perfbench/child.py`` that drives
``madmm.cli.main`` with the workload's flags, one process at a time and
the solvers one after the other (never ``--parallel``). Every solver runs
under the same wall-clock ``--budget`` with ``--epsilon 0``; the budget is
a fixed share of ``--seconds``. A run covers several instances, each with
its own data and start drawn from ``--seed``, and reports medians over
them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each of
the first few instances untraced and then traced, and prints the
per-layer metrics, including the tracing overhead (traced minus
untraced, median over those pairs). The last line of standard output is the JSON result; the lines
before it are a readable table and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
CHILD_TIMEOUT_S = 150
SOLVERS = ("madmm", "proxlinear")


@dataclass(frozen=True)
class Workload:
    shape: tuple[int, int]
    lam1: float
    lam2: float
    diagnostics: str
    libsvm: bool  # write the data as a LIBSVM file and read it through --data
    instances: int  # processes in an untraced run
    traced: int  # instances run both untraced and traced in a traced run
    budget_share: float  # per-solver budget as a share of --seconds
    rho: dict  # time to target: first t_sec with fit <= rho * fit_start


# Why each workload exists and what the seed commit shows on it: README.md.
WORKLOADS = {
    "small": Workload(
        shape=(1000, 100), lam1=0.001, lam2=0.1, diagnostics="off", libsvm=False,
        instances=22, traced=3, budget_share=0.015, rho={"madmm": 0.05, "proxlinear": 0.0055},
    ),
    "wide-certified": Workload(
        shape=(7129, 44), lam1=0.001, lam2=0.001, diagnostics="full_lyapunov", libsvm=True,
        instances=7, traced=2, budget_share=0.048, rho={"madmm": 0.25, "proxlinear": 0.05},
    ),
    # Tiny shape for smoke.py; not part of BENCHMARK.json.
    "smoke": Workload(
        shape=(300, 12), lam1=0.001, lam2=0.001, diagnostics="full_lyapunov", libsvm=True,
        instances=2, traced=2, budget_share=0.1, rho={"madmm": 0.5, "proxlinear": 0.5},
    ),
}

# name, unit; all lower is better
END_TO_END = (
    ("setup_s", "s"),
    ("madmm.fit_at_budget", "fit"),
    ("proxlinear.fit_at_budget", "fit"),
    ("madmm.time_to_target_s", "s"),
    ("proxlinear.time_to_target_s", "s"),
    ("peak_rss_mb", "MB"),
)


def environment(shape: tuple[int, int]) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.machine(),
        "llc": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": None,
        "A_bytes": 8 * shape[0] * shape[1],
        "load": "one solver process at a time, solvers one after the other",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        caches = "/sys/devices/system/cpu/cpu0/cache"
        sizes = []
        for index in (i for i in os.listdir(caches) if i.startswith("index")):
            with open(os.path.join(caches, index, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(caches, index, "size"), encoding="utf-8") as fh:
                sizes.append((level, fh.read().strip()))
        env["llc"] = max(sizes)[1]
    except (OSError, StopIteration, ValueError):
        pass
    try:
        (lib,) = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
        blas = ctypes.CDLL(lib)
        blas.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        env["openblas"] = blas.scipy_openblas_get_config64_().decode()
        env["blas_threads"] = blas.scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError, ValueError):
        pass
    return env


def write_libsvm(wl: Workload, seed: int, path: str) -> None:
    """The instance's synthetic data as a LIBSVM file (untimed)."""
    from madmm.data import libsvm_serialize, make_rng, synthetic_generate

    data = synthetic_generate(wl.shape[0], wl.shape[1], make_rng(seed))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(libsvm_serialize(data))


def run_child(wl: Workload, seed: int, budget: float, tag: str, traced: bool = False) -> dict:
    """One process on instance ``seed``; its result gains ``setup_s`` or ``error``."""
    prefix = os.path.join(WORK, tag)
    if wl.libsvm:
        source = ["--data", prefix + ".libsvm"]
        if not os.path.exists(prefix + ".libsvm"):
            write_libsvm(wl, seed, prefix + ".libsvm")
    else:
        source = ["--synthetic", f"{wl.shape[0]}x{wl.shape[1]}"]
    out = prefix + (".traced" if traced else "") + ".result.json"
    cmd = [sys.executable, CHILD, "--out", out]
    if traced:
        cmd += ["--traced", tag]
    cmd += [
        "--", "--mode", "compare", *source,
        "--lambda1", repr(wl.lam1), "--lambda2", repr(wl.lam2),
        "--seed", str(seed), "--budget", repr(budget), "--epsilon", "0",
        "--diagnostics", wl.diagnostics, "--trace-stride", "1",
        "--trace", prefix, "--summary", prefix + ".summary.json",
    ]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"seed": seed, "error": f"process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    res["seed"] = seed
    if res["rc"] != 0:
        res["error"] = f"madmm-bench exited {res['rc']}: {proc.stderr.strip()[-500:]}"
    else:
        res["setup_s"] = res["first_call"] - t_spawn
    return res


def tally(results: list[dict]) -> tuple[int, int]:
    """Solver runs attempted and failed; prints each failure."""
    attempted = failed = 0
    for res in results:
        attempted += len(SOLVERS)
        if "error" in res:
            failed += len(SOLVERS)
            print(f"FAILED seed {res['seed']}: {res['error']}")
            continue
        for name in SOLVERS:
            problems = res["solvers"][name]["problems"]
            if problems:
                failed += 1
                print(f"FAILED seed {res['seed']} {name}: {'; '.join(problems)}")
    return attempted, failed


def time_to_target(solver: dict, rho: float) -> tuple[float, bool]:
    """First t_sec with fit <= rho * fit_start, and whether it was reached;
    a miss counts as the last row's time."""
    target = rho * solver["fit_start"]
    for _, t, fit in solver["curve"]:
        if fit <= target:
            return t, True
    return solver["curve"][-1][1], False


def print_table(rows: list[tuple]) -> None:
    print(f"{'metric':40} {'value':>18} {'unit':8} better")
    for name, value, unit, better in rows:
        text = value if isinstance(value, str) else f"{value:.8g}"
        print(f"{name:40} {text:>18} {unit:8} {better}")


def untraced_run(wl: Workload, seed: int, budget: float) -> dict:
    full = [run_child(wl, seed * 100 + j, budget, f"i{j}") for j in range(wl.instances)]
    attempted, failed = tally(full)
    ok = [r for r in full if "error" not in r]
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    samples["setup_s"] = [r["setup_s"] for r in ok]
    checks = violations = above = 0
    for r in ok:
        samples["peak_rss_mb"].append(r["peak_rss_kb"] / 1024.0)
        line = f"instance {r['seed']}: setup {r['setup_s']:.4f} s"
        for name in SOLVERS:
            s = r["solvers"][name]
            if s["problems"]:
                continue
            t, reached = time_to_target(s, wl.rho[name])
            samples[f"{name}.fit_at_budget"].append(s["fit"])
            samples[f"{name}.time_to_target_s"].append(t)
            line += f", {name} fit {s['fit']:.6g} after {s['iterations']} iterations, "
            line += f"target at {t:.4f} s" if reached else "target missed"
            if s["above_start"]:
                above += 1
                line += f" (above the start's {s['fit_start']:.6g})"
        print(line)
        checks += layers.certificate_checks(r["solvers"]["madmm"]["iterations"], wl.diagnostics)
        violations += layers.certificate_violations(r["solvers"]["madmm"]["violations"])
    empty = [name for name, v in samples.items() if not v]
    if empty:
        raise SystemExit(f"nothing measured for {', '.join(empty)}")
    metrics = {name: float(statistics.median(v)) for name, v in samples.items()}
    units = dict(END_TO_END)
    rows = [(name, metrics[name], units[name], "lower") for name in metrics]
    rows.append(("madmm.cert_fail_share", violations / checks if checks else "n/a (no checks)", "share", "lower"))
    rows.append(("runs_failed_share", failed / attempted, "share", "lower"))
    rows.append(("runs_above_start_share", above / attempted, "share", "lower"))
    print_table(rows)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def iteration_stats(results: list[dict]) -> dict:
    ms = sorted(x for r in results for x in layers.iteration_ms(r["solvers"]["madmm"]["curve"]))
    return {
        "solver.iter_ms_median": float(statistics.median(ms)),
        "solver.iter_ms_p99": ms[min(len(ms) - 1, int(0.99 * len(ms)))],
        "solver.iter_samples": len(ms),
    }


def traced_run(wl: Workload, seed: int, budget: float) -> dict:
    pairs = []
    for j in range(wl.traced):
        # Alternate which side runs first: a process right after another
        # one, or after the LIBSVM file is written, starts differently.
        sides = [False, True] if j % 2 == 0 else [True, False]
        runs = {traced: run_child(wl, seed * 100 + j, budget, f"i{j}", traced=traced) for traced in sides}
        pairs.append((runs[False], runs[True]))
    attempted, failed = tally([r for pair in pairs for r in pair])
    ok = [(plain, traced) for plain, traced in pairs if "error" not in plain and "error" not in traced]
    if not ok:
        raise SystemExit("no successful traced run to measure")
    per_process = []
    for _, r in ok:
        m, problems = layers.process_metrics(r, wl.diagnostics)
        for problem in problems:
            print(f"FAILED span check, seed {r['seed']}: {problem}")
        failed += bool(problems)
        per_process.append(m)
    metrics = {name: float(statistics.median(m[name] for m in per_process)) for name in per_process[0]}
    metrics.update(iteration_stats([r for _, r in ok]))
    metrics["tracing.overhead_setup_s"] = float(statistics.median(r["setup_s"] - p["setup_s"] for p, r in ok))
    metrics["tracing.overhead_iter_ms"] = float(statistics.median(
        iteration_stats([r])["solver.iter_ms_median"] - iteration_stats([p])["solver.iter_ms_median"] for p, r in ok
    ))
    rows = [(name, metrics.get(name, "missing"), unit, better) for name, unit, better in layers.PER_LAYER]
    print_table(rows)
    missing = [name for name, _, _ in layers.PER_LAYER if name not in metrics]
    if missing:
        raise SystemExit(f"nothing measured for {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in layers.PER_LAYER},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and
    # waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isdir(os.path.join(SRC, "madmm")):
        print(f"no madmm sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = WORKLOADS[args.workload]
    budget = round(wl.budget_share * args.seconds, 3)
    print(f"workload {args.workload}: {wl.shape[0]}x{wl.shape[1]}, budget {budget} s per solver, seed {args.seed}")
    os.makedirs(WORK)
    try:
        result = (traced_run if args.trace else untraced_run)(wl, args.seed, budget)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run still uses it
    print("environment " + json.dumps(environment(wl.shape)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
