"""One benchmark process: run ``madmm.cli.main`` as a user would, then check it.

Usage (from the checkout root; ``run.py`` launches this):

    python3 perfbench/child.py --out RESULT.json [--traced RUN_ID] -- CLI-ARGS...

The CLI arguments go to ``madmm.cli.main`` unchanged. ``madmm.cli.run``,
``madmm.cli.run_proxlinear`` and ``madmm.cli.build_problem`` are wrapped
from here to note the time of the first solver call (the end of set-up)
and to capture each solver's returned iterate and the dataset. After the
CLI returns, every iterate's objective is recomputed with this file's own
numpy code and compared with the fit the CLI reported; a fit above the
start point's is noted, not failed.
``--traced`` installs the span tracer first.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

REL_TOL = 1e-9


def objective(A, b, x1, x2, x3, lam1, lam2) -> float:
    """Averaged logistic loss of the scores (A'x1)^2 + A'x2 + x3, plus the l1 terms."""
    u = A.T @ x1
    margin = -b * (u * u + A.T @ x2 + x3)
    loss = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    return float(loss.mean() + lam1 * np.abs(x1).sum() + lam2 * np.abs(x2).sum())


def read_curve(path: str) -> list[tuple[int, float, float]]:
    """(k, t_sec, fit) rows of a trace CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [(int(r["k"]), float(r["t_sec"]), float(r["fit"])) for r in csv.DictReader(fh)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", metavar="RUN_ID", default=None)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = None
    if opts.traced is not None:
        import tracer as tracing

        tracer = tracing.install(opts.traced)

    import madmm.cli as cli
    from madmm.logistic import initial_state
    from madmm.proxlinear import unpack_blocks

    captured: dict = {"first_call": None, "data": None, "x": {}}

    def capture_solver(name, fn, get_x):
        def wrapper(*args, **kwargs):
            if captured["first_call"] is None:
                captured["first_call"] = time.monotonic()
            res = fn(*args, **kwargs)
            captured["x"][name] = (get_x(res), list(res.violations))
            return res

        return wrapper

    def madmm_x(res):
        return [np.array(b) for b in res.x.blocks]

    def prox_x(res):
        d = captured["data"].d
        x1, x2, x3 = unpack_blocks(np.array(res.x), d)
        return [x1, x2, np.array([x3])]

    build_problem = cli.build_problem

    def capture_data(data, *args, **kwargs):
        if captured["data"] is None:
            captured["data"] = data
        return build_problem(data, *args, **kwargs)

    cli.run = capture_solver("madmm", cli.run, madmm_x)
    cli.run_proxlinear = capture_solver("proxlinear", cli.run_proxlinear, prox_x)
    cli.build_problem = capture_data

    rc = cli.main(cli_args)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out: dict = {"rc": rc, "first_call": captured["first_call"], "peak_rss_kb": peak_rss_kb, "solvers": {}}
    if tracer is not None:
        spans_path = opts.out + ".spans.json"
        tracer.dump(spans_path)
        out["spans"] = spans_path

    if rc == 0:
        args = cli.build_arg_parser().parse_args(cli_args)
        with open(args.summary, encoding="utf-8") as fh:
            summary = json.load(fh)
        data = captured["data"]
        A, b = np.asarray(data.A), np.asarray(data.b)
        x0, _, _ = initial_state(data, args.seed)
        fit_start = objective(A, b, *x0.blocks, args.lambda1, args.lambda2)
        for name, run in summary["runs"].items():
            x, violations = captured["x"][name]
            curve = read_curve(f"{args.trace}_{name}.csv")
            reported = float(run["fit"])
            recomputed = objective(A, b, *x, args.lambda1, args.lambda2)
            problems = []
            if run["stop_reason"] == "diverged":
                problems.append("stopped as diverged")
            if not math.isfinite(reported):
                problems.append(f"non-finite fit {reported}")
            elif abs(recomputed - reported) > REL_TOL * abs(reported):
                problems.append(f"reported fit {reported!r} but the iterate's objective is {recomputed!r}")
            if not curve or curve[-1][2] != reported:
                problems.append("last trace row does not carry the reported fit")
            out["solvers"][name] = {
                "fit": reported,
                "fit_start": fit_start,
                # Neither solver promises a fit below the start's within a
                # budget (madmm descends its Lyapunov function, not the fit),
                # so this is reported, not failed.
                "above_start": reported > fit_start,
                "iterations": run["iterations"],
                "stop_reason": run["stop_reason"],
                "violations": violations,
                "curve": curve,
                "problems": problems,
            }
        out["shape"] = [data.d, data.q]
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
