"""Benchmark harness: timed solver runs with CSV traces and a JSON summary.

Modes: ``madmm`` (the block solver), ``proxlinear`` (the baseline), or
``compare`` (both, from bit-identical initial points). Budgets default by
problem size for the standard benchmark shapes; anything else needs an
explicit --budget or --max-iters. Exit codes: 0 success, 1 solver
failure, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional

import numpy as np

from .data import DataError, Dataset, libsvm_parse, make_rng, normalize_columns, synthetic_generate
from .logistic import LogisticSetup, build_problem, default_beta, fitting_error, initial_state
from .model import BlockVector
from .proxlinear import ProxLinearConfig, pack_blocks, run_proxlinear, unpack_blocks
from .solver import SolverConfig, SolverError, check_beta_condition, run
from .surrogates import SurrogateError
from .trace import write_trace

logger = logging.getLogger(__name__)

# Default wall-clock budgets (seconds) for the standard benchmark shapes.
BUDGET_DEFAULTS = {
    (1000, 100): 15.0,
    (5000, 1000): 100.0,
    (10000, 5000): 300.0,
    (10000, 2000): 300.0,
    (7129, 44): 30.0,
    (7129, 38): 30.0,
    (2000, 62): 30.0,
}

# Iteration cap when only the wall clock limits a run.
_UNCAPPED = 10**9

# Float flags that must be finite (a NaN slips past every ordering test).
_FINITE_FLAGS = ("lambda1", "lambda2", "beta", "delta_tilde", "kappa1", "budget", "epsilon")


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="madmm-bench",
        description="Timed benchmark runs of the block solver and the prox-linear baseline.",
    )
    p.add_argument("--mode", required=True, choices=("madmm", "proxlinear", "compare"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", metavar="PATH", help="LIBSVM-format file (columns are normalized on load)")
    src.add_argument("--synthetic", metavar="DxQ", help="generate a DxQ dataset, e.g. 1000x100")
    p.add_argument("--lambda1", type=float, default=0.001, help="l1 weight on the quadratic weights")
    p.add_argument("--lambda2", type=float, default=0.1, help="l1 weight on the linear weights")
    p.add_argument("--beta", type=float, default=None, help="penalty weight (default 2.5/q)")
    p.add_argument("--delta-tilde", type=float, default=1.5, dest="delta_tilde")
    p.add_argument("--kappa1", type=float, default=1.1, help="surrogate inflation for the quadratic-weights block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=None, help="wall-clock seconds per solver")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters", help="outer-iteration cap (disables the size-based default budget)")
    p.add_argument("--epsilon", type=float, default=None, help="residual stop threshold (default 0 under a budget, 1e-5 otherwise)")
    p.add_argument("--trace", metavar="PREFIX", default=None, help="write PREFIX_<solver>.csv trace files")
    p.add_argument("--trace-stride", type=int, default=None, dest="trace_stride", help="keep every n-th iteration (default 1, or 25 for d*q > 2e6)")
    p.add_argument("--summary", metavar="PATH", default=None, help="write the JSON summary here instead of stdout")
    p.add_argument("--diagnostics", choices=("off", "decrease_checks", "full_lyapunov"), default="off")
    p.add_argument("--strict", action="store_true", help="escalate diagnostics violations and config warnings to errors")
    return p


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, str]:
    if args.data is not None:
        with open(args.data, encoding="utf-8") as fh:
            data = libsvm_parse(fh)
        return normalize_columns(data), args.data
    try:
        d_s, q_s = args.synthetic.lower().split("x")
        d, q = int(d_s), int(q_s)
    except ValueError:
        raise DataError(f"--synthetic expects DxQ (e.g. 1000x100), got {args.synthetic!r}") from None
    if d < 1 or q < 1:
        raise DataError(f"--synthetic sizes must be >= 1, got {args.synthetic!r}")
    return synthetic_generate(d, q, make_rng(args.seed)), f"synthetic {d}x{q}"


def _resolve_budget_epsilon(
    args: argparse.Namespace, shape: tuple[int, int]
) -> tuple[Optional[float], float, int]:
    """Budget, stop epsilon, and iteration cap from flags plus defaults."""
    budget = args.budget
    if budget is None and args.max_iters is None:
        budget = BUDGET_DEFAULTS.get(shape)
        if budget is None:
            raise ConfigError(
                f"no default budget for shape {shape[0]}x{shape[1]}; pass --budget or --max-iters"
            )
    if budget is not None and budget <= 0:
        raise ConfigError("--budget must be positive")
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = 0.0 if budget is not None else 1e-5
    if epsilon < 0:
        raise ConfigError("--epsilon must be nonnegative")
    max_iters = args.max_iters if args.max_iters is not None else _UNCAPPED
    if max_iters < 1:
        raise ConfigError("--max-iters must be >= 1")
    return budget, epsilon, max_iters


class ConfigError(Exception):
    """Invalid flag combination or rejected solver configuration."""


def _run_madmm(
    setup: LogisticSetup, x0: BlockVector, y0: np.ndarray, w0: np.ndarray, cfg: SolverConfig
) -> tuple[dict, list]:
    res = run(setup.spec, setup.surrogates, x0, y0, w0, cfg, fit_fn=setup.fitting)
    summary = {
        "solver": "madmm",
        "fit": setup.fitting(res.x),
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "wall_time_sec": res.wall_time,
        "residuals": {
            "blocks": [float(v) for v in res.residuals.blocks],
            "dual": res.residuals.dual_smooth,
            "feasibility": res.residuals.feasibility,
            "combined": res.residuals.combined,
        },
        "lagrangian": res.lagrangian,
        "lyapunov": res.lyapunov,
        "min_eta": res.min_eta,
        "beta": cfg.beta,
        "violations": len(res.violations),
    }
    return summary, res.trace


def _run_proxlinear(
    data: Dataset, lam1: float, lam2: float, cfg: ProxLinearConfig, x0: np.ndarray
) -> tuple[dict, list]:
    res = run_proxlinear(data, lam1, lam2, cfg, x0=x0)
    x1, x2, x3 = unpack_blocks(res.x, data.d)
    summary = {
        "solver": "proxlinear",
        "fit": fitting_error(data, x1, x2, x3, lam1, lam2),
        "iterations": res.iterations,
        "inner_iterations": res.inner_iters_total,
        "stop_reason": res.stop_reason,
        "wall_time_sec": res.wall_time,
        "final_certificate": res.final_certificate,
        "final_step_norm": res.final_step_norm,
        "violations": len(res.violations),
    }
    return summary, res.trace


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        # Outputs are written after the runs: check their directories first.
        for path in (args.trace, args.summary):
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"output path {path!r} is in a missing directory")
        data, source = _load_dataset(args)
        for flag in _FINITE_FLAGS:
            value = getattr(args, flag)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"--{flag.replace('_', '-')} must be finite, got {value}")
        if args.lambda1 < 0 or args.lambda2 < 0:
            raise ConfigError("--lambda1/--lambda2 must be nonnegative")
        budget, epsilon, max_iters = _resolve_budget_epsilon(args, (data.d, data.q))
        beta = args.beta if args.beta is not None else default_beta(data.q)
        if beta <= 0:
            raise ConfigError("--beta must be positive")

        setup = build_problem(data, args.lambda1, args.lambda2, args.kappa1)
        enforce = True
        ok, lhs, rhs = check_beta_condition(setup.spec, beta, args.delta_tilde)
        if not ok:
            msg = (
                f"penalty condition fails: beta*(L_h + beta*lambda_min) = {lhs:.6g} < {rhs:.6g}"
            )
            if args.strict:
                raise ConfigError(msg)
            logger.warning("%s; running anyway", msg)
            enforce = False

        if args.trace_stride is not None:
            stride = args.trace_stride
            if stride < 1:
                raise ConfigError("--trace-stride must be >= 1")
        else:
            stride = 1 if data.d * data.q <= 2_000_000 else 25

        solver_cfg = SolverConfig(
            beta=beta,
            delta_tilde=args.delta_tilde,
            max_outer_iters=max_iters,
            wall_clock_budget=budget,
            stop_epsilon=epsilon,
            diagnostics_level=args.diagnostics,
            enforce_beta_condition=enforce,
            strict=args.strict,
            trace_stride=stride,
        )
        prox_cfg = ProxLinearConfig(
            wall_clock_budget=budget,
            max_outer_iters=max_iters,
            stop_epsilon=epsilon,
            seed=args.seed,
            trace_stride=stride,
        )
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    x0, y0, w0 = initial_state(data, args.seed)
    x0_packed = pack_blocks(x0.blocks[0], x0.blocks[1], x0.blocks[2][0])

    run_summaries: dict = {}
    traces: dict = {}
    try:
        if args.mode in ("madmm", "compare"):
            run_summaries["madmm"], traces["madmm"] = _run_madmm(setup, x0, y0, w0, solver_cfg)
        if args.mode in ("proxlinear", "compare"):
            run_summaries["proxlinear"], traces["proxlinear"] = _run_proxlinear(
                data, args.lambda1, args.lambda2, prox_cfg, x0_packed
            )
    except (SolverError, SurrogateError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1

    if args.trace is not None:
        for name, records in traces.items():
            write_trace(f"{args.trace}_{name}.csv", records)

    config_echo = {
        "mode": args.mode,
        "lambda1": args.lambda1,
        "lambda2": args.lambda2,
        "beta": beta,
        "delta_tilde": args.delta_tilde,
        "kappa1": args.kappa1,
        "seed": args.seed,
        "budget_sec": budget,
        "max_iters": args.max_iters,
        "epsilon": epsilon,
        "trace_stride": stride,
        "diagnostics": args.diagnostics,
        "strict": args.strict,
    }
    data_info = {"source": source, "d": data.d, "q": data.q, "checksum": data.checksum()}
    doc = {"mode": args.mode, "config": config_echo, "data": data_info, "runs": run_summaries}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.summary is not None:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
