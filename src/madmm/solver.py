"""Multiblock alternating-direction solver with majorize-minimize block steps.

One outer iteration performs, in order:

1. a cyclic pass over the x-blocks, each minimizing its surrogate plus g_i
   (Gauss-Seidel: later blocks see earlier updates) and returning the next
   iterate; a step whose surrogate minimizes out a second block moves that
   block as well,
2. a closed-form update of the auxiliary variable y from one quadratic
   model of h, solving (beta B*B + L_h I) y+ = L_h y - grad h(y) - B*(w +
   beta phi(x+)),
3. the exact dual ascent w+ = w + beta (phi(x+) + B y+).

Progress is watched through three residual families (block stationarity,
dual stationarity in y, feasibility), a sufficient-decrease ledger per
step, and a Lyapunov function (augmented Lagrangian plus a ||dy||^2
penalty) that must not increase after the first iteration. Violations are
logged and collected; in strict mode they raise.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    BlockVector,
    ProblemSpec,
    eval_augmented_lagrangian,
    eval_feasibility,
    smooth_part_block_grad,
)
from .surrogates import SurrogateSpec, mm_block_update
from .trace import TraceRecord

logger = logging.getLogger(__name__)

DIAGNOSTICS_LEVELS = ("off", "decrease_checks", "full_lyapunov")


class SolverError(Exception):
    """Configuration rejected, or an invariant failed in strict mode."""


@dataclass(frozen=True)
class SolverConfig:
    """Runtime knobs for :func:`run`.

    ``stop_epsilon`` of zero disables the residual stop; the run then ends
    on the iteration or wall-clock budget. ``trace_stride`` keeps every
    n-th iteration in the trace (the final one is always kept).
    """

    beta: float
    delta_tilde: float = 1.5
    max_outer_iters: int = 1000
    wall_clock_budget: Optional[float] = None
    stop_epsilon: float = 0.0
    diagnostics_level: str = "decrease_checks"
    enforce_beta_condition: bool = True
    strict: bool = False
    trace_stride: int = 1

    def __post_init__(self) -> None:
        for name in ("beta", "delta_tilde", "wall_clock_budget", "stop_epsilon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.delta_tilde <= 1.0:
            raise ValueError("delta_tilde must exceed 1")
        if self.wall_clock_budget is not None and self.wall_clock_budget < 0:
            raise ValueError("wall_clock_budget must be nonnegative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.stop_epsilon < 0:
            raise ValueError("stop_epsilon must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")
        if self.diagnostics_level not in DIAGNOSTICS_LEVELS:
            raise ValueError(f"diagnostics_level must be one of {DIAGNOSTICS_LEVELS}")


@dataclass(frozen=True)
class Residuals:
    """Stationarity and feasibility gaps at one iterate.

    ``blocks[i]`` is the distance from the smooth block gradient to the
    stored surrogate gradient (whose negative is a g_i subgradient),
    ``dual_smooth`` is ||grad h(y) + B* w||, and ``feasibility`` is
    ||phi(x) + B y||.
    """

    blocks: tuple[float, ...]
    dual_smooth: float
    feasibility: float

    @property
    def combined(self) -> float:
        return max(max(self.blocks, default=0.0), self.dual_smooth, self.feasibility)


@dataclass
class SolverResult:
    x: BlockVector
    y: np.ndarray
    w: np.ndarray
    iterations: int
    stop_reason: str
    wall_time: float
    residuals: Residuals
    lagrangian: float
    lyapunov: float
    min_eta: float
    trace: list[TraceRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def check_beta_condition(
    spec: ProblemSpec, beta: float, delta_tilde: float
) -> tuple[bool, float, float]:
    """Penalty-size condition guaranteeing the descent estimates.

    Requires beta (L_h + beta lambda_min(B*B)) >= 6 L_h^2 (5 + 4
    delta_tilde) / sigma_B, with sigma_B the smallest eigenvalue of BB*.
    Returns (ok, left side, right side); a singular BB* makes the right
    side infinite, so the condition fails for any beta.
    """
    lh = spec.h.lipschitz_const
    lhs = beta * (lh + beta * spec.B.lambda_min_BtB)
    if spec.B.sigma_B <= 0.0:
        return False, lhs, math.inf
    rhs = 6.0 * lh * lh * (5.0 + 4.0 * delta_tilde) / spec.B.sigma_B
    return lhs >= rhs, lhs, rhs


def _gram_factor(spec: ProblemSpec, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (lam, V) of beta B*B + L_h I, built column by column."""
    q = spec.B.in_dim
    G = np.empty((q, q), dtype=np.float64)
    for j in range(q):
        e = np.zeros(q)
        e[j] = 1.0
        G[:, j] = spec.B.adjoint_apply(spec.B.apply(e))
    M = beta * G + spec.h.lipschitz_const * np.eye(q)
    return np.linalg.eigh(M)


def y_update(
    spec: ProblemSpec,
    phi_x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    cache: Optional[dict] = None,
) -> tuple[np.ndarray, float, float]:
    """Exact minimizer of the quadratic model in y.

    Returns (y_new, stationarity residual, rhs norm); the residual should
    sit within 1e-10 (1 + rhs norm). A scalar-multiple-of-identity B is
    solved componentwise; otherwise the symmetric positive definite
    beta B*B + L_h I = V diag(lam) V^T is eigendecomposed once, reused via
    ``cache``, and each solve costs two q-by-q products.
    """
    lh = spec.h.lipschitz_const
    rhs = lh * y - spec.h.grad(y) - spec.B.adjoint_apply(w + beta * phi_x)
    if spec.B.scale is not None:
        y_new = rhs / (beta * spec.B.scale * spec.B.scale + lh)
    else:
        if cache is None:
            factor = _gram_factor(spec, beta)
        else:
            factor = cache.get("y_factor")
            if factor is None:
                factor = _gram_factor(spec, beta)
                cache["y_factor"] = factor
        lam, V = factor
        y_new = V @ ((V.T @ rhs) / lam)
    resid = beta * spec.B.adjoint_apply(spec.B.apply(y_new)) + lh * y_new - rhs
    return y_new, float(np.linalg.norm(resid)), float(np.linalg.norm(rhs))


def dual_update(w: np.ndarray, r: np.ndarray, beta: float) -> np.ndarray:
    """Exact ascent step w+ = w + beta r, r the feasibility residual."""
    return w + beta * r


def compute_residuals(
    spec: ProblemSpec,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    surrogate_grads: Sequence[np.ndarray],
    r: Optional[np.ndarray] = None,
) -> Residuals:
    """All residual families at (x, y, w) given stored surrogate gradients."""
    if r is None:
        r = eval_feasibility(spec, x, y)
    blocks = []
    for i, s_i in enumerate(surrogate_grads):
        g = smooth_part_block_grad(spec, i, x, y, w, beta, r)
        blocks.append(float(np.linalg.norm(g - s_i)))
    ry = float(np.linalg.norm(spec.h.grad(y) + spec.B.adjoint_apply(w)))
    rc = float(np.linalg.norm(r))
    return Residuals(tuple(blocks), ry, rc)


def lyapunov_coeff(spec: ProblemSpec, beta: float, delta_tilde: float) -> float:
    """Weight on ||dy||^2 in the Lyapunov function: 3 dt (2 L_h)^2 / (beta sigma_B)."""
    if spec.B.sigma_B <= 0.0:
        return math.inf
    delta_hat = 2.0 * spec.h.lipschitz_const
    return 3.0 * delta_tilde * delta_hat * delta_hat / (beta * spec.B.sigma_B)


def lyapunov_value(
    lagrangian: float,
    spec: ProblemSpec,
    beta: float,
    delta_tilde: float,
    dy_norm: float,
) -> float:
    return lagrangian + lyapunov_coeff(spec, beta, delta_tilde) * dy_norm * dy_norm


# The solver's one L_beta formula, bound under its own name so that the
# benchmark's tracer can span every evaluation the solver makes.
_lagrangian_from_residual = eval_augmented_lagrangian


def run(
    spec: ProblemSpec,
    surrogates: Sequence[SurrogateSpec],
    x0: BlockVector,
    y0: np.ndarray,
    w0: np.ndarray,
    config: SolverConfig,
    fit_fn: Optional[Callable[[BlockVector], float]] = None,
    solver_name: str = "madmm",
) -> SolverResult:
    """Run the solver from (x0, y0, w0) until a stop condition fires.

    ``fit_fn`` fills the trace's fit column (nan when omitted). Stop
    reasons: "epsilon" (combined residual under stop_epsilon),
    "max_iters", "budget" (wall clock), "diverged" (non-finite or
    runaway augmented Lagrangian). Raises ``ValueError`` when the start
    does not fit ``spec`` or is not finite, and ``model.DomainError`` when
    an iterate makes some g_i infinite.

    ``x0`` is taken as is; its blocks are read-only. Each block step
    returns the next iterate (see :func:`surrogates.mm_block_update`), so
    a block that a step leaves alone keeps its array, and with it any
    product cached for that array.
    """
    if len(surrogates) != spec.m:
        raise ValueError(f"expected {spec.m} surrogates, got {len(surrogates)}")
    if config.enforce_beta_condition:
        ok, lhs, rhs = check_beta_condition(spec, config.beta, config.delta_tilde)
        if not ok:
            raise SolverError(
                f"penalty condition fails: beta*(L_h + beta*lambda_min) = {lhs:.6g} "
                f"< {rhs:.6g}; raise beta or pass enforce_beta_condition=False"
            )

    beta = config.beta
    strict = config.strict
    diag = config.diagnostics_level
    check_decrease = diag in ("decrease_checks", "full_lyapunov")
    check_lyapunov = diag == "full_lyapunov"
    tol = 1e-9

    violations: list[str] = []

    def note(msg: str) -> None:
        violations.append(msg)
        logger.warning(msg)
        if strict:
            raise SolverError(msg)

    x = x0
    y = np.atleast_1d(np.asarray(y0, dtype=np.float64)).copy()
    w = np.atleast_1d(np.asarray(w0, dtype=np.float64)).copy()
    if x.m != spec.m or not all(np.isfinite(b).all() for b in x.blocks):
        raise ValueError(f"x0 must be {spec.m} blocks of finite numbers, got {x.m} blocks")
    for name, v, dim in (("y0", y, spec.B.in_dim), ("w0", w, spec.phi.out_dim)):
        if v.shape != (dim,) or not np.isfinite(v).all():
            raise ValueError(f"{name} must be {dim} finite numbers, got shape {v.shape}")
    cache: dict = {}
    trace: list[TraceRecord] = []
    min_eta = math.inf
    lyap_prev: Optional[float] = None
    delta_hat = 2.0 * spec.h.lipschitz_const
    y_step_modulus = spec.h.lipschitz_const + beta * spec.B.lambda_min_BtB

    t0 = time.perf_counter()
    stop_reason = "max_iters"
    resids = Residuals((), 0.0, 0.0)
    # L_beta at the current (x, y, w); the decrease ledger carries it from
    # step to step, so each step evaluates it once, after the step.
    lag_val = _lagrangian_from_residual(spec, x, y, w, beta) if check_decrease else math.nan
    lyap_val = math.nan
    k_done = 0

    # Constant each block's last step accepted (the next step starts its
    # search below the ceiling from it).
    prev_const: list[Optional[float]] = [None] * spec.m

    for k in range(1, config.max_outer_iters + 1):
        # Blocks are read-only; each step returns a new iterate.
        x_prev = x
        lag = lag_val
        surrogate_grads: list[np.ndarray] = []

        for i in range(spec.m):
            upd = mm_block_update(i, surrogates[i].for_step(prev_const[i]), spec, x, y, w, beta)
            # A step that minimizes out a second block moves it too; the
            # ledger below certifies the pair.
            x = upd.x
            prev_const[i] = upd.smoothness
            surrogate_grads.append(upd.surrogate_grad)
            min_eta = min(min_eta, upd.eta)
            if check_decrease:
                lag_pre, lag = lag, _lagrangian_from_residual(spec, x, y, w, beta)
                bound = lag_pre + tol * (1.0 + abs(lag_pre))
                if lag + upd.eta * upd.divergence > bound:
                    note(
                        f"iteration {k}: block {i} decrease short by "
                        f"{lag + upd.eta * upd.divergence - lag_pre:.3e}"
                    )

        phi_x = spec.phi.eval(x)
        y_new, y_resid, y_rhs_norm = y_update(spec, phi_x, y, w, beta, cache)
        if y_resid > 1e-10 * (1.0 + y_rhs_norm):
            note(f"iteration {k}: y update stationarity residual {y_resid:.3e}")
        dy = float(np.linalg.norm(y_new - y))
        y = y_new
        r = phi_x + spec.B.apply(y)
        if check_decrease:
            lag_pre, lag = lag, _lagrangian_from_residual(spec, x, y, w, beta, r)
            bound = lag_pre + tol * (1.0 + abs(lag_pre))
            if lag + 0.5 * y_step_modulus * dy * dy > bound:
                note(
                    f"iteration {k}: y step decrease short by "
                    f"{lag + 0.5 * y_step_modulus * dy * dy - lag_pre:.3e}"
                )

        w = dual_update(w, r, beta)
        dw = beta * float(np.linalg.norm(r))
        dx = x.diff_norm(x_prev)

        resids = compute_residuals(spec, x, y, w, beta, surrogate_grads, r)
        lag_val = _lagrangian_from_residual(spec, x, y, w, beta, r)
        lyap_val = lyapunov_value(lag_val, spec, beta, config.delta_tilde, dy)

        if check_lyapunov:
            ry_bound = delta_hat * dy
            if resids.dual_smooth > ry_bound + tol * (1.0 + ry_bound):
                note(
                    f"iteration {k}: dual residual {resids.dual_smooth:.3e} exceeds "
                    f"2 L_h ||dy|| = {ry_bound:.3e}"
                )
            if lyap_prev is not None and lyap_val > lyap_prev + tol * (1.0 + abs(lyap_prev)):
                note(
                    f"iteration {k}: Lyapunov value rose from {lyap_prev:.12g} "
                    f"to {lyap_val:.12g}"
                )
        lyap_prev = lyap_val

        k_done = k
        elapsed = time.perf_counter() - t0

        stop = None
        if not math.isfinite(lag_val) or (
            spec.lower_bound_hint is not None
            and lag_val < spec.lower_bound_hint - 1e6 * (1.0 + abs(spec.lower_bound_hint))
        ):
            note(f"iteration {k}: augmented Lagrangian diverged ({lag_val:.6g})")
            stop = "diverged"
        elif config.stop_epsilon > 0 and resids.combined <= config.stop_epsilon:
            stop = "epsilon"
        elif k >= config.max_outer_iters:
            stop = "max_iters"
        elif config.wall_clock_budget is not None and elapsed >= config.wall_clock_budget:
            stop = "budget"

        if stop is not None or k % config.trace_stride == 0:
            fit = fit_fn(x) if fit_fn is not None else math.nan
            trace.append(
                TraceRecord(
                    solver=solver_name,
                    k=k,
                    t_sec=elapsed,
                    fit=fit,
                    lagrangian=lag_val,
                    lyapunov=lyap_val,
                    r_blocks=resids.blocks,
                    r_y=resids.dual_smooth,
                    r_c=resids.feasibility,
                    dx=dx,
                    dy=dy,
                    dw=dw,
                )
            )
        if stop is not None:
            stop_reason = stop
            break

    return SolverResult(
        x=x,
        y=y,
        w=w,
        iterations=k_done,
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
        residuals=resids,
        lagrangian=lag_val,
        lyapunov=lyap_val,
        min_eta=min_eta,
        trace=trace,
        violations=violations,
    )
