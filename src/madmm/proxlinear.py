"""Prox-linear baseline: linearize the map inside the smooth loss.

Each outer step minimizes

    g(x) + loss(map(x_k) + J(x_k)(x - x_k)) + ||x - x_k||^2 / (2 tau)

which is convex, and is solved inexactly by an accelerated proximal
gradient method (fixed step from a per-step operator-norm estimate,
monotone restart, prox-gradient mapping norm as the certificate). The
generic :class:`CompositeModel` keeps the solver testable on toy models;
:func:`logistic_composite_model` instantiates the classifier benchmark
over the concatenated variable [quadratic weights; linear weights;
intercept].
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .data import Dataset, make_rng
from .logistic import _jac_block_apply, _scores, fitting_error, initial_state, logistic_smooth_term
from .model import _power_iteration, soft_threshold
from .solver import SolverError
from .trace import TraceRecord

logger = logging.getLogger(__name__)

# Inflation of the power-iteration estimate of ||J||^2 in the inner step
# constant: the estimate approaches the largest eigenvalue from below.
JNORM_SAFETY = 1.02


@dataclass(frozen=True)
class CompositeModel:
    """Nonsmooth + smooth-loss-of-smooth-map objective for prox-linear.

    ``jac_at(x)`` returns forward and adjoint actions of the map's
    Jacobian at ``x``; ``outer_grad_lipschitz`` bounds the loss gradient's
    Lipschitz constant and sizes the inner step together with the
    estimated Jacobian norm.
    """

    map_eval: Callable[[np.ndarray], np.ndarray]
    jac_at: Callable[
        [np.ndarray],
        tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]],
    ]
    outer_eval: Callable[[np.ndarray], float]
    outer_grad: Callable[[np.ndarray], np.ndarray]
    outer_grad_lipschitz: float
    nonsmooth_eval: Callable[[np.ndarray], float]
    nonsmooth_prox: Callable[[np.ndarray, float], np.ndarray]
    dim: int


@dataclass(frozen=True)
class ProxLinearConfig:
    """Step size and inner-solver budget.

    ``tau`` of None defers to the model's default (for the classifier,
    the product of the loss-curvature and map-curvature bounds,
    inverted). ``stop_epsilon`` tests the step-based stationarity measure
    ||x+ - x|| / tau; zero disables it.
    """

    tau: Optional[float] = None
    inner_max_iters: int = 500
    inner_tol: float = 1e-6
    wall_clock_budget: Optional[float] = None
    max_outer_iters: int = 1_000_000
    stop_epsilon: float = 0.0
    seed: int = 0
    trace_stride: int = 1

    def __post_init__(self) -> None:
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iters < 1 or self.max_outer_iters < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.stop_epsilon < 0:
            raise ValueError("stop_epsilon must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")


@dataclass
class ProxLinearResult:
    x: np.ndarray
    iterations: int
    inner_iters_total: int
    stop_reason: str
    wall_time: float
    final_certificate: float
    final_step_norm: float
    trace: list[TraceRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def apg_solve(
    smooth_eval: Callable[[np.ndarray], float],
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    nonsmooth_eval: Callable[[np.ndarray], float],
    prox: Callable[[np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    lipschitz: float,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, float, int]:
    """Accelerated proximal gradient with monotone restart.

    Runs until the prox-gradient mapping norm L ||z - prox(z - grad/L)||
    drops to ``tol`` or the iteration cap. When the accelerated candidate
    raises the objective, the momentum is reset and a plain proximal
    gradient step from the previous iterate (guaranteed non-increasing at
    this step size) is taken instead. Returns (point, certificate,
    iterations used).
    """
    if lipschitz <= 0 or not math.isfinite(lipschitz):
        raise ValueError(f"need a finite positive step constant, got {lipschitz}")
    x = np.asarray(x0, dtype=np.float64).copy()
    z = x.copy()
    t = 1.0
    obj_x = smooth_eval(x) + nonsmooth_eval(x)
    if not math.isfinite(obj_x):
        raise SolverError("inner objective non-finite at the starting point")
    cert = math.inf
    step = 1.0 / lipschitz
    it = 0
    for it in range(1, max_iters + 1):
        cand = prox(z - step * smooth_grad(z), step)
        cert = lipschitz * float(np.linalg.norm(z - cand))
        obj_cand = smooth_eval(cand) + nonsmooth_eval(cand)
        if obj_cand > obj_x:
            cand = prox(x - step * smooth_grad(x), step)
            cert = lipschitz * float(np.linalg.norm(x - cand))
            obj_cand = smooth_eval(cand) + nonsmooth_eval(cand)
            t = 1.0
        if not math.isfinite(obj_cand):
            raise SolverError("inner objective became non-finite")
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = cand + ((t - 1.0) / t_next) * (cand - x)
        x, obj_x, t = cand, obj_cand, t_next
        if cert <= tol:
            break
    return x, cert, it


def prox_linear_step(
    model: CompositeModel,
    x_k: np.ndarray,
    tau: float,
    config: ProxLinearConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, int]:
    """One outer step: build the convex model at x_k and solve it inexactly.

    The inner step constant is JNORM_SAFETY * ||J||^2 * (loss gradient
    Lipschitz) + 1/tau with ||J||^2 from power iteration on J*J (seeded
    through ``rng``). Warm-starts the inner solver at x_k.
    """
    anchor = model.map_eval(x_k)
    j_apply, j_adjoint = model.jac_at(x_k)
    jnorm_sq = _power_iteration(lambda v: j_adjoint(j_apply(v)), model.dim, rng)
    l_sub = JNORM_SAFETY * jnorm_sq * model.outer_grad_lipschitz + 1.0 / tau

    def smooth_eval(xi: np.ndarray) -> float:
        delta = xi - x_k
        return model.outer_eval(anchor + j_apply(delta)) + 0.5 * float(delta @ delta) / tau

    def smooth_grad(xi: np.ndarray) -> np.ndarray:
        delta = xi - x_k
        return j_adjoint(model.outer_grad(anchor + j_apply(delta))) + delta / tau

    return apg_solve(
        smooth_eval,
        smooth_grad,
        model.nonsmooth_eval,
        model.nonsmooth_prox,
        x_k,
        l_sub,
        config.inner_tol,
        config.inner_max_iters,
    )


def pack_blocks(x1: np.ndarray, x2: np.ndarray, x3: float) -> np.ndarray:
    """Concatenate the classifier blocks into the prox-linear variable."""
    return np.concatenate([x1, x2, [float(np.asarray(x3).reshape(-1)[0])]])


def unpack_blocks(xi: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    return xi[:d], xi[d : 2 * d], float(xi[2 * d])


def logistic_composite_model(data: Dataset, lam1: float, lam2: float) -> CompositeModel:
    """Classifier benchmark in composite form: the score map inside the
    block solver's logistic loss, which holds the labels."""
    A, d = data.A, data.d
    loss = logistic_smooth_term(data)

    def map_eval(xi: np.ndarray) -> np.ndarray:
        x1, x2, x3 = unpack_blocks(xi, d)
        return _scores(A.T @ x1, A.T @ x2, x3)

    def jac_at(xi: np.ndarray):
        u = A.T @ xi[:d]

        def j_apply(v: np.ndarray) -> np.ndarray:
            return 2.0 * u * (A.T @ v[:d]) + A.T @ v[d : 2 * d] + v[2 * d]

        def j_adjoint(s: np.ndarray) -> np.ndarray:
            return np.concatenate([_jac_block_apply(data, i, u, s) for i in range(3)])

        return j_apply, j_adjoint

    def nonsmooth_eval(xi: np.ndarray) -> float:
        return lam1 * float(np.abs(xi[:d]).sum()) + lam2 * float(np.abs(xi[d : 2 * d]).sum())

    def nonsmooth_prox(v: np.ndarray, t: float) -> np.ndarray:
        out = v.copy()
        out[:d] = soft_threshold(v[:d], lam1 * t)
        out[d : 2 * d] = soft_threshold(v[d : 2 * d], lam2 * t)
        return out

    return CompositeModel(
        map_eval=map_eval,
        jac_at=jac_at,
        outer_eval=loss.eval,
        outer_grad=loss.grad,
        outer_grad_lipschitz=loss.lipschitz_const,
        nonsmooth_eval=nonsmooth_eval,
        nonsmooth_prox=nonsmooth_prox,
        dim=2 * d + 1,
    )


def default_tau(data: Dataset) -> float:
    """Inverse of (loss curvature bound) * (map curvature bound).

    The map's second-order remainder constant is 2 sqrt(sum ||a_i||^4)
    (only the squared inner products are nonlinear); the loss gradient
    bound is 1/(4q). Unit columns give 2 sqrt(q) overall.
    """
    map_curv = 2.0 * float(np.sqrt(np.sum(data.column_norms**4)))
    return 4.0 * data.q / map_curv


def run_proxlinear(
    data: Dataset,
    lam1: float,
    lam2: float,
    config: ProxLinearConfig,
    x0: Optional[np.ndarray] = None,
    solver_name: str = "proxlinear",
) -> ProxLinearResult:
    """Iterate prox-linear steps on the classifier until a stop fires.

    ``x0`` is the packed start (defaults to the seeded uniform draw shared
    with the block solver). The fitting error is monitored for descent
    (1e-6 slack) and recorded each sampled iteration; stop reasons are
    "epsilon", "max_iters", or "budget".
    """
    if config.tau is None:
        config = replace(config, tau=default_tau(data))
    model = logistic_composite_model(data, lam1, lam2)
    if x0 is None:
        x_blocks, _, _ = initial_state(data, config.seed)
        x0 = pack_blocks(x_blocks.blocks[0], x_blocks.blocks[1], x_blocks.blocks[2][0])
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (model.dim,):
        raise ValueError(f"start has shape {x.shape}, expected ({model.dim},)")

    def fit_at(xi: np.ndarray) -> float:
        x1, x2, x3 = unpack_blocks(xi, data.d)
        return fitting_error(data, x1, x2, x3, lam1, lam2)

    violations: list[str] = []
    trace: list[TraceRecord] = []
    fit_prev = fit_at(x)
    inner_total = 0
    cert = math.nan
    dx = math.nan
    stop_reason = "max_iters"
    k_done = 0
    t0 = time.perf_counter()

    for k in range(1, config.max_outer_iters + 1):
        rng = make_rng(config.seed + k)
        x_new, cert, inner_iters = prox_linear_step(model, x, config.tau, config, rng)
        inner_total += inner_iters
        dx = float(np.linalg.norm(x_new - x))
        x = x_new
        fit = fit_at(x)
        if fit > fit_prev + 1e-6:
            msg = f"outer iteration {k}: fitting error rose from {fit_prev:.9g} to {fit:.9g}"
            violations.append(msg)
            logger.warning(msg)
        fit_prev = fit
        k_done = k
        elapsed = time.perf_counter() - t0

        stop = None
        if config.stop_epsilon > 0 and dx / config.tau <= config.stop_epsilon:
            stop = "epsilon"
        elif k >= config.max_outer_iters:
            stop = "max_iters"
        elif config.wall_clock_budget is not None and elapsed >= config.wall_clock_budget:
            stop = "budget"

        if stop is not None or k % config.trace_stride == 0:
            trace.append(
                TraceRecord(
                    solver=solver_name,
                    k=k,
                    t_sec=elapsed,
                    fit=fit,
                    lagrangian=math.nan,
                    lyapunov=math.nan,
                    r_blocks=(math.nan, math.nan, math.nan),
                    r_y=math.nan,
                    r_c=math.nan,
                    dx=dx,
                    dy=math.nan,
                    dw=math.nan,
                )
            )
        if stop is not None:
            stop_reason = stop
            break

    return ProxLinearResult(
        x=x,
        iterations=k_done,
        inner_iters_total=inner_total,
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
        final_certificate=cert,
        final_step_norm=dx,
        trace=trace,
        violations=violations,
    )
