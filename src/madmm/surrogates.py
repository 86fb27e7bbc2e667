"""Block surrogate functions and the majorize-minimize block update.

A surrogate for block ``i`` majorizes the smooth-in-x part of the augmented
Lagrangian as a function of that block, touching it at the current iterate.
Three families are supported:

* ``PROXIMAL``          u(v) = smooth(v) + kappa * D(v, z_i)
* ``LIPSCHITZ_GRADIENT`` u(v) = smooth(z) + <grad, v - z_i> + (kappa*L/2)|v - z_i|^2
  with L the gradient Lipschitz bound
* ``BREGMAN``           u(v) = smooth(z) + <grad, v - z_i> + kappa*L*D(v, z_i)
  with L a relative-smoothness constant for the kernel's geometry

where D is the Bregman divergence of the chosen kernel. The approximation
error u - smooth admits the lower bound eta * D with eta = kappa for the
proximal kind and eta = (kappa - 1) * L otherwise, which is what the
solver's sufficient-decrease accounting consumes.

A Bregman surrogate backtracks on L once a previous step's constant is
known: its closed-form constant is then a ceiling, and each step searches
below it for a constant under which the surrogate majorizes at the new
point (see :func:`mm_block_update`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .data import make_rng
from .model import (
    BlockVector,
    ProblemSpec,
    smooth_part_and_residual,
    smooth_part_block_grad,
    smooth_part_value,
)

# Backtracking on a Bregman block's constant: each step starts from the
# previously accepted constant times BACKTRACK_DECREASE and multiplies by
# BACKTRACK_GROWTH (capped at the closed-form ceiling) after a failed test.
# It never starts below BACKTRACK_MIN_RATIO times the ceiling, which keeps
# the subproblem well posed where the block's smooth part is flat.
BACKTRACK_DECREASE = 0.9
BACKTRACK_GROWTH = 2.0
BACKTRACK_MIN_RATIO = 1e-12

# Positive lower bound every step's decrease coefficient eta is clamped to.
ETA_FLOOR = 1e-8


class SurrogateError(Exception):
    """A block subproblem could not be set up or solved."""


class SurrogateKind(enum.Enum):
    PROXIMAL = "proximal"
    LIPSCHITZ_GRADIENT = "lipschitz_gradient"
    BREGMAN = "bregman"


@dataclass(frozen=True)
class BregmanKernel:
    """Strongly convex kernel defining a Bregman divergence.

    ``divergence(x, z)``, when given, is a closed form of D(x, z) that
    avoids the cancellation in kernel(x) - kernel(z) - <grad kernel(z), x - z>.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    divergence: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self) -> None:
        if self.strong_convexity <= 0:
            raise ValueError("kernel strong convexity must be positive")


def quadratic_kernel() -> BregmanKernel:
    """Kernel (1/2)||v||^2; its divergence is (1/2)||v - z||^2."""
    return BregmanKernel(
        eval=lambda v: 0.5 * float(v @ v),
        grad=lambda v: np.asarray(v, dtype=np.float64),
        strong_convexity=1.0,
    )


def quartic_kernel() -> BregmanKernel:
    """Kernel (1/4)||v||^4 + (1/2)||v||^2 with gradient (||v||^2 + 1) v."""

    def val(v: np.ndarray) -> float:
        s = float(v @ v)
        return 0.25 * s * s + 0.5 * s

    def grad(v: np.ndarray) -> np.ndarray:
        return (float(v @ v) + 1.0) * v

    def div(x: np.ndarray, z: np.ndarray) -> float:
        # D = <x-z, x+z>^2 / 4 + (||z||^2 + 1) ||x-z||^2 / 2, formed from
        # x - z so that no large terms cancel.
        d = x - z
        t = float(d @ (x + z))
        return 0.25 * t * t + 0.5 * (float(z @ z) + 1.0) * float(d @ d)

    return BregmanKernel(eval=val, grad=grad, strong_convexity=1.0, divergence=div)


def bregman_divergence(kernel: BregmanKernel, x: np.ndarray, z: np.ndarray) -> float:
    """D(x, z) = kernel(x) - kernel(z) - <grad kernel(z), x - z>.

    Uses the kernel's closed form when it has one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if x.shape != z.shape:
        raise ValueError("bregman_divergence: shape mismatch")
    if kernel.divergence is not None:
        return kernel.divergence(x, z)
    return kernel.eval(x) - kernel.eval(z) - float(kernel.grad(z) @ (x - z))


ConstOrCallback = Union[float, Callable[[ProblemSpec, BlockVector, np.ndarray, np.ndarray, float], float]]


@dataclass(frozen=True)
class SurrogateSpec:
    """Per-block surrogate description.

    ``smoothness_const`` is the constant L_i: a number, or a callback
    ``(spec, x, y, w, beta) -> float`` re-evaluated at every outer
    iteration for state-dependent constants.

    ``prev_const`` describes one step and cannot be set at construction;
    :meth:`for_step` returns a copy that carries it.
    """

    kind: SurrogateKind
    kappa: float = 1.1
    smoothness_const: Optional[ConstOrCallback] = None
    kernel: Optional[BregmanKernel] = None
    prev_const: Optional[float] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kappa < 1.0:
            raise ValueError("kappa must be >= 1")
        if self.kind in (SurrogateKind.PROXIMAL, SurrogateKind.BREGMAN) and self.kernel is None:
            raise ValueError(f"{self.kind.value} surrogate requires a kernel")
        if self.kind is not SurrogateKind.PROXIMAL and self.smoothness_const is None:
            raise ValueError(f"{self.kind.value} surrogate requires smoothness_const")

    def for_step(self, prev_const: Optional[float] = None) -> "SurrogateSpec":
        """Copy of this surrogate carrying one step's input.

        ``prev_const`` is the constant this block's previous step accepted
        (a Bregman step starts its search below the ceiling from it).
        """
        # A plain attribute copy: the solver calls this for every block
        # step, and the fields were validated when ``self`` was built.
        step = object.__new__(type(self))
        step.__dict__.update(self.__dict__, prev_const=prev_const)
        return step

    def const_at(
        self,
        spec: ProblemSpec,
        x: BlockVector,
        y: np.ndarray,
        w: np.ndarray,
        beta: float,
    ) -> float:
        if self.kind is SurrogateKind.PROXIMAL:
            return 0.0
        if callable(self.smoothness_const):
            value = float(self.smoothness_const(spec, x, y, w, beta))
        else:
            value = float(self.smoothness_const)
        if not np.isfinite(value) or value <= 0.0:
            raise SurrogateError(f"surrogate constant must be finite positive, got {value}")
        return value


@dataclass(frozen=True)
class BlockSubproblem:
    """Everything a bespoke block solver needs.

    The solver must return a global minimizer of

        g_i(v) + <grad, v - z_i> + coeff * D_kernel(v, z_i)        (linearized kinds)
        g_i(v) + smooth_value(v) + coeff * D_kernel(v, z_i)        (proximal kind)

    ``smooth_value``/``smooth_grad`` are only populated for the proximal
    kind; ``kernel`` is the quadratic kernel when the surrogate is a plain
    quadratic.
    """

    z_i: np.ndarray
    grad: np.ndarray
    coeff: float
    kernel: BregmanKernel
    kind: SurrogateKind
    smooth_value: Optional[Callable[[np.ndarray], float]] = None
    smooth_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class BlockUpdateResult:
    """Outcome of one majorize-minimize block step.

    ``surrogate_grad`` is the gradient of the surrogate's smooth part at
    ``x_new`` (its negative is a subgradient of g_i there); the solver
    stores it to form block stationarity residuals. ``eta`` and
    ``divergence`` feed the sufficient-decrease ledger. ``smoothness`` is
    the constant the step used.
    """

    x_new: np.ndarray
    surrogate_grad: np.ndarray
    eta: float
    divergence: float
    smoothness: float


def mm_block_update(
    i: int,
    surrogate: SurrogateSpec,
    spec: ProblemSpec,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
) -> BlockUpdateResult:
    """Minimize (surrogate for block i) + g_i and report decrease data.

    A Bregman surrogate tries L = BACKTRACK_DECREASE * ``prev_const``
    first (the ceiling itself when there is no previous constant) and
    accepts it when

        smooth(x_new) <= smooth(z) + <grad, x_new - z> + L * D(x_new, z),

    otherwise it grows L by BACKTRACK_GROWTH and solves again. The
    closed-form ceiling is a certified constant and is accepted untested.
    The accepted L sets eta = (kappa - 1) L, so the step keeps the
    sufficient decrease the solver's ledger checks.
    """
    z_i = x.blocks[i]
    g = spec.gs[i]
    kind = surrogate.kind
    L = surrogate.const_at(spec, x, y, w, beta)

    if kind is SurrogateKind.LIPSCHITZ_GRADIENT:
        grad = smooth_part_block_grad(spec, i, x, y, w, beta)
        coeff = surrogate.kappa * L
        if g.prox is not None:
            x_new = np.atleast_1d(g.prox(z_i - grad / coeff, 1.0 / coeff))
        elif g.custom_solver is not None:
            sub = BlockSubproblem(z_i, grad, coeff, quadratic_kernel(), kind)
            x_new = np.atleast_1d(g.custom_solver(sub))
        else:
            raise SurrogateError(f"no prox available for block {i}")
        delta = x_new - z_i
        surrogate_grad = grad + coeff * delta
        eta = max((surrogate.kappa - 1.0) * L, ETA_FLOOR)
        divergence = 0.5 * float(delta @ delta)
        return BlockUpdateResult(x_new, surrogate_grad, eta, divergence, L)

    if kind is SurrogateKind.BREGMAN:
        if g.custom_solver is None:
            raise SurrogateError(f"bregman surrogate for block {i} needs a custom solver")
        kernel = surrogate.kernel
        ceiling = L
        smooth_z = None
        r = None
        if surrogate.prev_const is not None:
            start = BACKTRACK_DECREASE * surrogate.prev_const
            L = min(max(start, BACKTRACK_MIN_RATIO * ceiling), ceiling)
            if L < ceiling:
                # The anchor's value and gradient share one residual.
                smooth_z, r = smooth_part_and_residual(spec, x, y, w, beta)
        grad = smooth_part_block_grad(spec, i, x, y, w, beta, r)
        while True:
            coeff = surrogate.kappa * L
            sub = BlockSubproblem(z_i, grad, coeff, kernel, kind)
            x_new = np.atleast_1d(g.custom_solver(sub))
            divergence = bregman_divergence(kernel, x_new, z_i)
            if L >= ceiling:
                break
            smooth_new = smooth_part_value(spec, x.with_block(i, x_new), y, w, beta)
            if smooth_new <= smooth_z + float(grad @ (x_new - z_i)) + L * divergence:
                break
            L = min(BACKTRACK_GROWTH * L, ceiling)
        surrogate_grad = grad + coeff * (kernel.grad(x_new) - kernel.grad(z_i))
        eta = max((surrogate.kappa - 1.0) * L, ETA_FLOOR)
        return BlockUpdateResult(x_new, surrogate_grad, eta, divergence, L)

    # Proximal kind: the full smooth part plus kappa * D.
    if g.custom_solver is None:
        raise SurrogateError(f"proximal surrogate for block {i} needs a custom solver")
    kernel = surrogate.kernel

    def smooth_value(v: np.ndarray) -> float:
        return smooth_part_value(spec, x.with_block(i, v), y, w, beta)

    def smooth_grad(v: np.ndarray) -> np.ndarray:
        return smooth_part_block_grad(spec, i, x.with_block(i, v), y, w, beta)

    sub = BlockSubproblem(
        z_i,
        smooth_part_block_grad(spec, i, x, y, w, beta),
        surrogate.kappa,
        kernel,
        kind,
        smooth_value=smooth_value,
        smooth_grad=smooth_grad,
    )
    x_new = np.atleast_1d(g.custom_solver(sub))
    surrogate_grad = smooth_grad(x_new) + surrogate.kappa * (
        kernel.grad(x_new) - kernel.grad(z_i)
    )
    eta = max(surrogate.kappa, ETA_FLOOR)
    divergence = bregman_divergence(kernel, x_new, z_i)
    return BlockUpdateResult(x_new, surrogate_grad, eta, divergence, 0.0)


def surrogate_value(
    surrogate: SurrogateSpec,
    spec: ProblemSpec,
    i: int,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    v: np.ndarray,
    smoothness: Optional[float] = None,
) -> float:
    """Value u_i(v, z) of the surrogate anchored at the current iterate.

    ``smoothness`` is the constant L the surrogate uses; it defaults to
    the closed-form constant ``surrogate.const_at``. Pass the constant a
    step accepted (``BlockUpdateResult.smoothness``) to evaluate the
    surrogate that step minimized.
    """
    z_i = x.blocks[i]
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    kind = surrogate.kind
    if kind is SurrogateKind.PROXIMAL:
        return smooth_part_value(spec, x.with_block(i, v), y, w, beta) + (
            surrogate.kappa * bregman_divergence(surrogate.kernel, v, z_i)
        )
    base = smooth_part_value(spec, x, y, w, beta)
    grad = smooth_part_block_grad(spec, i, x, y, w, beta)
    L = surrogate.const_at(spec, x, y, w, beta) if smoothness is None else smoothness
    lin = base + float(grad @ (v - z_i))
    if kind is SurrogateKind.BREGMAN:
        return lin + surrogate.kappa * L * bregman_divergence(surrogate.kernel, v, z_i)
    d = v - z_i
    return lin + 0.5 * surrogate.kappa * L * float(d @ d)


@dataclass
class SurrogateDiagnostics:
    """Report produced by verify_surrogate_conditions (never raises)."""

    majorization_ok: bool
    tangency_ok: bool
    error_bound_ok: bool
    eta: float
    divergence: float
    positive_eta: bool
    strong_convexity_ok: Optional[bool] = None
    violations: list[str] = field(default_factory=list)


def verify_surrogate_conditions(
    surrogate: SurrogateSpec,
    spec: ProblemSpec,
    i: int,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    x_new: np.ndarray,
    n_probes: int = 50,
    probe_scale: float = 1.0,
    seed: int = 0,
    smoothness: Optional[float] = None,
) -> SurrogateDiagnostics:
    """Check majorization, tangency, and the error lower bound at probes.

    Also checks strong convexity of the subproblem objective (the route
    that applies to convex g_i under quadratic-type surrogates) when that
    is the configured situation. Violations are reported, not thrown.

    ``smoothness`` is the constant L under test; it defaults to the
    closed-form constant ``surrogate.const_at``, which is the ceiling of
    a Bregman step's search. A constant that a Bregman step accepted below
    the ceiling (``BlockUpdateResult.smoothness``) is certified at
    ``x_new`` only, not at random probes, so check it with
    ``n_probes=0``.
    """
    rng = make_rng(seed)
    z_i = x.blocks[i]
    tol = 1e-9

    def smooth_at(v: np.ndarray) -> float:
        return smooth_part_value(spec, x.with_block(i, v), y, w, beta)

    def u_at(v: np.ndarray) -> float:
        return surrogate_value(surrogate, spec, i, x, y, w, beta, v, smoothness)

    diag = SurrogateDiagnostics(
        majorization_ok=True,
        tangency_ok=True,
        error_bound_ok=True,
        eta=0.0,
        divergence=0.0,
        positive_eta=True,
    )

    gap_at_z = u_at(z_i) - smooth_at(z_i)
    if abs(gap_at_z) > tol * (1.0 + abs(smooth_at(z_i))):
        diag.tangency_ok = False
        diag.violations.append(f"tangency gap {gap_at_z:.3e} at the anchor")

    probes = [np.asarray(x_new, dtype=np.float64)]
    for _ in range(n_probes):
        probes.append(z_i + probe_scale * rng.standard_normal(z_i.shape))
    for p in probes:
        gap = u_at(p) - smooth_at(p)
        if gap < -tol * (1.0 + abs(smooth_at(p))):
            diag.majorization_ok = False
            diag.violations.append(f"majorization violated by {-gap:.3e}")
            break

    L = surrogate.const_at(spec, x, y, w, beta) if smoothness is None else smoothness
    if surrogate.kind is SurrogateKind.PROXIMAL:
        eta = surrogate.kappa
        kernel = surrogate.kernel
    else:
        eta = (surrogate.kappa - 1.0) * L
        kernel = surrogate.kernel if surrogate.kind is SurrogateKind.BREGMAN else quadratic_kernel()
    diag.eta = eta
    if eta <= 0.0:
        diag.positive_eta = False
        diag.violations.append(
            "eta is zero (kappa == 1 on a non-proximal surrogate); decrease "
            "coefficient will be clamped to ETA_FLOOR"
        )

    x_new = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    D = bregman_divergence(kernel, x_new, z_i)
    diag.divergence = D
    err = u_at(x_new) - smooth_at(x_new)
    if err < eta * D - tol * (1.0 + abs(err)):
        diag.error_bound_ok = False
        diag.violations.append(f"error bound: e={err:.3e} < eta*D={eta * D:.3e}")

    g = spec.gs[i]
    if g.is_convex and surrogate.kind is SurrogateKind.LIPSCHITZ_GRADIENT:
        sigma = surrogate.kappa * L
        ok = True
        for _ in range(20):
            v1 = z_i + probe_scale * rng.standard_normal(z_i.shape)
            v2 = z_i + probe_scale * rng.standard_normal(z_i.shape)
            t = rng.random()
            gv1 = g.eval(v1)
            gv2 = g.eval(v2)
            mid = t * v1 + (1 - t) * v2
            gmid = g.eval(mid)
            if gv1 is None or gv2 is None or gmid is None:
                continue
            lhs = u_at(mid) + gmid
            rhs = (
                t * (u_at(v1) + gv1)
                + (1 - t) * (u_at(v2) + gv2)
                - 0.5 * sigma * t * (1 - t) * float((v1 - v2) @ (v1 - v2))
            )
            if lhs > rhs + tol * (1.0 + abs(rhs)):
                ok = False
                diag.violations.append("subproblem strong convexity probe failed")
                break
        diag.strong_convexity_ok = ok

    return diag
