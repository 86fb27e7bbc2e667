"""Block surrogate functions and the majorize-minimize block update.

A surrogate for block ``i`` majorizes the smooth-in-x part of the augmented
Lagrangian as a function of that block, touching it at the current iterate.
Every block uses one family, the Bregman surrogate

    u(v) = smooth(z) + <grad, v - z_i> + kappa*L*D(v, z_i)

where D is the Bregman divergence of the surrogate's kernel and L a
relative-smoothness constant for the kernel's geometry. The default
kernel is the quadratic one, D(v, z) = (1/2)||v - z||^2, under which L is
a gradient Lipschitz bound and the subproblem is the block's prox. The
approximation error u - smooth admits the lower bound eta * D with
eta = (kappa - 1) * L, which is what the solver's sufficient-decrease
accounting consumes.

Each step backtracks on L once a previous step's constant is known: the
closed-form constant is then a ceiling, and the step searches below it
for a constant under which the surrogate majorizes at the new point.
Every try solves the subproblem and forms the iterate it would return;
the step ends on the first try that passes the test, reaches the
ceiling (certified, so untested) or does not move the block (a null
step, which returns the input iterate). See :func:`mm_block_update`.

A surrogate may also minimize out a second block j, an intercept that
shifts every component of phi by its value (partial minimization, or
variable projection). Its step then majorizes the smooth part with block
j at its exact minimizer, F_c(v) = min over x_j, and its next iterate
carries block j's minimizer at the new point along with the new block.
The merged surrogate F(v, x_j) - F_c(v) + M(v), with M the Bregman
majorizer of F_c, majorizes the smooth part in both blocks and touches
it at the anchor, so the error bound eta * D in block i still holds for
the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import model
from .model import BlockVector, ProblemSpec, smooth_part_block_grad, smooth_part_value

# Backtracking on a block's constant: each step starts from the
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


@dataclass(frozen=True)
class BregmanKernel:
    """Strongly convex kernel defining a Bregman divergence.

    ``divergence(x, z)`` is a closed form of D(x, z) that avoids the
    cancellation in kernel(x) - kernel(z) - <grad kernel(z), x - z>.
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray, np.ndarray], float]


def _half_squared_distance(x: np.ndarray, z: np.ndarray) -> float:
    d = x - z
    return 0.5 * float(d @ d)


_QUADRATIC_KERNEL = BregmanKernel(
    eval=lambda v: 0.5 * float(v @ v),
    grad=lambda v: np.asarray(v, dtype=np.float64),
    divergence=_half_squared_distance,
)


def quadratic_kernel() -> BregmanKernel:
    """Kernel (1/2)||v||^2; its divergence is (1/2)||v - z||^2.

    Always the same object: a step under it may solve its subproblem with
    the block's prox.
    """
    return _QUADRATIC_KERNEL


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

    return BregmanKernel(eval=val, grad=grad, divergence=div)


def bregman_divergence(kernel: BregmanKernel, x: np.ndarray, z: np.ndarray) -> float:
    """D(x, z) = kernel(x) - kernel(z) - <grad kernel(z), x - z>, in the kernel's closed form."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if x.shape != z.shape:
        raise ValueError("bregman_divergence: shape mismatch")
    return kernel.divergence(x, z)


ConstOrCallback = Union[float, Callable[[ProblemSpec, BlockVector, np.ndarray, np.ndarray, float], float]]


@dataclass(frozen=True)
class SurrogateSpec:
    """Per-block surrogate description.

    ``smoothness_const`` is the constant L_i: a number, or a callback
    ``(spec, x, y, w, beta) -> float`` re-evaluated at every outer
    iteration for state-dependent constants.

    ``kernel`` defaults to the quadratic kernel, whose subproblem the
    block's prox solves; any other kernel needs the block's
    ``custom_solver``.

    ``minimize_out`` names a block j that the step minimizes out (see the
    module docstring). Block j must be a scalar added to every component
    of phi with nothing else depending on it, g_j must be zero, and the
    problem may have no coupling term f; its smoothness constant must
    bound the curvature of the smooth part with block j minimized out.

    ``prev_const`` describes one step and cannot be set at construction;
    :meth:`for_step` returns a copy that carries it.
    """

    smoothness_const: ConstOrCallback
    kappa: float = 1.1
    kernel: BregmanKernel = _QUADRATIC_KERNEL
    minimize_out: Optional[int] = None
    prev_const: Optional[float] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1.0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.minimize_out is not None and self.minimize_out < 0:
            raise ValueError(f"minimize_out must be a block index, got {self.minimize_out}")

    def for_step(self, prev_const: Optional[float] = None) -> "SurrogateSpec":
        """Copy of this surrogate carrying one step's input.

        ``prev_const`` is the constant this block's previous step accepted
        (the step starts its search below the ceiling from it).
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

        g_i(v) + <grad, v - z_i> + coeff * D_kernel(v, z_i).
    """

    z_i: np.ndarray
    grad: np.ndarray
    coeff: float
    kernel: BregmanKernel


@dataclass(frozen=True)
class BlockUpdateResult:
    """Outcome of one majorize-minimize block step.

    ``surrogate_grad`` is the gradient of the surrogate's smooth part at
    ``x_new`` (its negative is a subgradient of g_i there); the solver
    stores it to form block stationarity residuals. ``eta`` and
    ``divergence`` feed the sufficient-decrease ledger. ``smoothness`` is
    the constant the step used. ``x`` is the next iterate: block i set to
    ``x_new`` and, when the surrogate minimizes out a block
    (``SurrogateSpec.minimize_out``), that block set to its minimizer; every
    other block is the input's own array. A null step (``divergence`` of
    zero) returns the input iterate itself, with only the minimized-out
    block replaced.
    """

    x_new: np.ndarray
    surrogate_grad: np.ndarray
    eta: float
    divergence: float
    smoothness: float
    x: BlockVector


def _check_minimize_out(i: int, out: int, spec: ProblemSpec) -> None:
    if out == i:
        raise SurrogateError(f"block {i} cannot minimize itself out")
    if out >= spec.m:
        raise SurrogateError(f"block {i} minimizes out block {out}, but there are {spec.m} blocks")
    if spec.smooth_f is not None:
        raise SurrogateError(f"block {i} minimizes out block {out}, but the problem has a coupling term f")


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

    The step tries L = BACKTRACK_DECREASE * ``prev_const`` first (the
    ceiling itself when there is no previous constant), accepts it when

        smooth(x_new) <= smooth(z) + <grad, x_new - z> + L * D(x_new, z),

    and otherwise grows L by BACKTRACK_GROWTH and solves again. The
    closed-form ceiling is certified and accepted untested. A null step,
    one with D(x_new, z) = 0, returns the input iterate and keeps
    ``prev_const`` (within the floor and the ceiling). The accepted L sets
    eta = (kappa - 1) L. The subproblem goes to the block's
    ``custom_solver`` when it has one, and otherwise, under the quadratic
    kernel, to its prox. With ``surrogate.minimize_out`` set, smooth is
    F_c (block ``out`` at its minimizer), and block ``out`` moves to its
    minimizer at the returned iterate.
    """
    z_i = x.blocks[i]
    g = spec.gs[i]
    kernel = surrogate.kernel
    solver = g.custom_solver
    if solver is None and (g.prox is None or kernel is not _QUADRATIC_KERNEL):
        raise SurrogateError(f"block {i} needs a custom solver, or a prox under the quadratic kernel")
    out = surrogate.minimize_out
    if out is not None:
        _check_minimize_out(i, out, spec)

    def residual(v: BlockVector) -> tuple[np.ndarray, float]:
        # phi(v) + B y and block ``out``'s shift (0 without one).
        if out is None:
            return model.eval_feasibility(spec, v, y), 0.0
        return model.shift_minimized_residual(spec, v, y, w, beta)

    prev = surrogate.prev_const
    ceiling = L = surrogate.const_at(spec, x, y, w, beta)
    if prev is not None:
        L = min(max(BACKTRACK_DECREASE * prev, BACKTRACK_MIN_RATIO * ceiling), ceiling)
    r_z, shift_z = residual(x)
    smooth_z = smooth_part_value(spec, x, y, w, beta, r_z)
    grad = smooth_part_block_grad(spec, i, x, y, w, beta, r_z)
    while True:
        coeff = surrogate.kappa * L
        if solver is None:
            x_new = g.prox(z_i - grad / coeff, 1.0 / coeff)
        else:
            x_new = solver(BlockSubproblem(z_i, grad, coeff, kernel))
        x_new = np.atleast_1d(x_new)
        divergence = bregman_divergence(kernel, x_new, z_i)
        if divergence == 0.0:
            # The step says nothing about the curvature: keep the
            # previous constant rather than decay it.
            if prev is not None:
                L = min(max(prev, L), ceiling)
            x_next, shift = x, shift_z
            break
        x_next = x.with_block(i, x_new)
        tested = L < ceiling
        if tested or out is not None:
            r, shift = residual(x_next)
        if not tested:
            break
        bound = smooth_z + float(grad @ (x_new - z_i)) + L * divergence
        if smooth_part_value(spec, x_next, y, w, beta, r) <= bound:
            break
        L = min(BACKTRACK_GROWTH * L, ceiling)
    if out is not None:
        x_next = x_next.with_block(out, x.blocks[out] + shift)
    surrogate_grad = grad + coeff * (kernel.grad(x_new) - kernel.grad(z_i))
    eta = max((surrogate.kappa - 1.0) * L, ETA_FLOOR)
    return BlockUpdateResult(x_next.blocks[i], surrogate_grad, eta, divergence, L, x_next)
