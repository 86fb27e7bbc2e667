"""Sparse quadratic-classifier logistic regression as a block problem.

Sample ``i`` is scored by ``<a_i, v>^2 + <a_i, u> + c`` with quadratic
weights ``v``, linear weights ``u``, and intercept ``c``; the loss is the
averaged logistic loss of the scores against labels in {-1, +1}, with l1
penalties on both weight vectors. Splitting the scores into an auxiliary
variable ``y`` (constraint: scores - y = 0, so the linear map is -I) puts
this in the solver's composite form with m = 3 blocks. Each block takes
the same majorize-minimize step (see :mod:`madmm.surrogates`), searching
below a closed-form ceiling once its previous step's constant is known:

* block 0 (quadratic weights): quartic kernel, for F_c(x1), the smooth
  part of L_beta with the intercept minimized out. The intercept shifts
  every score by the same amount, so its minimizer is
  x3 - mean(w/beta + r) for the residual r; the step centres the residual
  that way, solves the block subproblem in closed form
  (:func:`l1_quartic_solve`), and moves the intercept to its minimizer at
  the new x1 as part of the same step. The ceiling
  :func:`bregman_constant_x1` bounds F_c's curvature and depends on the
  state; it sums worst-case per-sample caps.
* block 1 (linear weights): quadratic kernel, so the subproblem is the
  soft-threshold prox; ceiling beta * sum_i ||a_i||^2.
* block 2 (intercept): quadratic kernel, ceiling beta * q. The smooth
  part is quadratic in x3 with exactly that curvature, so a step at the
  ceiling minimizes x3 exactly again after x2 has moved, and a try below
  it fails its test unless the step is at rounding level.

The setup from :func:`build_problem` reads the products A^T x1 and A^T x2
from one score state that forms each only when its block changes, so a
solver iteration costs about 5-6 d-by-q products. The public functions
(:func:`phi_eval` and friends) form their products on every call and
share their closed forms with the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset, make_rng
from .model import (
    BlockVector,
    NonlinearMap,
    ProblemSpec,
    SmoothTerm,
    l1_nonsmooth,
    scaled_identity_map,
    soft_threshold,
    zero_nonsmooth,
)
from .surrogates import (
    BlockSubproblem,
    SurrogateSpec,
    quartic_kernel,
)

# Floor keeping the cubic solve well posed on degenerate (all-zero) data.
_CONST_FLOOR = 1e-12


def _scores(u: np.ndarray, s: np.ndarray, x3: float) -> np.ndarray:
    """Scores from the products u = A^T x1 and s = A^T x2."""
    return u * u + s + float(np.asarray(x3).reshape(-1)[0])


def phi_eval(data: Dataset, x1: np.ndarray, x2: np.ndarray, x3: float) -> np.ndarray:
    """Scores of all samples: component i is <a_i,x1>^2 + <a_i,x2> + x3."""
    return _scores(data.A.T @ x1, data.A.T @ x2, x3)


def _jac_block_apply(
    data: Dataset, block: int, u: Optional[np.ndarray], w: np.ndarray
) -> np.ndarray:
    """:func:`phi_jac_block_apply` given u = A^T x1 (read by block 0 only)."""
    if block == 0:
        return 2.0 * (data.A @ (w * u))
    if block == 1:
        return data.A @ w
    if block == 2:
        return np.array([float(w.sum())])
    raise ValueError(f"block must be 0, 1, or 2, got {block}")


def phi_jac_block_apply(
    data: Dataset, block: int, x1: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Adjoint action of the score map's block Jacobian: sum_i w_i grad phi_i.

    Block 0 needs the current quadratic weights; blocks 1 and 2 are linear
    and constant respectively.
    """
    u = data.A.T @ x1 if block == 0 else None
    return _jac_block_apply(data, block, u, w)


def _logistic_value(data: Dataset, y: np.ndarray) -> float:
    return float(np.logaddexp(0.0, -(data.b * y)).sum() / data.q)


def _logistic_grad(data: Dataset, y: np.ndarray) -> np.ndarray:
    # expit(-m) = exp(-logaddexp(0, m)); the exponent is never positive.
    return -(data.b * np.exp(-np.logaddexp(0.0, data.b * y))) / data.q


def logistic_h(data: Dataset, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Averaged logistic loss (1/q) sum log(1 + exp(-b_i y_i)) and its gradient.

    Evaluated through logaddexp (the shifted log1p form), so scores of any
    magnitude neither overflow nor lose the small-loss digits.
    """
    return _logistic_value(data, y), _logistic_grad(data, y)


def logistic_smooth_term(data: Dataset) -> SmoothTerm:
    """The loss as a SmoothTerm; its gradient Lipschitz constant is 1/(4q)."""
    return SmoothTerm(
        eval=lambda y: _logistic_value(data, y),
        grad=lambda y: _logistic_grad(data, y),
        lipschitz_const=1.0 / (4.0 * data.q),
    )


def _bregman_constant(
    na2: np.ndarray, s: np.ndarray, y: np.ndarray, w: np.ndarray, beta: float
) -> float:
    """:func:`bregman_constant_x1` given na2 = ||a_i||^2 and s = A^T x2."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    e = w + beta * (s - y)
    caps = np.maximum(np.abs(e - float(e.sum()) / e.size), 3.0 * beta * na2)
    return max(float(np.sum(2.0 * na2 * caps)), _CONST_FLOOR)


def bregman_constant_x1(
    data: Dataset,
    x2: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
) -> float:
    """Relative-smoothness constant of the quadratic-weights block.

    The block's step majorizes F_c(x1), the smooth part of L_beta with the
    intercept at its minimizer. With e = w - beta y + beta A^T x2 (the
    intercept cancels out of F_c), the constant sums per-sample curvature
    caps 2 ||a_i||^2 max(|e_i - mean(e)|, 3 beta ||a_i||^2). For a
    direction d with t = A^T d and u = A^T x1, F_c's Hessian gives
    2 sum t_i^2 [P(e + beta u^2)]_i + 4 beta (u t)^T P (u t) with
    P = I - 11^T/q, at most sum t_i^2 (2 |e_i - mean(e)| + 6 beta u_i^2);
    the quartic kernel's Hessian dominates that at this scale for every
    block value.
    """
    return _bregman_constant(data.column_norms**2, data.A.T @ x2, y, w, beta)


def _fitting(
    data: Dataset,
    u: np.ndarray,
    s: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    x3: float,
    lam1: float,
    lam2: float,
) -> float:
    """:func:`fitting_error` given u = A^T x1 and s = A^T x2."""
    value = _logistic_value(data, _scores(u, s, x3))
    return value + lam1 * float(np.abs(x1).sum()) + lam2 * float(np.abs(x2).sum())


class _Product:
    """A^T v for the last block v it was asked about.

    The key is that block array itself, compared by identity: an O(1)
    test against an O(dq) product. It is sound because blocks are
    read-only (see :class:`madmm.model.BlockVector`): an array seen before
    still holds the values its product was formed from, and holding it
    keeps its id from being reused. A step that leaves a block alone
    shares its array, so the product is not formed again.
    """

    __slots__ = ("data", "key", "value")

    def __init__(self, data: Dataset):
        self.data = data
        self.key = None
        self.value = np.empty(0)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if v is not self.key:
            self.value = self.data.A.T @ v
            # Every caller gets this same array; none may write to it.
            self.value.setflags(write=False)
            self.key = v
        return self.value


class _ScoreState:
    """The score products of the iterate the solver is at.

    Holds u = A^T x1, s = A^T x2 (each formed once per change of its
    block) and the squared column norms na2; the score map, its block
    Jacobians, block 0's constant and the fitting error all read from it
    through the same closed forms as the public functions.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.u = _Product(data)
        self.s = _Product(data)
        self.na2 = data.column_norms**2

    def phi(self, x: BlockVector) -> np.ndarray:
        return _scores(self.u(x.blocks[0]), self.s(x.blocks[1]), x.blocks[2][0])

    def jac(self, i: int, x: BlockVector, w: np.ndarray) -> np.ndarray:
        return _jac_block_apply(self.data, i, self.u(x.blocks[0]) if i == 0 else None, w)

    def const_block0(self, spec, x, y, w, beta) -> float:
        return _bregman_constant(self.na2, self.s(x.blocks[1]), y, w, beta)

    def fitting(self, x: BlockVector, lam1: float, lam2: float) -> float:
        x1, x2 = x.blocks[0], x.blocks[1]
        return _fitting(self.data, self.u(x1), self.s(x2), x1, x2, x.blocks[2][0], lam1, lam2)

    def phi_map(self) -> NonlinearMap:
        """Score map packaged with its block Jacobian actions."""
        return NonlinearMap(eval=self.phi, jac_block_apply=self.jac, out_dim=self.data.q)


def l1_quartic_solve(c_lin: np.ndarray, lam: float, ell: float) -> np.ndarray:
    """Exact minimizer of lam ||v||_1 + <c_lin, v> + ell (||v||^4/4 + ||v||^2/2).

    Soft-thresholding the linear term fixes the direction; the magnitude
    solves the scalar cubic ell (t^3 + t) = ||soft(c_lin, lam)||, which has
    a single nonnegative root given in closed form by the depressed-cubic
    radical formula (cube roots take the real branch on negative
    arguments).
    """
    if ell <= 0:
        raise ValueError("quartic coefficient must be positive")
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    direction = -soft_threshold(np.asarray(c_lin, dtype=np.float64), lam)
    mag = float(np.linalg.norm(direction))
    if mag == 0.0:
        return np.zeros_like(direction)
    half = mag / (2.0 * ell)
    root = np.sqrt(1.0 / 27.0 + half * half)
    t_star = float(np.cbrt(half + root) + np.cbrt(half - root))
    return (t_star / mag) * direction


def fitting_error(
    data: Dataset,
    x1: np.ndarray,
    x2: np.ndarray,
    x3: float,
    lam1: float,
    lam2: float,
) -> float:
    """Penalized loss of the classifier itself (no splitting variable)."""
    return _fitting(data, data.A.T @ x1, data.A.T @ x2, x1, x2, x3, lam1, lam2)


def default_beta(q: int) -> float:
    """Penalty weight 2.5/q; ten times the loss curvature bound 1/(4q)."""
    return 2.5 / q


@dataclass(frozen=True)
class LogisticSetup:
    """Problem bundle ready for the block solver."""

    data: Dataset
    spec: ProblemSpec
    surrogates: tuple[SurrogateSpec, ...]
    lam1: float
    lam2: float
    kappa1: float
    scores: _ScoreState = field(repr=False, compare=False)

    def fitting(self, x: BlockVector) -> float:
        return self.scores.fitting(x, self.lam1, self.lam2)


def build_problem(
    data: Dataset, lam1: float, lam2: float, kappa1: float = 1.1
) -> LogisticSetup:
    """Assemble the ProblemSpec and per-block surrogates for a dataset.

    Surrogate constants are supplied as callbacks of the runtime penalty
    weight, so one setup serves any solver configuration.
    """
    if not (0.0 <= lam1 < np.inf and 0.0 <= lam2 < np.inf):
        raise ValueError(f"l1 weights must be finite and nonnegative, got {lam1} and {lam2}")
    if not 1.0 <= kappa1 < np.inf:
        raise ValueError(f"kappa1 must be finite and >= 1, got {kappa1}")
    q = data.q
    scores = _ScoreState(data)
    col_sq_sum = float(np.sum(scores.na2))

    def solve_block0(sub: BlockSubproblem) -> np.ndarray:
        c_lin = sub.grad - sub.coeff * sub.kernel.grad(sub.z_i)
        return l1_quartic_solve(c_lin, lam1, sub.coeff)

    gs = (
        l1_nonsmooth(lam1, custom_solver=solve_block0),
        l1_nonsmooth(lam2),
        zero_nonsmooth(),
    )
    spec = ProblemSpec(
        m=3,
        gs=gs,
        h=logistic_smooth_term(data),
        phi=scores.phi_map(),
        B=scaled_identity_map(-1.0, q),
        lower_bound_hint=0.0,
    )
    surrogates = (
        SurrogateSpec(
            kappa=kappa1,
            smoothness_const=scores.const_block0,
            kernel=quartic_kernel(),
            minimize_out=2,
        ),
        SurrogateSpec(kappa=1.0, smoothness_const=lambda spec, x, y, w, beta: beta * col_sq_sum),
        SurrogateSpec(kappa=1.0, smoothness_const=lambda spec, x, y, w, beta: beta * q),
    )
    return LogisticSetup(
        data=data,
        spec=spec,
        surrogates=surrogates,
        lam1=lam1,
        lam2=lam2,
        kappa1=kappa1,
        scores=scores,
    )


def initial_state(
    data: Dataset, seed: int
) -> tuple[BlockVector, np.ndarray, np.ndarray]:
    """Seeded start: weights, intercept, and splitting variable uniform on
    [0, 1) (drawn in that order), multiplier zero."""
    rng = make_rng(seed)
    x1 = rng.random(data.d)
    x2 = rng.random(data.d)
    x3 = rng.random(1)
    y = rng.random(data.q)
    w = np.zeros(data.q)
    return BlockVector([x1, x2, x3]), y, w
