"""Problem representation: block variables, maps, terms, augmented Lagrangian.

A composite problem

    min over (x, y) of  f(x) + sum_i g_i(x_i) + h(y)
    subject to          phi(x) + B y = 0

is described by a :class:`ProblemSpec`. ``x`` is split into ``m`` blocks,
``phi`` is a smooth nonlinear map with block Jacobian actions, ``B`` is a
linear map with known spectral constants, ``h`` has an L_h-Lipschitz
gradient, and each ``g_i`` is proper lower semicontinuous.

The augmented Lagrangian with penalty ``beta`` is

    L_beta(x, y, w) = f(x) + sum_i g_i(x_i) + h(y)
                      + <w, phi(x) + B y> + (beta/2) ||phi(x) + B y||^2.

Its smooth-in-x part (everything except the g_i and h terms) is what block
surrogates majorize; helpers for its value and block gradients live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class DomainError(Exception):
    """An iterate left the domain of a nonsmooth term (g_i infinite)."""


def _frozen(block) -> np.ndarray:
    """``block`` as a read-only 1-d float array that no one else can write.

    An array that owns its data and is already read-only is kept as is;
    anything else is copied once and the copy frozen, so a caller's array
    is never frozen in place.
    """
    b = np.atleast_1d(np.asarray(block, dtype=np.float64))
    if b.flags.owndata and not b.flags.writeable:
        return b
    b = b.copy()
    b.flags.writeable = False
    return b


class BlockVector:
    """Primal variable split into blocks (read-only 1-d float arrays).

    Blocks are never written: a step makes a new BlockVector with
    :meth:`with_block`, which shares the untouched blocks by identity. So
    an array seen as a block keeps its values for as long as it lives,
    and a cache may key on the array itself.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.blocks = tuple(_frozen(b) for b in blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def with_block(self, i: int, new_block: np.ndarray) -> "BlockVector":
        blocks = list(self.blocks)
        blocks[i] = new_block
        return BlockVector(blocks)

    def concat(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self.blocks])

    def diff_norm(self, other: "BlockVector") -> float:
        """Euclidean norm of the concatenated difference."""
        s = 0.0
        for a, b in zip(self.blocks, other.blocks):
            d = a - b
            s += float(d @ d)
        return float(np.sqrt(s))

    def __repr__(self) -> str:  # pragma: no cover
        dims = ", ".join(str(b.size) for b in self.blocks)
        return f"BlockVector(m={self.m}, dims=[{dims}])"


@dataclass(frozen=True)
class LinearMap:
    """Linear map B : R^q -> R^s with adjoint and spectral constants.

    ``lambda_min_BtB`` is the smallest eigenvalue of B*B (q by q) and
    ``sigma_B`` the smallest eigenvalue of BB* (s by s); the solver's
    parameter condition and Lyapunov coefficients consume them. ``scale``
    is set when the map is a scalar multiple of the identity, enabling
    closed-form linear solves.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lambda_min_BtB: float
    sigma_B: float
    scale: Optional[float] = None


def scaled_identity_map(scale: float, dim: int) -> LinearMap:
    """B = scale * I on R^dim, with exact spectral constants."""
    s2 = scale * scale

    def apply(v: np.ndarray) -> np.ndarray:
        return scale * v

    return LinearMap(
        apply=apply,
        adjoint_apply=apply,
        in_dim=dim,
        out_dim=dim,
        lambda_min_BtB=s2,
        sigma_B=s2,
        scale=scale,
    )


def dense_map(matrix: np.ndarray) -> LinearMap:
    """Wrap an explicit s-by-q matrix; constants from its singular values."""
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("dense_map expects a 2-d matrix")
    s, q = M.shape
    sv = np.linalg.svd(M, compute_uv=False)
    smin = float(sv[-1]) if sv.size else 0.0
    # The rank cannot exceed min(s, q): the q-by-q Gram matrix has zero
    # eigenvalues when q > s, and the s-by-s one when s > q.
    lam_min_BtB = smin * smin if q <= s else 0.0
    sigma_B = smin * smin if s <= q else 0.0
    return LinearMap(
        apply=lambda v: M @ v,
        adjoint_apply=lambda v: M.T @ v,
        in_dim=q,
        out_dim=s,
        lambda_min_BtB=lam_min_BtB,
        sigma_B=sigma_B,
    )


@dataclass(frozen=True)
class NonlinearMap:
    """Smooth map phi : R^n -> R^s with block Jacobian actions.

    ``jac_block_apply(i, x, w)`` returns the action of the transposed
    block Jacobian, sum_j w_j * grad_{x_i} phi_j(x), an R^{n_i} vector.
    """

    eval: Callable[[BlockVector], np.ndarray]
    jac_block_apply: Callable[[int, BlockVector, np.ndarray], np.ndarray]
    out_dim: int


@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable term with an L-Lipschitz gradient (e.g. h)."""

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz_const: float


@dataclass(frozen=True)
class BlockSmoothTerm:
    """Smooth coupling term f over the whole block vector (often zero)."""

    eval: Callable[[BlockVector], float]
    block_grad: Callable[[int, BlockVector], np.ndarray]


@dataclass(frozen=True)
class BlockNonsmooth:
    """Proper lsc block term g_i.

    ``eval`` returns None to signal +infinity (iterate outside the domain);
    arithmetic never sees floating-point infinities. ``prox`` solves
    argmin_u g_i(u) + (1/(2t)) ||u - v||^2, the block subproblem under the
    quadratic kernel; ``custom_solver`` solves the subproblem under any
    kernel and takes precedence (see surrogates module); ``is_convex``
    gates the convexity-based diagnostics.
    """

    eval: Callable[[np.ndarray], Optional[float]]
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    custom_solver: Optional[Callable[..., np.ndarray]] = None
    is_convex: Optional[bool] = None


def zero_nonsmooth() -> BlockNonsmooth:
    """g_i identically zero (prox is the identity)."""
    return BlockNonsmooth(
        eval=lambda v: 0.0,
        prox=lambda v, t: np.asarray(v, dtype=np.float64),
        is_convex=True,
    )


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise shrinkage: sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def l1_nonsmooth(lam: float, custom_solver=None) -> BlockNonsmooth:
    """g_i = lam * ||.||_1 with its exact prox."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"l1 weight must be finite and nonnegative, got {lam}")
    return BlockNonsmooth(
        eval=lambda v: lam * float(np.abs(v).sum()),
        prox=lambda v, t: soft_threshold(v, lam * t),
        custom_solver=custom_solver,
        is_convex=True,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one composite problem instance."""

    m: int
    gs: Sequence[BlockNonsmooth]
    h: SmoothTerm
    phi: NonlinearMap
    B: LinearMap
    smooth_f: Optional[BlockSmoothTerm] = None
    lower_bound_hint: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.gs) != self.m:
            raise ValueError(f"expected {self.m} nonsmooth terms, got {len(self.gs)}")
        if self.phi.out_dim != self.B.out_dim:
            raise ValueError(
                f"phi maps into R^{self.phi.out_dim} but B maps into R^{self.B.out_dim}"
            )


def eval_feasibility(spec: ProblemSpec, x: BlockVector, y: np.ndarray) -> np.ndarray:
    """Constraint residual r = phi(x) + B y; ||r|| is the feasibility gap."""
    return spec.phi.eval(x) + spec.B.apply(y)


def smooth_part_value(
    spec: ProblemSpec,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    r: Optional[np.ndarray] = None,
) -> float:
    """Value of the smooth-in-x part of L_beta (excludes g_i and h).

    ``r`` is the constraint residual phi(x) + B y when the caller has it.
    """
    if r is None:
        r = eval_feasibility(spec, x, y)
    val = float(w @ r) + 0.5 * beta * float(r @ r)
    if spec.smooth_f is not None:
        val += spec.smooth_f.eval(x)
    return val


def shift_minimized_residual(
    spec: ProblemSpec, x: BlockVector, y: np.ndarray, w: np.ndarray, beta: float
) -> tuple[np.ndarray, float]:
    """Residual phi(x) + B y after its common shift is chosen optimally.

    A block that enters phi as one scalar added to every component (an
    intercept) moves the residual r to r + t 1. The shift minimizing the
    smooth part <w, r> + (beta/2)||r||^2 is t = -(sum(w)/beta + sum(r))/s,
    taken from sums. Returns (r + t 1, t); the block's minimizer is its
    current value plus t.
    """
    r = eval_feasibility(spec, x, y)
    shift = -(float(w.sum()) / beta + float(r.sum())) / r.size
    return r + shift, shift


def smooth_part_block_grad(
    spec: ProblemSpec,
    i: int,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    r: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the smooth-in-x part of L_beta with respect to block i.

    ``r`` is the constraint residual phi(x) + B y when the caller has it.
    """
    if r is None:
        r = eval_feasibility(spec, x, y)
    g = spec.phi.jac_block_apply(i, x, w + beta * r)
    if spec.smooth_f is not None:
        g = g + spec.smooth_f.block_grad(i, x)
    return np.atleast_1d(np.asarray(g, dtype=np.float64))


def eval_augmented_lagrangian(
    spec: ProblemSpec,
    x: BlockVector,
    y: np.ndarray,
    w: np.ndarray,
    beta: float,
    r: Optional[np.ndarray] = None,
) -> float:
    """L_beta(x, y, w); raises DomainError when some g_i(x_i) is infinite.

    ``r`` is the constraint residual phi(x) + B y when the caller has it.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    nonsmooth = 0.0
    for i, g in enumerate(spec.gs):
        gv = g.eval(x.blocks[i])
        if gv is None:
            raise DomainError(f"iterate outside domain: g_{i} is infinite")
        nonsmooth += gv
    return smooth_part_value(spec, x, y, w, beta, r) + spec.h.eval(y) + nonsmooth
