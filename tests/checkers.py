"""Checkers the unit tests share: surrogate probes, trace equality, adjoints.

Nothing in the solver, the CLI or the benchmark calls these; they test
the library's claims from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from madmm.data import DataError, Dataset, _remap_labels, make_rng
from madmm.model import (
    BlockVector,
    LinearMap,
    ProblemSpec,
    shift_minimized_residual,
    smooth_part_block_grad,
    smooth_part_value,
)
from madmm.surrogates import SurrogateSpec, bregman_divergence, quadratic_kernel
from madmm.trace import TraceRecord


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
    r = None
    if surrogate.minimize_out is not None:
        r, _ = shift_minimized_residual(spec, x, y, w, beta)
    base = smooth_part_value(spec, x, y, w, beta, r)
    grad = smooth_part_block_grad(spec, i, x, y, w, beta, r)
    L = surrogate.const_at(spec, x, y, w, beta) if smoothness is None else smoothness
    lin = base + float(grad @ (v - z_i))
    return lin + surrogate.kappa * L * bregman_divergence(surrogate.kernel, v, z_i)


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
    that applies to convex g_i under the quadratic kernel) when that is
    the configured situation. Violations are reported, not thrown.

    ``smoothness`` is the constant L under test; it defaults to the
    closed-form constant ``surrogate.const_at``, which is the ceiling of
    a step's search. A constant that a step accepted below
    the ceiling (``BlockUpdateResult.smoothness``) is certified at
    ``x_new`` only, not at random probes, so check it with
    ``n_probes=0``.
    """
    rng = make_rng(seed)
    z_i = x.blocks[i]
    tol = 1e-9

    def smooth_at(v: np.ndarray) -> float:
        # The function of block i the surrogate majorizes: with a block
        # minimized out, that block sits at its minimizer for each v.
        xv = x.with_block(i, v)
        r = None
        if surrogate.minimize_out is not None:
            r, _ = shift_minimized_residual(spec, xv, y, w, beta)
        return smooth_part_value(spec, xv, y, w, beta, r)

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
    eta = (surrogate.kappa - 1.0) * L
    diag.eta = eta
    if eta <= 0.0:
        diag.positive_eta = False
        diag.violations.append(
            "eta is zero (kappa == 1); decrease coefficient will be clamped to ETA_FLOOR"
        )

    x_new = np.atleast_1d(np.asarray(x_new, dtype=np.float64))
    D = bregman_divergence(surrogate.kernel, x_new, z_i)
    diag.divergence = D
    err = u_at(x_new) - smooth_at(x_new)
    if err < eta * D - tol * (1.0 + abs(err)):
        diag.error_bound_ok = False
        diag.violations.append(f"error bound: e={err:.3e} < eta*D={eta * D:.3e}")

    g = spec.gs[i]
    if g.is_convex and surrogate.kernel is quadratic_kernel():
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


def records_equal_ignoring_time(a: Sequence[TraceRecord], b: Sequence[TraceRecord]) -> bool:
    """Exact equality of two traces except for the wall-clock column."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.solver != rb.solver or ra.k != rb.k:
            return False
        fa = ra.row()
        fb = rb.row()
        # Column 2 is t_sec; everything else must match byte for byte.
        if fa[:2] != fb[:2] or fa[3:] != fb[3:]:
            return False
    return True


def check_adjoint(B: LinearMap, trials: int = 100, seed: int = 0) -> bool:
    """Randomized check that <Bu, v> == <u, B*v> within 1e-10 slack."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = make_rng(seed)
    for _ in range(trials):
        u = rng.standard_normal(B.in_dim)
        v = rng.standard_normal(B.out_dim)
        lhs = float(B.apply(u) @ v)
        rhs = float(u @ B.adjoint_apply(v))
        if abs(lhs - rhs) > 1e-10 * (1.0 + np.linalg.norm(u) * np.linalg.norm(v)):
            return False
    return True


def reference_libsvm_parse(source: str | IO[str] | Iterable[str]) -> Dataset:
    """Per-entry LIBSVM reader: the oracle ``libsvm_parse`` is checked against.

    One ``(index, value)`` tuple per entry and one ``int()``/``float()``
    call per token, checked token by token in reading order. Slow and
    memory-hungry, but each step is plain to read.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\r\n") for line in source]

    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    d = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise DataError(f"line {lineno}: cannot parse label {parts[0]!r}") from None
        entries: list[tuple[int, float]] = []
        prev_idx = 0
        for token in parts[1:]:
            idx_s, _, val_s = token.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: malformed entry {token!r}") from None
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx <= prev_idx:
                raise DataError(
                    f"line {lineno}: feature indices not strictly increasing at {token!r}"
                )
            prev_idx = idx
            entries.append((idx, val))
            d = max(d, idx)
        labels.append(label)
        rows.append(entries)

    if not rows:
        raise DataError("empty dataset: no samples found")
    A = np.zeros((d, len(rows)))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            A[idx - 1, i] = val
    return Dataset(A, _remap_labels(np.asarray(labels, dtype=np.float64)))
