import math

import numpy as np
import pytest

from madmm.data import make_rng
from madmm.model import (
    BlockNonsmooth,
    BlockSmoothTerm,
    BlockVector,
    DomainError,
    NonlinearMap,
    ProblemSpec,
    SmoothTerm,
    dense_map,
    eval_feasibility,
    scaled_identity_map,
    smooth_part_value,
    zero_nonsmooth,
)
from madmm.solver import (
    DIAGNOSTICS_LEVELS,
    Residuals,
    SolverConfig,
    SolverError,
    check_beta_condition,
    compute_residuals,
    dual_update,
    lyapunov_coeff,
    lyapunov_value,
    run,
    y_update,
)
from madmm.surrogates import SurrogateSpec


def _identity_phi(n):
    return NonlinearMap(
        eval=lambda x: x.blocks[0].copy(),
        jac_block_apply=lambda i, x, w: np.asarray(w, dtype=np.float64),
        out_dim=n,
    )


def _quadratic_h(lh=1.0):
    return SmoothTerm(
        eval=lambda y: 0.5 * lh * float(y @ y),
        grad=lambda y: lh * y,
        lipschitz_const=lh,
    )


def _consensus_quadratic(n, f_curv=1.0):
    """min (f_curv/2)||x||^2 + (1/2)||y||^2  s.t.  x - y = 0."""
    f = BlockSmoothTerm(
        eval=lambda x: 0.5 * f_curv * float(x.blocks[0] @ x.blocks[0]),
        block_grad=lambda i, x: f_curv * x.blocks[i],
    )
    return ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=_quadratic_h(),
        phi=_identity_phi(n),
        B=scaled_identity_map(-1.0, n),
        smooth_f=f,
        lower_bound_hint=0.0 if f_curv > 0 else None,
    )


def _lg_surrogate(L, kappa=1.1):
    return SurrogateSpec(kappa=kappa, smoothness_const=L)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, delta_tilde=1.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, max_outer_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, stop_epsilon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, trace_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, diagnostics_level="everything")
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0, wall_clock_budget=-1.0)
    for name in ("beta", "delta_tilde", "wall_clock_budget", "stop_epsilon"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{"beta": 1.0, name: bad})
    assert SolverConfig(beta=1.0, wall_clock_budget=0.0).wall_clock_budget == 0.0


def test_check_beta_condition_worked_example():
    # L_h = 0.25, identity-like B, delta_tilde = 2:
    # rhs = 6 * 0.0625 * 13 = 4.875; beta = 2.5 gives lhs = 2.5 * 2.75 = 6.875.
    spec = ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=_quadratic_h(0.25),
        phi=_identity_phi(4),
        B=scaled_identity_map(-1.0, 4),
    )
    ok, lhs, rhs = check_beta_condition(spec, 2.5, 2.0)
    assert ok
    assert lhs == pytest.approx(6.875)
    assert rhs == pytest.approx(4.875)
    ok1, lhs1, rhs1 = check_beta_condition(spec, 1.0, 2.0)
    assert not ok1
    assert lhs1 == pytest.approx(1.25)
    assert rhs1 == pytest.approx(4.875)


def test_check_beta_condition_zero_curvature_h():
    spec = ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=SmoothTerm(eval=lambda y: 0.0, grad=lambda y: np.zeros_like(y), lipschitz_const=0.0),
        phi=_identity_phi(2),
        B=scaled_identity_map(-1.0, 2),
    )
    ok, _, rhs = check_beta_condition(spec, 1e-3, 1.5)
    assert ok and rhs == 0.0


def test_check_beta_condition_singular_bbstar():
    tall = dense_map(make_rng(0).standard_normal((5, 3)))  # BB* singular
    spec = ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=_quadratic_h(),
        phi=NonlinearMap(
            eval=lambda x: np.zeros(5),
            jac_block_apply=lambda i, x, w: np.zeros(3),
            out_dim=5,
        ),
        B=tall,
    )
    ok, _, rhs = check_beta_condition(spec, 100.0, 1.5)
    assert not ok and rhs == math.inf


def test_y_update_worked_example_scalar_path():
    # One-dimensional case: L_h = 0.25, grad h(0) = -0.5, beta = 2.5,
    # B = -I, w = 0, phi(x+) = 1. The linear solve is
    # (2.5 + 0.25) y+ = 0 + 0.5 + 2.5, so y+ = 3 / 2.75.
    h = SmoothTerm(
        eval=lambda y: float(-0.5 * y[0] + 0.125 * y[0] ** 2),
        grad=lambda y: -0.5 + 0.25 * y,
        lipschitz_const=0.25,
    )
    spec = ProblemSpec(
        m=1, gs=[zero_nonsmooth()], h=h, phi=_identity_phi(1), B=scaled_identity_map(-1.0, 1)
    )
    y_new, resid, rhs_norm = y_update(spec, np.array([1.0]), np.zeros(1), np.zeros(1), 2.5)
    np.testing.assert_allclose(y_new, [3.0 / 2.75], rtol=1e-15)
    assert y_new[0] == pytest.approx(1.0909090909090908)
    assert resid <= 1e-10 * (1.0 + rhs_norm)


def test_y_update_pure_shrink_case():
    # With grad h = 0 and no constraint pressure the update shrinks y by
    # L_h / (beta + L_h).
    h = SmoothTerm(eval=lambda y: 0.0, grad=lambda y: np.zeros_like(y), lipschitz_const=0.5)
    spec = ProblemSpec(
        m=1, gs=[zero_nonsmooth()], h=h, phi=_identity_phi(3), B=scaled_identity_map(-1.0, 3)
    )
    y = np.array([2.0, -4.0, 1.0])
    y_new, _, _ = y_update(spec, np.zeros(3), y, np.zeros(3), 2.0)
    np.testing.assert_allclose(y_new, y * 0.5 / 2.5, rtol=1e-15)


def test_y_update_dense_path_matches_direct_solve_and_caches():
    rng = make_rng(12)
    M = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    B = dense_map(M)
    h = _quadratic_h(0.7)
    spec = ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=h,
        phi=NonlinearMap(
            eval=lambda x: x.blocks[0].copy(),
            jac_block_apply=lambda i, x, w: np.asarray(w, dtype=np.float64),
            out_dim=4,
        ),
        B=B,
    )
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    phi_x = rng.standard_normal(4)
    beta = 1.3

    cache = {}
    y_new, resid, rhs_norm = y_update(spec, phi_x, y, w, beta, cache)
    assert "y_factor" in cache
    assert resid <= 1e-10 * (1.0 + rhs_norm)

    # Independent route: assemble the normal equations from the dense
    # matrix directly and solve with numpy.
    lhs = beta * M.T @ M + 0.7 * np.eye(4)
    rhs = 0.7 * y - h.grad(y) - M.T @ (w + beta * phi_x)
    oracle = np.linalg.solve(lhs, rhs)
    np.testing.assert_allclose(y_new, oracle, rtol=1e-10)

    y_again, _, _ = y_update(spec, phi_x, y, w, beta, cache)
    np.testing.assert_array_equal(y_again, y_new)


def test_dual_update_is_exact():
    w = np.array([1.0, -1.0])
    r = np.array([0.5, 2.0])
    np.testing.assert_array_equal(dual_update(w, r, 2.0), [2.0, 3.0])


def test_residuals_combined_and_defaults():
    res = Residuals((0.1, 0.7), 0.3, 0.2)
    assert res.combined == 0.7
    assert Residuals((), 0.0, 0.0).combined == 0.0


def test_compute_residuals_matches_finite_differences():
    rng = make_rng(23)
    spec = _consensus_quadratic(3)
    x = BlockVector([rng.standard_normal(3)])
    y = rng.standard_normal(3)
    w = rng.standard_normal(3)
    beta = 2.0
    s = rng.standard_normal(3)
    res = compute_residuals(spec, x, y, w, beta, [s])

    eps = 1e-6
    fd = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = eps
        up = smooth_part_value(spec, x.with_block(0, x.blocks[0] + e), y, w, beta)
        dn = smooth_part_value(spec, x.with_block(0, x.blocks[0] - e), y, w, beta)
        fd[k] = (up - dn) / (2 * eps)
    np.testing.assert_allclose(res.blocks[0], np.linalg.norm(fd - s), rtol=1e-6)
    np.testing.assert_allclose(
        res.dual_smooth, np.linalg.norm(spec.h.grad(y) - w), rtol=1e-12
    )
    np.testing.assert_allclose(res.feasibility, np.linalg.norm(x.blocks[0] - y), rtol=1e-12)


def test_compute_residuals_zero_at_kkt_point():
    spec = _consensus_quadratic(2)
    x = BlockVector([np.zeros(2)])
    res = compute_residuals(spec, x, np.zeros(2), np.zeros(2), 8.0, [np.zeros(2)])
    assert res.combined == 0.0


def test_lyapunov_value_formula():
    spec = _consensus_quadratic(2)
    coeff = lyapunov_coeff(spec, 8.0, 1.5)
    assert coeff == pytest.approx(3.0 * 1.5 * 4.0 / 8.0)
    assert lyapunov_value(2.0, spec, 8.0, 1.5, 0.5) == pytest.approx(2.0 + coeff * 0.25)


def _converging_run(n=4, seed=0, **overrides):
    spec = _consensus_quadratic(n)
    beta = 8.0
    defaults = dict(
        beta=beta,
        delta_tilde=1.5,
        max_outer_iters=200,
        stop_epsilon=1e-10,
        diagnostics_level="full_lyapunov",
    )
    defaults.update(overrides)
    config = SolverConfig(**defaults)
    rng = make_rng(seed)
    x0 = BlockVector([rng.random(n)])
    y0 = rng.random(n)
    return spec, run(spec, [_lg_surrogate(1.0 + beta)], x0, y0, np.zeros(n), config)


def test_run_converges_on_consensus_quadratic():
    spec, res = _converging_run()
    assert res.stop_reason == "epsilon"
    assert res.violations == []
    assert res.residuals.combined <= 1e-10
    np.testing.assert_allclose(res.x.blocks[0], np.zeros(4), atol=1e-8)
    np.testing.assert_allclose(res.y, np.zeros(4), atol=1e-8)
    assert res.min_eta == pytest.approx(0.1 * 9.0)
    # Iterate movement has collapsed by the stop.
    assert res.trace[-1].dx < 1e-4 and res.trace[-1].dy < 1e-4 and res.trace[-1].dw < 1e-4
    # Final-point bookkeeping is self-consistent.
    r = eval_feasibility(spec, res.x, res.y)
    np.testing.assert_allclose(res.residuals.feasibility, np.linalg.norm(r), rtol=1e-12)
    np.testing.assert_allclose(
        res.residuals.dual_smooth,
        np.linalg.norm(spec.h.grad(res.y) - res.w),
        rtol=1e-10,
        atol=1e-15,
    )


def test_run_dual_identity_after_one_iteration():
    spec, res = _converging_run(max_outer_iters=1, stop_epsilon=0.0)
    assert res.iterations == 1
    r = eval_feasibility(spec, res.x, res.y)
    # w started at zero, so one exact ascent step gives w = beta * r bitwise.
    np.testing.assert_array_equal(res.w, 8.0 * r)
    np.testing.assert_allclose(res.trace[-1].dw / 8.0, res.residuals.feasibility, rtol=1e-15)


def test_run_lyapunov_is_monotone_on_trace():
    _, res = _converging_run(stop_epsilon=0.0, max_outer_iters=60)
    vals = [rec.lyapunov for rec in res.trace]
    for a, b in zip(vals[1:], vals[2:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))


def test_run_wrong_surrogate_count():
    spec = _consensus_quadratic(2)
    config = SolverConfig(beta=8.0)
    x0 = BlockVector([np.ones(2)])
    with pytest.raises(ValueError):
        run(spec, [], x0, np.zeros(2), np.zeros(2), config)


@pytest.mark.parametrize(
    "name, x0, y0, w0",
    [
        ("x0", BlockVector([np.ones(2), np.ones(1)]), np.zeros(2), np.zeros(2)),
        ("x0", BlockVector([np.array([1.0, math.nan])]), np.zeros(2), np.zeros(2)),
        ("x0", BlockVector([np.array([math.inf, 1.0])]), np.zeros(2), np.zeros(2)),
        ("y0", BlockVector([np.ones(2)]), np.array([0.0, math.nan]), np.zeros(2)),
        ("y0", BlockVector([np.ones(2)]), np.array([0.0, math.inf]), np.zeros(2)),
        ("y0", BlockVector([np.ones(2)]), np.zeros(3), np.zeros(2)),
        ("w0", BlockVector([np.ones(2)]), np.zeros(2), np.array([math.nan, 0.0])),
        ("w0", BlockVector([np.ones(2)]), np.zeros(2), np.array([math.inf, 0.0])),
        ("w0", BlockVector([np.ones(2)]), np.zeros(2), np.zeros(1)),
    ],
    ids=[
        "x0-block-count", "x0-nan", "x0-inf", "y0-nan", "y0-inf", "y0-length",
        "w0-nan", "w0-inf", "w0-length",
    ],
)
def test_run_rejects_a_bad_start(name, x0, y0, w0):
    spec = _consensus_quadratic(2)
    with pytest.raises(ValueError, match=name):
        run(spec, [_lg_surrogate(9.0)], x0, y0, w0, SolverConfig(beta=8.0))


def test_run_enforces_beta_condition():
    spec = _consensus_quadratic(2)
    config = SolverConfig(beta=0.5)
    x0 = BlockVector([np.ones(2)])
    with pytest.raises(SolverError, match="penalty condition"):
        run(spec, [_lg_surrogate(1.5)], x0, np.zeros(2), np.zeros(2), config)
    # The same beta is accepted when enforcement is waived.
    config_off = SolverConfig(beta=0.5, enforce_beta_condition=False, max_outer_iters=3)
    res = run(spec, [_lg_surrogate(1.5)], x0, np.zeros(2), np.zeros(2), config_off)
    assert res.iterations == 3


def test_run_strict_raises_on_understated_constant():
    spec = _consensus_quadratic(3)
    x0 = BlockVector([np.ones(3)])
    bad = _lg_surrogate(0.05 * 9.0, kappa=1.0)  # way below the true curvature
    config = SolverConfig(beta=8.0, strict=True, max_outer_iters=50)
    with pytest.raises(SolverError, match="decrease"):
        run(spec, [bad], x0, np.zeros(3), np.zeros(3), config)
    config_loose = SolverConfig(beta=8.0, max_outer_iters=5)
    res = run(spec, [bad], x0, np.zeros(3), np.zeros(3), config_loose)
    assert any("decrease" in v for v in res.violations)


def test_run_raises_domain_error_when_an_iterate_makes_g_infinite():
    # g_0 is the indicator of {v >= 1} with a prox that ignores it, so the
    # first step toward the minimizer at 0 leaves its domain.
    base = _consensus_quadratic(2)
    box = BlockNonsmooth(eval=lambda v: 0.0 if np.all(v >= 1.0) else None, prox=lambda v, t: v)
    spec = ProblemSpec(m=1, gs=[box], h=base.h, phi=base.phi, B=base.B, smooth_f=base.smooth_f)
    x0 = BlockVector([np.ones(2)])
    for level in DIAGNOSTICS_LEVELS:
        config = SolverConfig(beta=8.0, max_outer_iters=5, diagnostics_level=level)
        with pytest.raises(DomainError, match="g_0"):
            run(spec, [_lg_surrogate(9.0)], x0, np.zeros(2), np.zeros(2), config)


def test_run_stop_reasons_max_iters_and_budget():
    _, res = _converging_run(stop_epsilon=0.0, max_outer_iters=5)
    assert res.stop_reason == "max_iters" and res.iterations == 5
    _, res_b = _converging_run(stop_epsilon=0.0, wall_clock_budget=0.0, max_outer_iters=50)
    assert res_b.stop_reason == "budget" and res_b.iterations == 1


def test_run_detects_divergence():
    # A concave coupling term drags the augmented Lagrangian below any
    # bound; the solver must stop and say so rather than loop.
    spec = _consensus_quadratic(2, f_curv=-10.0)
    spec = ProblemSpec(
        m=1,
        gs=spec.gs,
        h=spec.h,
        phi=spec.phi,
        B=spec.B,
        smooth_f=spec.smooth_f,
        lower_bound_hint=0.0,
    )
    config = SolverConfig(
        beta=8.0, max_outer_iters=5000, diagnostics_level="off", stop_epsilon=0.0
    )
    x0 = BlockVector([np.ones(2)])
    res = run(spec, [_lg_surrogate(1.0)], x0, np.zeros(2), np.zeros(2), config)
    assert res.stop_reason == "diverged"
    assert res.iterations < 5000
    assert any("diverged" in v for v in res.violations)


def test_run_trace_stride_keeps_final_record():
    _, res = _converging_run(stop_epsilon=0.0, max_outer_iters=10, trace_stride=4)
    assert [rec.k for rec in res.trace] == [4, 8, 10]
    _, res7 = _converging_run(stop_epsilon=0.0, max_outer_iters=10, trace_stride=7)
    assert [rec.k for rec in res7.trace] == [7, 10]
