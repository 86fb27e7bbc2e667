import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from madmm.data import Dataset, make_rng, normalize_columns, synthetic_generate
from madmm.logistic import (
    bregman_constant_x1,
    build_problem,
    default_beta,
    fitting_error,
    initial_state,
    l1_quartic_solve,
    logistic_h,
    logistic_smooth_term,
    phi_eval,
    phi_jac_block_apply,
)
from madmm.model import (
    BlockVector,
    NonlinearMap,
    eval_augmented_lagrangian,
    soft_threshold,
)
from madmm.solver import SolverConfig, check_beta_condition, dual_update, run, y_update
from madmm.surrogates import (
    bregman_divergence,
    mm_block_update,
    quadratic_kernel,
    quartic_kernel,
)

from checkers import surrogate_value


def _toy_data(d=6, q=4, seed=0):
    return synthetic_generate(d, q, make_rng(seed))


# Per-block closed forms written out from the public score-map functions:
# oracles for the generic surrogate machinery that the solver runs.


def centred_value(data, x1, x2, x3, y, w, beta):
    """F_c(x1) = beta/2 ||P(w/beta + r)||^2 - ||w||^2/(2 beta), P = I - 11^T/q."""
    v = w / beta + phi_eval(data, x1, x2, x3) - y
    v = v - np.mean(v)
    return 0.5 * beta * float(v @ v) - float(w @ w) / (2.0 * beta)


def centred_grad(data, x1, x2, x3, y, w, beta):
    """grad F_c = J_0^T (w + beta r - mean(w + beta r))."""
    v = w + beta * (phi_eval(data, x1, x2, x3) - y)
    return phi_jac_block_apply(data, 0, x1, v - np.mean(v))


def x1_update(data, x1, x2, x3, y, w, beta, lam1, kappa1=1.1):
    """Quadratic-weights step at its closed-form constant: Bregman surrogate
    over the quartic kernel for F_c, the smooth part with the intercept
    minimized out. Returns the new x1 and the intercept's minimizer there."""
    grad = centred_grad(data, x1, x2, x3, y, w, beta)
    ell = kappa1 * bregman_constant_x1(data, x2, y, w, beta)
    c_lin = grad - ell * (float(x1 @ x1) + 1.0) * x1
    x1_new = l1_quartic_solve(c_lin, lam1, ell)
    r_new = phi_eval(data, x1_new, x2, x3) - y
    return x1_new, float(x3) - float(np.mean(w / beta + r_new))


def x2_update(data, x1, x2, x3, y, w, beta, lam2):
    """Soft-threshold step on the linear weights (x1 already updated)."""
    r = phi_eval(data, x1, x2, x3) - y
    grad = phi_jac_block_apply(data, 1, x1, w + beta * r)
    ell = beta * float(np.sum(data.column_norms**2))
    return soft_threshold(x2 - grad / ell, lam2 / ell)


def x3_update(data, x1, x2, x3, y, w, beta):
    """Gradient step on the intercept (x1, x2 already updated)."""
    r = phi_eval(data, x1, x2, x3) - y
    grad = float(np.sum(w + beta * r))
    return float(x3) - grad / (beta * data.q)


def test_phi_eval_single_sample():
    data = Dataset(A=np.array([[1.0], [0.0]]), b=np.array([1.0]))
    got = phi_eval(data, np.array([2.0, 0.0]), np.array([0.0, 1.0]), 3.0)
    np.testing.assert_allclose(got, [7.0])


def test_phi_eval_matches_scalar_loop():
    data = _toy_data()
    rng = make_rng(5)
    x1 = rng.standard_normal(data.d)
    x2 = rng.standard_normal(data.d)
    x3 = 0.7
    got = phi_eval(data, x1, x2, x3)
    for i in range(data.q):
        a = data.A[:, i]
        dot1 = math.fsum(a[k] * x1[k] for k in range(data.d))
        dot2 = math.fsum(a[k] * x2[k] for k in range(data.d))
        np.testing.assert_allclose(got[i], dot1 * dot1 + dot2 + x3, rtol=1e-12)


def test_phi_jacobian_actions_match_finite_differences():
    data = _toy_data()
    rng = make_rng(8)
    x1 = rng.standard_normal(data.d)
    x2 = rng.standard_normal(data.d)
    x3 = -0.4
    w = rng.standard_normal(data.q)
    eps = 1e-6

    def pairing(x1v, x2v, x3v):
        return float(w @ phi_eval(data, x1v, x2v, x3v))

    fd1 = np.empty(data.d)
    fd2 = np.empty(data.d)
    for k in range(data.d):
        e = np.zeros(data.d)
        e[k] = eps
        fd1[k] = (pairing(x1 + e, x2, x3) - pairing(x1 - e, x2, x3)) / (2 * eps)
        fd2[k] = (pairing(x1, x2 + e, x3) - pairing(x1, x2 - e, x3)) / (2 * eps)
    fd3 = (pairing(x1, x2, x3 + eps) - pairing(x1, x2, x3 - eps)) / (2 * eps)

    np.testing.assert_allclose(phi_jac_block_apply(data, 0, x1, w), fd1, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(phi_jac_block_apply(data, 1, x1, w), fd2, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(phi_jac_block_apply(data, 2, x1, w), [fd3], rtol=1e-6)
    with pytest.raises(ValueError):
        phi_jac_block_apply(data, 3, x1, w)


def test_logistic_h_at_zero_scores():
    data = _toy_data()
    value, grad = logistic_h(data, np.zeros(data.q))
    assert value == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(grad, -data.b / (2.0 * data.q), rtol=1e-15)


def test_logistic_h_matches_log1p_loop():
    data = _toy_data()
    y = make_rng(3).standard_normal(data.q) * 3.0
    value, grad = logistic_h(data, y)
    oracle_v = math.fsum(math.log1p(math.exp(-data.b[i] * y[i])) for i in range(data.q))
    np.testing.assert_allclose(value, oracle_v / data.q, rtol=1e-14)
    for i in range(data.q):
        t = data.b[i] * y[i]
        np.testing.assert_allclose(
            grad[i], -data.b[i] / (1.0 + math.exp(t)) / data.q, rtol=1e-12
        )


def test_logistic_h_extreme_scores_stay_finite():
    data = Dataset(A=np.eye(2), b=np.array([1.0, -1.0]))
    with np.errstate(over="raise"):
        value, grad = logistic_h(data, np.array([-1000.0, 1000.0]))
    # Both samples are maximally misclassified: loss is |score| each.
    assert value == pytest.approx(1000.0)
    np.testing.assert_allclose(grad, [-0.5, 0.5], rtol=1e-15)
    tiny, _ = logistic_h(data, np.array([1000.0, -1000.0]))
    assert 0.0 <= tiny < 1e-300


def test_logistic_grad_matches_expit_over_the_margin_range():
    # The gradient is -b expit(-m) / q at margin m = b y, formed without
    # scipy. Criterion 4's central differences cover only ordinary
    # margins; this covers the tails, where expit underflows, and the
    # limits at infinite margin.
    margins = np.concatenate([np.linspace(-800.0, 800.0, 64001), [-np.inf, np.inf]])
    q = margins.size
    b = np.where(np.arange(q) % 2 == 0, 1.0, -1.0)
    data = Dataset(A=np.zeros((1, q)), b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, grad = logistic_h(data, b * margins)
    np.testing.assert_allclose(grad, -(b * expit(-margins)) / q, rtol=1e-12, atol=1e-300)
    assert grad[-1] == 0.0
    assert grad[-2] == -b[-2] / q


def test_logistic_smooth_term_constants():
    data = _toy_data()
    term = logistic_smooth_term(data)
    assert term.lipschitz_const == pytest.approx(1.0 / (4.0 * data.q))
    y = make_rng(1).standard_normal(data.q)
    v, g = logistic_h(data, y)
    assert term.eval(y) == v
    np.testing.assert_array_equal(term.grad(y), g)


def test_bregman_constant_unit_sample_value():
    # One unit-norm sample, everything else zero, beta = 1:
    # cap = max(0, 3) = 3 and the constant is 2 * 1 * 3 = 6.
    data = Dataset(A=np.array([[1.0], [0.0]]), b=np.array([1.0]))
    got = bregman_constant_x1(data, np.zeros(2), np.zeros(1), np.zeros(1), 1.0)
    assert got == pytest.approx(6.0)


def test_bregman_constant_scales_linearly_in_beta_when_w_zero():
    data = _toy_data()
    rng = make_rng(4)
    x2 = rng.standard_normal(data.d)
    y = rng.standard_normal(data.q)
    w = np.zeros(data.q)
    c1 = bregman_constant_x1(data, x2, y, w, 1.0)
    c2 = bregman_constant_x1(data, x2, y, w, 2.0)
    assert c2 == pytest.approx(2.0 * c1)


def test_bregman_constant_matches_scalar_loop():
    data = _toy_data(d=5, q=7, seed=2)
    rng = make_rng(6)
    x2 = rng.standard_normal(5)
    y = rng.standard_normal(7)
    w = rng.standard_normal(7)
    beta = 0.8
    e = [w[j] - beta * y[j] + beta * float(data.A[:, j] @ x2) for j in range(7)]
    e_mean = math.fsum(e) / 7
    oracle = math.fsum(
        2.0
        * float(data.A[:, j] @ data.A[:, j])
        * max(abs(e[j] - e_mean), 3.0 * beta * float(data.A[:, j] @ data.A[:, j]))
        for j in range(7)
    )
    got = bregman_constant_x1(data, x2, y, w, beta)
    np.testing.assert_allclose(got, oracle, rtol=1e-13)
    with pytest.raises(ValueError):
        bregman_constant_x1(data, x2, y, w, 0.0)


def test_l1_quartic_solve_worked_example():
    x = l1_quartic_solve(np.array([3.0, -1.0]), 1.0, 2.0)
    # Direction -soft((3,-1), 1) = (-2, 0), magnitude from t^3 + t = 1.
    t = x[0] * -1.0
    assert x[1] == 0.0
    np.testing.assert_allclose(x, [-0.6823278038280193, 0.0], rtol=1e-12)
    assert abs(2.0 * (t**3 + t) - 2.0) <= 1e-10 * 3.0


def test_l1_quartic_solve_zero_when_threshold_dominates():
    out = l1_quartic_solve(np.array([0.5, -0.3]), 1.0, 2.0)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_l1_quartic_solve_no_penalty_keeps_direction():
    c = np.array([1.0, 2.0, -2.0])
    out = l1_quartic_solve(c, 0.0, 0.7)
    # Minimizer is antiparallel to the linear term.
    cos = float(out @ c) / (np.linalg.norm(out) * np.linalg.norm(c))
    assert cos == pytest.approx(-1.0)
    mag = float(np.linalg.norm(out))
    assert abs(0.7 * (mag**3 + mag) - np.linalg.norm(c)) <= 1e-10 * (
        1.0 + np.linalg.norm(c)
    )


def test_l1_quartic_solve_beats_probes():
    rng = make_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        c = 3.0 * rng.standard_normal(n)
        lam = float(rng.random())
        ell = 0.1 + 2.0 * float(rng.random())
        x = l1_quartic_solve(c, lam, ell)

        def obj(v):
            s = float(v @ v)
            return lam * float(np.abs(v).sum()) + float(c @ v) + ell * (
                0.25 * s * s + 0.5 * s
            )

        base = obj(x)
        assert base <= obj(np.zeros(n)) + 1e-12
        for _ in range(40):
            p = x + rng.standard_normal(n) * 0.5
            assert base <= obj(p) + 1e-10


def test_l1_quartic_solve_rejects_bad_parameters():
    with pytest.raises(ValueError):
        l1_quartic_solve(np.ones(2), 1.0, 0.0)
    with pytest.raises(ValueError):
        l1_quartic_solve(np.ones(2), -0.1, 1.0)


def _random_state(data, seed):
    rng = make_rng(seed)
    x1 = rng.standard_normal(data.d)
    x2 = rng.standard_normal(data.d)
    x3 = float(rng.standard_normal())
    y = rng.standard_normal(data.q)
    w = rng.standard_normal(data.q)
    return x1, x2, x3, y, w


def test_block_updates_match_generic_machinery():
    data = _toy_data()
    lam1, lam2 = 0.05, 0.02
    beta = 0.9
    setup = build_problem(data, lam1, lam2, kappa1=1.2)
    x1, x2, x3, y, w = _random_state(data, 14)
    x = BlockVector([x1, x2, np.array([x3])])

    got0 = mm_block_update(0, setup.surrogates[0], setup.spec, x, y, w, beta)
    ref0, ref_x3 = x1_update(data, x1, x2, x3, y, w, beta, lam1, kappa1=1.2)
    np.testing.assert_allclose(got0.x_new, ref0, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(got0.x.blocks[2], [ref_x3], rtol=1e-12)

    got1 = mm_block_update(1, setup.surrogates[1], setup.spec, x, y, w, beta)
    ref1 = x2_update(data, x1, x2, x3, y, w, beta, lam2)
    np.testing.assert_allclose(got1.x_new, ref1, rtol=1e-12, atol=1e-14)

    got2 = mm_block_update(2, setup.surrogates[2], setup.spec, x, y, w, beta)
    ref2 = x3_update(data, x1, x2, x3, y, w, beta)
    np.testing.assert_allclose(got2.x_new, [ref2], rtol=1e-12)


def test_x1_update_minimizes_its_subproblem():
    data = _toy_data(d=4, q=5, seed=3)
    lam1 = 0.1
    beta = 1.1
    setup = build_problem(data, lam1, 0.0, kappa1=1.3)
    x1, x2, x3, y, w = _random_state(data, 21)
    x = BlockVector([x1, x2, np.array([x3])])
    res = mm_block_update(0, setup.surrogates[0], setup.spec, x, y, w, beta)
    rng = make_rng(77)

    def sub_obj(v):
        return surrogate_value(
            setup.surrogates[0], setup.spec, 0, x, y, w, beta, v
        ) + lam1 * float(np.abs(v).sum())

    base = sub_obj(res.x_new)
    assert base <= sub_obj(x1) + 1e-10
    for scale in (0.05, 0.5, 2.0):
        for _ in range(60):
            assert base <= sub_obj(res.x_new + scale * rng.standard_normal(4)) + 1e-9


def test_relative_smoothness_certificate_for_block0():
    # The state-dependent constant must majorize F_c, block 0's smooth part
    # with the intercept minimized out, relative to the quartic kernel
    # everywhere, not just near the anchor.
    data = _toy_data(d=5, q=6, seed=4)
    kernel = quartic_kernel()
    rng = make_rng(100)
    setup = build_problem(data, 0.0, 0.0)
    for _ in range(200):
        x1 = rng.standard_normal(5) * float(1.0 + 2.0 * rng.random())
        x2 = rng.standard_normal(5)
        x3 = float(rng.standard_normal())
        y = rng.standard_normal(6)
        w = rng.standard_normal(6)
        beta = 0.2 + 2.0 * float(rng.random())
        v = x1 + rng.standard_normal(5) * float(3.0 * rng.random())
        ell = bregman_constant_x1(data, x2, y, w, beta)
        # F_c, the block's smooth part with the intercept minimized out, and
        # its gradient, written out from the score map.
        psi_z = centred_value(data, x1, x2, x3, y, w, beta)
        psi_v = centred_value(data, v, x2, x3, y, w, beta)
        grad_z = centred_grad(data, x1, x2, x3, y, w, beta)
        # The surrogate the step minimizes touches F_c at the anchor.
        x = BlockVector([x1, x2, np.array([x3])])
        step = surrogate_value(setup.surrogates[0], setup.spec, 0, x, y, w, beta, x1)
        assert step == pytest.approx(psi_z, rel=1e-12, abs=1e-12)
        gap = (
            psi_z
            + float(grad_z @ (v - x1))
            + ell * bregman_divergence(kernel, v, x1)
            - psi_v
        )
        assert gap >= -1e-8 * (1.0 + abs(psi_v))


def _random_block0_steps(n_states=60):
    """Block 0's step from random states on a few shapes, at the ceiling and
    (every other state) searching below it; yields (setup, x, y, w, beta, step)."""
    for d, q, seed in ((6, 4, 0), (20, 12, 3), (40, 15, 4)):
        data = synthetic_generate(d, q, make_rng(seed))
        setup = build_problem(data, 0.01, 0.02)
        rng = make_rng(100 + seed)
        for t in range(n_states):
            x = BlockVector(
                [rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(1)]
            )
            y = rng.standard_normal(q)
            w = 0.1 * rng.standard_normal(q)
            beta = default_beta(q) * (0.5 + 2.0 * float(rng.random()))
            surrogate = setup.surrogates[0]
            if t % 2:
                ceiling = surrogate.const_at(setup.spec, x, y, w, beta)
                surrogate = surrogate.for_step(float(rng.random()) * ceiling)
            step = mm_block_update(0, surrogate, setup.spec, x, y, w, beta)
            yield setup, x, y, w, beta, step


def test_block0_step_leaves_the_intercept_exactly_at_its_minimizer():
    # The smooth part is quadratic in x3 with derivative sum(w + beta r).
    for setup, x, y, w, beta, step in _random_block0_steps():
        v = w + beta * (phi_eval(setup.data, step.x_new, x.blocks[1], step.x.blocks[2]) - y)
        assert abs(float(v.sum())) <= 1e-12 * (1.0 + float(np.abs(v).sum()))


def test_merged_block0_step_keeps_the_ledger_inequality():
    # L_beta after both blocks move decreases by at least eta * D. With x3
    # left where it was, the same inequality fails on many of these states.
    fails_without_x3 = 0
    for setup, x, y, w, beta, step in _random_block0_steps():
        lag_pre = eval_augmented_lagrangian(setup.spec, x, y, w, beta)
        moved = x.with_block(0, step.x_new)
        bound = lag_pre + 1e-9 * (1.0 + abs(lag_pre))
        decrease = step.eta * step.divergence
        lag = eval_augmented_lagrangian(setup.spec, step.x, y, w, beta)
        assert lag + decrease <= bound
        lag_x3_kept = eval_augmented_lagrangian(setup.spec, moved, y, w, beta)
        fails_without_x3 += lag_x3_kept + decrease > bound
    assert fails_without_x3 >= 10

    # The solver's own ledger, which evaluates L_beta once the step has
    # replaced both blocks, agrees from random starts.
    for d, q, seed in ((6, 4, 0), (20, 12, 3), (40, 15, 4)):
        data = synthetic_generate(d, q, make_rng(seed))
        setup = build_problem(data, 0.01, 0.02)
        rng = make_rng(200 + seed)
        x0 = BlockVector([rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(1)])
        config = SolverConfig(
            beta=default_beta(q), max_outer_iters=50, diagnostics_level="decrease_checks"
        )
        y0, w0 = rng.standard_normal(q), 0.1 * rng.standard_normal(q)
        res = run(setup.spec, setup.surrogates, x0, y0, w0, config)
        assert res.violations == []


def test_linear_weights_block_searches_below_its_ceiling(monkeypatch):
    # With lambda2 small enough for x2 to move, block 1's steps accept
    # constants below its closed-form ceiling beta * sum ||a_i||^2, and
    # every step still certifies its decrease.
    data = synthetic_generate(40, 15, make_rng(5))
    setup = build_problem(data, 0.01, 0.001)
    beta = default_beta(data.q)
    ceiling = beta * float(np.sum(data.column_norms**2))
    accepted = []

    def recording(i, surrogate, spec, x, y, w, b):
        res = mm_block_update(i, surrogate, spec, x, y, w, b)
        if i == 1:
            accepted.append(res.smoothness)
        return res

    monkeypatch.setattr("madmm.solver.mm_block_update", recording)
    x0, y0, w0 = initial_state(data, 5)
    config = SolverConfig(beta=beta, max_outer_iters=50, diagnostics_level="full_lyapunov")
    res = run(setup.spec, setup.surrogates, x0, y0, w0, config)
    assert res.violations == []
    assert accepted[0] == ceiling
    assert min(accepted) < 0.9 * ceiling
    assert float(np.abs(res.x.blocks[1]).sum()) > 0.0


def test_fitting_error_at_origin_is_log_two():
    data = _toy_data()
    got = fitting_error(data, np.zeros(data.d), np.zeros(data.d), 0.0, 0.5, 0.5)
    assert got == pytest.approx(math.log(2.0))
    # Penalties enter linearly with their weights.
    e1 = np.zeros(data.d)
    e1[0] = 2.0
    with_pen = fitting_error(data, e1, np.zeros(data.d), 0.0, 0.5, 0.25)
    loss, _ = logistic_h(data, phi_eval(data, e1, np.zeros(data.d), 0.0))
    assert with_pen == pytest.approx(loss + 1.0)


def test_default_beta():
    assert default_beta(100) == pytest.approx(0.025)


def test_initial_state_pinned_draw_order():
    data = _toy_data(d=3, q=5, seed=7)
    x, y, w = initial_state(data, seed=42)
    rng = make_rng(42)
    np.testing.assert_array_equal(x.blocks[0], rng.random(3))
    np.testing.assert_array_equal(x.blocks[1], rng.random(3))
    np.testing.assert_array_equal(x.blocks[2], rng.random(1))
    np.testing.assert_array_equal(y, rng.random(5))
    np.testing.assert_array_equal(w, np.zeros(5))
    x_again, _, _ = initial_state(data, seed=42)
    np.testing.assert_array_equal(x.concat(), x_again.concat())


def test_build_problem_wiring_and_validation():
    data = _toy_data()
    setup = build_problem(data, 0.01, 0.02)
    assert setup.spec.m == 3
    assert setup.spec.B.scale == -1.0
    assert setup.spec.h.lipschitz_const == pytest.approx(1.0 / (4.0 * data.q))
    assert setup.spec.lower_bound_hint == 0.0
    # Block 0 steps under the quartic kernel with the intercept minimized
    # out; blocks 1 and 2 under the default quadratic kernel, through their prox.
    assert [s.kernel is quadratic_kernel() for s in setup.surrogates] == [False, True, True]
    assert [s.minimize_out for s in setup.surrogates] == [2, None, None]
    x, y, w = initial_state(data, 0)
    col_sq = float(np.sum(data.column_norms**2))
    assert setup.surrogates[1].const_at(setup.spec, x, y, w, 2.0) == pytest.approx(
        2.0 * col_sq
    )
    assert setup.surrogates[2].const_at(setup.spec, x, y, w, 2.0) == pytest.approx(
        2.0 * data.q
    )
    with pytest.raises(ValueError):
        build_problem(data, -0.1, 0.0)
    with pytest.raises(ValueError):
        build_problem(data, 0.0, 0.0, kappa1=0.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="l1 weights"):
            build_problem(data, bad, 0.1)
        with pytest.raises(ValueError, match="l1 weights"):
            build_problem(data, 0.001, bad)
        with pytest.raises(ValueError, match="kappa1"):
            build_problem(data, 0.001, 0.1, kappa1=bad)


def test_one_solver_iteration_equals_manual_cycle():
    data = _toy_data(d=5, q=8, seed=11)
    lam1, lam2 = 0.01, 0.03
    beta = default_beta(data.q)
    setup = build_problem(data, lam1, lam2)
    x0, y0, w0 = initial_state(data, seed=5)
    config = SolverConfig(beta=beta, max_outer_iters=1, diagnostics_level="off")
    res = run(setup.spec, setup.surrogates, x0, y0, w0, config)

    # Block 0's step moves the intercept to its minimizer, x3_half; block 2
    # then minimizes it again after x2 has moved.
    x1, x3_half = x1_update(
        data, x0.blocks[0], x0.blocks[1], x0.blocks[2][0], y0, w0, beta, lam1
    )
    x2 = x2_update(data, x1, x0.blocks[1], x3_half, y0, w0, beta, lam2)
    x3 = x3_update(data, x1, x2, x3_half, y0, w0, beta)
    phi_new = phi_eval(data, x1, x2, x3)
    y1, _, _ = y_update(setup.spec, phi_new, y0, w0, beta)
    w1 = dual_update(w0, phi_new - y1, beta)

    np.testing.assert_allclose(res.x.blocks[0], x1, rtol=1e-14)
    np.testing.assert_allclose(res.x.blocks[1], x2, rtol=1e-14)
    np.testing.assert_allclose(res.x.blocks[2], [x3], rtol=1e-14)
    np.testing.assert_allclose(res.y, y1, rtol=1e-14)
    np.testing.assert_allclose(res.w, w1, rtol=1e-14)


def test_solver_run_on_logistic_is_clean_and_descends():
    data = _toy_data(d=20, q=12, seed=9)
    setup = build_problem(data, 0.001, 0.1)
    beta = default_beta(data.q)
    ok, _, _ = check_beta_condition(setup.spec, beta, 1.5)
    assert ok
    x0, y0, w0 = initial_state(data, seed=1)
    config = SolverConfig(
        beta=beta,
        delta_tilde=1.5,
        max_outer_iters=150,
        diagnostics_level="full_lyapunov",
    )
    res = run(setup.spec, setup.surrogates, x0, y0, w0, config, fit_fn=setup.fitting)
    assert res.violations == []
    assert res.stop_reason == "max_iters"
    start_fit = setup.fitting(x0)
    assert res.trace[-1].fit < start_fit
    assert math.isfinite(res.lagrangian)
    assert res.min_eta >= 1e-8


def test_block0_backtracking_is_certified_and_moves_the_quadratic_weights(monkeypatch):
    # 1000x100 from the pinned start: under the closed-form constant alone,
    # x1 moves by only ~0.03 in 300 iterations (||x1||^2 stays near 340).
    import madmm.solver as solver_module

    data = synthetic_generate(1000, 100, make_rng(1))
    setup = build_problem(data, 0.001, 0.1)
    x0, y0, w0 = initial_state(data, seed=1)
    beta = default_beta(data.q)
    steps = []

    def recording_update(i, surrogate, spec, x, y, w, b):
        res = mm_block_update(i, surrogate, spec, x, y, w, b)
        if i == 0:
            steps.append((surrogate, x, y.copy(), w.copy(), res))
        return res

    monkeypatch.setattr(solver_module, "mm_block_update", recording_update)
    config = SolverConfig(beta=beta, max_outer_iters=300, diagnostics_level="off")
    res = run(setup.spec, setup.surrogates, x0, y0, w0, config)
    assert len(steps) == 300

    kernel = quartic_kernel()
    below_ceiling = 0
    for surrogate, x, y, w, upd in steps:
        x2, x3 = x.blocks[1], x.blocks[2][0]
        ceiling = bregman_constant_x1(data, x2, y, w, beta)
        assert upd.smoothness <= ceiling
        below_ceiling += upd.smoothness < ceiling
        # The accepted constant majorizes F_c (intercept minimized out) at
        # the new point.
        z = x.blocks[0]
        psi_z = centred_value(data, z, x2, x3, y, w, beta)
        psi_new = centred_value(data, upd.x_new, x2, x3, y, w, beta)
        grad_z = centred_grad(data, z, x2, x3, y, w, beta)
        model = (
            psi_z
            + float(grad_z @ (upd.x_new - z))
            + upd.smoothness * bregman_divergence(kernel, upd.x_new, z)
        )
        assert psi_new <= model + 1e-12 * (1.0 + abs(model))
        assert upd.eta == pytest.approx((setup.kappa1 - 1.0) * upd.smoothness, rel=1e-15)
        # The step leaves the intercept at its minimizer for the new x1.
        v = w + beta * (phi_eval(data, upd.x_new, x2, upd.x.blocks[2]) - y)
        assert abs(float(v.sum())) <= 1e-12 * (1.0 + float(np.abs(v).sum()))
    # The first step uses the closed-form ceiling; later ones search below it.
    assert steps[0][4].smoothness == bregman_constant_x1(data, x0.blocks[1], y0, w0, beta)
    assert below_ceiling >= 290
    assert float(np.linalg.norm(res.x.blocks[0] - x0.blocks[0])) > 2.0


def test_normalized_real_shape_smoke():
    # Unnormalized columns are fine for the math; the benchmark path always
    # normalizes first. Check the two agree once normalization is applied.
    rng = make_rng(31)
    A = rng.random((4, 3)) + 0.5
    data = normalize_columns(Dataset(A=A, b=np.array([1.0, -1.0, 1.0])))
    np.testing.assert_allclose(data.column_norms, np.ones(3), rtol=1e-12)
    setup = build_problem(data, 0.01, 0.01)
    assert setup.spec.phi.out_dim == 3


# ---------------------------------------------------------------------------
# The setup's score state against the public closed forms.
# ---------------------------------------------------------------------------


def _count_products(data):
    """Give ``data`` a view of A that counts matrix products; returns the count."""
    count = [0]

    class CountingMatrix(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                count[0] += 1
            plain = (np.asarray(v) if isinstance(v, CountingMatrix) else v for v in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    object.__setattr__(data, "A", data.A.view(CountingMatrix))
    return count


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_cached_map_matches_reference(setup, x, y, w, beta):
    data = setup.data
    x1, x2, x3 = x.blocks[0], x.blocks[1], x.blocks[2][0]
    assert _bits(setup.spec.phi.eval(x)) == _bits(phi_eval(data, x1, x2, x3))
    v = w + beta * y
    for i in range(3):
        got = setup.spec.phi.jac_block_apply(i, x, v)
        assert _bits(got) == _bits(phi_jac_block_apply(data, i, x1, v))
    const = setup.surrogates[0].smoothness_const(setup.spec, x, y, w, beta)
    assert _bits(const) == _bits(bregman_constant_x1(data, x2, y, w, beta))
    assert _bits(setup.fitting(x)) == _bits(fitting_error(data, x1, x2, x3, setup.lam1, setup.lam2))


def test_score_state_matches_public_closed_forms_bit_for_bit():
    data = synthetic_generate(40, 15, make_rng(4))
    setup = build_problem(data, 0.01, 0.02)
    beta = default_beta(data.q)
    x, y, w = initial_state(data, seed=2)
    w = make_rng(9).standard_normal(data.q)
    count = _count_products(data)

    # A fresh iterate; asking again for its scores, block 0's constant or
    # its fit forms no further product.
    _assert_cached_map_matches_reference(setup, x, y, w, beta)
    before = count[0]
    setup.spec.phi.eval(x)
    setup.surrogates[0].smoothness_const(setup.spec, x, y, w, beta)
    setup.fitting(x)
    assert count[0] == before

    # The products key on the block arrays, which cannot be written, so a
    # cached product never goes stale.
    for i in range(3):
        with pytest.raises(ValueError):
            x.blocks[i][0] = 0.25


def test_with_block_shares_untouched_blocks_and_forms_no_product_for_them():
    data = synthetic_generate(40, 15, make_rng(4))
    setup = build_problem(data, 0.01, 0.02)
    beta = default_beta(data.q)
    x, y, w = initial_state(data, seed=2)
    count = _count_products(data)
    setup.spec.phi.eval(x)
    assert count[0] == 2

    # A new x2: only A^T x2 is formed again, whatever reads the state.
    moved = x.with_block(1, -2.0 * x.blocks[1])
    assert moved.blocks[0] is x.blocks[0] and moved.blocks[2] is x.blocks[2]
    setup.spec.phi.eval(moved)
    setup.surrogates[0].smoothness_const(setup.spec, moved, y, w, beta)
    setup.fitting(moved)
    assert count[0] == 3
    # A new intercept needs neither product.
    shifted = moved.with_block(2, [0.5])
    assert shifted.blocks[0] is x.blocks[0] and shifted.blocks[1] is moved.blocks[1]
    setup.spec.phi.eval(shifted)
    setup.fitting(shifted)
    assert count[0] == 3
    _assert_cached_map_matches_reference(setup, shifted, y, w, beta)


def _uncached_setup(setup):
    """The same problem with phi and block 0's constant on the public functions."""
    data = setup.data
    phi = NonlinearMap(
        eval=lambda x: phi_eval(data, x.blocks[0], x.blocks[1], x.blocks[2][0]),
        jac_block_apply=lambda i, x, w: phi_jac_block_apply(data, i, x.blocks[0], w),
        out_dim=data.q,
    )
    block0 = dataclasses.replace(
        setup.surrogates[0],
        smoothness_const=lambda spec, x, y, w, beta: bregman_constant_x1(
            data, x.blocks[1], y, w, beta
        ),
    )
    return dataclasses.replace(
        setup,
        spec=dataclasses.replace(setup.spec, phi=phi),
        surrogates=(block0, *setup.surrogates[1:]),
    )


@pytest.mark.parametrize("diagnostics", ["off", "full_lyapunov"])
def test_score_state_leaves_a_run_bit_identical(diagnostics):
    data = synthetic_generate(1000, 100, make_rng(1))
    setup = build_problem(data, 0.001, 0.1)
    reference = _uncached_setup(setup)
    x0, y0, w0 = initial_state(data, seed=1)
    config = SolverConfig(
        beta=default_beta(data.q), max_outer_iters=300, diagnostics_level=diagnostics
    )

    def reference_fit(x):
        return fitting_error(data, x.blocks[0], x.blocks[1], x.blocks[2][0], 0.001, 0.1)

    runs = [
        run(setup.spec, setup.surrogates, x0, y0, w0, config, fit_fn=setup.fitting),
        run(reference.spec, reference.surrogates, x0, y0, w0, config, fit_fn=reference_fit),
    ]

    def time_masked(res):
        rows = [dataclasses.replace(rec, t_sec=0.0) for rec in res.trace]
        return repr([dataclasses.astuple(r) for r in rows]), _bits(res.x.concat()), _bits(res.w)

    assert len(runs[0].trace) == 300
    assert time_masked(runs[0]) == time_masked(runs[1])
    assert runs[0].violations == runs[1].violations


@pytest.mark.parametrize("diagnostics", ["off", "full_lyapunov"])
def test_run_forms_at_most_seven_products_per_iteration(diagnostics):
    # Without the score state an iteration here forms 17.2 (off) and 19.2
    # (full_lyapunov) d-by-q products; with it, 5.16 at both levels. Block
    # 1 stays at x2 = 0 here, and a null step that handed back a new array
    # for it would read 6.12.
    data = synthetic_generate(1000, 100, make_rng(1))
    count = _count_products(data)
    setup = build_problem(data, 0.001, 0.1)
    x0, y0, w0 = initial_state(data, seed=1)
    config = SolverConfig(
        beta=default_beta(data.q), max_outer_iters=300, diagnostics_level=diagnostics
    )
    count[0] = 0
    res = run(setup.spec, setup.surrogates, x0, y0, w0, config, fit_fn=setup.fitting)
    assert res.iterations == 300
    assert count[0] / 300 <= 5.2
