import math
from dataclasses import replace

import numpy as np
import pytest

from madmm import proxlinear
from madmm.data import make_rng, synthetic_generate
from madmm.logistic import fitting_error, initial_state, phi_eval, phi_jac_block_apply
from madmm.model import soft_threshold
from madmm.proxlinear import (
    CompositeModel,
    ProxLinearConfig,
    _power_iteration,
    apg_solve,
    default_tau,
    logistic_composite_model,
    pack_blocks,
    prox_linear_step,
    run_proxlinear,
    unpack_blocks,
)
from madmm.solver import SolverError


def test_config_validation():
    with pytest.raises(ValueError):
        ProxLinearConfig(tau=0.0)
    with pytest.raises(ValueError):
        ProxLinearConfig(inner_tol=0.0)
    with pytest.raises(ValueError):
        ProxLinearConfig(inner_max_iters=0)
    with pytest.raises(ValueError):
        ProxLinearConfig(stop_epsilon=-1.0)
    with pytest.raises(ValueError):
        ProxLinearConfig(trace_stride=0)
    with pytest.raises(ValueError):
        ProxLinearConfig(wall_clock_budget=-1.0)
    for name in ("tau", "inner_tol", "wall_clock_budget", "stop_epsilon"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                ProxLinearConfig(**{name: bad})
    assert ProxLinearConfig(wall_clock_budget=0.0).wall_clock_budget == 0.0


def test_power_iteration_applies_the_operator_once_per_loop():
    diag = np.array([3.0, 2.5, 0.5, 0.1])
    calls = [0]

    def op(v):
        calls[0] += 1
        return diag * v

    # With tol=0 the five loops run out; each takes one action, after the first.
    lam = _power_iteration(op, 4, make_rng(0), iters=5, tol=0.0)
    assert calls[0] == 6
    v = make_rng(0).standard_normal(4)
    v /= np.linalg.norm(v)
    for _ in range(5):
        w = diag * v
        v = w / np.linalg.norm(w)
    assert lam == float(v @ (diag * v))
    assert _power_iteration(op, 4, make_rng(0)) == pytest.approx(3.0, rel=1e-6)
    assert _power_iteration(lambda v: 0.0 * v, 4, make_rng(0)) == 0.0


def test_apg_solve_quadratic_converges_fast():
    c = np.array([1.0, -2.0, 3.0])
    x, cert, it = apg_solve(
        smooth_eval=lambda v: (0.5 * float((v - c) @ (v - c)), v - c),
        smooth_grad=lambda v, image: image,
        nonsmooth_eval=lambda v: 0.0,
        prox=lambda v, t: v,
        x0=np.zeros(3),
        lipschitz=1.0,
        tol=1e-10,
        max_iters=50,
    )
    np.testing.assert_allclose(x, c, atol=1e-9)
    assert cert <= 1e-10
    assert it <= 50


def test_apg_solve_lasso_lands_on_soft_threshold():
    v = np.array([2.0, -0.4, 0.7, 0.0])
    lam = 0.5
    x, cert, _ = apg_solve(
        smooth_eval=lambda u: (0.5 * float((u - v) @ (u - v)), u - v),
        smooth_grad=lambda u, image: image,
        nonsmooth_eval=lambda u: lam * float(np.abs(u).sum()),
        prox=lambda u, t: soft_threshold(u, lam * t),
        x0=np.zeros(4),
        lipschitz=1.0,
        tol=1e-12,
        max_iters=100,
    )
    np.testing.assert_allclose(x, soft_threshold(v, lam), atol=1e-10)
    assert cert <= 1e-12


def test_apg_solve_ill_conditioned_never_increases():
    rng = make_rng(2)
    diag = np.logspace(0, 4, 6)
    c = rng.standard_normal(6)

    def f(v):
        return 0.5 * float((diag * (v - c)) @ (v - c))

    x0 = rng.standard_normal(6)
    x, _, _ = apg_solve(
        smooth_eval=lambda v: (f(v), v - c),
        smooth_grad=lambda v, image: diag * image,
        nonsmooth_eval=lambda v: 0.0,
        prox=lambda v, t: v,
        x0=x0,
        lipschitz=float(diag.max()),
        tol=1e-9,
        max_iters=2000,
    )
    assert f(x) <= f(x0)
    np.testing.assert_allclose(x, c, atol=1e-5)


def test_apg_solve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        apg_solve(
            lambda v: (0.0, v), lambda v, image: v, lambda v: 0.0, lambda v, t: v,
            np.zeros(2), 0.0, 1e-6, 10,
        )
    with pytest.raises(SolverError):
        apg_solve(
            lambda v: (math.inf, v), lambda v, image: v, lambda v: 0.0, lambda v, t: v,
            np.zeros(2), 1.0, 1e-6, 10,
        )


def test_apg_solve_carries_the_affine_image_of_every_point():
    # f(x) = 0.5 ||Mx - c||^2 with image Mx - c: the image handed to each
    # gradient, extrapolated ones included, is the one formed directly.
    rng = make_rng(21)
    M = rng.standard_normal((12, 8)) @ np.diag(np.logspace(0, 1, 8))
    c = rng.standard_normal(12)
    lam = 0.3
    worst = [0.0]
    calls = {"grad": 0, "prox": 0}

    def smooth_grad(v, image):
        calls["grad"] += 1
        direct = M @ v - c
        worst[0] = max(worst[0], float(np.linalg.norm(image - direct) / np.linalg.norm(direct)))
        return M.T @ image

    def prox(v, t):
        calls["prox"] += 1
        return soft_threshold(v, lam * t)

    def smooth_eval(v):
        r = M @ v - c
        return 0.5 * float(r @ r), r

    def nonsmooth_eval(v):
        return lam * float(np.abs(v).sum())

    x0 = rng.standard_normal(8)
    x, cert, it = apg_solve(
        smooth_eval=smooth_eval,
        smooth_grad=smooth_grad,
        nonsmooth_eval=nonsmooth_eval,
        prox=prox,
        x0=x0,
        lipschitz=float(np.linalg.norm(M, 2) ** 2),
        tol=1e-10,
        max_iters=2000,
    )
    assert cert <= 1e-10
    # Both paths ran: accelerated steps and monotone restarts.
    assert calls["prox"] > it > 1
    assert calls["grad"] == calls["prox"]
    assert worst[0] <= 1e-12
    assert smooth_eval(x)[0] + nonsmooth_eval(x) <= smooth_eval(x0)[0] + nonsmooth_eval(x0)


def _identity_composite(n):
    return CompositeModel(
        map_eval=lambda x: x.copy(),
        jac_at=lambda x: (lambda v: v, lambda s: s),
        outer_eval=lambda t: 0.5 * float(t @ t),
        outer_grad=lambda t: t,
        outer_grad_lipschitz=1.0,
        nonsmooth_eval=lambda x: 0.0,
        nonsmooth_prox=lambda v, t: v,
        dim=n,
    )


def test_prox_linear_step_identity_map_shrinks():
    # With map = identity and quadratic loss the model step has the closed
    # form x_k / (1 + tau).
    model = _identity_composite(3)
    x_k = np.array([3.0, -1.5, 0.75])
    tau = 0.5
    config = ProxLinearConfig(tau=tau, inner_tol=1e-12, inner_max_iters=500)
    x_new, cert, _ = prox_linear_step(model, x_k, tau, config, make_rng(0))
    np.testing.assert_allclose(x_new, x_k / 1.5, atol=1e-10)
    assert cert <= 1e-12


def test_prox_linear_iterates_form_geometric_sequence():
    model = _identity_composite(2)
    tau = 2.0
    config = ProxLinearConfig(tau=tau, inner_tol=1e-13, inner_max_iters=1000)
    x = np.array([1.0, -1.0])
    for k in range(1, 5):
        x, _, _ = prox_linear_step(model, x, tau, config, make_rng(k))
        np.testing.assert_allclose(x, np.array([1.0, -1.0]) / 3.0**k, atol=1e-8)


def test_logistic_composite_model_parts():
    data = synthetic_generate(5, 7, make_rng(3))
    model = logistic_composite_model(data, 0.1, 0.2)
    rng = make_rng(10)
    xi = rng.standard_normal(model.dim)
    x1, x2, x3 = unpack_blocks(xi, 5)

    # The map gives the unlabelled scores; the loss applies the labels.
    np.testing.assert_allclose(model.map_eval(xi), phi_eval(data, x1, x2, x3), rtol=1e-14)

    # Jacobian actions: forward vs finite differences, adjoint vs pairing.
    j_apply, j_adjoint = model.jac_at(xi)
    v = rng.standard_normal(model.dim)
    eps = 1e-6
    fd = (model.map_eval(xi + eps * v) - model.map_eval(xi - eps * v)) / (2 * eps)
    np.testing.assert_allclose(j_apply(v), fd, rtol=1e-5, atol=1e-8)
    s = rng.standard_normal(7)
    lhs = float(j_apply(v) @ s)
    rhs = float(v @ j_adjoint(s))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    t = rng.standard_normal(7)
    assert model.outer_eval(t) == pytest.approx(
        sum(math.log1p(math.exp(-bi * ti)) for bi, ti in zip(data.b, t)) / 7.0
    )
    fd_g = np.empty(7)
    for k in range(7):
        e = np.zeros(7)
        e[k] = eps
        fd_g[k] = (model.outer_eval(t + e) - model.outer_eval(t - e)) / (2 * eps)
    np.testing.assert_allclose(model.outer_grad(t), fd_g, rtol=1e-6, atol=1e-10)
    assert model.outer_grad_lipschitz == pytest.approx(1.0 / 28.0)

    # Prox thresholds the two weight segments at their own weights and
    # leaves the intercept alone.
    u = rng.standard_normal(model.dim)
    got = model.nonsmooth_prox(u, 2.0)
    np.testing.assert_allclose(got[:5], soft_threshold(u[:5], 0.2), rtol=1e-14)
    np.testing.assert_allclose(got[5:10], soft_threshold(u[5:10], 0.4), rtol=1e-14)
    assert got[10] == u[10]
    assert model.nonsmooth_eval(u) == pytest.approx(
        0.1 * np.abs(u[:5]).sum() + 0.2 * np.abs(u[5:10]).sum()
    )


def _linear_scores(data, w):
    # A^T w, as the linear part of the public score map.
    return phi_eval(data, np.zeros(data.d), w, 0.0)


def _blockwise_composite(data, lam1, lam2):
    # The classifier model with its map and Jacobian actions rebuilt block by
    # block from the public closed forms: two products per action.
    d = data.d

    def map_eval(xi):
        return phi_eval(data, *unpack_blocks(xi, d))

    def jac_at(xi):
        x1 = xi[:d]
        u = _linear_scores(data, x1)

        def j_apply(v):
            v1, v2, v3 = unpack_blocks(v, d)
            return 2.0 * u * _linear_scores(data, v1) + _linear_scores(data, v2) + v3

        def j_adjoint(s):
            return np.concatenate([phi_jac_block_apply(data, i, x1, s) for i in range(3)])

        return j_apply, j_adjoint

    return replace(logistic_composite_model(data, lam1, lam2), map_eval=map_eval, jac_at=jac_at)


@pytest.mark.parametrize("d, q", [(40, 7), (5, 7)])
def test_logistic_jacobian_actions_match_blockwise_closed_forms(d, q):
    data = synthetic_generate(d, q, make_rng(4))
    model = logistic_composite_model(data, 0.01, 0.02)
    reference = _blockwise_composite(data, 0.01, 0.02)
    rng = make_rng(14)
    xi = rng.standard_normal(model.dim)
    v = rng.standard_normal(model.dim)
    s = rng.standard_normal(q)

    np.testing.assert_allclose(model.map_eval(xi), reference.map_eval(xi), rtol=1e-12)
    j_apply, j_adjoint = model.jac_at(xi)
    ref_apply, ref_adjoint = reference.jac_at(xi)
    np.testing.assert_allclose(j_apply(v), ref_apply(v), rtol=1e-12)
    np.testing.assert_allclose(j_adjoint(s), ref_adjoint(s), rtol=1e-12)

    # One outer step agrees with the blockwise model's step, iteration for
    # iteration.
    tau = default_tau(data)
    config = ProxLinearConfig(tau=tau)
    x_new, _, inner = prox_linear_step(model, xi, tau, config, make_rng(5))
    ref_new, _, ref_inner = prox_linear_step(reference, xi, tau, config, make_rng(5))
    np.testing.assert_allclose(x_new, ref_new, rtol=1e-10)
    assert inner == ref_inner


def _count_products(data):
    """Give ``data`` a view of A that counts matrix products; returns the count."""
    count = [0]

    class CountingMatrix(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                count[0] += 1
            plain = tuple(np.asarray(x) if isinstance(x, CountingMatrix) else x for x in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    object.__setattr__(data, "A", data.A.view(CountingMatrix))
    return count


def test_logistic_jacobian_actions_make_one_pass_over_a():
    data = synthetic_generate(40, 7, make_rng(4))
    products = _count_products(data)
    model = logistic_composite_model(data, 0.01, 0.02)
    rng = make_rng(15)
    xi = rng.standard_normal(model.dim)
    j_apply, j_adjoint = model.jac_at(xi)

    def count(fn, arg):
        before = products[0]
        fn(arg)
        return products[0] - before

    assert count(j_apply, rng.standard_normal(model.dim)) == 1
    assert count(j_adjoint, rng.standard_normal(7)) == 1
    assert count(model.map_eval, xi) == 1


def test_apg_inner_iterations_make_two_products_each(monkeypatch):
    # One forward and one adjoint product per inner iteration: the
    # extrapolated point's image is combined, not formed. The start forms
    # one image, and each restart one gradient and one image.
    data = synthetic_generate(200, 30, make_rng(16))
    products = _count_products(data)
    model = logistic_composite_model(data, 0.001, 0.01)
    prox_calls = [0]
    prox = model.nonsmooth_prox

    def counted_prox(v, t):
        prox_calls[0] += 1
        return prox(v, t)

    model = replace(model, nonsmooth_prox=counted_prox)
    solves = []

    def counted_apg(*args):
        products0, prox0 = products[0], prox_calls[0]
        x, cert, it = apg_solve(*args)
        solves.append((products[0] - products0, it, prox_calls[0] - prox0 - it))
        return x, cert, it

    monkeypatch.setattr(proxlinear, "apg_solve", counted_apg)
    x_blocks, _, _ = initial_state(data, 1)
    x = pack_blocks(x_blocks.blocks[0], x_blocks.blocks[1], x_blocks.blocks[2][0])
    tau = default_tau(data)
    config = ProxLinearConfig(tau=tau)
    for k in range(1, 6):
        x, _, _ = prox_linear_step(model, x, tau, config, make_rng(k))
    assert len(solves) == 5
    assert sum(restarts for _, _, restarts in solves) > 0
    for count, it, restarts in solves:
        assert count <= 2 * it + 1 + 2 * restarts


def test_default_tau_on_unit_columns():
    data = synthetic_generate(20, 9, make_rng(5))
    np.testing.assert_allclose(data.column_norms, np.ones(9), rtol=1e-12)
    assert default_tau(data) == pytest.approx(2.0 * math.sqrt(9.0))


def test_pack_unpack_roundtrip():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([-3.0, 4.0])
    xi = pack_blocks(x1, x2, 5.0)
    np.testing.assert_array_equal(xi, [1.0, 2.0, -3.0, 4.0, 5.0])
    b1, b2, b3 = unpack_blocks(xi, 2)
    np.testing.assert_array_equal(b1, x1)
    np.testing.assert_array_equal(b2, x2)
    assert b3 == 5.0


def test_run_proxlinear_descends_and_traces():
    data = synthetic_generate(30, 10, make_rng(8))
    config = ProxLinearConfig(max_outer_iters=40)
    res = run_proxlinear(data, 0.001, 0.1, config)
    assert res.stop_reason == "max_iters"
    assert res.iterations == 40
    assert res.violations == []
    fits = [rec.fit for rec in res.trace]
    assert [rec.k for rec in res.trace] == list(range(1, 41))
    for a, b in zip(fits, fits[1:]):
        assert b <= a + 1e-6
    x_blocks, _, _ = initial_state(data, 0)
    start_fit = fitting_error(
        data, x_blocks.blocks[0], x_blocks.blocks[1], x_blocks.blocks[2][0], 0.001, 0.1
    )
    assert fits[-1] < start_fit
    # Columns that only apply to the block solver are nan in this trace.
    assert math.isnan(res.trace[0].lagrangian) and math.isnan(res.trace[0].r_y)
    assert res.inner_iters_total >= res.iterations


def test_run_proxlinear_trace_stride_keeps_final():
    data = synthetic_generate(12, 6, make_rng(9))
    config = ProxLinearConfig(max_outer_iters=10, trace_stride=4)
    res = run_proxlinear(data, 0.01, 0.01, config)
    assert [rec.k for rec in res.trace] == [4, 8, 10]


def test_run_proxlinear_stop_reasons():
    data = synthetic_generate(10, 5, make_rng(11))
    res = run_proxlinear(data, 0.01, 0.01, ProxLinearConfig(stop_epsilon=1e6, max_outer_iters=50))
    assert res.stop_reason == "epsilon" and res.iterations == 1
    res_b = run_proxlinear(
        data, 0.01, 0.01, ProxLinearConfig(wall_clock_budget=0.0, max_outer_iters=50)
    )
    assert res_b.stop_reason == "budget" and res_b.iterations == 1


def test_run_proxlinear_rejects_bad_start():
    data = synthetic_generate(10, 5, make_rng(12))
    with pytest.raises(ValueError):
        run_proxlinear(data, 0.01, 0.01, ProxLinearConfig(max_outer_iters=2), x0=np.zeros(3))


def test_run_proxlinear_is_deterministic():
    data = synthetic_generate(15, 8, make_rng(13))
    config = ProxLinearConfig(max_outer_iters=10, seed=4)
    a = run_proxlinear(data, 0.005, 0.05, config)
    b = run_proxlinear(data, 0.005, 0.05, config)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.final_certificate == b.final_certificate
    assert [r.fit for r in a.trace] == [r.fit for r in b.trace]
