import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from madmm.data import make_rng
from madmm.model import (
    BlockNonsmooth,
    BlockSmoothTerm,
    BlockVector,
    NonlinearMap,
    ProblemSpec,
    SmoothTerm,
    l1_nonsmooth,
    scaled_identity_map,
    shift_minimized_residual,
    smooth_part_value,
    soft_threshold,
    zero_nonsmooth,
)
from madmm.surrogates import (
    BACKTRACK_MIN_RATIO,
    SurrogateError,
    SurrogateSpec,
    bregman_divergence,
    mm_block_update,
    quadratic_kernel,
    quartic_kernel,
)

from checkers import surrogate_value, verify_surrogate_conditions


def test_kernel_gradients_match_central_differences():
    rng = make_rng(3)
    eps = 1e-6
    for kernel in (quadratic_kernel(), quartic_kernel()):
        v = rng.standard_normal(4)
        grad = kernel.grad(v)
        fd = np.empty(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = eps
            fd[k] = (kernel.eval(v + e) - kernel.eval(v - e)) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_quartic_kernel_values():
    k = quartic_kernel()
    v = np.array([1.0, 0.0])
    assert k.eval(v) == pytest.approx(0.75)
    np.testing.assert_allclose(k.grad(np.array([2.0, 0.0])), [10.0, 0.0])


def test_bregman_divergence_quadratic_is_half_squared_distance():
    rng = make_rng(9)
    kernel = quadratic_kernel()
    for _ in range(5):
        x = rng.standard_normal(6)
        z = rng.standard_normal(6)
        d = x - z
        assert bregman_divergence(kernel, x, z) == pytest.approx(0.5 * float(d @ d))


def test_bregman_divergence_quartic_point():
    kernel = quartic_kernel()
    assert bregman_divergence(kernel, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.75)


def test_bregman_divergence_quartic_against_fsum_oracle():
    kernel = quartic_kernel()
    rng = make_rng(21)
    for _ in range(20):
        x = rng.standard_normal(5)
        z = rng.standard_normal(5)
        sx = math.fsum(c * c for c in x)
        sz = math.fsum(c * c for c in z)
        gz = [(sz + 1.0) * c for c in z]
        oracle = (
            0.25 * sx * sx
            + 0.5 * sx
            - (0.25 * sz * sz + 0.5 * sz)
            - math.fsum(gz[j] * (x[j] - z[j]) for j in range(5))
        )
        got = bregman_divergence(kernel, x, z)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)
        d = x - z
        assert got >= 0.5 * float(d @ d) - 1e-12
    z = rng.standard_normal(5)
    assert bregman_divergence(kernel, z, z) == 0.0


def _exact_quartic_divergence(x, z):
    """k(x) - k(z) - <grad k(z), x - z> in exact rational arithmetic."""
    xs = [Fraction(float(c)) for c in x]
    zs = [Fraction(float(c)) for c in z]
    sx = sum(c * c for c in xs)
    sz = sum(c * c for c in zs)
    lin = (sz + 1) * sum(b * (a - b) for a, b in zip(xs, zs))
    return sx * sx / 4 + sx / 2 - (sz * sz / 4 + sz / 2) - lin


def test_bregman_divergence_quartic_against_exact_rational_reference():
    # The closed form keeps its digits where the generic difference of
    # kernel values cancels: at ||z||^2 = 1e4 the kernel values are ~2.5e7
    # and the divergence of a 1e-6 step is ~1e-8.
    kernel = quartic_kernel()
    rng = make_rng(31)
    generic_err = 0.0
    for norm_sq in (1.0, 1e4):
        for step in (1.0, 1e-3, 1e-6):
            z = rng.standard_normal(6)
            z *= math.sqrt(norm_sq) / float(np.linalg.norm(z))
            x = z + step * rng.standard_normal(6)
            exact = _exact_quartic_divergence(x, z)
            got = bregman_divergence(kernel, x, z)
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact
            generic = kernel.eval(x) - kernel.eval(z) - float(kernel.grad(z) @ (x - z))
            generic_err = max(generic_err, float(abs(Fraction(generic) - exact) / exact))
    # The reference is sharp enough to tell the two apart.
    assert generic_err > 1e-3


def test_bregman_divergence_shape_mismatch():
    with pytest.raises(ValueError):
        bregman_divergence(quadratic_kernel(), np.zeros(2), np.zeros(3))


def test_surrogate_spec_validation():
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa"):
            SurrogateSpec(kappa=bad, smoothness_const=1.0)
    with pytest.raises(TypeError):
        SurrogateSpec()  # no constant: a required field
    assert SurrogateSpec(smoothness_const=1.0).kernel is quadratic_kernel()


def test_minimize_out_is_validated():
    kernel = quartic_kernel()
    # The field is a block index.
    with pytest.raises(ValueError, match="block index"):
        SurrogateSpec(smoothness_const=1.0, kernel=kernel, minimize_out=-1)

    # Two blocks, the second an intercept: phi(x) = x_0 + x_1 1.
    g = BlockNonsmooth(eval=lambda v: 0.0, custom_solver=lambda sub: sub.z_i, is_convex=True)
    spec = ProblemSpec(
        m=2,
        gs=[g, zero_nonsmooth()],
        h=SmoothTerm(eval=lambda y: 0.5 * float(y @ y), grad=lambda y: y, lipschitz_const=1.0),
        phi=NonlinearMap(
            eval=lambda x: x.blocks[0] + x.blocks[1][0],
            jac_block_apply=lambda i, x, w: w if i == 0 else np.array([w.sum()]),
            out_dim=3,
        ),
        B=scaled_identity_map(-1.0, 3),
    )
    x = BlockVector([np.ones(3), np.zeros(1)])
    y = np.zeros(3)
    w = np.zeros(3)

    def step(out, on=spec):
        sur = SurrogateSpec(smoothness_const=1.0, kernel=kernel, minimize_out=out)
        return mm_block_update(0, sur, on, x, y, w, 1.0)

    with pytest.raises(SurrogateError, match="itself"):
        step(0)
    with pytest.raises(SurrogateError, match="there are 2 blocks"):
        step(2)
    coupled = replace(
        spec,
        smooth_f=BlockSmoothTerm(eval=lambda x: 0.0, block_grad=lambda i, x: np.zeros_like(x.blocks[i])),
    )
    with pytest.raises(SurrogateError, match="coupling term"):
        step(1, coupled)
    # Accepted: x_0 stays put, and the intercept lands on minus the mean of x_0.
    res = step(1)
    np.testing.assert_array_equal(res.x_new, np.ones(3))
    assert res.x.blocks[0] is x.blocks[0]
    np.testing.assert_allclose(res.x.blocks[1], [-1.0], rtol=1e-15)
    # Without minimize_out the null step returns the iterate itself.
    assert step(None).x is x


def _single_block_spec(n, shift=None, g=None):
    """One block, phi(x) = x - shift, B = -I, quadratic h.

    With w = 0, y = 0, beta = 1 the smooth-in-x part is (1/2)||x - shift||^2.
    """
    shift = np.zeros(n) if shift is None else shift
    phi = NonlinearMap(
        eval=lambda x: x.blocks[0] - shift,
        jac_block_apply=lambda i, x, w: np.asarray(w, dtype=np.float64),
        out_dim=n,
    )
    h = SmoothTerm(eval=lambda y: 0.5 * float(y @ y), grad=lambda y: y, lipschitz_const=1.0)
    return ProblemSpec(
        m=1,
        gs=[g if g is not None else zero_nonsmooth()],
        h=h,
        phi=phi,
        B=scaled_identity_map(-1.0, n),
    )


def test_mm_update_exact_gradient_step_lands_on_target():
    c = np.array([1.5, -2.0, 0.25])
    spec = _single_block_spec(3, shift=c)
    sur = SurrogateSpec(kappa=1.0, smoothness_const=1.0)
    x = BlockVector([np.array([5.0, 5.0, 5.0])])
    res = mm_block_update(0, sur, spec, x, np.zeros(3), np.zeros(3), 1.0)
    np.testing.assert_allclose(res.x_new, c, atol=1e-14)
    np.testing.assert_allclose(res.surrogate_grad, np.zeros(3), atol=1e-12)
    assert res.eta == pytest.approx(1e-8)  # kappa = 1 clamps to the floor
    assert res.divergence == pytest.approx(0.5 * float((c - x.blocks[0]) @ (c - x.blocks[0])))
    assert res.smoothness == 1.0


def test_mm_update_soft_threshold_case():
    # Gradient at z equals w when the residual vanishes; with unit kappa*L
    # the step is a soft-threshold of -w at the l1 weight.
    spec = _single_block_spec(2, g=l1_nonsmooth(1.0))
    sur = SurrogateSpec(kappa=1.0, smoothness_const=1.0)
    x = BlockVector([np.zeros(2)])
    w = np.array([2.0, -0.5])
    res = mm_block_update(0, sur, spec, x, np.zeros(2), w, 1.0)
    np.testing.assert_allclose(res.x_new, [-1.0, 0.0], atol=1e-15)


def test_mm_update_prox_route_matches_scalar_loop_oracle():
    rng = make_rng(17)
    lam = 0.35
    spec = _single_block_spec(6, shift=rng.standard_normal(6), g=l1_nonsmooth(lam))
    sur = SurrogateSpec(kappa=1.3, smoothness_const=2.0)
    x = BlockVector([rng.standard_normal(6)])
    y = rng.standard_normal(6)
    w = rng.standard_normal(6)
    beta = 1.0
    res = mm_block_update(0, sur, spec, x, y, w, beta)

    # Scalar re-derivation: minimize <grad, v-z> + (coeff/2)||v-z||^2 + lam|v|_1
    # coordinate by coordinate from the definition. Here phi(x) = x - shift
    # and B = -I, so the residual is x - shift - y and the block gradient of
    # the penalty is w + beta * residual.
    coeff = 1.3 * 2.0
    r = spec.phi.eval(x) - y
    grad = w + beta * r
    oracle = np.empty(6)
    for j in range(6):
        t = x.blocks[0][j] - grad[j] / coeff
        lam_t = lam / coeff
        oracle[j] = math.copysign(max(abs(t) - lam_t, 0.0), t)
    np.testing.assert_allclose(res.x_new, oracle, rtol=1e-12, atol=1e-14)

    # Minimizer property: the subproblem objective at x_new is no worse
    # than at the anchor or at random probes.
    def sub_obj(v):
        return surrogate_value(sur, spec, 0, x, y, w, beta, v) + lam * float(np.abs(v).sum())

    base = sub_obj(res.x_new)
    assert base <= sub_obj(x.blocks[0]) + 1e-12
    for _ in range(100):
        assert base <= sub_obj(res.x_new + 0.3 * rng.standard_normal(6)) + 1e-12


def test_mm_update_raises_without_prox_or_solver():
    # A block with neither a prox nor a custom solver cannot step under
    # any kernel, and a prox alone does not solve a non-quadratic kernel.
    message = "block 0 needs a custom solver, or a prox under the quadratic kernel"
    spec = _single_block_spec(2, g=BlockNonsmooth(eval=lambda v: 0.0))
    x = BlockVector([np.zeros(2)])
    for kernel in (quadratic_kernel(), quartic_kernel()):
        sur = SurrogateSpec(kappa=1.1, smoothness_const=1.0, kernel=kernel)
        with pytest.raises(SurrogateError, match=message):
            mm_block_update(0, sur, spec, x, np.zeros(2), np.zeros(2), 1.0)
    sur_q = SurrogateSpec(kappa=1.1, smoothness_const=1.0, kernel=quartic_kernel())
    spec_l1 = _single_block_spec(2, g=l1_nonsmooth(1.0))
    with pytest.raises(SurrogateError, match=message):
        mm_block_update(0, sur_q, spec_l1, x, np.zeros(2), np.zeros(2), 1.0)


def test_bregman_backtracking_grows_from_warm_start_until_majorized():
    # phi(x) = x - shift and B = -I: the smooth part is a quadratic whose
    # curvature relative to the quadratic kernel is exactly beta = 1.
    rng = make_rng(41)
    shift = rng.standard_normal(4)

    def solve(sub):
        return sub.z_i - sub.grad / sub.coeff

    g = BlockNonsmooth(eval=lambda v: 0.0, custom_solver=solve, is_convex=True)
    spec = _single_block_spec(4, shift=shift, g=g)
    x = BlockVector([rng.standard_normal(4)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    sur = SurrogateSpec(kappa=1.5, smoothness_const=10.0)

    # No previous constant: the ceiling, untested.
    first = mm_block_update(0, sur, spec, x, y, w, 1.0)
    assert first.smoothness == 10.0

    # From 0.9 * 0.1 the constant doubles until it passes beta = 1.
    res = mm_block_update(0, sur.for_step(0.1), spec, x, y, w, 1.0)
    assert res.smoothness == pytest.approx(0.09 * 2.0**4)
    assert res.eta == pytest.approx(0.5 * res.smoothness)
    x_new = x.with_block(0, res.x_new)
    psi_z = smooth_part_value(spec, x, y, w, 1.0)
    grad = w + (spec.phi.eval(x) - y)
    d = res.x_new - x.blocks[0]
    model = psi_z + float(grad @ d) + res.smoothness * 0.5 * float(d @ d)
    assert smooth_part_value(spec, x_new, y, w, 1.0) <= model

    # A start above the ceiling is clamped to it.
    high = mm_block_update(0, sur.for_step(50.0), spec, x, y, w, 1.0)
    assert high.smoothness == 10.0

    # A block with a flat smooth part passes every test; the start is
    # floored at a fixed share of the ceiling.
    flat = ProblemSpec(
        m=1,
        gs=[g],
        h=SmoothTerm(eval=lambda v: 0.0, grad=np.zeros_like, lipschitz_const=1.0),
        phi=NonlinearMap(
            eval=lambda x: np.zeros(4),
            jac_block_apply=lambda i, x, v: np.zeros(4),
            out_dim=4,
        ),
        B=scaled_identity_map(-1.0, 4),
    )
    floor = mm_block_update(0, sur.for_step(1e-300), flat, x, y, w, 1.0)
    assert floor.smoothness == pytest.approx(10.0 * BACKTRACK_MIN_RATIO)


def test_exactly_quadratic_block_accepts_its_ceiling_on_every_step():
    # Criterion 5's shape: f = (1/2)||x||^2 and phi(x) = x, so the smooth
    # part's curvature is exactly the ceiling 1 + beta. Every try below it
    # fails its test, and each step lands on the closed-form gradient step.
    n, beta, kappa = 6, 8.0, 1.1
    ceiling = 1.0 + beta
    f = BlockSmoothTerm(
        eval=lambda x: 0.5 * float(x.blocks[0] @ x.blocks[0]),
        block_grad=lambda i, x: x.blocks[i].copy(),
    )
    spec = replace(_single_block_spec(n), smooth_f=f)
    sur = SurrogateSpec(kappa=kappa, smoothness_const=ceiling)
    rng = make_rng(57)
    x = BlockVector([2.0 * rng.standard_normal(n)])
    prev = None
    for _ in range(10):
        y = rng.standard_normal(n)
        w = rng.standard_normal(n)
        res = mm_block_update(0, sur.for_step(prev), spec, x, y, w, beta)
        z = x.blocks[0]
        grad = z + w + beta * (z - y)
        assert res.smoothness == ceiling
        np.testing.assert_allclose(res.x_new, z - grad / (kappa * ceiling), rtol=1e-13, atol=1e-15)
        prev = res.smoothness
        x = BlockVector([res.x_new])


def test_null_steps_keep_the_constant_a_later_move_needs():
    # g = ||.||_1 at x = 0 and smooth part (1/2)||x - shift||^2: the block
    # stays at 0 while |shift| <= 1, and its curvature is exactly 1.
    tries = [0]
    l1 = l1_nonsmooth(1.0)

    def prox(v, t):
        tries[0] += 1
        return l1.prox(v, t)

    g = replace(l1, prox=prox)
    still = _single_block_spec(3, shift=np.full(3, 0.5), g=g)
    moving = _single_block_spec(3, shift=np.full(3, 3.0), g=g)
    sur = SurrogateSpec(kappa=1.0, smoothness_const=1.0)
    x = BlockVector([np.zeros(3)])
    y = w = np.zeros(3)
    prev = None
    for _ in range(300):
        res = mm_block_update(0, sur.for_step(prev), still, x, y, w, 1.0)
        assert res.divergence == 0.0 and res.x is x
        prev = res.smoothness
    # Its constant did not decay toward the floor, so the moving step
    # fails once at 0.9 and is then taken at the ceiling.
    tries[0] = 0
    res = mm_block_update(0, sur.for_step(prev), moving, x, y, w, 1.0)
    assert res.divergence > 0.0
    assert tries[0] <= 3
    assert res.smoothness == 1.0


def test_null_step_after_a_failed_try_returns_the_anchor_iterate():
    # The first try (below the ceiling) moves the block and fails its test;
    # the try at the grown constant does not move it. The step is then a
    # null step, and the rejected trial must not leak into its iterate.
    coeffs = []

    def solve(sub):
        coeffs.append(sub.coeff)
        return sub.z_i + np.array([1.0, 0.0, 0.0]) if len(coeffs) == 1 else sub.z_i

    g = BlockNonsmooth(eval=lambda v: 0.0, custom_solver=solve, is_convex=True)
    y = w = np.zeros(3)
    sur = SurrogateSpec(kappa=1.0, smoothness_const=10.0)

    # One block, curvature 1: the try at 0.45 fails.
    spec = _single_block_spec(3, g=g)
    x = BlockVector([np.array([1.0, 2.0, 4.0])])
    res = mm_block_update(0, sur.for_step(0.5), spec, x, y, w, 1.0)
    assert len(coeffs) == 2
    assert res.divergence == 0.0 and res.x is x

    # An intercept minimized out, phi(x) = x_0 + x_1 1: only the intercept
    # moves, by the anchor's own shift.
    spec = ProblemSpec(
        m=2,
        gs=[g, zero_nonsmooth()],
        h=spec.h,
        phi=NonlinearMap(
            eval=lambda x: x.blocks[0] + x.blocks[1][0],
            jac_block_apply=lambda i, x, w: w if i == 0 else np.array([w.sum()]),
            out_dim=3,
        ),
        B=spec.B,
    )
    x = BlockVector([np.array([1.0, 2.0, 4.0]), np.zeros(1)])
    coeffs.clear()
    res = mm_block_update(0, replace(sur, minimize_out=1).for_step(0.5), spec, x, y, w, 1.0)
    assert len(coeffs) == 2
    assert res.divergence == 0.0
    assert res.x.blocks[0] is x.blocks[0]
    np.testing.assert_array_equal(
        res.x.blocks[1], x.blocks[1] + shift_minimized_residual(spec, x, y, w, 1.0)[1]
    )


def test_step_inputs_are_not_part_of_the_surrogate_config():
    # prev_const describes one step: it cannot be set at construction, and
    # a copy made with replace() drops it.
    with pytest.raises(TypeError):
        SurrogateSpec(smoothness_const=1.0, prev_const=0.5)
    sur = SurrogateSpec(kappa=1.5, smoothness_const=10.0)
    step = sur.for_step(0.1)
    assert sur.prev_const is None
    assert step.prev_const == 0.1 and step == sur
    again = replace(step, kappa=2.0)
    assert again.prev_const is None


def test_verify_conditions_checks_the_constant_a_step_accepted():
    # The smooth part has curvature 1 against the quadratic kernel; the
    # ceiling is 10 and the search from 0.1 accepts 0.09 * 2**4 = 1.44.
    rng = make_rng(47)
    shift = rng.standard_normal(4)
    g = BlockNonsmooth(
        eval=lambda v: 0.0, custom_solver=lambda sub: sub.z_i - sub.grad / sub.coeff
    )
    spec = _single_block_spec(4, shift=shift, g=g)
    x = BlockVector([rng.standard_normal(4)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    sur = SurrogateSpec(kappa=1.5, smoothness_const=10.0)
    res = mm_block_update(0, sur.for_step(0.1), spec, x, y, w, 1.0)
    assert res.smoothness < 10.0
    accepted = verify_surrogate_conditions(
        sur, spec, 0, x, y, w, 1.0, res.x_new, n_probes=0, smoothness=res.smoothness
    )
    assert accepted.violations == []
    assert accepted.eta == pytest.approx(0.5 * res.smoothness)
    ceiling = verify_surrogate_conditions(sur, spec, 0, x, y, w, 1.0, res.x_new, n_probes=0)
    assert ceiling.eta == pytest.approx(5.0)
    # Half the curvature does not majorize along the step, and the probe says so.
    low = verify_surrogate_conditions(
        sur, spec, 0, x, y, w, 1.0, res.x_new, n_probes=0, smoothness=0.5
    )
    assert not low.majorization_ok and not low.error_bound_ok


def test_prox_route_and_custom_solver_give_the_same_step():
    # Under the quadratic kernel the prox solves the subproblem, so a custom
    # solver that implements the same prox must land on the same point and
    # report the same decrease data, at the ceiling and below it.
    rng = make_rng(31)
    lam = 0.2
    c = rng.standard_normal(4)

    def solve(sub):
        return soft_threshold(sub.z_i - sub.grad / sub.coeff, lam / sub.coeff)

    prox_route = l1_nonsmooth(lam)
    custom = BlockNonsmooth(eval=prox_route.eval, custom_solver=solve, is_convex=True)
    spec_prox = _single_block_spec(4, shift=c, g=prox_route)
    spec_custom = _single_block_spec(4, shift=c, g=custom)
    x = BlockVector([rng.standard_normal(4)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    sur = SurrogateSpec(kappa=1.4, smoothness_const=2.5)
    for step in (sur, sur.for_step(0.1)):
        a = mm_block_update(0, step, spec_custom, x, y, w, 1.0)
        b = mm_block_update(0, step, spec_prox, x, y, w, 1.0)
        np.testing.assert_allclose(a.x_new, b.x_new, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(a.surrogate_grad, b.surrogate_grad, rtol=1e-12, atol=1e-14)
        assert a.smoothness == b.smoothness
        assert a.eta == pytest.approx(b.eta)
        assert a.divergence == pytest.approx(b.divergence)
    # The search below the ceiling ran: the curvature is 1 against a ceiling of 2.5.
    assert a.smoothness < 2.5


def test_bregman_quartic_kernel_update_is_first_order_stationary():
    rng = make_rng(33)
    kernel = quartic_kernel()

    def solve(sub):
        def obj(v):
            return float(sub.grad @ (v - sub.z_i)) + sub.coeff * bregman_divergence(
                kernel, v, sub.z_i
            )

        out = minimize(obj, sub.z_i, method="BFGS", options={"gtol": 1e-12})
        return out.x

    g = BlockNonsmooth(eval=lambda v: 0.0, custom_solver=solve, is_convex=True)
    spec = _single_block_spec(3, shift=rng.standard_normal(3), g=g)
    sur = SurrogateSpec(kappa=1.2, smoothness_const=1.5, kernel=kernel)
    x = BlockVector([rng.standard_normal(3)])
    y = rng.standard_normal(3)
    w = rng.standard_normal(3)
    res = mm_block_update(0, sur, spec, x, y, w, 1.0)
    # With g = 0, the stored surrogate gradient at the minimizer vanishes.
    np.testing.assert_allclose(res.surrogate_grad, np.zeros(3), atol=1e-7)
    assert res.eta == pytest.approx(0.2 * 1.5)
    assert res.divergence == pytest.approx(
        bregman_divergence(kernel, res.x_new, x.blocks[0])
    )


def test_const_at_callable_and_rejects_bad_values():
    sur = SurrogateSpec(kappa=1.1, smoothness_const=lambda spec, x, y, w, beta: beta * 3.0)
    spec = _single_block_spec(2)
    x = BlockVector([np.zeros(2)])
    got = sur.const_at(spec, x, np.zeros(2), np.zeros(2), 2.0)
    assert got == pytest.approx(6.0)
    bad = SurrogateSpec(kappa=1.1, smoothness_const=lambda *a: -1.0)
    with pytest.raises(SurrogateError):
        bad.const_at(spec, x, np.zeros(2), np.zeros(2), 1.0)


def test_verify_conditions_clean_quadratic():
    rng = make_rng(41)
    spec = _single_block_spec(3, shift=rng.standard_normal(3), g=l1_nonsmooth(0.1))
    sur = SurrogateSpec(kappa=2.0, smoothness_const=1.0)
    x = BlockVector([rng.standard_normal(3)])
    y = rng.standard_normal(3)
    w = rng.standard_normal(3)
    res = mm_block_update(0, sur, spec, x, y, w, 1.0)
    diag = verify_surrogate_conditions(sur, spec, 0, x, y, w, 1.0, res.x_new)
    assert diag.majorization_ok and diag.tangency_ok and diag.error_bound_ok
    assert diag.positive_eta
    assert diag.strong_convexity_ok is True
    assert diag.violations == []
    assert diag.eta == pytest.approx(1.0)
    # On an exactly quadratic smooth part the error equals eta * D.
    u = surrogate_value(sur, spec, 0, x, y, w, 1.0, res.x_new)
    smooth = smooth_part_value(spec, x.with_block(0, res.x_new), y, w, 1.0)
    np.testing.assert_allclose(u - smooth, diag.eta * diag.divergence, rtol=1e-9)


def test_verify_conditions_tight_at_anchor():
    spec = _single_block_spec(2)
    sur = SurrogateSpec(kappa=1.5, smoothness_const=1.0)
    x = BlockVector([np.array([0.3, -0.7])])
    diag = verify_surrogate_conditions(
        sur, spec, 0, x, np.zeros(2), np.zeros(2), 1.0, x.blocks[0]
    )
    assert diag.error_bound_ok and diag.divergence == 0.0


def test_verify_conditions_flags_understated_constant():
    # Claiming a tenth of the true curvature breaks majorization at probes.
    spec = _single_block_spec(3)
    sur = SurrogateSpec(kappa=1.0, smoothness_const=0.1)
    x = BlockVector([np.array([1.0, 2.0, -1.0])])
    y = np.zeros(3)
    w = np.zeros(3)
    res = mm_block_update(0, sur, spec, x, y, w, 1.0)
    diag = verify_surrogate_conditions(sur, spec, 0, x, y, w, 1.0, res.x_new)
    assert not diag.majorization_ok
    assert any("majorization" in v for v in diag.violations)


def test_verify_conditions_flags_zero_eta_bregman():
    kernel = quartic_kernel()

    def solve(sub):
        def obj(v):
            return float(sub.grad @ (v - sub.z_i)) + sub.coeff * bregman_divergence(
                kernel, v, sub.z_i
            )

        return minimize(obj, sub.z_i, method="BFGS", options={"gtol": 1e-12}).x

    g = BlockNonsmooth(eval=lambda v: 0.0, custom_solver=solve, is_convex=True)
    spec = _single_block_spec(2, g=g)
    sur = SurrogateSpec(kappa=1.0, smoothness_const=2.0, kernel=kernel)
    x = BlockVector([np.array([0.4, 0.1])])
    res = mm_block_update(0, sur, spec, x, np.zeros(2), np.zeros(2), 1.0)
    assert res.eta == pytest.approx(1e-8)  # clamped to the floor
    diag = verify_surrogate_conditions(sur, spec, 0, x, np.zeros(2), np.zeros(2), 1.0, res.x_new)
    assert not diag.positive_eta
    assert diag.strong_convexity_ok is None  # diagnostic reserved for the quadratic kernel
