import math

import numpy as np
import pytest

from madmm.data import make_rng
from madmm.model import (
    BlockNonsmooth,
    BlockSmoothTerm,
    BlockVector,
    DomainError,
    LinearMap,
    NonlinearMap,
    ProblemSpec,
    SmoothTerm,
    dense_map,
    eval_augmented_lagrangian,
    eval_feasibility,
    l1_nonsmooth,
    scaled_identity_map,
    smooth_part_block_grad,
    smooth_part_value,
    soft_threshold,
    zero_nonsmooth,
)

from checkers import check_adjoint


def test_block_vector_basics():
    x = BlockVector([np.array([1.0, 2.0]), np.array(3.0)])
    assert x.m == 2 and x.dim == 3
    assert x.blocks[1].shape == (1,)
    y = x.with_block(0, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(x.blocks[0], [1.0, 2.0])  # original untouched
    np.testing.assert_array_equal(y.concat(), [0.0, 0.0, 3.0])
    assert x.diff_norm(y) == pytest.approx(np.sqrt(5.0))
    assert y.blocks[1] is x.blocks[1]  # untouched blocks are shared


def test_block_vector_blocks_are_read_only():
    x = BlockVector([np.array([1.0, 2.0]), np.array(3.0)])
    y = x.with_block(0, np.zeros(2))
    for v in (x, y):
        for i in range(v.m):
            with pytest.raises(ValueError):
                v.blocks[i][0] = 5.0
    with pytest.raises(TypeError):
        x.blocks[0] = np.zeros(2)


def test_block_vector_copies_arrays_it_does_not_own():
    a = np.array([1.0, 2.0])
    x = BlockVector([a])
    y = x.with_block(0, a)
    assert a.flags.writeable
    a[0] = 7.0
    assert x.blocks[0][0] == 1.0 and y.blocks[0][0] == 1.0
    # A read-only view still sees writes to its base, so it is copied too.
    base = np.arange(4.0)
    view = base[:2]
    view.flags.writeable = False
    z = BlockVector([view])
    base[0] = 9.0
    assert z.blocks[0][0] == 0.0
    # Its own frozen blocks are kept as they are.
    assert BlockVector(x.blocks).blocks[0] is x.blocks[0]


def test_scaled_identity_map_constants():
    B = scaled_identity_map(-2.0, 4)
    v = np.arange(4.0)
    np.testing.assert_array_equal(B.apply(v), -2.0 * v)
    assert B.lambda_min_BtB == 4.0
    assert B.sigma_B == 4.0
    assert B.scale == -2.0


def test_dense_map_constants_match_svd():
    rng = make_rng(2)
    M = rng.standard_normal((5, 3))
    B = dense_map(M)
    sv = np.linalg.svd(M, compute_uv=False)
    assert B.lambda_min_BtB == pytest.approx(sv[-1] ** 2)
    assert B.sigma_B == 0.0  # 5x3: BB* is rank deficient
    wide = dense_map(M.T)
    assert wide.lambda_min_BtB == 0.0
    assert wide.sigma_B == pytest.approx(sv[-1] ** 2)


def test_check_adjoint_detects_mismatch():
    M = make_rng(1).standard_normal((4, 4))
    good = dense_map(M)
    assert check_adjoint(good)
    bad = LinearMap(
        apply=lambda v: M @ v,
        adjoint_apply=lambda v: M @ v,
        in_dim=4,
        out_dim=4,
        lambda_min_BtB=good.lambda_min_BtB,
        sigma_B=good.sigma_B,
    )
    assert not check_adjoint(bad)


def test_soft_threshold_against_loop():
    rng = make_rng(7)
    v = rng.standard_normal(40)
    t = 0.3
    out = soft_threshold(v, t)
    ref = np.array([np.sign(c) * max(abs(c) - t, 0.0) for c in v])
    np.testing.assert_allclose(out, ref, atol=0)


def test_l1_nonsmooth_prox_is_exact():
    g = l1_nonsmooth(0.5)
    v = np.array([2.0, -0.4, 0.7])
    np.testing.assert_allclose(g.prox(v, 1.0), [1.5, 0.0, 0.2])
    assert g.eval(v) == pytest.approx(0.5 * 3.1)
    assert g.is_convex
    with pytest.raises(ValueError):
        l1_nonsmooth(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            l1_nonsmooth(bad)


def test_zero_nonsmooth():
    g = zero_nonsmooth()
    v = np.array([1.0, 2.0])
    assert g.eval(v) == 0.0
    np.testing.assert_array_equal(g.prox(v, 5.0), v)


def _toy_spec(d=3, q=4, m=2, seed=0):
    """Small dense instance: phi(x) = M1 x1 + (M2 x2)^2 elementwise mix."""
    rng = make_rng(seed)
    M1 = rng.standard_normal((q, d))
    M2 = rng.standard_normal((q, d))
    Bmat = rng.standard_normal((q, q))

    def phi(x):
        return M1 @ x.blocks[0] + (M2 @ x.blocks[1]) ** 2

    def jac(i, x, w):
        if i == 0:
            return M1.T @ w
        return 2.0 * M2.T @ (w * (M2 @ x.blocks[1]))

    h = SmoothTerm(
        eval=lambda y: 0.5 * float(y @ y),
        grad=lambda y: y,
        lipschitz_const=1.0,
    )
    spec = ProblemSpec(
        m=m,
        gs=[l1_nonsmooth(0.2), zero_nonsmooth()],
        h=h,
        phi=NonlinearMap(eval=phi, jac_block_apply=jac, out_dim=q),
        B=dense_map(Bmat),
    )
    return spec, M1, M2, Bmat


def test_problem_spec_validation():
    spec, *_ = _toy_spec()
    with pytest.raises(ValueError):
        ProblemSpec(m=3, gs=spec.gs, h=spec.h, phi=spec.phi, B=spec.B)
    bad_B = scaled_identity_map(1.0, spec.B.in_dim + 1)
    with pytest.raises(ValueError):
        ProblemSpec(m=2, gs=spec.gs, h=spec.h, phi=spec.phi, B=bad_B)


def test_augmented_lagrangian_matches_fsum_oracle():
    spec, M1, M2, Bmat = _toy_spec()
    rng = make_rng(11)
    x = BlockVector([rng.standard_normal(3), rng.standard_normal(3)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    beta = 1.7

    # Scalar-loop oracle with fsum accumulation, written from the
    # definition: f + sum g_i + h + <w, r> + (beta/2) ||r||^2.
    r = [
        math.fsum(M1[j, k] * x.blocks[0][k] for k in range(3))
        + math.fsum(M2[j, k] * x.blocks[1][k] for k in range(3)) ** 2
        + math.fsum(Bmat[j, k] * y[k] for k in range(4))
        for j in range(4)
    ]
    oracle = math.fsum(
        [
            0.2 * math.fsum(abs(c) for c in x.blocks[0]),
            0.5 * math.fsum(c * c for c in y),
            math.fsum(w[j] * r[j] for j in range(4)),
            0.5 * beta * math.fsum(c * c for c in r),
        ]
    )
    val = eval_augmented_lagrangian(spec, x, y, w, beta)
    np.testing.assert_allclose(val, oracle, rtol=1e-13)
    # The solver hands in the residual it already has; the value is the same.
    assert eval_augmented_lagrangian(spec, x, y, w, beta, eval_feasibility(spec, x, y)) == val

    np.testing.assert_allclose(eval_feasibility(spec, x, y), r, rtol=1e-12)


def test_smooth_part_block_grad_matches_central_differences():
    spec, *_ = _toy_spec()
    rng = make_rng(13)
    x = BlockVector([rng.standard_normal(3), rng.standard_normal(3)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    beta = 0.9
    eps = 1e-6
    for i in range(2):
        grad = smooth_part_block_grad(spec, i, x, y, w, beta)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            up = smooth_part_value(spec, x.with_block(i, x.blocks[i] + e), y, w, beta)
            dn = smooth_part_value(spec, x.with_block(i, x.blocks[i] - e), y, w, beta)
            fd[k] = (up - dn) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_smooth_f_term_contributes():
    spec, *_ = _toy_spec()
    f = BlockSmoothTerm(
        eval=lambda x: 0.5 * sum(float(b @ b) for b in x.blocks),
        block_grad=lambda i, x: x.blocks[i],
    )
    spec_f = ProblemSpec(m=2, gs=spec.gs, h=spec.h, phi=spec.phi, B=spec.B, smooth_f=f)
    rng = make_rng(3)
    x = BlockVector([rng.standard_normal(3), rng.standard_normal(3)])
    y = rng.standard_normal(4)
    w = rng.standard_normal(4)
    base = smooth_part_value(spec, x, y, w, 1.0)
    with_f = smooth_part_value(spec_f, x, y, w, 1.0)
    assert with_f == pytest.approx(base + f.eval(x))
    g0 = smooth_part_block_grad(spec_f, 0, x, y, w, 1.0)
    g0_base = smooth_part_block_grad(spec, 0, x, y, w, 1.0)
    np.testing.assert_allclose(g0, g0_base + x.blocks[0], rtol=1e-12)


def test_domain_error_on_infinite_g():
    spec, *_ = _toy_spec()
    indicator = BlockNonsmooth(eval=lambda v: None, prox=None)
    spec_bad = ProblemSpec(m=2, gs=[indicator, zero_nonsmooth()], h=spec.h, phi=spec.phi, B=spec.B)
    x = BlockVector([np.ones(3), np.ones(3)])
    with pytest.raises(DomainError):
        eval_augmented_lagrangian(spec_bad, x, np.zeros(4), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        eval_augmented_lagrangian(spec, x, np.zeros(4), np.zeros(4), 0.0)
