"""Release-gate checks, one test per acceptance criterion.

Each test prints a single "criterion N: ..." line with the measured
numbers so a full run documents itself. Criteria 1-5 and 8 are
deterministic; criteria 6 and 7 time solvers on the current machine.
Criterion 6 needs the real classification matrices, which are not
bundled: point MADMM_DATA_DIR at a directory containing duke, leukemia
and colon-cancer files in LIBSVM format to enable it.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from madmm.data import libsvm_parse, make_rng, normalize_columns, synthetic_generate
from madmm.logistic import (
    build_problem,
    default_beta,
    fitting_error,
    initial_state,
    l1_quartic_solve,
    logistic_h,
    phi_eval,
    phi_jac_block_apply,
)
from madmm.model import (
    BlockSmoothTerm,
    BlockVector,
    NonlinearMap,
    ProblemSpec,
    SmoothTerm,
    scaled_identity_map,
    soft_threshold,
    zero_nonsmooth,
)
from madmm.proxlinear import ProxLinearConfig, pack_blocks, run_proxlinear, unpack_blocks
from madmm.solver import SolverConfig, run
from madmm.surrogates import SurrogateSpec, quartic_kernel
from madmm.cli import main as cli_main
from madmm.trace import read_trace

SEEDS = (1, 2, 3, 4, 5)


def _madmm_fit(data, lam1, lam2, seed, budget=None, max_iters=10**9, stride=10_000):
    setup = build_problem(data, lam1, lam2)
    x0, y0, w0 = initial_state(data, seed)
    cfg = SolverConfig(
        beta=default_beta(data.q),
        delta_tilde=1.5,
        max_outer_iters=max_iters,
        wall_clock_budget=budget,
        stop_epsilon=0.0,
        diagnostics_level="off",
        trace_stride=stride,
    )
    res = run(setup.spec, setup.surrogates, x0, y0, w0, cfg, fit_fn=setup.fitting)
    return setup.fitting(res.x), res


def _prox_fit(data, lam1, lam2, seed, budget=None, max_iters=10**9, stride=10_000):
    x0b, _, _ = initial_state(data, seed)
    x0 = pack_blocks(x0b.blocks[0], x0b.blocks[1], x0b.blocks[2][0])
    cfg = ProxLinearConfig(
        max_outer_iters=max_iters,
        wall_clock_budget=budget,
        stop_epsilon=0.0,
        seed=seed,
        trace_stride=stride,
    )
    res = run_proxlinear(data, lam1, lam2, cfg, x0=x0)
    x1, x2, x3 = unpack_blocks(res.x, data.d)
    return fitting_error(data, x1, x2, x3, lam1, lam2), res


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share five instrumented runs: synthetic 100x20,
# lambda1=0.001, lambda2=0.1, beta=2.5/q, seeds 1..5, every inequality
# checked, every iteration traced. 501 iterations are run so the decay
# quantities (which look one iteration ahead) are defined up to k=500.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inequality_runs():
    runs = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        data = synthetic_generate(100, 20, make_rng(seed))
        setup = build_problem(data, 0.001, 0.1)
        x0, y0, w0 = initial_state(data, seed)
        cfg = SolverConfig(
            beta=default_beta(data.q),
            delta_tilde=1.5,
            max_outer_iters=501,
            stop_epsilon=0.0,
            diagnostics_level="full_lyapunov",
            trace_stride=1,
        )
        res = run(setup.spec, setup.surrogates, x0, y0, w0, cfg, fit_fn=setup.fitting)
        runs[seed] = (res, setup, data)
    return runs, time.perf_counter() - t0


def test_criterion_1_decrease_invariants(inequality_runs):
    runs, elapsed = inequality_runs
    for seed, (res, _, _) in runs.items():
        assert res.iterations == 501
        assert res.violations == [], f"seed {seed}: {res.violations[:3]}"
        assert len(res.trace) == 501
    assert elapsed < 10.0, f"inequality suite took {elapsed:.2f}s"
    print(
        f"criterion 1: PASS - per-block/y-step/Lyapunov inequalities held on "
        f"{len(runs)} seeds x 501 iterations, zero violations, {elapsed:.2f}s total"
    )


def test_criterion_2_residual_decay(inequality_runs):
    runs, _ = inequality_runs
    summed_ok = []
    sqrt_rows = []
    for seed, (res, setup, _) in runs.items():
        recs = res.trace
        assert [r.k for r in recs] == list(range(1, 502))
        lh = setup.spec.h.lipschitz_const
        beta = default_beta(20)
        coef = 3.0 * (1.5 - 1.0) * (2.0 * lh) ** 2 / (2.0 * beta * 1.0)
        eta = res.min_eta
        dx = [r.dx for r in recs]
        dy = [r.dy for r in recs]
        terms = [
            0.5 * eta * dx[j] ** 2 + coef * (dy[j] ** 2 + dy[j - 1] ** 2)
            for j in range(1, 501)
        ]
        v10 = 10.0 * min(terms[:10])
        v500 = 500.0 * min(terms[:500])
        assert v500 <= 10.0 * v10 * (1 + 1e-12), f"seed {seed}: {v500} vs 10*{v10}"
        summed_ok.append((seed, v500 / v10))

        combined = np.array([max(max(r.r_blocks), r.r_y, r.r_c) for r in recs[:500]])
        min_so_far = np.minimum.accumulate(combined)
        c_fit = min_so_far[9] * math.sqrt(10.0)
        ks = np.arange(10, 501)
        ratios = min_so_far[9:500] * np.sqrt(ks) / c_fit
        worst_k = int(ks[int(np.argmax(ratios))])
        sqrt_rows.append((seed, float(ratios[-1]), float(ratios.max()), worst_k))

    # The method promises min_{j<=k} R_j <= C/sqrt(k); like the summed-step
    # clause, the bound with C fitted at k=10 is tested at k=500. Ratios
    # between the two points are reported, not asserted.
    at_500 = max(r for _, r, _, _ in sqrt_rows)
    detail = ", ".join(
        f"seed {s}: {r:.3g} at k=500, worst {w:.3g} at k={k}" for s, r, w, k in sqrt_rows
    )
    summed = ['%.3g' % r for _, r in summed_ok]
    if at_500 <= 1.0 + 1e-12:
        print(
            f"criterion 2: PASS - summed-step decay ratios {summed}, sqrt-decay "
            f"ratio at k=500 at most {at_500:.3g} with C fitted at k=10 ({detail})"
        )
        return
    print(
        f"criterion 2: FAIL - summed-step clause passed (ratios {summed}, all <= 10) "
        f"but the min-so-far combined residual exceeds C/sqrt(k) at k=500 with "
        f"C fitted at k=10: {detail}"
    )
    pytest.fail(
        "sqrt-decay clause failed: sqrt(500) * min_{j<=500} R_j exceeds "
        f"sqrt(10) * min_{{j<=10}} R_j. Per-seed ratios: {detail}."
    )


def test_criterion_3_cubic_solver_oracle():
    t0 = time.perf_counter()
    rng = make_rng(77)
    n, dmax = 1000, 10
    dims = rng.integers(1, dmax + 1, size=n)
    scales = np.tile([0.5, 1.0, 3.0], n // 3 + 1)[:n]
    c = rng.standard_normal((n, dmax)) * scales[:, None]
    c *= np.arange(dmax)[None, :] < dims[:, None]
    lam = rng.uniform(0.0, 1.5, size=n)
    lam[::10] = 0.0
    ell = rng.uniform(0.1, 3.0, size=n)

    xs = np.zeros((n, dmax))
    for i in range(n):
        xs[i, : dims[i]] = l1_quartic_solve(c[i, : dims[i]], lam[i], ell[i])

    # Independent check: batched proximal gradient on the same objectives,
    # started from zero, step from the curvature bound on the level set
    # reachable from zero (monotone descent keeps iterates inside it).
    cnorm = np.linalg.norm(c, axis=1)
    tbar = np.minimum(np.cbrt(4.0 * cnorm / ell), 2.0 * cnorm / ell)
    step = 1.0 / (ell * (3.0 * tbar**2 + 1.0))
    v = np.zeros_like(c)
    for _ in range(4000):
        s = np.sum(v * v, axis=1, keepdims=True)
        grad = c + ell[:, None] * (s + 1.0) * v
        u = v - step[:, None] * grad
        v = np.sign(u) * np.maximum(np.abs(u) - (lam * step)[:, None], 0.0)

    def objective(w):
        s = np.sum(w * w, axis=1)
        return (
            lam * np.abs(w).sum(axis=1)
            + np.sum(c * w, axis=1)
            + ell * (0.25 * s * s + 0.5 * s)
        )

    gaps = objective(xs) - objective(v)
    assert gaps.max() <= 1e-8, f"worst objective gap {gaps.max():.3e}"

    t_norm = np.linalg.norm(xs, axis=1)
    cmag = np.array([np.linalg.norm(soft_threshold(c[i], lam[i])) for i in range(n)])
    active = cmag > 0
    cubic = np.abs(ell * (t_norm**3 + t_norm) - cmag)
    assert np.all(cubic[active] <= 1e-10 * (1.0 + cmag[active]))
    assert np.all(t_norm[~active] == 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle suite took {elapsed:.2f}s"
    print(
        f"criterion 3: PASS - 1000 instances, worst objective gap "
        f"{gaps.max():.2e} <= 1e-8, worst scaled cubic residual "
        f"{(cubic[active] / (1 + cmag[active])).max():.2e} <= 1e-10, {elapsed:.2f}s"
    )


def _central_diff(f, v, eps=1e-6):
    g = np.zeros_like(v, dtype=np.float64)
    for j in range(v.size):
        e = np.zeros_like(g)
        e[j] = eps
        g[j] = (f(v + e) - f(v - e)) / (2.0 * eps)
    return g


def test_criterion_4_gradient_checks():
    rng = make_rng(11)
    data = synthetic_generate(30, 12, rng)

    for _ in range(20):
        y = rng.standard_normal(data.q) * 3.0
        _, grad = logistic_h(data, y)
        fd = _central_diff(lambda v: logistic_h(data, v)[0], y)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    dims = (data.d, data.d, 1)
    for _ in range(20):
        x1 = rng.standard_normal(data.d)
        x2 = rng.standard_normal(data.d)
        x3 = float(rng.standard_normal())
        w = rng.standard_normal(data.q)
        point = [x1, x2, np.array([x3])]
        for block in range(3):
            v = rng.standard_normal(dims[block])
            adj = phi_jac_block_apply(data, block, x1, w)

            def pairing(t):
                parts = [p.copy() for p in point]
                parts[block] = point[block] + float(t) * v
                return float(w @ phi_eval(data, parts[0], parts[1], parts[2][0]))

            eps = 1e-6
            fd = (pairing(eps) - pairing(-eps)) / (2.0 * eps)
            np.testing.assert_allclose(float(adj @ v), fd, rtol=1e-5, atol=1e-8)

    kernel = quartic_kernel()
    for _ in range(20):
        v = rng.standard_normal(7) * 1.5
        fd = _central_diff(kernel.eval, v)
        np.testing.assert_allclose(kernel.grad(v), fd, rtol=1e-5, atol=1e-8)

    print(
        "criterion 4: PASS - loss gradient, all three map Jacobian actions and "
        "the quartic kernel gradient match central differences (rtol 1e-5, 20 points each)"
    )


def test_criterion_5_trivial_problem_exactness():
    n = 6
    f = BlockSmoothTerm(
        eval=lambda x: 0.5 * float(x.blocks[0] @ x.blocks[0]),
        block_grad=lambda i, x: x.blocks[i].copy(),
    )
    spec = ProblemSpec(
        m=1,
        gs=[zero_nonsmooth()],
        h=SmoothTerm(
            eval=lambda y: 0.5 * float(y @ y), grad=lambda y: y.copy(), lipschitz_const=1.0
        ),
        phi=NonlinearMap(
            eval=lambda x: x.blocks[0].copy(),
            jac_block_apply=lambda i, x, w: np.asarray(w, dtype=np.float64),
            out_dim=n,
        ),
        B=scaled_identity_map(-1.0, n),
        smooth_f=f,
        lower_bound_hint=0.0,
    )
    beta = 8.0
    surro = [SurrogateSpec(kappa=1.1, smoothness_const=1.0 + beta)]
    rng = make_rng(55)
    worst_resid, worst_dist, worst_iters = 0.0, 0.0, 0
    for _ in range(10):
        x0 = BlockVector([rng.standard_normal(n) * 2.0])
        y0 = rng.standard_normal(n) * 2.0
        w0 = np.zeros(n)
        cfg = SolverConfig(
            beta=beta,
            delta_tilde=1.5,
            max_outer_iters=200,
            stop_epsilon=1e-8,
            diagnostics_level="decrease_checks",
        )
        res = run(spec, surro, x0, y0, w0, cfg)
        assert res.stop_reason == "epsilon", res.stop_reason
        assert res.violations == []
        dist = max(float(np.linalg.norm(res.x.blocks[0])), float(np.linalg.norm(res.y)))
        assert res.residuals.combined <= 1e-6
        assert dist <= 1e-6
        worst_resid = max(worst_resid, res.residuals.combined)
        worst_dist = max(worst_dist, dist)
        worst_iters = max(worst_iters, res.iterations)
    print(
        f"criterion 5: PASS - 10 random starts reached combined residual <= "
        f"{worst_resid:.2e} and distance to the origin <= {worst_dist:.2e} "
        f"within {worst_iters} iterations (cap 200)"
    )


_REAL_TARGETS = {"duke": 0.440088, "leukemia": 0.358154, "colon-cancer": 0.33082}
_DATA_DIR = os.environ.get("MADMM_DATA_DIR", "")


def _real_path(name):
    for cand in (name, f"{name}.libsvm", f"{name}.txt", f"{name}.bz2.decompressed"):
        p = os.path.join(_DATA_DIR, cand)
        if os.path.exists(p):
            return p
    return None


@pytest.mark.skipif(
    not _DATA_DIR,
    reason="MADMM_DATA_DIR not set; the real classification matrices are not bundled",
)
def test_criterion_6_real_data_fits():
    rows = []
    for name, target in _REAL_TARGETS.items():
        path = _real_path(name)
        assert path is not None, f"{name} not found under {_DATA_DIR}"
        with open(path, encoding="utf-8") as fh:
            data = normalize_columns(libsvm_parse(fh))
        for seed in SEEDS:
            fit_m, _ = _madmm_fit(data, 0.001, 0.001, seed, budget=30.0)
            fit_p, _ = _prox_fit(data, 0.001, 0.001, seed, budget=30.0)
            rows.append((name, seed, fit_m, fit_p, target))
    failures = []
    for name, target in _REAL_TARGETS.items():
        sub = [r for r in rows if r[0] == name]
        near = sum(1 for _, _, fm, _, t in sub if abs(fm - t) <= 0.10)
        if near < 4:
            failures.append(f"{name}: only {near}/5 seeds within 0.10 of {target}")
        bad_order = [s for _, s, fm, fp, _ in sub if not fm < fp]
        if bad_order:
            failures.append(f"{name}: ordering failed on seeds {bad_order}")
    table = "; ".join(f"{n} s{s}: {fm:.4f} vs {fp:.4f}" for n, s, fm, fp, _ in rows)
    if failures:
        print(f"criterion 6: FAIL - {failures} ({table})")
        pytest.fail("; ".join(failures) + f" ({table})")
    print(f"criterion 6: PASS - {table}")


def test_criterion_7_synthetic_timed_compare():
    rows = []
    for seed in SEEDS:
        data = synthetic_generate(1000, 100, make_rng(seed))
        fit_m, _ = _madmm_fit(data, 0.001, 0.1, seed, budget=15.0)
        fit_p, _ = _prox_fit(data, 0.001, 0.1, seed, budget=15.0)
        rows.append((seed, fit_m, fit_p))
    table = "; ".join(f"seed {s}: {fm:.4f} vs {fp:.4f}" for s, fm, fp in rows)
    ordering_ok = all(fm < fp for _, fm, fp in rows)
    cap_ok = all(fm <= 0.60 for _, fm, _ in rows)
    if ordering_ok and cap_ok:
        print(f"criterion 7: PASS - block solver beat prox-linear on all seeds ({table})")
        return
    print(f"criterion 7: FAIL - 1000x100, 15s per solver, block vs prox-linear: {table}")
    pytest.fail(
        "timed comparison failed on 1000x100 with 15s per solver (fits shown "
        f"as block-solver vs prox-linear): {table}. Ordering (block solver "
        f"below prox-linear) held on {sum(fm < fp for _, fm, fp in rows)}/5 "
        f"seeds; cap 0.60 held on {sum(fm <= 0.60 for _, fm, _ in rows)}/5."
    )


def test_criterion_7_large_problem_smoke():
    data = synthetic_generate(10000, 2000, make_rng(1))
    fit_m, res_m = _madmm_fit(data, 0.001, 0.1, 1, budget=20.0, stride=500)
    assert math.isfinite(fit_m) and res_m.iterations >= 1
    fit_p, res_p = _prox_fit(data, 0.001, 0.1, 1, budget=20.0, stride=500)
    assert math.isfinite(fit_p) and res_p.iterations >= 1
    print(
        f"criterion 7 smoke: PASS - 10000x2000 ran {res_m.iterations} block / "
        f"{res_p.iterations} prox-linear iterations in 20s budgets without errors "
        f"(fits {fit_m:.4f} / {fit_p:.4f})"
    )


def _time_masked_digest(path):
    lines = path.read_text().strip().split("\n")
    masked = [lines[0]]
    for line in lines[1:]:
        cols = line.split(",")
        del cols[2]
        masked.append(",".join(cols))
    return hashlib.sha256("\n".join(masked).encode()).hexdigest()


def test_criterion_8_trace_determinism(tmp_path, capsys):
    digests = []
    summaries = []
    for tag in ("first", "second"):
        prefix = tmp_path / tag / "run"
        summary = tmp_path / tag / "summary.json"
        prefix.parent.mkdir()
        code = cli_main(
            [
                "--mode", "compare",
                "--synthetic", "60x12",
                "--seed", "3",
                "--lambda1", "0.001",
                "--lambda2", "0.1",
                "--max-iters", "40",
                "--trace", str(prefix),
                "--summary", str(summary),
            ]
        )
        capsys.readouterr()
        assert code == 0
        digests.append(
            {
                name: _time_masked_digest(prefix.parent / f"run_{name}.csv")
                for name in ("madmm", "proxlinear")
            }
        )
        doc = json.loads(summary.read_text())
        for entry in doc["runs"].values():
            entry.pop("wall_time_sec")
        summaries.append(doc["runs"])
        for name in ("madmm", "proxlinear"):
            assert len(read_trace(prefix.parent / f"run_{name}.csv")) == 40
    assert digests[0] == digests[1]
    assert summaries[0] == summaries[1]
    print(
        f"criterion 8: PASS - repeated runs produced identical time-masked trace "
        f"checksums ({digests[0]['madmm'][:12]}..., {digests[0]['proxlinear'][:12]}...)"
    )
