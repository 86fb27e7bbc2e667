"""Span tracing of the madmm modules inside one benchmark child process.

Everything here acts on the ``madmm`` package from outside: public
functions are replaced by wrappers in every module that looks them up
(a name bound with ``from .x import y`` lives in the importing module's
namespace, so it is patched there), ``Dataset.A`` is viewed as an ndarray
subclass that counts d-by-q products, and ``Dataset.column_norms`` and
``BlockVector.__init__`` are wrapped on their classes. Spans are kept in
memory and written out once, when the process ends.

A span is ``(id, parent, name, t0, t1, mv0, mv1, bv0, bv1)``: wall-clock
start and end (``time.perf_counter``), the enclosing span (0 for none),
and the product and BlockVector-allocation counters at both ends, so
counts are measured at the same boundaries as times.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

import numpy as np

# (span name, attribute, modules that look the attribute up)
FUNCTION_PATCHES = (
    ("cli.main", "main", ("madmm.cli",)),
    ("data.synthetic_generate", "synthetic_generate", ("madmm.cli",)),
    ("data.libsvm_parse", "libsvm_parse", ("madmm.cli",)),
    ("data.normalize_columns", "normalize_columns", ("madmm.cli", "madmm.data")),
    ("logistic.build_problem", "build_problem", ("madmm.cli",)),
    ("logistic.initial_state", "initial_state", ("madmm.cli", "madmm.proxlinear")),
    ("logistic.phi_eval", "phi_eval", ("madmm.logistic",)),
    ("logistic.phi_jac_block_apply", "phi_jac_block_apply", ("madmm.logistic",)),
    ("logistic.bregman_constant_x1", "bregman_constant_x1", ("madmm.logistic",)),
    ("logistic.logistic_h", "logistic_h", ("madmm.logistic",)),
    ("logistic.fitting_error", "fitting_error", ("madmm.logistic", "madmm.cli", "madmm.proxlinear")),
    ("logistic.l1_quartic_solve", "l1_quartic_solve", ("madmm.logistic",)),
    ("model.eval_feasibility", "eval_feasibility", ("madmm.model", "madmm.solver")),
    ("model.smooth_part_block_grad", "smooth_part_block_grad", ("madmm.surrogates", "madmm.solver")),
    ("model.smooth_part_value", "smooth_part_value", ("madmm.surrogates", "madmm.model")),
    ("surrogates.bregman_divergence", "bregman_divergence", ("madmm.surrogates",)),
    ("solver.run", "run", ("madmm.cli",)),
    ("solver.check_beta_condition", "check_beta_condition", ("madmm.cli", "madmm.solver")),
    ("solver.y_update", "y_update", ("madmm.solver",)),
    ("solver.dual_update", "dual_update", ("madmm.solver",)),
    ("solver.compute_residuals", "compute_residuals", ("madmm.solver",)),
    ("solver.lyapunov_value", "lyapunov_value", ("madmm.solver",)),
    # Private, but the only boundary between certificate checks and the rest
    # of an iteration (solver.diagnostics_s).
    ("solver.lagrangian", "_lagrangian_from_residual", ("madmm.solver",)),
    ("proxlinear.run_proxlinear", "run_proxlinear", ("madmm.cli",)),
    ("proxlinear.prox_linear_step", "prox_linear_step", ("madmm.proxlinear",)),
    ("proxlinear.power_iteration", "_power_iteration", ("madmm.proxlinear",)),
    ("proxlinear.default_tau", "default_tau", ("madmm.proxlinear",)),
    ("trace.write_trace", "write_trace", ("madmm.cli",)),
)

# Functions whose returned Dataset gets the counting view of A.
DATASET_SOURCES = ("synthetic_generate", "normalize_columns")


class Tracer:
    """Span and counter store for one process (one ``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.matvecs = 0
        self.blockvectors = 0
        self.prox_calls = 0
        # per block: [(L, ||x_new - z_i||), ...] from mm_block_update
        self.block_stats: dict[int, list[tuple[float, float]]] = {}
        # per apg_solve call: (iterations, hit the cap)
        self.apg_calls: list[tuple[int, bool]] = []

    def open(self) -> tuple:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, time.perf_counter(), self.matvecs, self.blockvectors

    def close(self, name: str, token: tuple) -> None:
        t1 = time.perf_counter()
        sid, parent, t0, mv0, bv0 = token
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, mv0, self.matvecs, bv0, self.blockvectors))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, token)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "block_stats": {str(k): v for k, v in self.block_stats.items()},
                    "apg_calls": self.apg_calls,
                    "prox_calls": self.prox_calls,
                },
                fh,
            )


def _counting_matrix_class(tracer: Tracer):
    class CountingMatrix(np.ndarray):
        """View of A whose matrix products bump the tracer's counter."""

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            plain = tuple(np.asarray(x) if isinstance(x, CountingMatrix) else x for x in inputs)
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) if isinstance(o, CountingMatrix) else o for o in out)
            if ufunc is np.matmul and method == "__call__":
                tracer.matvecs += 1
            return getattr(ufunc, method)(*plain, **kwargs)

    return CountingMatrix


def install(run_id: str) -> Tracer:
    """Patch the madmm modules in this process and return the live tracer."""
    tracer = Tracer(run_id)
    modules = {
        name: importlib.import_module(name)
        for name in (
            "madmm.cli", "madmm.data", "madmm.logistic", "madmm.model",
            "madmm.surrogates", "madmm.solver", "madmm.proxlinear", "madmm.trace",
        )
    }
    counting = _counting_matrix_class(tracer)

    def with_counting_view(fn):
        @functools.wraps(fn)
        def viewed(*args, **kwargs):
            data = fn(*args, **kwargs)
            object.__setattr__(data, "A", data.A.view(counting))
            return data

        return viewed

    for span_name, attr, where in FUNCTION_PATCHES:
        fn = getattr(modules[where[0]], attr)
        wrapped = tracer.wrap(span_name, fn)
        if attr in DATASET_SOURCES:
            wrapped = with_counting_view(wrapped)
        for mod in where:
            setattr(modules[mod], attr, wrapped)

    # mm_block_update: one span name per block, plus the step data.
    mm_block_update = modules["madmm.surrogates"].mm_block_update

    @functools.wraps(mm_block_update)
    def block_update(i, surrogate, spec, x, y, w, beta):
        token = tracer.open()
        try:
            res = mm_block_update(i, surrogate, spec, x, y, w, beta)
        finally:
            tracer.close(f"surrogates.block{i}.update", token)
        step = float(np.linalg.norm(np.asarray(res.x_new) - np.asarray(x.blocks[i])))
        tracer.block_stats.setdefault(i, []).append((float(res.smoothness), step))
        return res

    modules["madmm.solver"].mm_block_update = block_update

    # apg_solve: span plus (iterations, stopped at the cap).
    apg_solve = modules["madmm.proxlinear"].apg_solve

    @functools.wraps(apg_solve)
    def apg(smooth_eval, smooth_grad, nonsmooth_eval, prox, x0, lipschitz, tol, max_iters):
        token = tracer.open()
        try:
            x, cert, it = apg_solve(smooth_eval, smooth_grad, nonsmooth_eval, prox, x0, lipschitz, tol, max_iters)
        finally:
            tracer.close("proxlinear.apg_solve", token)
        tracer.apg_calls.append((it, it >= max_iters and cert > tol))
        return x, cert, it

    modules["madmm.proxlinear"].apg_solve = apg

    # Prox calls of the composite model: their excess over inner
    # iterations is the number of APG restarts.
    composite = modules["madmm.proxlinear"].logistic_composite_model

    @functools.wraps(composite)
    def composite_model(*args, **kwargs):
        model = composite(*args, **kwargs)
        prox = model.nonsmooth_prox

        def counted_prox(v, t):
            tracer.prox_calls += 1
            return prox(v, t)

        return dataclasses.replace(model, nonsmooth_prox=counted_prox)

    modules["madmm.proxlinear"].logistic_composite_model = tracer.wrap(
        "proxlinear.logistic_composite_model", composite_model
    )

    Dataset = modules["madmm.data"].Dataset
    column_norms = Dataset.column_norms.fget
    Dataset.column_norms = property(tracer.wrap("data.column_norms", column_norms))

    BlockVector = modules["madmm.model"].BlockVector
    bv_init = BlockVector.__init__

    @functools.wraps(bv_init)
    def counted_init(self, blocks):
        tracer.blockvectors += 1
        bv_init(self, blocks)

    BlockVector.__init__ = counted_init
    return tracer
