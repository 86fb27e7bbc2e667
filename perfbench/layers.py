"""Per-layer metrics of one traced process, computed from its spans.

Layers are the ``madmm`` modules. Counts are per madmm outer iteration
where the name says ``per_iter`` and exact; times are totals over the
process in seconds, inclusive unless the name says ``self``. Bytes and
operations per byte are computed from product counts and array shapes,
not measured.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

LOGISTIC_FUNCS = ("phi_eval", "phi_jac_block_apply", "bregman_constant_x1", "logistic_h", "fitting_error")
BLOCKS = (0, 1, 2)

# name, unit, better
PER_LAYER = (
    ("data.load_s", "s", "lower"),
    ("data.column_norms_per_iter", "count", "lower"),
    ("data.column_norms_s", "s", "lower"),
    ("logistic.matvecs_per_iter", "count", "lower"),
    ("logistic.bytes_per_iter", "B", "lower"),
    ("logistic.ops_per_byte", "flop/B", "higher"),
    *((f"logistic.{fn}.calls_per_iter", "count", "lower") for fn in LOGISTIC_FUNCS),
    *((f"logistic.{fn}.self_s", "s", "lower") for fn in LOGISTIC_FUNCS),
    ("logistic.build_problem_s", "s", "lower"),
    ("model.eval_feasibility_per_iter", "count", "lower"),
    ("model.smooth_part_block_grad_s", "s", "lower"),
    ("model.blockvector_allocs_per_iter", "count", "lower"),
    *((f"surrogates.block{i}.update_s", "s", "lower") for i in BLOCKS),
    *((f"surrogates.block{i}.L_median", "L", "lower") for i in BLOCKS),
    *((f"surrogates.block{i}.step_sum", "norm", "higher") for i in BLOCKS),
    ("solver.iters", "count", "higher"),
    ("solver.iter_ms_median", "ms", "lower"),
    ("solver.iter_ms_p99", "ms", "lower"),
    ("solver.iter_samples", "count", "higher"),
    ("solver.y_update_s", "s", "lower"),
    ("solver.residuals_s", "s", "lower"),
    ("solver.diagnostics_s", "s", "lower"),
    ("solver.cert_checks", "count", "higher"),
    ("solver.cert_violations", "count", "lower"),
    ("madmm.cert_fail_share", "share", "lower"),
    ("proxlinear.outer_iters", "count", "higher"),
    ("proxlinear.inner_iters", "count", "higher"),
    ("proxlinear.inner_per_outer", "count", "lower"),
    ("proxlinear.power_iter_s", "s", "lower"),
    ("proxlinear.apg_s", "s", "lower"),
    ("proxlinear.restarts", "count", "lower"),
    ("proxlinear.inner_cap_share", "share", "lower"),
    ("proxlinear.matvecs_per_inner", "count", "lower"),
    ("proxlinear.fit_rises", "count", "lower"),
    ("trace.rows", "count", "higher"),
    ("cli.penalty_check_s", "s", "lower"),
    ("tracing.overhead_setup_s", "s", "lower"),
    ("tracing.overhead_iter_ms", "ms", "lower"),
)


def iteration_ms(curve: list) -> list[float]:
    """Per-iteration wall times from consecutive stride-1 trace rows."""
    return [1000.0 * (b[1] - a[1]) for a, b in zip(curve, curve[1:]) if b[0] == a[0] + 1]


def certificate_checks(iterations: int, diagnostics: str) -> int:
    """Checks the solver makes: one decrease check per block and one for the
    y step each iteration; full_lyapunov adds the dual-residual bound every
    iteration and the Lyapunov monotonicity test from the second on."""
    if diagnostics == "off":
        return 0
    checks = iterations * (len(BLOCKS) + 1)
    if diagnostics == "full_lyapunov":
        checks += 2 * iterations - 1
    return checks


def certificate_violations(violations: list[str]) -> int:
    keys = ("decrease short", "exceeds 2 L_h", "Lyapunov value rose")
    return sum(1 for v in violations if any(k in v for k in keys))


class SpanTree:
    """Spans of one process indexed by id and by parent."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list] = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s[3])

    def problems(self) -> list[str]:
        """Spans whose parent is missing or whose self time is negative
        (beyond the rounding of the subtracted clock readings)."""
        out = []
        for s in self.spans:
            if s[1] != 0 and s[1] not in self.by_id:
                out.append(f"span {s[0]} ({s[2]}) has no parent {s[1]}")
            if self.self_time(s) < -1e-9:
                out.append(f"span {s[0]} ({s[2]}) has negative self time")
        return out

    def self_time(self, span) -> float:
        return (span[4] - span[3]) - sum(c[4] - c[3] for c in self.children[span[0]])

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def within(self, root, name: str) -> list:
        """Spans called ``name`` nested anywhere under ``root``."""
        out, todo = [], [root[0]]
        while todo:
            for c in self.children[todo.pop()]:
                if c[2] == name:
                    out.append(c)
                todo.append(c[0])
        return out


def _dur(spans) -> float:
    return sum(s[4] - s[3] for s in spans)


def process_metrics(child: dict, diagnostics: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced child result, and any span problems."""
    with open(child["spans"], encoding="utf-8") as fh:
        dump = json.load(fh)
    tree = SpanTree(dump["spans"])
    m: dict[str, float] = {}
    (main,) = tree.named("cli.main")
    top = tree.children[main[0]]
    d, q = child["shape"]

    m["data.load_s"] = _dur(
        s for s in top if s[2] in ("data.synthetic_generate", "data.libsvm_parse", "data.normalize_columns")
    )
    m["logistic.build_problem_s"] = _dur(tree.named("logistic.build_problem"))
    m["cli.penalty_check_s"] = _dur(s for s in top if s[2] == "solver.check_beta_condition")

    (run,) = tree.named("solver.run")
    madmm = child["solvers"]["madmm"]
    iters = madmm["iterations"]
    m["solver.iters"] = iters
    mv = (run[6] - run[5]) / iters
    m["logistic.matvecs_per_iter"] = mv
    product_bytes = 8 * (d * q + d + q)
    m["logistic.bytes_per_iter"] = mv * product_bytes
    m["logistic.ops_per_byte"] = 2 * d * q / product_bytes
    for fn in LOGISTIC_FUNCS:
        spans = tree.within(run, f"logistic.{fn}")
        m[f"logistic.{fn}.calls_per_iter"] = len(spans) / iters
        m[f"logistic.{fn}.self_s"] = sum(tree.self_time(s) for s in spans)
    norms = tree.within(run, "data.column_norms")
    m["data.column_norms_per_iter"] = len(norms) / iters
    m["data.column_norms_s"] = _dur(norms)
    m["model.eval_feasibility_per_iter"] = len(tree.within(run, "model.eval_feasibility")) / iters
    m["model.smooth_part_block_grad_s"] = _dur(tree.within(run, "model.smooth_part_block_grad"))
    m["model.blockvector_allocs_per_iter"] = (run[8] - run[7]) / iters

    for i in BLOCKS:
        m[f"surrogates.block{i}.update_s"] = sum(tree.self_time(s) for s in tree.within(run, f"surrogates.block{i}.update"))
        stats = dump["block_stats"].get(str(i), [])
        m[f"surrogates.block{i}.L_median"] = statistics.median(L for L, _ in stats)
        m[f"surrogates.block{i}.step_sum"] = sum(step for _, step in stats)

    m["solver.y_update_s"] = _dur(tree.within(run, "solver.y_update"))
    m["solver.residuals_s"] = _dur(tree.within(run, "solver.compute_residuals"))
    # Certificate work: feasibility and Lagrangian evaluations made only for
    # the checks, plus the Lyapunov value. Every iteration evaluates the
    # Lagrangian once more, right after the residuals; that one is not counted.
    diag = 0.0
    prev = None
    for s in tree.children[run[0]]:
        if s[2] == "model.eval_feasibility" or s[2] == "solver.lyapunov_value":
            diag += s[4] - s[3]
        elif s[2] == "solver.lagrangian" and prev != "solver.compute_residuals":
            diag += s[4] - s[3]
        prev = s[2]
    m["solver.diagnostics_s"] = diag
    checks = certificate_checks(iters, diagnostics)
    violations = certificate_violations(madmm["violations"])
    m["solver.cert_checks"] = checks
    m["solver.cert_violations"] = violations
    m["madmm.cert_fail_share"] = violations / checks if checks else 0.0
    m["trace.rows"] = len(madmm["curve"])

    prox = child["solvers"]["proxlinear"]
    (prun,) = tree.named("proxlinear.run_proxlinear")
    outer = len(tree.within(prun, "proxlinear.prox_linear_step"))
    apg = tree.within(prun, "proxlinear.apg_solve")
    inner = sum(it for it, _ in dump["apg_calls"])
    m["proxlinear.outer_iters"] = outer
    m["proxlinear.inner_iters"] = inner
    m["proxlinear.inner_per_outer"] = inner / outer
    m["proxlinear.power_iter_s"] = _dur(tree.within(prun, "proxlinear.power_iteration"))
    m["proxlinear.apg_s"] = _dur(apg)
    m["proxlinear.restarts"] = dump["prox_calls"] - inner
    m["proxlinear.inner_cap_share"] = sum(1 for _, capped in dump["apg_calls"] if capped) / outer
    m["proxlinear.matvecs_per_inner"] = sum(s[6] - s[5] for s in apg) / inner
    m["proxlinear.fit_rises"] = sum(1 for v in prox["violations"] if "fitting error rose" in v)
    return m, tree.problems()
