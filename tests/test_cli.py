import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import madmm.cli
from madmm.cli import BUDGET_DEFAULTS, ConfigError, _resolve_budget_epsilon, main
from madmm.trace import read_trace, records_equal_ignoring_time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_budget_defaults_table():
    assert BUDGET_DEFAULTS == {
        (1000, 100): 15.0,
        (5000, 1000): 100.0,
        (10000, 5000): 300.0,
        (10000, 2000): 300.0,
        (7129, 44): 30.0,
        (7129, 38): 30.0,
        (2000, 62): 30.0,
    }


def test_resolve_budget_epsilon_rules():
    ns = argparse.Namespace(budget=None, max_iters=None, epsilon=None)
    assert _resolve_budget_epsilon(ns, (1000, 100)) == (15.0, 0.0, 10**9)
    with pytest.raises(ConfigError, match="no default budget"):
        _resolve_budget_epsilon(ns, (37, 9))
    # An explicit iteration cap suppresses the size-based budget and flips
    # the epsilon default to the solve-mode value.
    ns_iters = argparse.Namespace(budget=None, max_iters=200, epsilon=None)
    assert _resolve_budget_epsilon(ns_iters, (1000, 100)) == (None, 1e-5, 200)
    ns_both = argparse.Namespace(budget=2.0, max_iters=None, epsilon=1e-3)
    assert _resolve_budget_epsilon(ns_both, (37, 9)) == (2.0, 1e-3, 10**9)
    with pytest.raises(ConfigError, match="budget"):
        _resolve_budget_epsilon(
            argparse.Namespace(budget=-1.0, max_iters=None, epsilon=None), (37, 9)
        )
    with pytest.raises(ConfigError, match="epsilon"):
        _resolve_budget_epsilon(
            argparse.Namespace(budget=1.0, max_iters=None, epsilon=-1e-5), (37, 9)
        )
    with pytest.raises(ConfigError, match="max-iters"):
        _resolve_budget_epsilon(
            argparse.Namespace(budget=None, max_iters=0, epsilon=None), (37, 9)
        )


def test_exit_code_3_on_data_errors(capsys):
    code, _, err = _run(
        ["--mode", "madmm", "--data", "/definitely/not/here.libsvm", "--max-iters", "3"],
        capsys,
    )
    assert code == 3 and "data error" in err
    code, _, err = _run(["--mode", "madmm", "--synthetic", "10by5", "--max-iters", "3"], capsys)
    assert code == 3 and "DxQ" in err
    code, _, err = _run(["--mode", "madmm", "--synthetic", "0x5", "--max-iters", "3"], capsys)
    assert code == 3


# Each case must exit 2 before either solver starts.
CONFIG_ERROR_CASES = [
    [],  # unknown size, no budget, no cap
    ["--max-iters", "3", "--lambda1", "-0.1"],
    ["--budget", "-2"],
    ["--max-iters", "3", "--beta", "-1"],
    ["--max-iters", "3", "--trace-stride", "0"],
    ["--max-iters", "3", "--delta-tilde", "1.0"],
    # A NaN passes every ordering test, so each float flag is checked for it.
    ["--max-iters", "3", "--lambda1", "nan"],
    ["--max-iters", "3", "--lambda2", "inf"],
    ["--max-iters", "3", "--beta", "nan"],
    ["--budget", "nan"],
    ["--max-iters", "3", "--epsilon", "nan"],
    ["--max-iters", "3", "--delta-tilde", "nan"],
    ["--max-iters", "3", "--kappa1", "nan"],
    # Checked before the data is generated from the seed.
    ["--max-iters", "3", "--seed", "-1"],
    # Outputs are written after the runs, so their directories are checked first.
    ["--max-iters", "3", "--trace", os.path.join(os.devnull, "run")],
    ["--max-iters", "3", "--summary", os.path.join(os.devnull, "s.json")],
]


def test_exit_code_2_on_config_errors(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a rejected configuration started a run")

    monkeypatch.setattr(madmm.cli, "run", no_run)
    monkeypatch.setattr(madmm.cli, "run_proxlinear", no_run)
    base = ["--mode", "compare", "--synthetic", "30x6"]
    for extra in CONFIG_ERROR_CASES:
        code, out, err = _run(base + extra, capsys)
        assert code == 2 and "config error" in err, (extra, err)
        assert out == "", extra


def test_exit_code_1_on_surrogate_errors(capsys):
    # A finite penalty weight so large that block 0's constant overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = _run(
            ["--mode", "madmm", "--synthetic", "20x5", "--max-iters", "3", "--beta", "1e308"],
            capsys,
        )
    assert code == 1 and "solver error" in err and "surrogate constant" in err, err


@pytest.mark.parametrize("mode", ["madmm", "compare"])
def test_one_build_problem_per_invocation(mode, tmp_path, capsys, monkeypatch):
    calls = []
    build_problem = madmm.cli.build_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(madmm.cli, "build_problem", counted)
    args = ["--mode", mode, "--synthetic", "20x5", "--max-iters", "3"]
    code, _, _ = _run(args + ["--summary", str(tmp_path / "s.json")], capsys)
    assert code == 0
    assert len(calls) == 1


# Spans the benchmark's per-layer metrics are built from; each must be seen
# in a traced full_lyapunov run.
TRACED_SPANS = (
    "solver.lagrangian",
    "solver.compute_residuals",
    "solver.y_update",
    "model.eval_feasibility",
    "model.smooth_part_value",
    "model.smooth_part_block_grad",
    "surrogates.block0.update",
    "surrogates.block1.update",
    "surrogates.block2.update",
)


def test_benchmark_tracer_hooks_still_resolve():
    # perfbench/tracer.py patches madmm's functions by name; a refactor that
    # renames or drops one, or moves a call out of the patched module's
    # namespace, breaks the benchmark's traced runs or blinds a metric.
    script = f"""
import collections, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
live = tracer.install("t")
import madmm.cli
code = madmm.cli.main([
    "--mode", "compare", "--synthetic", "20x5", "--max-iters", "3",
    "--diagnostics", "full_lyapunov",
])
counts = collections.Counter(span[2] for span in live.spans)
print(json.dumps(dict(counts)), file=sys.stderr)
sys.exit(code)
"""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert set(doc["runs"]) == {"madmm", "proxlinear"}
    assert doc["runs"]["madmm"]["iterations"] == 3
    counts = json.loads(proc.stderr.strip().splitlines()[-1])
    missing = [name for name in TRACED_SPANS if counts.get(name, 0) < 1]
    assert not missing, (missing, counts)


def test_strict_escalates_penalty_condition(capsys, caplog):
    base = ["--mode", "madmm", "--synthetic", "20x5", "--max-iters", "3", "--beta", "1e-9"]
    code, _, err = _run(base + ["--strict"], capsys)
    assert code == 2 and "penalty condition" in err
    code, out, _ = _run(base, capsys)
    assert code == 0
    assert any("penalty condition" in rec.message for rec in caplog.records)
    doc = json.loads(out)
    assert doc["runs"]["madmm"]["beta"] == 1e-9


def test_madmm_run_writes_trace_and_summary(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    summary = tmp_path / "summary.json"
    code, out, _ = _run(
        [
            "--mode", "madmm",
            "--synthetic", "40x8",
            "--max-iters", "20",
            "--trace", prefix,
            "--summary", str(summary),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""  # summary went to the file
    doc = json.loads(summary.read_text())
    assert doc["mode"] == "madmm"
    assert doc["data"]["d"] == 40 and doc["data"]["q"] == 8
    assert doc["data"]["source"] == "synthetic 40x8"
    assert len(doc["data"]["checksum"]) == 64
    cfg = doc["config"]
    assert cfg["budget_sec"] is None
    assert cfg["epsilon"] == 1e-5
    assert cfg["max_iters"] == 20
    assert cfg["trace_stride"] == 1
    run_doc = doc["runs"]["madmm"]
    assert run_doc["iterations"] <= 20
    assert run_doc["stop_reason"] in ("max_iters", "epsilon")
    assert run_doc["violations"] == 0
    records = read_trace(f"{prefix}_madmm.csv")
    assert [r.solver for r in records] == ["madmm"] * len(records)
    ks = [r.k for r in records]
    assert ks == sorted(ks) and ks[-1] == run_doc["iterations"]
    assert records[-1].fit == pytest.approx(run_doc["fit"])


def test_compare_mode_runs_both_solvers(tmp_path, capsys):
    prefix = str(tmp_path / "cmp")
    summary = tmp_path / "cmp.json"
    code, _, _ = _run(
        [
            "--mode", "compare",
            "--synthetic", "30x6",
            "--max-iters", "10",
            "--trace", prefix,
            "--summary", str(summary),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert set(doc["runs"]) == {"madmm", "proxlinear"}
    madmm_records = read_trace(f"{prefix}_madmm.csv")
    prox_records = read_trace(f"{prefix}_proxlinear.csv")
    assert madmm_records and prox_records
    assert prox_records[0].solver == "proxlinear"
    # Both runs consumed the identical dataset.
    assert doc["runs"]["madmm"]["fit"] > 0
    assert doc["runs"]["proxlinear"]["fit"] > 0


def test_repeat_runs_identical_modulo_time(tmp_path, capsys):
    args = [
        "--mode", "compare",
        "--synthetic", "25x6",
        "--max-iters", "8",
        "--seed", "3",
    ]
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(args + ["--trace", p1, "--summary", str(s1)], capsys)[0] == 0
    assert _run(args + ["--trace", p2, "--summary", str(s2)], capsys)[0] == 0
    for name in ("madmm", "proxlinear"):
        ra = read_trace(f"{p1}_{name}.csv")
        rb = read_trace(f"{p2}_{name}.csv")
        assert records_equal_ignoring_time(ra, rb)
    da = json.loads(s1.read_text())
    db = json.loads(s2.read_text())
    for name in ("madmm", "proxlinear"):
        a, b = da["runs"][name], db["runs"][name]
        a.pop("wall_time_sec")
        b.pop("wall_time_sec")
        assert a == b
    assert da["data"]["checksum"] == db["data"]["checksum"]


def test_epsilon_zero_under_wall_clock_budget(tmp_path, capsys):
    summary = tmp_path / "budget.json"
    code, _, _ = _run(
        [
            "--mode", "madmm",
            "--synthetic", "15x4",
            "--budget", "0.15",
            "--summary", str(summary),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["config"]["epsilon"] == 0.0
    assert doc["config"]["budget_sec"] == 0.15
    assert doc["runs"]["madmm"]["stop_reason"] == "budget"


def test_trace_stride_thins_records(tmp_path, capsys):
    prefix = str(tmp_path / "thin")
    code, _, _ = _run(
        [
            "--mode", "madmm",
            "--synthetic", "20x5",
            "--max-iters", "10",
            "--trace-stride", "4",
            "--trace", prefix,
            "--summary", str(tmp_path / "thin.json"),
        ],
        capsys,
    )
    assert code == 0
    assert [r.k for r in read_trace(f"{prefix}_madmm.csv")] == [4, 8, 10]


def test_libsvm_file_input(tmp_path, capsys):
    path = tmp_path / "tiny.libsvm"
    path.write_text(
        "+1 1:0.5 3:1.5\n-1 2:2.0\n+1 1:1.0 2:1.0 3:1.0\n-1 3:0.25\n"
    )
    summary = tmp_path / "file.json"
    code, _, _ = _run(
        [
            "--mode", "madmm",
            "--data", str(path),
            "--max-iters", "5",
            "--summary", str(summary),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["data"]["d"] == 3 and doc["data"]["q"] == 4
    assert doc["data"]["source"] == str(path)
