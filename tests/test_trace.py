import math

import pytest

from madmm.trace import (
    CSV_HEADER,
    TraceRecord,
    format_float,
    read_trace,
    write_trace,
)

from checkers import records_equal_ignoring_time


def _rec(k=1, t=0.5, fit=0.25, solver="madmm", blocks=(0.1, 0.2, 0.3), dx=1e-3):
    return TraceRecord(
        solver=solver,
        k=k,
        t_sec=t,
        fit=fit,
        lagrangian=1.25,
        lyapunov=1.5,
        r_blocks=blocks,
        r_y=0.4,
        r_c=0.5,
        dx=dx,
        dy=2e-3,
        dw=3e-3,
    )


def test_header_layout():
    assert CSV_HEADER == "solver,k,t_sec,fit,L,Lhat,R1,R2,R3,Ry,Rc,dx,dy,dw"
    assert len(_rec().row()) == len(CSV_HEADER.split(","))


def test_format_float_is_round_trip_exact():
    vals = [math.pi, 1e-300, -2.0 / 3.0, 1.0, 0.1 + 0.2]
    for v in vals:
        assert float(format_float(v)) == v
    assert format_float(float("nan")) == "nan"


def test_row_pads_missing_block_columns_with_nan():
    rec = _rec(blocks=(0.1,))
    row = rec.row()
    assert row[6] == format_float(0.1)
    assert row[7] == "nan" and row[8] == "nan"
    with pytest.raises(ValueError):
        _rec(blocks=(1.0, 2.0, 3.0, 4.0))


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "trace.csv")
    records = [_rec(k=1), _rec(k=2, t=1.0, fit=0.125), _rec(k=5, solver="proxlinear")]
    write_trace(path, records)
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    assert first == CSV_HEADER
    back = read_trace(path)
    assert len(back) == 3
    for rec, orig in zip(back, records):
        assert rec == orig


def test_round_trip_preserves_nan_columns(tmp_path):
    path = str(tmp_path / "nan.csv")
    rec = TraceRecord(
        solver="proxlinear",
        k=3,
        t_sec=0.1,
        fit=0.7,
        lagrangian=math.nan,
        lyapunov=math.nan,
        r_blocks=(math.nan, math.nan, math.nan),
        r_y=math.nan,
        r_c=math.nan,
        dx=0.01,
        dy=math.nan,
        dw=math.nan,
    )
    write_trace(path, [rec])
    back = read_trace(path)[0]
    assert math.isnan(back.lagrangian) and math.isnan(back.dy)
    assert back.dx == 0.01 and back.k == 3


def test_read_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("solver,k\nmadmm,1\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(str(path))


def test_read_trace_rejects_malformed_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\nmadmm,1,0.5\n")
    with pytest.raises(ValueError, match="malformed"):
        read_trace(str(path))


def test_records_equal_ignoring_time():
    a = [_rec(t=0.5), _rec(k=2, t=1.0)]
    b = [_rec(t=99.0), _rec(k=2, t=2.5)]
    assert records_equal_ignoring_time(a, b)
    assert not records_equal_ignoring_time(a, b[:1])
    c = [_rec(t=0.5), _rec(k=2, t=1.0, fit=0.9)]
    assert not records_equal_ignoring_time(a, c)
    d = [_rec(t=0.5, solver="proxlinear"), _rec(k=2)]
    assert not records_equal_ignoring_time(a, d)
    # dx differences below printed precision do not count as equal either.
    e = [_rec(t=0.5, dx=1e-3 * (1 + 1e-12)), _rec(k=2, t=1.0)]
    assert not records_equal_ignoring_time(a, e)
