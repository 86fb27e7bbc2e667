"""Per-iteration trace records and their CSV round trip.

Both solvers emit one :class:`TraceRecord` per (sampled) outer iteration.
The CSV layout is fixed at fourteen columns; fields that do not apply to a
solver (Lagrangian bookkeeping for the prox-linear baseline, for instance)
are written as nan. Floats are rendered with repr-exact precision so a
(machine, seed) pair reproduces byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

CSV_HEADER = "solver,k,t_sec,fit,L,Lhat,R1,R2,R3,Ry,Rc,dx,dy,dw"

_N_BLOCK_COLS = 3


def format_float(v: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(v)


@dataclass(frozen=True)
class TraceRecord:
    """One sampled outer iteration of either solver."""

    solver: str
    k: int
    t_sec: float
    fit: float
    lagrangian: float
    lyapunov: float
    r_blocks: tuple[float, ...]
    r_y: float
    r_c: float
    dx: float
    dy: float
    dw: float

    def __post_init__(self) -> None:
        if len(self.r_blocks) > _N_BLOCK_COLS:
            raise ValueError(
                f"trace layout holds {_N_BLOCK_COLS} block residuals, got {len(self.r_blocks)}"
            )

    def row(self) -> list[str]:
        blocks = list(self.r_blocks) + [math.nan] * (_N_BLOCK_COLS - len(self.r_blocks))
        vals = [self.t_sec, self.fit, self.lagrangian, self.lyapunov]
        vals += blocks + [self.r_y, self.r_c, self.dx, self.dy, self.dw]
        return [self.solver, str(self.k)] + [format_float(v) for v in vals]


def write_trace(path: str, records: Iterable[TraceRecord]) -> None:
    """Write records as CSV with the fixed header."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for rec in records:
            writer.writerow(rec.row())


def read_trace(path: str) -> list[TraceRecord]:
    """Parse a trace CSV back into records (inverse of write_trace)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ValueError(f"unexpected trace header in {path}")
        out = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"malformed trace row in {path}: {row!r}")
            f = [float(v) for v in row[2:]]
            out.append(
                TraceRecord(
                    solver=row[0],
                    k=int(row[1]),
                    t_sec=f[0],
                    fit=f[1],
                    lagrangian=f[2],
                    lyapunov=f[3],
                    r_blocks=tuple(f[4:7]),
                    r_y=f[7],
                    r_c=f[8],
                    dx=f[9],
                    dy=f[10],
                    dw=f[11],
                )
            )
        return out
