"""Dataset ingestion, column normalization, and synthetic data generation.

Datasets are dense column-major matrices: column ``i`` of ``A`` is the
feature vector of sample ``i``, and ``b[i]`` is its label in {-1, +1}.
"""

from __future__ import annotations

import hashlib
import io
import logging
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable

import numpy as np

logger = logging.getLogger(__name__)


class DataError(Exception):
    """Malformed input file or invalid dataset contents."""


def make_rng(seed: int) -> np.random.Generator:
    """Return the seeded generator used everywhere in this package.

    The bit generator is Philox, a counter-based scheme whose output for a
    given seed is identical on every platform and word size, and which
    supports cheap splitting. All randomized behavior (synthetic data,
    initial points, probe vectors) flows through generators created here,
    so a (seed, config) pair pins a run exactly.
    """
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and labels for the classifier benchmark.

    Parameters
    ----------
    A : ndarray, shape (d, q)
        Feature columns; column ``i`` is sample ``a_i``.
    b : ndarray, shape (q,)
        Labels, each exactly -1.0 or +1.0.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        A = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2:
            raise DataError("A must be two-dimensional with shape (d, q)")
        if b.shape != (A.shape[1],):
            raise DataError(
                f"label vector has shape {b.shape}, expected ({A.shape[1]},)"
            )
        bad = ~np.isin(b, (-1.0, 1.0))
        if bad.any():
            raise DataError(
                f"labels must be -1 or +1; offending sample index {int(np.argmax(bad))}"
            )
        nonfinite = ~np.isfinite(A)
        if nonfinite.any():
            sample = int(np.argmax(nonfinite.any(axis=0)))
            feature = int(np.argmax(nonfinite[:, sample]))
            raise DataError(
                f"features must be finite; feature {feature} of sample {sample} "
                f"is {A[feature, sample]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[1]

    @property
    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.A, axis=0)

    def checksum(self) -> str:
        """SHA-256 over the raw bytes of A and b (shape-tagged)."""
        h = hashlib.sha256()
        h.update(str(self.A.shape).encode())
        h.update(self.A.tobytes())
        h.update(self.b.tobytes())
        return h.hexdigest()


def _remap_labels(raw: np.ndarray) -> np.ndarray:
    """Map raw label values onto {-1, +1}, logging any convention remap."""
    values = set(np.unique(raw).tolist())
    if values <= {-1.0, 1.0}:
        return raw
    if values <= {0.0, 1.0}:
        logger.warning("labels use the {0,1} convention; remapping 0 -> -1, 1 -> +1")
        return np.where(raw == 0.0, -1.0, 1.0)
    if values <= {1.0, 2.0}:
        logger.warning("labels use the {1,2} convention; remapping 1 -> +1, 2 -> -1")
        return np.where(raw == 2.0, -1.0, 1.0)
    raise DataError(f"unrecognized label values {sorted(values)}")


def libsvm_parse(source: str | IO[str] | Iterable[str]) -> Dataset:
    """Parse LIBSVM-format text into a dense Dataset.

    Lines look like ``label idx:val idx:val ...`` with 1-based, strictly
    increasing feature indices. ``d`` is the largest feature index seen.
    Labels in the {0,1} or {1,2} conventions are remapped onto {-1,+1}
    with a logged notice. Blank lines are skipped; any run of spaces or
    tabs between tokens is accepted. A ``str`` source is split into lines
    as a text file is (universal newlines: at LF, CRLF and CR only).

    The source is read one line at a time: a file handle is iterated
    lazily, never collected. Each line becomes one index array and one
    value array, converted by one ``np.array`` call each (numpy applies
    Python's ``int`` and ``float`` to every string, so both accept exactly
    what those do), and no Python object is kept per entry. ``A`` is
    allocated once ``d`` is known and filled one column per line.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    labels: list[float] = []
    columns: list[tuple[np.ndarray, np.ndarray]] = []
    d = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise DataError(f"line {lineno}: cannot parse label {tokens[0]!r}") from None
        del tokens[0]
        idx, val = _parse_entries(lineno, tokens)
        if idx.size:
            d = max(d, int(idx[-1]))  # indices increase, so the last is the largest
        columns.append((idx - 1, val))

    if not columns:
        raise DataError("empty dataset: no samples found")
    try:
        A = np.zeros((d, len(columns)))
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise DataError(f"a dense {d}x{len(columns)} feature matrix does not fit in memory") from None
    for i, (rows, values) in enumerate(columns):
        A[rows, i] = values
    b = _remap_labels(np.asarray(labels, dtype=np.float64))
    return Dataset(A, b)


def _parse_entries(lineno: int, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of one line's ``idx:val`` tokens, checked."""
    if not tokens:  # a label-only line: an all-zero sample
        return np.empty(0, dtype=np.int64), np.empty(0)
    if set(map(str.count, tokens, repeat(":"))) - {1}:
        bad = next(t for t in tokens if t.count(":") != 1)
        raise DataError(f"line {lineno}: malformed entry {bad!r}")
    # Every token holds exactly one colon, so the pieces alternate idx, val.
    pieces = ":".join(tokens).split(":")
    try:
        idx = np.array(pieces[0::2], dtype=np.int64)
        val = np.array(pieces[1::2], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"line {lineno}: malformed entry ({exc})") from None
    except OverflowError:
        raise DataError(f"line {lineno}: a feature index does not fit in 64 bits") from None
    # Report the first index that is below 1 or not above its predecessor.
    if idx[0] < 1:
        k = 0
    else:
        drops = np.flatnonzero(np.diff(idx) <= 0)
        if not drops.size:
            return idx, val
        k = int(drops[0]) + 1
    if idx[k] < 1:
        raise DataError(f"line {lineno}: feature index {int(idx[k])} is not 1-based")
    raise DataError(f"line {lineno}: feature indices not strictly increasing at {tokens[k]!r}")


def libsvm_serialize(dataset: Dataset) -> str:
    """Write a Dataset back to LIBSVM text (nonzero entries only)."""
    out: list[str] = []
    for i in range(dataset.q):
        col = dataset.A[:, i]
        nz = np.nonzero(col)[0]
        entries = " ".join(f"{j + 1}:{col[j]:.17g}" for j in nz)
        label = "+1" if dataset.b[i] > 0 else "-1"
        out.append(f"{label} {entries}".rstrip())
    return "\n".join(out) + "\n"


def normalize_columns(dataset: Dataset) -> Dataset:
    """Return a Dataset whose feature columns have unit Euclidean norm."""
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        norms = dataset.column_norms
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"cannot normalize: column {int(zero[0])} is zero")
    overflow = np.nonzero(~np.isfinite(norms))[0]
    if overflow.size:
        raise DataError(f"cannot normalize: the norm of column {int(overflow[0])} overflows")
    return Dataset(dataset.A / norms[np.newaxis, :], dataset.b)


def synthetic_generate(d: int, q: int, rng: np.random.Generator) -> Dataset:
    """Generate the synthetic benchmark dataset.

    Entries of A are i.i.d. uniform on [0, 1) and labels are uniform on
    {-1, +1}; columns are then normalized. Draw order (A first, then b)
    is part of the determinism contract.
    """
    if d < 1 or q < 1:
        raise DataError(f"require d, q >= 1, got ({d}, {q})")
    A = rng.random((d, q))
    b = rng.integers(0, 2, size=q) * 2.0 - 1.0
    return normalize_columns(Dataset(A, b))
