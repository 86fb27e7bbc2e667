import io
import re
import tracemalloc

import numpy as np
import pytest

from madmm.data import (
    DataError,
    Dataset,
    libsvm_parse,
    libsvm_serialize,
    make_rng,
    normalize_columns,
    synthetic_generate,
)

from checkers import reference_libsvm_parse


def test_make_rng_deterministic_and_counter_based():
    a = make_rng(12345).random(8)
    b = make_rng(12345).random(8)
    np.testing.assert_array_equal(a, b)
    # Frozen probe: Philox output for seed 0 must never drift between
    # versions or platforms, otherwise every benchmark seed changes meaning.
    probe = make_rng(0).random(3)
    np.testing.assert_allclose(
        probe,
        [0.014067035665647709, 0.2577672456246177, 0.47156538101528966],
        rtol=0,
        atol=0,
    )


def test_dataset_validation():
    A = np.eye(3)
    with pytest.raises(DataError):
        Dataset(A, np.array([1.0, 2.0, -1.0]))
    with pytest.raises(DataError):
        Dataset(A, np.array([1.0, -1.0]))
    with pytest.raises(DataError, match="feature 0 of sample 1 is nan"):
        Dataset(np.array([[1.0, np.nan], [2.0, 3.0]]), np.array([1.0, -1.0]))
    with pytest.raises(DataError, match="feature 1 of sample 0 is inf"):
        libsvm_parse("+1 1:1 2:inf\n-1 1:1\n")
    ds = Dataset(A, np.array([1.0, -1.0, 1.0]))
    assert ds.d == 3 and ds.q == 3
    np.testing.assert_allclose(ds.column_norms, np.ones(3))


def test_checksum_tracks_content():
    ds = synthetic_generate(6, 4, make_rng(0))
    assert ds.checksum() == synthetic_generate(6, 4, make_rng(0)).checksum()
    assert ds.checksum() != synthetic_generate(6, 4, make_rng(1)).checksum()


def test_libsvm_parse_basic():
    ds = libsvm_parse("+1 1:0.5 3:2.0\n-1 2:1.0\n")
    assert ds.d == 3 and ds.q == 2
    np.testing.assert_allclose(ds.A[:, 0], [0.5, 0.0, 2.0])
    np.testing.assert_allclose(ds.A[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(ds.b, [1.0, -1.0])


def test_libsvm_parse_accepts_crlf_and_file_objects():
    text = "+1 1:1.0\r\n-1 1:2.0\r\n"
    ds = libsvm_parse(io.StringIO(text))
    assert ds.q == 2
    np.testing.assert_allclose(ds.A[0], [1.0, 2.0])


def test_libsvm_label_remaps():
    ds01 = libsvm_parse("0 1:1\n1 1:2\n")
    np.testing.assert_allclose(ds01.b, [-1.0, 1.0])
    ds12 = libsvm_parse("1 1:1\n2 1:2\n")
    np.testing.assert_allclose(ds12.b, [1.0, -1.0])
    with pytest.raises(DataError):
        libsvm_parse("3 1:1\n")


def test_libsvm_parse_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 2"):
        libsvm_parse("+1 1:1\n-1 2:oops\n")
    with pytest.raises(DataError, match="line 1.*increasing"):
        libsvm_parse("+1 2:1 2:2\n")
    with pytest.raises(DataError, match="1-based"):
        libsvm_parse("+1 0:1\n")
    with pytest.raises(DataError, match="empty"):
        libsvm_parse("\n\n")
    # The first bad index is named; a drop to 0 after valid indices is
    # reported as not 1-based, as a token-by-token reading would meet it.
    with pytest.raises(DataError, match="line 2: feature index 0 is not 1-based"):
        libsvm_parse("+1 1:1\n-1 3:1 0:1\n")
    with pytest.raises(DataError, match="line 2: .*increasing at '4:7'"):
        libsvm_parse("+1 1:1\n-1 2:1 5:1 4:7 9:1\n")
    with pytest.raises(DataError, match="line 1: .*64 bits"):
        libsvm_parse("+1 99999999999999999999:1\n")


@pytest.mark.parametrize("token", ["5", "1:2:3", ":5", "1:", "1.5:2", "x:1"])
def test_libsvm_parse_rejects_malformed_tokens(token):
    with pytest.raises(DataError, match="line 3: malformed entry"):
        libsvm_parse(f"+1 1:1\n\n-1 1:1 {token} 9:1\n")


_BAD_TOKENS = ("5", "1:2:3", ":5", "1:", "1.5:2", "x:1", "0:1", "-3:1")


def _random_value(rng) -> str:
    form = int(rng.integers(8))
    v = rng.standard_normal() * 10.0 ** int(rng.integers(-5, 6))
    if form == 0:
        return str(int(rng.integers(-9, 10)))
    if form == 1:
        return f"{v:.3e}"
    if form == 2:
        return f"{v:+.4f}"
    if form == 3 and rng.random() < 0.1:
        return str(rng.choice(["nan", "inf", "-Infinity"]))
    return f"{v:.17g}"


def _random_libsvm_text(rng) -> str:
    """LIBSVM text with blank lines, CRLF, tabs and runs of spaces,
    label-only lines, one of three label conventions and, sometimes, large
    indices or one corrupted line."""
    label_set = [["-1", "+1", "1", "-1.0"], ["0", "1"], ["1", "2"]][int(rng.integers(3))]
    d_max = int(rng.choice([4, 40, 200_000]))
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    lines = []
    for _ in range(int(rng.integers(1, 9))):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "  ", "\t", " \t "])))
            continue
        k = int(rng.integers(0, min(d_max, 12) + 1))
        idx = np.sort(rng.choice(d_max, size=k, replace=False)) + 1
        tokens = [str(rng.choice(label_set))]
        tokens += [f"{i}:{_random_value(rng)}" for i in idx]
        seps = rng.choice([" ", "  ", "\t", " \t "], size=len(tokens))
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        lines.append(line[1:] if rng.random() < 0.5 else line + str(seps[0]))
    if rng.random() < 0.4:
        j = int(rng.integers(len(lines)))
        tokens = lines[j].split() or ["+1"]
        kind = int(rng.integers(4))
        if kind == 0:
            tokens[0] = str(rng.choice(["x", "1:1", "--1"]))
        elif kind == 1:
            tokens.insert(int(rng.integers(1, len(tokens) + 1)), str(rng.choice(_BAD_TOKENS)))
        elif kind == 2 and len(tokens) > 2:
            tokens[1:] = tokens[:0:-1]  # indices run backwards
        else:
            tokens.append(tokens[-1] if len(tokens) > 1 else "1:1:1")
        lines[j] = " ".join(tokens)
    return eol.join(lines) + (eol if rng.random() < 0.7 else "")


def _outcome(parse, source):
    """A's shape and bytes and b's bytes, or the failing line number; an
    error that names no line is compared by its message."""
    try:
        ds = parse(source)
    except DataError as exc:
        m = re.match(r"line (\d+): ", str(exc))
        return ("line", int(m.group(1))) if m else ("error", str(exc))
    return ("ok", ds.A.shape, ds.A.tobytes(), ds.b.tobytes())


def test_libsvm_parse_matches_reference_parser():
    rng = make_rng(2024)
    kinds = {"ok": 0, "line": 0, "error": 0}
    for case in range(400):
        text = _random_libsvm_text(rng)
        sources = (
            lambda: text,
            lambda: io.StringIO(text),
            lambda: iter(text.splitlines(keepends=True)),
        )
        for make in sources:
            got = _outcome(libsvm_parse, make())
            want = _outcome(reference_libsvm_parse, make())
            assert got == want, (case, text)
        kinds[want[0]] += 1
    # The generator must exercise accepted and rejected inputs alike.
    assert min(kinds.values()) >= 10, kinds


def test_libsvm_parse_matches_reference_on_wide_file():
    ds = synthetic_generate(7129, 44, make_rng(5))
    text = libsvm_serialize(ds)
    got, want = libsvm_parse(text), reference_libsvm_parse(text)
    assert got.checksum() == want.checksum() == ds.checksum()


def test_libsvm_parse_memory_stays_near_file_size(tmp_path):
    path = tmp_path / "data.libsvm"
    path.write_text(libsvm_serialize(synthetic_generate(2000, 30, make_rng(0))))
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            libsvm_parse(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size, (peak, path.stat().st_size)


def test_libsvm_round_trip_with_blank_lines_and_crlf(tmp_path):
    A = synthetic_generate(9, 6, make_rng(4)).A.copy()
    A[:, 2] = 0.0  # serialized as a label-only line
    A[3, :] = 0.0
    A[::2, 4] = 0.0
    ds = Dataset(A, np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
    lines = libsvm_serialize(ds).splitlines()
    crlf = "\r\n\r\n".join(lines) + "\r\n\r\n"
    path = tmp_path / "crlf.libsvm"
    path.write_bytes(crlf.encode())
    for again in (libsvm_parse(crlf), libsvm_parse(io.StringIO(crlf))):
        assert again.checksum() == ds.checksum()
    with open(path, encoding="utf-8") as fh:
        assert libsvm_parse(fh).checksum() == ds.checksum()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+1 1:1\x0c-1 1:2\n-1 1:3\n", "line 1: malformed entry '-1'"),
        ("+1 1:1\u2028-1 1:2\n", "line 1: malformed entry '-1'"),
        ("+1 1:1\r-1 1:2\r-1 1:3\r", 3),
    ],
)
def test_libsvm_str_source_splits_lines_as_a_file_does(tmp_path, text, expected):
    # Form feed and U+2028 end a line for str.splitlines() but not for a
    # text file; a lone CR ends one for both.
    def outcome(source):
        try:
            return libsvm_parse(source).q
        except DataError as exc:
            return str(exc)

    path = tmp_path / "data.libsvm"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        assert outcome(fh) == outcome(text) == expected


def test_libsvm_round_trip():
    ds = synthetic_generate(7, 5, make_rng(3))
    again = libsvm_parse(libsvm_serialize(ds))
    assert again.d == ds.d and again.q == ds.q
    np.testing.assert_array_equal(again.A, ds.A)
    np.testing.assert_array_equal(again.b, ds.b)


def test_normalize_columns():
    ds = Dataset(np.array([[3.0, 0.0], [4.0, 2.0]]), np.array([1.0, -1.0]))
    out = normalize_columns(ds)
    np.testing.assert_allclose(out.A[:, 0], [0.6, 0.8])
    np.testing.assert_allclose(np.linalg.norm(out.A, axis=0), [1.0, 1.0], atol=1e-12)
    # idempotence
    twice = normalize_columns(out)
    np.testing.assert_allclose(twice.A, out.A, atol=1e-15)


def test_normalize_rejects_zero_column():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, -1.0]))
    with pytest.raises(DataError, match="column 1"):
        normalize_columns(ds)


def test_normalize_rejects_overflowing_column_norm():
    ds = Dataset(np.array([[1.0, 1e308], [1.0, 1e308]]), np.array([1.0, -1.0]))
    with pytest.raises(DataError, match="column 1 overflows"):
        normalize_columns(ds)


def test_synthetic_generate_contract():
    ds = synthetic_generate(1000, 100, make_rng(0))
    assert (ds.d, ds.q) == (1000, 100)
    np.testing.assert_allclose(np.linalg.norm(ds.A, axis=0), np.ones(100), atol=1e-12)
    assert set(np.unique(ds.b)) <= {-1.0, 1.0}
    ds2 = synthetic_generate(1000, 100, make_rng(0))
    np.testing.assert_array_equal(ds.A, ds2.A)
    np.testing.assert_array_equal(ds.b, ds2.b)


def test_synthetic_uniform_source_mean():
    # Raw entries are uniform [0,1): their mean over 1e6 draws sits in
    # [0.499, 0.501]. Checked on the generator directly since the stored
    # matrix is normalized.
    mean = make_rng(42).random(10**6).mean()
    assert 0.499 <= mean <= 0.501


def test_synthetic_rejects_degenerate_sizes():
    with pytest.raises(DataError):
        synthetic_generate(0, 5, make_rng(0))
    with pytest.raises(DataError):
        synthetic_generate(5, 0, make_rng(0))


def test_synthetic_draw_order_is_pinned():
    # A (d*q draws) first, then labels: the matrix must therefore match a
    # hand-replayed stream, column-normalized.
    rng = make_rng(9)
    raw = rng.random((20, 3))
    lab = rng.integers(0, 2, size=3) * 2.0 - 1.0
    ds = synthetic_generate(20, 3, make_rng(9))
    np.testing.assert_allclose(ds.A, raw / np.linalg.norm(raw, axis=0), atol=1e-15)
    np.testing.assert_array_equal(ds.b, lab)
