import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoa.codes import LinearCode, hamming_code
from eoa.gf import gf_new
from eoa import oa as oa_module
from eoa.cli import main
from eoa.oa import (CertificateError, OrthogonalArray, StrengthViolation, format_oa,
                    max_strength, oa_from_code, read_oa, read_oa_entries, read_oa_file,
                    subset_histograms, verify_strength, write_oa)

F4 = gf_new(2, 2)
F2 = gf_new(2, 1)


def format_oa_oracle(oa) -> str:
    """The per-symbol writer that format_oa replaced: one str() per symbol."""
    lines = [f"OA {oa.N} {oa.n} {oa.q} {oa.t} {oa.lam}"]
    for row in oa.entries:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def read_rows_oracle(rows: list[str]) -> np.ndarray:
    """The per-row parser that read_oa_file replaced: one np.array per row
    (tokens parsed as int() does), ragged rows rejected by width."""
    parsed = []
    for i, ln in enumerate(rows):
        try:
            parsed.append(np.array(ln.split(), dtype=np.int64))
        except OverflowError as exc:
            raise ValueError(f"array row {i}: {exc}") from None
    widths = sorted({row.size for row in parsed})
    if len(widths) != 1:
        raise ValueError(f"array widths {widths}")
    return np.array(parsed)


def read_spied(path):
    """read_oa_file's outcome, ("ok", entries, header, trailer) or
    ("error", message), and how often it called the text path and
    np.loadtxt: the byte view makes neither call."""
    calls = {"text": 0, "loadtxt": 0}

    def spy(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oa_module, "_read_text", spy("text", oa_module._read_text))
        mp.setattr(np, "loadtxt", spy("loadtxt", np.loadtxt))
        try:
            entries, header, trailer = read_oa_file(path)
        except ValueError as exc:
            return ("error", str(exc)), calls
    assert entries.flags["C_CONTIGUOUS"] and entries.flags["OWNDATA"]
    return ("ok", entries, header, trailer), calls


def same_outcome(a, b) -> bool:
    """Equal messages, or equal entries (values, dtype), header and trailer."""
    if a[0] != b[0] or a[0] == "error":
        return a == b
    return (a[1].dtype == b[1].dtype and np.array_equal(a[1], b[1])
            and a[2:] == b[2:])


def blank_after_header(data: bytes) -> bytes:
    """The same file with a blank line after its header: the text path
    drops it, so it reads as the file would there, with the same rows."""
    return data.replace(b"\n", b"\n\n", 1)


@pytest.fixture(scope="module")
def oa16():
    return oa_from_code(hamming_code(F4, 2).dual(), 3)


def test_oa16_parameters(oa16):
    assert (oa16.N, oa16.n, oa16.q, oa16.t, oa16.lam) == (16, 5, 4, 2, 1)
    assert verify_strength(oa16.entries, 4, 2) == 1


def test_oa16_fails_strength_3(oa16):
    result = verify_strength(oa16.entries, 4, 3)
    assert isinstance(result, StrengthViolation)
    assert len(result.rows) == 3 and len(result.symbols) == 3


def test_single_row_all_symbols():
    entries = np.arange(4, dtype=np.int64)[None, :]
    assert verify_strength(entries, 4, 1) == 1


def test_identity_code_gives_strength1_oa():
    oa = oa_from_code(LinearCode(F4, np.eye(1, dtype=np.int64)), 2)
    assert (oa.N, oa.n, oa.t, oa.lam) == (4, 1, 1, 1)
    assert sorted(oa.entries[0].tolist()) == [0, 1, 2, 3]


def test_oa_from_dual_of_binary_hamming():
    oa = oa_from_code(hamming_code(F2, 3).dual(), 3)
    assert (oa.N, oa.n, oa.q, oa.t, oa.lam) == (8, 7, 2, 2, 2)


def test_oa_from_code_rejects_wrong_dual_distance(oa16):
    """A failed strength count is a CertificateError; a dual distance with
    no positive strength is a plain ValueError."""
    with pytest.raises(CertificateError):
        oa_from_code(hamming_code(F4, 2).dual(), 4)  # claims strength 3
    with pytest.raises(ValueError) as info:
        oa_from_code(hamming_code(F4, 2).dual(), 1)
    assert not isinstance(info.value, CertificateError)


def test_strength_monotone(oa16):
    # passing at t implies passing at every t' < t with lam' = lam*q^(t-t')
    for entries, q, t, lam in [(oa16.entries, 4, 2, 1)]:
        for lower in range(1, t):
            assert verify_strength(entries, q, lower) == lam * q ** (t - lower)


def test_counting_identity(oa16):
    assert oa16.lam * oa16.q**oa16.t == oa16.N
    with pytest.raises(ValueError):
        OrthogonalArray(4, 5, 16, 2, 2, oa16.entries.copy())


def test_column_permutation_invariance(oa16):
    rng = np.random.default_rng(11)
    shuffled = oa16.entries[:, rng.permutation(16)]
    assert verify_strength(shuffled, 4, 2) == 1


def test_column_counts_encoding():
    """Column tuples encode base q, first subset row leading, whatever the
    order of the rows in the array; one intp count row per subset, in the
    order asked.  Subsets must be strictly increasing, of one size and
    inside the array."""
    sub = np.array([[0, 1, 1, 3], [2, 0, 0, 3]])
    counts, = subset_histograms(sub, 4, [(0, 1)])
    flipped, = subset_histograms(sub[::-1], 4, [(0, 1)])
    assert counts.shape == (16,) and counts.sum() == 4
    assert (counts[0 * 4 + 2], counts[1 * 4 + 0], counts[3 * 4 + 3]) == (1, 2, 1)
    assert (flipped[2 * 4 + 0], flipped[0 * 4 + 1], flipped[3 * 4 + 3]) == (1, 2, 1)
    both = subset_histograms(np.vstack([sub, sub[::-1]]), 4, [(2, 3), (0, 1)])
    assert both.shape == (2, 16) and both.dtype == np.intp
    assert np.array_equal(both, [flipped, counts])
    assert subset_histograms(sub, 4, []).shape == (0, 0)
    for bad in ([(1, 0)], [(0, 0)], [(0, 2)], [(-1, 0)], [(0,), (0, 1)], [()]):
        with pytest.raises(ValueError):
            subset_histograms(sub, 4, bad)


def test_max_strength_cases(oa16):
    assert max_strength(oa16.entries, 4) == 2
    assert max_strength(np.zeros((3, 4), dtype=np.int64), 4) == 0
    full = LinearCode(F2, np.eye(3, dtype=np.int64)).codewords()
    assert max_strength(full, 2) == 3


def max_strength_oracle(entries, q):
    """The loop max_strength replaced: every strength checked on all rows."""
    best = 0
    for t in range(1, entries.shape[0] + 1):
        if isinstance(verify_strength(entries, q, t), StrengthViolation):
            break
        best = t
    return best


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.integers(0, 9))
def test_max_strength_equals_all_rows_loop(q, n, seed, bad_row):
    """Checking doubling row prefixes first changes no answer: code words of
    random linear codes (strength d(C^perp) - 1), as they are or with one
    symbol changed in a random row, which a late row hides from the
    early prefixes."""
    field = gf_new(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(n, 4) + 1))
    gen = np.vstack([np.eye(k, dtype=np.int64), rng.integers(0, q, size=(n - k, k))])
    entries = LinearCode(field, rng.permutation(gen)).codewords()
    if bad_row < n:
        entries[bad_row, 0] = (entries[bad_row, 0] + 1) % q
    assert max_strength(entries, q) == max_strength_oracle(entries, q)


def test_violation_reports_offender():
    entries = np.array([[0, 0, 1, 1], [0, 1, 0, 0]])
    result = verify_strength(entries, 2, 2)
    assert isinstance(result, StrengthViolation)
    assert result.rows == (0, 1)
    assert result.symbols == (1, 0)
    assert result.count == 2
    assert "rows (0, 1)" in str(result)


def test_oa_file_roundtrip(tmp_path, oa16):
    path = tmp_path / "oa16.txt"
    write_oa(path, oa16)
    back = read_oa(path)
    assert np.array_equal(back.entries, oa16.entries)
    write_oa(tmp_path / "again.txt", back)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(qt=st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2), (9, 1), (16, 2), (256, 1)]),
       lam=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_oa_file_roundtrip_is_exact(qt, lam, n, seed):
    """write_oa then read_oa_file gives back the entries and the header of
    any array, with multi-digit symbols too, and rewriting is byte-exact;
    a header whose t exceeds the n rows is refused with the file's name."""
    q, t = qt
    N = lam * q**t
    entries = np.random.default_rng(seed).integers(0, q, size=(n, N))
    oa = OrthogonalArray(q, n, N, t, lam, entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "oa.txt"
        write_oa(path, oa)
        outcome, calls = read_spied(path)
        # the writer's layout with one-digit symbols is read by the byte view
        assert calls["loadtxt"] == (0 if entries.max() < 10 else 1)
        if t > n:
            assert outcome == ("error", f"{path}: header strength t = {t} "
                                        f"out of range for {n} rows")
            return
        _, back, header, trailer = outcome
        text = path.read_bytes()
    assert back.dtype == np.uint8 and np.array_equal(back, entries)
    assert header == (N, n, q, t, lam) and trailer is None
    assert format_oa(OrthogonalArray(q, n, N, t, lam, back)) == text


def _header_only(q, entries):
    """Stand-in with the fields format_oa reads, for any shape (an
    OrthogonalArray needs N = lambda q^t)."""
    n, N = entries.shape
    return SimpleNamespace(q=q, n=n, N=N, t=1, lam=1, entries=entries)


# a row block written with separators other than single spaces
_SEPARATORS = [" ", "  ", "\t", " \t ", "\t\t"]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 8, 9, 11, 16, 256]), n=st.integers(1, 5),
       N=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       crlf=st.booleans(), blank=st.booleans(), sep=st.sampled_from(_SEPARATORS))
def test_text_format_matches_oracles(q, n, N, seed, crlf, blank, sep):
    """format_oa equals the per-symbol writer byte for byte, one-digit
    symbols (q <= 10) by the uint16 layout, wider ones (q = 11 mixes one-
    and two-digit tokens) in one block of rows or in blocks of one and two
    rows, from C- or Fortran-ordered entries, and read_oa_file equals the
    per-row parser, on the written text and on the same rows respaced with
    tabs or runs of spaces, CRLF line ends and blank lines."""
    entries = np.random.default_rng(seed).integers(0, q, size=(n, N))
    oa = _header_only(q, entries)
    data = format_oa(oa)
    assert isinstance(data, bytes) and data == format_oa_oracle(oa).encode()
    assert format_oa(_header_only(q, np.asfortranarray(entries))) == data
    for block in (N, 2 * N + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oa_module, "_BLOCK_KEYS", block)
            assert format_oa(oa) == data
    text = data.decode()
    head, *rows = text.splitlines()
    respaced = [sep + sep.join(row.split()) + sep for row in rows]
    end = "\r\n" if crlf else "\n"
    gap = end if blank else ""
    variants = [text, head + end + gap + (end + gap).join(respaced) + end]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "oa.txt"
        for variant in variants:
            path.write_bytes(variant.encode())
            (_, back, header, trailer), calls = read_spied(path)
            # the written text with one-digit symbols goes through the byte
            # view, every respaced variant through the text path
            one_digit = variant is text and entries.max() < 10
            assert calls["loadtxt"] == (0 if one_digit else 1)
            assert back.dtype == np.uint8 and back.flags["C_CONTIGUOUS"]
            lines = [ln for ln in variant.splitlines()[1:] if ln.strip()]
            assert np.array_equal(back, read_rows_oracle(lines))
            assert np.array_equal(back, entries)
            assert header == (N, n, q, 1, 1) and trailer is None


@pytest.mark.parametrize("data, view, expected", [
    (b"OA 4 1 4 1 1\n0 1 2 3\n", True, ([[0, 1, 2, 3]], (4, 1, 4, 1, 1), None)),
    (b"OA 1 3 2 1 1\n0\n1\n1\nEULER 1 1\n", True,
     ([[0], [1], [1]], (1, 3, 2, 1, 1), (1, 1))),
    (b"OA 1 1 2 1 1\n1\n", True, ([[1]], (1, 1, 2, 1, 1), None)),
    (b"OA 0 2 4 1 1\n", False, "array shape (0, ) != (2, 0)"),
    (b"OA 4 0 4 1 1\n", False, "array shape (0, ) != (0, 4)"),
    (b"OA 0 0 4 1 1\nEULER 1 1\n", False, "array shape (0, ) != (0, 0)"),
    (b"OA 4 2 4 1 1\n0 1 2 3\n3 2 1 0", False,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), None)),
    (b"OA 4 2 4 1 1\n0 1 2 3\n3 2 1 0\nEULER 1 1", False,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), (1, 1))),
    (b"OA 4 2 4 1 1\n0 1 2 3 \n3 2 1 0\n", False,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), None)),
    (b"OA 04 002 4 01 001\n0 1 2 3\n3 2 1 0\nEULER 01 1\n", True,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), (1, 1))),
    (b"OA 4 2 4 1 1\n0 1 2 3\n3 2 1 0\nEULER  1 1 \n", False,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), (1, 1))),
    (b"OA 4 2 16 1 1\n0 1 2 9\n9 8 1 0\n", True,
     ([[0, 1, 2, 9], [9, 8, 1, 0]], (4, 2, 16, 1, 1), None)),
    (b"OA 4 2 4 1 1\n0 1 2 3\n3 2 7 0\n", True, "symbols out of range [0, 4)"),
    (b"OA 4 2 4 1 1\n0 1 2 3\n3 2 1 0\n\n", False,
     ([[0, 1, 2, 3], [3, 2, 1, 0]], (4, 2, 4, 1, 1), None)),
    (b"OA 2 2 4 1 1\n0 1\n2 3\nEULER 1 1\nEULER 1 1\n", False,
     "array row 2: bad symbol 'EULER'"),
], ids=["n1", "N1", "n1-N1", "N0", "n0", "n0-N0", "no-final-newline",
        "trailer-no-final-newline", "trailing-space", "leading-zeros",
        "trailer-extra-spaces", "q16-one-digit", "out-of-range", "blank-last-line",
        "two-trailers"])
def test_byte_view_edge_cases(tmp_path, data, view, expected):
    """Files at the edges of the written layout read through the byte view
    (view) or the text path, and either way as the text path reads the same
    file with a blank line after its header: the same entries, dtype,
    header and trailer, or the same one-line error."""
    path = tmp_path / "edge.txt"
    path.write_bytes(data)
    outcome, calls = read_spied(path)
    assert calls["text"] == (0 if view else 1)
    if isinstance(expected, str):
        assert outcome == ("error", f"{path}: {expected}")
    else:
        rows, header, trailer = expected
        assert outcome[2:] == (header, trailer)
        assert outcome[1].dtype == np.uint8 and np.array_equal(outcome[1], rows)
    path.write_bytes(blank_after_header(data))
    text, calls = read_spied(path)
    assert calls["text"] == 1 and same_outcome(outcome, text)


# (bytes a change may hit, the byte that replaces it)
_BYTE_CLASSES = {"digit-to-colon": (b"0123456789", b":"),
                 "space-to-tab": (b" ", b"\t"),
                 "newline-to-space": (b"\n", b" "),
                 "digit-to-minus": (b"0123456789", b"-")}


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 9]), n=st.integers(1, 4), N=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), euler=st.booleans(),
       change=st.sampled_from(sorted(_BYTE_CLASSES)), at=st.integers(0, 2**16))
def test_one_changed_byte_reads_as_the_text_path(q, n, N, seed, euler, change, at):
    """One byte of a written file's row block changed, per byte class (a
    digit to ':' or '-', a space to a tab, a newline to a space), leaves
    the byte view's layout: the file reads, or fails with the same
    message, as it does with a blank line after its header."""
    entries = np.random.default_rng(seed).integers(0, q, size=(n, N))
    data = format_oa(_header_only(q, entries))
    data += b"EULER 1 1\n" if euler else b""
    start = data.index(b"\n") + 1
    cls, new = _BYTE_CLASSES[change]
    where = [i for i in range(start, start + 2 * n * N) if data[i] in cls]
    if not where:                               # N = 1 has no space
        return
    i = where[at % len(where)]
    data = data[:i] + new + data[i + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "oa.txt"
        path.write_bytes(data)
        changed, calls = read_spied(path)
        assert calls["text"] == 1
        path.write_bytes(blank_after_header(data))
        assert same_outcome(changed, read_spied(path)[0])


@pytest.mark.parametrize("bad", [-1, 4])
def test_format_oa_rejects_out_of_range_symbols(bad):
    entries = np.array([[0, 1, 2, 3], [3, 2, bad, 0]])
    with pytest.raises(ValueError, match=r"symbols in \[0, 4\)"):
        format_oa(_header_only(4, entries))


def test_read_oa_rejects_tampered_file(tmp_path, oa16):
    path = tmp_path / "tampered.txt"
    write_oa(path, oa16)
    lines = path.read_text().splitlines()
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[1] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_oa(path)
    assert not isinstance(info.value, CertificateError)   # a lying file is input


def test_read_oa_rejects_wrong_lambda_claim(tmp_path, oa16):
    path = tmp_path / "wrong.txt"
    text = f"OA 16 5 4 1 4\n" + "\n".join(
        " ".join(str(int(v)) for v in row) for row in oa16.entries) + "\n"
    path.write_text(text)
    assert read_oa(path).lam == 4  # t=1 claim is consistent
    path.write_text(text.replace("OA 16 5 4 1 4", "OA 16 5 4 1 2"))
    with pytest.raises(ValueError):
        read_oa(path)


def test_read_oa_file_trailer(tmp_path, oa16):
    """One reader for both formats: the EULER trailer is split off once."""
    path = tmp_path / "oa16.txt"
    write_oa(path, oa16)
    entries, header, trailer = read_oa_file(path)
    assert np.array_equal(entries, oa16.entries) and trailer is None
    assert header == (16, 5, 4, 2, 1)
    path.write_text(path.read_text() + "EULER 2 7\n")
    assert read_oa_file(path)[2] == (2, 7)
    assert np.array_equal(read_oa_entries(path)[0], oa16.entries)
    path.write_text(path.read_text().replace("EULER 2 7", "EULER 2"))
    with pytest.raises(ValueError, match="malformed EULER trailer"):
        read_oa_file(path)


@pytest.mark.parametrize("text", ["", "EULER 2 1\n", "OX 16 5 4 2 1\n",
                                  "OA 2 2 4 1 1\n0 1\n",
                                  "OA 2 2 4 1 1\n0 1\n2\n",
                                  "OA 2 2 4 1 1\n0 1\n2 1.5\n",
                                  "OA 2 1 4 1 1\n0 99999999999999999999\n",
                                  "OA 2 0 4 1 1\n",
                                  "OA 2 2 4 1 1\n0 1\n2 3 # comment\n",
                                  "OA 2 2 4 1 1\n0 1\n# 2 3\n",
                                  "OA 2 2 4 1 1\n0 1\n2 #3\n",
                                  "OA 2 1 16 1 1\n0 1_0\n",
                                  "OA 2 1 4 1 1\n0 \u0661\n",
                                  "OA 2 1 4 1 1\n0 1.5\n",
                                  "OA 2 1 4 1 1\n-99999999999999999999 0\n"])
def test_read_oa_file_rejects_bad_input(tmp_path, text):
    """Bad headers, shapes and tokens: one-line ValueErrors.  A symbol is
    ASCII decimal digits with an optional sign, so comments, digit
    separators, non-ASCII digits, decimals and int64 overflow are refused."""
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_oa_file(path)
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("token, message", [
    ("1_0", "bad symbol '1_0'"), ("\u0661", "bad symbol '\u0661'"),
    ("1.5", "bad symbol '1.5'"), ("#", "bad symbol '#'"),
    ("99999999999999999999", "symbol 99999999999999999999 overflows int64")])
def test_read_oa_file_names_file_and_bad_token(tmp_path, token, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"OA 2 2 16 1 1\n0 1\n2 {token}\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match="^" + re.escape(f"{path}: array row 1: {message}") + "$"):
        read_oa_file(path)


@pytest.mark.parametrize("text, message", [
    *((f"OA 2 2 4 1 1\n0 1\n2 {token}\n", "symbols out of range [0, 4)")
      for token in ("-1", "4", "255", "256", "300", "9223372036854775807")),
    ("OA 2 2 4 1 1\n0 1\n2 99999999999999999999\n",
     "array row 1: symbol 99999999999999999999 overflows int64"),
    ("OA 2 2 4 1 1\n0 1\n300\n", "array shape (2, 1/2) != (2, 2)"),
    ("OA 2 3 4 1 1\n0 1\n2 300\n", "array shape (2, 2) != (3, 2)")])
def test_read_oa_file_names_file_and_symbol_range(tmp_path, text, message):
    """At q = 4 a token in int64 range but outside [0, q) is a range error
    whatever dtype the row block is parsed into; a token beyond int64 is
    named, and a shape error goes before the range check."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        read_oa_file(path)


@pytest.mark.parametrize("text, message", [
    ("OA 2x 2 4 1 1\n0 1\n2 3\n", "malformed OA header"),
    ("OA 2 2 4 1 1.0\n0 1\n2 3\n", "malformed OA header"),
    ("OA 2 2 4 1\n0 1\n2 3\n", "malformed OA header"),
    ("OA 2 2 4 1 1\n0 1\n2 3\nEULER 1 x\n", "malformed EULER trailer"),
    ("OA 2 2 4 1 1\n0 1\n2 3\nEULER 1\n", "malformed EULER trailer")])
@pytest.mark.parametrize("blank", [False, True], ids=["written", "blank-line"])
def test_read_oa_file_names_file_and_malformed_line(tmp_path, text, message, blank):
    """A header or trailer whose fields are not integers, or are too few, is
    refused with the file's name, with or without a blank line after the
    header."""
    path = tmp_path / "bad.txt"
    data = text.encode()
    path.write_bytes(blank_after_header(data) if blank else data)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        read_oa_file(path)


def test_wide_symbols_read_back_and_verify(tmp_path, capsys):
    """A hand-made q = 300, t = 1 file (no field has that order) reads back
    exactly, as uint16, the smallest dtype that holds 299, and `oa verify`
    passes it."""
    entries = np.stack([np.arange(300), np.random.default_rng(300).permutation(300)])
    oa = OrthogonalArray(300, 2, 300, 1, 1, entries)
    path = tmp_path / "wide.txt"
    write_oa(path, oa)
    back, header, _ = read_oa_file(path)
    assert back.dtype == np.uint16 and np.array_equal(back, entries)
    assert header == (300, 2, 300, 1, 1)
    assert main(["oa", "verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "OK: strength 1 with lambda = 1\n"


@pytest.mark.parametrize("text, message", [
    ("OA 2 2 4 9 1\n0 1\n2 3\n", "header strength t = 9 out of range for 2 rows"),
    ("OA 2 2 4 0 1\n0 1\n2 3\n", "header strength t = 0 out of range for 2 rows"),
    ("OA 2 2 4 1 1\n0 1\n2 3\nEULER 3 1\n",
     "trailer strength t = 3 out of range for 2 rows"),
    ("OA 2 2 4 1 1\n0 1\n2 3\nEULER 0 1\n",
     "trailer strength t = 0 out of range for 2 rows")])
def test_read_oa_file_names_file_and_bad_strength(tmp_path, text, message):
    """A header or trailer t outside [1, n] is refused by the reader, next
    to the shape and symbol checks, with the file's name."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        read_oa_file(path)


def test_read_oa_file_whitespace_and_line_ends(tmp_path):
    """CRLF line ends, blank lines and runs of spaces or tabs between
    symbols all read as the plain format does; signs are allowed, -0 too."""
    path = tmp_path / "spaced.txt"
    path.write_bytes(b"OA 3 2 4 1 1\r\n\r\n  0\t\t1   2 \r\n \t \r\n"
                     b"+3\t-0 \t 1\r\nEULER 1 1\r\n")
    entries, header, trailer = read_oa_file(path)
    assert np.array_equal(entries, [[0, 1, 2], [3, 0, 1]])
    assert header == (3, 2, 4, 1, 1) and trailer == (1, 1)


def test_read_oa_file_ragged_rows_name_the_shape(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("OA 2 2 4 1 1\n0 1\n2\n")
    with pytest.raises(ValueError, match=r"array shape \(2, 1/2\) != \(2, 2\)"):
        read_oa_file(path)
