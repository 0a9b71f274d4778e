"""Orthogonal arrays: construction from codes and exhaustive strength checks.

An OA_lambda(N, n, q, t) is an n x N symbol array in which every t x N
sub-array contains each of the q^t column tuples exactly lambda times.
Verification is exhaustive counting over all C(n, t) row subsets -- a
certificate, not a sample.

The counting is blocked, and `subset_histograms` is the one counter: the
strength and Eulerian verifiers ask it for every t-row subset (the latter
through `euler.pair_histograms`), the averaging layer for the supports of
a drift's terms.  Each row carries one
digit per column: its symbol here, the (symbol, transition) pair in base
q^2 for a direct Eulerian count.  A job is one (t-1)-row prefix and one
group of later rows: two rows when base^(t+1) <= N, whose histograms are
the marginals of their joint one (half the keys, and no more bins than
keys), else one.  Runs of jobs share one key encoding and one bincount,
so many short prefixes cost one block; blocks hold at most `_BLOCK_KEYS`
keys and bins (one job when N alone is more), so memory stays bounded as
N grows, and only a block's keys are intp.  The histograms come back as
one count array, a row per subset in the order asked; judging is the
caller's.  Both verifiers judge all rows at once by one judge of
(vertex, transition) counts, a strength histogram being that of one
transition, and name only the first failing subset's violation; failing
pairs have their strength judged first, on their vertex marginal.
Counting is serial: a code-built Eulerian array's pairs factor through its
few distinct columns (see `euler.pair_histograms`), so no count of one is
large enough for threads to pay.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .codes import LinearCode


class Violation:
    """A failed verdict; `check` names the check, as `file_failure` words it."""
    check = "strength"


@dataclass(frozen=True)
class StrengthViolation(Violation):
    """First tuple whose column count breaks uniformity, with its row subset."""

    rows: tuple[int, ...]
    symbols: tuple[int, ...]
    count: int
    expected: float

    def __str__(self) -> str:
        return (f"rows {self.rows}: tuple {self.symbols} occurs {self.count} "
                f"times, expected {self.expected:g}")


class CertificateError(ValueError):
    """A constructed array failed its own certificate (strength, Eulerian
    property or full generating sets).  Only the constructors raise it; a
    file whose header claims fail is bad input, a plain ValueError."""


@dataclass(frozen=True)
class OrthogonalArray:
    """Verified n x N array with q levels, strength t, multiplicity lam."""

    q: int
    n: int
    N: int
    t: int
    lam: int
    entries: np.ndarray   # n x N, read-only

    def __post_init__(self):
        if self.lam * self.q**self.t != self.N:
            raise ValueError(f"lambda*q^t = {self.lam * self.q**self.t} != N = {self.N}")
        self.entries.setflags(write=False)

    def __repr__(self) -> str:
        return f"OA_{self.lam}({self.N}, {self.n}, {self.q}, {self.t})"


# Keys (and bins) per block: 2^16 int64 keys, 512 KB.  Blocks of 2^17 and
# more page-fault fresh memory on every call: 2.5x slower counts of wide
# histograms (10 x 6561 pair digits in base 81), and no faster elsewhere.
_BLOCK_KEYS = 2**16


def subset_histograms(digits: np.ndarray, base: int, subsets) -> np.ndarray:
    """(len(subsets), base^t) intp histograms, row i that of subsets[i].

    digits is an n x N array of per-row digits in [0, base); subsets are
    strictly increasing row tuples of one size t; row i counts the columns
    of digits[subsets[i]], encoded base `base` with the first row most
    significant; no subsets give a (0, 0) array.  Judging the histograms
    is the caller's.

    The subsets are grouped by their (t-1)-row prefix and their later rows
    by group: two rows when base^(t+1) <= N, whose histograms are the
    marginals of their joint one (half the keys, and no more bins than a
    row has keys), else one; pairs run from the last row back, row 0
    paired with itself when n is odd.  A job is one prefix and one group
    that holds a requested row.  A block of consecutive jobs, at most
    `_BLOCK_KEYS` keys and bins (one job when N or the bins alone are
    more), is one bincount, so many short prefixes share one: a key is its
    group's joint digits (computed once per call, in the smallest dtype
    that holds a job's bins) plus its prefix's digits above them (once per
    block) plus its job's slot offset; only a block's keys are intp.
    """
    # row slices of a Fortran-ordered or column-gathered array are strided,
    # which makes every key encoding and bincount about 1.7x slower
    digits = np.ascontiguousarray(digits)
    n, N = digits.shape
    subsets = np.array(list(subsets), dtype=np.intp)
    if not len(subsets):
        return np.zeros((0, 0), dtype=np.intp)
    if subsets.ndim != 2 or not subsets.size or subsets.min() < 0 \
            or subsets.max() >= n or np.any(np.diff(subsets, axis=1) <= 0):
        raise ValueError(f"subsets must be strictly increasing row tuples of "
                         f"one size in [0, {n})")
    t = subsets.shape[1]
    order = np.lexsort(subsets.T[::-1])
    ordered = subsets[order]                    # lexicographic, by prefix
    width = base**t
    group = 2 if base * width <= N else 1       # later rows per key
    first = n % group                           # 1: row 0 paired with itself
    # each subset's group, and its row's place in the group
    rank, second = np.divmod(ordered[:, -1] + first, group)
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = (ordered[1:, :-1] != ordered[:-1, :-1]).any(axis=1)
    prefix = np.cumsum(starts) - 1              # each subset's prefix
    prefix_rows = ordered[starts, :-1]
    starts[1:] |= rank[1:] != rank[:-1]         # now: a subset that starts a job
    job = np.cumsum(starts) - 1
    cut = np.append(np.flatnonzero(starts), len(ordered))
    pre, grp = prefix[cut[:-1]], rank[cut[:-1]]     # each job's prefix and group
    bins = base ** (t + group - 1)              # histogram of a job's key
    local = np.min_scalar_type(bins - 1)
    # each group's joint digits, first row leading: (n + first) / group rows
    g = np.arange((n + first) // group)
    lead = digits[np.maximum(group * g - first, 0)].astype(local)
    if group == 2:
        lead *= base
        np.add(lead, digits[2 * g + 1 - first], out=lead, casting="unsafe")
    depth = min(max(1, _BLOCK_KEYS // max(N, bins)), len(pre))
    code, head = np.empty((2, depth, N), dtype=local)
    keys = np.empty((depth, N), dtype=np.intp)
    slots = bins * np.arange(depth)[:, None]    # job j of a block counts at j * bins
    out = np.empty((len(ordered), width), dtype=np.intp)    # in sorted order
    span = None                                 # the prefixes held in head
    for lo in range(0, len(pre), depth):
        size = min(depth, len(pre) - lo)
        # mode="clip" skips the buffered copy that take makes into out
        key = np.take(lead, grp[lo:lo + size], axis=0, out=code[:size], mode="clip")
        if t > 1:       # the block's prefixes' digits, above their groups'
            p0, p1 = pre[lo], pre[lo + size - 1] + 1
            h = head[:p1 - p0]
            if span != (p0, p1):                # a prefix over blocks: once
                span = (p0, p1)
                h[:] = 0
                for column in prefix_rows[p0:p1].T:
                    h *= base
                    np.add(h, digits[column], out=h, casting="unsafe")
                h *= base**group
            key += h if len(h) == 1 else h[pre[lo:lo + size] - p0]
        np.add(key, slots[:size], out=keys[:size], casting="unsafe")
        counts = np.bincount(keys[:size].ravel(), minlength=size * bins)
        if group == 2:  # a pair's row histograms: sum out its other row (an
            # einsum is about 5x faster than a sum over one small axis)
            joint = counts.reshape(size, width // base, base, base)
            counts = np.concatenate([np.einsum(margin, joint)
                                     for margin in ("jpab->jpa", "jpab->jpb")])
        a, b = cut[lo], cut[lo + size]           # its subsets, each of its job's
        np.take(counts.reshape(-1, width), second[a:b] * size + job[a:b] - lo,
                axis=0, out=out[a:b], mode="clip")  # first or second rows
    return out if (order[1:] > order[:-1]).all() else out[np.argsort(order)]


def _judge_counts(counts: np.ndarray, used: np.ndarray, N: int) -> tuple[int, int | None]:
    """(first subset's lambda, first failing subset or None) of (subset,
    vertex, transition) counts, a row of any layout per subset, used[i] the
    transitions subset i takes; strength is the case of one transition.

    Uniform pair counts force lambda = N / (|G^t| |S|), so a subset whose
    lambda is not integral fails.  Unused transitions count 0, and the
    |G^t| |S| used pairs sum to N = lambda |G^t| |S|, so no pair above
    lambda leaves every used pair at exactly lambda.
    """
    S, R = used.shape
    counts = counts.reshape(S, -1)
    lam, rest = np.divmod(N, counts.shape[1] // R * used.sum(axis=1))
    bad = (rest != 0) | (counts.max(axis=1) > lam) | (lam != lam[0])
    return int(lam[0]), (int(np.argmax(bad)) if bad.any() else None)


def _first_violation(matrix: np.ndarray, used: np.ndarray, N: int, lam: int,
                     q: int, t: int) -> tuple:
    """(vertex, transition, count, expected) of a failing subset's (vertex,
    transition) matrix, tuples as t base-q digits: the first used pair off
    N / (|G^t| |S|), or off the first used pair when that is not integral
    (any mismatch then witnesses non-uniformity).  A uniform subset at
    another lambda gives (None, None, its lambda, the first subset's lam).
    """
    block = matrix[:, used]
    expected = N / block.size
    target = int(expected) if expected == int(expected) else int(block[0, 0])
    wrong = np.argwhere(block != target)
    if not len(wrong):
        return None, None, target, lam
    v, s = wrong[0]
    vertex, transition = (tuple(int(x) for x in np.unravel_index(code, (q,) * t))
                          for code in (v, np.flatnonzero(used)[s]))
    return vertex, transition, int(block[v, s]), expected


def _judge_strength(counts: np.ndarray, subsets: list, N: int, q: int,
                    t: int) -> int | StrengthViolation:
    """Lambda, or the first violation, of (subset, q^t) symbol histograms,
    judged by `_judge_counts` as pair counts of one transition."""
    counts = counts.reshape(len(subsets), -1, 1)
    used = np.ones((len(subsets), 1), dtype=bool)
    lam, i = _judge_counts(counts, used, N)
    if i is None:
        return lam
    # every subset's lambda is N / q^t, so a failing subset has a bad tuple
    symbols, _, count, expected = _first_violation(counts[i], used[i], N, lam, q, t)
    return StrengthViolation(subsets[i], symbols, count, expected)


def verify_strength(entries: np.ndarray, q: int, t: int) -> int | StrengthViolation:
    """Common multiplicity lambda at strength t, or the first violation.

    Counts every t-tuple of symbols in every t x N sub-array.  A violation
    names the offending row subset and tuple (needed when debugging
    hand-entered arrays); it is a return value, not an exception.  All
    subsets are judged at once by `_judge_strength`, which
    `verify_eulerian` shares, and only the first failing one is named.
    """
    entries = np.asarray(entries)
    n, N = entries.shape
    if not 1 <= t <= n:
        raise ValueError(f"strength t = {t} out of range for {n} rows")
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError("entries must be symbols in [0, q)")
    subsets = list(itertools.combinations(range(n), t))
    return _judge_strength(subset_histograms(entries, q, subsets), subsets, N, q, t)


def max_strength(entries: np.ndarray, q: int) -> int | None:
    """Largest t at which verify_strength succeeds; 0 if even t = 1 fails;
    None if deciding it needs a check of more than
    `config.STRENGTH_WORK_CAP` column tuples.

    A violation among the first r rows is a violation of the whole array,
    so each strength is checked on the first 2t, 4t, ... rows and then on
    all n: a failing strength usually stops long before counting all
    C(n, t) subsets, at most (1 - 2^-t)^-1 times the work of a passing one.
    The check of r rows counts C(r, t) * N tuples; a strength that has not
    failed by the time that exceeds the cap is left undecided.
    """
    entries = np.asarray(entries)
    n, N = entries.shape
    best = 0
    for t in range(1, n + 1):
        for r in sorted({min(n, t << i) for i in range(1, n.bit_length() + 1)}):
            if math.comb(r, t) * N > config.STRENGTH_WORK_CAP:
                return None
            if isinstance(verify_strength(entries[:r], q, t), StrengthViolation):
                return best
        best = t
    return best


def oa_from_code(code: LinearCode, d_dual: int) -> OrthogonalArray:
    """OA(q^k, n, q, d_dual - 1) whose columns are the codewords of the code.

    Runs the exhaustive verifier before returning; a failure raises
    CertificateError: the supplied dual distance is wrong for this code.
    """
    if d_dual < 2:
        raise ValueError("dual distance must be >= 2 for positive strength")
    t = d_dual - 1
    entries = code.codewords()
    result = verify_strength(entries, code.q, t)
    if isinstance(result, StrengthViolation):
        raise CertificateError(f"strength-{t} verification failed ({result}); "
                               f"is d_dual = {d_dual} correct for this code?")
    lam = result
    assert lam == code.q ** (code.k - t)
    return OrthogonalArray(code.q, code.n, entries.shape[1], t, lam, entries)


# ---------------------------------------------------------------------------
# OA file format: line 1 "OA N n q t lambda", then n rows of N decimal
# symbols.  Headers are claims, which `file_failure` decides on a re-count.
# ---------------------------------------------------------------------------

def _token_table(tokens: list[str]) -> np.ndarray:
    """(len(tokens), w) byte table: row i is the ASCII token i, right-aligned,
    with zero bytes as left padding; w is the longest token's length.  A
    gather of its rows is text once the zero bytes are dropped."""
    width = max(map(len, tokens), default=0)
    table = np.zeros((len(tokens), width), dtype=np.uint8)
    for i, token in enumerate(tokens):
        table[i, width - len(token):] = np.frombuffer(token.encode(), dtype=np.uint8)
    return table


def _digit_layout(N: int) -> np.ndarray:
    """A written row of one-digit symbols less its digits: N little-endian
    uint16 ("0", separator) byte pairs, the last separator a newline."""
    layout = np.full(N, ord("0") | ord(" ") << 8, dtype="<u2")
    layout[-1] = ord("0") | ord("\n") << 8
    return layout


def format_oa(oa: OrthogonalArray, trailer: str = "") -> bytes:
    """The OA file bytes, `trailer` appended, with no per-symbol Python.
    One-digit symbols (q <= 10) add `_digit_layout` to the entries, the
    uint16 view `_read_written` reads back; wider ones gather their tokens
    from a byte table per block of rows."""
    header = f"OA {oa.N} {oa.n} {oa.q} {oa.t} {oa.lam}\n".encode()
    if oa.entries.min() < 0 or oa.entries.max() >= oa.q:
        raise ValueError(f"entries must be symbols in [0, {oa.q})")
    n, N = oa.entries.shape
    if oa.q <= 10:
        rows = [np.add(oa.entries, _digit_layout(N), dtype="<u2", casting="unsafe",
                       order="C")]
    else:
        table = _token_table([f"{s} " for s in range(oa.q)])
        step = max(1, _BLOCK_KEYS // N)         # the gather's intp index per block
        rows = []
        for lo in range(0, n, step):
            text = np.take(table, oa.entries[lo:lo + step], axis=0)    # (rows, N, w)
            text[:, -1, -1] = ord("\n")        # each row's last space
            rows.append(text[text != 0])        # mixed widths: drop padding
    return b"".join([header, *rows, trailer.encode()])


def write_oa(path, oa: OrthogonalArray) -> None:
    Path(path).write_bytes(format_oa(oa))


_SYMBOL = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def _row_block_error(path, rows: list[str], n: int, N: int,
                     exc: ValueError) -> ValueError:
    """The one-line error for a row block that np.loadtxt rejected.

    Only the error path splits rows in Python: the first token outside the
    grammar (ASCII decimal digits with an optional sign) or beyond int64 is
    named, else the shape mismatch, else numpy's own message.
    """
    tokens = [row.split() for row in rows]
    for i, row in enumerate(tokens):
        for token in row:
            if not _SYMBOL.fullmatch(token):
                return ValueError(f"{path}: array row {i}: bad symbol {token!r}")
            if not _INT64.min <= int(token) <= _INT64.max:
                return ValueError(f"{path}: array row {i}: symbol {token} "
                                  f"overflows int64")
    widths = sorted({len(row) for row in tokens})
    if len(rows) != n or widths != [N]:
        return _shape_error(path, len(rows), widths, n, N)
    return ValueError(f"{path}: {exc}")


def _shape_error(path, rows: int, widths: list[int], n: int, N: int) -> ValueError:
    return ValueError(f"{path}: array shape ({rows}, "
                      f"{'/'.join(map(str, widths))}) != ({n}, {N})")


def _symbol_dtype(q: int) -> np.dtype:
    """The smallest unsigned dtype that holds q - 1; int64 past uint32."""
    return np.min_scalar_type(q - 1) if 1 <= q <= 2**32 else np.dtype(np.int64)


def _int_fields(words: list[str]) -> tuple[int, ...] | None:
    """A header's or trailer's fields as integers, None if one is not."""
    try:
        return tuple(int(w) for w in words)
    except ValueError:
        return None


# the layout format_oa and write_eulerian_oa write when every symbol is one
# digit: header, then per row N (digit, separator) byte pairs, the last
# separator a newline, then at most the EULER trailer
_WRITTEN_HEADER = re.compile(rb"OA ([0-9]+) ([0-9]+) ([0-9]+) ([0-9]+) ([0-9]+)\n")
_WRITTEN_TRAILER = re.compile(rb"(?:EULER ([0-9]+) ([0-9]+)\n)?")


def _read_written(data: bytes) -> tuple | None:
    """(uint16 entries, header, trailer) of file bytes in exactly the
    written one-digit layout, else None.

    The row block is viewed as (n, N) little-endian uint16 (digit,
    separator) pairs less the layout's own ("0", separator) pair: a pair
    reads below 10 only when its digit is ASCII and its separator is the
    layout's, as any other byte leaves a difference of at least 10 (a
    borrow included).  n = 0 and N = 0 are left to the text path, which
    words their errors.
    """
    head = _WRITTEN_HEADER.match(data)
    if head is None:
        return None
    header = tuple(int(x) for x in head.groups())
    N, n = header[:2]
    start, size = head.end(), 2 * n * N
    tail = _WRITTEN_TRAILER.fullmatch(data, start + size)
    if not size or start + size > len(data) or tail is None:
        return None
    pairs = np.frombuffer(data, dtype="<u2", count=n * N, offset=start).reshape(n, N)
    symbols = pairs - _digit_layout(N)
    if symbols.max() >= 10:
        return None
    trailer = None if tail[1] is None else (int(tail[1]), int(tail[2]))
    return symbols, header, trailer


def _read_text(path, data: bytes) -> tuple:
    """(entries, header, trailer) of any other file: the grammar's
    reference and the only path that words a row-block error."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    trailer = None
    if lines and lines[-1].startswith("EULER"):
        words = lines.pop().split()
        trailer = len(words) == 3 and _int_fields(words[1:])
        if not trailer:
            raise ValueError(f"{path}: malformed EULER trailer")
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    header = len(head) == 6 and head[0] == "OA" and _int_fields(head[1:])
    if not header:
        raise ValueError(f"{path}: malformed OA header")
    N, n, q, _, _ = header
    rows = lines[1:]
    if not rows:
        raise _shape_error(path, 0, [], n, N)
    try:
        entries = np.loadtxt(rows, dtype=_symbol_dtype(q), comments=None, ndmin=2)
    except ValueError:
        try:
            entries = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise _row_block_error(path, rows, n, N, exc) from None
    return entries, header, trailer


def read_oa_file(path) -> tuple[np.ndarray, tuple[int, int, int, int, int],
                                tuple[int, int] | None]:
    """Entries, declared header and EULER trailer of an array file, unverified.

    The one reader of both array formats: an Eulerian OA file is an OA file
    plus a last line "EULER t lambda_edge", returned as (t, lambda_edge);
    the trailer is None for a plain OA file.  The file is read once, as
    bytes.  A file in exactly the layout the writers produce with
    one-digit symbols (single spaces, one newline per row, no blank line)
    is parsed by one byte view of its row block (`_read_written`); any
    other file by the text path (`_read_text`): the header and trailer in
    Python, the row block in one np.loadtxt pass, whose tokens are ASCII
    decimal integers with an optional sign.  A block that pass refuses (a
    sign, a symbol past the dtype, a bad token or shape) is parsed again as
    int64, so every error reads as it does for an int64 parse.  Both paths
    share the shape, symbol-range and strength checks, in that order.
    Entries come back as a fresh C-contiguous array of the smallest
    unsigned dtype that holds q - 1 (uint8 for every field order; int64
    when no dtype up to uint32 does).
    """
    data = Path(path).read_bytes()
    entries, header, trailer = _read_written(data) or _read_text(path, data)
    N, n, q, _, _ = header
    if entries.shape != (n, N):
        raise _shape_error(path, entries.shape[0], [entries.shape[1]], n, N)
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError(f"{path}: symbols out of range [0, {q})")
    entries = entries.astype(_symbol_dtype(q), copy=False)
    for where, t in (("header", header[3]), ("trailer", trailer and trailer[0])):
        if t is not None and not 1 <= t <= n:
            raise ValueError(f"{path}: {where} strength t = {t} out of range "
                             f"for {n} rows")
    return entries, header, trailer


def read_oa_entries(path) -> tuple[np.ndarray, tuple[int, int, int, int, int]]:
    """Entries plus the declared (N, n, q, t, lambda) header, unverified."""
    entries, header, _ = read_oa_file(path)
    return entries, header


def file_failure(entries: np.ndarray, verdict, t: int, header=None,
                 trailer=None) -> str | None:
    """What an array file's counts refute, worded once for its loaders
    (after "path: ") and verifiers (after "FAIL: "), or None: first a
    violation in verdict, `verify_strength`'s or `verify_eulerian`'s at t;
    then, when given, the header's lambda, counted at the header's own t,
    and the trailer's edge multiplicity, whose t is the verdict's."""
    if isinstance(verdict, Violation):
        return f"{verdict.check} {t}: {verdict}"
    if header is None:
        return None
    _, _, q, t_header, lam = header
    counted = verdict if isinstance(verdict, int) else verdict.lam
    if t_header != t:
        counted = verify_strength(entries, q, t_header)
        if isinstance(counted, Violation):
            return file_failure(entries, counted, t_header)
    if counted != lam:
        return f"header claims lambda = {lam}, counted {counted}"
    if trailer is not None and trailer[1] != verdict.edge_multiplicity:
        return (f"trailer claims edge multiplicity = {trailer[1]}, "
                f"counted {verdict.edge_multiplicity}")
    return None


def read_oa(path) -> OrthogonalArray:
    """Load and re-verify an OA file; raises if the count refutes its header."""
    entries, header = read_oa_entries(path)
    N, n, q, t, lam = header
    failure = file_failure(entries, verify_strength(entries, q, t), t, header)
    if failure:
        raise ValueError(f"{path}: {failure}")
    return OrthogonalArray(q, n, N, t, lam, entries)
