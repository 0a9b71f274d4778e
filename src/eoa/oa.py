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
q^2 for a direct Eulerian count.  The requested subsets are grouped by their
(t-1)-row prefix, whose key is encoded once; the keys of a block of later
rows are that key plus each row's digits, which carry the offset of the
row's histogram slot, and one bincount returns the histograms of the
whole block of t-row subsets.
When base^(t+1) <= N a key carries two later rows, whose histograms are
the marginals of their joint one: half the keys, and no more bins than
keys.  Blocks hold at most `_BLOCK_KEYS` keys (one row or row pair when N
alone is more), so memory stays bounded as N grows.  The histograms come
back as one count array, a row per subset in the order asked; judging is
the caller's.  Both verifiers judge all rows at once by one judge of
(vertex, transition) counts, a strength histogram being that of one
transition, and name only the first failing subset's violation; failing
pairs have their strength judged first, on their vertex marginal.  A
large count runs on two threads by default (see
`config.worker_count`): one encodes keys while the other's bincount holds
the interpreter lock.  A code-built Eulerian array's pairs factor through
its few distinct columns (see `euler.pair_histograms`), so only a direct
pair count of a large array that does not factor reaches that size.
"""

from __future__ import annotations

import itertools
import math
import queue
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


# Keys per counting block: 2^19 int64 keys, about 4 MB.  Larger blocks save
# little time and leave more freed memory with the allocator for later stages.
_BLOCK_KEYS = 2**19

# Keys below which one call counts serially: a thread pool costs more than
# the overlap of one worker's key encoding with the other's bincount saves.
_PARALLEL_KEYS = 2**22


def subset_histograms(digits: np.ndarray, base: int, subsets) -> np.ndarray:
    """(len(subsets), base^t) intp histograms, row i that of subsets[i].

    digits is an n x N array of per-row digits in [0, base); subsets are
    strictly increasing row tuples of one size t; row i counts the columns
    of digits[subsets[i]], encoded base `base` with the first row most
    significant; no subsets give a (0, 0) array.  Judging the histograms
    is the caller's.  The subsets are grouped by their (t-1)-row prefix,
    whose key is encoded once; each prefix counts the requested later rows
    in blocks of at most `_BLOCK_KEYS` keys, one bincount of the block's
    size per block, and writes their rows of the result.  A call of at
    least `_PARALLEL_KEYS` keys runs its prefixes on up to
    `config.worker_count()` threads.

    When base^(t+1) <= N, later rows are counted two at a time: one key
    per column encodes the prefix and both rows' digits, and the two
    histograms are the marginals of the joint one.  That halves the keys,
    and the joint histogram has no more bins than a row has keys, so its
    zeroing and marginal sums cost less than the counting they save.  The
    pairs are fixed from the last row back, (n-2, n-1), (n-4, n-3), ...,
    row 0 paired with zero digits when n is odd, and their joint digits
    computed once per call; the later rows of a prefix then fill all their
    pairs but the first.  A prefix counts only the pairs that hold a
    requested row; a pair whose first row ends the prefix still gives the
    second row's histogram as its marginal.  A block is a run of
    consecutive pairs, so its keys are one slice of the joint digits.

    Every worker's key and prefix buffers are allocated here, by the
    calling thread, and lent out through a queue: buffers a worker
    allocated would stay resident in its own malloc arena after the call.
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
    starts = np.flatnonzero((ordered[1:, :-1] != ordered[:-1, :-1]).any(axis=1)) + 1
    spans = list(itertools.pairwise([0, *starts.tolist(), len(ordered)]))
    width = base**t
    group = 2 if base * width <= N else 1       # later rows per key
    first = n % group                           # zero rows before row 0
    if group == 2:                              # one row of joint digits per group
        codes = np.zeros(((n + 1) // 2, N), dtype=np.intp)
        codes[first:] = digits[first::2]
        codes *= base
        codes += digits[1 - first::2]
    else:
        codes = digits.astype(np.intp)
    bins = width * base ** (group - 1)          # histogram of a group's key
    per_block = max(1, _BLOCK_KEYS // max(N, bins))
    # no block holds more groups than there are, so small arrays keep
    # small buffers
    depth = min(per_block, len(codes))
    # group g counts into histogram slot g mod depth, whose offset its codes
    # carry: a block never crosses a multiple of depth, so its slots run
    # consecutively and, less the first one's offset, fill a histogram of
    # the block's size
    codes += bins * (np.arange(len(codes)) % depth)[:, None]
    workers = 1
    if len(ordered) * N // group >= _PARALLEL_KEYS:     # keys the call counts
        workers = min(config.worker_count(), len(spans))
    buffers: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty((depth, N), dtype=np.intp), np.empty(N, dtype=np.intp)))
    out = np.empty((len(ordered), width), dtype=np.intp)

    def count_prefix(span: tuple[int, int]) -> None:
        keys, head = buffers.get()
        try:
            lasts = ordered[span[0]:span[1], -1]    # requested later rows, sorted
            rank = (lasts + first) // group         # each requested row's group
            # the prefix's digits as a number (zeros when t = 1)
            head[:] = 0
            for row in ordered[span[0], :-1].tolist():
                head *= base
                head += digits[row]
            head *= base**group
            shift = 0                               # slot offset taken off head
            # blocks: runs of consecutive groups, cut at multiples of depth
            jumps = np.flatnonzero(rank[1:] > rank[:-1] + 1) + 1
            for a, b in itertools.pairwise([0, *jumps.tolist(), len(rank)]):
                g, end = int(rank[a]), int(rank[b - 1]) + 1
                while g < end:
                    size = min(depth - g % depth, end - g)
                    if g % depth != shift:
                        head -= bins * (g % depth - shift)
                        shift = g % depth
                    np.add(codes[g:g + size], head, out=keys[:size])
                    counts = np.bincount(keys[:size].ravel(), minlength=size * bins)
                    lo, hi = np.searchsorted(rank, [g, g + size])
                    at, slots = order[span[0] + lo:span[0] + hi], rank[lo:hi] - g
                    g += size
                    if group == 1:
                        out[at] = counts.reshape(size, width)[slots]
                        continue
                    # a pair's row histograms: sum out the other row of the pair
                    joint = counts.reshape(size, width // base, base, base)
                    second = (lasts[lo:hi] + first) % 2
                    for r in (0, 1):
                        pick = np.flatnonzero(second == r)
                        if len(pick):
                            margin = joint.sum(axis=3 - r).reshape(size, width)
                            out[at[pick]] = margin[slots[pick]]
        finally:
            buffers.put((keys, head))

    config.parallel_map(count_prefix, spans, workers)
    return out


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


def format_oa(oa: OrthogonalArray) -> str:
    """The OA file text: a gather of symbol tokens per block of rows, no
    per-symbol Python."""
    header = f"OA {oa.N} {oa.n} {oa.q} {oa.t} {oa.lam}\n"
    if oa.entries.min() < 0 or oa.entries.max() >= oa.q:
        raise ValueError(f"entries must be symbols in [0, {oa.q})")
    table = _token_table([f"{s} " for s in range(oa.q)])
    n, N = oa.entries.shape
    rows = max(1, _BLOCK_KEYS // N)             # the gather's intp index per block
    parts = [header]
    for lo in range(0, n, rows):
        text = np.take(table, oa.entries[lo:lo + rows], axis=0)    # (rows, N, w)
        text[:, -1, -1] = ord("\n")            # each row's last space
        if oa.q > 10:                           # mixed widths: drop padding
            text = text[text != 0]
        parts.append(text.tobytes().decode("ascii"))
    return "".join(parts)


def write_oa(path, oa: OrthogonalArray) -> None:
    Path(path).write_text(format_oa(oa))


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
    layout = np.full(N, ord("0") | ord(" ") << 8, dtype=np.uint16)
    layout[-1] = ord("0") | ord("\n") << 8
    symbols = pairs - layout
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
