"""Orthogonal arrays: construction from codes and exhaustive strength checks.

An OA_lambda(N, n, q, t) is an n x N symbol array in which every t x N
sub-array contains each of the q^t column tuples exactly lambda times.
Verification is exhaustive counting over all C(n, t) row subsets -- a
certificate, not a sample -- which is milliseconds at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .codes import LinearCode


@dataclass(frozen=True)
class StrengthViolation:
    """First tuple whose column count breaks uniformity, with its row subset."""

    rows: tuple[int, ...]
    symbols: tuple[int, ...]
    count: int
    expected: float

    def __str__(self) -> str:
        return (f"rows {self.rows}: tuple {self.symbols} occurs {self.count} "
                f"times, expected {self.expected:g}")


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


def column_counts(sub: np.ndarray, q: int) -> np.ndarray:
    """Histogram of a t x N array's columns, encoded base q (row 0 leading)."""
    t = sub.shape[0]
    return np.bincount(q ** np.arange(t - 1, -1, -1) @ sub, minlength=q**t)


def _check_rows(entries: np.ndarray, q: int, t: int,
                rows: tuple[int, ...]) -> int | StrengthViolation:
    N = entries.shape[1]
    counts = column_counts(entries[list(rows)], q)
    if np.all(counts == counts[0]):
        return int(counts[0])
    expected = N / q**t
    target = int(expected) if expected == int(expected) else counts[0]
    bad = int(np.nonzero(counts != target)[0][0])
    symbols = tuple(int(s) for s in np.unravel_index(bad, (q,) * t))
    return StrengthViolation(rows, symbols, int(counts[bad]), expected)


def verify_strength(entries: np.ndarray, q: int, t: int) -> int | StrengthViolation:
    """Common multiplicity lambda at strength t, or the first violation.

    Counts every t-tuple of symbols in every t x N sub-array.  A violation
    names the offending row subset and tuple (needed when debugging
    hand-entered arrays); it is a return value, not an exception.
    """
    entries = np.asarray(entries)
    n, N = entries.shape
    if not 1 <= t <= n:
        raise ValueError(f"strength t = {t} out of range for {n} rows")
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError("entries must be symbols in [0, q)")
    combos = list(itertools.combinations(range(n), t))
    results = config.parallel_map(lambda rows: _check_rows(entries, q, t, rows),
                                  combos)
    lam = None
    for rows, res in zip(combos, results):
        if isinstance(res, StrengthViolation):
            return res
        if lam is None:
            lam = res
        elif res != lam:
            # cannot happen when all subsets are uniform (both equal N/q^t),
            # but keep the guard
            return StrengthViolation(rows, (0,) * t, res, lam)
    assert lam is not None
    return lam


def max_strength(entries: np.ndarray, q: int) -> int:
    """Largest t at which verify_strength succeeds; 0 if even t = 1 fails."""
    entries = np.asarray(entries)
    best = 0
    for t in range(1, entries.shape[0] + 1):
        if isinstance(verify_strength(entries, q, t), StrengthViolation):
            break
        best = t
    return best


def oa_from_code(code: LinearCode, d_dual: int) -> OrthogonalArray:
    """OA(q^k, n, q, d_dual - 1) whose columns are the codewords of the code.

    Runs the exhaustive verifier before returning; a failure means the
    supplied dual distance is wrong for this code.
    """
    if d_dual < 2:
        raise ValueError("dual distance must be >= 2 for positive strength")
    t = d_dual - 1
    entries = code.codewords()
    result = verify_strength(entries, code.q, t)
    if isinstance(result, StrengthViolation):
        raise ValueError(f"strength-{t} verification failed ({result}); "
                         f"is d_dual = {d_dual} correct for this code?")
    lam = result
    assert lam == code.q ** (code.k - t)
    return OrthogonalArray(code.q, code.n, entries.shape[1], t, lam, entries)


# ---------------------------------------------------------------------------
# OA file format: line 1 "OA N n q t lambda", then n rows of N decimal
# symbols.  Headers are claims; loaders re-verify before trusting them.
# ---------------------------------------------------------------------------

def format_oa(oa: OrthogonalArray) -> str:
    lines = [f"OA {oa.N} {oa.n} {oa.q} {oa.t} {oa.lam}"]
    for row in oa.entries:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_oa(path, oa: OrthogonalArray) -> None:
    Path(path).write_text(format_oa(oa))


def read_oa_file(path) -> tuple[np.ndarray, tuple[int, int, int, int, int],
                                tuple[int, int] | None]:
    """Entries, declared header and EULER trailer of an array file, unverified.

    The one reader of both array formats: an Eulerian OA file is an OA file
    plus a last line "EULER t lambda_edge", returned as (t, lambda_edge);
    the trailer is None for a plain OA file.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    trailer = None
    if lines and lines[-1].startswith("EULER"):
        words = lines.pop().split()
        if len(words) != 3:
            raise ValueError(f"{path}: malformed EULER trailer")
        trailer = (int(words[1]), int(words[2]))
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "OA":
        raise ValueError(f"{path}: malformed OA header")
    header = tuple(int(x) for x in head[1:])
    N, n, q, _, _ = header
    entries = np.array([[int(v) for v in ln.split()] for ln in lines[1:]],
                       dtype=np.int64)
    if entries.shape != (n, N):
        raise ValueError(f"{path}: array shape {entries.shape} != ({n}, {N})")
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError(f"{path}: symbols out of range [0, {q})")
    return entries, header, trailer


def read_oa_entries(path) -> tuple[np.ndarray, tuple[int, int, int, int, int]]:
    """Entries plus the declared (N, n, q, t, lambda) header, unverified."""
    entries, header, _ = read_oa_file(path)
    return entries, header


def read_oa(path) -> OrthogonalArray:
    """Load and re-verify an OA file; raises if the claimed strength fails."""
    entries, (N, n, q, t, lam) = read_oa_entries(path)
    result = verify_strength(entries, q, t)
    if isinstance(result, StrengthViolation):
        raise ValueError(f"{path}: strength-{t} verification failed ({result})")
    if result != lam:
        raise ValueError(f"{path}: header claims lambda = {lam}, counted {result}")
    return OrthogonalArray(q, n, N, t, lam, entries)
