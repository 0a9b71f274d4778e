"""Eulerian cycles on Cayley graphs of (F_q^k, +) and Eulerian orthogonal arrays.

The Cayley graph used throughout has vertex set F_q^k and the full group as
generating set: one directed edge (v, v + s) per generator s, including the
s = 0 self-loop (downstream it becomes an identity-realizing control
segment).  An Eulerian cycle therefore has length q^{2k}.

An Eulerian OA of strength t is an array whose every t-row projection,
read as a cyclic vertex sequence, is an Eulerian cycle (with some
multiplicity) in the Cayley graph of G^{x t} with some generating set --
which also makes it a plain OA of strength t: one (vertex, transition)
count decides both.  Along the cycle of a code's messages every pair of a
distinct vertex column and a distinct transition column occurs equally
often, so that count is the outer product of two counts over the q^k
distinct columns (`pair_histograms`); any other array has its pairs
counted directly.  Transitions are XORs in characteristic 2, and a row
renumbers the columns only if it differs from its class representatives.

The transition convention is additive: s_j = c_{j+1} - c_j, cyclically
(the wrap-around transition from the last column to the first is counted,
since control actions are cyclic).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .codes import LinearCode
from .gf import FieldTable, field_from_order
from .oa import (_BLOCK_KEYS, CertificateError, OrthogonalArray, StrengthViolation,
                 Violation, _first_violation, _judge_counts, _judge_strength,
                 file_failure, format_oa, read_oa_file, subset_histograms)


@dataclass(frozen=True)
class EulerianCycle:
    """Cyclic vertex list (m_0, ..., m_{N-1}) over F_q^k starting at 0.

    codes has shape (N,); entry j is the base-q code of m_j, first digit
    leading (its codeword's number in `LinearCode.messages` order).  Every
    directed edge (v, v + s) is traversed exactly once by the transitions
    m_{j+1} - m_j (indices mod N).
    """

    q: int
    k: int
    codes: np.ndarray

    def __post_init__(self):
        self.codes.setflags(write=False)

    @property
    def length(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class EulerianViolation(Violation):
    """Why a t-row projection is not an Eulerian cycle."""

    check = "eulerian"
    rows: tuple[int, ...]
    vertex: tuple[int, ...] | None
    transition: tuple[int, ...] | None
    count: int | None
    expected: float | None

    def __str__(self) -> str:
        if self.vertex is None:     # uniform, at another lambda than the first subset's
            return (f"rows {self.rows}: every used (vertex, transition) pair "
                    f"occurs {self.count} times, against {self.expected:g} in "
                    f"the first subset")
        return (f"rows {self.rows}: (vertex {self.vertex}, transition "
                f"{self.transition}) occurs {self.count} times, expected "
                f"{self.expected:g}")


@dataclass(frozen=True)
class EulerianCertificate:
    """Per-subset generating sets, the common edge multiplicity, and the
    strength multiplicity lam read off the same histograms."""

    edge_multiplicity: int
    gensets: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
    lam: int


@dataclass(frozen=True)
class EulerianOA:
    """Orthogonal array that also passes the Eulerian verifier at strength t."""

    oa: OrthogonalArray
    t: int
    edge_multiplicity: int
    gensets: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]

    @property
    def entries(self) -> np.ndarray:
        return self.oa.entries

    def __repr__(self) -> str:
        return (f"EulerianOA({self.oa.N}, {self.oa.n}, {self.oa.q}, {self.t}; "
                f"edge multiplicity {self.edge_multiplicity})")


def _vector_add_table(field: FieldTable, k: int) -> np.ndarray:
    """q^k x q^k table of componentwise sums of base-q encoded vectors."""
    q = field.q
    table = np.zeros((q**k, q**k), dtype=np.int64)
    for row in np.unravel_index(np.arange(q**k), (q,) * k):   # digit rows, first leading
        table *= q
        table += field.add_table[row[:, None], row]
    return table


def euler_cycle_full(field: FieldTable, k: int) -> EulerianCycle:
    """Deterministic Eulerian cycle on the Cayley graph of F_q^k with S = F_q^k.

    Hierholzer's algorithm; at every vertex the unused generators are
    consumed in lexicographic order, and the walk starts at the identity.
    Any Eulerian cycle would do, so determinism is imposed by convention.
    Output length is exactly q^{2k}.
    """
    q = field.q
    n_edges = q ** (2 * k)
    if n_edges > config.EULER_EDGE_CAP:
        raise ValueError(f"q^(2k) = {n_edges} exceeds cap {config.EULER_EDGE_CAP}")
    # each vertex's unused edges as a stack of their heads (Python ints, no
    # numpy scalars), the lexicographically next generator's on top
    unused = _vector_add_table(field, k)[:, ::-1].tolist()
    stack, trail = [0], []
    push, pop, emit = stack.append, stack.pop, trail.append
    while stack:
        heads = unused[stack[-1]]
        while heads:                # a greedy stretch: take unused edges until stuck
            v = heads.pop()
            push(v)
            heads = unused[v]
        emit(pop())
    assert len(trail) == n_edges + 1 and trail[0] == 0 and trail[-1] == 0
    # the trail comes off the stack backwards; the cycle leaves out its last 0
    return EulerianCycle(q, k, np.fromiter(reversed(trail), dtype=np.intp,
                                           count=n_edges))


def transitions(sub: np.ndarray, field: FieldTable) -> np.ndarray:
    """Cyclic per-row transitions s[k, j] = g[k, j+1] - g[k, j], as uint8
    symbols in C order whatever the layout of sub (entries in [0, q)).

    In characteristic 2 (`FieldTable.xor_add`) next - cur is next ^ cur.
    Otherwise one gather per block of rows from the flat table whose entry
    next*q + cur is next - cur, a block's intp index holding at most
    `_BLOCK_KEYS` entries (one row when N alone is more).
    """
    sub = np.asarray(sub)
    out = np.empty(sub.shape, dtype=np.uint8)
    if field.xor_add:
        np.bitwise_xor(sub[:, 1:], sub[:, :-1], out=out[:, :-1], casting="unsafe")
        np.bitwise_xor(sub[:, :1], sub[:, -1:], out=out[:, -1:], casting="unsafe")
        return out
    (n, N), q = sub.shape, field.q
    table = field.add_table[:, field.neg_table].ravel()
    rows = max(1, _BLOCK_KEYS // max(N, 1))
    index = np.empty((min(rows, n), N), dtype=np.intp)
    for lo in range(0, n, rows):
        block, key = sub[lo:lo + rows], index[:min(rows, n - lo)]
        np.multiply(block[:, 1:], q, out=key[:, :-1], dtype=np.intp)
        np.multiply(block[:, :1], q, out=key[:, -1:], dtype=np.intp)
        key += block
        np.take(table, key, out=out[lo:lo + rows])
    return out


def _check_pair_cap(q: int, t: int) -> None:
    if q ** (2 * t) > config.EULER_EDGE_CAP:
        raise ValueError(f"projection group squared, {q**(2 * t)}, exceeds "
                         f"cap {config.EULER_EDGE_CAP}")


def _column_ids(arrays, base: int, N: int) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Per n x N array of digits in [0, base), (ids, where): ids[j] numbers
    column j among the array's distinct columns, and column where[i] is
    one numbered i; None once the arrays' distinct column counts multiply
    past N.

    Exact, with no hash and no sort: a row that equals row[where][ids]
    splits no class and is skipped.  Rows are compared whole against that
    gather in blocks that double while they match (to `_BLOCK_KEYS`
    symbols), the array with the fewest rows checked going next; a dense
    table of base * distinct slots renumbers at the first row that does
    not match.  Refining only splits classes, so matched rows stay matched
    and a count product past N stops early.
    """
    n = arrays[0].shape[0]
    ids = [np.zeros(N, dtype=np.intp) for _ in arrays]
    where = [np.zeros(1, dtype=np.intp) for _ in arrays]
    done, span = [0] * len(arrays), [1] * len(arrays)
    while min(done) < n:
        a = done.index(min(done))
        block = arrays[a][done[a]:done[a] + span[a]]
        same = (np.take(block[:, where[a]], ids[a], axis=1) == block).all(axis=1)
        if same.all():
            done[a] += len(same)
            span[a] = min(2 * span[a], max(1, _BLOCK_KEYS // N))
            continue
        done[a] += int(same.argmin()) + 1
        key = ids[a] * base + arrays[a][done[a] - 1]
        seen = np.zeros(len(where[a]) * base, dtype=np.intp)
        seen[key] = 1
        number = np.cumsum(seen) - 1
        where[a], span[a] = np.empty(int(number[-1]) + 1, dtype=np.intp), 1
        if math.prod(map(len, where)) > N:
            return None
        ids[a] = number[key]
        where[a][ids[a]] = np.arange(N)
    return list(zip(ids, where))


def pair_histograms(entries: np.ndarray, field: FieldTable, subsets) -> np.ndarray:
    """(len(subsets), q^t, q^t) histograms: [i, v, s] counts the columns of
    entries[subsets[i]] with vertex code v and transition code s, both base
    q with the first row leading.

    Each column is numbered among the array's distinct vertex columns U,
    and its transition among the distinct transition columns W.  When
    every (u, w) pair occurs the same c = N / (|U| |W|) times, as along an
    Eulerian cycle of a code's messages, each t-row pair histogram is c
    times the outer product of the t-row histograms of U and of W, counted
    over |U| + |W| columns instead of N.  The (u, w) pairs are counted only
    when |U| |W| divides N; any other array (shuffled, tampered,
    hand-entered) has its pair digits symbol * q + transition counted
    directly, built in the smallest unsigned dtype that holds q^2 - 1
    (uint16 above q = 16: a uint8 symbol times q would wrap), and the
    count's axes v_0, s_0, v_1, s_1, ... reordered once.
    """
    # the numbering reads rows, which are strided slices of a Fortran-ordered
    # or column-gathered array
    entries = np.ascontiguousarray(entries)
    q, N = field.q, entries.shape[1]
    subsets = list(subsets)
    steps = transitions(entries, field)
    numbered = _column_ids((entries, steps), q, N)
    if numbered:
        (u, u_where), (w, w_where) = numbered
        U, W = len(u_where), len(w_where)
        if N % (U * W) == 0:
            edges = np.bincount(u * W + w, minlength=U * W)
            if edges.min() == edges.max():
                hist_v = subset_histograms(entries[:, u_where], q, subsets)
                hist_s = subset_histograms(steps[:, w_where], q, subsets)
                return int(edges[0]) * hist_v[:, :, None] * hist_s[:, None, :]
    digits = entries.astype(np.min_scalar_type(q * q - 1))
    digits *= q
    digits += steps
    counts = subset_histograms(digits, q * q, subsets)
    S, t = len(subsets), len(subsets[0])
    return counts.reshape((S,) + (q,) * (2 * t)).transpose(
        0, *range(1, 2 * t, 2), *range(2, 2 * t + 1, 2)).reshape(S, q**t, q**t)


def verify_eulerian(entries: np.ndarray, field: FieldTable, t: int
                    ) -> EulerianCertificate | StrengthViolation | EulerianViolation:
    """Strength and Eulerian-OA check at strength t over the additive group
    of GF(q): the first strength violation, else the first Eulerian one,
    else the certificate.

    For every t-row subset: project the columns to t-tuples, take the
    cyclic transitions, and require each (vertex, transition) pair to
    occur the same number of times for every vertex and every transition
    that occurs at all.  That also makes the transition set generate the
    full group (see below).  Violations are return values.

    `pair_histograms` gives every pair histogram as one count array.
    `oa._judge_counts` checks the pairs of the used transitions read off
    it; uniform pairs certify strength t too, every vertex occurring
    |S| * lam_edge = N/q^t times.  Failing pairs hand their vertex marginal
    first to `verify_strength`'s judge (`oa._judge_strength`), else
    `oa._first_violation` names the first failing subset's pair.
    """
    entries = np.asarray(entries)
    n, N = entries.shape
    if not 1 <= t <= n:
        raise ValueError(f"strength t = {t} out of range for {n} rows")
    q = field.q
    if entries.min() < 0 or entries.max() >= q:
        raise ValueError("entries must be symbols in [0, q)")
    _check_pair_cap(q, t)
    subsets = list(itertools.combinations(range(n), t))
    counts = pair_histograms(entries, field, subsets)
    used = counts.sum(axis=1) > 0
    lam, i = _judge_counts(counts, used, N)
    if i is not None:
        # strength first: the pairs' vertex marginal is the strength histogram
        strength = _judge_strength(counts.sum(axis=2), subsets, N, q, t)
        if isinstance(strength, StrengthViolation):
            return strength
        return EulerianViolation(subsets[i],
                                 *_first_violation(counts[i], used[i], N, lam, q, t))
    # uniform counts put every vertex on the walk, and the walk moves only
    # by transitions in S, so g_0 + <S> is the whole group: S generates it.
    # One generating-set tuple per distinct used-transition mask
    symbols = list(itertools.product(range(q), repeat=t))
    distinct: dict[bytes, tuple[tuple[int, ...], ...]] = {}
    gensets = {}
    for rows, mask in zip(subsets, used):
        key = mask.tobytes()
        if key not in distinct:
            distinct[key] = tuple(symbols[s] for s in np.flatnonzero(mask).tolist())
        gensets[rows] = distinct[key]
    # the vertex marginal: each vertex occurs once per (vertex, s) pair
    # with s in S, lam times each, so |S| * lam times
    return EulerianCertificate(lam, gensets, int(used[0].sum()) * lam)


def eulerian_oa_from_code(code: LinearCode, cycle: EulerianCycle,
                          t: int) -> EulerianOA:
    """Eulerian OA whose column j is the codeword G m_j along the cycle.

    Requires the cycle to live over the code's message space.  The
    verifier (strength, then Eulerian) runs before returning, and every
    t-row generating set is checked to be the full product group, which
    the construction guarantees; a failure of any raises CertificateError.
    """
    if cycle.q != code.q or cycle.k != code.k:
        raise ValueError(f"cycle over F_{cycle.q}^{cycle.k} does not match "
                         f"code message space F_{code.q}^{code.k}")
    # column j is codeword number m_j (messages() order): gather the q^k
    # codewords along the cycle; np.take returns C order, where a [:, idx]
    # gather would return F order
    entries = np.take(code.codewords(), cycle.codes, axis=1)
    N = entries.shape[1]

    euler = verify_eulerian(entries, code.field, t)
    if isinstance(euler, Violation):
        raise CertificateError(f"{euler.check}-{t} verification failed: {euler}")
    full = code.q**t
    for rows, gens in euler.gensets.items():
        if len(gens) != full:
            raise CertificateError(f"rows {rows}: generating set has {len(gens)} "
                                   f"elements, expected the full group ({full})")
    oa = OrthogonalArray(code.q, code.n, N, t, euler.lam, entries)
    return EulerianOA(oa, t, euler.edge_multiplicity, euler.gensets)


# ---------------------------------------------------------------------------
# Eulerian OA file format: the OA format plus a trailing line
# "EULER t lambda_edge".
# ---------------------------------------------------------------------------

def write_eulerian_oa(path, eoa: EulerianOA) -> None:
    trailer = f"EULER {eoa.t} {eoa.edge_multiplicity}\n"
    Path(path).write_bytes(format_oa(eoa.oa, trailer))


def read_eulerian_oa(path) -> EulerianOA:
    """Load and fully re-verify an Eulerian OA file: the array at the
    trailer's t, then the header's and the trailer's claims."""
    entries, header, trailer = read_oa_file(path)
    if trailer is None:
        raise ValueError(f"{path}: missing EULER trailer")
    N, n, q, t, lam = header
    euler = verify_eulerian(entries, field_from_order(q), trailer[0])
    failure = file_failure(entries, euler, trailer[0], header, trailer)
    if failure:
        raise ValueError(f"{path}: {failure}")
    oa = OrthogonalArray(q, n, N, t, lam, entries)
    return EulerianOA(oa, trailer[0], euler.edge_multiplicity, euler.gensets)
