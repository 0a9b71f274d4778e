"""Schedules from arrays, bang-bang and bounded-strength averaging, and
exact finite-cycle-time evolution.

Conventions (hbar = 1 throughout):

* A drift Hamiltonian is a list of few-body terms, each a traceless
  Hermitian system block on a qudit support tensored with a Hermitian
  environment block (the identity for pure system terms), plus an
  environment-only part.

* Control is per-qudit.  Bang-bang schedules hold the array column's Weyl
  unitary fixed on each subinterval; Eulerian schedules ramp the column
  *transition* with a constant (square-pulse) control Hamiltonian h, the
  principal logarithm of the target Weyl unitary, so exp(-i h delta)
  reaches it at the end of the subinterval and ||h|| <= pi/delta.

* Exact averaging is the paper's Q_C = Pi_G o F_S.  The control prefix
  before column j is the Weyl operator W of g_j - g_0 up to a phase, so a
  term's action regroups over the (vertex, transition) histogram c of its
  projection as (1/N) sum_v W_v^dag [sum_s c(v, s) F_s(X)] W_v, with the
  square-pulse filter F_s in closed form; bang-bang averaging is the
  vertex-only histogram with F the identity.  The quadrature backend is
  the independent time-ordered walk: no closed-form filter, prefixes
  multiplied from eigen-exponential steps exp(-i h Delta).

* The symbol unitaries represent an abelian group projectively, so
  conjugation is diagonal on Weyl strings, W_v^dag W_l W_v =
  omega^k(v, l) W_l, with the pairing k in Z_d read off the unitaries, and
  Pi_G is a character sum per string.  One kernel, `_averages`, serves
  bang-bang, exact Eulerian and quadrature averaging: it groups the terms
  once, by arity and then by support, and builds each arity's control
  Hamiltonians once, over every transition of that size.  "exact" works on
  Weyl-string coefficients: it expands x (bang-bang) or each F_s(x)
  (Eulerian) once and multiplies coefficient l by chi[s, l] = sum_v
  c(v, s) omega^k(v, l), over the histogram of each distinct support
  counted once by the verifiers' counters, `oa.subset_histograms` and
  `euler.pair_histograms`; the
  Eulerian coefficients then take the prefix phase omega^-k(g_0, l).  The
  quadrature walk (`_quadrature_walk`) stays in matrix space as the
  independent cross-check, per support, stacked: one walk over the stack
  of the terms on a support, each Gauss-Legendre node filtering every
  transition in one stacked product, and each walk expanded by the same
  coefficient product.  The single-qudit cycle reads the coefficients of
  either method and rebuilds sum_l a_l W_l.

* A character sum is decided in integers: its d buckets of equal pairing
  are exact float64 sums of counts, and when they are all equal the sum is
  exactly 0 (d is prime).  A string that does not survive has the
  coefficient 0.0, so a code-built array of strength t leaves a residual
  of exactly 0.0 for drifts of arity <= t at any n.  The residual is the
  full-space Frobenius norm of the averaged Hamiltonian minus its
  environment-only component, a Parseval sum over the full-space strings
  that the terms' coefficients merge into; the strings carrying most of it
  are listed in the report.

* Unitaries are only ever compared modulo a global phase (the Weyl
  representation is projective).
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .euler import (EulerianCycle, EulerianOA, _check_pair_cap, pair_histograms,
                    transitions)
from .gf import FieldTable, field_from_order
from .oa import OrthogonalArray, _token_table, subset_histograms
from .weyl import aligned_distance, embed, frob, is_hermitian, is_unitary, \
    matrix_from_pairs, matrix_to_pairs, weyl, weyl_from_field


# ---------------------------------------------------------------------------
# Drift Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftTerm:
    """One few-body term: sys_block on `support`, tensored with env_block."""

    support: tuple[int, ...]
    sys_block: np.ndarray
    env_block: np.ndarray


@dataclass(frozen=True)
class DriftHamiltonian:
    """Drift of n qudits of dimension d coupled to a d_env environment.

    Every sys_block must be traceless Hermitian (the environment-only part
    carries whatever identity component the physics has); env_only is the
    bare environment Hamiltonian, a d_env x d_env Hermitian matrix
    ([[0.]] for d_env = 1).
    """

    n: int
    d: int
    d_env: int
    terms: tuple[DriftTerm, ...]
    env_only: np.ndarray

    def __post_init__(self):
        for term in self.terms:
            t = len(term.support)
            if list(term.support) != sorted(set(term.support)):
                raise ValueError(f"support {term.support} not strictly increasing")
            if any(not 0 <= k < self.n for k in term.support):
                raise ValueError(f"support {term.support} out of range")
            if term.sys_block.shape != (self.d**t, self.d**t):
                raise ValueError("system block dimension does not match support")
            if not is_hermitian(term.sys_block):
                raise ValueError("system blocks must be Hermitian")
            if abs(np.trace(term.sys_block)) > config.EPS_MAT * self.d**t:
                raise ValueError("system blocks must be traceless")
            if term.env_block.shape != (self.d_env, self.d_env):
                raise ValueError("environment block dimension mismatch")
            if not is_hermitian(term.env_block):
                raise ValueError("environment blocks must be Hermitian")
        if self.env_only.shape != (self.d_env, self.d_env):
            raise ValueError("env_only dimension mismatch")
        if not is_hermitian(self.env_only):
            raise ValueError("env_only must be Hermitian")

    @property
    def max_arity(self) -> int:
        return max(len(term.support) for term in self.terms) if self.terms else 0

    def total_matrix(self) -> np.ndarray:
        """The full d^n * d_env Hamiltonian (capped; used by exact evolution),
        built on the first call and returned read-only from then on."""
        return self._total_matrix

    @functools.cached_property
    def _total_matrix(self) -> np.ndarray:
        dim = self.d**self.n * self.d_env
        if dim > config.EVOLUTION_DIM_CAP:
            raise ValueError(f"total dimension {dim} exceeds cap "
                             f"{config.EVOLUTION_DIM_CAP}")
        h = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            sys_full = embed(term.sys_block, term.support, self.n, self.d)
            h += np.kron(sys_full, term.env_block)
        h += np.kron(np.eye(self.d**self.n), self.env_only)
        h.flags.writeable = False
        return h


def random_drift(n: int, d: int, arity: int, d_env: int, seed: int) -> DriftHamiltonian:
    """Seeded drift with every size-`arity` support populated.

    Each support gets an independent traceless Hermitian system block of
    unit Frobenius norm; with d_env > 1 each support additionally gets a
    coupling term with its own random unit-norm Hermitian environment
    block, and env_only is a random unit-norm Hermitian as well.
    """
    if not 1 <= arity <= n:
        raise ValueError(f"drift arity {arity} out of range for {n} qudits")
    if d_env < 1:
        raise ValueError(f"environment dimension {d_env} must be >= 1")
    rng = np.random.default_rng(seed)

    def hermitian(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        return h / frob(h)

    def traceless(dim):
        h = hermitian(dim)
        h = h - np.trace(h) / dim * np.eye(dim)
        return h / frob(h)

    ident = np.eye(d_env, dtype=complex)
    terms = []
    for support in itertools.combinations(range(n), arity):
        terms.append(DriftTerm(support, traceless(d**arity), ident))
        if d_env > 1:
            terms.append(DriftTerm(support, traceless(d**arity), hermitian(d_env)))
    env_only = hermitian(d_env) if d_env > 1 else np.zeros((1, 1), dtype=complex)
    return DriftHamiltonian(n, d, d_env, tuple(terms), env_only)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """N equal subintervals of per-qudit control: a labelled row table and
    an (N, n) index into it.

    Qudit k runs row index[j, k] during subinterval j.  Row r carries the
    Z_d x Z_d label row_labels[r] of its Weyl unitary and, in eulerian mode,
    table[r], the constant control Hamiltonian that ramps to that unitary.
    In bang-bang mode the row's unitary is held for the subinterval (table
    is None; the jumps between subintervals are idealized kicks).  A built
    schedule has one row per field symbol, in symbol order, so the library
    never holds per-segment labels or a per-segment (N, n, d, d) array.
    """

    n: int
    d: int
    N: int
    delta: float
    mode: str
    row_labels: np.ndarray             # (D, 2) integers in [0, d)
    index: np.ndarray                  # (N, n) integers in [0, D)
    table: np.ndarray | None = None    # (D, d, d) for eulerian

    def __post_init__(self):
        if self.mode not in ("bangbang", "eulerian"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.N < 1 or self.n < 1:
            raise ValueError(f"a schedule needs a segment and a qudit, got "
                             f"N = {self.N}, n = {self.n}")
        rows, index, table = self.row_labels, self.index, self.table
        if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"schedule row labels {rows.dtype} {rows.shape}: "
                             f"not integers of shape (D, 2)")
        if rows.size and not 0 <= rows.min() <= rows.max() < self.d:
            r = np.flatnonzero(((rows < 0) | (rows >= self.d)).any(axis=1))[0]
            raise ValueError(f"table row {r}: label {tuple(rows[r].tolist())} "
                             f"out of range for d = {self.d}")
        if index.dtype.kind not in "iu" or index.shape != (self.N, self.n):
            raise ValueError(f"schedule index {index.dtype} {index.shape}: not "
                             f"integers of shape ({self.N}, {self.n})")
        if not 0 <= index.min() <= index.max() < len(rows):
            raise ValueError(f"schedule indices span [{index.min()}, {index.max()}], "
                             f"outside the table of {len(rows)}")
        if self.mode == "bangbang":
            if table is not None:
                raise ValueError("bang-bang schedule holds no Hamiltonians")
        elif table is None or table.shape != (len(rows), self.d, self.d):
            raise ValueError(f"Hamiltonian table shape "
                             f"{None if table is None else table.shape} is not "
                             f"({len(rows)}, {self.d}, {self.d})")

    @property
    def cycle_time(self) -> float:
        return self.N * self.delta

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """(N, n, 2) per-segment labels row_labels[index], read-only, built
        once on first access.  Kept for the benchmark's segment check."""
        labels = self.row_labels[self.index]
        labels.flags.writeable = False
        return labels

    @functools.cached_property
    def hams(self) -> np.ndarray | None:
        """(N, n, d, d) per-segment Hamiltonians table[index], read-only,
        built once on first access (None for bang-bang).  Kept for the
        benchmark's segment check; nothing in eoa reads it."""
        if self.table is None:
            return None
        hams = self.table[self.index]
        hams.flags.writeable = False
        return hams


def generator_hamiltonian(u: np.ndarray, delta: float) -> np.ndarray:
    """Constant Hamiltonian h with exp(-i h delta) = u and ||h|| <= pi/delta.

    h is the principal Hermitian logarithm of the unitary: eigenphases are
    taken in (-pi, pi] on an orthonormal eigenbasis, the eigenvectors of
    np.linalg.eig orthonormalized by QR.  A unitary is normal, so its
    distinct eigenspaces are orthogonal and QR keeps every column inside its
    eigenspace, also on a degenerate spectrum.  h is a spectral function of
    u and therefore lies in the span of powers of u -- inside the decoupling
    group algebra whenever u represents a group element.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"subinterval length delta = {delta} must be finite and > 0")
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary")
    lam, vec = np.linalg.eig(u)
    vec = np.linalg.qr(vec)[0]
    h = (vec * (-np.angle(lam) / delta)) @ vec.conj().T
    return (h + h.conj().T) / 2


def _symbol_unitaries(field: FieldTable) -> np.ndarray:
    """(q, d, d) stack of each field symbol's Weyl unitary."""
    return np.stack([weyl_from_field(field, e) for e in range(field.q)])


def _symbol_hamiltonians(unitaries: np.ndarray, delta: float) -> np.ndarray:
    """(q, d, d) stack of the control Hamiltonian realizing each unitary."""
    return np.stack([generator_hamiltonian(u, delta) for u in unitaries])


def _symbol_labels(field: FieldTable) -> np.ndarray:
    """(q, 2) uint8 Z_d x Z_d label of each field symbol, in symbol order
    (q <= FIELD_ORDER_CAP)."""
    symbols, d = np.arange(field.q, dtype=np.uint8), field.coord_dim()
    return np.stack([symbols % d, symbols // d], axis=-1)


def _array_entries(m) -> tuple[np.ndarray, int, int | None]:
    """(entries, q, declared strength) from an OA, Eulerian OA, or raw pair.

    A raw (entries, q) pair carries no strength claim; averaging on one
    skips the strength-sufficiency warning.  Every kind's entries must be a
    2-D integer array with symbols in [0, q), else a one-line ValueError,
    and come back as they are: uint8 for a built or loaded array.
    """
    if isinstance(m, EulerianOA):
        entries, q, t = m.entries, m.oa.q, m.t
    elif isinstance(m, OrthogonalArray):
        entries, q, t = m.entries, m.q, m.t
    elif isinstance(m, tuple) and len(m) == 2:
        entries, q, t = np.asarray(m[0]), int(m[1]), None
    else:
        raise TypeError(f"expected an orthogonal array, got {type(m).__name__}")
    if entries.dtype.kind not in "iu" or entries.ndim != 2:
        raise ValueError(f"array entries {entries.dtype} {entries.shape}: not a "
                         f"2-D integer array")
    if entries.size and not 0 <= entries.min() <= entries.max() < q:
        raise ValueError(f"array symbols span [{entries.min()}, {entries.max()}], "
                         f"outside [0, {q})")
    return entries, q, t


def bangbang_schedule(m, delta: float) -> Schedule:
    """Bang-bang schedule: subinterval j holds the column-j Weyl unitaries."""
    entries, q, _ = _array_entries(m)
    field = field_from_order(q)
    n, N = entries.shape
    return Schedule(n, field.coord_dim(), N, delta, "bangbang",
                    _symbol_labels(field), np.ascontiguousarray(entries.T))


def euler_schedule(m, delta: float) -> Schedule:
    """Bounded-strength schedule along the array's cyclic column transitions.

    Qudit k ramps s_{kj} = g_{k,j+1} - g_{kj} during subinterval j with the
    constant Hamiltonian whose endpoint is the transition's Weyl unitary;
    the running propagator starts at the identity and revisits the
    bang-bang propagators (up to per-qudit phases) at subinterval ends.
    """
    entries, q, _ = _array_entries(m)
    field = field_from_order(q)
    d = field.coord_dim()
    n, N = entries.shape
    index = transitions(entries, field).T       # uint8 (q <= FIELD_ORDER_CAP)
    unitaries = _symbol_unitaries(field)
    table = _symbol_hamiltonians(unitaries, delta)
    for u, h in zip(unitaries, table):
        if aligned_distance(_expm_hermitian(h, delta), u) > config.EPS_MAT * d:
            raise AssertionError("control Hamiltonian does not realize its unitary")
    return Schedule(n, d, N, delta, "eulerian", _symbol_labels(field), index, table)


# ---------------------------------------------------------------------------
# Subinterval averaging
# ---------------------------------------------------------------------------

def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h (or a stack of them) via eigendecomposition."""
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam * t)[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def _phase_filter(lam: np.ndarray, delta: float) -> np.ndarray:
    """Matrix of (1/Delta) int_0^Delta exp(i (lam_a - lam_b) delta) ddelta,
    per spectrum of a stack."""
    theta = (lam[..., :, None] - lam[..., None, :]) * delta
    return np.exp(0.5j * theta) * np.sinc(theta / (2 * np.pi))


def _pulse_eigensystem(h: np.ndarray, delta: float) -> tuple:
    """(vec, vec^dag, phase weights) of a control-Hamiltonian stack h: the
    part of F_h that does not depend on the filtered operator."""
    lam, vec = np.linalg.eigh(h)
    return vec, vec.conj().swapaxes(-1, -2), _phase_filter(lam, delta)


def _apply_pulse_filter(x: np.ndarray, eig: tuple) -> np.ndarray:
    """F_h(x) = (1/Delta) int_0^Delta e^{i h tau} x e^{-i h tau} dtau in closed
    form, one per control Hamiltonian of the stack eig was taken of."""
    vec, vec_dag, phases = eig
    return vec @ ((vec_dag @ x @ vec) * phases) @ vec_dag


def _quadrature_propagators(h: np.ndarray, delta: float, order: int) -> tuple:
    """(weights, u(tau_i)) at the Gauss-Legendre nodes tau_i of [0, Delta]:
    the part of the quadrature average that does not depend on the operator.
    For a stack h (S, d, d) each node's propagators form one (S, d, d) stack."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return weights, [_expm_hermitian(h, (node + 1) * delta / 2) for node in nodes]


def _apply_quadrature(x: np.ndarray, props: tuple, v: np.ndarray) -> np.ndarray:
    """sum_i w_i (u_i v)^dag x (u_i v) / 2, accumulated node by node; x, the
    propagators and v broadcast as stacks."""
    weights, us = props
    acc = 0
    for weight, u in zip(weights, us):
        uv = u @ v
        acc = acc + weight * (uv.conj().swapaxes(-1, -2) @ x @ uv)
    return acc / 2


# ---------------------------------------------------------------------------
# The averaging kernel: Q_C = Pi_G o F_S over the (vertex, transition)
# histogram of a term's projection
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two equally long stacks of square matrices."""
    dim = a.shape[-1] * b.shape[-1]
    return np.einsum("sab,scd->sacbd", a, b).reshape(len(a), dim, dim)


def _kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) 1 + 1 (x) b per stack entry: independently driven qudits."""
    return (_kron(a, np.broadcast_to(np.eye(b.shape[-1]), b.shape))
            + _kron(np.broadcast_to(np.eye(a.shape[-1]), a.shape), b))


def _support_table(per_symbol: np.ndarray, codes: np.ndarray, q: int, t: int,
                   combine) -> np.ndarray:
    """One t-qudit operator per base-q code: per_symbol[digit] combined over
    the code's digits (_kron: Weyl unitaries, _kron_sum: control Hamiltonians)."""
    digits = np.unravel_index(codes, (q,) * t)
    return functools.reduce(combine, (per_symbol[k] for k in digits))


# A kernel block's stacked temporaries (the integer buckets of its supports'
# histograms and the filtered coefficients of its terms) hold at most this many
# entries each, 2^14; a block holds one term when a single term needs more.
_BLOCK_ENTRIES = 2**14


def _pairing(unitaries: np.ndarray) -> np.ndarray:
    """(q, q) table k in Z_d with W_v^dag W_l W_v = omega^k[v, l] W_l for the
    symbol unitaries W.

    Raises AssertionError unless every tr(W_l^dag W_v^dag W_l W_v) / d is a
    d-th root of unity within EPS_MAT: the unitaries must represent an
    abelian group projectively, so that conjugation is diagonal on strings.
    """
    d = unitaries.shape[-1]
    ratios = np.array([np.einsum("lab,lab->l", unitaries.conj(),
                                 w.conj().T @ unitaries @ w) for w in unitaries]) / d
    k = np.rint(np.angle(ratios) * d / (2 * np.pi)).astype(np.intp) % d
    if np.abs(ratios - np.exp(2j * np.pi * k / d)).max() > config.EPS_MAT:
        raise AssertionError("symbol unitaries do not commute up to d-th roots of unity")
    return k


def _string_pairing(pairing: np.ndarray, t: int, d: int) -> np.ndarray:
    """(q^t, q^t) pairing of t-qudit codes, first qudit leading: the sum of
    the per-qudit pairings, mod d."""
    q = len(pairing)
    return functools.reduce(
        lambda a, b: (a[:, None, :, None] + b[:, None]).reshape(len(a) * q, -1) % d,
        [pairing] * t)


def _character_sums(counts: np.ndarray, pairing: np.ndarray,
                    omega: np.ndarray) -> np.ndarray:
    """chi[p, s, l] = sum_v counts[p, v, s] omega[pairing[v, l]] for a stack
    of (vertex, transition) histograms (P, V, S), omega the d-th roots.

    The d buckets B_k of the vertices v with pairing k are float64 sums of
    integer counts, exact below 2^53 (a histogram totals N <= EULER_EDGE_CAP).
    For prime d, sum_k B_k omega^k vanishes exactly when all B_k are equal,
    and the sum is set to exactly 0 there: survival is decided in integers.
    """
    d = len(omega)
    onehot = (pairing == np.arange(d)[:, None, None]).astype(float)    # (d, V, L)
    buckets = counts.swapaxes(1, 2)[:, None].astype(float) @ onehot    # (P, d, S, L)
    chi = sum(omega[k] * buckets[:, k] for k in range(d))
    chi[(buckets == buckets[:, :1]).all(axis=1)] = 0
    return chi


def _weyl_expansion(unitaries: np.ndarray, t: int) -> np.ndarray:
    """(d^2t, q^t) matrix W-bar / d^t: a flattened t-qudit operator x times it
    gives x's Weyl-string coefficients tr(W_l^dag x) / d^t, code 0 the
    identity."""
    q, d = len(unitaries), unitaries.shape[-1]
    strings = _support_table(unitaries, np.arange(q**t), q, t, _kron)
    return strings.conj().reshape(q**t, -1).T / d**t


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in lexicographic order, each row's index among them),
    as np.unique(a, axis=0, return_inverse=True) but from one lexsort, several
    times faster than unique's sort of rows as opaque byte strings."""
    order = np.lexsort(a.T[::-1]) if a.size else np.arange(len(a))
    ordered = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _terms_by_arity(supports) -> dict[int, list[int]]:
    """Term indices per support size, each list in input order."""
    groups: dict[int, list[int]] = {}
    for i, support in enumerate(supports):
        groups.setdefault(len(support), []).append(i)
    return groups


def _walk_tables(h: np.ndarray, delta: float, order: int) -> tuple:
    """(node weights, node propagators, steps) of the quadrature walk on a
    support of one size, from the stack h of its control Hamiltonians over
    every transition code: each Gauss-Legendre node's propagators and the
    steps exp(-i h Delta) are stacks of the same shape, indexed by code.
    They depend on neither the operators nor the projection, so every
    support of one size shares them."""
    return (*_quadrature_propagators(h, delta, order), _expm_hermitian(h, delta))


def _quadrature_walk(ops: np.ndarray, sub: np.ndarray, field: FieldTable,
                     tables: tuple) -> np.ndarray:
    """(1/N) sum_j V_j^dag F_{s_j}(x) V_j for each x of the (T, D, D) stack
    ops along a t x N projection, V_j the control prefix and s_j the
    transition of column j, by the time-ordered walk: prefixes multiplied
    from eigen-exponential steps, F_s by Gauss-Legendre quadrature, both
    from the support size's `_walk_tables`.

    Every transition code is filtered at once, one stacked product per node,
    and the prefixes are scanned once for the whole stack, column by column;
    each block of columns then adds its stacked V_j^dag F[s_j] V_j in column
    order.  Blocks hold at most `_BLOCK_ENTRIES` entries, so memory stays
    flat as N grows.
    """
    q, (t, N) = field.q, sub.shape
    weights, nodes, steps = tables
    column_s = q ** np.arange(t - 1, -1, -1) @ transitions(sub, field)
    dim = ops.shape[-1]
    eye = np.eye(dim, dtype=complex)
    # (S, T, D, D), transitions first: a block gathers its columns' filters
    filtered = _apply_quadrature(ops, (weights, [u[:, None] for u in nodes]), eye)
    width = max(1, _BLOCK_ENTRIES // ops[0].size // len(ops))
    prefixes = np.empty((width + 1, dim, dim), dtype=complex)
    prefixes[0] = eye
    acc = np.zeros_like(ops)
    for lo in range(0, N, width):
        cols = column_s[lo:lo + width]
        for j, s in enumerate(cols.tolist()):
            np.matmul(steps[s], prefixes[j], out=prefixes[j + 1])
        v = prefixes[:len(cols), None]
        terms = v.conj().swapaxes(-1, -2) @ filtered[cols] @ v
        terms[0] += acc           # the running sum joins the first column, and an
        acc = terms.sum(axis=0)   # axis-0 sum adds columns one after another
        prefixes[0] = prefixes[len(cols)]
    return acc / N


def _averages(entries: np.ndarray, supports: list, blocks: list, field: FieldTable,
              unitaries: np.ndarray, delta: float | None = None, method: str = "exact",
              order: int = config.DEFAULT_QUAD_ORDER) -> list[np.ndarray]:
    """Each term's averaged system block, blocks[i] on supports[i], as its
    q^t Weyl-string coefficients (code 0 the identity), in input order.

    delta None is the bang-bang action (F = 1, one transition), else the
    array's square-pulse action by "exact" character sums or the
    "quadrature" walk, after the order check and every arity's pair cap.
    Terms are grouped once, by arity and then by support (one run each, in
    input order), and each arity's control Hamiltonians are one stack over
    every transition code.  "exact" counts each distinct support once with
    `oa.subset_histograms` (symbols, bang-bang) or `euler.pair_histograms`,
    multiplies a term's coefficients f[s, l] of F_s(x) by the character
    sums chi[s, l], sums over s and divides by N; the Eulerian coefficients
    then take the phase omega^-k(g_0, l), the prefix before column j being
    W(g_j - g_0).  Blocks of supports and their terms' sub-blocks stay
    under `_BLOCK_ENTRIES` stacked entries.  "quadrature" walks each
    support's run as one stack and expands each walk by the same product.
    """
    arities = _terms_by_arity(supports)
    if delta is not None:
        if order < 1:
            raise ValueError(f"quadrature order {order} must be >= 1")
        for t in arities:
            _check_pair_cap(field.q, t)
        hams = _symbol_hamiltonians(unitaries, delta)
        if method not in ("exact", "quadrature"):
            raise ValueError(f"unknown method {method!r}")
    quadrature = delta is not None and method == "quadrature"
    q, d, N = field.q, unitaries.shape[-1], entries.shape[1]
    if not quadrature:
        pairing, omega = _pairing(unitaries), np.exp(2j * np.pi * np.arange(d) / d)
    averaged: list = [None] * len(supports)
    for t, idx in arities.items():
        rows: dict[tuple[int, ...], int] = {}
        support_of = np.array([rows.setdefault(supports[i], len(rows)) for i in idx])
        # terms ordered by support: each support owns one run, in input order
        by_support = np.argsort(support_of, kind="stable")
        ordered = support_of[by_support]
        codes, expand = np.arange(q**t), _weyl_expansion(unitaries, t)
        h = None if delta is None else _support_table(hams, codes, q, t, _kron_sum)
        if quadrature:
            tables = _walk_tables(h, delta, order)
            bounds = np.searchsorted(ordered, np.arange(len(rows) + 1))
            for support, lo, hi in zip(rows, bounds, bounds[1:]):
                run = by_support[lo:hi]
                walks = _quadrature_walk(np.stack([blocks[idx[i]] for i in run]),
                                         entries[list(support)], field, tables)
                for i, walk in zip(run, walks):
                    averaged[idx[i]] = walk.reshape(-1) @ expand
            continue
        # (support, vertex, transition) counts, one transition for bang-bang
        if delta is None:
            hists, eig = subset_histograms(entries, q, rows)[:, :, None], None
        else:
            hists = pair_histograms(entries, field, rows)
            eig = _pulse_eigensystem(h, delta)
            g0 = entries[np.array(list(rows)), 0] @ q ** np.arange(t - 1, -1, -1)
        k = _string_pairing(pairing, t, d)
        step = max(1, _BLOCK_ENTRIES // (d * hists[0].size))
        for first in range(0, len(rows), step):
            chi = _character_sums(hists[first:first + step], k, omega)
            lo, hi = np.searchsorted(ordered, [first, first + step])
            for a in range(lo, hi, step):
                block = by_support[a:min(a + step, hi)]
                x = np.stack([blocks[idx[i]] for i in block])[:, None]
                filtered = x if eig is None else _apply_pulse_filter(x, eig)
                f = filtered.reshape(len(block), hists.shape[2], -1) @ expand
                coeffs = (f * chi[support_of[block] - first]).sum(axis=1) / N
                if delta is not None:
                    coeffs *= omega[-k[g0[support_of[block]]] % d]
                for i, c in zip(block, coeffs):
                    averaged[idx[i]] = c
    return averaged


# ---------------------------------------------------------------------------
# Averaging reports
# ---------------------------------------------------------------------------

# Weyl strings listed in a report, largest residual share first.
_TOP_STRINGS = 5


@dataclass(frozen=True)
class AverageReport:
    """First-order average of a drift under a control action.

    residual_norm is the full-space Frobenius norm of the averaged
    Hamiltonian minus its environment-only component; env_shift_norm is
    how far that component moved from the declared env_only part.
    top_strings lists the Weyl strings that carry most of the residual,
    each as its non-identity (qudit, symbol) factors with its share of the
    norm (residual_norm^2 is the sum of all strings' squared shares); only
    strings with a nonzero share are listed.  A string whose character-sum
    buckets are all equal on a term's support contributes exactly 0, so on
    a code-built array of strength t every norm of a drift of arity <= t is
    exactly 0.0 and top_strings is empty.
    """

    residual_norm: float
    per_term_norms: tuple[tuple[tuple[int, ...], float], ...]
    method: str
    env_shift_norm: float
    top_strings: tuple[tuple[tuple[tuple[int, int], ...], float], ...]


def _assemble_report(averaged: list[np.ndarray], drift: DriftHamiltonian,
                     method: str, q: int) -> AverageReport:
    """The report from the Weyl-string coefficients of the averaged terms.

    A term of arity t is sum_l c_l W_l over the q^t strings, code 0 the
    identity: c_0 E is the term's environment shift.  Strings are
    orthogonal with ||W||_F^2 = d^n on the full space, so the residual is
    sqrt(d^n sum_key ||M_key||_F^2), M_key summing c_l E over the strings
    whose non-identity (qudit, symbol) factors are key, that is, over equal
    full-space operators.  Each key is an integer row, qudit * q + symbol
    per non-identity factor, sorted and padded to the widest arity; equal
    rows merge.
    """
    d, n, width = drift.d, drift.n, drift.max_arity
    pad = n * q                        # sorts after every factor
    norms = np.zeros(len(drift.terms))
    env_shift = np.zeros(drift.env_only.size, dtype=complex)
    keys = [np.empty((0, width), dtype=np.intp)]
    values = [np.empty((0, drift.env_only.size), dtype=complex)]
    for t, idx in _terms_by_arity(term.support for term in drift.terms).items():
        coeffs = np.stack([averaged[i] for i in idx])
        envs = np.stack([drift.terms[i].env_block for i in idx]).reshape(len(idx), -1)
        env_shift += coeffs[:, 0] @ envs
        norms[idx] = (d ** (t / 2) * np.linalg.norm(coeffs[:, 1:], axis=1)
                      * np.linalg.norm(envs, axis=1))
        digits = np.transpose(np.unravel_index(np.arange(1, q**t), (q,) * t))
        supports = np.array([drift.terms[i].support for i in idx])
        factors = np.where(digits > 0, supports[:, None] * q + digits, pad)
        keys.append(np.pad(np.sort(factors, axis=2).reshape(-1, t),
                           ((0, 0), (0, width - t)), constant_values=pad))
        values.append((coeffs[:, 1:, None] * envs[:, None]).reshape(-1, envs.shape[1]))
    strings, string_of = _unique_rows(np.concatenate(keys))
    merged = np.zeros((len(strings), drift.env_only.size), dtype=complex)
    np.add.at(merged, string_of, np.concatenate(values))
    shares = d ** (n / 2) * np.linalg.norm(merged, axis=1)
    top = tuple((tuple((int(f) // q, int(f) % q) for f in strings[i] if f != pad),
                 float(shares[i]))
                for i in np.argsort(-shares, kind="stable")[:_TOP_STRINGS]
                if shares[i] > 0)
    return AverageReport(d ** (n / 2) * frob(merged),
                         tuple((term.support, float(norm))
                               for term, norm in zip(drift.terms, norms)),
                         method, frob(env_shift), top)


def _averaging_setup(m, drift: DriftHamiltonian) -> tuple:
    """(entries, supports, system blocks, field, symbol unitaries): the
    arguments of `_averages` for an array that averages the drift's terms,
    in input order; warns when the array's declared strength is below the
    drift's arity."""
    entries, q, declared_t = _array_entries(m)
    field = field_from_order(q)
    if field.coord_dim() != drift.d or entries.shape[0] != drift.n:
        raise ValueError("array does not match the drift's qudit layout")
    if declared_t is not None and declared_t < drift.max_arity:
        warnings.warn(f"array strength {declared_t} is below the drift's "
                      f"maximum term arity {drift.max_arity}; residual will "
                      f"generally not vanish", stacklevel=3)
    return (entries, [term.support for term in drift.terms],
            [term.sys_block for term in drift.terms], field, _symbol_unitaries(field))


def bangbang_average(m, drift: DriftHamiltonian) -> AverageReport:
    """First-order average under the bang-bang control action of an array.

    Each term is conjugated by the tensor Weyl unitaries of the array
    columns restricted to the term's support and averaged over columns:
    each Weyl coefficient times the character sum of the support's symbol
    histogram, F = 1.
    """
    entries, supports, blocks, field, unitaries = _averaging_setup(m, drift)
    averaged = _averages(entries, supports, blocks, field, unitaries)
    return _assemble_report(averaged, drift, "bangbang", field.q)


def eulerian_average(m, drift: DriftHamiltonian, delta: float,
                     method: str = "exact",
                     order: int = config.DEFAULT_QUAD_ORDER) -> AverageReport:
    """First-order average under the bounded-strength (Eulerian) action.

    Each term's action Q_C = Pi_G o F_S is computed on its own support;
    the environment factor of every term passes through untouched.
    "exact" counts every distinct support once and multiplies each term's
    filtered Weyl coefficients by its support's character sums (see
    _averages).  "quadrature" walks each support's projection once for the
    stack of its terms (see _quadrature_walk), on tables shared by every
    support of one size, and expands each term's walk.
    """
    entries, supports, blocks, field, unitaries = _averaging_setup(m, drift)
    averaged = _averages(entries, supports, blocks, field, unitaries, delta, method,
                         order)
    label = "exact" if method == "exact" else f"quadrature({order})"
    return _assemble_report(averaged, drift, label, field.q)


def single_cycle_average(cycle: EulerianCycle, x: np.ndarray, delta: float,
                         method: str = "exact",
                         order: int = config.DEFAULT_QUAD_ORDER) -> np.ndarray:
    """The control action Q_C of a single-qudit Eulerian cycle.

    The cycle lives over GF(d^2) (one row, k = 1); square pulses realize
    each transition.  By the Eulerian decoupling theorem the result equals
    the plain group average of x.  Both methods rebuild sum_l a_l W_l from
    the averaged coefficients.
    """
    if cycle.k != 1:
        raise ValueError("single-qudit average needs a k = 1 cycle")
    field = field_from_order(cycle.q)
    d = field.coord_dim()
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} does not match d = {d}")
    unitaries = _symbol_unitaries(field)
    coeffs, = _averages(cycle.codes[None], [(0,)], [x], field, unitaries, delta,
                        method, order)
    return np.tensordot(coeffs, unitaries, axes=1)


def fs_map(d: int, labels, x: np.ndarray, delta: float) -> np.ndarray:
    """Average over generators and the control subinterval (no group walk).

    labels is an iterable of Z_d x Z_d labels; each contributes the
    closed-form square-pulse filter F_h(x) of its control Hamiltonian h.
    Composing the group average after this map reproduces a cycle's
    control action.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one generator label")
    hams = np.stack([generator_hamiltonian(weyl(d, a, b), delta) for a, b in labels])
    filtered = _apply_pulse_filter(np.asarray(x, dtype=complex),
                                   _pulse_eigensystem(hams, delta))
    return filtered.sum(axis=0) / len(labels)


# ---------------------------------------------------------------------------
# Exact evolution
# ---------------------------------------------------------------------------

def exact_evolution(drift: DriftHamiltonian, sched: Schedule) -> np.ndarray:
    """Propagator over one control cycle, on the full d^n * d_env space.

    Eulerian mode: time-ordered product of exp(-i (H + H_c) Delta), one
    exact step per subinterval, on which the control Hamiltonian is
    constant.  Bang-bang mode: toggling-frame product of
    exp(-i U_j^dag H U_j Delta), which equals the lab propagator whenever
    the first column's unitary is the identity (true for every code-built
    array: column 0 is the zero codeword).

    A segment's step depends only on its row of sched.index (never on the
    labels of an eulerian schedule, which a schedule read from a file need
    not match to its Hamiltonians), so each distinct index row is
    exponentiated once and the steps are multiplied in column order.  The
    held unitary of a bang-bang index row is the Kronecker product of its
    table rows' Weyl unitaries; the control Hamiltonian of an eulerian one
    is the Kronecker sum of its table rows' Hamiltonians.
    """
    if sched.n != drift.n or sched.d != drift.d:
        raise ValueError("schedule does not match the drift's qudit layout")
    h_total = drift.total_matrix()
    dim = h_total.shape[0]
    d_env = drift.d_env
    rows, column_step = _unique_rows(sched.index)
    bangbang = sched.mode == "bangbang"
    # per table row, its Weyl unitary or Hamiltonian; np.kron, not _kron's
    # einsum, whose complex products round differently at d = 3
    per_row = (np.stack([weyl(sched.d, a, b) for a, b in sched.row_labels.tolist()])
               if bangbang else sched.table)
    steps = []
    for row in rows:
        op = functools.reduce(np.kron if bangbang else _kron_sum, per_row[row, None])[0]
        op = np.kron(op, np.eye(d_env))
        h_seg = op.conj().T @ h_total @ op if bangbang else h_total + op
        steps.append(_expm_hermitian(h_seg, sched.delta))
    u = np.eye(dim, dtype=complex)
    for s in column_step.ravel():
        u = steps[s] @ u
    return u


# ---------------------------------------------------------------------------
# JSON serialization: schedules, reports, drifts
# ---------------------------------------------------------------------------

def _json_array(raw, shape: tuple, what: str, dtype=None) -> np.ndarray:
    """np.array(raw) of the given shape (integers unless dtype is given),
    else a one-line ValueError naming the field."""
    try:
        arr = np.array(raw, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"schedule {what}: {exc}") from None
    if dtype is None and arr.dtype.kind != "i":
        raise ValueError(f"schedule {what}: expected integers, got {arr.dtype}")
    if arr.shape != shape:
        raise ValueError(f"schedule {what}: shape {arr.shape} != {shape}")
    return arr.astype(np.int64, copy=False) if dtype is None else arr


def schedule_from_json(data: dict) -> Schedule:
    """The schedule of a write_schedule document.  A document of another
    shape (a missing field, a top level that is not an object) or of the
    old per-segment layout raises a one-line ValueError."""
    try:
        if "segments" in data:
            raise ValueError('schedule document has the old per-segment layout '
                             '("segments"); export the schedule again')
        n, d, N, mode = data["n"], data["d"], data["N"], data["mode"]
        raw = data["labels"]
        labels = _json_array(raw, (len(raw), 2), "labels")
        table = None
        if mode == "eulerian":
            raw = data["hamiltonians"]
            for i, entry in enumerate(raw):
                if len(entry) != d * d:
                    raise ValueError(f"schedule Hamiltonian {i} has {len(entry)} "
                                     f"[re, im] pairs, expected {d * d}")
            pairs = _json_array(raw, (len(raw), d * d, 2), "Hamiltonians", np.float64)
            table = pairs.view(np.complex128).reshape(len(raw), d, d)
        index = _json_array(data["index"], (N, n), "index")
        return Schedule(n, d, N, float(data["delta"]), mode, labels, index, table)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed schedule document: {exc!r}") from None


SCHEDULE_BLOCK = 4096   # segments per gather: write memory stays bounded in N


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


def write_schedule(path, sched: Schedule) -> None:
    """One JSON object: n, d, N, delta, mode, the row labels, in eulerian
    mode the Hamiltonian table (each entry row-major [re, im] pairs), then
    the index, one list of n table rows per segment.

    The bytes are those of json.dumps(...) + "\n" with default separators.
    The header is json.dumps; the index is one byte gather of row tokens
    per block of SCHEDULE_BLOCK segments, with the zero padding of
    mixed-width tokens dropped, so no per-segment Python runs.
    """
    d = sched.d
    header = {"n": sched.n, "d": d, "N": sched.N, "delta": sched.delta,
              "mode": sched.mode, "labels": sched.row_labels.tolist()}
    if sched.mode == "eulerian":
        table = np.ascontiguousarray(sched.table, dtype=np.complex128)
        header["hamiltonians"] = table.view(np.float64).reshape(
            len(table), d**2, 2).tolist()
    tokens = _token_table([f"{i}, " for i in range(len(sched.row_labels))])
    ragged = not tokens.all()
    with Path(path).open("wb") as f:
        f.write((json.dumps(header)[:-1] + ', "index": [').encode())
        for lo in range(0, sched.N, SCHEDULE_BLOCK):
            hi = min(lo + SCHEDULE_BLOCK, sched.N)
            text = np.take(tokens, sched.index[lo:hi], axis=0).reshape(hi - lo, -1)
            text[:, -2:] = _ascii("],")      # a row's last ", " closes its list
            text = np.concatenate([np.broadcast_to(_ascii("["), (hi - lo, 1)), text,
                                   np.broadcast_to(_ascii(" "), (hi - lo, 1))],
                                  axis=1).ravel()
            if ragged:
                text = text[text != 0]
            f.write(text[:-2] if hi == sched.N else text)   # no ", " after the last
        f.write(b"]}\n")


def read_schedule(path) -> Schedule:
    """The schedule a write_schedule file holds, parsed by json.loads.

    Cyclic garbage collection is paused while the file is parsed and
    converted: the parse allocates about N lists, none in a cycle, and the
    collector would rescan them over and over.  The caller's collector
    state is restored, also on error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return schedule_from_json(_read_json(path))
    finally:
        if enabled:
            gc.enable()


def verify_schedule(sched: Schedule) -> float:
    """Largest phase-aligned distance of exp(-i h Delta) from the labeled
    Weyl unitary of its table row, over the rows the index uses.

    Re-verifies an (imported) eulerian schedule: each used row's Hamiltonian
    must reproduce the unitary of the row's own label up to a global phase.
    Every segment runs a row, so the maximum covers every segment.
    """
    if sched.mode != "eulerian":
        raise ValueError("only eulerian schedules carry Hamiltonians to verify")
    # the used rows from a bincount: a plain np.unique imports numpy.ma
    used = np.flatnonzero(np.bincount(sched.index.ravel()))
    weyls = [weyl(sched.d, a, b) for a, b in sched.row_labels[used].tolist()]
    dist = aligned_distance(_expm_hermitian(sched.table[used], sched.delta),
                            np.array(weyls))
    return float(np.max(dist, initial=0.0))


def report_to_json(report: AverageReport, tolerance: float, extra: dict | None = None) -> dict:
    data = {
        "residual_norm": report.residual_norm,
        "env_shift_norm": report.env_shift_norm,
        "method": report.method,
        "tolerance": tolerance,
        "passed": report.residual_norm <= tolerance,
        "per_term_norms": [{"support": list(sup), "norm": norm}
                           for sup, norm in report.per_term_norms],
        "top_strings": [{"string": [list(f) for f in string], "norm": norm}
                        for string, norm in report.top_strings],
    }
    if extra:
        data.update(extra)
    return data


def drift_to_json(drift: DriftHamiltonian) -> dict:
    return {
        "n": drift.n, "d": drift.d, "d_env": drift.d_env,
        "env_only": matrix_to_pairs(drift.env_only),
        "terms": [{"support": list(t.support),
                   "sys": matrix_to_pairs(t.sys_block),
                   "env": matrix_to_pairs(t.env_block)} for t in drift.terms],
    }


def drift_from_json(data: dict) -> DriftHamiltonian:
    """The drift of a drift_to_json document.  A document of another shape
    (a missing field, a matrix that is not [re, im] pairs, a top level that
    is not an object) raises a one-line ValueError that names the field."""
    where = "n, d, d_env"
    try:
        n, d, d_env = data["n"], data["d"], data["d_env"]
        if not all(isinstance(v, int) for v in (n, d, d_env)):
            raise TypeError("not integers")
        where = "terms"
        terms = []
        for i, entry in enumerate(data["terms"]):
            where = f"terms[{i}].support"
            support = tuple(int(k) for k in entry["support"])
            where = f"terms[{i}].sys"
            sys_block = matrix_from_pairs(entry["sys"], d ** len(support))
            where = f"terms[{i}].env"
            env_block = matrix_from_pairs(entry["env"], d_env)
            terms.append(DriftTerm(support, sys_block, env_block))
        where = "env_only"
        env_only = matrix_from_pairs(data["env_only"], d_env)
    except KeyError as exc:
        raise ValueError(f"malformed drift document: {where}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed drift document: {where}: {exc}") from None
    return DriftHamiltonian(n, d, d_env, tuple(terms), env_only)


def write_drift(path, drift: DriftHamiltonian) -> None:
    Path(path).write_text(json.dumps(drift_to_json(drift), indent=1) + "\n")


def read_drift(path) -> DriftHamiltonian:
    """The drift of a drift file; every error in it is one ValueError line
    after the file's path."""
    data = _read_json(path)
    try:
        return drift_from_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_json(path):
    """The document of a JSON file; one that does not decode or parse is a
    one-line ValueError after the file's path."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:       # UnicodeDecodeError, json.JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None
