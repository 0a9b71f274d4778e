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
  the independent time-ordered walk, with matrix-exponential prefixes.

* First-order averages act on each term's support (dimension d^t),
  mirroring the reduction used by the decoupling theorems, but the exact
  kernel runs in batches: every distinct support's histogram is counted
  once (bang-bang on the symbols, Eulerian on the verifier's pair digits
  symbol * q + transition), and the terms that share a table key (arity,
  used vertex codes, used transition codes) go through Pi_G o F_S as
  stacks, in blocks of bounded size.  The quadrature walk stays per term,
  as the independent cross-check.

* Each averaged term is expanded in the Weyl strings of its support, one
  matrix product per arity.  The reported residual is still the exact
  full-space Frobenius norm of the averaged Hamiltonian minus its
  environment-only component, a Parseval sum of squares over the
  full-space strings that the terms' coefficients merge into (strings
  keyed as sorted integer rows), so wide arrays stay tractable; the
  strings carrying most of it are listed in the report.

* Unitaries are only ever compared modulo a global phase (the Weyl
  representation is projective).
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from . import config
from .euler import (EulerianCycle, EulerianOA, _check_pair_cap, pair_digits,
                    transitions)
from .gf import FieldTable, field_from_order
from .oa import OrthogonalArray, support_histograms
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
        """The full d^n * d_env Hamiltonian (capped; used by exact evolution)."""
        dim = self.d**self.n * self.d_env
        if dim > config.EVOLUTION_DIM_CAP:
            raise ValueError(f"total dimension {dim} exceeds cap "
                             f"{config.EVOLUTION_DIM_CAP}")
        h = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            sys_full = embed(term.sys_block, term.support, self.n, self.d)
            h += np.kron(sys_full, term.env_block)
        h += np.kron(np.eye(self.d**self.n), self.env_only)
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
    """N equal subintervals of per-qudit control.

    In bang-bang mode labels[j, k] is the Z_d x Z_d label of the unitary
    held on qudit k during subinterval j (table and index are None; the
    jumps between subintervals are idealized kicks).  In eulerian mode
    labels[j, k] is the generator ramped during subinterval j and
    table[index[j, k]] the constant control Hamiltonian realizing it: the
    table holds the control Hamiltonians (for a built schedule, the q
    symbol Hamiltonians in symbol order) and index (N, n) each segment's
    rows of it, so the library never holds a per-segment (N, n, d, d) array.
    """

    n: int
    d: int
    N: int
    delta: float
    mode: str
    labels: np.ndarray                 # (N, n, 2)
    table: np.ndarray | None = None    # (D, d, d) for eulerian
    index: np.ndarray | None = None    # (N, n) integers in [0, D) for eulerian

    def __post_init__(self):
        if self.mode not in ("bangbang", "eulerian"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.labels.shape != (self.N, self.n, 2):
            raise ValueError("labels shape mismatch")
        if self.mode == "bangbang":
            if self.table is not None or self.index is not None:
                raise ValueError("bang-bang schedule holds no Hamiltonians")
            return
        table, index = self.table, self.index
        if table is None or index is None:
            raise ValueError("eulerian schedule needs a Hamiltonian table and index")
        if table.ndim != 3 or table.shape[1:] != (self.d, self.d):
            raise ValueError(f"Hamiltonian table shape {table.shape} is not "
                             f"(D, {self.d}, {self.d})")
        if index.dtype.kind not in "iu" or index.shape != (self.N, self.n):
            raise ValueError(f"Hamiltonian index {index.dtype} {index.shape} is not "
                             f"integer ({self.N}, {self.n})")
        if index.size and not 0 <= index.min() <= index.max() < len(table):
            raise ValueError(f"schedule Hamiltonian indices span [{index.min()}, "
                             f"{index.max()}], outside the table of {len(table)}")

    @property
    def cycle_time(self) -> float:
        return self.N * self.delta

    @functools.cached_property
    def hams(self) -> np.ndarray | None:
        """(N, n, d, d) per-segment Hamiltonians table[index], built once on
        first access (None for bang-bang).  Kept for the benchmark's segment
        check; nothing in eoa reads it."""
        return None if self.table is None else self.table[self.index]


def generator_hamiltonian(u: np.ndarray, delta: float) -> np.ndarray:
    """Constant Hamiltonian h with exp(-i h delta) = u and ||h|| <= pi/delta.

    h is the principal Hermitian logarithm of the unitary: eigenphases are
    taken in (-pi, pi] on the Schur (eigen)basis, so h is a spectral
    function of u and therefore lies in the span of powers of u -- inside
    the decoupling group algebra whenever u represents a group element.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"subinterval length delta = {delta} must be finite and > 0")
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary")
    tri, vec = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(tri))
    h = (vec * (-phases / delta)) @ vec.conj().T
    return (h + h.conj().T) / 2


def _symbol_unitaries(field: FieldTable) -> np.ndarray:
    """(q, d, d) stack of each field symbol's Weyl unitary."""
    return np.stack([weyl_from_field(field, e) for e in range(field.q)])


def _symbol_hamiltonians(unitaries: np.ndarray, delta: float) -> np.ndarray:
    """(q, d, d) stack of the control Hamiltonian realizing each unitary."""
    return np.stack([generator_hamiltonian(u, delta) for u in unitaries])


def _coords_array(field: FieldTable, symbols: np.ndarray) -> np.ndarray:
    """(..., 2) array of Z_d x Z_d coordinates for an array of symbols."""
    d = field.coord_dim()
    return np.stack([symbols % d, symbols // d], axis=-1)


def _array_entries(m) -> tuple[np.ndarray, int, int | None]:
    """(entries, q, declared strength) from an OA, Eulerian OA, or raw pair.

    A raw (entries, q) pair carries no strength claim; averaging on one
    skips the strength-sufficiency warning.
    """
    if isinstance(m, EulerianOA):
        return m.entries, m.oa.q, m.t
    if isinstance(m, OrthogonalArray):
        return m.entries, m.q, m.t
    if isinstance(m, tuple) and len(m) == 2:
        entries = np.asarray(m[0], dtype=np.int64)
        return entries, int(m[1]), None
    raise TypeError(f"expected an orthogonal array, got {type(m).__name__}")


def bangbang_schedule(m, delta: float) -> Schedule:
    """Bang-bang schedule: subinterval j holds the column-j Weyl unitaries."""
    entries, q, _ = _array_entries(m)
    field = field_from_order(q)
    n, N = entries.shape
    labels = _coords_array(field, entries.T)      # (N, n, 2)
    return Schedule(n, field.coord_dim(), N, delta, "bangbang", labels)


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
    index = transitions(entries, field).T.astype(np.uint8)   # q <= FIELD_ORDER_CAP
    unitaries = _symbol_unitaries(field)
    table = _symbol_hamiltonians(unitaries, delta)
    for u, h in zip(unitaries, table):
        if aligned_distance(_expm_hermitian(h, delta), u) > config.EPS_MAT * d:
            raise AssertionError("control Hamiltonian does not realize its unitary")
    return Schedule(n, d, N, delta, "eulerian", _coords_array(field, index),
                    table, index)


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
    vec, vec_dag, phases = eig
    return vec @ ((vec_dag @ x @ vec) * phases) @ vec_dag


def _square_pulse_filter(x: np.ndarray, h: np.ndarray, delta: float) -> np.ndarray:
    """F_h(x) = (1/Delta) int_0^Delta e^{i h tau} x e^{-i h tau} dtau in closed
    form, one per control Hamiltonian of a stack h."""
    return _apply_pulse_filter(x, _pulse_eigensystem(h, delta))


def _quadrature_propagators(h: np.ndarray, delta: float, order: int) -> tuple:
    """(weights, u(tau_i)) at the Gauss-Legendre nodes tau_i of [0, Delta]:
    the part of the quadrature average that does not depend on the operator."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return weights, [scipy.linalg.expm(-1j * h * ((node + 1) * delta / 2))
                     for node in nodes]


def _apply_quadrature(x: np.ndarray, props: tuple, v: np.ndarray) -> np.ndarray:
    weights, us = props
    acc = np.zeros_like(x)
    for weight, u in zip(weights, us):
        uv = u @ v
        acc += weight * (uv.conj().T @ x @ uv)
    return acc / 2


def segment_average(x: np.ndarray, h: np.ndarray, v: np.ndarray, delta: float,
                    method: str = "exact",
                    order: int = config.DEFAULT_QUAD_ORDER) -> np.ndarray:
    """(1/Delta) int_0^Delta (u(delta) v)^dag x (u(delta) v) ddelta.

    u(delta) = exp(-i h delta) with h the constant control Hamiltonian and
    v the accumulated control prefix at the subinterval start.

    "exact" diagonalizes h and applies the closed-form phase average;
    "quadrature" evaluates the integrand at Gauss-Legendre nodes through
    an independent matrix-exponential route, as a cross-check.
    """
    if order < 1:
        raise ValueError(f"quadrature order {order} must be >= 1")
    x = np.asarray(x, dtype=complex)
    if x.shape != h.shape or x.shape != v.shape:
        raise ValueError("dimension mismatch between operator, control, and prefix")
    if method == "exact":
        return v.conj().T @ _square_pulse_filter(x, h, delta) @ v
    if method == "quadrature":
        return _apply_quadrature(x, _quadrature_propagators(h, delta, order), v)
    raise ValueError(f"unknown method {method!r}")


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


# A kernel call's stacked temporaries (the filtered operators and the
# per-vertex sums of a block of terms) hold at most this many complex entries
# each, 2^14 or 256 KB; a block holds one term when a single term needs more.
_BLOCK_ENTRIES = 2**14


def _histogram_average(filtered: np.ndarray, counts: np.ndarray,
                       weyls: np.ndarray) -> np.ndarray:
    """(1/N) sum_v W_v^dag [sum_s counts[v, s] filtered[s]] W_v for each term
    of a stack: Pi_G after F_S, N the term's histogram total.

    filtered (T, S, D, D) holds each term's F_s(x), counts (T, V, S) its
    (vertex, transition) histogram and weyls (V, D, D) the vertices' Weyl
    operators.
    """
    T, S, D = filtered.shape[:3]
    inner = (counts @ filtered.reshape(T, S, D * D)).reshape(T, -1, D, D)
    total = counts.sum(axis=(1, 2))[:, None, None]
    return (weyls.conj().swapaxes(1, 2) @ inner @ weyls).sum(axis=1) / total


def _kernel_tables(tables: dict, t: int, used_v: np.ndarray, used_s: np.ndarray,
                   q: int, unitaries: np.ndarray, hams: np.ndarray | None,
                   delta: float | None) -> tuple:
    """(F_S eigensystem, vertex Weyl table) of one table key, memoized in
    `tables`; the eigensystem is None for bang-bang (hams None, F = 1)."""
    key = (t, used_v.tobytes(), used_s.tobytes())
    if key not in tables:
        eig = None if hams is None else _pulse_eigensystem(
            _support_table(hams, used_s, q, t, _kron_sum), delta)
        tables[key] = eig, _support_table(unitaries, used_v, q, t, _kron)
    return tables[key]


def _grouped_average(xs: np.ndarray, hists: np.ndarray, bins: np.ndarray,
                     support_of: np.ndarray, q: int, t: int, unitaries: np.ndarray,
                     hams: np.ndarray | None, delta: float | None,
                     tables: dict) -> np.ndarray:
    """Pi_G o F_S of each term of a stack xs (T, D, D) of arity t.

    Term i is counted by the histogram hists[support_of[i]], whose bin
    bins[v, s] holds the columns with vertex code v and transition code s.
    Terms are grouped by table key (arity, used vertex codes, used
    transition codes) and each group runs through the kernel in blocks of
    at most `_BLOCK_ENTRIES` stacked entries.
    """
    seen = (hists > 0)[:, bins]
    masks, key_of = _unique_rows(np.concatenate([seen.any(axis=2), seen.any(axis=1)],
                                                axis=1))
    key_of = key_of[support_of]
    out = np.empty(xs.shape, dtype=complex)
    for k, mask in enumerate(masks):
        used_v, used_s = np.nonzero(mask[:len(bins)])[0], np.nonzero(mask[len(bins):])[0]
        eig, weyls = _kernel_tables(tables, t, used_v, used_s, q, unitaries,
                                    hams, delta)
        cells = bins[np.ix_(used_v, used_s)]
        members = np.nonzero(key_of == k)[0]
        step = max(1, _BLOCK_ENTRIES // ((len(used_v) + len(used_s)) * xs[0].size))
        for lo in range(0, len(members), step):
            block = members[lo:lo + step]
            x = xs[block, None]
            filtered = x if eig is None else _apply_pulse_filter(x, eig)
            out[block] = _histogram_average(
                filtered, hists[support_of[block, None, None], cells], weyls)
    return out


def _relative_pair_digits(entries: np.ndarray, field: FieldTable) -> np.ndarray:
    """`euler.pair_digits` with each row's vertex g_j replaced by g_j - g_0.

    The control prefix before column j is W(g_j - g_0) up to a phase, so
    the kernel's vertex is relative to the first column: a permutation of
    each row's vertex digits, applied before counting.
    """
    q = field.q
    digits = pair_digits(entries, field)
    relabel = field.add_table[:, field.neg_table[entries[:, 0]]].T[..., None] * q
    relabel = (relabel + np.arange(q)).reshape(len(digits), q * q)
    for row, table in zip(digits, relabel):
        row[:] = table[row]
    return digits


def _pair_bins(q: int, t: int) -> np.ndarray:
    """(q^t, q^t) bin of each (vertex code, transition code) in a histogram
    of pair digits, vertex * q + transition per row, first row leading."""
    code = (q * q) ** np.arange(t - 1, -1, -1) @ np.array(
        np.unravel_index(np.arange(q**t), (q,) * t))
    return q * code[:, None] + code


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


def _terms_by_arity(drift: DriftHamiltonian) -> dict[int, list[int]]:
    """Term indices per support size, each list in input order."""
    groups: dict[int, list[int]] = {}
    for i, term in enumerate(drift.terms):
        groups.setdefault(len(term.support), []).append(i)
    return groups


def _exact_averages(entries: np.ndarray, drift: DriftHamiltonian, field: FieldTable,
                    unitaries: np.ndarray, hams: np.ndarray | None,
                    delta: float | None) -> list[np.ndarray]:
    """Each drift term's averaged system block, in input order.

    Every distinct support is counted once: the array's symbols for
    bang-bang (hams None, F = 1), its relative pair digits for the
    bounded-strength action.  The terms of one arity then share one
    `_grouped_average`.
    """
    q = field.q
    digits = entries if hams is None else _relative_pair_digits(entries, field)
    averaged: list = [None] * len(drift.terms)
    for t, idx in _terms_by_arity(drift).items():
        rows: dict[tuple[int, ...], int] = {}
        support_of = np.array([rows.setdefault(drift.terms[i].support, len(rows))
                               for i in idx])
        supports = np.array(list(rows))
        if hams is None:
            hists = support_histograms(digits, q, supports)
            bins = np.arange(q**t)[:, None]
        else:
            _check_pair_cap(q, t)
            hists = support_histograms(digits, q * q, supports)
            bins = _pair_bins(q, t)
        xs = np.stack([drift.terms[i].sys_block for i in idx])
        for i, avg in zip(idx, _grouped_average(xs, hists, bins, support_of, q, t,
                                                unitaries, hams, delta, {})):
            averaged[i] = avg
    return averaged


def _cycle_action(x: np.ndarray, sub: np.ndarray, field: FieldTable,
                  unitaries: np.ndarray, hams: np.ndarray, delta: float,
                  method: str, order: int, tables: dict | None = None) -> np.ndarray:
    """(1/N) sum_j V_j^dag F_{s_j}(x) V_j along a t x N projection, V_j the
    control prefix and s_j the transition of column j.

    "exact" is the histogram kernel, V_j = W(g_j - g_0) up to a phase, on
    one term.  "quadrature" walks the columns with prefixes multiplied from
    matrix-exponential steps; F_s is computed once per distinct transition.
    `tables` memoizes each backend's x-independent operators: the exact
    kernel's eigensystems and Weyl tables, keyed by the used vertex and
    transition codes, and the walk's node propagators and steps, keyed by
    the order and the used transition codes.  Share it only between calls
    with the same field, unitaries, hams and delta.
    """
    q, (t, N) = field.q, sub.shape
    tables = {} if tables is None else tables
    if method == "exact":
        _check_pair_cap(q, t)
        hists = support_histograms(_relative_pair_digits(sub, field), q * q,
                                   [range(t)])
        return _grouped_average(np.asarray(x)[None], hists, _pair_bins(q, t),
                                np.zeros(1, np.intp), q, t, unitaries, hams, delta,
                                tables)[0]
    if method == "quadrature":
        codes = q ** np.arange(t - 1, -1, -1) @ transitions(sub, field)
        used_s, column_s = np.unique(codes, return_inverse=True)
        x = np.asarray(x, dtype=complex)
        key = ("quadrature", order, t, used_s.tobytes())
        if key not in tables:
            h = _support_table(hams, used_s, q, t, _kron_sum)
            tables[key] = ([_quadrature_propagators(hs, delta, order) for hs in h],
                           [scipy.linalg.expm(-1j * delta * hs) for hs in h])
        props, steps = tables[key]
        eye = np.eye(x.shape[-1], dtype=complex)
        filtered = [_apply_quadrature(x, p, eye) for p in props]
        prefix, acc = eye, np.zeros_like(eye)
        for s in column_s:
            acc += prefix.conj().T @ filtered[s] @ prefix
            prefix = steps[s] @ prefix
        return acc / N
    raise ValueError(f"unknown method {method!r}")


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
    norm (residual_norm^2 is the sum of all strings' squared shares).
    """

    residual_norm: float
    per_term_norms: tuple[tuple[tuple[int, ...], float], ...]
    method: str
    env_shift_norm: float
    top_strings: tuple[tuple[tuple[tuple[int, int], ...], float], ...]


def _assemble_report(averaged: list[np.ndarray], drift: DriftHamiltonian,
                     method: str, unitaries: np.ndarray) -> AverageReport:
    """The report from the Weyl-string expansions of the averaged terms.

    A term Y on a support of arity t expands as sum_l c_l W_l over the q^t
    strings, c_l = tr(W_l^dag Y) / d^t (one product per arity), code 0 the
    identity: c_0 E is the term's environment shift.  Strings are
    orthogonal with ||W||_F^2 = d^n on the full space, so the residual is
    sqrt(d^n sum_key ||M_key||_F^2), M_key summing c_l E over the strings
    whose non-identity (qudit, symbol) factors are key, that is, over equal
    full-space operators.  Each key is an integer row, qudit * q + symbol
    per non-identity factor, sorted and padded to the widest arity; equal
    rows merge.
    """
    q, d, n, width = len(unitaries), drift.d, drift.n, drift.max_arity
    pad = n * q                        # sorts after every factor
    norms = np.zeros(len(drift.terms))
    env_shift = np.zeros(drift.env_only.size, dtype=complex)
    keys = [np.empty((0, width), dtype=np.intp)]
    values = [np.empty((0, drift.env_only.size), dtype=complex)]
    for t, idx in _terms_by_arity(drift).items():
        table = _support_table(unitaries, np.arange(q**t), q, t, _kron)
        avg = np.stack([averaged[i] for i in idx]).reshape(len(idx), -1)
        coeffs = avg @ table.conj().reshape(q**t, -1).T / d**t
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
                for i in np.argsort(-shares, kind="stable")[:_TOP_STRINGS])
    return AverageReport(d ** (n / 2) * frob(merged),
                         tuple((term.support, float(norm))
                               for term, norm in zip(drift.terms, norms)),
                         method, frob(env_shift), top)


def _check_strength(m, drift: DriftHamiltonian) -> None:
    _, _, declared_t = _array_entries(m)
    if declared_t is not None and declared_t < drift.max_arity:
        warnings.warn(f"array strength {declared_t} is below the drift's "
                      f"maximum term arity {drift.max_arity}; residual will "
                      f"generally not vanish", stacklevel=3)


def bangbang_average(m, drift: DriftHamiltonian) -> AverageReport:
    """First-order average under the bang-bang control action of an array.

    Each term is conjugated by the tensor Weyl unitaries of the array
    columns restricted to the term's support and averaged over columns:
    the histogram kernel over each support's symbol histogram, F = 1.
    """
    entries, q, _ = _array_entries(m)
    field = field_from_order(q)
    d = field.coord_dim()
    if d != drift.d or entries.shape[0] != drift.n:
        raise ValueError("array does not match the drift's qudit layout")
    _check_strength(m, drift)
    unitaries = _symbol_unitaries(field)
    averaged = _exact_averages(entries, drift, field, unitaries, None, None)
    return _assemble_report(averaged, drift, "bangbang", unitaries)


def eulerian_average(m, drift: DriftHamiltonian, delta: float,
                     method: str = "exact",
                     order: int = config.DEFAULT_QUAD_ORDER) -> AverageReport:
    """First-order average under the bounded-strength (Eulerian) action.

    Each term's action Q_C = Pi_G o F_S is computed on its own support;
    the environment factor of every term passes through untouched.
    "exact" counts every distinct support once and runs the histogram
    kernel once per block of terms that share a table key; on a code-built
    Eulerian array every projection of one arity typically uses the same
    codes, so each table is built once.  "quadrature" walks each term's
    projection on its own (see _cycle_action), sharing the walk's tables.
    """
    if order < 1:
        raise ValueError(f"quadrature order {order} must be >= 1")
    entries, q, _ = _array_entries(m)
    field = field_from_order(q)
    d = field.coord_dim()
    if d != drift.d or entries.shape[0] != drift.n:
        raise ValueError("array does not match the drift's qudit layout")
    _check_strength(m, drift)
    unitaries = _symbol_unitaries(field)
    hams = _symbol_hamiltonians(unitaries, delta)
    if method == "exact":
        averaged = _exact_averages(entries, drift, field, unitaries, hams, delta)
    else:
        tables: dict = {}
        averaged = [_cycle_action(term.sys_block, entries[list(term.support)], field,
                                  unitaries, hams, delta, method, order, tables)
                    for term in drift.terms]
    label = "exact" if method == "exact" else f"quadrature({order})"
    return _assemble_report(averaged, drift, label, unitaries)


def single_cycle_average(cycle: EulerianCycle, x: np.ndarray, delta: float,
                         method: str = "exact",
                         order: int = config.DEFAULT_QUAD_ORDER) -> np.ndarray:
    """The control action Q_C of a single-qudit Eulerian cycle.

    The cycle lives over GF(d^2) (one row, k = 1); square pulses realize
    each transition.  By the Eulerian decoupling theorem the result equals
    the plain group average of x.
    """
    if cycle.k != 1:
        raise ValueError("single-qudit average needs a k = 1 cycle")
    field = field_from_order(cycle.q)
    d = field.coord_dim()
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} does not match d = {d}")
    unitaries = _symbol_unitaries(field)
    return _cycle_action(x, cycle.vertices.T, field, unitaries,
                         _symbol_hamiltonians(unitaries, delta), delta, method, order)


def fs_map(d: int, labels, x: np.ndarray, delta: float, method: str = "exact",
           order: int = config.DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Average over generators and the control subinterval (no group walk).

    labels is an iterable of Z_d x Z_d labels; each contributes the
    subinterval average of its square pulse from the identity prefix.
    Composing the group average after this map reproduces a cycle's
    control action.
    """
    x = np.asarray(x, dtype=complex)
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one generator label")
    eye = np.eye(d, dtype=complex)
    acc = np.zeros_like(x)
    for a, b in labels:
        h = generator_hamiltonian(weyl(d, a, b), delta)
        acc += segment_average(x, h, eye, delta, method, order)
    return acc / len(labels)


# ---------------------------------------------------------------------------
# Exact evolution
# ---------------------------------------------------------------------------

def exact_evolution(drift: DriftHamiltonian, sched: Schedule,
                    substeps: int = 1) -> np.ndarray:
    """Propagator over one control cycle, on the full d^n * d_env space.

    Eulerian mode: time-ordered product of exp(-i (H + H_c) dt) with the
    control Hamiltonian constant on each subinterval.  Bang-bang mode:
    toggling-frame product of exp(-i U_j^dag H U_j Delta), which equals
    the lab propagator whenever the first column's unitary is the
    identity (true for every code-built array: column 0 is the zero
    codeword).

    A segment's step depends only on its labels (bang-bang) or on its row of
    sched.index (eulerian; never on the labels, which a schedule read from a
    file need not match), so each distinct row is exponentiated once and the
    steps are multiplied in column order.
    """
    if sched.n != drift.n or sched.d != drift.d:
        raise ValueError("schedule does not match the drift's qudit layout")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    h_total = drift.total_matrix()
    dim = h_total.shape[0]
    d_env = drift.d_env
    dt = sched.delta / substeps
    rows = (sched.labels.reshape(sched.N, -1) if sched.mode == "bangbang"
            else sched.index)
    _, first, column_step = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
    steps = []
    for j in first:
        if sched.mode == "bangbang":
            w = np.eye(1, dtype=complex)
            for k in range(sched.n):
                a, b = sched.labels[j, k]
                w = np.kron(w, weyl(sched.d, int(a), int(b)))
            w_full = np.kron(w, np.eye(d_env))
            h_seg = w_full.conj().T @ h_total @ w_full
        else:
            h_ctrl = np.zeros((drift.d**drift.n,) * 2, dtype=complex)
            for k in range(sched.n):
                h_ctrl += embed(sched.table[sched.index[j, k]], (k,), sched.n, sched.d)
            h_seg = h_total + np.kron(h_ctrl, np.eye(d_env))
        steps.append(_expm_hermitian(h_seg, dt))
    u = np.eye(dim, dtype=complex)
    for s in column_step.ravel():
        for _ in range(substeps):
            u = steps[s] @ u
    return u


# ---------------------------------------------------------------------------
# JSON serialization: schedules, reports, drifts
# ---------------------------------------------------------------------------

def schedule_to_json(sched: Schedule) -> dict:
    """The Hamiltonian table as held, each entry row-major [re, im] pairs;
    each segment its n labels and, in eulerian mode, its n table indices."""
    data = {"n": sched.n, "d": sched.d, "N": sched.N, "delta": sched.delta,
            "mode": sched.mode}
    labels = sched.labels.tolist()
    if sched.mode == "bangbang":
        data["segments"] = [{"labels": row} for row in labels]
        return data
    table = np.ascontiguousarray(sched.table, dtype=np.complex128)
    data["hamiltonians"] = table.view(np.float64).reshape(
        len(table), sched.d**2, 2).tolist()
    data["segments"] = [{"labels": row, "hamiltonians": idx}
                        for row, idx in zip(labels, sched.index.tolist())]
    return data


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
    n, d, N, mode = data["n"], data["d"], data["N"], data["mode"]
    segments = data["segments"]
    labels = _json_array([seg["labels"] for seg in segments], (N, n, 2), "labels")
    table = index = None
    if mode == "eulerian":
        raw = data["hamiltonians"]
        for i, entry in enumerate(raw):
            if len(entry) != d * d:
                raise ValueError(f"schedule Hamiltonian {i} has {len(entry)} "
                                 f"[re, im] pairs, expected {d * d}")
        pairs = _json_array(raw, (len(raw), d * d, 2), "Hamiltonians", np.float64)
        table = pairs.view(np.complex128).reshape(len(raw), d, d)
        index = _json_array([seg["hamiltonians"] for seg in segments], (N, n),
                            "Hamiltonian indices")
    return Schedule(n, d, N, float(data["delta"]), mode, labels, table, index)


def write_schedule(path, sched: Schedule) -> None:
    Path(path).write_text(json.dumps(schedule_to_json(sched)) + "\n")


def read_schedule(path) -> Schedule:
    return schedule_from_json(json.loads(Path(path).read_text()))


def verify_schedule(sched: Schedule) -> float:
    """Largest phase-aligned distance of exp(-i h Delta) from the labeled Weyl.

    Re-verifies an (imported) eulerian schedule: each segment Hamiltonian
    must reproduce its segment unitary up to a global phase.  The distance
    depends on the (table row, label) pair alone, so it is computed once
    per distinct pair, in one batch; the maximum still covers every segment.
    Pairs are encoded in np.intp, so narrow index or label dtypes never wrap.
    """
    if sched.mode != "eulerian":
        raise ValueError("only eulerian schedules carry Hamiltonians to verify")
    d, labels = sched.d, sched.labels
    outside = np.argwhere(((labels < 0) | (labels >= d)).any(axis=-1))
    if len(outside):
        j, k = outside[0]
        raise ValueError(f"segment {j}, qudit {k}: label "
                         f"{tuple(labels[j, k].tolist())} out of range for d = {d}")
    index = sched.index.astype(np.intp)
    pairs = np.unique((index * d + labels[..., 0]) * d + labels[..., 1])
    weyls = np.array([[weyl(d, a, b) for b in range(d)] for a in range(d)])
    dist = aligned_distance(_expm_hermitian(sched.table[pairs // d**2], sched.delta),
                            weyls[pairs // d % d, pairs % d])
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
    n, d, d_env = data["n"], data["d"], data["d_env"]
    terms = []
    for entry in data["terms"]:
        support = tuple(int(k) for k in entry["support"])
        sys_block = matrix_from_pairs(entry["sys"], d ** len(support))
        env_block = matrix_from_pairs(entry["env"], d_env)
        terms.append(DriftTerm(support, sys_block, env_block))
    env_only = matrix_from_pairs(data["env_only"], d_env)
    return DriftHamiltonian(n, d, d_env, tuple(terms), env_only)


def write_drift(path, drift: DriftHamiltonian) -> None:
    Path(path).write_text(json.dumps(drift_to_json(drift), indent=1) + "\n")


def read_drift(path) -> DriftHamiltonian:
    return drift_from_json(json.loads(Path(path).read_text()))
