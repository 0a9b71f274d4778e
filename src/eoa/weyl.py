"""Shift/clock matrices, the projective Weyl representation of Z_d x Z_d,
group averaging, and tensor embedding of few-body operators.

All matrices are dense complex128 numpy arrays.  Products of Weyl
operators carry phases that are never normalized away; every downstream
formula conjugates (U^dag X U), which is phase-blind, so unitaries are
only ever compared modulo a global phase.
"""

from __future__ import annotations

import numpy as np

from . import config
from .gf import FieldTable


# ---------------------------------------------------------------------------
# Matrix predicates (Frobenius norm, tolerance scaled by dimension)
# ---------------------------------------------------------------------------

def frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def is_unitary(u: np.ndarray, eps: float = config.EPS_MAT) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    dim = u.shape[0]
    return frob(u.conj().T @ u - np.eye(dim)) <= eps * dim


def is_hermitian(h: np.ndarray, eps: float = config.EPS_MAT) -> bool:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    return frob(h - h.conj().T) <= eps * h.shape[0]


def is_traceless(x: np.ndarray, eps: float = config.EPS_MAT) -> bool:
    x = np.asarray(x)
    return abs(np.trace(x)) <= eps * x.shape[0]


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between unitaries minimized over a global phase."""
    dim = u.shape[0]
    overlap = abs(np.trace(u.conj().T @ v))
    return float(np.sqrt(max(0.0, 2 * dim - 2 * overlap)))


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """||u - phase * v||_F with the phase chosen from their overlap.

    Unlike phase_distance this is linear in the deviation, so it resolves
    agreement all the way down to roundoff (phase_distance saturates at
    sqrt(2 dim epsilon)); use it when asserting near-exact phase equality.
    Stacks of matrices broadcast and give an array of distances.
    """
    u, v = np.asarray(u), np.asarray(v)
    overlap = np.einsum("...ab,...ab->...", v.conj(), u)     # tr(v^dag u)
    size = np.abs(overlap)
    phase = np.where(size < 1e-300, 1, overlap / np.maximum(size, 1e-300))
    dist = np.linalg.norm(u - phase[..., None, None] * v, axis=(-2, -1))
    return float(dist) if dist.ndim == 0 else dist


# ---------------------------------------------------------------------------
# Debug serialization: row-major [re, im] pairs
# ---------------------------------------------------------------------------

def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_from_pairs(pairs, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.size != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Representation
# ---------------------------------------------------------------------------

def shift_clock(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic shift S = sum_k |k><k+1| and clock T = diag(omega^k).

    omega = exp(2 pi i / d).  For d = 2 these are sigma_x and sigma_z, and
    the products S^a T^b run through the Paulis up to phase.
    """
    if d < 2:
        raise ValueError("need dimension d >= 2")
    s = np.zeros((d, d), dtype=complex)
    for k in range(d):
        s[k, (k + 1) % d] = 1.0
    omega = np.exp(2j * np.pi / d)
    t = np.diag(omega ** np.arange(d))
    return s, t


def weyl(d: int, a: int, b: int) -> np.ndarray:
    """The Weyl unitary S^a T^b for the label (a, b) in Z_d x Z_d."""
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"label ({a}, {b}) out of range for d = {d}")
    s, t = shift_clock(d)
    return np.linalg.matrix_power(s, a) @ np.linalg.matrix_power(t, b)


def weyl_from_field(field: FieldTable, elem: int) -> np.ndarray:
    """Control unitary for a field symbol: weyl at the Z_d x Z_d coordinates."""
    d = field.coord_dim()
    a, b = field.coords(elem)
    return weyl(d, a, b)


def group_average(d: int, x: np.ndarray) -> np.ndarray:
    """(1/d^2) sum over all labels of U^dag X U.

    The representation is irreducible, so this equals tr(X)/d times the
    identity; the direct sum is computed here and the trace formula serves
    as the test oracle.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} does not match d = {d}")
    acc = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            u = weyl(d, a, b)
            acc += u.conj().T @ x @ u
    return acc / d**2


def embed(x: np.ndarray, support: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Embed an operator on (C^d)^{x t} into n factors, identity elsewhere.

    support lists the 0-based factor positions, strictly increasing.
    Implemented by permuting tensor axes of x kron identity, not by
    expanding in an operator basis.
    """
    x = np.asarray(x, dtype=complex)
    t = len(support)
    if sorted(set(support)) != list(support):
        raise ValueError("support must be strictly increasing")
    if any(not 0 <= k < n for k in support):
        raise ValueError(f"support {support} out of range for n = {n}")
    if x.shape != (d**t, d**t):
        raise ValueError(f"operator shape {x.shape} != ({d**t}, {d**t})")
    if t == n:
        return x.copy()
    full = np.kron(x, np.eye(d ** (n - t), dtype=complex))
    order = list(support) + [k for k in range(n) if k not in support]
    inv = np.argsort(order)
    tensor = full.reshape((d,) * (2 * n))
    perm = list(inv) + [n + i for i in inv]
    return tensor.transpose(perm).reshape(d**n, d**n)
