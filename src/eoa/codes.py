"""Linear codes over GF(q): Hamming family, duals, distances, enumeration.

A code of length n and dimension k is held as an n x k generator matrix G
whose columns span the code, so codewords are c = G m for messages
m in F_q^k.  (Column convention; many references store the k x n
transpose.)  The code file format documents this explicitly.

Codewords are enumerated in lexicographic message order: message index j
has base-q big-endian digits (m_1, ..., m_k), so message 0 is the zero
vector and the resulting column order is fixed end-to-end (it determines
orthogonal-array column order and schedule order downstream).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import config
from .gf import FieldTable, field_from_order


# ---------------------------------------------------------------------------
# Matrix arithmetic over GF(q) via the field tables
# ---------------------------------------------------------------------------

def gf_matmul(a: np.ndarray, b: np.ndarray, field: FieldTable) -> np.ndarray:
    """Product of symbol matrices a (r x s) and b (s x c) over GF(q), as
    uint8 symbols: every sum is a gather from the field's uint8 tables."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.add_table.dtype)
    for i in range(a.shape[1]):
        prod = field.mul_table[a[:, i][:, None], b[i, :][None, :]]
        out = field.add_table[out, prod]
    return out


def rref(mat: np.ndarray, field: FieldTable) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (rref, pivot columns).

    Each pivot column is cleared by one gather over the rows that hold a
    nonzero in it: row i less a[i, c] times the pivot row, from the field
    tables.  The RREF is unique, so the row order of the elimination
    changes nothing.
    """
    a = np.array(mat, dtype=np.int64, copy=True)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = field.mul_table[a[r], field.inv(int(a[r, c]))]
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        factor = field.mul_table[a[hit, c][:, None], a[r]]
        a[hit] = field.add_table[a[hit], field.neg_table[factor]]
        pivots.append(c)
        r += 1
    return a, pivots


def gf_rank(mat: np.ndarray, field: FieldTable) -> int:
    return len(rref(mat, field)[1])


def nullspace(mat: np.ndarray, field: FieldTable) -> np.ndarray:
    """Basis of {x : mat x = 0} as the columns of a (cols x nullity) matrix.

    One basis vector per free column: a 1 in the free coordinate and the
    negated reduced-row entries in the pivot coordinates.  Deterministic.
    """
    a, pivots = rref(np.asarray(mat), field)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
        for row, pc in enumerate(pivots):
            basis[pc, idx] = field.neg(int(a[row, f]))
    return basis


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------

class LinearCode:
    """[n, k]_q code given by an n x k generator matrix of full column rank."""

    def __init__(self, field: FieldTable, gen: np.ndarray):
        gen = np.asarray(gen, dtype=np.int64)
        if gen.ndim != 2:
            raise ValueError("generator must be a 2-d matrix")
        n, k = gen.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        if gen.min() < 0 or gen.max() >= field.q:
            raise ValueError("generator entries must be symbols in [0, q)")
        if gf_rank(gen, field) != k:
            raise ValueError("generator matrix does not have full column rank")
        self.field = field
        self.n = n
        self.k = k
        self.gen = gen
        self.gen.setflags(write=False)

    @property
    def q(self) -> int:
        return self.field.q

    def encode(self, message) -> np.ndarray:
        """Codeword G m for a length-k message vector."""
        m = np.asarray(message, dtype=np.int64)
        if m.shape != (self.k,):
            raise ValueError(f"message must have length {self.k}")
        return gf_matmul(self.gen, m[:, None], self.field)[:, 0]

    def messages(self) -> np.ndarray:
        """All q^k messages as the columns of a k x q^k matrix, lex order."""
        count = self.q**self.k
        if count > config.ENUMERATION_CAP:
            raise ValueError(
                f"q^k = {count} exceeds enumeration cap {config.ENUMERATION_CAP}")
        grid = np.unravel_index(np.arange(count), (self.q,) * self.k)
        return np.array(grid, dtype=np.int64)

    def codewords(self) -> np.ndarray:
        """All codewords G m_j as the columns of an n x q^k uint8 matrix.

        Column j is the codeword of the j-th message in lexicographic
        order; column 0 is the zero codeword.
        """
        return gf_matmul(self.gen, self.messages(), self.field)

    def dual(self) -> "LinearCode":
        """The [n, n-k]_q dual code: nullspace of gen^T under the dot product."""
        basis = nullspace(self.gen.T, self.field)
        if basis.shape[1] == 0:
            raise ValueError("dual of a full-space code is trivial (dimension 0)")
        return LinearCode(self.field, basis)

    def min_distance(self) -> int:
        """Minimum Hamming weight over all nonzero codewords, by enumeration."""
        count = self.q**self.k
        if count > config.ENUMERATION_CAP:
            raise ValueError(
                f"q^k = {count} exceeds enumeration cap; supply the distance externally")
        best = self.n
        batch = 1 << 14
        for start in range(0, count, batch):
            idx = np.arange(start, min(start + batch, count))
            msgs = np.array(np.unravel_index(idx, (self.q,) * self.k), dtype=np.int64)
            words = gf_matmul(self.gen, msgs, self.field)
            weights = np.count_nonzero(words, axis=0)
            nz = weights[idx != 0] if start == 0 else weights
            if nz.size:
                best = min(best, int(nz.min()))
        return best

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}]_{self.q})"


def hamming_code(field: FieldTable, m: int) -> LinearCode:
    """The [(q^m-1)/(q-1), n-m, 3]_q Hamming code.

    The parity-check columns are the projective points of F_q^m, one
    representative per point normalized so its first nonzero entry is 1,
    listed in lexicographic order; the generator is the nullspace basis.
    """
    if m < 2:
        raise ValueError("need m >= 2 (m = 1 degenerates to length 1)")
    q = field.q
    n = (q**m - 1) // (q - 1)
    if n > config.CODE_LENGTH_CAP:
        raise ValueError(f"code length {n} exceeds cap {config.CODE_LENGTH_CAP}")
    cols = []
    for j in range(q**m):
        vec = [(j // q ** (m - 1 - i)) % q for i in range(m)]
        first = next((v for v in vec if v != 0), 0)
        if first == 1:
            cols.append(vec)
    check = np.array(cols, dtype=np.int64).T   # m x n
    assert check.shape == (m, n)
    gen = nullspace(check, field)
    return LinearCode(field, gen)


# ---------------------------------------------------------------------------
# Code file format: line 1 "CODE q n k", then n rows of k decimal symbols
# (the generator matrix; codewords are G m).
# ---------------------------------------------------------------------------

def write_code(path, code: LinearCode) -> None:
    lines = [f"CODE {code.q} {code.n} {code.k}"]
    for row in code.gen:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_code(path) -> LinearCode:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("CODE"):
        raise ValueError(f"{path}: not a CODE file")
    head = lines[0].split()
    try:                        # a wrong field count fails the unpacking
        q, n, k = (int(x) for x in head[1:])
    except ValueError:
        raise ValueError(f"{path}: malformed CODE header") from None
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} generator rows, got {len(lines) - 1}")
    try:
        gen = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{path}: generator: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if gen.shape != (n, k):
        raise ValueError(f"{path}: generator shape {gen.shape} != ({n}, {k})")
    try:
        return LinearCode(field_from_order(q), gen)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
