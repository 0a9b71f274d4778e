"""Exact table-based arithmetic in GF(p^m).

Field elements are plain integers in [0, q) with q = p^m.  The base-p
digits of an element's index, least significant first, are the coefficients
of its polynomial representation: index sum(c_i * p^i) stands for the
polynomial sum(c_i * x^i) modulo the field's irreducible modulus.

The modulus is fixed per (p, m) -- the monic irreducible polynomial of
degree m whose non-leading coefficient vector encodes to the smallest
integer -- so symbol encodings are reproducible across runs and files.
For GF(4) this is x^2 + x + 1 and for GF(9) it is x^2 + 1.

In characteristic 2 the digits are bits, so addition and subtraction are
both bitwise XOR of the indices (`FieldTable.xor_add`).

Symbols are serialized everywhere as decimal indices 0..q-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import config


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in range(2, int(n**0.5) + 1):
        if n % f == 0:
            return False
    return True


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    """Remainder of a modulo a monic polynomial, coefficients ascending."""
    a = list(a)
    deg_m = len(modulus) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg_m + 1):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * modulus[j]) % p
    return [c % p for c in a[:deg_m]] + [0] * max(0, deg_m - len(a))


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            div = [(t // p**i) % p for i in range(d)] + [1]
            if not any(_poly_mod(modulus, div, p)):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of GF(p^m): prime p, degree m, monic irreducible modulus.

    The modulus is a coefficient tuple in ascending order of length m + 1.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        if len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not 0 <= c < self.p for c in self.modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not _is_irreducible(list(self.modulus), self.p):
            raise ValueError(f"modulus {self.modulus} is reducible over GF({self.p})")


class FieldTable:
    """Complete arithmetic tables for GF(p^m), immutable after construction.

    Attributes
    ----------
    spec : FieldSpec
    p, m, q : int
        Characteristic, degree, and order q = p^m.
    add_table, mul_table : (q, q) uint8 arrays
    neg_table, inv_table : (q,) uint8 arrays
        inv_table[0] is unused (0 has no inverse).  Every symbol fits a
        byte (q <= FIELD_ORDER_CAP = 256), so every gather from a table is
        a uint8 symbol array.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.m = spec.m
        self.q = spec.p**spec.m
        if self.q > config.FIELD_ORDER_CAP:
            raise ValueError(f"field order {self.q} exceeds cap {config.FIELD_ORDER_CAP}")
        self._build_tables()

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        digits = np.array([[(e // p**i) % p for i in range(m)] for e in range(q)])
        weights = p ** np.arange(m)

        summed = (digits[:, None, :] + digits[None, :, :]) % p
        self.add_table = (summed @ weights).astype(np.uint8)
        self.neg_table = (((-digits) % p) @ weights).astype(np.uint8)

        modulus = list(self.spec.modulus)
        self.mul_table = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            pa = [int(c) for c in digits[a]]
            for b in range(a, q):
                pb = [int(c) for c in digits[b]]
                rem = _poly_mod(_poly_mul(pa, pb, p), modulus, p)
                val = sum(c * p**i for i, c in enumerate(rem))
                self.mul_table[a, b] = val
                self.mul_table[b, a] = val

        self.inv_table = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            hits = np.nonzero(self.mul_table[a] == 1)[0]
            if hits.size == 0:
                raise ValueError("element without inverse; modulus not irreducible")
            self.inv_table[a] = hits[0]

        self.add_table.setflags(write=False)
        self.mul_table.setflags(write=False)
        self.neg_table.setflags(write=False)
        self.inv_table.setflags(write=False)

    @property
    def xor_add(self) -> bool:
        """Whether add_table[a, b] == a ^ b and neg_table is the identity:
        in characteristic 2, where a symbol's bits are its coefficients."""
        return self.p == 2

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def coords(self, elem: int) -> tuple[int, int]:
        """Coordinates of elem in the basis {1, xi}, xi the element of index p.

        Requires q = d^2 with d = p^{m/2} prime; the map is then an
        isomorphism from the additive group of GF(d^2) onto Z_d x Z_d.
        (For prime-power d the additive group is not Z_d x Z_d, so the
        labeling is refused.)
        """
        d = self.coord_dim()
        return elem % d, elem // d

    def coord_dim(self) -> int:
        """The d with q = d^2, checked prime; errors otherwise."""
        if self.m % 2 != 0:
            raise ValueError(f"q = {self.q} is not a square; no Z_d x Z_d coordinates")
        d = self.p ** (self.m // 2)
        if not is_prime(d):
            raise ValueError(f"d = {d} is not prime; additive group is not Z_d x Z_d")
        return d

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.m}), modulus={self.spec.modulus})"


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m with smallest integer-encoded coefficients."""
    if m == 1:
        return (0, 1)
    for t in range(p**m):
        mod = [(t // p**i) % p for i in range(m)] + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise AssertionError("no irreducible polynomial found")  # impossible


@functools.cache
def gf_new(p: int, m: int) -> FieldTable:
    """GF(p^m) with the canonical fixed modulus, built once per (p, m): every
    later call returns the same table, whose arrays are read-only."""
    return FieldTable(FieldSpec(p, m, _canonical_modulus(p, m)))


def field_from_order(q: int) -> FieldTable:
    """Factor q = p^m (p prime) and return the canonical field of that order,
    the one shared table gf_new holds for it."""
    if q < 2:
        raise ValueError(f"no field of order {q}")
    p = 2
    while q % p != 0:
        p += 1
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return gf_new(p, m)
