import itertools

import numpy as np
import pytest

from eoa.gf import FieldSpec, FieldTable, field_from_order, gf_new, is_prime


def all_fields_up_to_16():
    return [gf_new(2, 1), gf_new(3, 1), gf_new(5, 1), gf_new(7, 1),
            gf_new(11, 1), gf_new(13, 1), gf_new(2, 2), gf_new(2, 3),
            gf_new(2, 4), gf_new(3, 2)]


def test_gf4_basics():
    f = gf_new(2, 2)
    assert f.q == 4
    assert f.spec.modulus == (1, 1, 1)  # x^2 + x + 1
    # w is the element of index 2 (the polynomial x); w*w = w + 1
    assert f.mul(2, 2) == 3
    assert f.inv(2) == 3
    # characteristic 2: x + x = 0 for all x
    for x in range(4):
        assert f.add(x, x) == 0


def test_gf2_add_is_xor():
    f = gf_new(2, 1)
    for a in range(2):
        for b in range(2):
            assert f.add(a, b) == a ^ b


def test_gf3_negation():
    f = gf_new(3, 1)
    assert f.neg(1) == 2
    assert f.neg(0) == 0


def test_identities():
    for f in all_fields_up_to_16():
        for a in range(f.q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_inverse_of_zero_raises():
    f = gf_new(2, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_axioms_exhaustive():
    """Full associativity/commutativity/distributivity check for q <= 16."""
    for f in all_fields_up_to_16():
        q = f.q
        elems = range(q)
        for a, b in itertools.product(elems, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in elems:
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1


def test_coords_gf4_values():
    f = gf_new(2, 2)
    assert f.coords(0) == (0, 0)
    assert f.coords(1) == (1, 0)
    assert f.coords(2) == (0, 1)   # w
    assert f.coords(3) == (1, 1)   # w + 1


@pytest.mark.parametrize("p", [2, 3])
def test_coords_bijective_additive_homomorphism(p):
    f = gf_new(p, 2)
    d = p
    seen = set()
    for e in range(f.q):
        seen.add(f.coords(e))
    assert len(seen) == f.q
    for x in range(f.q):
        for y in range(f.q):
            ax, bx = f.coords(x)
            ay, by = f.coords(y)
            assert f.coords(f.add(x, y)) == ((ax + ay) % d, (bx + by) % d)


def test_coords_rejects_non_square_and_nonprime_d():
    with pytest.raises(ValueError):
        gf_new(2, 3).coords(1)     # q = 8 not a square
    with pytest.raises(ValueError):
        gf_new(2, 4).coords(1)     # q = 16, d = 4 not prime


def test_gf_new_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gf_new(4, 1)   # not prime
    with pytest.raises(ValueError):
        gf_new(2, 9)   # 512 over the order cap


def test_spec_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))     # wrong degree


def test_gf_new_deterministic():
    a, b = gf_new(2, 3), FieldTable(FieldSpec(2, 3, gf_new(2, 3).spec.modulus))
    assert a.spec == b.spec
    assert np.array_equal(a.add_table, b.add_table)
    assert np.array_equal(a.mul_table, b.mul_table)


def test_field_from_order():
    f = field_from_order(9)
    assert (f.p, f.m) == (3, 2)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_field_order_cap_comes_before_factoring():
    """The prime order 2^31 - 1 is refused by the cap at once, before a
    trial division that would try every p up to it."""
    with pytest.raises(ValueError, match="^field order 2147483647 exceeds cap 256$"):
        field_from_order(2**31 - 1)


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (5, 2)])
def test_one_read_only_field_per_order(p, m):
    """Every call for one order returns the one table gf_new built, and
    callers that share it cannot write its arithmetic tables."""
    field = gf_new(p, m)
    assert field is field_from_order(p**m) is gf_new(p, m)
    for table in (field.add_table, field.mul_table, field.neg_table, field.inv_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(15):
        assert is_prime(n) == (n in primes)
