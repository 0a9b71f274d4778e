import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoa.cli import _code_distances
from eoa.codes import (LinearCode, gf_matmul, gf_rank, hamming_code, nullspace,
                       read_code, rref, write_code)
from eoa.gf import gf_new

F4 = gf_new(2, 2)
F2 = gf_new(2, 1)


def rref_oracle(mat, field):
    """The row loop that rref replaced: each pivot clears the other rows
    one at a time."""
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
        for i in range(rows):
            if i != r and a[i, c] != 0:
                factor = field.mul_table[a[i, c], a[r]]
                a[i] = field.add_table[a[i], field.neg_table[factor]]
        pivots.append(c)
        r += 1
    return a, pivots


def identity_code(field, n):
    return LinearCode(field, np.eye(n, dtype=np.int64))


def test_rref_and_rank():
    mat = np.array([[1, 0], [2, 3], [0, 1]])
    r, pivots = rref(mat, F4)
    assert pivots == [0, 1]
    assert gf_rank(mat, F4) == 2
    # col1 = w * col0 makes this rank 1
    assert gf_rank(np.array([[1, 2], [2, 3], [0, 0]]), F4) == 1
    ns = nullspace(mat.T, F4)
    assert ns.shape == (3, 1)
    assert not gf_matmul(mat.T, ns, F4).any()


# GF(2, 3, 4, 5, 7, 8, 9, 16, 25) as (p, m)
_RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2)]


@settings(max_examples=150, deadline=None)
@given(pm=st.sampled_from(_RREF_FIELDS), rows=st.integers(1, 9),
       cols=st.integers(1, 9), rank=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_rref_equals_row_loop(pm, rows, cols, rank, seed):
    """The one gather per pivot column gives the row loop's matrix and
    pivots bit for bit, on tall, wide and square matrices: uniformly random
    ones when rank >= min(rows, cols), else products of a rows x rank and a
    rank x cols matrix (rank deficient; rank 0 is the zero matrix)."""
    field = gf_new(*pm)
    rng = np.random.default_rng(seed)
    deficient = rank < min(rows, cols)
    if not deficient:
        mat = rng.integers(0, field.q, size=(rows, cols))
    else:
        mat = gf_matmul(rng.integers(0, field.q, size=(rows, rank)),
                        rng.integers(0, field.q, size=(rank, cols)), field)
    got, pivots = rref(mat, field)
    want, want_pivots = rref_oracle(mat, field)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert pivots == want_pivots
    assert len(pivots) <= (rank if deficient else min(rows, cols))


def test_generator_rank_enforced():
    with pytest.raises(ValueError):
        LinearCode(F4, np.array([[1, 2], [2, 3], [3, 1]]))  # col2 = w * col1


def test_hamming_gf4_m2_parameters():
    code = hamming_code(F4, 2)
    assert (code.n, code.k) == (5, 3)
    assert code.min_distance() == 3


def test_hamming_gf2_m3_is_7_4_3():
    code = hamming_code(F2, 3)
    assert (code.n, code.k) == (7, 4)
    assert code.min_distance() == 3


def test_dual_of_hamming_gf4_m2():
    dual = hamming_code(F4, 2).dual()
    assert (dual.n, dual.k) == (5, 2)
    words = dual.codewords()
    assert words.shape == (5, 16)
    weights = np.count_nonzero(words, axis=0)
    assert set(weights[1:].tolist()) == {4}
    assert dual.min_distance() == 4


def test_dual_pairing_is_zero():
    code = hamming_code(F4, 2)
    dual = code.dual()
    products = gf_matmul(dual.gen.T, code.gen, F4)  # all dot products
    assert not products.any()


def test_bidual_has_same_codeword_set():
    code = hamming_code(F4, 2).dual()      # [5,2]_4
    bidual = code.dual().dual()
    a = {tuple(c) for c in code.codewords().T.tolist()}
    b = {tuple(c) for c in bidual.codewords().T.tolist()}
    assert a == b


def test_dual_dimension_and_full_space_rejected():
    code = hamming_code(F2, 3)
    assert code.dual().k == code.n - code.k
    with pytest.raises(ValueError):
        identity_code(F4, 3).dual()


def test_min_distance_identity_generator():
    assert identity_code(F4, 4).min_distance() == 1


def test_singleton_bound():
    for code in [hamming_code(F4, 2), hamming_code(F4, 2).dual(),
                 hamming_code(F2, 3), hamming_code(F2, 3).dual(),
                 identity_code(F4, 3)]:
        assert code.min_distance() <= code.n - code.k + 1


def test_codewords_first_is_zero_and_closed_under_addition():
    code = hamming_code(F4, 2).dual()
    words = code.codewords()
    assert not words[:, 0].any()
    word_set = {tuple(c) for c in words.T.tolist()}
    rng = np.random.default_rng(7)
    for _ in range(50):
        i, j = rng.integers(0, words.shape[1], size=2)
        summed = F4.add_table[words[:, i], words[:, j]]
        assert tuple(summed.tolist()) in word_set


def test_codeword_set_is_generator_closure():
    # the enumerated codeword set equals the additive closure of the
    # generator columns, for every desk-scale code here
    for code in [hamming_code(F4, 2).dual(), hamming_code(F2, 3)]:
        words = {tuple(c) for c in code.codewords().T.tolist()}
        closure = {(0,) * code.n}
        frontier = [(0,) * code.n]
        gens = [tuple(code.gen[:, j]) for j in range(code.k)]
        scaled = []
        for g in gens:
            for s in range(1, code.q):
                scaled.append(tuple(F4.mul_table[s, list(g)]
                                    if code.q == 4 else
                                    code.field.mul_table[s, list(g)]))
        while frontier:
            cur = frontier.pop()
            for g in scaled:
                nxt = tuple(code.field.add_table[list(cur), list(g)])
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        assert closure == words


def test_encode_linearity_and_identity():
    code = hamming_code(F4, 2).dual()
    assert not code.encode([0, 0]).any()
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1 = rng.integers(0, 4, size=2)
        m2 = rng.integers(0, 4, size=2)
        msum = F4.add_table[m1, m2]
        lhs = code.encode(msum)
        rhs = F4.add_table[code.encode(m1), code.encode(m2)]
        assert np.array_equal(lhs, rhs)
    ident = identity_code(F4, 3)
    assert np.array_equal(ident.encode([1, 2, 3]), [1, 2, 3])


def test_encode_rejects_wrong_length():
    with pytest.raises(ValueError):
        hamming_code(F4, 2).encode([1, 2, 3, 0, 0])


def test_code_distances_hamming_gf4():
    code = hamming_code(F4, 2)
    assert (code.n, code.k) == (5, 3)
    assert _code_distances(code) == (3, 4)
    assert _code_distances(code.dual()) == (4, 3)


def test_code_file_roundtrip(tmp_path):
    code = hamming_code(F4, 2).dual()
    path = tmp_path / "dual.txt"
    write_code(path, code)
    back = read_code(path)
    assert back.q == 4 and (back.n, back.k) == (5, 2)
    assert np.array_equal(back.gen, code.gen)
    # byte-identical rewrite
    write_code(tmp_path / "again.txt", back)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_read_code_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("OA 4 5 2\n")
    with pytest.raises(ValueError):
        read_code(bad)
    bad.write_text("CODE 4 2 1\n0\n")
    with pytest.raises(ValueError):
        read_code(bad)


@pytest.mark.parametrize("text, message", [
    ("CODE 4 2 1\n1\nx\n", "invalid literal for int() with base 10: 'x'"),
    ("CODE 4 2 1\n1\n7\n", "generator entries must be symbols in [0, q)"),
    ("CODE 4 x 1\n1\n1\n", "malformed CODE header")])
def test_read_code_names_the_file(tmp_path, text, message):
    """A bad generator token, a symbol outside [0, q) or a non-integer
    header field is refused with the file's name."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        read_code(path)
