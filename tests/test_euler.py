import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoa.codes import LinearCode, gf_matmul, hamming_code
from eoa.decoupling import _pair_bins, eulerian_average, random_drift
from eoa.euler import (EulerianCertificate, EulerianOA, EulerianViolation,
                       _vector_add_table, euler_cycle_full, eulerian_oa_from_code,
                       read_eulerian_oa, verify_eulerian, write_eulerian_oa)
from eoa.gf import field_from_order, gf_new
from eoa.oa import (CertificateError, OrthogonalArray, StrengthViolation, _judge_counts,
                    oa_from_code, read_oa_file, subset_histograms, verify_strength)

from test_counting import pair_digits

F2 = gf_new(2, 1)
F4 = gf_new(2, 2)


@pytest.fixture(scope="module")
def cycle42():
    return euler_cycle_full(F4, 2)


@pytest.fixture(scope="module")
def eoa256(cycle42):
    return eulerian_oa_from_code(hamming_code(F4, 2).dual(), cycle42, 2)


def encode_vertices(cycle):
    weights = cycle.q ** np.arange(cycle.k - 1, -1, -1)
    return cycle.vertices @ weights


def test_smallest_cycle_is_0011():
    cyc = euler_cycle_full(F2, 1)
    assert cyc.vertices[:, 0].tolist() == [0, 0, 1, 1]


def test_cycle_length_and_start(cycle42):
    assert cycle42.length == 256
    assert cycle42.vertices[0].tolist() == [0, 0]
    assert cycle42.multiplicity == 1


def test_cycle_edge_cover(cycle42):
    """Every vertex q^k times; every (vertex, generator) pair exactly once."""
    enc = encode_vertices(cycle42)
    counts = np.bincount(enc, minlength=16)
    assert np.all(counts == 16)
    nxt = np.roll(cycle42.vertices, -1, axis=0)
    diff = F4.add_table[nxt, F4.neg_table[cycle42.vertices]]
    denc = diff @ (4 ** np.arange(1, -1, -1))
    pairs = set(zip(enc.tolist(), denc.tolist()))
    assert len(pairs) == 256
    # consecutive differences realize each generator q^k times
    assert np.all(np.bincount(denc, minlength=16) == 16)


def test_cycle_deterministic():
    a = euler_cycle_full(F4, 2)
    b = euler_cycle_full(F4, 2)
    assert np.array_equal(a.vertices, b.vertices)


def hierholzer_oracle(field, k):
    """The vertex codes of euler_cycle_full's Hierholzer loop as it indexed
    numpy arrays scalar by scalar, before the loop ran on Python lists."""
    n_vertices = field.q**k
    vadd = _vector_add_table(field, k)
    next_gen = np.zeros(n_vertices, dtype=np.int64)
    stack = [0]
    trail = []
    while stack:
        v = stack[-1]
        if next_gen[v] < n_vertices:
            s = int(next_gen[v])
            next_gen[v] += 1
            stack.append(int(vadd[v, s]))
        else:
            trail.append(stack.pop())
    trail.reverse()
    return np.array(trail[:-1], dtype=np.int64)


@pytest.mark.parametrize("q, k", [(4, 1), (4, 2), (4, 3), (4, 4), (9, 1), (9, 2)])
def test_cycle_equals_numpy_indexed_hierholzer(q, k):
    """The list-based walk gives the numpy-indexed walk's trail exactly."""
    field = field_from_order(q)
    assert np.array_equal(encode_vertices(euler_cycle_full(field, k)),
                          hierholzer_oracle(field, k))


def test_cycle_cap():
    with pytest.raises(ValueError):
        euler_cycle_full(gf_new(2, 4), 3)   # 16^6 > 2^20


def test_eoa256_parameters(eoa256):
    assert (eoa256.oa.N, eoa256.oa.n, eoa256.oa.q) == (256, 5, 4)
    assert eoa256.t == 2
    assert eoa256.edge_multiplicity == 1
    assert eoa256.oa.lam == 16
    assert verify_strength(eoa256.entries, 4, 2) == 16
    # strength monotonicity on the constructed array
    assert verify_strength(eoa256.entries, 4, 1) == 64


def test_eoa256_column_multiplicities(eoa256):
    _, counts = np.unique(eoa256.entries.T, axis=0, return_counts=True)
    assert np.all(counts == 16)   # each codeword appears exactly q^k times


def test_eoa256_gensets_full_group(eoa256):
    assert len(eoa256.gensets) == 10
    for rows, gens in eoa256.gensets.items():
        assert len(gens) == 16
        assert len(set(gens)) == 16


def test_eoa_deterministic(eoa256, cycle42):
    again = eulerian_oa_from_code(hamming_code(F4, 2).dual(), cycle42, 2)
    assert np.array_equal(again.entries, eoa256.entries)


def test_plain_oa_is_not_eulerian():
    oa16 = oa_from_code(hamming_code(F4, 2).dual(), 3)
    result = verify_eulerian(oa16.entries, F4, 2)
    assert isinstance(result, EulerianViolation)


def test_column_shuffle_destroys_euler_keeps_strength(eoa256):
    rng = np.random.default_rng(5)
    shuffled = eoa256.entries[:, rng.permutation(256)]
    assert verify_strength(shuffled, 4, 2) == 16
    assert isinstance(verify_eulerian(shuffled, F4, 2), EulerianViolation)


def test_single_row_projection_is_eulerian(eoa256):
    """Each row alone is an Eulerian cycle sequence for its induced set."""
    for k in range(5):
        result = verify_eulerian(eoa256.entries[k:k + 1], F4, 1)
        assert isinstance(result, EulerianCertificate)


def pair_histogram(entries, rows, field):
    """(q^t, q^t) (vertex, transition) histogram of one row subset, read
    off the shared pair digits the way the verifier and the averaging
    kernel count them."""
    q, t = field.q, len(rows)
    hist, = subset_histograms(pair_digits(entries, field), q * q, [rows])
    return hist[_pair_bins(q, t)]


def test_pair_counts_match_column_walk(eoa256):
    """The shared histogram against a direct per-column count."""
    rng = np.random.default_rng(3)
    sub = eoa256.entries[:, rng.permutation(256)[:40]]
    counts = pair_histogram(sub, (1, 4), F4)
    expected = np.zeros((16, 16), dtype=np.int64)
    for j in range(sub.shape[1]):
        v, nxt = sub[[1, 4], j], sub[[1, 4], (j + 1) % sub.shape[1]]
        s = F4.add_table[nxt, F4.neg_table[v]]
        expected[v[0] * 4 + v[1], s[0] * 4 + s[1]] += 1
    assert np.array_equal(counts, expected)
    assert np.all(pair_histogram(eoa256.entries, (1, 4), F4) == 1)


def test_pair_counts_cap():
    """A (vertex, transition) histogram of more than EULER_EDGE_CAP bins is
    refused by the verifier and by exact averaging (9^8 > cap)."""
    entries = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="exceeds cap"):
        verify_eulerian(entries, gf_new(3, 2), 4)
    with pytest.raises(ValueError, match="exceeds cap"):
        eulerian_average((entries, 9), random_drift(4, 3, 4, 1, seed=0), 0.1)


def test_non_generating_transitions_fail_pair_count():
    """A walk confined to the coset of a proper subgroup misses vertices:
    the verifier's strength judge on the vertex marginal reports it first,
    exactly as verify_strength does, and the pair-count judge alone rejects
    it too: uniform counts imply generation."""
    entries = np.array([[0, 1, 0, 1]])                          # S = {1}
    result = verify_eulerian(entries, F4, 1)
    assert result == verify_strength(entries, 4, 1)
    assert result == StrengthViolation((0,), (0,), 2, 1.0)
    counts = subset_histograms(pair_digits(entries, F4), 16, [(0,)])
    used = counts.reshape(1, 4, 4).sum(axis=1) > 0
    assert _judge_counts(counts, used, 4)[1] == 0


def test_lambda_mismatch_message_names_both_lambdas():
    """Two uniform rows at different edge multiplicities: the violation
    keeps vertex and transition None, and its message says that every used
    pair occurs at the second row's lambda against the first row's."""
    result = verify_eulerian(np.array([[0, 0, 1, 1], [0, 1, 0, 1]]), F2, 1)
    assert result == EulerianViolation((1,), "pair-count", None, None, 2, 1)
    assert str(result) == ("rows (1,): every used (vertex, transition) pair "
                           "occurs 2 times, against 1 in the first subset")
    pair = verify_eulerian(np.array([[0, 0, 1, 1, 0, 1]]), F2, 1)
    assert str(pair) == ("rows (0,): (vertex (0,), transition (1,)) occurs 2 "
                         "times, expected 1.5")


def test_toy_row_at_t1():
    cyc = euler_cycle_full(F2, 1)
    result = verify_eulerian(cyc.vertices.T, F2, 1)
    assert isinstance(result, EulerianCertificate)
    assert result.edge_multiplicity == 1
    assert result.gensets[(0,)] == ((0,), (1,))


def test_cycle_code_mismatch_rejected(cycle42):
    with pytest.raises(ValueError) as info:
        eulerian_oa_from_code(hamming_code(F2, 3).dual(), cycle42, 2)
    assert not isinstance(info.value, CertificateError)


def test_eulerian_oa_from_code_certificate_error(cycle42):
    """Strength 3 of the strength-2 [5, 2]_4 code fails the certificate; a
    strength out of range is a plain ValueError."""
    code = hamming_code(F4, 2).dual()
    with pytest.raises(CertificateError, match="strength-3 verification failed"):
        eulerian_oa_from_code(code, cycle42, 3)
    with pytest.raises(ValueError, match="out of range") as info:
        eulerian_oa_from_code(code, cycle42, 6)
    assert not isinstance(info.value, CertificateError)


def test_full_space_code_gives_full_factorial_eoa():
    code = LinearCode(F4, np.eye(2, dtype=np.int64))
    eoa = eulerian_oa_from_code(code, euler_cycle_full(F4, 2), 2)
    assert (eoa.oa.N, eoa.oa.n, eoa.oa.lam) == (256, 2, 16)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("k", [1, 2])
def test_gathered_construction_equals_matmul(p, m, k):
    """Column j gathered from codewords() by the base-q index of m_j is the
    product G m_j, and the array is C-contiguous."""
    field = gf_new(p, m)
    q = field.q
    if k == 1:
        code, t = LinearCode(field, np.array([[1], [q - 1], [1]])), 1
    else:
        code, t = hamming_code(field, 2).dual(), 2
    cycle = euler_cycle_full(field, k)
    eoa = eulerian_oa_from_code(code, cycle, t)
    assert np.array_equal(eoa.entries, gf_matmul(code.gen, cycle.vertices.T, field))
    assert eoa.entries.flags["C_CONTIGUOUS"]


def test_eoa_file_roundtrip(tmp_path, eoa256):
    path = tmp_path / "eoa256.txt"
    write_eulerian_oa(path, eoa256)
    back = read_eulerian_oa(path)
    assert np.array_equal(back.entries, eoa256.entries)
    assert back.edge_multiplicity == 1
    write_eulerian_oa(tmp_path / "again.txt", back)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from([F2, gf_new(3, 1), F4]), t_oa=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_eoa_file_roundtrip_is_exact(field, t_oa, seed):
    """write_eulerian_oa then read_eulerian_oa (which re-verifies) gives back
    the entries, header, trailer and certificate of random Eulerian arrays:
    a constructed one with its rows permuted and subset, its columns rotated
    and each row shifted by a field element.  The header may claim strength
    1 under an Euler trailer of strength 2."""
    rng = np.random.default_rng(seed)
    base = eulerian_oa_from_code(hamming_code(field, 2).dual(),
                                 euler_cycle_full(field, 2), 2).entries
    q, N = field.q, base.shape[1]
    rows = rng.permutation(base.shape[0])[:int(rng.integers(2, base.shape[0] + 1))]
    shifts = rng.integers(0, q, size=(len(rows), 1))
    entries = field.add_table[np.roll(base[rows], int(rng.integers(N)), axis=1), shifts]
    cert = verify_eulerian(entries, field, 2)
    assert isinstance(cert, EulerianCertificate)
    eoa = EulerianOA(OrthogonalArray(q, len(rows), N, t_oa, N // q**t_oa,
                                     entries), 2, cert.edge_multiplicity, cert.gensets)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eoa.txt"
        write_eulerian_oa(path, eoa)
        _, header, trailer = read_oa_file(path)
        back = read_eulerian_oa(path)
        write_eulerian_oa(Path(tmp) / "again.txt", back)
        assert (Path(tmp) / "again.txt").read_bytes() == path.read_bytes()
    lam = N // q**t_oa
    assert np.array_equal(back.entries, entries)
    assert header == (N, len(rows), q, t_oa, lam)
    assert (back.oa.q, back.oa.n, back.oa.N, back.oa.t, back.oa.lam) == (
        q, len(rows), N, t_oa, lam)
    assert trailer == (back.t, back.edge_multiplicity) == (2, cert.edge_multiplicity)
    assert back.gensets == cert.gensets


def test_read_eoa_requires_trailer(tmp_path, eoa256):
    path = tmp_path / "eoa256.txt"
    write_eulerian_oa(path, eoa256)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing EULER trailer"):
        read_eulerian_oa(path)
    path.write_text("\n".join(lines[:-1] + ["EULER 2"]) + "\n")
    with pytest.raises(ValueError, match="malformed EULER trailer"):
        read_eulerian_oa(path)


def test_read_eoa_rejects_shuffled_columns(tmp_path, eoa256):
    rng = np.random.default_rng(5)
    shuffled = eoa256.entries[:, rng.permutation(256)]
    lines = [f"OA 256 5 4 2 16"]
    lines += [" ".join(str(int(v)) for v in row) for row in shuffled]
    lines.append("EULER 2 1")
    path = tmp_path / "shuffled.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_eulerian_oa(path)
