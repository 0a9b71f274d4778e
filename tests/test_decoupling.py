import gc
import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eoa import config
from eoa import decoupling as decoupling_module, oa as oa_module
from eoa.codes import LinearCode, hamming_code
from eoa.decoupling import (_apply_pulse_filter, _apply_quadrature, _averages,
                            _kron, _kron_sum, _pairing, _pulse_eigensystem,
                            _quadrature_propagators, _quadrature_walk,
                            _string_pairing, _support_table, _symbol_hamiltonians,
                            _symbol_unitaries, _walk_tables, _weyl_expansion,
                            report_to_json)
from eoa.decoupling import (AverageReport, DriftHamiltonian, DriftTerm, Schedule,
                            bangbang_average, bangbang_schedule, drift_from_json,
                            drift_to_json, euler_schedule, eulerian_average,
                            exact_evolution, fs_map, generator_hamiltonian,
                            random_drift, read_drift, read_schedule,
                            single_cycle_average, verify_schedule, write_drift,
                            write_schedule)
from eoa.euler import (EulerianCycle, _check_pair_cap, euler_cycle_full,
                       eulerian_oa_from_code, transitions)
from eoa.gf import field_from_order, gf_new
from eoa.oa import OrthogonalArray, oa_from_code
from eoa.weyl import (aligned_distance, embed, frob, group_average,
                      is_hermitian, phase_distance, weyl, weyl_from_field)

F4 = gf_new(2, 2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture(scope="module")
def oa16():
    return oa_from_code(hamming_code(F4, 2).dual(), 3)


@pytest.fixture(scope="module")
def eoa256():
    return eulerian_oa_from_code(hamming_code(F4, 2).dual(),
                                 euler_cycle_full(F4, 2), 2)


@pytest.fixture(scope="module")
def drift5():
    return random_drift(5, 2, 2, 2, seed=7)


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def expm_herm(h, t):
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


# ---------------------------------------------------------------------------
# generator_hamiltonian
# ---------------------------------------------------------------------------

def test_generator_hamiltonian_identity():
    h = generator_hamiltonian(np.eye(3, dtype=complex), 0.1)
    assert frob(h) < 1e-14


def test_generator_hamiltonian_sigma_x():
    h = generator_hamiltonian(SX, 1.0)
    assert is_hermitian(h)
    eigs = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(eigs, [-np.pi, 0.0], atol=1e-12)
    assert aligned_distance(expm_herm(h, 1.0), SX) < 1e-12


def test_generator_hamiltonian_bounded_and_commutes():
    for d in [2, 3]:
        for a in range(d):
            for b in range(d):
                u = weyl(d, a, b)
                h = generator_hamiltonian(u, 0.1)
                assert np.linalg.norm(h, 2) <= np.pi / 0.1 + 1e-9
                assert frob(h @ u - u @ h) < 1e-12
                assert aligned_distance(expm_herm(h, 0.1), u) < 1e-12


def test_generator_hamiltonian_rejects_non_unitary():
    with pytest.raises(ValueError):
        generator_hamiltonian(np.ones((2, 2)), 0.1)


def schur_generator(u, delta):
    """The principal logarithm on scipy's complex Schur basis: the route
    generator_hamiltonian took before its eig + QR basis."""
    tri, vec = scipy.linalg.schur(u, output="complex")
    h = (vec * (-np.angle(np.diag(tri)) / delta)) @ vec.conj().T
    return (h + h.conj().T) / 2


def _random_unitaries():
    """Seeded Haar-like unitaries, and one with the degenerate spectrum
    (1, 1, i, i) in a random basis, where eig's eigenvectors of one
    eigenvalue need not be orthogonal."""
    rng = np.random.default_rng(16)
    us = [np.linalg.qr(random_complex(rng, dim))[0] for dim in (2, 3, 4, 6, 8)]
    return us + [us[2] @ np.diag([1, 1, 1j, 1j]) @ us[2].conj().T]


@pytest.mark.parametrize("u", [
    *(weyl(d, a, b) for d in (2, 3, 5, 7) for a in range(d) for b in range(d)),
    *_random_unitaries(),
    np.eye(4, dtype=complex), -np.eye(4, dtype=complex),
    np.kron(weyl(2, 1, 0), np.eye(2)),
])
@pytest.mark.parametrize("delta", [0.1, 1.0])
def test_generator_hamiltonian_equals_schur_oracle(u, delta):
    """The eig + QR logarithm equals the Schur one on every Weyl operator of
    d = 2, 3, 5, 7, on random unitaries and on degenerate spectra (I, -I,
    X (x) I, and (1, 1, i, i) in a random basis), on the same branch; its
    Pade exponential returns u itself (not only up to a phase) and
    ||h|| <= pi/delta."""
    h = generator_hamiltonian(u, delta)
    assert frob(h - schur_generator(u, delta)) <= 1e-12
    assert frob(scipy.linalg.expm(-1j * h * delta) - u) <= 1e-12
    assert np.linalg.norm(h, 2) <= np.pi / delta * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_bangbang_schedule_identity_column():
    sched = bangbang_schedule((np.zeros((3, 1), dtype=np.int64), 4), 0.1)
    assert sched.N == 1 and sched.mode == "bangbang"
    assert not sched.labels.any()


def test_bangbang_schedule_oa16(oa16):
    sched = bangbang_schedule(oa16, 0.1)
    assert (sched.N, sched.n, sched.d) == (16, 5, 2)
    assert sched.cycle_time == pytest.approx(1.6)
    # segment j holds the column-j labels
    a, b = F4.coords(int(oa16.entries[2, 5]))
    assert sched.labels[5, 2].tolist() == [a, b]


def test_euler_schedule_parameters(eoa256):
    sched = euler_schedule(eoa256, 0.1)
    assert (sched.N, sched.n, sched.mode) == (256, 5, "eulerian")
    hams = sched.table[sched.index]
    norms = np.linalg.norm(hams.reshape(-1, 2, 2), ord=2, axis=(1, 2))
    assert norms.max() <= np.pi / 0.1 + 1e-9
    assert verify_schedule(sched) < 1e-12


def test_euler_schedule_segment_hamiltonians_follow_transitions(eoa256):
    """The one-step fill against a per-segment loop over the transitions."""
    sched = euler_schedule(eoa256, 0.1)
    by_symbol = [generator_hamiltonian(weyl(2, *F4.coords(e)), 0.1) for e in range(4)]
    for k in range(5):
        for j in range(256):
            s = F4.add_table[eoa256.entries[k, (j + 1) % 256],
                             F4.neg_table[eoa256.entries[k, j]]]
            assert np.array_equal(sched.table[sched.index[j, k]], by_symbol[s])


@pytest.mark.parametrize("q", [4, 9])
def test_euler_schedule_table_index_equals_symbol_gather(q):
    """The schedule holds the q symbol Hamiltonians labelled by the symbols'
    coordinates and a uint8 transition index; its table gather equals the
    dense symbol gather bit for bit and its labels are the transitions'
    coordinates."""
    field = field_from_order(q)
    entries = np.random.default_rng(q).integers(0, q, size=(6, 40))
    sched = euler_schedule((entries, q), 0.1)
    diff = transitions(entries, field)
    dense = _symbol_hamiltonians(_symbol_unitaries(field), 0.1)[diff.T]
    coords = np.array([field.coords(e) for e in range(q)])
    assert sched.index.dtype == np.uint8 and sched.table.shape[0] == q
    assert np.array_equal(sched.index, diff.T)
    assert np.array_equal(sched.row_labels, coords)
    assert np.array_equal(sched.table[sched.index].view(np.uint64),
                          dense.view(np.uint64))
    assert np.array_equal(sched.labels, coords[diff.T])


def test_euler_schedule_constant_row_gives_zero_controls():
    entries = np.array([[2, 2, 2, 2], [0, 1, 2, 3]], dtype=np.int64)
    sched = euler_schedule((entries, 4), 0.1)
    assert not sched.labels[:, 0].any()
    assert frob(sched.table[sched.index[:, 0]].reshape(-1)) < 1e-14


def test_euler_schedule_telescopes_to_bangbang(eoa256):
    """Cumulative segment products hit the array's Weyls up to phase."""
    sched = euler_schedule(eoa256, 0.1)
    for k in range(5):
        v = np.eye(2, dtype=complex)
        for j in range(256):
            a, b = F4.coords(int(eoa256.entries[k, j]))
            assert aligned_distance(v, weyl(2, a, b)) < 1e-10
            v = expm_herm(sched.table[sched.index[j, k]], 0.1) @ v


# ---------------------------------------------------------------------------
# The segment average (1/Delta) int_0^Delta (u v)^dag x (u v), u = exp(-i h .):
# v^dag F_h(x) v by the closed-form filter, or by quadrature
# ---------------------------------------------------------------------------

def exact_segment(x, h, v, delta):
    return v.conj().T @ _apply_pulse_filter(x, _pulse_eigensystem(h, delta)) @ v


def test_segment_average_zero_control():
    rng = np.random.default_rng(0)
    x = random_complex(rng, 3)
    v = np.linalg.qr(random_complex(rng, 3))[0]
    zero = np.zeros((3, 3))
    quad = _apply_quadrature(x, _quadrature_propagators(zero, 0.3, 24), v)
    for out in (exact_segment(x, zero, v, 0.3), quad):
        assert frob(out - v.conj().T @ x @ v) < 1e-13


def test_segment_average_commuting_fixed_point():
    x = np.diag([1.0, 2.0, 3.0]).astype(complex)
    h = np.diag([0.5, -1.0, 2.0]).astype(complex)
    assert frob(_apply_pulse_filter(x, _pulse_eigensystem(h, 0.7)) - x) < 1e-13


def test_segment_average_exact_matches_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = random_complex(rng, 4)
        h = random_complex(rng, 4)
        h = (h + h.conj().T) / 2
        v = np.linalg.qr(random_complex(rng, 4))[0]
        quad = _apply_quadrature(x, _quadrature_propagators(h, 0.2, 24), v)
        assert frob(exact_segment(x, h, v, 0.2) - quad) < 1e-12


def test_averages_reject_unknown_method(eoa256, drift5):
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        single_cycle_average(euler_cycle_full(F4, 1), SZ, 0.1, method="magic")
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        eulerian_average(eoa256, drift5, 0.1, method="magic")


def quadrature_oracle(x, h, v, delta, order):
    """The inline Gauss-Legendre loop _apply_quadrature replaced: node
    propagators recomputed for every operator, by the same eigen-exponential
    as the library, so the comparison is bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    acc = np.zeros_like(x)
    for node, weight in zip(nodes, weights):
        u = expm_herm(h, (node + 1) * delta / 2)
        uv = u @ v
        acc += weight * (uv.conj().T @ x @ uv)
    return acc / 2


@pytest.mark.parametrize("dim, order", [(2, 1), (3, 7), (4, 24)])
def test_segment_average_quadrature_equals_inline_loop(dim, order):
    """Splitting off the operator-independent node propagators changes no bit."""
    rng = np.random.default_rng(dim * 100 + order)
    for delta in (0.05, 0.2, 1.3):
        x = random_complex(rng, dim)
        h = random_hermitian(rng, dim)
        v = np.linalg.qr(random_complex(rng, dim))[0]
        assert np.array_equal(
            _apply_quadrature(x, _quadrature_propagators(h, delta, order), v),
            quadrature_oracle(x, h, v, delta, order))


@pytest.mark.parametrize("q, arity", [(4, 1), (4, 2), (9, 1), (9, 2)])
def test_quadrature_exponentials_equal_pade(q, arity):
    """The walk tables' node propagators (one (q^t, D, D) stack per
    Gauss-Legendre node, over every transition code) and steps, all
    eigen-exponentials, equal scipy's Pade expm on the Kronecker sums of
    control Hamiltonians, so the cross-check does not rest on the
    eigendecomposition alone; so do the node propagators of
    _quadrature_propagators for one Hamiltonian."""
    field = field_from_order(q)
    hams = _symbol_hamiltonians(_symbol_unitaries(field), 0.1)
    order = config.DEFAULT_QUAD_ORDER
    h = _support_table(hams, np.arange(q**arity), q, arity, _kron_sum)
    weights, props, steps = _walk_tables(h, 0.1, order)
    nodes, leg_weights = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(weights, leg_weights)
    assert len(h) == len(steps) == q**arity and len(props) == len(nodes)
    assert all(stack.shape == h.shape for stack in props)
    for s, (hs, step) in enumerate(zip(h, steps)):
        assert frob(step - scipy.linalg.expm(-1j * 0.1 * hs)) <= 1e-12
        single = _quadrature_propagators(hs, 0.1, order)[1]
        for node, stack, u in zip(nodes, props, single):
            tau = (node + 1) * 0.1 / 2
            pade = scipy.linalg.expm(-1j * tau * hs)
            assert frob(stack[s] - pade) <= 1e-12
            assert frob(u - pade) <= 1e-12


# ---------------------------------------------------------------------------
# bang-bang averaging (decoupling with OAs)
# ---------------------------------------------------------------------------

def test_bangbang_average_kills_two_body(oa16, drift5):
    report = bangbang_average(oa16, drift5)
    assert report.residual_norm <= 1e-10
    assert report.env_shift_norm <= 1e-12
    assert len(report.per_term_norms) == 20   # 10 system + 10 coupling terms


def test_bangbang_average_matches_group_average_oracle(oa16):
    """Independent oracle: averaging over all of G^{x2} term by term."""
    drift = random_drift(5, 2, 2, 1, seed=3)
    term = drift.terms[0]
    # direct sum over the full product group
    acc = np.zeros((4, 4), dtype=complex)
    for e1 in range(4):
        for e2 in range(4):
            u = np.kron(weyl(2, *F4.coords(e1)), weyl(2, *F4.coords(e2)))
            acc += u.conj().T @ term.sys_block @ u
    assert frob(acc / 16) < 1e-13   # = Pi_{G^2}(traceless) = 0
    report = bangbang_average(oa16, drift)
    assert report.residual_norm <= 1e-10


def test_bangbang_three_body_survives(oa16):
    drift = random_drift(5, 2, 3, 1, seed=7)
    with pytest.warns(UserWarning):
        report = bangbang_average(oa16, drift)
    assert report.residual_norm > 1e-3


def test_bangbang_env_only_passthrough(oa16):
    env = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
    drift = DriftHamiltonian(5, 2, 2, (), env)
    report = bangbang_average(oa16, drift)
    assert report.residual_norm == 0.0
    assert report.env_shift_norm == 0.0


def test_bangbang_average_strength1_kills_one_body():
    code = LinearCode(F4, np.eye(1, dtype=np.int64))
    oa = oa_from_code(code, 2)
    drift = random_drift(1, 2, 1, 1, seed=5)
    report = bangbang_average(oa, drift)
    assert report.residual_norm <= 1e-10


def test_bangbang_layout_mismatch(oa16):
    with pytest.raises(ValueError):
        bangbang_average(oa16, random_drift(4, 2, 2, 1, seed=1))


# ---------------------------------------------------------------------------
# Eulerian averaging (decoupling with Eulerian OAs)
# ---------------------------------------------------------------------------

def test_eulerian_average_kills_two_body(eoa256, drift5):
    report = eulerian_average(eoa256, drift5, delta=0.1, method="exact")
    assert report.residual_norm <= 1e-9
    assert report.env_shift_norm <= 1e-12
    assert report.method == "exact"


def test_eulerian_average_delta_independent(eoa256, drift5):
    r1 = eulerian_average(eoa256, drift5, delta=0.1)
    r2 = eulerian_average(eoa256, drift5, delta=0.01)
    assert abs(r1.residual_norm - r2.residual_norm) <= 1e-9


def test_eulerian_average_single_qubit_one_body():
    code = LinearCode(F4, np.eye(1, dtype=np.int64))
    eoa = eulerian_oa_from_code(code, euler_cycle_full(F4, 1), 1)
    drift = DriftHamiltonian(1, 2, 1, (DriftTerm((0,), SZ, np.eye(1, dtype=complex)),),
                             np.zeros((1, 1)))
    report = eulerian_average(eoa, drift, delta=0.1)
    assert report.residual_norm <= 1e-12


def test_eulerian_negative_control_column_shuffle(eoa256, drift5):
    """Shuffling columns keeps the plain OA property but breaks Eulerian
    averaging -- isolating exactly what the cycle structure buys."""
    rng = np.random.default_rng(5)
    shuffled = OrthogonalArray(4, 5, 256, 2, 16,
                               eoa256.entries[:, rng.permutation(256)].copy())
    rep_euler = eulerian_average(shuffled, drift5, delta=0.1)
    assert rep_euler.residual_norm > 1e-3
    rep_bang = bangbang_average(shuffled, drift5)
    assert rep_bang.residual_norm <= 1e-10


def test_eulerian_quadrature_backend_agrees(eoa256, drift5):
    exact = eulerian_average(eoa256, drift5, delta=0.1, method="exact")
    quad = eulerian_average(eoa256, drift5, delta=0.1, method="quadrature", order=24)
    assert quad.method == "quadrature(24)"
    assert abs(exact.residual_norm - quad.residual_norm) <= 1e-10
    for (sup_a, norm_a), (sup_b, norm_b) in zip(exact.per_term_norms,
                                                quad.per_term_norms):
        assert sup_a == sup_b
        assert abs(norm_a - norm_b) <= 1e-10


def test_backend_agreement_per_segment(eoa256):
    """Exact vs quadrature(24) on every segment of a 5-qubit run."""
    rng = np.random.default_rng(9)
    x = random_complex(rng, 4)
    sched = euler_schedule(eoa256, 0.1)
    hams = sched.table[sched.index]
    support = (1, 3)
    v1 = np.eye(2, dtype=complex)
    v2 = np.eye(2, dtype=complex)
    for j in range(256):
        h = (embed(hams[j, support[0]], (0,), 2, 2)
             + embed(hams[j, support[1]], (1,), 2, 2))
        v = np.kron(v1, v2)
        quad = _apply_quadrature(x, _quadrature_propagators(h, 0.1, 24), v)
        assert frob(exact_segment(x, h, v, 0.1) - quad) <= 1e-10
        v1 = expm_herm(hams[j, support[0]], 0.1) @ v1
        v2 = expm_herm(hams[j, support[1]], 0.1) @ v2


# ---------------------------------------------------------------------------
# Character sums: the pairing and exact survival
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 9])
def test_pairing_is_the_weyl_commutation_phase(q):
    """W_v^dag W_l W_v = omega^k[v, l] W_l for every pair of symbols, with the
    Weyl operators built by weyl() from the field coordinates, and the
    two-qudit string pairing is the same relation on Kronecker strings."""
    field = field_from_order(q)
    d = field.coord_dim()
    k = _pairing(_symbol_unitaries(field))
    omega = np.exp(2j * np.pi / d)
    ws = [weyl(d, *field.coords(e)) for e in range(q)]
    assert k.shape == (q, q) and k.min() >= 0 and k.max() == d - 1
    for v, l in itertools.product(range(q), repeat=2):
        assert frob(ws[v].conj().T @ ws[l] @ ws[v] - omega ** k[v, l] * ws[l]) <= 1e-12
    strings = _support_table(np.array(ws), np.arange(q * q), q, 2, _kron)
    k2 = _string_pairing(k, 2, d)
    for v, l in itertools.product(range(q * q), repeat=2):
        conj = strings[v].conj().T @ strings[l] @ strings[v]
        assert frob(conj - omega ** k2[v, l] * strings[l]) <= 1e-12


def test_pairing_rejects_unitaries_outside_an_abelian_projective_group():
    """A symbol unitary that does not commute with the others up to a d-th
    root of unity has no pairing: the Hadamard gate among the Paulis."""
    unitaries = _symbol_unitaries(F4)
    unitaries[1] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(AssertionError):
        _pairing(unitaries)


@pytest.mark.parametrize("q, m", [(4, 2), (4, 3), (9, 2)])
def test_code_built_arrays_average_to_exact_zero(q, m):
    """On a code-built array of strength 2 every Weyl string of a 2-body
    drift has equal integer buckets, so both actions give a residual and
    per-term norms of exactly 0.0.  At n = 21 the negative controls still
    fail: a 3-body drift under bang-bang, and the column shuffle under the
    Eulerian action."""
    field = field_from_order(q)
    code = hamming_code(field, m).dual()
    oa = oa_from_code(code, 3)
    eoa = eulerian_oa_from_code(code, euler_cycle_full(field, m), 2)
    n, d = oa.entries.shape[0], field.coord_dim()
    drift = random_drift(n, d, 2, 2, seed=1)
    for report in (bangbang_average(oa, drift), eulerian_average(eoa, drift, 0.1)):
        assert report.residual_norm == 0.0
        assert all(norm == 0.0 for _, norm in report.per_term_norms)
        assert report.top_strings == ()
    if n == 21:
        with pytest.warns(UserWarning):
            three_body = bangbang_average(oa, random_drift(n, d, 3, 2, seed=1))
        assert three_body.residual_norm > 1e-3
        N = eoa.entries.shape[1]
        shuffled = eoa.entries[:, np.random.default_rng(5).permutation(N)]
        assert eulerian_average((shuffled, q), drift, 0.1).residual_norm > 1e-3


# ---------------------------------------------------------------------------
# Theorem-1 scale: single-qudit cycles, F_S decomposition
# ---------------------------------------------------------------------------

def test_single_cycle_average_identity():
    cyc = euler_cycle_full(F4, 1)
    out = single_cycle_average(cyc, np.eye(2, dtype=complex), 0.1)
    assert frob(out - np.eye(2)) < 1e-12


def test_single_cycle_average_equals_group_average_qubit():
    cyc = euler_cycle_full(F4, 1)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = random_complex(rng, 2)
        x -= np.trace(x) / 2 * np.eye(2)
        assert frob(single_cycle_average(cyc, x, 0.1)) < 1e-10


def test_single_cycle_average_qutrit_trace_formula():
    cyc = euler_cycle_full(gf_new(3, 2), 1)
    assert cyc.length == 81
    rng = np.random.default_rng(22)
    x = random_complex(rng, 3)
    out = single_cycle_average(cyc, x, 0.1)
    assert frob(out - np.trace(x) / 3 * np.eye(3)) < 1e-10


def test_fs_map_identity_and_trivial_set():
    rng = np.random.default_rng(23)
    x = random_complex(rng, 2)
    assert frob(fs_map(2, [(0, 0)], x, 0.1) - x) < 1e-13
    out = fs_map(2, [(a, b) for a in range(2) for b in range(2)],
                 np.eye(2, dtype=complex), 0.1)
    assert frob(out - np.eye(2)) < 1e-12


def test_fs_map_equals_per_label_filters():
    """The one stacked filter over the labels equals the per-label loop it
    replaced, the closed-form filter of each label summed in label order,
    bit for bit: on all GF(9) labels and on three of them."""
    field = field_from_order(9)
    labels = [field.coords(e) for e in range(9)]
    x = random_complex(np.random.default_rng(28), 3)
    for subset in (labels, labels[1:4]):
        acc = np.zeros_like(x)
        for a, b in subset:
            h = generator_hamiltonian(weyl(3, a, b), 0.1)
            acc += _apply_pulse_filter(x, _pulse_eigensystem(h, 0.1))
        assert np.array_equal(fs_map(3, subset, x, 0.1), acc / len(subset))


def test_cycle_action_decomposes_through_fs():
    """Pi_G o F_S against the histogram kernel and the time-ordered walk."""
    cyc = euler_cycle_full(F4, 1)
    labels = [F4.coords(e) for e in range(4)]
    rng = np.random.default_rng(24)
    for _ in range(5):
        x = random_complex(rng, 2)
        rhs = group_average(2, fs_map(2, labels, x, 0.1))
        for method in ("exact", "quadrature"):
            lhs = single_cycle_average(cyc, x, 0.1, method=method)
            assert frob(lhs - rhs) < 1e-10


def test_single_cycle_average_any_start_vertex():
    """The kernel's vertex is g_j - g_0, so a rotated cycle matches its walk."""
    cyc = euler_cycle_full(gf_new(3, 2), 1)
    rotated = EulerianCycle(cyc.q, cyc.k, np.roll(cyc.vertices, -7, axis=0).copy(), 1)
    assert rotated.vertices[0, 0] != 0
    x = random_complex(np.random.default_rng(25), 3)
    exact = single_cycle_average(rotated, x, 0.1, method="exact")
    walk = single_cycle_average(rotated, x, 0.1, method="quadrature")
    assert frob(exact - walk) < config.TOL_BACKEND_AGREEMENT
    assert frob(exact - np.trace(x) / 3 * np.eye(3)) < 1e-10


@st.composite
def small_arrays(draw):
    """(entries, q, d_env, arity, seed): random symbols over GF(4) or GF(9),
    or a seeded column order of an Eulerian array (so g_0 != 0 in general)."""
    q = draw(st.sampled_from([4, 9]))
    n = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        entries = rng.integers(0, q, size=(n, draw(st.integers(1, 12))))
    else:
        field = field_from_order(q)
        eoa = eulerian_oa_from_code(LinearCode(field, np.eye(1, dtype=np.int64)),
                                    euler_cycle_full(field, 1), 1)
        base = np.tile(eoa.entries, (n, 1))
        cols = (rng.permutation(base.shape[1]) if draw(st.booleans())
                else np.roll(np.arange(base.shape[1]), -draw(st.integers(1, q * q - 1))))
        entries = base[:, cols]
    return (entries.astype(np.int64), q, draw(st.sampled_from([1, 2])),
            draw(st.integers(1, 2)), seed)


def walk_tables(hams, q, t, delta, order):
    """The walk tables of a t-qudit support, on the support Hamiltonians
    that `_averages` stacks once per arity."""
    return _walk_tables(_support_table(hams, np.arange(q**t), q, t, _kron_sum),
                        delta, order)


def walk_oracle(x, sub, field, hams, delta, order):
    """The quadrature walk before its x-independent operators were shared
    across terms: each distinct transition's filter from quadrature_oracle
    and its step from a fresh eigen-exponential, on every call."""
    x = np.asarray(x, dtype=complex)
    q, (t, N) = field.q, sub.shape
    codes = q ** np.arange(t - 1, -1, -1) @ transitions(sub, field)
    used_s, column_s = np.unique(codes, return_inverse=True)
    h = _support_table(hams, used_s, q, t, _kron_sum)
    eye = np.eye(h.shape[-1], dtype=complex)
    filtered = [quadrature_oracle(x, hs, eye, delta, order) for hs in h]
    steps = [expm_herm(hs, delta) for hs in h]
    prefix, acc = eye, np.zeros_like(eye)
    for s in column_s:
        acc += prefix.conj().T @ filtered[s] @ prefix
        prefix = steps[s] @ prefix
    return acc / N


def weyl_coefficients(x, unitaries):
    """tr(W_l^dag x) / d^t over the q^t Weyl strings of x's t qudits, code 0
    the identity, one trace per string."""
    q, d = len(unitaries), unitaries.shape[-1]
    t = round(np.log(x.shape[-1]) / np.log(d))
    table = _support_table(unitaries, np.arange(q**t), q, t, _kron)
    return np.einsum("lab,ab->l", table.conj(), x) / d**t


def coefficient_distance(coeffs, x, unitaries):
    """||sum_l coeffs_l W_l - x||_F by Parseval: d^(t/2) times the distance
    of coeffs from x's Weyl coefficients, so a tolerance on it is the
    tolerance on the matrices."""
    return np.sqrt(x.shape[-1]) * frob(coeffs - weyl_coefficients(x, unitaries))


@settings(max_examples=25, deadline=None)
@given(small_arrays())
def test_histogram_kernel_equals_walk_per_term(case):
    """Exact averaging (character sums over the pair histograms) equals the
    quadrature backend (time-ordered walk with expm prefixes) term by term.

    Each term's coefficients are compared with the walk's Weyl expansion
    string by string: a kernel that took the vertex g_j instead of
    g_j - g_0 puts the phase omega^k(g_0, l) on every string, which no norm
    in the report can see.  A one-support kernel call gives the batched
    call's coefficients bit for bit.  The walk on the arity's shared tables
    equals the walk that recomputed its propagators per term bit for bit."""
    entries, q, d_env, arity, seed = case
    field = field_from_order(q)
    drift = random_drift(entries.shape[0], field.coord_dim(), arity, d_env, seed)
    unitaries = _symbol_unitaries(field)
    hams = _symbol_hamiltonians(unitaries, 0.1)
    tol = config.TOL_BACKEND_AGREEMENT
    order = config.DEFAULT_QUAD_ORDER
    batched = _averages(entries, [term.support for term in drift.terms],
                        [term.sys_block for term in drift.terms], field, unitaries, 0.1)
    tables = walk_tables(hams, q, arity, 0.1, order)
    for term, block in zip(drift.terms, batched):
        sub = entries[list(term.support)]
        exact, = _averages(entries, [term.support], [term.sys_block], field,
                           unitaries, 0.1)
        assert np.array_equal(exact, block)
        walk, = _quadrature_walk(term.sys_block[None], sub, field, tables)
        assert coefficient_distance(exact, walk, unitaries) <= tol
        assert np.array_equal(walk, walk_oracle(term.sys_block, sub, field, hams,
                                                0.1, order))
    exact = eulerian_average((entries, q), drift, delta=0.1, method="exact")
    walk = eulerian_average((entries, q), drift, delta=0.1, method="quadrature")
    assert abs(exact.residual_norm - walk.residual_norm) <= tol
    assert abs(exact.env_shift_norm - walk.env_shift_norm) <= tol
    for (sup_a, norm_a), (sup_b, norm_b) in zip(exact.per_term_norms,
                                                walk.per_term_norms):
        assert sup_a == sup_b
        assert abs(norm_a - norm_b) <= tol


@pytest.mark.parametrize("order", [5, config.DEFAULT_QUAD_ORDER])
def test_single_cycle_quadrature_unchanged_on_gf9(order):
    """The GF(9) cycle's walk, on each qutrit Weyl operator and a random
    operator, equals the walk that recomputed every node propagator: the
    single-cycle average rebuilds sum_l a_l W_l from the oracle walk's
    expanded coefficients bit for bit."""
    field = field_from_order(9)
    cyc = euler_cycle_full(field, 1)
    unitaries = _symbol_unitaries(field)
    hams = _symbol_hamiltonians(unitaries, 0.1)
    expand = _weyl_expansion(unitaries, 1)
    ops = [weyl(3, a, b) for a in range(3) for b in range(3)]
    ops.append(random_complex(np.random.default_rng(27), 3))
    for x in ops:
        walk = walk_oracle(x, cyc.vertices.T, field, hams, 0.1, order)
        assert np.array_equal(
            single_cycle_average(cyc, x, 0.1, method="quadrature", order=order),
            np.tensordot(walk.reshape(-1) @ expand, unitaries, axes=1))


@pytest.mark.parametrize("block_entries", [1, 200, None])
def test_stacked_walk_equals_single_operator_walks(eoa256, block_entries):
    """One walk over the stack of a support's operators gives each
    operator's own walk, and walk_oracle's, bit for bit: all 20 terms of the
    [5, 2]_4 drift stacked per support, and a stack of six random operators.
    Column blocks of one column, of a few columns (six for a pair of terms,
    two for the stack of six, with a shorter last block), and the default
    (one block for N = 256) give the same bits."""
    field = field_from_order(4)
    hams = _symbol_hamiltonians(_symbol_unitaries(field), 0.1)
    order = config.DEFAULT_QUAD_ORDER
    drift = random_drift(5, 2, 2, 2, seed=1)
    by_support = {}
    for term in drift.terms:
        by_support.setdefault(term.support, []).append(term.sys_block)
    rng = np.random.default_rng(29)
    with pytest.MonkeyPatch.context() as mp:
        if block_entries is not None:
            mp.setattr(decoupling_module, "_BLOCK_ENTRIES", block_entries)
        tables = walk_tables(hams, 4, 2, 0.1, order)
        for support, xs in by_support.items():
            sub = eoa256.entries[list(support)]
            stacked = _quadrature_walk(np.stack(xs), sub, field, tables)
            assert stacked.shape == (len(xs), 4, 4)
            for x, walk in zip(xs, stacked):
                assert np.array_equal(walk, _quadrature_walk(x[None], sub, field,
                                                             tables)[0])
                assert np.array_equal(walk, walk_oracle(x, sub, field, hams, 0.1, order))
        sub = eoa256.entries[[1, 3]]
        ops = np.array([random_complex(rng, 4) for _ in range(6)])
        stacked = _quadrature_walk(ops, sub, field, tables)
        assert stacked.shape == ops.shape
        for x, walk in zip(ops, stacked):
            assert np.array_equal(walk, walk_oracle(x, sub, field, hams, 0.1, order))


@pytest.mark.parametrize("delta, method", [(None, "exact"), (0.1, "exact"),
                                           (0.1, "quadrature")],
                         ids=["bangbang", "exact", "quadrature"])
def test_averages_keep_input_order(delta, method):
    """Terms of one support that are not adjacent in the input, among terms
    of the other arity, are grouped together, and each comes back at its
    own place: in each action of _averages every term's coefficients equal
    those of the term averaged alone bit for bit, and a quadrature term's
    equal the Weyl expansion of its own oracle walk."""
    field = field_from_order(9)
    unitaries = _symbol_unitaries(field)
    hams = _symbol_hamiltonians(unitaries, 0.1)
    order = 5
    rng = np.random.default_rng(31)
    entries = rng.integers(0, 9, size=(3, 11))
    supports = [(0, 1), (2,), (1, 2), (0, 1), (0,), (2,), (1, 2), (0, 1)]
    blocks = [random_hermitian(rng, 3 ** len(support)) for support in supports]
    averaged = _averages(entries, supports, blocks, field, unitaries, delta, method,
                         order)
    assert len(averaged) == len(supports)
    for support, x, coeffs in zip(supports, blocks, averaged):
        alone, = _averages(entries, [support], [x], field, unitaries, delta, method,
                           order)
        assert np.array_equal(coeffs, alone)
        if method == "quadrature":
            walk = walk_oracle(x, entries[list(support)], field, hams, 0.1, order)
            expand = _weyl_expansion(unitaries, len(support))
            assert np.array_equal(coeffs, walk.reshape(-1) @ expand)


@pytest.mark.parametrize("array, message", [
    ((np.array([[0, 1, 2, -1], [0, 1, 2, 3]]), 4), r"span \[-1, 3\], outside \[0, 4\)"),
    ((np.array([[0, 1, 2, 4], [0, 1, 2, 3]]), 4), r"span \[0, 4\], outside \[0, 4\)"),
    ((np.zeros((2, 4)), 4), "not a 2-D integer array"),
    ((np.zeros(4, dtype=np.int64), 4), "not a 2-D integer array"),
    (OrthogonalArray(4, 2, 4, 1, 1, np.array([[0, 1, 2, -1], [0, 1, 2, 3]])),
     r"span \[-1, 3\], outside \[0, 4\)"),
], ids=["negative", "q", "float", "1-D", "constructed"])
def test_raw_entries_are_range_checked(array, message):
    """A raw (entries, q) pair or a constructed array whose symbols leave
    [0, q), or whose entries are not a 2-D integer array, is refused with
    one ValueError line by both averages and both schedules, before
    anything is counted or indexed."""
    drift = random_drift(2, 2, 1, 1, seed=0)
    consumers = [lambda m: bangbang_average(m, drift),
                 lambda m: eulerian_average(m, drift, 0.1),
                 lambda m: bangbang_schedule(m, 0.1),
                 lambda m: euler_schedule(m, 0.1)]
    for consume in consumers:
        with pytest.raises(ValueError, match=message) as info:
            consume(array)
        assert len(str(info.value).splitlines()) == 1


def test_single_cycle_kernel_matches_walk_off_identity():
    """Matrix-level check on a vertex sequence that is not a full cycle and
    does not start at 0, where Q_C is not the plain group average."""
    symbols = np.array([[3, 1, 1, 2, 0, 2, 3]])
    cyc = EulerianCycle(4, 1, symbols.T.copy(), 1)
    x = random_complex(np.random.default_rng(26), 2)
    exact = single_cycle_average(cyc, x, 0.1, method="exact")
    walk = single_cycle_average(cyc, x, 0.1, method="quadrature")
    assert frob(exact - walk) < config.TOL_BACKEND_AGREEMENT
    assert frob(exact - group_average(2, x)) > 1e-3


# ---------------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------------

def test_exact_evolution_free_identity():
    drift = DriftHamiltonian(2, 2, 1, (), np.zeros((1, 1)))
    sched = bangbang_schedule((np.zeros((2, 1), dtype=np.int64), 4), 0.1)
    u = exact_evolution(drift, sched)
    assert frob(u - np.eye(4)) < 1e-13


def test_exact_evolution_convergence_slope():
    code = LinearCode(F4, np.eye(2, dtype=np.int64))
    eoa = eulerian_oa_from_code(code, euler_cycle_full(F4, 2), 2)
    drift = random_drift(2, 2, 2, 2, seed=11)
    errors = []
    cycle_times = [0.4, 0.2, 0.1]
    for tc in cycle_times:
        sched = euler_schedule(eoa, tc / 256)
        u = exact_evolution(drift, sched)
        target = np.kron(np.eye(4), expm_herm(drift.env_only, tc))
        errors.append(phase_distance(u, target))
    slope = np.polyfit(np.log(cycle_times), np.log(errors), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_exact_evolution_dimension_cap():
    drift = random_drift(5, 2, 2, 16, seed=0)   # 32 * 16 = 512 > 256
    sched = bangbang_schedule((np.zeros((5, 1), dtype=np.int64), 4), 0.1)
    with pytest.raises(ValueError):
        exact_evolution(drift, sched)


def exact_evolution_oracle(drift, sched):
    """The per-column loop exact_evolution replaced: one segment Hamiltonian
    and one eigendecomposition per column, whether or not it repeats."""
    h_total = drift.total_matrix()
    dim = h_total.shape[0]
    d_env = drift.d_env
    u = np.eye(dim, dtype=complex)
    for j in range(sched.N):
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
                h_ctrl += embed(sched.table[sched.index[j, k]], (k,), sched.n,
                                sched.d)
            h_seg = h_total + np.kron(h_ctrl, np.eye(d_env))
        u = expm_herm(h_seg, sched.delta) @ u
    return u


@st.composite
def evolution_cases(draw):
    """(drift, schedule): a bang-bang or eulerian schedule of a
    random array over GF(4) or GF(9), d^n * d_E <= 256, whose columns come
    from a pool of three so that segments repeat; the schedule has been
    through write_schedule/read_schedule or not."""
    q = draw(st.sampled_from([4, 9]))
    field = field_from_order(q)
    d = field.coord_dim()
    d_env = draw(st.sampled_from([1, 2]))
    n_max = max(n for n in range(1, 9) if d**n * d_env <= 256)
    n = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, q, size=(n, 3))
    entries = pool[:, rng.integers(0, 3, size=draw(st.integers(1, 8)))]
    build = draw(st.sampled_from([bangbang_schedule, euler_schedule]))
    sched = build((entries, q), draw(st.sampled_from([0.05, 0.3])))
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            write_schedule(Path(tmp) / "sched.json", sched)
            sched = read_schedule(Path(tmp) / "sched.json")
    drift = random_drift(n, d, min(n, 2), d_env, int(rng.integers(2**16)))
    return drift, sched


@settings(max_examples=30, deadline=None)
@given(evolution_cases())
def test_exact_evolution_equals_per_column_oracle(case):
    """One propagator per distinct segment, multiplied in column order,
    gives the per-column product bit for bit."""
    drift, sched = case
    assert np.array_equal(exact_evolution(drift, sched),
                          exact_evolution_oracle(drift, sched))


def test_exact_evolution_keys_on_hamiltonians_not_labels(eoa256):
    """Two table rows may share a label (a tampered or foreign schedule
    file): two segments with equal labels but different control
    Hamiltonians each get their own propagator."""
    sched = euler_schedule((eoa256.entries[:2], 4), 0.01)
    drift = random_drift(2, 2, 2, 2, seed=3)
    rows = sched.labels.reshape(sched.N, -1)
    j, k = next((j, k) for j in range(sched.N) for k in range(j + 1, sched.N)
                if np.array_equal(rows[j], rows[k]))
    r = sched.index[k, 0]
    index = sched.index.astype(np.int64)
    index[k, 0] = len(sched.table)          # a new row with row r's label
    tampered = Schedule(sched.n, sched.d, sched.N, sched.delta, sched.mode,
                        np.concatenate([sched.row_labels, sched.row_labels[[r]]]),
                        index,
                        np.concatenate([sched.table, random_hermitian(
                            np.random.default_rng(4), 2)[None]]))
    assert np.array_equal(tampered.labels[j], tampered.labels[k])
    u = exact_evolution(drift, tampered)
    assert np.array_equal(u, exact_evolution_oracle(drift, tampered))
    assert frob(u - exact_evolution(drift, sched)) > 1e-6


# ---------------------------------------------------------------------------
# random drifts
# ---------------------------------------------------------------------------

def test_random_drift_deterministic():
    a = random_drift(5, 2, 2, 2, seed=42)
    b = random_drift(5, 2, 2, 2, seed=42)
    assert len(a.terms) == len(b.terms)
    for ta, tb in zip(a.terms, b.terms):
        assert ta.support == tb.support
        assert np.array_equal(ta.sys_block, tb.sys_block)
        assert np.array_equal(ta.env_block, tb.env_block)
    assert np.array_equal(a.env_only, b.env_only)


def test_random_drift_structure():
    drift = random_drift(5, 2, 2, 1, seed=1)
    assert len(drift.terms) == 10      # C(5, 2) system terms, no couplings
    for term in drift.terms:
        assert abs(np.trace(term.sys_block)) < 1e-14
        assert is_hermitian(term.sys_block)
        assert abs(frob(term.sys_block) - 1) < 1e-12
    with_env = random_drift(5, 2, 2, 2, seed=1)
    assert len(with_env.terms) == 20   # plus one coupling term per support
    assert frob(with_env.env_only) > 0


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftHamiltonian(2, 2, 1, (DriftTerm((0,), np.eye(2, dtype=complex),
                                              np.eye(1)),), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        DriftHamiltonian(2, 2, 1, (DriftTerm((1, 0), SZ, np.eye(1)),),
                         np.zeros((1, 1)))


def test_parameter_validation(eoa256, drift5):
    """Drift arity and environment size, pulse length and quadrature order
    are checked at the library boundary; both bounded-strength entries
    reject order 0 for both methods with the library's own message."""
    for n, arity, d_env in [(5, 0, 1), (5, 6, 1), (5, 2, 0)]:
        with pytest.raises(ValueError):
            random_drift(n, 2, arity, d_env, seed=0)
    for delta in [0.0, -0.1, float("nan"), float("inf")]:
        with pytest.raises(ValueError):
            generator_hamiltonian(SX, delta)
        with pytest.raises(ValueError):
            eulerian_average(eoa256, drift5, delta)
    cycle = euler_cycle_full(F4, 1)
    for method in ("exact", "quadrature"):
        with pytest.raises(ValueError, match="quadrature order 0 must be >= 1"):
            single_cycle_average(cycle, SZ, 0.1, method=method, order=0)
        with pytest.raises(ValueError, match="quadrature order 0 must be >= 1"):
            eulerian_average(eoa256, drift5, 0.1, method=method, order=0)


@pytest.mark.parametrize("method", ["exact", "quadrature"])
def test_pair_cap_is_checked_before_counting(eoa256, drift5, method):
    """Past the pair cap (a 2-qudit support of GF(4) has 4^4 = 256 pair
    bins; cap 255) both methods raise before any histogram is counted."""
    counted = []

    def spy(counter):
        def counting(*args, **kwargs):
            counted.append(args)
            return counter(*args, **kwargs)
        return counting

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "EULER_EDGE_CAP", 255)
        for name in ("subset_histograms", "pair_histograms"):
            mp.setattr(decoupling_module, name, spy(getattr(decoupling_module, name)))
        with pytest.raises(ValueError, match="exceeds cap"):
            eulerian_average(eoa256, drift5, 0.1, method=method)
    assert counted == []


def test_total_matrix_matches_embedding():
    drift = random_drift(2, 2, 2, 2, seed=13)
    h = drift.total_matrix()
    assert is_hermitian(h)
    expected = np.zeros((8, 8), dtype=complex)
    for term in drift.terms:
        expected += np.kron(embed(term.sys_block, term.support, 2, 2),
                            term.env_block)
    expected += np.kron(np.eye(4), drift.env_only)
    assert frob(h - expected) < 1e-14


def test_total_matrix_is_built_once_and_read_only():
    """Later calls return the first call's array, read-only, with no
    further embed call; an oversized drift raises on every call."""
    drift = random_drift(3, 2, 2, 2, seed=13)
    with mock.patch.object(decoupling_module, "embed", wraps=embed) as spy:
        h = drift.total_matrix()
        assert drift.total_matrix() is h
    assert spy.call_count == len(drift.terms) and not h.flags.writeable
    big = random_drift(5, 2, 2, 16, seed=0)     # 32 * 16 = 512 > 256
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds cap"):
            big.total_matrix()


# ---------------------------------------------------------------------------
# Full-space oracle for the residual assembly
# ---------------------------------------------------------------------------

def explicit_residual(avg, n, d, d_env):
    """Frobenius norm of avg minus its identity-on-system component."""
    dim_s = d**n
    tensor = avg.reshape(dim_s, d_env, dim_s, d_env)
    env_part = np.einsum("abac->bc", tensor) / dim_s
    return frob(avg - np.kron(np.eye(dim_s), env_part))


def embedded_sum_norm(parts, n, d):
    """Frobenius norm of sum_i embed(Y_i, K_i) kron E_i without building d^n:
    the O(T^2) pairwise oracle for the report's Weyl-basis residual.

    <A_i, A_j> = d^(n - |K_i u K_j|) tr(Y_i~^dag Y_j~) tr(E_i^dag E_j) with
    the blocks embedded into the union support.
    """
    total = 0.0
    for i, (ki, yi, ei) in enumerate(parts):
        for j in range(i, len(parts)):
            kj, yj, ej = parts[j]
            env_ip = np.trace(ei.conj().T @ ej).real
            if env_ip == 0.0:
                continue
            union = sorted(set(ki) | set(kj))
            pos = {qudit: idx for idx, qudit in enumerate(union)}
            yi_u = embed(yi, tuple(pos[k] for k in ki), len(union), d)
            yj_u = embed(yj, tuple(pos[k] for k in kj), len(union), d)
            sys_ip = np.trace(yi_u.conj().T @ yj_u).real
            ip = d ** (n - len(union)) * sys_ip * env_ip
            total += ip if i == j else 2 * ip
    return float(np.sqrt(max(total, 0.0)))


def random_hermitian(rng, dim):
    a = random_complex(rng, dim)
    return (a + a.conj().T) / 2


@st.composite
def mixed_arity_cases(draw):
    """(entries, q, drift): a random array over GF(4) or GF(9) with few
    columns, and a drift mixing arity-1 and arity-2 terms on overlapping
    supports (repeats included) with random environment blocks."""
    q = draw(st.sampled_from([4, 9]))
    d = field_from_order(q).coord_dim()
    n = draw(st.integers(2, 4 if q == 4 else 3))
    d_env = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    entries = rng.integers(0, q, size=(n, draw(st.integers(1, 6))))
    singles = [(k,) for k in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    supports = ([(0,), (0, 1)]
                + draw(st.lists(st.sampled_from(singles), max_size=3))
                + draw(st.lists(st.sampled_from(pairs), max_size=4)))
    terms = []
    for support in supports:
        dim = d ** len(support)
        sys_block = random_hermitian(rng, dim)
        sys_block -= np.trace(sys_block) / dim * np.eye(dim)
        terms.append(DriftTerm(support, sys_block, random_hermitian(rng, d_env)))
    drift = DriftHamiltonian(n, d, d_env, tuple(terms), random_hermitian(rng, d_env))
    return entries, q, drift


def column_unitary(field, column):
    """Kronecker product of the Weyl unitaries of one array column."""
    w = np.eye(1, dtype=complex)
    for symbol in column:
        w = np.kron(w, weyl_from_field(field, int(symbol)))
    return w


@settings(max_examples=30, deadline=None)
@given(mixed_arity_cases())
def test_weyl_report_equals_pairwise_oracle(case):
    """The report read off one Weyl expansion per term equals the pairwise
    union-support norm of the centered blocks, and the dense full-space
    average, on per-term norms, env shift and residual."""
    entries, q, drift = case
    field = field_from_order(q)
    n, N = entries.shape
    d, d_env = drift.d, drift.d_env
    report = bangbang_average((entries, q), drift)
    tol = config.TOL_BACKEND_AGREEMENT

    parts, env_shift = [], np.zeros_like(drift.env_only)
    for term, (support, norm) in zip(drift.terms, report.per_term_norms):
        ws = [column_unitary(field, entries[list(term.support), j]) for j in range(N)]
        avg = sum(w.conj().T @ term.sys_block @ w for w in ws) / N
        dim = d ** len(term.support)
        trace_part = np.trace(avg) / dim
        centered = avg - trace_part * np.eye(dim)
        env_shift += trace_part * term.env_block
        parts.append((term.support, centered, term.env_block))
        assert support == term.support
        assert abs(norm - frob(centered) * frob(term.env_block)) <= tol
    assert abs(report.env_shift_norm - frob(env_shift)) <= tol
    pairwise = embedded_sum_norm(parts, n, d)
    assert report.residual_norm > 1e-6
    assert abs(report.residual_norm - pairwise) <= tol

    h_total = drift.total_matrix()      # every drawn case has d^n d_E <= 256
    acc = np.zeros_like(h_total)
    for j in range(N):
        w_full = np.kron(column_unitary(field, entries[:, j]), np.eye(d_env))
        acc += w_full.conj().T @ h_total @ w_full
    avg = acc / N
    dim_s = d**n
    env_part = np.einsum("abac->bc", avg.reshape(dim_s, d_env, dim_s, d_env)) / dim_s
    assert abs(report.residual_norm - explicit_residual(avg, n, d, d_env)) <= tol
    assert abs(report.env_shift_norm - frob(env_part - drift.env_only)) <= tol


def test_bangbang_residual_matches_full_space_oracle():
    """Nonzero case: 2-body drift under a strength-1 array on 3 qudits; the
    reported norm must match the explicitly assembled 16x16 average, which
    exercises the cross-support terms of the pairwise assembly."""
    entries = np.tile(np.arange(4, dtype=np.int64), (3, 1))
    oa_weak = OrthogonalArray(4, 3, 4, 1, 1, entries)
    drift = random_drift(3, 2, 2, 2, seed=31)
    with pytest.warns(UserWarning):
        report = bangbang_average(oa_weak, drift)
    assert report.residual_norm > 1e-3

    h_total = drift.total_matrix()
    acc = np.zeros_like(h_total)
    for j in range(4):
        w = np.eye(1, dtype=complex)
        for k in range(3):
            w = np.kron(w, weyl(2, *F4.coords(int(entries[k, j]))))
        w_full = np.kron(w, np.eye(2))
        acc += w_full.conj().T @ h_total @ w_full
    explicit = explicit_residual(acc / 4, 3, 2, 2)
    assert abs(report.residual_norm - explicit) < 1e-10


def test_eulerian_residual_matches_full_space_oracle():
    """Same oracle for the bounded-strength path, on a column-shuffled
    3-row array so the residual is far from zero."""
    eoa = eulerian_oa_from_code(hamming_code(F4, 2).dual(),
                                euler_cycle_full(F4, 2), 2)
    rng = np.random.default_rng(3)
    entries = eoa.entries[:3, rng.permutation(256)].copy()
    drift = random_drift(3, 2, 2, 2, seed=31)
    report = eulerian_average((entries, 4), drift, delta=0.1)
    assert report.residual_norm > 1e-3

    h_total = drift.total_matrix()
    sched = euler_schedule((entries, 4), 0.1)
    acc = np.zeros_like(h_total)
    v = np.eye(8, dtype=complex)
    for j in range(256):
        hams = sched.table[sched.index[j]]
        h_ctrl = sum(embed(hams[k], (k,), 3, 2) for k in range(3))
        acc += exact_segment(h_total, np.kron(h_ctrl, np.eye(2)),
                             np.kron(v, np.eye(2)), 0.1)
        step = np.eye(1, dtype=complex)
        for k in range(3):
            step = np.kron(step, expm_herm(hams[k], 0.1))
        v = step @ v
    explicit = explicit_residual(acc / 256, 3, 2, 2)
    assert abs(report.residual_norm - explicit) < 1e-9


# ---------------------------------------------------------------------------
# Per-term oracles for the batched averaging layer
# ---------------------------------------------------------------------------

def column_counts(sub, q):
    """Histogram of a t x N array's columns, encoded base q (row 0 leading):
    the per-subset count that `oa.subset_histograms` replaced."""
    t = sub.shape[0]
    return np.bincount(q ** np.arange(t - 1, -1, -1) @ sub, minlength=q**t)


def pair_counts(sub, field):
    """(q^t, q^t) histogram of the cyclic (vertex, transition) pairs of a
    t x N projection, counted per projection; counts[v, s] is the number of
    columns whose t-tuple encodes to v and whose transition encodes to s."""
    q, t = field.q, sub.shape[0]
    _check_pair_cap(q, t)
    pairs = np.concatenate([sub, transitions(sub, field)])
    return column_counts(pairs, q).reshape(q**t, q**t)


def histogram_average_oracle(filtered, counts, weyls):
    """The one-term kernel: (1/N) sum_v W_v^dag [sum_s counts[v, s]
    filtered[s]] W_v."""
    inner = np.tensordot(counts, filtered, axes=1)
    return (weyls.conj().swapaxes(1, 2) @ inner @ weyls).sum(axis=0) / counts.sum()


def cycle_action_oracle(x, sub, field, unitaries, hams, delta):
    """The per-term exact kernel call the batched path replaced: the term's
    projection shifted to g_j - g_0, its own pair histogram, its own tables."""
    q, t = field.q, sub.shape[0]
    counts = pair_counts(field.add_table[sub, field.neg_table[sub[:, :1]]], field)
    used_v = np.nonzero(counts.any(axis=1))[0]
    used_s = np.nonzero(counts.any(axis=0))[0]
    eig = _pulse_eigensystem(_support_table(hams, used_s, q, t, _kron_sum), delta)
    return histogram_average_oracle(_apply_pulse_filter(x, eig),
                                    counts[np.ix_(used_v, used_s)],
                                    _support_table(unitaries, used_v, q, t, _kron))


def bangbang_oracle(x, sub, q, unitaries):
    """The per-term bang-bang kernel call: the projection's column counts,
    F the identity."""
    counts = column_counts(sub, q)
    used = np.nonzero(counts)[0]
    return histogram_average_oracle(x[None], counts[used, None],
                                    _support_table(unitaries, used, q, len(sub), _kron))


def report_oracle(averaged, drift, unitaries):
    """The per-(term, Weyl string) loop the vectorized report replaced:
    (residual, [(support, norm)], env shift norm, {string: M_string})."""
    q, d = len(unitaries), drift.d
    strings, surviving, per_term = {}, {}, []
    env_shift = np.zeros_like(drift.env_only)
    for term, avg in zip(drift.terms, averaged):
        support, env_block = term.support, term.env_block
        t = len(support)
        if t not in strings:
            codes = np.arange(q**t)
            strings[t] = (_support_table(unitaries, codes, q, t, _kron),
                          np.transpose(np.unravel_index(codes, (q,) * t)).tolist())
        table, digits = strings[t]
        coeffs = np.einsum("lab,ab->l", table.conj(), avg) / d**t
        env_shift = env_shift + coeffs[0] * env_block
        per_term.append((support, d ** (t / 2) * frob(coeffs[1:]) * frob(env_block)))
        for c, row in zip(coeffs[1:], digits[1:]):
            key = tuple((k, s) for k, s in zip(support, row) if s)
            surviving[key] = surviving.get(key, 0) + c * env_block
    residual = d ** (drift.n / 2) * sum(frob(m) ** 2 for m in surviving.values()) ** 0.5
    return residual, per_term, frob(env_shift), surviving


@st.composite
def batched_cases(draw):
    """(entries, q, drift): a random array over GF(4) or GF(9), or a seeded
    column order of a tiled Eulerian array (so g_0 != 0 in general), and a
    drift of arity-1 and arity-2 terms on overlapping and repeated supports
    with d_E 1 or 2; one case in eight has no terms at all."""
    q = draw(st.sampled_from([4, 9]))
    field = field_from_order(q)
    d = field.coord_dim()
    n = draw(st.integers(2, 4 if q == 4 else 3))
    d_env = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        entries = rng.integers(0, q, size=(n, draw(st.integers(1, 12))))
    else:
        eoa = eulerian_oa_from_code(LinearCode(field, np.eye(1, dtype=np.int64)),
                                    euler_cycle_full(field, 1), 1)
        entries = np.tile(eoa.entries, (n, 1))[:, rng.permutation(q * q)]
    supports = [] if draw(st.integers(0, 7)) == 0 else (
        draw(st.lists(st.sampled_from([(k,) for k in range(n)]), max_size=3))
        + draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                        min_size=1, max_size=5)))
    terms = []
    for support in supports:
        dim = d ** len(support)
        sys_block = random_hermitian(rng, dim)
        sys_block -= np.trace(sys_block) / dim * np.eye(dim)
        env = random_hermitian(rng, d_env) if d_env > 1 else np.eye(1, dtype=complex)
        terms.append(DriftTerm(support, sys_block, env))
    env_only = random_hermitian(rng, d_env) if d_env > 1 else np.zeros((1, 1))
    return entries.astype(np.int64), q, DriftHamiltonian(n, d, d_env, tuple(terms),
                                                         env_only)


@settings(max_examples=40, deadline=None)
@given(batched_cases(), st.sampled_from(["one", "two", "default"]))
def test_batched_averages_equal_per_term_oracles(case, bound):
    """Counting each support once and reading each term's coefficients off
    the character sums of its histogram, in blocks, gives the Weyl expansion
    of every term's averaged block of the per-term matrix kernel calls, and
    the vectorized report gives the per-string loop's per-term norms (in
    input order), env shift and residual, at TOL_BACKEND_AGREEMENT.  Blocks
    hold one term or counting group, two (Eulerian terms of the widest
    arity), or the defaults.  The Eulerian oracle shifts each projection to
    g_j - g_0 itself, so it checks the phase applied after counting."""
    entries, q, drift = case
    field = field_from_order(q)
    unitaries = _symbol_unitaries(field)
    hams = _symbol_hamiltonians(unitaries, 0.1)
    tol = config.TOL_BACKEND_AGREEMENT
    oracles = {
        "bangbang": [bangbang_oracle(term.sys_block, entries[list(term.support)], q,
                                     unitaries) for term in drift.terms],
        "exact": [cycle_action_oracle(term.sys_block, entries[list(term.support)],
                                      field, unitaries, hams, 0.1)
                  for term in drift.terms]}
    with pytest.MonkeyPatch.context() as mp:
        if bound != "default":
            per = 1 if bound == "one" else 2
            t = drift.max_arity
            widest = field.coord_dim() * q ** (2 * t)   # bucket entries per term
            mp.setattr(decoupling_module, "_BLOCK_ENTRIES", 1 if per == 1 else 2 * widest)
            mp.setattr(oa_module, "_BLOCK_KEYS",
                       per * max(entries.shape[1], q ** (2 * t)))
        terms = ([term.support for term in drift.terms],
                 [term.sys_block for term in drift.terms])
        blocks = {"bangbang": _averages(entries, *terms, field, unitaries),
                  "exact": _averages(entries, *terms, field, unitaries, 0.1)}
        reports = {"bangbang": bangbang_average((entries, q), drift),
                   "exact": eulerian_average((entries, q), drift, 0.1)}
    for method, report in reports.items():
        assert len(blocks[method]) == len(drift.terms)
        for got, want in zip(blocks[method], oracles[method]):
            assert coefficient_distance(got, want, unitaries) <= tol
        residual, per_term, env_shift, _ = report_oracle(oracles[method], drift,
                                                         unitaries)
        assert [sup for sup, _ in report.per_term_norms] == [sup for sup, _ in per_term]
        for (_, got), (_, want) in zip(report.per_term_norms, per_term):
            assert abs(got - want) <= tol
        assert abs(report.residual_norm - residual) <= tol
        assert abs(report.env_shift_norm - env_shift) <= tol


@settings(max_examples=30, deadline=None)
@given(mixed_arity_cases())
def test_top_strings_rank_the_oracle_surviving_map(case):
    """The report's top strings are the largest entries of the per-string
    loop's surviving map, norm d^(n/2) ||M_string||_F, in descending order;
    where two norms are within tolerance the order between them is free.
    The report lists only strings with a nonzero share, so the oracle's map
    is restricted to the strings the report keeps (all of them, read with
    no cap on their number): every string it drops has an oracle share of
    roundoff size."""
    entries, q, drift = case
    unitaries = _symbol_unitaries(field_from_order(q))
    report = bangbang_average((entries, q), drift)
    with mock.patch.object(decoupling_module, "_TOP_STRINGS", 10**9):
        kept = dict(bangbang_average((entries, q), drift).top_strings)
    blocks = [bangbang_oracle(term.sys_block, entries[list(term.support)], q,
                              unitaries) for term in drift.terms]
    surviving = report_oracle(blocks, drift, unitaries)[3]
    shares = {key: drift.d ** (drift.n / 2) * frob(m) for key, m in surviving.items()}
    tol = config.TOL_BACKEND_AGREEMENT
    assert set(kept) <= set(shares)
    assert all(norm > 0 for norm in kept.values())
    assert all(share <= tol for key, share in shares.items() if key not in kept)
    shares = {key: shares[key] for key in kept}
    ranked = sorted(shares.values(), reverse=True)
    assert len(report.top_strings) == min(5, len(shares))
    for i, (string, norm) in enumerate(report.top_strings):
        assert abs(norm - ranked[i]) <= tol
        assert abs(shares[string] - norm) <= tol
    assert sum(norm**2 for _, norm in report.top_strings) <= report.residual_norm**2 + tol
    data = report_to_json(report, 1.0)
    assert [[tuple(f) for f in s["string"]] for s in data["top_strings"]] == \
        [list(string) for string, _ in report.top_strings]


def test_character_sums_count_each_support_once():
    """GF(9) m = 2 with d_E = 2 (n = 10, 90 terms on 45 supports): both
    exact actions pass each support's histogram to `_character_sums` once,
    though an Eulerian block holds one support (d q^4 > _BLOCK_ENTRIES)
    and bang-bang blocks of 67 terms would split a support's two terms.
    The exact zeros stay: both residuals are 0.0."""
    code = hamming_code(gf_new(3, 2), 2).dual()
    array = eulerian_oa_from_code(code, euler_cycle_full(code.field, code.k), 2)
    drift = random_drift(10, 3, 2, 2, seed=1)

    def rows_counted(average):
        with mock.patch.object(decoupling_module, "_character_sums",
                               wraps=decoupling_module._character_sums) as spy:
            report = average()
        return sum(len(call.args[0]) for call in spy.call_args_list), report.residual_norm

    assert rows_counted(lambda: bangbang_average(oa_from_code(code, 3), drift)) == (45, 0.0)
    assert rows_counted(lambda: eulerian_average(array, drift, 0.1)) == (45, 0.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_schedule_json_roundtrip(tmp_path, eoa256):
    sched = euler_schedule(eoa256, 0.1)
    path = tmp_path / "sched.json"
    write_schedule(path, sched)
    back = read_schedule(path)
    assert (back.n, back.d, back.N, back.mode) == (5, 2, 256, "eulerian")
    assert np.array_equal(back.labels, sched.labels)
    assert np.array_equal(back.hams, sched.hams)
    assert verify_schedule(back) < 1e-12
    write_schedule(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _schedule_file_data(tmp_path, sched):
    path = tmp_path / "sched.json"
    write_schedule(path, sched)
    return json.loads(path.read_text())


def test_schedule_json_shape(tmp_path):
    """Eulerian files hold one labelled table row per symbol Hamiltonian and
    one index per (segment, qudit); bang-bang files hold the symbol labels
    and the index, and no Hamiltonians."""
    sched = euler_schedule(
        eulerian_oa_from_code(LinearCode(F4, np.eye(1, dtype=np.int64)),
                              euler_cycle_full(F4, 1), 1), 0.1)
    data = _schedule_file_data(tmp_path, sched)
    assert list(data) == ["n", "d", "N", "delta", "mode", "labels",
                          "hamiltonians", "index"]
    assert data["N"] == 16 and len(data["index"]) == 16
    assert data["labels"] == [list(F4.coords(e)) for e in range(4)]
    assert len(data["hamiltonians"]) == 4     # one per GF(4) transition symbol
    assert all(len(h) == 4 and all(len(z) == 2 for z in h)
               for h in data["hamiltonians"])  # d^2 [re, im] pairs, row-major
    assert all(len(row) == 1 and isinstance(row[0], int) for row in data["index"])
    bang = _schedule_file_data(
        tmp_path, bangbang_schedule((np.zeros((3, 2), dtype=np.int64), 4), 0.1))
    assert list(bang) == ["n", "d", "N", "delta", "mode", "labels", "index"]
    assert bang["labels"] == data["labels"]
    assert bang["index"] == [[0] * 3] * 2


def _distinct_rows(labels, hams=None):
    """(row_labels, index, table) with row_labels[index] equal to the
    (N, n, 2) labels and table[index] equal to the (N, n, d, d) array hams
    bitwise: the schedule form of dense per-segment arrays.

    The rows are the distinct (label, Hamiltonian) pairs in order of first
    appearance (without hams: the distinct labels, and table None).  Pairs
    are keyed by their bytes, so -0.0 and 0.0 stay apart and a round trip
    through the table is exact.
    """
    N, n, _ = labels.shape
    cells = [np.ascontiguousarray(labels, dtype=np.int64).reshape(N * n, -1)]
    if hams is not None:
        cells.append(np.ascontiguousarray(hams, dtype=complex).reshape(N * n, -1))
    raw = np.concatenate([c.view(np.uint8) for c in cells], axis=1)
    keys = raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    rows = first[order]
    table = None if hams is None else hams.reshape(N * n, *hams.shape[2:])[rows]
    return labels.reshape(N * n, 2)[rows], rank[inverse].reshape(N, n), table


def test_distinct_rows_bitwise_first_appearance():
    """-0.0 and 0.0 are different keys, so are equal Hamiltonians under
    different labels; rows come in order of first use."""
    a = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    a_neg = a.copy()
    a_neg[0, 1] = complex(-0.0, 0.0)
    b = np.diag([1.0, -1.0]).astype(complex)
    hams = np.stack([b, a, b, a_neg, a, b, a]).reshape(7, 1, 2, 2)
    labels = np.array([0, 0, 0, 0, 0, 0, 1]).reshape(7, 1, 1) * [1, 1]
    row_labels, index, table = _distinct_rows(labels, hams)
    assert table.shape == (4, 2, 2) and index.ravel().tolist() == [0, 1, 0, 2, 1, 0, 3]
    assert row_labels.tolist() == [[0, 0], [0, 0], [0, 0], [1, 1]]
    assert np.array_equal(table[index].view(np.uint64), hams.view(np.uint64))
    assert np.signbit(table[2, 0, 1].real) and not np.signbit(table[1, 0, 1].real)
    row_labels, index, table = _distinct_rows(labels)
    assert row_labels.tolist() == [[0, 0], [1, 1]] and table is None
    assert np.array_equal(row_labels[index], labels)


def schedule_to_json(sched: Schedule) -> dict:
    """The schedule document the file holds, built as Python lists: the
    reference for write_schedule's byte gather, which writes
    json.dumps(schedule_to_json(sched)) + "\n"."""
    data = {"n": sched.n, "d": sched.d, "N": sched.N, "delta": sched.delta,
            "mode": sched.mode, "labels": sched.row_labels.tolist()}
    if sched.mode == "eulerian":
        table = np.ascontiguousarray(sched.table, dtype=np.complex128)
        data["hamiltonians"] = table.view(np.float64).reshape(
            len(table), sched.d**2, 2).tolist()
    data["index"] = sched.index.tolist()
    return data


@st.composite
def random_schedules(draw):
    """Schedules of either mode over d = 2, 3, 16 (two-digit labels) with
    random per-segment labels and, in eulerian mode, per-segment
    Hamiltonians drawn from a pool of up to 17 that is not tied to the
    labels and holds bitwise-distinct copies of equal values (0.0 against
    -0.0); the table rows are the distinct (label, Hamiltonian) pairs, up
    to 28 of them (two-digit indices)."""
    mode = draw(st.sampled_from(["bangbang", "eulerian"]))
    d = draw(st.sampled_from([2, 3, 16]))
    N, n = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    delta = draw(st.floats(1e-3, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, d, size=(N, n, 2))
    if mode == "bangbang":
        return Schedule(n, d, N, delta, mode, *_distinct_rows(labels)[:2])
    pool = [random_hermitian(rng, d) for _ in range(draw(st.integers(3, 14)))]
    signed = pool[0].copy()
    signed[0, 0] = complex(signed[0, 0].real, -0.0)
    pool += [signed, np.zeros((d, d), dtype=complex),
             np.full((d, d), complex(-0.0, -0.0))]
    hams = np.stack(pool)[rng.integers(0, len(pool), size=(N, n))]
    return Schedule(n, d, N, delta, mode, *_distinct_rows(labels, hams))


@settings(max_examples=40, deadline=None)
@given(random_schedules())
def test_schedule_file_roundtrip_is_exact(sched):
    """write_schedule then read_schedule gives back the row labels, the
    index and every table Hamiltonian bit for bit, and rewriting is
    byte-exact."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sched.json"
        write_schedule(path, sched)
        back = read_schedule(path)
        write_schedule(Path(tmp) / "again.json", back)
        assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()
    assert (back.n, back.d, back.N, back.delta, back.mode) == \
        (sched.n, sched.d, sched.N, sched.delta, sched.mode)
    assert back.row_labels.dtype == np.int64 and back.index.dtype == np.int64
    assert np.array_equal(back.row_labels, sched.row_labels)
    assert np.array_equal(back.index, sched.index)
    assert np.array_equal(back.labels, sched.labels)
    if sched.mode == "bangbang":
        assert back.hams is None and back.table is None
    else:
        assert back.table.dtype == np.complex128
        assert np.array_equal(back.table.view(np.uint64), sched.table.view(np.uint64))
        assert np.array_equal(back.hams.view(np.uint64), sched.hams.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(random_schedules())
def test_labels_and_hams_are_the_row_gathers(sched):
    """The per-segment views are row_labels[index] and table[index] bit for
    bit, built once and read-only."""
    assert np.array_equal(sched.labels, sched.row_labels[sched.index])
    assert sched.labels.dtype == sched.row_labels.dtype
    assert sched.labels is sched.labels and not sched.labels.flags.writeable
    if sched.mode == "eulerian":
        assert np.array_equal(sched.hams.view(np.uint64),
                              sched.table[sched.index].view(np.uint64))
        assert sched.hams is sched.hams and not sched.hams.flags.writeable


@settings(max_examples=60, deadline=None)
@given(random_schedules(), st.integers(1, 8))
def test_write_schedule_equals_json_dumps(sched, block):
    """The byte gather writes exactly json.dumps(schedule_to_json(s)) + "\n"
    in both modes, with one- and two-digit labels and table indices, and
    blocks of segments that divide N or leave a remainder."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(decoupling_module, "SCHEDULE_BLOCK", block):
        path = Path(tmp) / "sched.json"
        write_schedule(path, sched)
        assert path.read_bytes() == (json.dumps(schedule_to_json(sched)) + "\n").encode()


@pytest.mark.parametrize("q, shape", [
    (4, (5, decoupling_module.SCHEDULE_BLOCK + 5)),   # a partial last block
    (169, (3, 16)),                                   # d = 13, 169 table rows
])
@pytest.mark.parametrize("build", [euler_schedule, bangbang_schedule])
def test_write_schedule_equals_json_dumps_on_built_schedules(tmp_path, q, shape, build):
    entries = np.random.default_rng(q).integers(0, q, size=shape)
    sched = build((entries, q), 0.1)
    path = tmp_path / "sched.json"
    write_schedule(path, sched)
    assert path.read_bytes() == (json.dumps(schedule_to_json(sched)) + "\n").encode()


def _break_negative_index(data):
    data["index"][1][0] = -1


def _break_index_past_table(data):
    data["index"][2][1] = len(data["labels"])


def _break_fractional_index(data):
    data["index"][0][0] = 0.5


def _break_index_shape(data):
    data["index"][3] = [0]


def _break_missing_index(data):
    del data["index"]


def _break_short_entry(data):
    data["hamiltonians"][1] = data["hamiltonians"][1][:-1]


def _break_labels_shape(data):
    data["labels"] = data["labels"][:-1]


def _break_more_labels(data):
    data["labels"].append([0, 0])


def _break_label_width(data):
    data["labels"][0] = [0, 1, 1]


def _break_negative_label(data):
    data["labels"][2] = [0, -1]


def _break_label_past_d(data):
    data["labels"][1] = [data["d"], 0]


@pytest.mark.parametrize("tamper", [
    _break_negative_index, _break_index_past_table, _break_fractional_index,
    _break_index_shape, _break_missing_index, _break_short_entry,
    _break_labels_shape, _break_more_labels, _break_label_width,
    _break_negative_label, _break_label_past_d])
def test_read_schedule_rejects_malformed_file(tmp_path, tamper):
    """An index outside the table (numpy would wrap a negative one), a
    fractional index, a ragged or missing index, a table entry without d^2
    pairs, labels and Hamiltonians of unequal length, and a row label of
    the wrong width or outside [0, d) are one-line ValueErrors."""
    entries = np.array([[0, 1, 2, 3], [0, 2, 3, 1]], dtype=np.int64)
    data = _schedule_file_data(tmp_path, euler_schedule((entries, 4), 0.1))
    tamper(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as excinfo:
        read_schedule(path)
    assert len(str(excinfo.value).splitlines()) == 1


@pytest.mark.parametrize("document", [
    {"n": 1, "d": 2}, [1, 2], {"n": 1, "d": 2, "N": 1, "delta": 0.1,
                               "mode": "bangbang", "labels": 5, "index": [[0]]}])
def test_read_schedule_rejects_document_of_wrong_shape(tmp_path, document):
    """A missing field, a top level that is not an object and row labels
    that are not a list are one-line ValueErrors, as for drift documents."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="malformed schedule document") as excinfo:
        read_schedule(path)
    assert len(str(excinfo.value).splitlines()) == 1


@pytest.mark.parametrize("document", [
    {"n": 1, "d": 2, "N": 1, "delta": 0.1, "mode": "bangbang",
     "segments": [{"labels": [[0, 1]]}]},
    {"n": 1, "d": 2, "N": 1, "delta": 0.1, "mode": "eulerian",
     "hamiltonians": [[[0.0, 0.0]] * 4],
     "segments": [{"labels": [[0, 0]], "hamiltonians": [0]}]}])
def test_read_schedule_rejects_per_segment_layout(tmp_path, document):
    """A file of the old per-segment layout, with its "segments" list, is a
    one-line ValueError that names the layout; it is not read."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="old per-segment layout") as excinfo:
        read_schedule(path)
    assert len(str(excinfo.value).splitlines()) == 1


@pytest.mark.parametrize("data, message", [
    (b'{"n": \xff}', "'utf-8' codec can't decode byte 0xff in position 6: "
                     "invalid start byte"),
    (b'{"n": 5 "d": 2}', "Expecting ',' delimiter: line 1 column 9 (char 8)")],
    ids=["bytes", "json"])
@pytest.mark.parametrize("reader", [read_schedule, read_drift])
def test_json_readers_name_the_file(tmp_path, reader, data, message):
    """A schedule or drift file that is not UTF-8 or not JSON is one
    ValueError line after the file's path."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: {message}"


MALFORMED = "malformed drift document: "


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc["terms"][0].update(sys=[[1.0, 0.0, 0.0]] * 16),
     MALFORMED + "terms[0].sys: too many values to unpack (expected 2)"),
    (lambda doc: doc["terms"][0].update(sys=[1, 2, 3]),
     MALFORMED + "terms[0].sys: cannot unpack non-iterable int object"),
    (lambda doc: doc["terms"][1].pop("env"), MALFORMED + "terms[1].env: missing 'env'"),
    (lambda doc: doc.update(d="2"), MALFORMED + "n, d, d_env: not integers"),
    (lambda doc: doc.update(terms=5), MALFORMED + "terms: 'int' object is not iterable"),
    (lambda doc: doc.update(env_only=[[0.0, 0.0]] * 3),
     MALFORMED + "env_only: expected 4 entries, got 3"),
    (lambda doc: doc.pop("n"), MALFORMED + "n, d, d_env: missing 'n'"),
    (lambda doc: doc["terms"][0].update(support=[0, 9]), "support (0, 9) out of range")],
    ids=["triples", "not-pairs", "missing-env", "string-d", "terms-int",
         "env-only-size", "missing-n", "support-range"])
def test_read_drift_names_the_file_and_field(tmp_path, tamper, message):
    """Every error of a drift file is one ValueError line after the file's
    path; a structural one names the field that was wrong."""
    doc = drift_to_json(random_drift(3, 2, 2, 2, seed=17))
    tamper(doc)
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as excinfo:
        read_drift(path)
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize("bad", [-1, 4])
def test_schedule_rejects_index_outside_table(bad):
    """A directly built schedule gets the reader's check: an index outside
    the table is a one-line ValueError, never a wrapped table row."""
    sched = euler_schedule((np.array([[0, 1, 2, 3], [0, 2, 3, 1]]), 4), 0.1)
    index = sched.index.astype(np.int64)
    index[2, 1] = bad
    for extra in ((), (sched.table,)):
        with pytest.raises(ValueError, match="outside the table of 4") as excinfo:
            Schedule(sched.n, sched.d, sched.N, sched.delta,
                     "eulerian" if extra else "bangbang", sched.row_labels, index,
                     *extra)
        assert len(str(excinfo.value).splitlines()) == 1


@pytest.mark.parametrize("label", [(0, -1), (2, 0)])
def test_schedule_rejects_label_outside_range(label):
    """A row label outside [0, d) would gather the wrong file token (np.take
    wraps a negative one): a one-line ValueError at construction, in both
    modes."""
    sched = euler_schedule((np.array([[0, 1, 2, 3], [0, 2, 3, 1]]), 4), 0.1)
    row_labels = sched.row_labels.astype(np.int64)
    row_labels[3] = label
    for extra in ((), (sched.table,)):
        with pytest.raises(ValueError, match=r"table row 3: .* out of range "
                                             r"for d = 2") as excinfo:
            Schedule(sched.n, sched.d, sched.N, sched.delta,
                     "eulerian" if extra else "bangbang", row_labels, sched.index,
                     *extra)
        assert len(str(excinfo.value).splitlines()) == 1


@pytest.mark.parametrize("N, n, dtype, match", [
    (1, 1, np.float64, "not integers"),
    (1, 1, bool, "not integers"),
    (0, 2, np.int64, "needs a segment and a qudit"),   # no file form reads back
    (2, 0, np.int64, "needs a segment and a qudit"),
])
def test_schedule_rejects_empty_or_non_integer_labels(N, n, dtype, match):
    """Row labels and an index of the dtype, each beside a valid other."""
    for labels, index in ((dtype, np.int64), (np.int64, dtype)):
        with pytest.raises(ValueError, match=match):
            Schedule(n, 2, N, 0.1, "bangbang", np.zeros((1, 2), dtype=labels),
                     np.zeros((N, n), dtype=index))


@pytest.mark.parametrize("enabled", [True, False])
def test_read_schedule_restores_gc_state(tmp_path, enabled):
    """read_schedule pauses cyclic garbage collection for the parse and
    leaves it as the caller had it, after a good file and after a file it
    rejects."""
    sched = euler_schedule((np.array([[0, 1, 2, 3]]), 4), 0.1)
    data = _schedule_file_data(tmp_path, sched)
    data["labels"][0] = [0]
    (tmp_path / "bad.json").write_text(json.dumps(data))
    (tmp_path / "cut.json").write_text((tmp_path / "sched.json").read_text()[:-3])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        read_schedule(tmp_path / "sched.json")
        assert gc.isenabled() is enabled
        for name in ("bad.json", "cut.json"):   # fails converting, fails parsing
            with pytest.raises(ValueError):
                read_schedule(tmp_path / name)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def verify_schedule_oracle(sched):
    """The per-segment check verify_schedule replaced: one matrix
    exponential and one phase-aligned distance per (segment, qudit)."""
    worst = 0.0
    for j in range(sched.N):
        for k in range(sched.n):
            u = expm_herm(sched.table[sched.index[j, k]], sched.delta)
            v = weyl(sched.d, *(int(x) for x in sched.labels[j, k]))
            overlap = np.trace(v.conj().T @ u)
            phase = overlap / abs(overlap) if abs(overlap) >= 1e-300 else 1.0
            worst = max(worst, frob(u - phase * v))
    return worst


@st.composite
def realized_schedules(draw):
    """(schedule, other): an eulerian schedule over d = 2, 3 whose segment
    Hamiltonians realize their random labels, few enough labels that rows
    repeat, and a second schedule with a random subset of segments given a
    random Hermitian or another label's Hamiltonian."""
    d = draw(st.sampled_from([2, 3]))
    N, n = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    delta = draw(st.sampled_from([0.1, 0.37, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, d, size=(N, n, 2))
    by_label = np.array([[generator_hamiltonian(weyl(d, a, b), delta)
                          for b in range(d)] for a in range(d)])
    hams = by_label[labels[..., 0], labels[..., 1]]
    sched = Schedule(n, d, N, delta, "eulerian", *_distinct_rows(labels, hams))
    hams = hams.copy()
    for j, k in zip(*np.nonzero(rng.random((N, n)) < 0.3)):
        hams[j, k] = (random_hermitian(rng, d) if rng.random() < 0.5
                      else by_label[tuple(rng.integers(0, d, size=2))])
    return sched, Schedule(n, d, N, delta, "eulerian", *_distinct_rows(labels, hams))


def _with(sched, labels=None, hams=None):
    return Schedule(sched.n, sched.d, sched.N, sched.delta, sched.mode,
                    *_distinct_rows(sched.labels if labels is None else labels,
                                    sched.hams if hams is None else hams))


@settings(max_examples=40, deadline=None)
@given(realized_schedules(), st.data())
def test_batched_verify_schedule_equals_per_segment_oracle(case, data):
    """The batched check over the used table rows equals the per-segment
    loop (the trace is summed in another order: roundoff-level tolerance),
    and one tampered segment Hamiltonian or label among repeated rows fails
    it; an out-of-range label raises instead of wrapping."""
    sched, other = case
    for s in (sched, other):
        assert verify_schedule(s) == pytest.approx(verify_schedule_oracle(s),
                                                   rel=1e-12, abs=1e-14)
    assert verify_schedule(sched) <= config.EPS_MAT
    d = sched.d
    j = data.draw(st.integers(0, sched.N - 1))
    k = data.draw(st.integers(0, sched.n - 1))
    label = tuple(sched.labels[j, k].tolist())
    wrong = data.draw(st.sampled_from(
        [(a, b) for a in range(d) for b in range(d) if (a, b) != label]))
    hams = sched.hams.copy()
    hams[j, k] = generator_hamiltonian(weyl(d, *wrong), sched.delta)
    labels = sched.labels.copy()
    labels[j, k] = wrong
    for tampered in (_with(sched, hams=hams), _with(sched, labels=labels)):
        worst = verify_schedule(tampered)
        assert worst > config.EPS_MAT
        assert worst == pytest.approx(verify_schedule_oracle(tampered), rel=1e-12)
    for bad in ((d, 0), (0, -1)):
        labels = sched.labels.copy()
        labels[j, k] = bad
        with pytest.raises(ValueError, match="out of range"):
            verify_schedule(_with(sched, labels=labels))


@pytest.mark.parametrize("q", [9, 25, 49, 169])
def test_verify_schedule_on_wide_fields(q):
    """A realized schedule over GF(q), up to 169 table rows, passes and
    equals the per-segment oracle; one tampered row label fails it, and a
    wrong label on a table row that no segment uses does not."""
    entries = np.random.default_rng(q).integers(0, q, size=(3, 16))
    sched = euler_schedule((entries, q), 0.1)
    worst = verify_schedule(sched)
    assert worst <= config.EPS_MAT
    assert worst == pytest.approx(verify_schedule_oracle(sched), rel=1e-12, abs=1e-14)
    row_labels = sched.row_labels.copy()
    row_labels[sched.index[5, 1]] = (row_labels[sched.index[5, 1]] + 1) % sched.d
    assert verify_schedule(Schedule(sched.n, sched.d, sched.N, sched.delta,
                                    sched.mode, row_labels, sched.index,
                                    sched.table)) > config.EPS_MAT
    unused = Schedule(sched.n, sched.d, sched.N, sched.delta, sched.mode,
                      np.concatenate([sched.row_labels, [[1, 0]]]), sched.index,
                      np.concatenate([sched.table, sched.table[:1]]))
    assert verify_schedule(unused) == worst


def test_drift_json_roundtrip(tmp_path):
    drift = random_drift(3, 2, 2, 2, seed=17)
    path = tmp_path / "drift.json"
    write_drift(path, drift)
    back = read_drift(path)
    assert (back.n, back.d, back.d_env) == (3, 2, 2)
    assert len(back.terms) == len(drift.terms)
    for ta, tb in zip(drift.terms, back.terms):
        assert ta.support == tb.support
        assert np.allclose(ta.sys_block, tb.sys_block)
        assert np.allclose(ta.env_block, tb.env_block)
    assert np.allclose(back.env_only, drift.env_only)
    assert drift_to_json(back) == drift_to_json(drift)
    roundtrip = drift_from_json(drift_to_json(drift))
    assert np.allclose(roundtrip.env_only, drift.env_only)
