"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success).  Tolerances and runtime budgets are pinned here, not deferred.
"""

import time
import warnings

import numpy as np
import pytest

from eoa.codes import LinearCode, hamming_code
from eoa.decoupling import (bangbang_average, euler_schedule, eulerian_average,
                            exact_evolution, fs_map, random_drift,
                            single_cycle_average)
from eoa.euler import (EulerianCertificate, euler_cycle_full,
                       eulerian_oa_from_code, verify_eulerian)
from eoa.gf import gf_new
from eoa.oa import OrthogonalArray, oa_from_code, verify_strength
from eoa.weyl import frob, group_average, phase_distance

F4 = gf_new(2, 2)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}  {name}: {detail} ({elapsed:.2f} s, budget {budget:g} s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f} s, budget {budget:g} s"


@pytest.fixture(scope="module")
def dual42():
    return hamming_code(F4, 2).dual()


@pytest.fixture(scope="module")
def eoa256(dual42):
    return eulerian_oa_from_code(dual42, euler_cycle_full(F4, 2), 2)


@pytest.fixture(scope="module")
def drift5():
    # seeded random traceless 2-body drift on 5 qubits with d_E = 2 couplings
    return random_drift(5, 2, 2, 2, seed=7)


def test_family_parameters(dual42):
    """OA(4^m, (4^m-1)/3, 4, 2) for m = 2, from the dual Hamming code."""
    start = time.perf_counter()
    oa = oa_from_code(dual42, 3)
    lam = verify_strength(oa.entries, 4, 2)
    elapsed = time.perf_counter() - start
    ok = (oa.N, oa.n, oa.q, oa.t) == (16, 5, 4, 2) and lam == 1
    _report("family-parameters", ok,
            f"OA({oa.N}, {oa.n}, {oa.q}, {oa.t}) lambda = {lam}", elapsed, 1.0)


def test_eulerian_family(dual42):
    """Eulerian OA(16^m, (4^m-1)/3, 4, 2) for m = 2: both verifiers."""
    start = time.perf_counter()
    eoa = eulerian_oa_from_code(dual42, euler_cycle_full(F4, 2), 2)
    cert = verify_eulerian(eoa.entries, F4, 2)
    lam = verify_strength(eoa.entries, 4, 2)
    elapsed = time.perf_counter() - start
    ok = (isinstance(cert, EulerianCertificate)
          and cert.edge_multiplicity == 1
          and len(cert.gensets) == 10
          and all(len(g) == 16 for g in cert.gensets.values())
          and lam == 16
          and (eoa.oa.N, eoa.oa.n) == (256, 5))
    _report("eulerian-family", ok,
            f"Eulerian OA(256, 5, 4, 2), edge multiplicity 1, "
            f"S = G^2 on all 10 row pairs, lambda = {lam}", elapsed, 5.0)


def test_irreducible_averaging():
    """Group average equals tr(X)/d * I for 100 seeded matrices, d = 2, 3."""
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(100 + d)
        for _ in range(100):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            err = frob(group_average(d, x) - np.trace(x) / d * np.eye(d))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report("irreducible-averaging", worst <= 1e-12,
            f"max |Pi_G(X) - tr(X)/d I| = {worst:.2e} <= 1e-12", elapsed, 30.0)


def test_eulerian_single_qudit():
    """Length-16 single-qubit cycle acts as the group average (square pulses),
    and decomposes through the generator-subinterval average."""
    start = time.perf_counter()
    cycle = euler_cycle_full(F4, 1)
    labels = [F4.coords(e) for e in range(4)]
    rng = np.random.default_rng(200)
    worst_direct = 0.0
    worst_decomp = 0.0
    for _ in range(100):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        action = single_cycle_average(cycle, x, delta=0.1)
        worst_direct = max(worst_direct, frob(action - group_average(2, x)))
        decomposed = group_average(2, fs_map(2, labels, x, delta=0.1))
        worst_decomp = max(worst_decomp, frob(action - decomposed))
    elapsed = time.perf_counter() - start
    ok = worst_direct <= 1e-10 and worst_decomp <= 1e-10
    _report("single-qudit-cycle", ok,
            f"cycle length {cycle.length}; max |Q_C - Pi_G| = "
            f"{worst_direct:.2e}, max |Q_C - Pi_G(F_S)| = {worst_decomp:.2e}",
            elapsed, 60.0)


def test_bangbang_decoupling(dual42, drift5):
    """Strength-2 bang-bang kills 2-body drift + couplings; 3-body survives."""
    start = time.perf_counter()
    oa = oa_from_code(dual42, 3)
    report = bangbang_average(oa, drift5)
    drift3 = random_drift(5, 2, 3, 1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        negative = bangbang_average(oa, drift3)
    elapsed = time.perf_counter() - start
    ok = report.residual_norm <= 1e-10 and negative.residual_norm > 1e-3
    _report("bangbang-decoupling", ok,
            f"2-body residual {report.residual_norm:.2e} <= 1e-10; "
            f"3-body residual {negative.residual_norm:.2e} > 1e-3", elapsed, 10.0)


def test_eulerian_decoupling(eoa256, drift5):
    """Bounded-strength decoupling with exact subinterval integrals, plus the
    column-shuffle negative control that isolates the Euler property."""
    start = time.perf_counter()
    report = eulerian_average(eoa256, drift5, delta=0.1, method="exact")
    rng = np.random.default_rng(5)
    shuffled = OrthogonalArray(4, 5, 256, 2, 16,
                               eoa256.entries[:, rng.permutation(256)].copy())
    shuffled_report = eulerian_average(shuffled, drift5, delta=0.1)
    elapsed = time.perf_counter() - start
    ok = (report.residual_norm <= 1e-9
          and report.env_shift_norm <= 1e-12
          and shuffled_report.residual_norm > 1e-3)
    _report("eulerian-decoupling", ok,
            f"residual {report.residual_norm:.2e} <= 1e-9, env shift "
            f"{report.env_shift_norm:.2e} <= 1e-12, shuffled residual "
            f"{shuffled_report.residual_norm:.2e} > 1e-3", elapsed, 60.0)


def test_first_order_convergence():
    """Cycle-propagator error against the environment-only target scales
    quadratically in the cycle time (slope 2 +- 0.3 over two halvings)."""
    start = time.perf_counter()
    code = LinearCode(F4, np.eye(2, dtype=np.int64))
    eoa = eulerian_oa_from_code(code, euler_cycle_full(F4, 2), 2)
    drift = random_drift(2, 2, 2, 2, seed=11)
    cycle_times = [0.4, 0.2, 0.1]
    errors = []
    for tc in cycle_times:
        sched = euler_schedule(eoa, tc / 256)
        u = exact_evolution(drift, sched)
        lam, vec = np.linalg.eigh(drift.env_only)
        target = np.kron(np.eye(4), (vec * np.exp(-1j * lam * tc)) @ vec.conj().T)
        errors.append(phase_distance(u, target))
    slope = float(np.polyfit(np.log(cycle_times), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    _report("first-order-convergence", 1.7 <= slope <= 2.3,
            f"log-log slope {slope:.3f} in [1.7, 2.3]", elapsed, 60.0)


def test_scaling_with_n():
    """m = 2, 3: N_bb = 4^m and N_eu = 16^m against n = (4^m-1)/3, i.e.
    linear and quadratic pulse counts; the m = 3 instances build and verify."""
    start = time.perf_counter()
    results = []
    for m in (2, 3):
        n = (4**m - 1) // 3
        dual = hamming_code(F4, m).dual()
        oa = oa_from_code(dual, 3)
        eoa = eulerian_oa_from_code(dual, euler_cycle_full(F4, m), 2)
        results.append((m, n, oa.N, eoa.oa.N))
    elapsed = time.perf_counter() - start
    ok = True
    for m, n, n_bb, n_eu in results:
        ok = ok and n_bb == 4**m and n_eu == 16**m
        ok = ok and n_bb <= 13 * n and n_eu <= (13 * n) ** 2
    (_, _, _, _), (m3, n3, bb3, eu3) = results
    ok = ok and (m3, n3, bb3, eu3) == (3, 21, 64, 4096)
    _report("scaling-with-n", ok,
            f"m=2: N_bb=16, N_eu=256 at n=5; m=3: N_bb={bb3}, N_eu={eu3} "
            f"at n={n3}, both verified", elapsed, 120.0)
