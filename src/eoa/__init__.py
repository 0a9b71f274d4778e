"""Eulerian orthogonal arrays from linear codes, and the decoupling
schedules and first-order averaging checks built on them.

Pipeline: GF(q) arithmetic -> linear codes (Hamming family, duals) ->
orthogonal arrays (codewords as columns) -> Eulerian orthogonal arrays
(codewords along an Eulerian cycle of the message-space Cayley graph) ->
per-qudit control schedules -> group-averaging verification that few-body
drifts and environment couplings vanish at first order.
"""

from .codes import LinearCode, hamming_code, read_code, write_code
from .decoupling import (AverageReport, DriftHamiltonian, DriftTerm, Schedule,
                         bangbang_average, bangbang_schedule, euler_schedule,
                         eulerian_average, exact_evolution, fs_map,
                         generator_hamiltonian, random_drift, read_drift,
                         read_schedule, single_cycle_average, verify_schedule,
                         write_drift, write_schedule)
from .euler import (EulerianCertificate, EulerianCycle, EulerianOA,
                    EulerianViolation, euler_cycle_full, eulerian_oa_from_code,
                    read_eulerian_oa, verify_eulerian, write_eulerian_oa)
from .gf import FieldSpec, FieldTable, field_from_order, gf_new
from .oa import (CertificateError, OrthogonalArray, StrengthViolation,
                 max_strength, oa_from_code, read_oa, verify_strength, write_oa)
from .weyl import (embed, group_average, is_hermitian, is_traceless,
                   is_unitary, shift_clock, weyl, weyl_from_field)

__all__ = [
    "AverageReport", "CertificateError", "DriftHamiltonian", "DriftTerm",
    "EulerianCertificate", "EulerianCycle", "EulerianOA", "EulerianViolation",
    "FieldSpec", "FieldTable", "LinearCode", "OrthogonalArray", "Schedule",
    "StrengthViolation", "bangbang_average", "bangbang_schedule", "embed",
    "euler_cycle_full", "euler_schedule", "eulerian_average",
    "eulerian_oa_from_code", "exact_evolution", "field_from_order", "fs_map",
    "generator_hamiltonian", "gf_new", "group_average", "hamming_code",
    "is_hermitian", "is_traceless", "is_unitary", "max_strength",
    "oa_from_code", "random_drift", "read_code", "read_drift",
    "read_eulerian_oa", "read_oa", "read_schedule", "shift_clock",
    "single_cycle_average", "verify_eulerian", "verify_schedule",
    "verify_strength", "weyl", "weyl_from_field", "write_code", "write_drift",
    "write_eulerian_oa", "write_oa", "write_schedule",
]
