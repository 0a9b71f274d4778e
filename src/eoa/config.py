"""Centralized numeric tolerances and size caps.

Every tolerance used by the library lives here so that a report can state
exactly which thresholds it was checked against.
"""

from __future__ import annotations

# Matrix predicate tolerance (Frobenius norm, scaled by dimension where noted).
EPS_MAT = 1e-12

# Residual thresholds for the averaging theorems.
TOL_BANGBANG_RESIDUAL = 1e-10
TOL_EULERIAN_RESIDUAL = 1e-9
TOL_ENV_PASSTHROUGH = 1e-12
TOL_BACKEND_AGREEMENT = 1e-10
TOL_GROUP_AVERAGE = 1e-12
TOL_SINGLE_CYCLE = 1e-10

# Default control subinterval length (hbar = 1 time units).
DEFAULT_DELTA = 0.1

# Default Gauss-Legendre order for the quadrature cross-check backend.
DEFAULT_QUAD_ORDER = 24

# Size caps.  These keep every enumeration a desk-scale certificate.
FIELD_ORDER_CAP = 256       # largest p^m for table-based field arithmetic
ENUMERATION_CAP = 2**20     # largest q^k for codeword enumeration
EULER_EDGE_CAP = 2**20      # largest q^{2k} for Eulerian cycle construction
CODE_LENGTH_CAP = 4096      # largest code length n
EVOLUTION_DIM_CAP = 256     # largest d^n * d_E for exact propagators
STRENGTH_WORK_CAP = 10**8   # largest C(r, t) * N tuples one strength search counts


def worker_count() -> int:
    """1: the library counts serially.  Only the benchmark's provenance still
    reads this; the next benchmark change deletes it."""
    return 1
