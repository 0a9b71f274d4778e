"""Centralized numeric tolerances, size caps, and worker-count control.

Every tolerance used by the library lives here so that a report can state
exactly which thresholds it was checked against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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
    """Worker cap for parallel verification, from the EOA_THREADS env var.

    Defaults to min(2, usable CPUs).  The counter's bincount holds the
    interpreter lock, so its one overlap is a worker encoding keys while
    another counts: a third worker would find nothing to overlap, yet cost
    a buffer pair and a malloc arena.  "1" is serial.  Results are
    independent of the worker count: verification work is pure counting
    over disjoint row subsets, each written to its own place.
    """
    raw = os.environ.get("EOA_THREADS")
    if raw is None:
        # sched_getaffinity is Linux-only; elsewhere count every CPU
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        return min(2, usable)
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def parallel_map(fn, items: list, workers: int) -> list:
    """[fn(x) for x in items] on up to `workers` threads, in input order."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
