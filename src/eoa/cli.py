"""Batch CLI: code/array construction, verification, schedule export, and
first-order averaging runs.

Exit codes are a stable contract for CI: 0 success, 1 a failed
certificate (a built array, a re-counted file or an averaging residual
over its tolerance), 2 usage/input error.  `main` alone maps exceptions
to exit codes: a CertificateError from a constructor exits 1, any other
ValueError or an OSError exits 2, each with one stderr line; verdicts a
command finds itself are returned.  Every subcommand is deterministic
given its flags (seeds included), and loaded files are always
re-verified -- headers are claims, counts are proofs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import config
from .codes import LinearCode, hamming_code, read_code, write_code
from .decoupling import (bangbang_average, euler_schedule, eulerian_average,
                         exact_evolution, random_drift, read_drift,
                         report_to_json, verify_schedule, write_schedule)
from .euler import (euler_cycle_full, eulerian_oa_from_code, read_eulerian_oa,
                    verify_eulerian, write_eulerian_oa)
from .gf import field_from_order
from .oa import (CertificateError, Violation, file_failure, max_strength, oa_from_code,
                 read_oa, read_oa_entries, read_oa_file, verify_strength, write_oa)
from .weyl import aligned_distance


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_verify(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------

def cmd_code_hamming(args) -> int:
    """Every Hamming code (m >= 2) has distance 3; its dual's q^m words fit
    the enumeration cap under the code length cap, so its distance is
    counted."""
    full = hamming_code(field_from_order(args.q), args.m)
    dual = full.dual()
    code, d_min, d_dual = ((dual, dual.min_distance(), 3) if args.dual
                           else (full, 3, dual.min_distance()))
    write_code(args.out, code)
    print(f"[n, k, d_min, d_dual] = [{code.n}, {code.k}, {d_min}, {d_dual}]")
    print(f"wrote {args.out}")
    return 0


def cmd_code_info(args) -> int:
    code = read_code(args.infile)
    d_min, d_dual = _code_distances(code)
    print(f"[n, k, d_min, d_dual] = [{code.n}, {code.k}, "
          f"{d_min if d_min is not None else '?'}, "
          f"{d_dual if d_dual is not None else '?'}]")
    return 0


# ---------------------------------------------------------------------------
# oa
# ---------------------------------------------------------------------------

def _code_distances(code: LinearCode) -> tuple[int | None, int | None]:
    """(d(C), d(C^perp)), both counted on whichever of C and C^perp has
    fewer words (the dual at a tie; C^perp has dimension n - k, and its
    basis is built only when it is the code enumerated); (None, None) when
    both are too large to enumerate.

    Delsarte: the words of either code form an OA of strength exactly the
    other code's distance minus 1, so the smaller code gives its own
    distance by one weight pass and the other's by its strength.  That
    strength search is bounded by `config.STRENGTH_WORK_CAP`; past it the
    other distance is None.
    """
    if code.k == code.n:
        return 1, code.n + 1   # full-space code: trivial dual, by convention
    if code.q**min(code.k, code.n - code.k) > config.ENUMERATION_CAP:
        return None, None
    smaller = code if code.k < code.n - code.k else code.dual()
    own = smaller.min_distance()
    strength = max_strength(smaller.codewords(), code.q)
    other = None if strength is None else 1 + strength
    return (own, other) if smaller is code else (other, own)


def _resolve_d_dual(code: LinearCode, override: int | None) -> int:
    if override is not None:
        return override
    d_dual = _code_distances(code)[1]
    if d_dual is None:
        raise ValueError("code and dual code too large to enumerate; pass "
                         "--d-dual (oa build) or --t (euler build)")
    return d_dual


def cmd_oa_build(args) -> int:
    code = read_code(args.code)
    oa = oa_from_code(code, _resolve_d_dual(code, args.d_dual))
    write_oa(args.out, oa)
    print(f"OA({oa.N}, {oa.n}, {oa.q}, {oa.t}) lambda = {oa.lam}")
    print(f"wrote {args.out}")
    return 0


def cmd_oa_verify(args) -> int:
    entries, header = read_oa_entries(args.infile)
    t = args.t if args.t is not None else header[3]
    result = verify_strength(entries, header[2], t)
    claims = (header,) if args.t is None else ()    # --t checks the array alone
    failure = file_failure(entries, result, t, *claims)
    if not isinstance(result, Violation):
        print(f"OK: strength {t} with lambda = {result}")
    return _fail_verify(failure) if failure else 0


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

def cmd_euler_build(args) -> int:
    if args.code is not None:
        code = read_code(args.code)
    else:
        if args.q is None or args.k is None:
            return _fail_input("need --code, or --q/--k (with optional --rows)")
        rows = args.rows if args.rows is not None else args.k
        if rows != args.k:
            return _fail_input("without --code only the identity generator is "
                               "supported, which needs rows == k")
        code = LinearCode(field_from_order(args.q), np.eye(args.k, dtype=np.int64))
    t = args.t if args.t is not None else _resolve_d_dual(code, None) - 1
    eoa = eulerian_oa_from_code(code, euler_cycle_full(code.field, code.k), t)
    write_eulerian_oa(args.out, eoa)
    print(f"Eulerian OA({eoa.oa.N}, {eoa.oa.n}, {eoa.oa.q}, {eoa.t}) "
          f"lambda = {eoa.oa.lam}, edge multiplicity = {eoa.edge_multiplicity}")
    print(f"wrote {args.out}")
    return 0


def cmd_euler_verify(args) -> int:
    entries, header, trailer = read_oa_file(args.infile)
    q = header[2]
    t = args.t
    if t is None:       # the Eulerian claim's t, else the header's
        t = trailer[0] if trailer is not None else header[3]
    result = verify_eulerian(entries, field_from_order(q), t)
    claims = (header, trailer) if args.t is None else ()
    failure = file_failure(entries, result, t, *claims)
    if not isinstance(result, Violation):
        full = all(len(g) == q**t for g in result.gensets.values())
        print(f"OK: Eulerian strength {t}, lambda = {result.lam}, edge multiplicity "
              f"= {result.edge_multiplicity}, generating sets "
              f"{'all full group' if full else 'proper subsets'}")
    return _fail_verify(failure) if failure else 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def cmd_schedule_export(args) -> int:
    sched = euler_schedule(read_eulerian_oa(args.oa), args.delta)
    write_schedule(args.out, sched)
    worst = verify_schedule(sched)
    used = np.flatnonzero(np.bincount(sched.index.astype(np.intp).ravel()))  # no numpy.ma
    max_h = np.linalg.norm(sched.table[used], 2, axis=(1, 2)).max()
    print(f"{sched.N} segments x {sched.n} qudits, T_c = {sched.cycle_time:g}, "
          f"max ||h|| = {max_h:.6f} (pi/delta = {np.pi / args.delta:.6f}), "
          f"unitary check {worst:.3e}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _sweep(oa, drift, base_tc: float, points: int):
    """Exact-propagator error against the environment-only target (the
    phase-aligned Frobenius distance), with the cycle time halved between
    runs; returns the fitted log-log slope."""
    errors = []
    times = []
    tc = base_tc
    for _ in range(points):
        sched = euler_schedule(oa, tc / oa.N)
        u = exact_evolution(drift, sched)
        lam, vec = np.linalg.eigh(drift.env_only)
        env_u = (vec * np.exp(-1j * lam * tc)) @ vec.conj().T
        target = np.kron(np.eye(drift.d**drift.n), env_u)
        errors.append(aligned_distance(u, target))
        times.append(tc)
        tc /= 2
    slope = float(np.polyfit(np.log(times), np.log(errors), 1)[0])
    return slope, times, errors


def cmd_sim(args) -> int:
    # a NaN tolerance would pass every residual: `residual > nan` is False
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        return _fail_input(f"--tol {args.tol:g} must be finite and >= 0")
    oa = read_oa(args.oa)
    field = field_from_order(oa.q)
    d = field.coord_dim()
    n = args.n if args.n is not None else oa.n
    if n != oa.n:
        return _fail_input(f"--n {n} does not match the array's {oa.n} rows")
    drift = (read_drift(args.drift) if args.drift is not None
             else random_drift(n, d, args.t, args.denv, args.seed))
    if not drift.terms:
        return _fail_input("drift file has no terms")
    if args.mode == "eulerian" and args.sweep_tc:
        dim = d**n * drift.d_env
        if args.sweep_tc < 2:
            return _fail_input("--sweep-tc needs at least 2 points for a slope")
        if dim > config.EVOLUTION_DIM_CAP:
            return _fail_input(f"sweep needs d^n*d_E <= "
                               f"{config.EVOLUTION_DIM_CAP}, got {dim}")

    tol = args.tol
    extra = {"mode": args.mode, "array": str(args.oa), "n": n, "d": d,
             "d_env": drift.d_env, "drift_arity": drift.max_arity,
             "seed": args.seed, "array_strength": oa.t}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.mode == "bangbang":
            if tol is None:
                tol = config.TOL_BANGBANG_RESIDUAL
            report = bangbang_average(oa, drift)
        else:
            if tol is None:
                tol = config.TOL_EULERIAN_RESIDUAL
            extra["delta"] = args.delta
            report = eulerian_average(oa, drift, args.delta,
                                      method=args.method, order=args.order)
            if args.sweep_tc:
                slope, times, errors = _sweep(oa, drift, args.sweep_base,
                                              args.sweep_tc)
                extra["sweep"] = {"slope": slope, "cycle_times": times,
                                  "errors": errors}
                print(f"convergence slope = {slope:.3f} over {times}")

    data = report_to_json(report, tol, extra)
    if args.report:
        Path(args.report).write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {args.report}")
    print(f"residual = {report.residual_norm:.3e} (tolerance {tol:g}), "
          f"env shift = {report.env_shift_norm:.3e}")
    if report.residual_norm > tol:
        message = f"residual {report.residual_norm:.3e} exceeds tolerance {tol:g}"
        if args.mode == "eulerian":
            euler = verify_eulerian(oa.entries, field, drift.max_arity)
            if isinstance(euler, Violation):
                message += (f"; the array is not Eulerian at strength "
                            f"{drift.max_arity}: {euler}")
        return _fail_verify(message)
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The eoa parser, built on the first call and shared by later ones:
    parse_args never changes it, and each call parses into a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="eoa",
        description="Eulerian orthogonal arrays from linear codes, with "
                    "decoupling-schedule export and averaging checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="build or inspect linear codes")
    code_sub = p_code.add_subparsers(dest="subcommand", required=True)
    p_ham = code_sub.add_parser("hamming", help="Hamming code or its dual")
    p_ham.add_argument("--q", type=int, required=True, help="field order")
    p_ham.add_argument("--m", type=int, required=True, help="redundancy")
    p_ham.add_argument("--dual", action="store_true",
                       help="write the dual (simplex-like) code instead")
    p_ham.add_argument("--out", required=True)
    p_ham.set_defaults(func=cmd_code_hamming)
    p_info = code_sub.add_parser("info", help="report [n, k, d_min, d_dual]")
    p_info.add_argument("--in", dest="infile", required=True)
    p_info.set_defaults(func=cmd_code_info)

    p_oa = sub.add_parser("oa", help="orthogonal arrays from codes")
    oa_sub = p_oa.add_subparsers(dest="subcommand", required=True)
    p_build = oa_sub.add_parser("build", help="codewords-as-columns array")
    p_build.add_argument("--code", required=True, help="CODE file")
    p_build.add_argument("--d-dual", type=int, default=None,
                         help="dual distance (else enumerated)")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_oa_build)
    p_verify = oa_sub.add_parser("verify", help="re-count an OA file")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--t", type=int, default=None,
                          help="strength to check (default: header claim)")
    p_verify.set_defaults(func=cmd_oa_verify)

    p_euler = sub.add_parser("euler", help="Eulerian orthogonal arrays")
    euler_sub = p_euler.add_subparsers(dest="subcommand", required=True)
    p_ebuild = euler_sub.add_parser("build", help="cycle + codewords array")
    p_ebuild.add_argument("--code", default=None, help="CODE file")
    p_ebuild.add_argument("--q", type=int, default=None)
    p_ebuild.add_argument("--k", type=int, default=None)
    p_ebuild.add_argument("--rows", type=int, default=None,
                          help="row count for the identity-generator toy case")
    p_ebuild.add_argument("--t", type=int, default=None)
    p_ebuild.add_argument("--out", required=True)
    p_ebuild.set_defaults(func=cmd_euler_build)
    p_everify = euler_sub.add_parser("verify", help="re-check the Euler property")
    p_everify.add_argument("--in", dest="infile", required=True)
    p_everify.add_argument("--t", type=int, default=None)
    p_everify.set_defaults(func=cmd_euler_verify)

    p_sched = sub.add_parser("schedule", help="bounded-control schedules")
    sched_sub = p_sched.add_subparsers(dest="subcommand", required=True)
    p_export = sched_sub.add_parser("export", help="per-segment Hamiltonians")
    p_export.add_argument("--oa", required=True, help="Eulerian OA file")
    p_export.add_argument("--delta", type=float, default=config.DEFAULT_DELTA)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_schedule_export)

    p_sim = sub.add_parser("sim", help="first-order averaging runs")
    sim_sub = p_sim.add_subparsers(dest="mode", required=True)
    for mode in ("bangbang", "eulerian"):
        p_mode = sim_sub.add_parser(mode)
        p_mode.add_argument("--oa", required=True, help="array file")
        p_mode.add_argument("--n", type=int, default=None)
        p_mode.add_argument("--t", type=int, default=2, help="drift term arity")
        p_mode.add_argument("--seed", type=int, default=0)
        p_mode.add_argument("--denv", type=int, default=1,
                            help="environment dimension (1 = closed system)")
        p_mode.add_argument("--drift", default=None, help="drift JSON file")
        p_mode.add_argument("--tol", type=float, default=None)
        p_mode.add_argument("--report", default=None, help="report JSON path")
        if mode == "eulerian":
            p_mode.add_argument("--delta", type=float, default=config.DEFAULT_DELTA)
            p_mode.add_argument("--method", choices=("exact", "quadrature"),
                                default="exact")
            p_mode.add_argument("--order", type=int, default=config.DEFAULT_QUAD_ORDER)
            p_mode.add_argument("--sweep-tc", type=int, default=0,
                                help="convergence sweep point count")
            p_mode.add_argument("--sweep-base", type=float, default=0.4,
                                help="largest cycle time in the sweep")
        p_mode.set_defaults(func=cmd_sim)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-1e-3" for an option: "--tol -1e-3" goes as "--tol=-1e-3"
    for i in reversed(range(1, len(argv))):
        if re.match(r"-\.?[0-9]", argv[i]) and re.fullmatch(r"--[^=]+", argv[i - 1]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:   # a built array failed its certificate
        return _fail_verify(str(exc))
    except (OSError, ValueError) as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
