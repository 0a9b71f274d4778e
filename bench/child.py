"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 bench/child.py --workload NAME --seed N --workdir DIR --mode MODE

``setup`` stops after set-up (``import eoa`` and the seeded inputs) and
reports the set-up time and the provenance of the process.  ``pass`` runs
the workload's stages untraced.  ``traced`` runs them with library spans,
writes the spans to ``--spans`` and reports the per-layer figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def provenance() -> dict:
    """Library versions, BLAS build and threads, and the environment the
    program reads for its own defaults (recorded, never set)."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    from eoa import config

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "EOA_THREADS": os.environ.get("EOA_THREADS"),
        "eoa_worker_count": config.worker_count(),
        "malloc_env": {k: v for k, v in os.environ.items()
                       if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def layer_metrics(summary: dict, counts: dict, state: dict) -> dict:
    """Per-layer figures of one traced pass, by their benchmark names."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    verify_s = total("euler.verify_eulerian")
    eulerian_s = total("decoupling.eulerian_average")
    quadrature_s = total("decoupling.eulerian_average.quadrature")
    segments = counts.get("decoupling.term_segments", 0)
    health = state["health"]
    metrics = {
        "oa.verify_strength_s": total("oa.verify_strength"),
        "oa.subsets_counted": counts.get("oa.subsets", 0),
        "euler.verify_s": verify_s,
        "euler.pairs_counted": counts.get("euler.pairs", 0),
        "euler.pairs_per_s": counts.get("euler.pairs", 0) / verify_s if verify_s else 0.0,
        "euler.build_self_s": self_time("euler.eulerian_oa_from_code"),
        "euler.read_self_s": self_time("euler.read_eulerian_oa"),
        "euler.file_mb": state["files"].get("euler_mb", 0.0),
        "euler.cycle_s": total("euler.euler_cycle_full"),
        "gf.field_calls": calls("gf.gf_new"),
        "gf.field_s": total("gf.gf_new"),
        "codes.build_s": total("codes.hamming_code") + total("codes.LinearCode.dual"),
        "codes.min_distance_s": total("codes.LinearCode.min_distance"),
        "weyl.embed_calls": calls("weyl.embed"),
        "weyl.embed_s": total("weyl.embed"),
        "weyl.group_average_s": total("weyl.group_average"),
        "decoupling.bangbang_s": total("decoupling.bangbang_average"),
        "decoupling.terms": counts.get("decoupling.terms", 0),
        "decoupling.residual_pairs": counts.get("decoupling.residual_pairs", 0),
        "decoupling.eulerian_s": eulerian_s,
        "decoupling.quadrature_s": quadrature_s,
        "decoupling.term_segments": segments,
        "decoupling.term_segments_per_s": (segments / (eulerian_s + quadrature_s)
                                           if segments else 0.0),
        "decoupling.distinct_pairs": state.get("distinct_pairs", 0),
        "decoupling.sharing_ratio": state.get("sharing_ratio", 0.0),
        "decoupling.schedule_s": total("decoupling.euler_schedule"),
        "decoupling.verify_schedule_s": total("decoupling.verify_schedule"),
        "decoupling.write_schedule_s": total("decoupling.write_schedule"),
        "decoupling.read_schedule_s": total("decoupling.read_schedule"),
        "decoupling.schedule_mb": state["files"].get("schedule_mb", 0.0),
        "decoupling.exact_evolution_s": total("decoupling.exact_evolution"),
        "decoupling.single_cycle_s": total("decoupling.single_cycle_average"),
        "decoupling.residual_bb": health.get("residual_bangbang", 0.0),
        "decoupling.residual_eu": health.get("residual_eulerian", 0.0),
        "decoupling.env_shift": health.get("env_shift", 0.0),
        "decoupling.backend_gap": health.get("backend_gap", 0.0),
        "cli.exit_mismatches": state.get("exit_mismatches", 0),
    }
    for command in ("code_hamming", "code_info", "oa_build", "oa_verify",
                    "euler_build", "euler_verify", "schedule_export",
                    "sim_bangbang", "sim_eulerian"):
        metrics[f"cli.{command}_s"] = total(f"cli.{command}")
    return metrics


def verify_speedup_2t(state: dict) -> float:
    """Serial over two-worker time of one verify_eulerian on the certified
    array.  The worker count is rebound in this process only; the
    environment is left as it is."""
    from eoa import config, euler

    if "eoa" not in state:
        return 0.0
    entries, field, t = state["eoa"].entries, state["field"], state["eoa"].t
    start = time.perf_counter()
    euler.verify_eulerian(entries, field, t)
    serial = time.perf_counter() - start
    worker_count = config.worker_count
    config.worker_count = lambda: min(2, len(os.sched_getaffinity(0)))
    try:
        start = time.perf_counter()
        euler.verify_eulerian(entries, field, t)
        threaded = time.perf_counter() - start
    finally:
        config.worker_count = worker_count
    return serial / threaded


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import eoa  # noqa: F401  (part of set-up)
    from tracing import NULL_TRACER, Tracer, instrument, restore
    from workloads import STAGE_METRICS, WORKLOADS, Checks, distinct_pairs

    workload = WORKLOADS[args.workload]
    traced = args.mode == "traced"
    tracer = Tracer() if traced else NULL_TRACER
    undo = instrument(tracer) if traced else []
    state = workload.new_state(args.seed, args.workdir, tracer)
    result = {"setup_s": time.perf_counter() - START}
    if args.mode == "setup":
        result["provenance"] = {**provenance(), "sizes": workload.sizes()}
        print(json.dumps(result))
        return 0

    checks = Checks()
    stages = {}
    for stage in workload.stages:
        start = time.perf_counter()
        try:
            with tracer.span("stage." + stage.name):
                stage.run(state)
            stages[stage.name] = time.perf_counter() - start
            stage.check(state, checks)
        except Exception as exc:  # the program failed: count it, stop the pass
            checks.expect(f"{stage.name}: {type(exc).__name__}: {exc}", False)
            break
    result.update(
        verdict_s=sum(stages.values()),
        stages={**dict.fromkeys(STAGE_METRICS.values(), 0.0),
                **{STAGE_METRICS.get(name, name): t for name, t in stages.items()}},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted, failed=checks.failed,
        correct=checks.correct, failures=checks.failures)

    if traced:
        restore(undo)
        if "eulerian" in state:
            state["distinct_pairs"], state["sharing_ratio"] = distinct_pairs(state)
        layers = layer_metrics(tracer.summary(), tracer.counts, state)
        layers["euler.verify_speedup_2t"] = verify_speedup_2t(state)
        result["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
