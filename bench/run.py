"""eoa benchmark: time to a certified verdict on the ROADMAP ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: passes run one after another, each in a fresh
process (``bench/child.py``) with a fixed stage order, so no median mixes a
cold pass with a warm one.  A run first makes one set-up probe whose time
is dropped (the first import in a checkout compiles bytecode) and that
records provenance, then ``SETUP_PROBES`` more, then passes until
``--seconds`` have gone by.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer figures and their ratio to
the untraced ones gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  The full record of the run, with
every pass and its provenance, goes to ``.bench_out/``.  Exit code 0 when
a result is printed, 1 when a pass broke down, 2 when the program is not
there to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
RUN_LIMIT_S = 170        # every run, set-up and passes included, ends before this


class BenchError(RuntimeError):
    pass


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eoa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Spawns the passes of one run and keeps its deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        self.count += 1
        passdir = self.workdir / str(self.count)
        passdir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(passdir), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for a {mode} pass")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass exceeded the {RUN_LIMIT_S} s run limit")
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(lines[-1])


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    runner = Runner(workload, seed, workdir)
    provenance = runner.spawn("setup")["provenance"]
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    spans = OUT / f"{workload}.spans.jsonl"
    passes: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        if trace and len(traced) < len(passes):
            traced.append(runner.spawn("traced", spans))
        else:
            passes.append(runner.spawn("pass"))
        if time.monotonic() - start >= seconds and (traced or not trace):
            break
    setups += [p["setup_s"] for p in passes]
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)

    if not trace:
        values = {"verdict_s": median_of(passes, "verdict_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": median_of(passes, "peak_rss_mb")}
    else:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        for stage in passes[0]["stages"]:
            values[stage] = statistics.median(p["stages"][stage] for p in passes)
        values["failed_ops_frac"] = failed / attempted
        values["trace.overhead_frac"] = (median_of(traced, "verdict_s")
                                         / median_of(passes, "verdict_s") - 1)
    return {"values": values, "attempted": attempted, "failed": failed,
            "correct": all(p["correct"] for p in everything),
            "failures": sorted({f for p in everything for f in p["failures"]}),
            "provenance": provenance, "setup_samples": setups,
            "passes": passes, "traced_passes": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eoa" / "__init__.py").is_file():
        print(f"error: no eoa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = record.pop("values")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, source=source_identity(), result=result)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"], "source": record["source"],
                      "seed": args.seed, "failures": record["failures"]}))
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
