"""The benchmark's workloads: seeded inputs, timed stages and their checks.

A workload is a fixed sequence of stages.  A stage's ``run`` is timed; its
``check`` runs after the timer stops and compares every verdict with the
expected one in ``Checks``.  Gates are the constants of ``eoa.config`` and
the thresholds of ``tests/test_acceptance.py``; no tolerance is added here.

Library calls go through module attributes (``euler.verify_eulerian``, not
an imported name), so the traced pass sees them after rebinding.  Checks
call no traced library function, so they never show up in layer figures.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from eoa import cli, codes, config, decoupling, euler, gf, oa

# the package binds the name `weyl` to the function, so fetch the module
weyl = importlib.import_module("eoa.weyl")

DELTA = config.DEFAULT_DELTA
STRENGTH = 2            # every array here has strength t = 2 ...
HAMMING_DISTANCE = 3    # ... because the Hamming code's distance is 3
ARITY = 2               # two-body drifts
SINGLE_CYCLE_OPERATORS = 8

# thresholds of tests/test_acceptance.py
NEGATIVE_CONTROL_MIN = 1e-3
SWEEP_SLOPE = (1.7, 2.3)


class Checks:
    """Checked operations of one pass.

    Every expectation is one attempted operation; a mismatch is a failed
    one.  A wrong verdict (certificate, residual gate, the exit code of a
    verdict command, a negative control that passes) also makes the pass
    incorrect.  A wrong exit code on an input-error case of the CLI
    contract counts as failed without making the verdicts incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def expect(self, what: str, ok, verdict: bool = True) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.failures.append(what)
        if verdict:
            self.correct = False


def code_length(q: int, m: int) -> int:
    """n = (q^m - 1)/(q - 1), the Hamming code's length and the array's rows."""
    return (q**m - 1) // (q - 1)


@dataclass(frozen=True)
class Stage:
    name: str
    run: Callable[[dict], None]
    check: Callable[[dict, Checks], None]


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    m: int
    d_env: int | None           # None: no drift is averaged
    setup: Callable[[dict], None]
    stages: tuple[Stage, ...]

    def sizes(self) -> dict:
        q, m = self.q, self.m
        n = code_length(q, m)
        terms = None
        if self.d_env is not None:
            terms = math.comb(n, ARITY) * (2 if self.d_env > 1 else 1)
        return {"q": q, "m": m, "n": n, "N_bb": q**m, "N_eu": q ** (2 * m),
                "T": terms, "d_E": self.d_env,
                "edge_multiplicity": q ** (2 * m - 2 * STRENGTH)}

    def new_state(self, seed: int, workdir: Path, tracer, faults=()) -> dict:
        """Seeded inputs of one pass.  ``faults`` is for the self-test:
        "tamper" alters one symbol of the reread array, "wrong_exit" expects
        the wrong exit code from the 3-body negative control."""
        state = {"q": self.q, "m": self.m, "d_env": self.d_env, "seed": seed,
                 "workdir": workdir, "tracer": tracer, "faults": set(faults),
                 "files": {}, "health": {}}
        self.setup(state)
        return state


# ---------------------------------------------------------------------------
# Set-up: the seeded inputs
# ---------------------------------------------------------------------------

def _no_inputs(state: dict) -> None:
    pass


def _drift_inputs(state: dict) -> None:
    q, m = state["q"], state["m"]
    state["drift"] = decoupling.random_drift(code_length(q, m), math.isqrt(q), ARITY,
                                             state["d_env"], state["seed"])


def _qutrit_inputs(state: dict) -> None:
    _drift_inputs(state)
    rng = np.random.default_rng(state["seed"])
    state["operators"] = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                          for _ in range(SINGLE_CYCLE_OPERATORS)]


Q6_ARRAY = "OA 36 2 6 2 1\n{}\n{}\n".format(
    " ".join(str(j % 6) for j in range(36)), " ".join(str(j // 6) for j in range(36)))


def _cli_inputs(state: dict) -> None:
    state["permutation"] = np.random.default_rng(state["seed"]).permutation(256)
    (state["workdir"] / "q6.txt").write_text(Q6_ARRAY)


# ---------------------------------------------------------------------------
# Certify: field and Hamming order to a certified Eulerian OA
# ---------------------------------------------------------------------------

def _certify(state: dict) -> None:
    field_ = gf.field_from_order(state["q"])
    dual = codes.hamming_code(field_, state["m"]).dual()
    state["d_min"] = dual.min_distance()
    state["field"] = field_
    state["oa"] = oa.oa_from_code(dual, HAMMING_DISTANCE)
    cycle = euler.euler_cycle_full(field_, dual.k)
    state["eoa"] = euler.eulerian_oa_from_code(dual, cycle, STRENGTH)


def _check_certify(state: dict, checks: Checks) -> None:
    q, m = state["q"], state["m"]
    n = code_length(q, m)
    array, eoa_ = state["oa"], state["eoa"]
    checks.expect("d_min of the array code", state["d_min"] == q ** (m - 1))
    checks.expect("OA parameters", (array.N, array.n, array.t, array.lam)
                  == (q**m, n, STRENGTH, q ** (m - STRENGTH)))
    checks.expect("Eulerian OA parameters",
                  (eoa_.oa.N, eoa_.oa.n, eoa_.t, eoa_.oa.lam)
                  == (q ** (2 * m), n, STRENGTH, q ** (2 * m - STRENGTH)))
    checks.expect("edge multiplicity",
                  eoa_.edge_multiplicity == q ** (2 * m - 2 * STRENGTH))
    checks.expect("full-group generating set on every row pair",
                  len(eoa_.gensets) == math.comb(n, STRENGTH)
                  and all(len(g) == q**STRENGTH for g in eoa_.gensets.values()))


# ---------------------------------------------------------------------------
# Reverify: the text format round trip, which re-counts both certificates
# ---------------------------------------------------------------------------

def _reverify(state: dict) -> None:
    path = state["workdir"] / "eoa.txt"
    euler.write_eulerian_oa(path, state["eoa"])
    state["reread"] = euler.read_eulerian_oa(path)


def _check_reverify(state: dict, checks: Checks) -> None:
    path = state["workdir"] / "eoa.txt"
    state["files"]["euler_mb"] = path.stat().st_size / 1e6
    path.unlink()
    eoa_, back = state["eoa"], state["reread"]
    entries = back.entries
    if "tamper" in state["faults"]:
        entries = entries.copy()
        entries[0, 0] = (entries[0, 0] + 1) % eoa_.oa.q
    checks.expect("reread array equals the certified one",
                  np.array_equal(entries, eoa_.entries))
    checks.expect("reread certificate",
                  (back.t, back.oa.lam, back.edge_multiplicity)
                  == (eoa_.t, eoa_.oa.lam, eoa_.edge_multiplicity))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _transitions(state: dict) -> np.ndarray:
    field_, entries = state["field"], state["eoa"].entries
    return field_.add_table[np.roll(entries, -1, axis=1), field_.neg_table[entries]]


def _check_segments(state: dict, checks: Checks, sched) -> None:
    """Labels follow the array's transitions and each transition symbol has
    one Hamiltonian, which realizes its Weyl unitary with norm <= pi/delta."""
    field_ = state["field"]
    d = field_.coord_dim()
    diff = _transitions(state).T                          # (N, n)
    checks.expect("schedule shape", (sched.N, sched.n, sched.d, sched.delta)
                  == (diff.shape[0], diff.shape[1], d, DELTA))
    labelled = uniform = True
    worst = 0.0
    largest = 0.0
    for e in range(field_.q):             # one symbol at a time keeps memory low
        mask = diff == e
        if not mask.any():
            continue
        labelled = labelled and bool(np.all(sched.labels[mask] == field_.coords(e)))
        h = sched.hams[np.unravel_index(np.argmax(mask), mask.shape)]
        uniform = uniform and bool(np.all(sched.hams[mask] == h))
        lam, vec = np.linalg.eigh(h)
        u = (vec * np.exp(-1j * lam * DELTA)) @ vec.conj().T
        worst = max(worst, weyl.aligned_distance(u, weyl.weyl_from_field(field_, e)))
        largest = max(largest, float(np.abs(lam).max()))
    checks.expect("schedule labels follow the transitions", labelled)
    checks.expect("one Hamiltonian per transition symbol", uniform)
    checks.expect("segment Hamiltonians realize their unitaries",
                  worst <= config.EPS_MAT)
    checks.expect("control strength bounded by pi/delta",
                  largest <= np.pi / DELTA * (1 + config.EPS_MAT))


def _schedule(state: dict) -> None:
    state["schedule"] = decoupling.euler_schedule(state["eoa"], DELTA)


def _check_schedule(state: dict, checks: Checks) -> None:
    _check_segments(state, checks, state.pop("schedule"))


def _schedule_export(state: dict) -> None:
    path = state["workdir"] / "schedule.json"
    sched = decoupling.euler_schedule(state["eoa"], DELTA)
    decoupling.write_schedule(path, sched)
    back = decoupling.read_schedule(path)
    state["schedule_worst"] = decoupling.verify_schedule(back)
    state["schedule"], state["schedule_back"] = sched, back


def _check_schedule_export(state: dict, checks: Checks) -> None:
    path = state["workdir"] / "schedule.json"
    state["files"]["schedule_mb"] = path.stat().st_size / 1e6
    path.unlink()
    sched, back = state.pop("schedule"), state.pop("schedule_back")
    _check_segments(state, checks, sched)
    checks.expect("schedule file round trip is exact",
                  np.array_equal(back.labels, sched.labels)
                  and np.array_equal(back.hams, sched.hams))
    checks.expect("verify_schedule on the reread schedule",
                  state["schedule_worst"] <= config.EPS_MAT)


# ---------------------------------------------------------------------------
# Averaging verdicts
# ---------------------------------------------------------------------------

def _bangbang(state: dict) -> None:
    state["bangbang"] = decoupling.bangbang_average(state["oa"], state["drift"])


def _check_average(state: dict, checks: Checks, key: str, tolerance: float) -> None:
    report = state[key]
    checks.expect(f"{key} residual", report.residual_norm <= tolerance)
    checks.expect(f"{key} environment shift",
                  report.env_shift_norm <= config.TOL_ENV_PASSTHROUGH)
    health = state["health"]
    health[f"residual_{key}"] = report.residual_norm
    health["env_shift"] = max(health.get("env_shift", 0.0), report.env_shift_norm)


def _check_bangbang(state: dict, checks: Checks) -> None:
    _check_average(state, checks, "bangbang", config.TOL_BANGBANG_RESIDUAL)


def _eulerian(state: dict) -> None:
    state["eulerian"] = decoupling.eulerian_average(state["eoa"], state["drift"],
                                                    DELTA, method="exact")


def _check_eulerian(state: dict, checks: Checks) -> None:
    _check_average(state, checks, "eulerian", config.TOL_EULERIAN_RESIDUAL)


def _single_cycle(state: dict) -> None:
    """Single-qudit cycle over GF(9) against the group average and F_S."""
    field_ = state["field"]
    d = field_.coord_dim()
    cycle = euler.euler_cycle_full(field_, 1)
    labels = [field_.coords(e) for e in range(field_.q)]
    state["single_cycle"] = [
        (x, decoupling.single_cycle_average(cycle, x, DELTA),
         weyl.group_average(d, x),
         weyl.group_average(d, decoupling.fs_map(d, labels, x, DELTA)))
        for x in state["operators"]]


def _check_single_cycle(state: dict, checks: Checks) -> None:
    d = state["field"].coord_dim()
    direct = decomposed = irreducible = 0.0
    for x, action, group, via_fs in state["single_cycle"]:
        direct = max(direct, weyl.frob(action - group))
        decomposed = max(decomposed, weyl.frob(action - via_fs))
        irreducible = max(irreducible,
                          weyl.frob(group - np.trace(x) / d * np.eye(d)))
    checks.expect("single-qudit cycle equals the group average",
                  direct <= config.TOL_SINGLE_CYCLE)
    checks.expect("single-qudit cycle decomposes through F_S",
                  decomposed <= config.TOL_SINGLE_CYCLE)
    checks.expect("group average is tr(X)/d I", irreducible <= config.TOL_GROUP_AVERAGE)


def distinct_pairs(state: dict) -> tuple[int, float]:
    """Distinct (vertex, transition) pairs summed over the drift's terms,
    and the term-segment count T*N over that sum.

    The vertex of column j is g_j - g_0 restricted to the term's support
    (the control prefix up to a phase); its transition is g_{j+1} - g_j.
    """
    field_, entries, terms = state["field"], state["eoa"].entries, state["drift"].terms
    q = field_.q
    vertex = field_.add_table[entries, field_.neg_table[entries[:, :1]]]
    diff = _transitions(state)
    per_support: dict[tuple[int, ...], int] = {}
    total = 0
    for term in terms:
        if term.support not in per_support:
            key = np.zeros(entries.shape[1], dtype=np.int64)
            for k in term.support:
                key = (key * q + vertex[k]) * q + diff[k]
            per_support[term.support] = int(np.unique(key).size)
        total += per_support[term.support]
    return total, len(terms) * entries.shape[1] / total


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit: int
    verdict: bool = True        # False: an input-error case of the contract
    tag: str = ""               # names the outputs that checks read

    @property
    def span(self) -> str:
        return "cli." + "_".join(self.argv[:2])


def _session(state: dict) -> list[Command | str]:
    """The README session plus negative controls and the exit-2 contract.

    The string "shuffle" marks where the seeded column-shuffled copy of the
    Eulerian array is written.
    """
    w, seed = state["workdir"], str(state["seed"])

    def c(line: str, exit_code: int = 0, verdict: bool = True, tag: str = "") -> Command:
        argv = tuple(word.format(w=w, seed=seed) for word in line.split())
        return Command(argv, exit_code, verdict, tag)

    sim = "--n 5 --t 2 --seed {seed} --denv 2"
    return [
        c("code hamming --q 4 --m 2 --dual --out {w}/dual.txt", tag="hamming"),
        c("code info --in {w}/dual.txt"),
        c("oa build --code {w}/dual.txt --out {w}/oa16.txt", tag="oa_build"),
        c("oa verify --in {w}/oa16.txt --t 1", tag="oa_verify"),
        c("euler build --code {w}/dual.txt --out {w}/eoa256.txt", tag="euler_build"),
        c("euler verify --in {w}/eoa256.txt", tag="euler_verify"),
        c("euler build --q 2 --k 1 --rows 1 --out {w}/toy.txt"),
        c("schedule export --oa {w}/eoa256.txt --delta 0.1 --out {w}/sched.json",
          tag="export"),
        c("sim bangbang --oa {w}/oa16.txt " + sim + " --report {w}/bb.json"),
        c("sim eulerian --oa {w}/eoa256.txt " + sim + " --report {w}/eu.json"),
        c("sim eulerian --oa {w}/eoa256.txt " + sim
          + " --method quadrature --report {w}/euq.json"),
        c("sim eulerian --oa {w}/eoa256.txt " + sim + " --sweep-tc 3", tag="sweep"),
        # negative controls: the 3-body drift and the column shuffle
        c("sim bangbang --oa {w}/oa16.txt --n 5 --t 3 --seed {seed}", 1,
          tag="three_body"),
        "shuffle",
        c("sim eulerian --oa {w}/shuffled.txt " + sim, 1, tag="shuffled"),
        # exit-2 contract: eight inputs that exit 1 with a traceback at the
        # commit that defined this benchmark, then two that already exit 2
        c("euler verify --in {w}/q6.txt", 2, False),
        c("oa verify --in {w}/oa16.txt --t 0", 2, False),
        c("oa verify --in {w}/oa16.txt --t 9", 2, False),
        c("sim bangbang --oa {w}/oa16.txt --n 5 --t 0 --seed {seed}", 2, False),
        c("sim bangbang --oa {w}/oa16.txt --n 5 --t 2 --seed {seed} --denv 0", 2, False),
        c("sim eulerian --oa {w}/eoa256.txt " + sim + " --delta 0", 2, False),
        c("schedule export --oa {w}/eoa256.txt --delta 0 --out {w}/sched0.json", 2, False),
        c("sim eulerian --oa {w}/eoa256.txt " + sim
          + " --method quadrature --order 0", 2, False),
        c("oa verify --in {w}/missing.txt", 2, False),
        c("sim bangbang --oa {w}/oa16.txt --n 6", 2, False),
    ]


def _invoke(argv) -> tuple[int, str]:
    """Exit code and combined output of one in-process CLI call.

    An exception escaping ``main`` is what a shell sees as exit 1 with a
    traceback, so it is recorded that way.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=out)
            code = 1
    return code, out.getvalue()


def _shuffle_columns(state: dict) -> None:
    """Write the Eulerian array with seeded column order as a plain OA file."""
    w = state["workdir"]
    lines = (w / "eoa256.txt").read_text().splitlines()
    perm = state["permutation"]
    rows = [" ".join(np.array(ln.split())[perm]) for ln in lines[1:-1]]
    (w / "shuffled.txt").write_text("\n".join([lines[0]] + rows) + "\n")


def _cli_session(state: dict) -> None:
    tracer = state["tracer"]
    outcomes = state["outcomes"] = []
    for command in _session(state):
        if command == "shuffle":
            _shuffle_columns(state)
            continue
        with tracer.span(command.span):
            code, output = _invoke(command.argv)
        outcomes.append((command, code, output))


def _number_after(label: str, text: str) -> float:
    match = re.search(label + r"\s*=?\s*([-+0-9.eE]+)", text)
    return float(match.group(1)) if match else float("nan")


def _check_cli_session(state: dict, checks: Checks) -> None:
    w = state["workdir"]
    mismatches = 0
    outputs = {}
    for command, code, output in state["outcomes"]:
        expected = command.exit
        if command.tag == "three_body" and "wrong_exit" in state["faults"]:
            expected = 0
        mismatches += code != expected
        shown = " ".join(command.argv).replace(f"{w}/", "")
        checks.expect(f"exit {code}, expected {expected}: eoa {shown}",
                      code == expected, command.verdict)
        outputs[command.tag] = output
    state["exit_mismatches"] = mismatches

    checks.expect("code report [5, 2, 4, 3]", "[5, 2, 4, 3]" in outputs["hamming"])
    checks.expect("OA(16, 5, 4, 2) lambda = 1",
                  "OA(16, 5, 4, 2) lambda = 1" in outputs["oa_build"])
    checks.expect("strength 1 with lambda = 4", "lambda = 4" in outputs["oa_verify"])
    checks.expect("Eulerian OA edge multiplicity 1",
                  "edge multiplicity = 1" in outputs["euler_build"]
                  and "all full group" in outputs["euler_verify"])
    checks.expect("schedule unitary check",
                  _number_after("unitary check", outputs["export"]) <= config.EPS_MAT)
    reports = {}
    for name in ("bb", "eu", "euq"):
        path = w / f"{name}.json"
        reports[name] = json.loads(path.read_text()) if path.exists() else {}
    for name, tolerance in (("bb", config.TOL_BANGBANG_RESIDUAL),
                            ("eu", config.TOL_EULERIAN_RESIDUAL),
                            ("euq", config.TOL_EULERIAN_RESIDUAL)):
        report = reports[name]
        checks.expect(f"{name}.json passes its gate",
                      report.get("passed") is True
                      and report["residual_norm"] <= tolerance
                      and report["env_shift_norm"] <= config.TOL_ENV_PASSTHROUGH)
    gap = abs(reports["eu"].get("residual_norm", np.nan)
              - reports["euq"].get("residual_norm", np.nan))
    checks.expect("exact and quadrature backends agree",
                  gap <= config.TOL_BACKEND_AGREEMENT)
    slope = _number_after("convergence slope", outputs["sweep"])
    checks.expect("first-order convergence slope",
                  SWEEP_SLOPE[0] <= slope <= SWEEP_SLOPE[1])
    checks.expect("3-body negative control survives",
                  _number_after("residual", outputs["three_body"]) > NEGATIVE_CONTROL_MIN)
    checks.expect("column-shuffle negative control survives",
                  _number_after("residual", outputs["shuffled"]) > NEGATIVE_CONTROL_MIN)

    health = state["health"]
    health["residual_bangbang"] = reports["bb"].get("residual_norm", np.nan)
    health["residual_eulerian"] = reports["eu"].get("residual_norm", np.nan)
    health["env_shift"] = max(r.get("env_shift_norm", np.nan) for r in reports.values())
    health["backend_gap"] = gap
    state["files"]["euler_mb"] = (w / "eoa256.txt").stat().st_size / 1e6
    state["files"]["schedule_mb"] = (w / "sched.json").stat().st_size / 1e6


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

CERTIFY = Stage("certify", _certify, _check_certify)
BANGBANG = Stage("bangbang", _bangbang, _check_bangbang)
EULERIAN = Stage("eulerian", _eulerian, _check_eulerian)

# why each workload is in the set: README.md in this directory
WORKLOADS = {w.name: w for w in (
    Workload("construct-q4-m4", 4, 4, None, _no_inputs,
             (CERTIFY, Stage("reverify", _reverify, _check_reverify),
              Stage("schedule", _schedule, _check_schedule))),
    Workload("average-q4-m3", 4, 3, 2, _drift_inputs,
             (CERTIFY, BANGBANG, EULERIAN)),
    Workload("qutrit-q9-m2", 9, 2, 2, _qutrit_inputs,
             (CERTIFY, BANGBANG, EULERIAN,
              Stage("schedule_export", _schedule_export, _check_schedule_export),
              Stage("single_cycle", _single_cycle, _check_single_cycle))),
    Workload("cli-q4-m2", 4, 2, 2, _cli_inputs,
             (Stage("cli_session", _cli_session, _check_cli_session),)),
)}

# stage name -> per-layer metric holding its median time
STAGE_METRICS = {
    "certify": "certify_s",
    "reverify": "reverify_s",
    "schedule": "schedule_s",
    "schedule_export": "schedule_export_s",
    "bangbang": "bangbang_verdict_s",
    "eulerian": "eulerian_verdict_s",
    "cli_session": "cli_session_s",
}
