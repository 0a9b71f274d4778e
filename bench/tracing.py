"""In-memory spans for the benchmark's traced pass.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span, or -1.  Spans stay in memory while the pass runs and are
written once, when it ends.  Library calls get spans by rebinding public
names of the ``eoa`` modules in the traced process only; the untraced pass
runs the library untouched and uses ``NULL_TRACER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


class Tracer:
    """Span recorder with named counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name, fn, count=None):
        """``fn`` with a span around each call.

        ``name`` is a string, or a function of the bound arguments that
        returns one.  ``count(counts, arguments)`` adds work counts before
        the span opens, so its cost lands in the caller's self time.
        """
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if (count or callable(name)) else None

        if signature is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[index][2] = perf_counter()
                    stack.pop()
            return traced

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if count is not None:
                count(self.counts, bound.arguments)
            label = name(bound.arguments) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)
        return traced_counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f'["{name}", {start:.9f}, {end:.9f}, {parent}]\n')


class _NullTracer:
    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()


# ---------------------------------------------------------------------------
# Rebinding of library names (traced process only)
# ---------------------------------------------------------------------------

# span name -> (eoa module, attribute).  Every module namespace of the
# package that binds the same function object is rebound, so calls made
# inside the library (oa_from_code -> verify_strength, cli -> everything it
# imports, decoupling -> embed) get spans too.
TRACED_FUNCTIONS = {
    "gf.field_from_order": ("gf", "field_from_order"),
    "gf.gf_new": ("gf", "gf_new"),
    "codes.hamming_code": ("codes", "hamming_code"),
    "codes.read_code": ("codes", "read_code"),
    "codes.write_code": ("codes", "write_code"),
    "oa.verify_strength": ("oa", "verify_strength"),
    "oa.oa_from_code": ("oa", "oa_from_code"),
    "oa.read_oa_entries": ("oa", "read_oa_entries"),
    "oa.write_oa": ("oa", "write_oa"),
    "euler.euler_cycle_full": ("euler", "euler_cycle_full"),
    "euler.verify_eulerian": ("euler", "verify_eulerian"),
    "euler.eulerian_oa_from_code": ("euler", "eulerian_oa_from_code"),
    "euler.write_eulerian_oa": ("euler", "write_eulerian_oa"),
    "euler.read_eulerian_oa": ("euler", "read_eulerian_oa"),
    "weyl.embed": ("weyl", "embed"),
    "weyl.group_average": ("weyl", "group_average"),
    "weyl.phase_distance": ("weyl", "phase_distance"),
    "decoupling.random_drift": ("decoupling", "random_drift"),
    "decoupling.read_drift": ("decoupling", "read_drift"),
    "decoupling.bangbang_average": ("decoupling", "bangbang_average"),
    "decoupling.eulerian_average": ("decoupling", "eulerian_average"),
    "decoupling.euler_schedule": ("decoupling", "euler_schedule"),
    "decoupling.exact_evolution": ("decoupling", "exact_evolution"),
    "decoupling.single_cycle_average": ("decoupling", "single_cycle_average"),
    "decoupling.fs_map": ("decoupling", "fs_map"),
    "decoupling.write_schedule": ("decoupling", "write_schedule"),
    "decoupling.read_schedule": ("decoupling", "read_schedule"),
    "decoupling.verify_schedule": ("decoupling", "verify_schedule"),
    "decoupling.report_to_json": ("decoupling", "report_to_json"),
}

TRACED_METHODS = {
    "codes.LinearCode.dual": ("codes", "LinearCode", "dual"),
    "codes.LinearCode.min_distance": ("codes", "LinearCode", "min_distance"),
}


def _count_strength(counts, a):
    counts["oa.subsets"] += math.comb(a["entries"].shape[0], a["t"])


def _count_eulerian(counts, a):
    n, N = a["entries"].shape
    counts["euler.pairs"] += math.comb(n, a["t"]) * N


def _drift_terms(counts, a):
    terms = len(a["drift"].terms)
    counts["decoupling.terms"] += terms
    # the residual norm takes an inner product for every term pair i <= j
    counts["decoupling.residual_pairs"] += terms * (terms + 1) // 2
    return terms


def _count_eulerian_average(counts, a):
    m = a["m"]
    entries = m[0] if isinstance(m, tuple) else m.entries
    counts["decoupling.term_segments"] += _drift_terms(counts, a) * entries.shape[1]


def _eulerian_average_name(a):
    if a["method"] == "exact":
        return "decoupling.eulerian_average"
    return "decoupling.eulerian_average." + a["method"]


COUNTERS = {
    "oa.verify_strength": _count_strength,
    "euler.verify_eulerian": _count_eulerian,
    "decoupling.bangbang_average": _drift_terms,
    "decoupling.eulerian_average": _count_eulerian_average,
}

SPAN_NAMES = {"decoupling.eulerian_average": _eulerian_average_name}


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind the traced library names; returns what ``restore`` undoes."""
    import eoa
    from eoa import cli, codes, decoupling, euler, gf, oa
    weyl = importlib.import_module("eoa.weyl")   # eoa.weyl is the function

    modules = {"gf": gf, "codes": codes, "oa": oa, "euler": euler,
               "weyl": weyl, "decoupling": decoupling}
    namespaces = (eoa, gf, codes, oa, euler, weyl, decoupling, cli)
    undo = []
    for name, (module, attr) in TRACED_FUNCTIONS.items():
        original = getattr(modules[module], attr)
        wrapper = tracer.wrap(SPAN_NAMES.get(name, name), original,
                              COUNTERS.get(name))
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    undo.append((namespace, key, original))
                    setattr(namespace, key, wrapper)
    for name, (module, cls_name, attr) in TRACED_METHODS.items():
        cls = getattr(modules[module], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))
    return undo


def restore(undo) -> None:
    for namespace, key, original in reversed(undo):
        setattr(namespace, key, original)
