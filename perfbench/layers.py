"""Outside-in layer tracing for the jmoduli benchmark.

The tracer wraps public functions of the program's modules from here,
without touching the program: every module-level binding of a wrapped
function is rebound (``from .groebner import normal_form`` leaves a
separate name in ``jacobian``, ``extended`` and ``cli``), and methods are
patched on their class.  Each call records a span (name, start, end,
parent span, job id) in flat arrays, so a run of a few hundred thousand
spans stays small in memory; the spans are written out at the end.

A name a later refactor removes is reported as absent instead of failing
the run, and a counter whose observer no longer understands a changed
signature or return value is reported as unobservable.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path


def _buchberger(counts, args, kwargs, result):
    counts["basis_len"] += len(result)


def _normal_form(counts, args, kwargs, result):
    counts["zero"] += not result


def _span_add(counts, args, kwargs, result):
    counts["accepted"] += bool(result)


def _rref(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counts["cells"] += sum(len(row) for row in rows)
    counts["nnz"] += sum(1 for row in rows for value in row if value)


def _graded_piece(counts, args, kwargs, result):
    counts["basis_len"] += len(result.basis)


# (module, attribute, observer).  Attributes with a dot are methods,
# patched on the class.  polys.degrevlex_key is left out on purpose: it
# is the sort key inside every reduction step, so a wrapper there would
# measure mostly itself.
TARGETS = (
    ("polys", "parse_polynomial", None),
    ("polys", "render_polynomial", None),
    ("polys", "monomials_of_weight", None),
    ("polys", "Polynomial.__mul__", None),
    ("groebner", "spolynomial", None),
    ("groebner", "normal_form", _normal_form),
    ("groebner", "buchberger", _buchberger),
    ("groebner", "is_zero_dimensional", None),
    ("groebner", "standard_monomials", None),
    ("linalg", "rref", _rref),
    ("linalg", "rank_of", None),
    ("linalg", "Span.add", _span_add),
    ("linalg", "Span.expand", None),
    ("linalg", "Span.contains", None),
    ("jacobian", "jacobian_ideal", None),
    ("jacobian", "jacobian_gb", None),
    ("jacobian", "is_nonsingular", None),
    ("jacobian", "graded_quotient", None),
    ("jacobian", "deformed_subalgebra", None),
    ("jacobian", "weight_of_or_none", None),
    ("extended", "build_extended", None),
    ("extended", "build_extended_deformed", None),
    ("extended", "verify_dimension_equality", None),
    ("extended", "to_json_dict", None),
    ("dgla", "cohomology_report", None),
    ("dgla", "graded_piece", _graded_piece),
    ("dgla", "d_f_apply", None),
    ("cli", "main", None),
)
PACKAGE = "jmoduli"
MODULES = ("polys", "groebner", "linalg", "jacobian", "extended", "dgla", "cli")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__mul__', '.mul')}"


# Per-layer metrics of a traced run: name -> unit.
# "calls" and "self_s" come from the spans; the rest from counters.
PER_LAYER = {
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "groebner.buchberger.basis_len": "count",
    "groebner.spolynomial.calls": "count",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.self_s": "s",
    "groebner.normal_form.zero_ratio": "ratio",
    "groebner.standard_monomials.self_s": "s",
    "polys.Polynomial.mul.calls": "count",
    "polys.Polynomial.mul.self_s": "s",
    "polys.parse_polynomial.self_s": "s",
    "jacobian.graded_quotient.calls": "count",
    "jacobian.graded_quotient.self_s": "s",
    "jacobian.deformed_subalgebra.calls": "count",
    "jacobian.deformed_subalgebra.self_s": "s",
    "linalg.Span.add.calls": "count",
    "linalg.Span.add.self_s": "s",
    "linalg.Span.add.accept_ratio": "ratio",
    "linalg.Span.expand.calls": "count",
    "linalg.Span.expand.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.rref.nnz": "count",
    "extended.build_extended.self_s": "s",
    "extended.build_extended_deformed.self_s": "s",
    "extended.verify_dimension_equality.self_s": "s",
    "extended.to_json_dict.self_s": "s",
    "dgla.cohomology_report.self_s": "s",
    "dgla.graded_piece.self_s": "s",
    "dgla.graded_piece.basis_len": "count",
    "dgla.d_f_apply.calls": "count",
    "dgla.d_f_apply.self_s": "s",
    "cli.main.self_s": "s",
}
PER_LAYER.update({f"self_share.{m}": "ratio" for m in MODULES})
# Ratio metrics: suffix -> the counter divided by the span's call count.
RATIOS = {"zero_ratio": "zero", "accept_ratio": "accepted"}


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: list[dict] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.job = -1
        self.absent: list[str] = []
        self.unobservable: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # installation --------------------------------------------------------

    def _bindings(self, original) -> list[tuple[object, str]]:
        out = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    out.append((module, key))
        return out

    def _discover(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every binding to patch."""
        patches = []
        for modname, attr, observer in TARGETS:
            name = span_name(modname, attr)
            try:
                module = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                holders = [(owner, method)]
            else:
                original = getattr(module, attr, None)
                holders = self._bindings(original) if callable(original) else []
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, observer)
            patches += [(holder, key, original, wrapper) for holder, key in holders]
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._discover()
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches or ():
            setattr(holder, key, original)

    @contextlib.contextmanager
    def recording(self, job: int):
        """Trace the calls made inside the block as spans of job."""
        self.job = job
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.job = -1

    def _wrap(self, name: str, fn, observer):
        nid = len(self.names)
        self.names.append(name)
        counts = dict.fromkeys(("zero", "accepted", "basis_len", "cells", "nnz"), 0)
        self.counts.append(counts)
        tracer = self
        stack = self._stack
        names_a, parent_a, job_a = self.span_name, self.span_parent, self.span_job
        start_a, end_a = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names_a)
            names_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            job_a.append(tracer.job)
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if observer is not None and name not in tracer.unobservable:
                try:
                    observer(counts, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    tracer.unobservable.add(name)
            return result

        return wrapper

    # aggregation ---------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """name -> {"calls", "self_s", counters...}; self time is the span's
        duration minus the durations of its direct children."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += dur
            parent = parents[i]
            if parent >= 0:
                self_ns[names[parent]] -= dur
        out = {}
        for nid, name in enumerate(self.names):
            entry = dict(self.counts[nid])
            entry["calls"] = calls[nid]
            entry["self_s"] = self_ns[nid] / 1e9
            out[name] = entry
        return out

    def root_names(self) -> set[str]:
        return {self.names[self.span_name[i]]
                for i in range(len(self.span_name)) if self.span_parent[i] < 0}

    def metrics(self) -> dict[str, dict]:
        """Every PER_LAYER metric; an absent name reads as 0."""
        agg = self.per_name()
        total_s = sum(e["self_s"] for e in agg.values())
        out = {}
        for metric, unit in PER_LAYER.items():
            head, _, stat = metric.rpartition(".")
            if head == "self_share":
                part = sum(e["self_s"] for n, e in agg.items()
                           if n.startswith(stat + "."))
                value = part / total_s if total_s else 0.0
            else:
                entry = agg.get(head, {})
                if stat in RATIOS:
                    calls = entry.get("calls", 0)
                    value = entry.get(RATIOS[stat], 0) / calls if calls else 0.0
                else:
                    value = entry.get(stat, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, jobs: list[dict]) -> None:
        """Write every span, the job list, and absent names as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "absent": self.absent,
            "unobservable": sorted(self.unobservable),
            "jobs": jobs,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "job": self.span_job.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
