"""Span tracing of the program's public functions, from outside the program.

`Tracer.patch` replaces each traced function with a wrapper in every module
namespace where a caller looks it up, because the modules import functions
by name (``protocol`` calls its own global ``transmit``, not
``adversary.transmit``).  A span records the function's name, start, end and
the span that was open when it began.  Spans stay in flat in-memory arrays
until the run ends; self time is a span's duration minus the durations of
its direct children, which nest strictly because the program is
single-threaded.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, defining module, function, modules whose global is patched,
#  work units of one call read from its arguments and result, or None)
TRACED = (
    ("cli.run_experiment", "cli", "run_experiment", ("cli",), None),
    ("protocol.run_key_session", "protocol", "run_key_session", ("cli",),
     lambda args, kwargs, result: args[0].blocks),
    ("protocol.run_three_stage", "protocol", "run_three_stage", ("protocol",), None),
    ("adversary.transmit", "adversary", "transmit", ("protocol",), None),
    ("qcore.apply", "qcore", "apply", ("protocol", "adversary"), None),
    ("qcore.adjoint", "qcore", "adjoint", ("protocol", "adversary"), None),
    ("qcore.measure", "qcore", "measure", ("protocol", "adversary"), None),
    ("opsets.commutation_phase", "opsets", "commutation_phase", ("protocol",), None),
    ("analysis.map_decision_table", "analysis", "map_decision_table", ("analysis",), None),
    ("analysis.exact_analysis", "analysis", "exact_analysis", ("analysis", "cli"),
     lambda args, kwargs, result: result.branch_count),
    ("analysis.monte_carlo_analysis", "analysis", "monte_carlo_analysis", ("analysis",),
     lambda args, kwargs, result: result.trials),
    ("sift.parity_check", "sift", "parity_check", ("sift", "cli"),
     lambda args, kwargs, result: len(args[0])),
)


class Tracer:
    """In-memory span recorder for the functions listed in `TRACED`."""

    def __init__(self):
        self.names = [entry[0] for entry in TRACED]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = [0.0] * len(TRACED)
        self._open = [-1]

    def _wrap(self, name_id: int, fn, units):
        name, parent, start, end, open_spans = (
            self.name, self.parent, self.start, self.end, self._open)

        def wrapper(*args, **kwargs):
            span = len(name)
            name.append(name_id)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                open_spans.pop()
            if units is not None:
                self.units[name_id] += units(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def patch(self):
        """Install the wrappers, and restore the original functions on exit."""
        saved = []
        try:
            for name_id, (_, home, attr, callers, units) in enumerate(TRACED):
                original = getattr(importlib.import_module(f"tristage.{home}"), attr)
                wrapper = self._wrap(name_id, original, units)
                for caller in callers:
                    module = importlib.import_module(f"tristage.{caller}")
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds and work units."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        count = len(self.names)
        calls = np.bincount(name, minlength=count)
        total = np.bincount(name, weights=duration, minlength=count)
        own = np.bincount(name, weights=duration - children, minlength=count)
        return {
            label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i]),
                    "units": self.units[i]}
            for i, label in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as parallel arrays (gzip-compressed JSON)."""
        base = self.start[0] if self.start else 0.0
        spans = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - base) * 1e6, 3) for t in self.start],
            "end_us": [round((t - base) * 1e6, 3) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(spans, out, separators=(",", ":"))
