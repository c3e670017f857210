"""Span tracing of fowlerlab's layers from outside the package.

The package binds most of its cross-layer calls with ``from ... import``, so a
function is patched on every module that looks it up, for example
``fowlerlab.experiments.integrate`` rather than
``fowlerlab.dynamics.integrate``.  The package source is never edited.  Spans
are kept in memory as ``[name, parent, start, end]`` and reduced to the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from fowlerlab import dynamics, experiments, serialize

classify_module = sys.modules["fowlerlab.classify"]

#: Self times and containment are compared with this slack (seconds), which
#: absorbs rounding in sums of perf_counter differences.
_SLACK = 1e-9


def _count_nodes(counters, args, result):
    counters["nodes"] += len(result.t) - 1


def _count_nfev(counters, args, result):
    counters["nfev"] += int(result.nfev)


def _count_points(counters, args, result):
    counters["sample_points"] += np.size(args[1])


def _count_accepted(counters, args, result):
    counters["draws_accepted"] += result[0] is not None


def _count_bytes(counters, args, result):
    counters["bytes_written"] += os.path.getsize(args[1])


#: (owner, attribute, span name, counter) for every patched call site.
PATCHES = (
    (experiments, "semi_singular_search", "experiments.semi_singular_search", None),
    (experiments, "sign_change_experiment", "experiments.sign_change_experiment", None),
    (experiments, "shoot_entire", "experiments.shoot_entire", None),
    (experiments, "sweep", "experiments.sweep", None),
    (experiments, "draw_initial", "experiments.draw_initial", _count_accepted),
    (experiments, "solve_coupling", "params.solve_coupling", None),
    (experiments, "cylinder_amplitudes", "params.cylinder_amplitudes", None),
    (experiments, "integrate", "dynamics.integrate", _count_nodes),
    (dynamics, "solve_ivp", "dynamics.solve_ivp", _count_nfev),
    (dynamics.Trajectory, "sample", "dynamics.sample", _count_points),
    (experiments, "monitor", "invariants.monitor", None),
    (experiments, "classify", "classify.classify", None),
    (classify_module, "classify", "classify.classify", None),
    (serialize, "save_trajectory", "serialize.save_trajectory", _count_bytes),
    (serialize, "load_trajectory", "serialize.load_trajectory", None),
    (serialize, "validate", "serialize.validate", None),
)


class Tracer:
    """Nested spans of one thread, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every call site in PATCHES through a span while inside."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, count), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(name, fn, count))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, _, start, end), c in zip(self.spans, covered)]

    def problems(self) -> list[str]:
        """Spans that leave their parent or have negative self time."""
        found = []
        for i, ((name, parent, start, end), own) in enumerate(
            zip(self.spans, self.self_times())
        ):
            if parent >= 0:
                _, _, p_start, p_end = self.spans[parent]
                if start < p_start - _SLACK or end > p_end + _SLACK:
                    found.append(f"span {i} ({name}) lies outside its parent")
            if own < -_SLACK:
                found.append(f"span {i} ({name}) has self time {own:.3g} s")
        return found

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Reduce the spans of ``ops`` completed operations to layer metrics."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        sample_by_parent: defaultdict = defaultdict(float)
        for (name, parent, start, end), self_s in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            if name == "dynamics.sample" and parent >= 0:
                sample_by_parent[self.spans[parent][0]] += end - start
        experiments_self = sum(v for k, v in own.items() if k.startswith("experiments."))
        c = self.counters
        nodes = c["nodes"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "params.solve_coupling.calls": calls["params.solve_coupling"],
            "params.cylinder_amplitudes.calls": calls["params.cylinder_amplitudes"],
            "params.s": total["params.solve_coupling"] + total["params.cylinder_amplitudes"],
            "experiments.draw_initial.calls": calls["experiments.draw_initial"],
            "experiments.draw_accept_ratio": ratio(
                c["draws_accepted"], calls["experiments.draw_initial"]
            ),
            "experiments.integrations_per_run": ratio(calls["dynamics.integrate"], ops),
            "experiments.self_s": experiments_self,
            "dynamics.integrate.calls": calls["dynamics.integrate"],
            "dynamics.integrate.s": total["dynamics.integrate"],
            "dynamics.integrate.self_s": own["dynamics.integrate"],
            "dynamics.solve_ivp.calls": calls["dynamics.solve_ivp"],
            "dynamics.solve_ivp.s": total["dynamics.solve_ivp"],
            "dynamics.nfev": c["nfev"],
            "dynamics.nodes": nodes,
            "dynamics.us_per_node": ratio(1e6 * total["dynamics.integrate"], nodes),
            "dynamics.nfev_per_node": ratio(c["nfev"], nodes),
            "dynamics.sample.calls": calls["dynamics.sample"],
            "dynamics.sample.points": c["sample_points"],
            "dynamics.points_per_sample_call": ratio(
                c["sample_points"], calls["dynamics.sample"]
            ),
            "dynamics.sample.in_integrate_s": sample_by_parent["dynamics.integrate"],
            "dynamics.sample.in_monitor_s": sample_by_parent["invariants.monitor"],
            "dynamics.sample.in_classify_s": sample_by_parent["classify.classify"],
            "invariants.monitor.calls": calls["invariants.monitor"],
            "invariants.monitor.s": total["invariants.monitor"],
            "invariants.monitor.self_s": own["invariants.monitor"],
            "classify.classify.calls": calls["classify.classify"],
            "classify.classify.s": total["classify.classify"],
            "serialize.save_trajectory.calls": calls["serialize.save_trajectory"],
            "serialize.save_trajectory.s": total["serialize.save_trajectory"],
            "serialize.bytes_written": c["bytes_written"],
            "serialize.load_trajectory.s": total["serialize.load_trajectory"],
            "serialize.validate.s": total["serialize.validate"],
            "trace.spans": len(self.spans),
        }
