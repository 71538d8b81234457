"""Span tracer for the benchmark's traced runs.

The tracer replaces layer functions of safesim, by name, with wrappers that
record one span per call: the target's name, start, end and the index of the
span that was open when it was called (its parent). Spans stay in memory in
flat arrays and are written out once, after the workload has finished.

A layer's self time is the summed duration of its spans minus the part of
each span covered by its direct child spans. The tracer opens one root span
around the workload, whose self time is the traced wall time that no layer
claims; it is reported as the layer ``other``.

A target that no longer exists is an error that names it. A layer must never
read zero because the function it wrapped was renamed or removed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT_LAYER = "other"

# (layer, "module:attribute path") for every function the traced run wraps. A
# function imported into another module by name is looked up there at call
# time, so it is wrapped in each namespace its callers use.
TARGETS = (
    ("scenario", "safesim.scenario:load_scenario"),
    ("scenario", "safesim.scenario:validate_scenario"),
    ("scenario", "safesim.cli:load_scenario_file"),
    ("events", "safesim.engine:step_events"),
    ("policies", "safesim.policies:UniformRandomPolicy.decide"),
    ("policies", "safesim.policies:IncidentCountPolicy.decide"),
    ("policies", "safesim.policies:IncidentSeverityPolicy.decide"),
    ("policies", "safesim.policies:FixedWeightsPolicy.decide"),
    ("policies", "safesim.policies:NoObservationPolicy.decide"),
    ("policies", "safesim.policies:ObservableHistory.window"),
    ("policies", "safesim.policies:ObservableHistory.incident_counts"),
    ("policies", "safesim.policies:ObservableHistory.max_ahl"),
    ("observation", "safesim.engine:step_observations"),
    ("observation", "safesim.observation:allocate_observers"),
    ("observation", "safesim.observation:select_observed"),
    ("intervention", "safesim.engine:step_theta"),
    ("intervention", "safesim.intervention:apply_feedback"),
    ("metrics", "safesim.engine:compute_day_metrics"),
    ("metrics", "safesim.metrics:compute_day_metrics"),
    ("engine", "safesim.engine:step_day"),
    ("engine", "safesim.engine:run_simulation"),
    ("engine", "safesim.engine:run_ensemble"),
    ("engine", "safesim.engine:summarize_trajectories"),
    ("engine", "safesim.cli:run_simulation"),
    ("engine", "safesim.cli:run_ensemble"),
    ("engine", "safesim.cli:summarize_trajectories"),
    ("reports", "safesim.cli:write_trajectory_csv"),
    ("reports", "safesim.cli:write_table2_csv"),
    ("reports", "safesim.cli:write_compare_csv"),
    ("reports", "safesim.cli:write_severity_csv"),
    ("reports", "safesim.cli:write_metric_svgs"),
    ("cli", "safesim.cli:main"),
    ("cli", "safesim.cli:cmd_run"),
    ("cli", "safesim.cli:cmd_table2"),
    ("cli", "safesim.cli:cmd_compare"),
)

LAYERS = (
    "scenario",
    "events",
    "policies",
    "observation",
    "intervention",
    "metrics",
    "engine",
    "reports",
    "cli",
    ROOT_LAYER,
)


class SpanError(RuntimeError):
    """A traced target is missing, so its layer cannot be measured."""


def _count_incidents(c, args, result, dur):
    c["events.incidents"] += result.n_e


def _count_window(c, args, result, dur):
    # The history rescans every recorded day on each window query.
    c["policies.window_s"] += dur
    c["policies.days_scanned"] += len(args[0])
    c["policies.days_returned"] += len(result)


def _count_cell(c, args, result, dur):
    n_pos, n_neg, capacity = args[1], args[2], args[3]
    c["observation.cells"] += 1
    c["observation.capacity"] += capacity
    c["observation.recorded"] += result[0] + result[1]
    if 0 < capacity < n_pos + n_neg:
        c["observation.race_cells"] += 1
        c["observation.race_s"] += dur


def _count_theta_step(c, args, result, dur):
    c["intervention.theta_steps"] += 1


def _count_feedback(c, args, result, dur):
    c["intervention.feedback_steps"] += 1
    c["intervention.clamps"] += result == 1.0


def _count_summary(c, args, result, dur):
    c["engine.summary_s"] += dur


COUNTERS = {
    "safesim.engine:step_events": _count_incidents,
    "safesim.policies:ObservableHistory.window": _count_window,
    "safesim.observation:select_observed": _count_cell,
    "safesim.engine:step_theta": _count_theta_step,
    "safesim.intervention:apply_feedback": _count_feedback,
    "safesim.engine:summarize_trajectories": _count_summary,
    "safesim.cli:summarize_trajectories": _count_summary,
}


def resolve(target: str):
    """Return (owner, attribute name) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise SpanError(f"cannot trace {target}: module {module_name} is missing") from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise SpanError(f"cannot trace {target}: {module_name}.{name} no longer exists")
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise SpanError(f"cannot trace {target}: {module_name}.{path} no longer exists")
    return owner, attr


class Tracer:
    """Records spans of wrapped functions; see the module docstring."""

    def __init__(self, targets=TARGETS, counters=COUNTERS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.counter_hooks = dict(counters)
        self.clock = clock
        self.names = [ROOT_LAYER] + [target for _, target in self.targets]
        self.layer_of = [ROOT_LAYER] + [layer for layer, _ in self.targets]
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._patched = []

    def install(self) -> None:
        """Wrap every target in place; raises SpanError naming a missing one."""
        resolved = [resolve(target) for _, target in self.targets]
        for i, (owner, attr) in enumerate(resolved, start=1):
            original = getattr(owner, attr)
            hook = self.counter_hooks.get(self.names[i])
            setattr(owner, attr, self._wrap(original, i, hook))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name_id: int, hook):
        counters, clock, stack = self.counters, self.clock, self._stack
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = end = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result, end - starts[idx])
            return result

        return traced

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root span; returns fn's result."""
        return self._wrap(fn, 0, None)(*args, **kwargs)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, float]:
        """Per layer: summed self time and call count, plus the traced wall time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = np.bincount(a["name_id"], weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls")}
        for i, layer in enumerate(self.layer_of):
            out[f"{layer}.self_s"] += float(self_s[i])
            out[f"{layer}.calls"] += int(calls[i])
        out["trace.wall_s"] = float(dur[~has_parent].sum())
        return out

    def layer_counts(self) -> dict[str, float]:
        """Counts and timings that target a single layer."""
        c = self.counters
        return {
            "events.incidents": int(c["events.incidents"]),
            "policies.window_s": float(c["policies.window_s"]),
            "policies.days_scanned": int(c["policies.days_scanned"]),
            "policies.scan_useful_ratio": _ratio(
                c["policies.days_returned"], c["policies.days_scanned"]
            ),
            "observation.cells": int(c["observation.cells"]),
            "observation.race_cells": int(c["observation.race_cells"]),
            "observation.race_s": float(c["observation.race_s"]),
            "observation.recorded": int(c["observation.recorded"]),
            "observation.capacity_used_ratio": _ratio(
                c["observation.recorded"], c["observation.capacity"]
            ),
            "intervention.feedback_steps": int(c["intervention.feedback_steps"]),
            "intervention.decay_steps": int(
                c["intervention.theta_steps"] - c["intervention.feedback_steps"]
            ),
            "intervention.clamps": int(c["intervention.clamps"]),
            "engine.summary_s": float(c["engine.summary_s"]),
        }


def _ratio(num, den) -> float:
    """num / den, or 0.0 where the layer did no work."""
    return float(num) / float(den) if den else 0.0
