"""Per-layer tracing from outside the program.

The tracer replaces the functions named in ``TARGETS`` by thin wrappers that
record a span (layer, start, end, parent span, operation id) per call.  The
wrappers are installed only around traced operations and removed after, so
untraced operations run the program exactly as shipped.  A target that a
later version of the program no longer has is reported as an absent layer
with zero calls instead of failing the run.

A layer's self time is its spans' duration minus the part of that interval
covered by child spans, so the layers of one operation add up to its time.
Spans are kept in flat arrays, a few tens of bytes each, and written out
when the run ends.
"""
from __future__ import annotations

import gzip
import importlib
import statistics
import time
import types
from array import array
from collections import defaultdict

# (dotted name inside the coopwrench package, layer).  A function imported
# into several modules is listed once per namespace its callers use.
TARGETS = (
    ("cli.main", "cli"),
    ("cli.parse_scenario", "config.parse"),
    ("cli.run_scenario", "runner.run"),
    ("runner.run_scenario", "runner.run"),
    ("runner.time_grid", "runner.trajectory"),
    ("runner.evaluate_trajectory", "runner.trajectory"),
    ("runner.ik_planar3r", "kinematics.ik"),
    ("runner._select_branch", "runner.branch"),
    ("runner._step_sample", "runner.step"),
    ("runner.differential_ik", "kinematics.diffik"),
    ("runner.jacobian", "kinematics.jacobian"),
    ("kinematics.jacobian", "kinematics.jacobian"),
    ("runner.inverse_dynamics", "dynamics.rne"),
    ("runner.object_desired_wrench", "dynamics.wrench"),
    ("runner.capability_scalar", "capability.scalar"),
    ("capability.capability_scalar", "capability.scalar"),
    ("runner.group_capability", "capability.group"),
    ("runner.group_capability_joint", "capability.joint"),
    ("capability.simplex_solve", "simplex"),
    ("runner.allocate_proportional", "grasp"),
    ("runner.counterbalance_moment", "grasp"),
    ("runner.JointState", "runner.valueobj"),
    ("runner.CapabilityProblem", "runner.valueobj"),
    ("runner.AllocationWeights", "runner.valueobj"),
    ("runner.CapabilitySample", "runner.valueobj"),
    ("runner.GraspMap.from_object", "runner.valueobj"),
    ("cli.export", "runner.export"),
    ("cli.emit_plot_data", "runner.export"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in TARGETS))

# Per-call outcomes counted where the work happens: layer -> (metric
# suffix, predicate on the call's return value).
OUTCOMES = {
    "kinematics.diffik": ("damped_frac", lambda r: bool(r.damped)),
    "capability.scalar": ("flagged_frac", lambda r: r[1] is not None),
    "simplex": ("optimal_frac", lambda r: r.status == "optimal"),
}

ROOT = -1


class Tracer:
    """Records spans for the calls listed in a target table.

    Span ``i`` is (layer[i], start[i], end[i], parent[i], op[i]): an index
    into ``layers``, two ``time.perf_counter`` readings, the index of the
    span that was open when it began (ROOT if none) and the operation id.
    """

    def __init__(self, targets=TARGETS):
        self.layers = LAYERS
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = 0
        self.outcomes = defaultdict(int)  # (op id, layer) -> true outcomes
        self._stack = []
        self._patches = []
        self.absent = []
        self._resolved = []
        for dotted, layer in targets:
            owner, attr = self._resolve(dotted)
            if owner is None:
                self.absent.append(dotted)
            else:
                self._resolved.append((owner, attr, layer))

    @staticmethod
    def _resolve(dotted):
        module_name, *path = dotted.split(".")
        try:
            owner = importlib.import_module(f"coopwrench.{module_name}")
        except ModuleNotFoundError:
            return None, None
        for name in path[:-1]:
            owner = getattr(owner, name, None)
        if owner is None or path[-1] not in vars(owner):
            return None, None
        return owner, path[-1]

    def _wrap(self, fn, layer):
        layer_id = self.layers.index(layer)
        outcome = OUTCOMES.get(layer, (None, None))[1]
        stack, clock = self._stack, time.perf_counter
        layers, starts, ends = self.layer, self.start, self.end
        parents, ops = self.parent, self.op

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else ROOT)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.outcomes[(self.current_op, layer)] += 1
            return result
        return traced

    def install(self):
        for owner, attr, layer in self._resolved:
            raw = vars(owner)[attr]
            if isinstance(owner, types.ModuleType):
                setattr(owner, attr, self._wrap(raw, layer))
            else:
                # class attribute (a classmethod): wrap the bound method
                bound = getattr(owner, attr)
                setattr(owner, attr, staticmethod(self._wrap(bound, layer)))
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        """Gzipped text: a header line, then "layer start end parent op"."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("# layers: " + " ".join(self.layers) + "\n")
            for span in zip(self.layer, self.start, self.end, self.parent,
                            self.op):
                handle.write("%d %r %r %d %d\n" % span)


def self_times(start, end, parent):
    """Self time of every span: its duration minus its children's.

    Spans come from one thread's call stack, so the children of a span lie
    inside it and never overlap each other: the part of its interval they
    cover is the sum of their durations.
    """
    own = array("d", (e - s for s, e in zip(start, end)))
    for index, up in enumerate(parent):
        if up != ROOT:
            own[up] -= end[index] - start[index]
    return own


def layer_metrics(tracer, steps, arms, op_times, untraced_p50):
    """Per-layer metrics: medians over the traced operations.

    ``op_times`` maps each traced operation id to its wall time; every
    layer's share is its self time over that operation's time.
    """
    ops = sorted(op_times)
    column = {op: i for i, op in enumerate(ops)}
    busy = [[0.0] * len(ops) for _ in tracer.layers]
    calls = [[0] * len(ops) for _ in tracer.layers]
    for layer, op, own in zip(tracer.layer, tracer.op,
                              self_times(tracer.start, tracer.end,
                                         tracer.parent)):
        busy[layer][column[op]] += own
        calls[layer][column[op]] += 1

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for index, layer in enumerate(tracer.layers):
        metrics[f"{layer}.self_s"] = (median(busy[index]), "s")
        metrics[f"{layer}.share"] = (median([
            b / op_times[op] for b, op in zip(busy[index], ops)]), "fraction")
        metrics[f"{layer}.calls"] = (median(calls[index]), "count")
    for layer, (name, _) in OUTCOMES.items():
        counts = calls[tracer.layers.index(layer)]
        metrics[f"{layer}.{name}"] = (median([
            tracer.outcomes[(op, layer)] / n if n else 0.0
            for op, n in zip(ops, counts)]), "fraction")
    metrics["kinematics.jacobian.calls_per_arm_step"] = (
        metrics["kinematics.jacobian.calls"][0] / (steps * arms), "count")
    metrics["runner.solves_per_step"] = (
        metrics["capability.joint.calls"][0] / steps, "count")
    metrics["trace.overhead_frac"] = (
        median(list(op_times.values())) / untraced_p50 - 1.0, "fraction")
    return metrics
