from array import array

import pytest

from coopwrench import runner
from tracing import ROOT, Tracer, layer_metrics, self_times
from workloads import ARM_COUNT, WORKLOADS, grid_steps, scenario_yaml

# root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
START = array("d", [0.0, 1.0, 2.0, 5.0])
END = array("d", [10.0, 4.0, 3.0, 9.0])
PARENT = array("q", [ROOT, 0, 1, 0])


def test_self_time_subtracts_children_only():
    assert list(self_times(START, END, PARENT)) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_a_synthetic_tree():
    tracer = Tracer(targets=())
    layer = tracer.layers.index
    tracer.layer.extend([layer("runner.run"), layer("runner.step"),
                         layer("kinematics.jacobian"), layer("runner.step")])
    tracer.start.extend(START)
    tracer.end.extend(END)
    tracer.parent.extend(PARENT)
    tracer.op.extend([1, 1, 1, 1])
    metrics = layer_metrics(tracer, steps=2, arms=1, op_times={1: 10.0},
                            untraced_p50=8.0)
    assert metrics["runner.run.self_s"] == (3.0, "s")
    assert metrics["runner.step.self_s"] == (6.0, "s")
    assert metrics["runner.step.share"] == (0.6, "fraction")
    assert metrics["runner.step.calls"] == (2, "count")
    assert metrics["kinematics.jacobian.calls_per_arm_step"] == (0.5, "count")
    assert metrics["simplex.calls"] == (0, "count")
    assert metrics["simplex.optimal_frac"] == (0.0, "fraction")
    assert metrics["trace.overhead_frac"] == (0.25, "fraction")
    shares = [v for name, (v, _) in metrics.items()
              if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)


def test_missing_target_is_reported_absent():
    tracer = Tracer(targets=(("runner.no_such_function", "runner.step"),
                             ("no_such_module.f", "runner.step"),
                             ("runner.GraspMap.no_such_method",
                              "runner.valueobj")))
    assert tracer.absent == ["runner.no_such_function", "no_such_module.f",
                             "runner.GraspMap.no_such_method"]
    tracer.install()
    tracer.uninstall()


def test_traced_run_counts_calls_and_restores_the_program():
    from coopwrench import parse_scenario
    workload = WORKLOADS["reference-both"]
    config = parse_scenario(scenario_yaml(workload, 1))
    originals = {name: vars(runner)[name] for name in vars(runner)}
    from_object = vars(runner.GraspMap)["from_object"]
    tracer = Tracer()
    assert tracer.absent == []
    tracer.current_op = 1
    tracer.install()
    try:
        runner.run_scenario(config)
    finally:
        tracer.uninstall()
    assert {name: vars(runner)[name] for name in vars(runner)} == originals
    assert vars(runner.GraspMap)["from_object"] is from_object
    steps = grid_steps(workload)
    metrics = layer_metrics(tracer, steps, ARM_COUNT, {1: 1.0}, 1.0)
    assert metrics["kinematics.jacobian.calls_per_arm_step"] == (8.0, "count")
    assert metrics["runner.step.calls"] == (steps, "count")
    assert metrics["simplex.calls"] == (0, "count")
    assert len(tracer.start) == len(tracer.end) == len(tracer.parent)

