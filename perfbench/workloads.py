"""Benchmark workloads and their seeded scenario generator.

Every workload is a closed loop: one caller runs one operation at a time in
one process.  The scenario each operation evaluates is generated here from
``--seed``: the built-in four-arm plate scenario (kept as a copy, so the
benchmark's inputs do not move when the program's built-ins do) with small
jitter on the grasp points, torque limits and the circle's centre and
radius.  The program only ever sees the generated YAML text.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import yaml

DEFAULT_SEED = 0

# Jitter bounds.  Every grasp target stays well inside the arms' reach
# (wrist distance <= 0.37 m against a 0.4 m two-link reach), so every draw
# is reachable; perfbench/tests checks this over many seeds.
GRASP_JITTER_M = 0.005
CENTER_JITTER_M = 0.005
RADIUS_JITTER = 0.1
TORQUE_JITTER = 0.05

ANGULAR_RATE = 1.2566370614359172  # 0.4 * pi rad/s, 5 s period

_LINK = {
    "link_lengths": [0.2, 0.2, 0.05],
    "link_masses": [0.08, 0.07, 0.04],
    "link_com_offsets": [0.1, 0.1, 0.025],
    "link_inertias": [0.00026666666666666673, 0.0002333333333333334,
                      8.333333333333335e-06],
    "velocity_limits": [4.8, 4.8, 4.8],
    "approximate": True,
}
_BASES = ([0.7, 0.0, 0.35], [0.35, 0.0, 0.0], [0.0, 0.0, 0.35],
          [0.35, 0.0, 0.7])
ARM_COUNT = len(_BASES)
_GRASPS = {
    "reference": ([0.1, 0.0, 0.0], [0.0, 0.0, -0.075], [-0.1, 0.0, 0.0],
                  [0.0, 0.0, 0.075]),
    # third grasp point pulled inboard: the induced moment never vanishes
    "asymmetric": ([0.1, 0.0, 0.0], [0.0, 0.0, -0.075], [-0.04, 0.0, 0.0],
                   [0.0, 0.0, 0.075]),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``entry`` is "run" (``runner.run_scenario`` on the parsed scenario) or
    "cli" (``cli.main(["run", ...])`` on the scenario file, writing the CSV,
    JSON and plot outputs).  Grid sizes keep one operation near 0.05 s on
    the 2-core machine the benchmark was defined on, so one run holds many
    50-operation windows (see run.py).
    """

    name: str
    why: str
    variant: str
    mode: str
    entry: str
    cycles: int
    dt: float
    beta_iterations: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="reference-both",
        why="kinematics, RNE and the scalar solve carry the work; the joint "
            "solve and simplex are bypassed, so joint-solver changes should "
            "not move it",
        variant="reference", mode="both", entry="run", cycles=1, dt=0.2),
    Workload(
        name="asymmetric-joint-refine",
        why="several joint LP solves per kinematic state (beta_iterations 4), "
            "so capability.joint and simplex dominate and kinematics is a "
            "minority",
        variant="asymmetric", mode="improved-joint", entry="run", cycles=1,
        dt=0.5, beta_iterations=4),
    Workload(
        name="cli-baseline-long",
        why="the CLI write path: YAML parse plus CSV/JSON/plot export over "
            "the longest grid, with no K1 solve",
        variant="reference", mode="baseline", entry="cli", cycles=2,
        dt=0.3125),
)}


def scenario_doc(workload, seed):
    """Scenario document for a workload, jittered deterministically by seed."""
    rng = random.Random(seed)

    def jitter(value, bound):
        return value + rng.uniform(-bound, bound)

    grasps = [[jitter(x, GRASP_JITTER_M), 0.0, jitter(z, GRASP_JITTER_M)]
              for x, _, z in _GRASPS[workload.variant]]
    arms = []
    for index, base in enumerate(_BASES):
        arm = {"id": index + 1, "base_position": list(base)}
        arm.update(_LINK)
        arm["torque_limits"] = [1.0 + rng.uniform(-TORQUE_JITTER,
                                                  TORQUE_JITTER)
                                for _ in range(3)]
        arms.append(arm)
    center = [jitter(0.35, CENTER_JITTER_M), 0.0,
              jitter(0.35, CENTER_JITTER_M)]
    radius = 0.05 * (1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER))
    return {
        "schema_version": 1,
        # the CLI workload passes its mode on the command line instead
        "mode": "both" if workload.entry == "cli" else workload.mode,
        "gravity": 9.8067,
        "dt": workload.dt,
        "cycles": workload.cycles,
        "unbounded_cap": 1000000.0,
        "beta_policy": "proportional",
        "beta_iterations": workload.beta_iterations,
        "object": {
            "mass": 2.0,
            "dimensions": [0.2, 0.02, 0.15],
            "inertia": [[0.0038166666666666666, 0.0, 0.0],
                        [0.0, 0.010416666666666666, 0.0],
                        [0.0, 0.0, 0.006733333333333334]],
            "grasp_points": grasps,
        },
        "trajectory": {"kind": "circle", "center": center, "radius": radius,
                       "angular_rate": ANGULAR_RATE},
        "manipulators": arms,
    }


def scenario_yaml(workload, seed):
    return yaml.safe_dump(scenario_doc(workload, seed), sort_keys=False)


def grid_steps(workload):
    """Samples on the workload's time grid, both endpoints included."""
    duration = workload.cycles * 2.0 * math.pi / ANGULAR_RATE
    return int(round(duration / workload.dt)) + 1
