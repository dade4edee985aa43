"""Wrench-task capability analysis for cooperative manipulator groups.

The package evaluates, along an object trajectory, how large a multiple of
the desired object wrench each grasping manipulator (and the group as a
whole) can sustain within its joint torque limits, with or without
exploiting the moment induced by sharing the load across off-CoM grasp
points.
"""

from .capability import (FLAG_INFEASIBLE, FLAG_SINGULAR, FLAG_UNBOUNDED,
                         FLAG_VELOCITY, CapabilityProblem, CapabilitySample,
                         GroupCapability, capability_scalar,
                         feasible_wrench_check, group_capability,
                         group_capability_joint)
from .config import (MODES, SCHEMA_VERSION, ManipulatorModel, ObjectState,
                     RigidObjectModel, ScenarioConfig, ScenarioError,
                     ScenarioSyntaxError, ScenarioValidationError,
                     TrajectorySpec, Wrench, asymmetric_scenario,
                     cuboid_inertia, parse_scenario, reference_scenario,
                     scenario_dict, serialize_scenario)
from .dynamics import (gravity_vector, inverse_dynamics, mass_matrix,
                       object_desired_wrench)
from .grasp import (AllocationWeights, GraspMap, ZeroCapabilityError,
                    allocate_proportional, counterbalance_moment,
                    grasp_matrix, object_wrench_from_ee, skew)
from .kinematics import (JointState, Pose, differential_ik,
                         ee_pose_from_object, forward_kinematics, ik_planar3r,
                         jacobian, joint_positions, planar_angle,
                         planar_rotation)
from .runner import (ExportError, RunResult, TrajectoryError,
                     emit_plot_data, evaluate_trajectory, export, result_dict,
                     run_scenario, summarize, time_grid)
from .simplex import LinearProgram, SimplexResult, simplex_solve

__version__ = "0.1.0"

__all__ = [
    "AllocationWeights", "CapabilityProblem", "CapabilitySample",
    "ExportError", "FLAG_INFEASIBLE", "FLAG_SINGULAR", "FLAG_UNBOUNDED",
    "FLAG_VELOCITY", "GraspMap", "GroupCapability", "JointState",
    "LinearProgram",
    "ManipulatorModel", "MODES", "ObjectState", "Pose", "RigidObjectModel",
    "RunResult", "ScenarioConfig", "ScenarioError",
    "ScenarioSyntaxError", "ScenarioValidationError", "SCHEMA_VERSION",
    "SimplexResult", "TrajectoryError", "TrajectorySpec", "Wrench",
    "ZeroCapabilityError", "allocate_proportional", "asymmetric_scenario",
    "capability_scalar", "counterbalance_moment", "cuboid_inertia",
    "differential_ik", "ee_pose_from_object", "emit_plot_data",
    "evaluate_trajectory",
    "export", "feasible_wrench_check", "forward_kinematics",
    "gravity_vector", "grasp_matrix", "group_capability",
    "group_capability_joint", "ik_planar3r", "inverse_dynamics", "jacobian",
    "joint_positions", "mass_matrix", "object_desired_wrench",
    "object_wrench_from_ee", "parse_scenario", "planar_angle",
    "planar_rotation", "reference_scenario", "result_dict", "run_scenario",
    "scenario_dict", "serialize_scenario", "simplex_solve", "skew",
    "summarize", "time_grid",
]
