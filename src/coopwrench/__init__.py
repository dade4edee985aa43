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
                         group_capability, group_capability_joint)
from .config import (MODES, SCHEMA_VERSION, ManipulatorModel, ObjectState,
                     RigidObjectModel, ScenarioConfig, ScenarioError,
                     ScenarioSyntaxError, ScenarioValidationError,
                     TrajectorySpec, asymmetric_scenario,
                     cuboid_inertia, parse_scenario, reference_scenario,
                     scenario_dict, serialize_scenario)
from .dynamics import inverse_dynamics, object_desired_wrench
from .grasp import (AllocationWeights, GraspMap, ZeroCapabilityError,
                    allocate_proportional, counterbalance_moment)
from .kinematics import (JointState, Pose, differential_ik,
                         ee_pose_from_object, forward_kinematics, ik_planar3r,
                         jacobian, joint_positions)
from .runner import (ExportError, RunResult, TrajectoryError,
                     emit_plot_data, evaluate_trajectory, export, result_dict,
                     run_scenario, summarize, time_grid)

__version__ = "0.1.0"

__all__ = [
    "AllocationWeights", "CapabilityProblem", "CapabilitySample",
    "ExportError", "FLAG_INFEASIBLE", "FLAG_SINGULAR", "FLAG_UNBOUNDED",
    "FLAG_VELOCITY", "GraspMap", "GroupCapability", "JointState",
    "ManipulatorModel", "MODES", "ObjectState", "Pose", "RigidObjectModel",
    "RunResult", "ScenarioConfig", "ScenarioError",
    "ScenarioSyntaxError", "ScenarioValidationError", "SCHEMA_VERSION",
    "TrajectoryError", "TrajectorySpec",
    "ZeroCapabilityError", "allocate_proportional", "asymmetric_scenario",
    "capability_scalar", "counterbalance_moment", "cuboid_inertia",
    "differential_ik", "ee_pose_from_object", "emit_plot_data",
    "evaluate_trajectory",
    "export", "forward_kinematics", "group_capability",
    "group_capability_joint", "ik_planar3r", "inverse_dynamics", "jacobian",
    "joint_positions", "object_desired_wrench", "parse_scenario",
    "reference_scenario", "result_dict", "run_scenario", "scenario_dict",
    "serialize_scenario", "summarize", "time_grid",
]
