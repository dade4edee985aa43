"""Scenario data model, validation, and the built-in experiment scenarios.

A scenario bundles the rigid object being carried, the manipulators grasping
it, the trajectory it must follow, and the solver settings.  Scenario files
are YAML documents; the exact grammar is documented in the README and the
built-in texts below double as annotated examples.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

SCHEMA_VERSION = 1

MODES = ("baseline", "improved-fixed-alpha", "improved-joint", "both")
BETA_POLICIES = ("proportional", "uniform")
TRAJECTORY_KINDS = ("circle", "static-hold")

STANDARD_GRAVITY = 9.8067
DEFAULT_UNBOUNDED_CAP = 1e6

# Largest time grid a scenario may request (cycles * period / dt steps); at a
# few kilobytes and milliseconds per step this bounds a run near 250 MB.
MAX_GRID_STEPS = 100_000


class ScenarioError(Exception):
    """Base class for scenario loading problems."""


class ScenarioSyntaxError(ScenarioError):
    """Malformed scenario text; carries the offending position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(ScenarioError):
    """A structurally valid document that violates a scenario invariant."""


def _freeze(values, shape, name):
    """Coerce to a read-only finite float array (of the given shape, if any)."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioValidationError(
            f"{name} must be an array of numbers") from None
    if shape is not None and arr.shape != shape:
        raise ScenarioValidationError(
            f"{name} must have shape {shape}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ScenarioValidationError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _real(value):
    """value as a float if it is a real number, else NaN (fails range checks).

    A bool is not a number here, as it is not in a scenario file.
    """
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _whole(value):
    """Whether value is an integral real number (ints beyond float range too)."""
    return _real(value).is_integer() or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _set(obj, name, value):
    # frozen dataclass: assign through object.__setattr__ during __post_init__
    object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class ObjectState:
    """CoM position and its first two derivatives; the object never rotates."""

    position: np.ndarray
    linear_velocity: np.ndarray
    linear_accel: np.ndarray

    def __post_init__(self):
        _set(self, "position", _freeze(self.position, (3,), "position"))
        _set(self, "linear_velocity",
             _freeze(self.linear_velocity, (3,), "linear velocity"))
        _set(self, "linear_accel", _freeze(self.linear_accel, (3,), "linear accel"))


@dataclass(frozen=True, eq=False)
class ManipulatorModel:
    """A fixed-base serial chain moving in the world X-Z plane.

    Link ``j`` is a rigid body of length ``link_lengths[j]`` with its center
    of mass ``link_com_offsets[j]`` along the link and rotational inertia
    ``link_inertias[j]`` about the axis normal to the motion plane.  The
    ``approximate`` flag marks placeholder physical parameters that were not
    measured on hardware.
    """

    id: int
    base_position: np.ndarray
    link_lengths: np.ndarray
    link_masses: np.ndarray
    link_com_offsets: np.ndarray
    link_inertias: np.ndarray
    torque_limits: np.ndarray
    velocity_limits: np.ndarray
    approximate: bool = False

    def __post_init__(self):
        if not _whole(self.id):
            raise ScenarioValidationError(
                f"manipulator id must be an integer, got {self.id!r}")
        _set(self, "id", int(self.id))
        arm = f"manipulator {self.id}"
        if not isinstance(self.approximate, bool):
            raise ScenarioValidationError(
                f"{arm}: approximate must be a boolean, "
                f"got {self.approximate!r}")
        n = _freeze(self.link_lengths, None, f"{arm}: link_lengths").size
        if n < 2:
            raise ScenarioValidationError(f"{arm}: joint count must be at least 2")
        _set(self, "base_position",
             _freeze(self.base_position, (3,), f"{arm}: base_position"))
        for name in ("link_lengths", "link_masses", "link_com_offsets",
                     "link_inertias", "torque_limits", "velocity_limits"):
            _set(self, name, _freeze(getattr(self, name), (n,), f"{arm}: {name}"))
        for name in ("link_lengths", "link_masses", "torque_limits",
                     "velocity_limits"):
            if np.any(getattr(self, name) <= 0.0):
                raise ScenarioValidationError(
                    f"{arm}: {name} must be strictly positive")
        if np.any(self.link_inertias < 0.0):
            raise ScenarioValidationError(f"{arm}: link_inertias must be non-negative")
        if np.any(self.link_com_offsets < 0.0) or np.any(
                self.link_com_offsets > self.link_lengths):
            raise ScenarioValidationError(
                f"{arm}: link_com_offsets must lie on the link")

    @property
    def joint_count(self):
        return self.link_lengths.size


@dataclass(frozen=True, eq=False)
class RigidObjectModel:
    """The carried rigid body and where each manipulator grasps it.

    ``grasp_points`` are expressed in the object body frame, relative to the
    center of mass.  ``inertia`` and ``dimensions`` are validated and
    recorded, but the object only translates, so its dynamics use the mass
    alone.
    """

    mass: float
    inertia: np.ndarray
    grasp_points: np.ndarray
    dimensions: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < _real(self.mass) < math.inf:
            raise ScenarioValidationError("mass must be positive and finite")
        _set(self, "inertia", _freeze(self.inertia, (3, 3), "inertia"))
        pts = _freeze(self.grasp_points, None, "grasp_points")
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ScenarioValidationError("grasp_points must be an N x 3 array")
        _set(self, "grasp_points", pts)
        if self.dimensions is not None:
            _set(self, "dimensions", _freeze(self.dimensions, (3,), "dimensions"))
        I = self.inertia
        if np.max(np.abs(I - I.T)) > 1e-9 * max(1.0, np.max(np.abs(I))):
            raise ScenarioValidationError("inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(I) <= 0.0):
            raise ScenarioValidationError("inertia must be positive definite")

    @property
    def grasp_count(self):
        return self.grasp_points.shape[0]


def cuboid_inertia(mass, dimensions):
    """Inertia tensor of a uniform solid cuboid about its center of mass."""
    lx, ly, lz = _freeze(dimensions, (3,), "dimensions")
    return np.diag([
        mass * (ly ** 2 + lz ** 2) / 12.0,
        mass * (lx ** 2 + lz ** 2) / 12.0,
        mass * (lx ** 2 + ly ** 2) / 12.0,
    ])


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    """Reference motion for the object, which translates without rotating.

    ``circle`` traces center + radius * [cos(rate * t), 0, sin(rate * t)] in
    the X-Z plane.  ``static-hold`` keeps the object fixed at the center.
    """

    kind: str
    center: np.ndarray = (0.0, 0.0, 0.0)
    radius: float = 0.0
    angular_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ScenarioValidationError(
                f"trajectory kind must be one of {TRAJECTORY_KINDS}")
        _set(self, "center", _freeze(self.center, (3,), "trajectory center"))
        if not 0.0 <= _real(self.radius) < math.inf:
            raise ScenarioValidationError(
                "trajectory radius must be non-negative and finite")
        if not math.isfinite(_real(self.angular_rate)):
            raise ScenarioValidationError("trajectory angular_rate must be finite")
        if self.kind == "circle" and self.angular_rate == 0.0:
            raise ScenarioValidationError(
                "circle trajectory needs a nonzero angular_rate")

    def period(self):
        """Duration of one repetition of the motion."""
        if self.angular_rate != 0.0:
            return 2.0 * math.pi / abs(self.angular_rate)
        return 1.0


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything a run needs: models, trajectory, and solver settings.

    ``mode`` selects which capability series a run produces; ``both`` is an
    alias of ``improved-fixed-alpha`` (identical samples).  ``beta_policy``
    chooses how the load-share vector is formed and ``beta_iterations`` adds
    optional fixed-point refinement passes of the share vector (0 keeps the
    single two-pass evaluation).
    """

    manipulators: tuple[ManipulatorModel, ...]
    object: RigidObjectModel
    trajectory: TrajectorySpec
    gravity: float = STANDARD_GRAVITY
    dt: float = 0.01
    cycles: int = 2
    mode: str = "both"
    unbounded_cap: float = DEFAULT_UNBOUNDED_CAP
    beta_policy: str = "proportional"
    beta_iterations: int = 0

    def __post_init__(self):
        _set(self, "manipulators", tuple(self.manipulators))
        if len(self.manipulators) < 1:
            raise ScenarioValidationError("at least one manipulator is required")
        if len(self.manipulators) != self.object.grasp_count:
            raise ScenarioValidationError(
                f"manipulator count ({len(self.manipulators)}) does not match "
                f"grasp point count ({self.object.grasp_count})")
        ids = [m.id for m in self.manipulators]
        if len(set(ids)) != len(ids):
            raise ScenarioValidationError("manipulator ids must be unique")
        for arm in self.manipulators:  # the IK is the closed-form 3R solution
            if arm.joint_count != 3:
                raise ScenarioValidationError(
                    f"manipulator {arm.id}: joint count must be 3")
        if not math.isfinite(_real(self.gravity)):
            raise ScenarioValidationError("gravity must be finite")
        # on Python floats, where a product that overflows is inf
        keys, accel = "mass * |gravity|", abs(_real(self.gravity))
        if self.trajectory.kind == "circle":
            keys = "mass * (|gravity| + radius * angular_rate^2)"
            rate = _real(self.trajectory.angular_rate)
            accel += _real(self.trajectory.radius) * rate * rate
        if not math.isfinite(_real(self.object.mass) * accel):
            raise ScenarioValidationError(
                f"peak object force {keys} must be finite")
        # a grasp target is the object position plus its grasp point; the
        # circle reaches radius further along x and z
        keys, reach = "|trajectory center| + |grasp_points|", 0.0
        if self.trajectory.kind == "circle":
            keys = "|trajectory center| + radius + |grasp_points|"
            reach = _real(self.trajectory.radius)
        grasp = np.abs(self.object.grasp_points).max(axis=0).tolist()
        for center, offset, along in zip(self.trajectory.center.tolist(),
                                         grasp, (reach, 0.0, reach)):
            if not math.isfinite(abs(center) + along + offset):
                raise ScenarioValidationError(
                    f"peak grasp target {keys} must be finite")
        if not 0.0 < _real(self.dt) < math.inf:
            raise ScenarioValidationError("dt must be positive and finite")
        if not _whole(self.cycles) or self.cycles < 1:
            raise ScenarioValidationError("cycles must be an integer >= 1")
        _set(self, "cycles", int(self.cycles))
        if self.mode not in MODES:
            raise ScenarioValidationError(f"mode must be one of {MODES}")
        if self.beta_policy not in BETA_POLICIES:
            raise ScenarioValidationError(
                f"beta_policy must be one of {BETA_POLICIES}")
        if not 0.0 < _real(self.unbounded_cap) < math.inf:
            raise ScenarioValidationError(
                "unbounded_cap must be positive and finite")
        if not _whole(self.beta_iterations) or self.beta_iterations < 0:
            raise ScenarioValidationError("beta_iterations must be >= 0")
        _set(self, "beta_iterations", int(self.beta_iterations))
        try:
            steps = self.step_count
        except OverflowError:  # an infinite period or a float-overflowing count
            steps = math.inf
        if steps > MAX_GRID_STEPS:
            raise ScenarioValidationError(
                f"dt/cycles give {steps} time steps, above {MAX_GRID_STEPS}")
        # a sample's K is at most arms * cap; the summary adds up steps + 1
        # of them for a mean, and scales a difference of means by 100
        if not math.isfinite(max(steps + 1, 100) * len(self.manipulators)
                             * _real(self.unbounded_cap)):
            raise ScenarioValidationError(
                "unbounded_cap * manipulator count * max(steps + 1, 100) "
                "must be finite")

    @property
    def step_count(self):
        """Steps on the time grid: cycles * period / dt, rounded."""
        return round(self.cycles * self.trajectory.period() / self.dt)


# The scenario file schema: the keys of each section in file order.  Every
# key is a field of the section's dataclass (besides schema_version and the
# nested sections), and a key is optional exactly when its field has a
# default, so the dataclasses hold the only defaults.
SETTINGS_KEYS = ("mode", "gravity", "dt", "cycles", "unbounded_cap",
                 "beta_policy", "beta_iterations")
SCENARIO_KEYS = ("schema_version", *SETTINGS_KEYS,
                 "object", "trajectory", "manipulators")
OBJECT_KEYS = ("mass", "inertia", "grasp_points", "dimensions")
TRAJECTORY_KEYS = ("kind", "center", "radius", "angular_rate")
MANIPULATOR_KEYS = ("id", "base_position", "link_lengths", "link_masses",
                    "link_com_offsets", "link_inertias", "torque_limits",
                    "velocity_limits", "approximate")

# Scalar types; array values are coerced by the dataclasses through _freeze.
FLOAT_KEYS = ("gravity", "dt", "unbounded_cap", "mass", "radius",
              "angular_rate")
INTEGER_KEYS = ("schema_version", "cycles", "beta_iterations", "id")
BOOLEAN_KEYS = ("approximate",)


def _scalar(key, value, context):
    """The value under key coerced to its scalar type; others pass through."""
    if key not in FLOAT_KEYS + INTEGER_KEYS + BOOLEAN_KEYS or (
            key in BOOLEAN_KEYS and isinstance(value, bool)):
        return value
    if key in INTEGER_KEYS and type(value) is int:  # exact beyond float range
        return value
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if key in INTEGER_KEYS and number.is_integer():
        return int(number)
    if key in FLOAT_KEYS and math.isfinite(number):
        return number
    kind = "a boolean" if key in BOOLEAN_KEYS else \
        "an integer" if key in INTEGER_KEYS else "a finite number"
    raise ScenarioValidationError(
        f"{context}: '{key}' must be {kind}, got {value!r}")


def _section(doc, keys, context):
    """The present keys of a mapping with their scalars coerced."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError(f"{context} must be a mapping")
    unknown = set(doc).difference(keys)
    if unknown:
        raise ScenarioValidationError(
            f"{context}: unknown key(s) {sorted(unknown, key=str)}")
    return {key: _scalar(key, doc[key], context) for key in keys if key in doc}


def _complete(cls, values, context):
    """values, once each field of cls without a default is among them."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ScenarioValidationError(
                f"{context}: missing required key '{f.name}'")
    return values


# The pure-Python loader on purpose: libyaml's CSafeLoader (PyYAML 6.0.3,
# 2-core VM) parsed the cli-baseline-long scenario in 0.56 ms against 4.45
# ms, but crashed the interpreter (exit 139) at 50 000 and 100 000 levels of
# nesting, where this loader raises RecursionError; 20 000 levels parsed.
class _ScenarioLoader(yaml.SafeLoader):
    """Safe YAML loading that rejects a key repeated within one mapping.

    Keys are compared as written, before merge keys (``<<``) are expanded,
    so a key written next to a merge still overrides the merged value.
    """

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or \
                    key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.composer.ComposerError(
                    "while composing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return node


def parse_scenario(text):
    """Parse scenario YAML text into a validated ScenarioConfig."""
    try:
        doc = yaml.load(text, Loader=_ScenarioLoader)
    except RecursionError:
        raise ScenarioSyntaxError(
            "invalid scenario syntax: nesting too deep") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark is not None else None
        column = mark.column + 1 if mark is not None else None
        raise ScenarioSyntaxError(
            f"invalid scenario syntax: {exc.problem or exc}", line, column
        ) from exc
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError(f"invalid scenario syntax: {exc}") from exc

    doc = _complete(ScenarioConfig, _section(doc, SCENARIO_KEYS, "scenario"),
                    "scenario")
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ScenarioValidationError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    obj = _section(doc["object"], OBJECT_KEYS, "object")
    if "inertia" not in obj and {"mass", "dimensions"} <= obj.keys():
        obj["inertia"] = cuboid_inertia(obj["mass"], obj["dimensions"])
    doc["object"] = RigidObjectModel(
        **_complete(RigidObjectModel, obj, "object"))
    traj = _section(doc["trajectory"], TRAJECTORY_KEYS, "trajectory")
    doc["trajectory"] = TrajectorySpec(
        **_complete(TrajectorySpec, traj, "trajectory"))
    if not isinstance(doc["manipulators"], list):
        raise ScenarioValidationError("manipulators must be a list")
    arms = []
    for idx, arm in enumerate(doc["manipulators"]):
        context = f"manipulators[{idx}]"
        arm = _section(arm, MANIPULATOR_KEYS, context)
        arms.append(ManipulatorModel(**_complete(ManipulatorModel, arm, context)))
    doc["manipulators"] = arms
    return ScenarioConfig(**doc)


def _plain(model, keys):
    """The keys of a model as plain data; None is left out.

    numpy arrays become lists, and numpy scalars Python numbers.
    """
    doc = {}
    for key in keys:
        value = getattr(model, key)
        if value is not None:
            doc[key] = value.tolist() if isinstance(
                value, (np.ndarray, np.generic)) else value
    return doc


def scenario_dict(config):
    """Plain-data document for a ScenarioConfig (the scenario file schema)."""
    return {
        "schema_version": SCHEMA_VERSION,
        **_plain(config, SETTINGS_KEYS),
        "object": _plain(config.object, OBJECT_KEYS),
        "trajectory": _plain(config.trajectory, TRAJECTORY_KEYS),
        "manipulators": [_plain(arm, MANIPULATOR_KEYS)
                         for arm in config.manipulators],
    }


def serialize_scenario(config):
    """Render a ScenarioConfig back to YAML; parse(serialize(c)) == c."""
    return yaml.safe_dump(scenario_dict(config), sort_keys=False,
                          default_flow_style=None)


# Four planar arms around a 2 kg plate, holding it through a slow circle.
# Base and grasp placements plus object mass, dimensions, torque bound,
# gravity, and the trajectory are published values for this setup; the link
# lengths/masses/inertias are unpublished, so the ones below are placeholder
# values (uniform slender-rod inertia, CoM at mid-link) chosen to keep every
# grasp target reachable, and are flagged approximate.
REFERENCE_SCENARIO_TEXT = """\
# Built-in reference scenario: four planar 3R arms carry a 2 kg plate
# counterclockwise around a 0.05 m circle in the X-Z plane, twice.
schema_version: 1
mode: both
gravity: 9.8067
dt: 0.01
cycles: 2
unbounded_cap: 1000000.0
beta_policy: proportional
beta_iterations: 0
object:
  mass: 2.0
  dimensions: [0.2, 0.02, 0.15]
  # uniform-cuboid tensor from the dimensions above; override if measured
  inertia:
    - [0.0038166666666666666, 0.0, 0.0]
    - [0.0, 0.010416666666666666, 0.0]
    - [0.0, 0.0, 0.006733333333333334]
  # body-frame grasp points relative to the object CoM; they sum to zero
  grasp_points:
    - [0.1, 0.0, 0.0]
    - [0.0, 0.0, -0.075]
    - [-0.1, 0.0, 0.0]
    - [0.0, 0.0, 0.075]
trajectory:
  kind: circle
  center: [0.35, 0.0, 0.35]
  radius: 0.05
  angular_rate: 1.2566370614359172  # 0.4 * pi rad/s, 5 s period
manipulators:
  # Arm bases surround the object: right, below, left, above.  Link data are
  # approximate placeholders (not measured on hardware): slender-rod inertia
  # m * l^2 / 12 about the mid-link CoM.
  - id: 1
    base_position: [0.7, 0.0, 0.35]
    link_lengths: [0.2, 0.2, 0.05]
    link_masses: [0.08, 0.07, 0.04]
    link_com_offsets: [0.1, 0.1, 0.025]
    link_inertias: [0.00026666666666666673, 0.0002333333333333334, 8.333333333333335e-06]
    torque_limits: [1.0, 1.0, 1.0]
    velocity_limits: [4.8, 4.8, 4.8]
    approximate: true
  - id: 2
    base_position: [0.35, 0.0, 0.0]
    link_lengths: [0.2, 0.2, 0.05]
    link_masses: [0.08, 0.07, 0.04]
    link_com_offsets: [0.1, 0.1, 0.025]
    link_inertias: [0.00026666666666666673, 0.0002333333333333334, 8.333333333333335e-06]
    torque_limits: [1.0, 1.0, 1.0]
    velocity_limits: [4.8, 4.8, 4.8]
    approximate: true
  - id: 3
    base_position: [0.0, 0.0, 0.35]
    link_lengths: [0.2, 0.2, 0.05]
    link_masses: [0.08, 0.07, 0.04]
    link_com_offsets: [0.1, 0.1, 0.025]
    link_inertias: [0.00026666666666666673, 0.0002333333333333334, 8.333333333333335e-06]
    torque_limits: [1.0, 1.0, 1.0]
    velocity_limits: [4.8, 4.8, 4.8]
    approximate: true
  - id: 4
    base_position: [0.35, 0.0, 0.7]
    link_lengths: [0.2, 0.2, 0.05]
    link_masses: [0.08, 0.07, 0.04]
    link_com_offsets: [0.1, 0.1, 0.025]
    link_inertias: [0.00026666666666666673, 0.0002333333333333334, 8.333333333333335e-06]
    torque_limits: [1.0, 1.0, 1.0]
    velocity_limits: [4.8, 4.8, 4.8]
    approximate: true
"""

# Same arms and object, but the left grasp point is pulled inboard so the
# grasp set is deliberately lopsided: the grasp points no longer sum to zero,
# the load-share centroid is offset from the CoM, and the induced moment is
# nonzero along the whole trajectory.
ASYMMETRIC_SCENARIO_TEXT = REFERENCE_SCENARIO_TEXT.replace(
    """\
  grasp_points:
    - [0.1, 0.0, 0.0]
    - [0.0, 0.0, -0.075]
    - [-0.1, 0.0, 0.0]
    - [0.0, 0.0, 0.075]
""",
    """\
  grasp_points:
    - [0.1, 0.0, 0.0]
    - [0.0, 0.0, -0.075]
    - [-0.04, 0.0, 0.0]
    - [0.0, 0.0, 0.075]
""",
).replace(
    "# Built-in reference scenario: four planar 3R arms carry a 2 kg plate\n"
    "# counterclockwise around a 0.05 m circle in the X-Z plane, twice.",
    "# Asymmetric grasp variant of the reference scenario: the third grasp\n"
    "# point sits inboard, so the share-weighted grasp centroid is offset\n"
    "# from the object CoM and the induced moment is nonzero."
)

SCENARIO_TEXTS = {
    "reference": REFERENCE_SCENARIO_TEXT,
    "asymmetric": ASYMMETRIC_SCENARIO_TEXT,
}


def reference_scenario():
    """The built-in four-arm reference scenario."""
    return parse_scenario(REFERENCE_SCENARIO_TEXT)


def asymmetric_scenario():
    """Reference scenario with a deliberately lopsided grasp set."""
    return parse_scenario(ASYMMETRIC_SCENARIO_TEXT)
