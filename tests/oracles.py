"""Independently coded reference implementations used as test oracles.

Everything here recomputes quantities from first principles with different
algorithms than the package: forward kinematics by chained homogeneous
transforms, planar 2R dynamics written out longhand, linear programs by
brute-force vertex enumeration, and capability scalars by feasibility
bisection.  It imports no private name of the package, but it does reuse
public package functions that their own oracles hold (see
``reference_run`` and ``joint_optimality_violations``).

The ``reference_*`` kinematics are the package's earlier array formulation,
frozen verbatim when the step path was rewritten, and each rewrite is held
to the same output bits.  ``reference_simplex_solve`` is the only simplex:
a dense two-phase solver of a ``LinearProgram``, kept row by row as it was
written and held to no rewrite.  ``joint_program`` states the joint
capability program; ``reference_group_capability_joint`` solves it with
that simplex, and ``vertex_enumeration_optimum`` solves it without one.
Both are cross-checks of the package's breakpoint sweep, which replaced
the program.

``reference_evaluate_trajectory``, ``reference_ik_planar3r`` and
``reference_capability_scalar`` are the per-call trajectory, closed-form IK
and scalar solve, frozen when each became the one-row view of a kernel
over a whole stack of times, targets or rows.

``exact_differential_ik`` is the frozen differential IK with its
finite-difference Jacobian derivative replaced by Richardson extrapolation
of the frozen Jacobian, an exact oracle for the package's closed-form
J-dot.  ``reference_run`` is the run pipeline as it was before the arm
pass was batched over the time grid: every step solves each arm's
differential IK (frozen, finite-difference J-dot) and a math-float copy of
the inverse dynamics on their own, then the capability solves.  It reuses
the package's public trajectory, closed-form IK, grasp and capability
functions, which their own oracles hold.

``joint_optimality_violations`` checks any joint result without a solver
of the joint program: its torque rows and shares, and the equal-marginal
rule on slopes read from the package's scalar solve.

The last six functions are cross-checks that no run needs, so they live
here and not in the package: ``mass_matrix`` and ``gravity_vector``
assemble the joint-space terms from the package's ``inverse_dynamics``,
``skew``, ``grasp_matrix`` and ``object_wrench_from_ee`` transmit grasp
wrenches through explicit 6x6 maps, and ``feasible_wrench_check`` tests one
wrench scale against every torque limit.
"""
import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations

import numpy as np

from coopwrench import (AllocationWeights, GraspMap, ZeroCapabilityError,
                        allocate_proportional, counterbalance_moment,
                        ee_pose_from_object, evaluate_trajectory,
                        group_capability, group_capability_joint,
                        ik_planar3r, object_desired_wrench, time_grid)
from coopwrench.capability import (FLAG_INFEASIBLE, FLAG_SINGULAR,
                                   FLAG_UNBOUNDED, FLAG_VELOCITY,
                                   CapabilityProblem, CapabilitySample,
                                   GroupCapability, capability_scalar)
from coopwrench.config import DEFAULT_UNBOUNDED_CAP
from coopwrench.dynamics import inverse_dynamics
from coopwrench.kinematics import DifferentialIk, JointState


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x  s.t.  row_lower <= row_coeffs @ x <= row_upper.

    Bounds may be -inf/+inf; a row with equal finite bounds is an equality,
    and an infinite side constrains nothing (the oracles here drop it, so
    they do not read a row_lower of +inf or a row_upper of -inf as
    unsatisfiable).  nonnegative[j] False marks variable j as free.
    """

    objective: np.ndarray
    row_coeffs: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    nonnegative: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objective",
                           np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "row_coeffs",
                           np.atleast_2d(np.asarray(self.row_coeffs,
                                                    dtype=float)))
        object.__setattr__(self, "row_lower",
                           np.asarray(self.row_lower, dtype=float))
        object.__setattr__(self, "row_upper",
                           np.asarray(self.row_upper, dtype=float))
        object.__setattr__(self, "nonnegative",
                           np.asarray(self.nonnegative, dtype=bool))
        m, n = self.row_coeffs.shape
        if self.objective.shape != (n,) or self.nonnegative.shape != (n,):
            raise ValueError("objective/nonnegative length must match columns")
        if self.row_lower.shape != (m,) or self.row_upper.shape != (m,):
            raise ValueError("row bound length must match row count")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        if not np.isfinite(self.row_coeffs).all():
            raise ValueError("row coefficients must be finite")
        if np.isnan(self.row_lower).any() or np.isnan(self.row_upper).any():
            raise ValueError("row bounds must not be NaN")


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None


def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def transform_chain_fk(model, q, axis):
    """Forward kinematics as a product of homogeneous 4x4 transforms."""
    T = np.eye(4)
    T[:3, 3] = model.base_position
    for j, angle in enumerate(q):
        rot = np.eye(4)
        rot[:3, :3] = rodrigues(axis, angle)
        step = np.eye(4)
        step[0, 3] = model.link_lengths[j]
        T = T @ rot @ step
    return T[:3, 3], T[:3, :3]


def closed_form_2r(model, q, qdot, qddot, gravity):
    """Planar 2R equations of motion written out longhand.

    Link angles are counterclockwise from +X toward +Z with gravity along
    world -Z; positive torque turns the link the same way.
    """
    m1, m2 = model.link_masses
    l1 = model.link_lengths[0]
    c1, c2 = model.link_com_offsets
    i1, i2 = model.link_inertias
    q1, q2 = q
    s2, cos2 = np.sin(q2), np.cos(q2)

    m11 = m1 * c1 ** 2 + i1 + m2 * (l1 ** 2 + c2 ** 2 + 2 * l1 * c2 * cos2) \
        + i2
    m12 = m2 * (c2 ** 2 + l1 * c2 * cos2) + i2
    m22 = m2 * c2 ** 2 + i2
    M = np.array([[m11, m12], [m12, m22]])

    h = -m2 * l1 * c2 * s2
    C = np.array([[h * qdot[1], h * (qdot[0] + qdot[1])],
                  [-h * qdot[0], 0.0]])

    g1 = (m1 * c1 + m2 * l1) * gravity * np.cos(q1) \
        + m2 * c2 * gravity * np.cos(q1 + q2)
    g2 = m2 * c2 * gravity * np.cos(q1 + q2)
    return M @ qddot + C @ qdot + np.array([g1, g2])


def spatial_rne(model, q, qdot, qddot, gravity):
    """Recursive Newton-Euler in 3-D link frames.

    Every link carries full angular and linear vectors in its own frame,
    rotated from its parent's about the joint axis -Y (positive angles turn
    +X toward +Z); gravity enters as an upward base acceleration.  Returns
    the moment about the joint axis at each joint.
    """
    axis = np.array([0.0, -1.0, 0.0])
    n = len(q)
    rotations = [rodrigues(axis, angle) for angle in q]
    link_offsets = [np.array([length, 0.0, 0.0])
                    for length in model.link_lengths]
    com_offsets = [np.array([offset, 0.0, 0.0])
                   for offset in model.link_com_offsets]
    omega = np.zeros(3)
    omega_dot = np.zeros(3)
    accel = np.array([0.0, 0.0, gravity])
    com_force = np.empty((n, 3))
    com_torque = np.empty((n, 3))
    for i in range(n):
        Rt = rotations[i].T
        if i > 0:
            offset = link_offsets[i - 1]
            accel = accel + np.cross(omega_dot, offset) \
                + np.cross(omega, np.cross(omega, offset))
        accel = Rt @ accel
        omega_prev = Rt @ omega
        omega = omega_prev + qdot[i] * axis
        omega_dot = Rt @ omega_dot + np.cross(omega_prev, qdot[i] * axis) \
            + qddot[i] * axis
        com = com_offsets[i]
        com_accel = accel + np.cross(omega_dot, com) \
            + np.cross(omega, np.cross(omega, com))
        com_force[i] = model.link_masses[i] * com_accel
        spin = model.link_inertias[i] * omega
        com_torque[i] = model.link_inertias[i] * omega_dot \
            + np.cross(omega, spin)

    torques = np.empty(n)
    child_force = np.zeros(3)
    child_torque = np.zeros(3)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            child_force = rotations[i + 1] @ child_force
            child_torque = rotations[i + 1] @ child_torque \
                + np.cross(link_offsets[i], child_force)
        total_force = child_force + com_force[i]
        total_torque = child_torque + com_torque[i] \
            + np.cross(com_offsets[i], com_force[i])
        torques[i] = total_torque @ axis
        child_force = total_force
        child_torque = total_torque
    return torques


def inequality_rows(lp):
    """Rewrite a two-sided-row program as pure inequalities D x <= d.

    Also returns the indices of the rows of D that every feasible point lies
    on: the upper side of each equality row, whose lower side follows it.
    """
    rows, rhs, on = [], [], []
    for a, lo, up in zip(lp.row_coeffs, lp.row_lower, lp.row_upper):
        if np.isfinite(lo) and lo == up:
            on.append(len(rows))
        if np.isfinite(up):
            rows.append(a)
            rhs.append(up)
        if np.isfinite(lo):
            rows.append(-a)
            rhs.append(-lo)
    for j in np.flatnonzero(lp.nonnegative):
        row = np.zeros(lp.objective.size)
        row[j] = -1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs), on


def vertex_enumeration_optimum(lp, tol=1e-9, chunk=100000):
    """Best objective over all feasible basic points of a bounded program.

    A vertex lies on every equality row, so each candidate subset holds the
    upper side of each equality row (they must be linearly independent)
    plus n minus that many of the other inequality rows, and is solved as a
    candidate vertex; batches keep the linear algebra vectorized without
    holding all subsets' matrices at once.  Returns None when no subset
    yields a feasible point.
    """
    D, d, on = inequality_rows(lp)
    rest = [i for i in range(D.shape[0]) if i not in on and i - 1 not in on]
    picks = lp.objective.size - len(on)
    count = math.comb(len(rest), picks)
    chosen = np.fromiter(chain.from_iterable(combinations(rest, picks)),
                         dtype=int, count=count * picks)
    subsets = np.column_stack([np.tile(np.array(on, dtype=int), (count, 1)),
                               chosen.reshape(count, picks)])
    best = None
    for start in range(0, subsets.shape[0], chunk):
        idx = subsets[start:start + chunk]
        Ds = D[idx]
        keep = np.abs(np.linalg.det(Ds)) > 1e-10
        if not keep.any():
            continue
        xs = np.linalg.solve(Ds[keep], d[idx[keep]][..., None])[..., 0]
        feasible = np.all(xs @ D.T <= d + tol, axis=1)
        if not feasible.any():
            continue
        value = float(np.max(xs[feasible] @ lp.objective))
        if best is None or value > best:
            best = value
    return best


def bisect_capability(problem, use_delta=False, alpha_i=0.0, cap=1e6):
    """Largest feasible wrench scale by bracket expansion plus bisection.

    Assumes the scale 0 is feasible (the generators used in tests arrange
    that); returns 0.0 when it is not, and cap when the bracket expands past
    the cap without hitting infeasibility.
    """
    offset = problem.tau_prime + (alpha_i * problem.jt_hdelta if use_delta
                                  else 0.0)
    a = problem.jt_hd
    tau = problem.tau_max

    def feasible(k):
        return bool(np.all(np.abs(offset + k * a) <= tau))

    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
        if lo >= cap:
            return cap
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# Frozen copy of the array formulation of the planar kinematics.
_REFERENCE_JOINT_AXIS = np.array([0.0, -1.0, 0.0])
_REFERENCE_SINGULAR_THRESHOLD = 1e-6
_REFERENCE_DAMPING = 1e-6
_REFERENCE_FD_STEP = 1e-7


def _reference_link_angles(model, q):
    return np.cumsum(q)


def reference_joint_positions(model, q):
    """World positions of each joint origin plus the end effector."""
    q = np.asarray(q, dtype=float)
    angles = _reference_link_angles(model, q)
    points = np.zeros((q.size + 1, 3))
    points[0] = model.base_position
    points[1:, 0] = model.base_position[0] + np.cumsum(model.link_lengths * np.cos(angles))
    points[1:, 1] = model.base_position[1]
    points[1:, 2] = model.base_position[2] + np.cumsum(model.link_lengths * np.sin(angles))
    return points


def reference_jacobian(model, state):
    """Geometric Jacobian (6 x n), rows [px, py, pz, wx, wy, wz]."""
    q = state.q if isinstance(state, JointState) else np.asarray(state, float)
    n = q.size
    points = reference_joint_positions(model, q)
    ee = points[-1]
    J = np.zeros((6, n))
    # JOINT_AXIS x lever expands to (-lever_z, 0, lever_x)
    J[0, :] = points[:-1, 2] - ee[2]
    J[2, :] = ee[0] - points[:-1, 0]
    J[3:, :] = _REFERENCE_JOINT_AXIS[:, None]
    return J


def _reference_planar_block(J):
    # rows px, pz, wy of the full Jacobian
    return J[[0, 2, 4], :]


def _reference_solve_planar(J3, rhs):
    """Solve the 3x3 planar system, damping it near singularities."""
    smallest = np.linalg.svd(J3, compute_uv=False)[-1]
    if smallest < _REFERENCE_SINGULAR_THRESHOLD:
        lhs = J3.T @ J3 + _REFERENCE_DAMPING * np.eye(3)
        return np.linalg.solve(lhs, J3.T @ rhs), True
    return np.linalg.solve(J3, rhs), False


def reference_differential_ik(model, state, ee_twist, ee_accel):
    """Joint velocities and accelerations realizing an end-effector motion."""
    q = state.q if isinstance(state, JointState) else np.asarray(state, float)
    ee_twist = np.asarray(ee_twist, dtype=float)
    ee_accel = np.asarray(ee_accel, dtype=float)
    J3 = _reference_planar_block(reference_jacobian(model, q))
    qdot, damped_vel = _reference_solve_planar(J3, ee_twist[[0, 2, 4]])
    jdot = np.zeros((6, q.size))
    for j in range(q.size):
        bump = np.zeros(q.size)
        bump[j] = _REFERENCE_FD_STEP
        dJ = (reference_jacobian(model, q + bump)
              - reference_jacobian(model, q - bump)) \
            / (2.0 * _REFERENCE_FD_STEP)
        jdot += dJ * qdot[j]
    rhs = ee_accel[[0, 2, 4]] - _reference_planar_block(jdot) @ qdot
    qddot, damped_acc = _reference_solve_planar(J3, rhs)
    return DifferentialIk(qdot, qddot, damped_vel or damped_acc)


def _richardson_jacobian_rate(model, q, qdot, levels=4):
    """dJ/dt along q(t) = q + t qdot, by Richardson-extrapolated central
    differences of reference_jacobian.

    Each level halves the step and cancels the next even power of it from
    the truncation error.
    """
    step = 1e-2 / max(1.0, float(np.max(np.abs(qdot))))
    previous = []
    for level in range(levels):
        h = step / 2 ** level
        row = [(reference_jacobian(model, q + h * qdot)
                - reference_jacobian(model, q - h * qdot)) / (2.0 * h)]
        for j, coarser in enumerate(previous):
            row.append(row[j] + (row[j] - coarser) / (4 ** (j + 1) - 1))
        previous = row
    return previous[-1]


def exact_differential_ik(model, q, ee_twist, ee_accel):
    """reference_differential_ik with J-dot from _richardson_jacobian_rate.

    Takes the same 6-row twists; the solves and the damping rule are the
    frozen ones, so only the Jacobian derivative differs.
    """
    q = np.asarray(q, dtype=float)
    ee_twist = np.asarray(ee_twist, dtype=float)
    ee_accel = np.asarray(ee_accel, dtype=float)
    J3 = _reference_planar_block(reference_jacobian(model, q))
    qdot, damped = _reference_solve_planar(J3, ee_twist[[0, 2, 4]])
    jdot = _reference_planar_block(_richardson_jacobian_rate(model, q, qdot))
    qddot, _ = _reference_solve_planar(J3, ee_accel[[0, 2, 4]] - jdot @ qdot)
    return DifferentialIk(qdot, qddot, damped)


# Frozen copy of the per-step run pipeline: every step solves each arm's
# differential IK (with the finite-difference J-dot above) and its inverse
# dynamics on their own, then runs the capability solves of the mode.
_REFERENCE_BETA_TOL = 1e-6


def reference_inverse_dynamics(model, q, qdot, qddot, gravity):
    """Planar recursive Newton-Euler, one joint state, in math floats."""
    accel_x, accel_z = 0.0, gravity  # base acceleration trick
    links = []
    for angle, rate, rate_dot, length, com, mass, inertia in zip(
            accumulate(np.asarray(q, float).tolist()),
            accumulate(np.asarray(qdot, float).tolist()),
            accumulate(np.asarray(qddot, float).tolist()),
            model.link_lengths.tolist(), model.link_com_offsets.tolist(),
            model.link_masses.tolist(), model.link_inertias.tolist(),
            strict=True):
        c, s = math.cos(angle), math.sin(angle)
        per_x = -rate_dot * s - rate * rate * c
        per_z = rate_dot * c - rate * rate * s
        links.append((length * c, length * s, com * c, com * s,
                      mass * (accel_x + com * per_x),
                      mass * (accel_z + com * per_z), inertia * rate_dot))
        accel_x += length * per_x
        accel_z += length * per_z
    torques = np.empty(len(links))
    force_x = force_z = moment = 0.0
    for i in range(len(links) - 1, -1, -1):
        tip_x, tip_z, com_x, com_z, inertial_x, inertial_z, spin = links[i]
        moment += spin + tip_x * force_z - tip_z * force_x \
            + com_x * inertial_z - com_z * inertial_x
        force_x += inertial_x
        force_z += inertial_z
        torques[i] = moment
    return torques


def reference_evaluate_trajectory(spec, t):
    """Object position, velocity and acceleration at time t, on math floats."""
    if spec.kind == "static-hold":
        return spec.center, np.zeros(3), np.zeros(3)
    w = spec.angular_rate
    angle = w * t
    radial = np.array([math.cos(angle), 0.0, math.sin(angle)])
    tangent = np.array([-math.sin(angle), 0.0, math.cos(angle)])
    return (spec.center + spec.radius * radial, spec.radius * w * tangent,
            -spec.radius * w * w * radial)


def reference_ik_planar3r(model, target):
    """Closed-form IK of one target: 0, 1 or 2 joint-angle arrays."""
    p, pitch = target.position, target.pitch
    base = model.base_position
    if abs(p[1] - base[1]) > 1e-9:
        return []
    l1, l2, l3 = model.link_lengths
    wrist_u = p[0] - l3 * np.cos(pitch) - base[0]
    wrist_v = p[2] - l3 * np.sin(pitch) - base[2]
    rr = wrist_u ** 2 + wrist_v ** 2
    cos_elbow = (rr - l1 ** 2 - l2 ** 2) / (2.0 * l1 * l2)
    if abs(cos_elbow) > 1.0 + 1e-9:
        return []
    cos_elbow = min(1.0, max(-1.0, cos_elbow))
    elbow = float(np.arccos(cos_elbow))
    solutions = []
    for q2 in (elbow, -elbow):
        q1 = float(np.arctan2(wrist_v, wrist_u)
                   - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2)))
        q3 = pitch - q1 - q2
        solutions.append(np.array([q1, q2, q3]))
    if np.abs(solutions[0] - solutions[1]).max() < 1e-10:
        return solutions[:1]
    return solutions


def reference_capability_scalar(problem, moment, unbounded_cap):
    """One arm's scalar solve, as (k, flag), with inactive rows dropped."""
    offset = problem.tau_prime + moment
    a = problem.jt_hd
    tau = problem.tau_max
    fixed = a == 0.0
    if fixed.any():
        if (np.abs(offset[fixed]) > tau[fixed]).any():
            return 0.0, FLAG_INFEASIBLE
        active = ~fixed
        if not active.any():
            return float(unbounded_cap), FLAG_UNBOUNDED
        a, offset, tau = a[active], offset[active], tau[active]
    lo = (-tau - offset) / a
    hi = (tau - offset) / a
    lower = float(max(0.0, np.minimum(lo, hi).max()))
    upper = float(np.maximum(lo, hi).min())
    if upper < lower:
        return 0.0, FLAG_INFEASIBLE
    if upper > unbounded_cap:
        return float(unbounded_cap), FLAG_UNBOUNDED
    return upper, None


def _reference_ik_path(model, grasp_point, states):
    """Closed-form IK at every state, continuing the previous branch."""
    path, previous = [], None
    for state in states:
        solutions = ik_planar3r(model, ee_pose_from_object(state,
                                                           grasp_point))
        if not solutions:
            raise AssertionError("reference_run needs reachable scenarios")
        if previous is None:
            # elbow-out: the elbow farthest from the object
            previous = max(solutions, key=lambda q: float(np.linalg.norm(
                reference_joint_positions(model, q)[1] - state.position)))
        else:
            wrapped = [previous + ((q - previous + math.pi) % (2.0 * math.pi)
                                   - math.pi) for q in solutions]
            previous = min(wrapped, key=lambda q: float(
                np.linalg.norm(q - previous)))
        path.append(previous)
    return path


def _reference_step(config, grasp_map, state, t, joints):
    h_d = object_desired_wrench(config.object, state, config.gravity)
    flags = set()
    zero = np.zeros(3)
    twist = np.concatenate([state.linear_velocity, zero])
    accel = np.concatenate([state.linear_accel, zero])
    problems = []
    for model, q in zip(config.manipulators, joints):
        motion = reference_differential_ik(model, q, twist, accel)
        if motion.damped:
            flags.add(FLAG_SINGULAR)
        if (np.abs(motion.qdot) > model.velocity_limits).any():
            flags.add(FLAG_VELOCITY)
        problems.append(CapabilityProblem(
            jt_hd=reference_jacobian(model, q).T @ h_d,
            tau_prime=reference_inverse_dynamics(
                model, q, motion.qdot, motion.qddot, config.gravity),
            tau_max=model.torque_limits))
    cap = config.unbounded_cap
    count = len(problems)
    k0 = np.empty(count)
    for a, problem in enumerate(problems):
        k0[a], flag = capability_scalar(problem, unbounded_cap=cap)
        if flag is not None:
            flags.add(flag)

    def shares(k_vector):
        if config.beta_policy == "uniform":
            return np.full(count, 1.0 / count)
        try:
            return allocate_proportional(k_vector)
        except ZeroCapabilityError:
            return np.full(count, 1.0 / count)

    beta = shares(k0)
    if config.mode == "baseline":
        t_delta, _ = counterbalance_moment(AllocationWeights(beta), grasp_map,
                                           h_d[:3])
        return CapabilitySample(time=t, k=k0, K0=float(np.sum(k0)), K1=None,
                                beta=beta, alpha=None, t_delta=t_delta,
                                flags=flags)
    for _ in range(config.beta_iterations + 1):
        used = beta
        t_delta, h_delta = counterbalance_moment(AllocationWeights(beta),
                                                 grasp_map, h_d[:3])
        moment = float(_REFERENCE_JOINT_AXIS @ h_delta[3:])
        if config.mode == "improved-joint":
            improved = group_capability_joint(problems, moment,
                                              unbounded_cap=cap)
        else:
            improved = group_capability(problems, beta, moment,
                                        unbounded_cap=cap)
        if improved.K1 <= 0.0:
            break
        refined = shares(improved.k)
        if float(np.max(np.abs(refined - beta))) <= _REFERENCE_BETA_TOL:
            break
        beta = refined
    return CapabilitySample(time=t, k=improved.k, K0=float(np.sum(k0)),
                            K1=improved.K1, beta=used, alpha=improved.alpha,
                            t_delta=t_delta, flags=flags | improved.flags)


def reference_run(config):
    """The samples run_scenario(config) gives, computed step by step."""
    times = time_grid(config)
    states = [evaluate_trajectory(config.trajectory, t) for t in times]
    paths = [_reference_ik_path(model, grasp_point, states)
             for model, grasp_point in zip(config.manipulators,
                                           config.object.grasp_points)]
    grasp_map = GraspMap.from_object(config.object)
    return tuple(_reference_step(config, grasp_map, state, float(t), joints)
                 for state, t, joints in zip(states, times, zip(*paths)))


# Frozen copy of the row-by-row assembly of the joint program and of the
# dense two-phase simplex it is solved with.
_REFERENCE_PIVOT_TOL = 1e-10
_REFERENCE_COST_TOL = 1e-9
_REFERENCE_FEAS_TOL = 1e-8
_REFERENCE_BLAND_AFTER = 2000
_REFERENCE_MAX_ITER = 50000


def _reference_pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _reference_iterate(T, basis, cost):
    """Run simplex iterations for one phase; returns 'optimal'/'unbounded'."""
    for iteration in range(_REFERENCE_MAX_ITER):
        reduced = cost[basis] @ T[:, :-1] - cost
        candidates = (reduced < -_REFERENCE_COST_TOL).nonzero()[0]
        if candidates.size == 0:
            return OPTIMAL
        if iteration < _REFERENCE_BLAND_AFTER:
            col = candidates[int(reduced[candidates].argmin())]
        else:
            col = candidates[0]
        coeffs = T[:, col]
        rows = (coeffs > _REFERENCE_PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = np.maximum(T[rows, -1], 0.0) / coeffs[rows]
        best = ratios.min()
        ties = rows[(ratios <= best + _REFERENCE_PIVOT_TOL).nonzero()[0]]
        row = ties[int(basis[ties].argmin())]
        _reference_pivot(T, basis, row, col)
    raise RuntimeError("simplex iteration limit exceeded")


def reference_simplex_solve(lp):
    """Solve a LinearProgram; status is optimal, infeasible, or unbounded."""
    n = lp.objective.size
    # split free variables into differences of non-negative parts
    pos_col = np.arange(n)
    free = ~lp.nonnegative
    neg_col = np.full(n, -1)
    neg_col[free] = n + np.arange(int(free.sum()))
    n_std = n + int(free.sum())

    def widen(vec):
        wide = np.zeros(n_std)
        wide[pos_col] = vec
        wide[neg_col[free]] = -vec[free]
        return wide

    cost = widen(lp.objective)

    rows = []          # (coeffs in standard vars, rhs, is_equality)
    for a, lo, up in zip(lp.row_coeffs, lp.row_lower, lp.row_upper):
        if lo > up:
            return SimplexResult(INFEASIBLE)
        wide = widen(a)
        if np.isfinite(lo) and lo == up:
            rows.append((wide, lo, True))
            continue
        if np.isfinite(up):
            rows.append((wide, up, False))
        if np.isfinite(lo):
            rows.append((-wide, -lo, False))
    m = len(rows)
    if m == 0:
        # only the sign restrictions remain; bounded iff no free/positive gain
        gain = (lp.objective[lp.nonnegative] > _REFERENCE_COST_TOL).any() or \
            (lp.objective[free] != 0.0).any()
        if gain:
            return SimplexResult(UNBOUNDED)
        x = np.zeros(n)
        return SimplexResult(OPTIMAL, x, 0.0)

    n_slack = sum(1 for _, _, eq in rows if not eq)
    A = np.zeros((m, n_std + n_slack))
    b = np.zeros(m)
    slack_at = n_std
    slack_cols = np.full(m, -1)
    for i, (wide, rhs, eq) in enumerate(rows):
        A[i, :n_std] = wide
        b[i] = rhs
        if not eq:
            A[i, slack_at] = 1.0
            slack_cols[i] = slack_at
            slack_at += 1
    negate = b < 0.0
    A[negate] *= -1.0
    b[negate] = -b[negate]

    # rows whose slack survived sign-normalization start as the basis;
    # all others receive an artificial variable
    needs_artificial = np.flatnonzero(negate | (slack_cols < 0))
    n_real = A.shape[1]
    T = np.zeros((m, n_real + needs_artificial.size + 1))
    T[:, :n_real] = A
    T[:, -1] = b
    basis = np.full(m, -1)
    for i in range(m):
        if slack_cols[i] >= 0 and not negate[i]:
            basis[i] = slack_cols[i]
    art_cost = np.zeros(n_real + needs_artificial.size)
    for offset, i in enumerate(needs_artificial):
        col = n_real + offset
        T[i, col] = 1.0
        basis[i] = col
        art_cost[col] = -1.0

    if needs_artificial.size:
        status = _reference_iterate(T, basis, art_cost)
        assert status == OPTIMAL  # phase-1 objective is bounded by zero
        if art_cost[basis] @ T[:, -1] < -_REFERENCE_FEAS_TOL:
            return SimplexResult(INFEASIBLE)
        # pivot lingering artificials out, dropping redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_real:
                pivots = np.flatnonzero(np.abs(T[i, :n_real]) > _REFERENCE_PIVOT_TOL)
                if pivots.size:
                    _reference_pivot(T, basis, i, pivots[0])
                else:
                    keep[i] = False
        T = T[keep][:, list(range(n_real)) + [-1]]
        basis = basis[keep]

    full_cost = np.zeros(T.shape[1] - 1)
    full_cost[:n_std] = cost[:n_std]
    status = _reference_iterate(T, basis, full_cost)
    if status != OPTIMAL:
        return SimplexResult(UNBOUNDED)

    solution = np.zeros(T.shape[1] - 1)
    solution[basis] = T[:, -1]
    x = solution[pos_col].copy()
    x[free] -= solution[neg_col[free]]
    return SimplexResult(OPTIMAL, x, float(lp.objective @ x))


def _reference_check_cap(unbounded_cap):
    if not 0.0 < unbounded_cap < np.inf:
        raise ValueError("unbounded_cap must be positive and finite, "
                         f"got {unbounded_cap!r}")


def joint_program(problems, unbounded_cap):
    """The joint capability program as a LinearProgram.

    Decision variables are every manipulator's scale k_i >= 0 and free
    shares alpha_i summing to 1; the objective is the summed scale.  Each
    joint contributes a two-sided torque row, the problem's per-joint
    moment column ``jt_hdelta`` scaling alpha_i.  Explicit caps keep
    otherwise unbounded scales at the documented ceiling instead of an
    unbounded verdict.
    """
    count = len(problems)
    n_vars = 2 * count
    rows = []
    lowers = []
    uppers = []
    for i, problem in enumerate(problems):
        for j in range(problem.joint_count):
            row = np.zeros(n_vars)
            row[i] = problem.jt_hd[j]
            row[count + i] = problem.jt_hdelta[j]
            rows.append(row)
            lowers.append(-problem.tau_max[j] - problem.tau_prime[j])
            uppers.append(problem.tau_max[j] - problem.tau_prime[j])
    share_row = np.zeros(n_vars)
    share_row[count:] = 1.0
    rows.append(share_row)
    lowers.append(1.0)
    uppers.append(1.0)
    for i in range(count):
        cap_row = np.zeros(n_vars)
        cap_row[i] = 1.0
        rows.append(cap_row)
        lowers.append(-np.inf)
        uppers.append(float(unbounded_cap))
    objective = np.zeros(n_vars)
    objective[:count] = 1.0
    nonneg = np.zeros(n_vars, dtype=bool)
    nonneg[:count] = True
    return LinearProgram(
        objective=objective,
        row_coeffs=np.array(rows),
        row_lower=np.array(lowers),
        row_upper=np.array(uppers),
        nonnegative=nonneg,
    )


def reference_group_capability_joint(problems, *, unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Group capability co-optimizing the compensation split: the joint
    program solved by the frozen simplex."""
    _reference_check_cap(unbounded_cap)
    count = len(problems)
    result = reference_simplex_solve(joint_program(problems, unbounded_cap))
    if result.status == INFEASIBLE:
        return GroupCapability(np.zeros(count), None,
                               frozenset({FLAG_INFEASIBLE}))
    if result.status != OPTIMAL:
        raise RuntimeError("joint capability program unexpectedly unbounded")
    k = result.x[:count].copy()
    capped = np.any(k >= unbounded_cap * (1.0 - 1e-9))
    return GroupCapability(k, result.x[count:].copy(),
                           frozenset({FLAG_UNBOUNDED} if capped else ()))


def _secant(problem, mu, k, h, cap, tol):
    """Slope of the joint program's k(mu) from mu to mu + h (h may be < 0).

    Infinite, with the sign that bounds nothing, where the arm is
    infeasible at mu + h: where the scalar solve says so, or where it clips
    to the cap but the cap breaks a torque row (in the joint program the cap
    is a constraint).
    """
    shifted = mu + h
    other = capability_scalar(problem, moment=shifted, unbounded_cap=cap)
    load = problem.tau_prime + other.k * problem.jt_hd + shifted
    if other.flag == FLAG_INFEASIBLE \
            or (np.abs(load) > problem.tau_max + tol).any():
        return math.copysign(math.inf, -h)
    return (other.k - k) / h


def joint_optimality_violations(problems, moment, result, *,
                                unbounded_cap=DEFAULT_UNBOUNDED_CAP,
                                tol=1e-9, step=1e-4):
    """Why a feasible joint result is not optimal; [] if it is.

    Feasibility: every torque row |tau_prime + k_i jt_hd + alpha_i moment|
    <= tau_max holds to tol, 0 <= k_i <= cap, the shares sum to 1 to tol
    (summed exactly), and the unbounded flag is set exactly when some k_i
    reaches the cap.  Optimality: each k_i is at least the scalar solve at
    the arm's moment mu_i = alpha_i * moment, and, unless the moment is 0
    (every mu_i is 0 then), one slope lies between every arm's left and
    right slope of k(mu) at mu_i.  The slopes are secants over
    h = step * max(1, max |mu_j|), well above the rounding of the mu_j;
    a secant only widens the interval of slopes of a concave profile.
    """
    k, alpha = result.k.tolist(), result.alpha.tolist()
    cap = float(unbounded_cap)
    found = []
    if abs(math.fsum(alpha) - 1.0) > tol:
        found.append(f"shares sum to {math.fsum(alpha)!r}")
    capped = any(k_i >= cap * (1.0 - 1e-9) for k_i in k)
    if result.flags != ({FLAG_UNBOUNDED} if capped else set()):
        found.append(f"flags {set(result.flags)} with k {k}")
    mus = [alpha_i * moment for alpha_i in alpha]
    h = step * max([1.0] + [abs(mu) for mu in mus])
    lefts, rights = [], []
    for i, (problem, k_i, mu) in enumerate(zip(problems, k, mus,
                                               strict=True)):
        load = problem.tau_prime + k_i * problem.jt_hd + mu
        if (np.abs(load) > problem.tau_max + tol).any() \
                or not -tol <= k_i <= cap * (1.0 + tol):
            found.append(f"arm {i}: k {k_i!r} at moment {mu!r} breaks a "
                         "torque row")
        best = capability_scalar(problem, moment=mu, unbounded_cap=cap).k
        if k_i < best - tol * max(1.0, best):
            found.append(f"arm {i}: k {k_i!r} below its capability {best!r}")
        lefts.append(_secant(problem, mu, k_i, -h, cap, tol))
        rights.append(_secant(problem, mu, k_i, h, cap, tol))
    if moment != 0.0:
        scale = 1.0 + max((abs(v) for v in lefts + rights
                           if math.isfinite(v)), default=0.0)
        if max(rights) > min(lefts) + 1e-6 * scale:
            found.append(f"no common slope: right slopes {rights}, left "
                         f"slopes {lefts}")
    return found


# Cross-checks of the dynamics, the grasp map and the scalar solve.
def mass_matrix(model, q):
    """Joint-space inertia matrix, assembled column by column."""
    q = np.asarray(q, dtype=float)
    zero = np.zeros(q.size)
    return np.column_stack([
        inverse_dynamics(model, JointState(q, zero, unit), gravity=0.0)
        for unit in np.eye(q.size)])


def gravity_vector(model, q, gravity):
    """Joint torques holding the chain static under gravity."""
    q = np.asarray(q, dtype=float)
    zero = np.zeros(q.size)
    return inverse_dynamics(model, JointState(q, zero, zero), gravity)


def skew(vec):
    """Cross-product matrix: skew(a) @ b == cross(a, b)."""
    x, y, z = np.asarray(vec, dtype=float)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def grasp_matrix(grasp_vector):
    """6x6 map from a grasp-point wrench to the object-frame wrench.

    Top rows pass force through unchanged; the lower-left block adds the
    moment of the force about the object CoM.
    """
    G = np.eye(6)
    G[3:, :3] = skew(grasp_vector)
    return G


def object_wrench_from_ee(grasp_map, wrenches):
    """Total object wrench [f; m] from one grasp wrench [f; m] per row."""
    wrenches = np.asarray(wrenches, dtype=float)
    if wrenches.shape != (grasp_map.count, 6):
        raise ValueError(f"wrenches must have shape ({grasp_map.count}, 6), "
                         f"got {wrenches.shape}")
    total = np.zeros(6)
    for r, wrench in zip(grasp_map.grasp_vectors, wrenches):
        total += grasp_matrix(r) @ wrench
    return total


def feasible_wrench_check(problem, k):
    """Whether k times the desired wrench keeps every joint in its limit."""
    load = problem.tau_prime + k * problem.jt_hd
    return bool(np.all(np.abs(load) <= problem.tau_max))
