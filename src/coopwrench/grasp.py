"""Grasp geometry: wrench transmission and load-share bookkeeping.

Each grasp point contributes to the object wrench through a 6x6 map built
from the cross-product matrix of its world-frame offset from the object CoM.
Shares split the desired wrench among manipulators; any share-weighted
centroid offset from the CoM turns force into an induced moment, which the
counterbalance machinery hands back to the group as a compensating wrench.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioValidationError, Wrench, _set


class ZeroCapabilityError(ValueError):
    """Proportional shares are undefined when the group has zero capability."""


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


@dataclass(frozen=True, eq=False)
class GraspMap:
    """World-frame grasp geometry of the carried object.

    ``grasp_vectors`` are the CoM-to-grasp-point offsets in the world; the
    object does not rotate, so they equal its body-frame grasp points.
    The module function ``grasp_matrix`` maps each one to its transmission
    matrix.
    """

    grasp_vectors: np.ndarray

    @classmethod
    def from_object(cls, obj):
        """Build the map for an object model's grasp points."""
        return cls.from_vectors(obj.grasp_points)

    @classmethod
    def from_vectors(cls, grasp_vectors):
        vectors = np.array(grasp_vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != 3:
            raise ValueError("grasp vectors must be an N x 3 array")
        vectors.flags.writeable = False
        return cls(vectors)

    @property
    def count(self):
        return self.grasp_vectors.shape[0]


def object_wrench_from_ee(grasp_map, wrenches):
    """Total object wrench produced by per-manipulator grasp wrenches."""
    if len(wrenches) != grasp_map.count:
        raise ValueError(
            f"expected {grasp_map.count} wrenches, got {len(wrenches)}")
    total = np.zeros(6)
    for r, wrench in zip(grasp_map.grasp_vectors, wrenches):
        total += grasp_matrix(r) @ wrench.as_vector()
    return Wrench.from_vector(total)


@dataclass(frozen=True, eq=False)
class AllocationWeights:
    """Load shares: beta splits the desired wrench among manipulators."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size < 1 or not np.all(np.isfinite(beta)):
            raise ScenarioValidationError("beta must be a finite vector")
        if abs(float(np.sum(beta)) - 1.0) > 1e-12:
            raise ScenarioValidationError("beta must sum to 1")
        beta.flags.writeable = False
        _set(self, "beta", beta)


def allocate_proportional(capabilities):
    """Shares proportional to per-manipulator capability scalars."""
    k = np.asarray(capabilities, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError(f"capabilities must be finite, got {k.tolist()!r}")
    if (k < 0.0).any():
        raise ValueError("capability scalars must be non-negative")
    total = float(np.sum(k))
    if total <= 0.0:
        raise ZeroCapabilityError("group has zero capability; shares undefined")
    return k / total


def counterbalance_moment(weights, grasp_map, object_force):
    """Moment induced by off-CoM force application, and its compensation.

    Splitting a pure force by shares beta applies it at the share-weighted
    grasp centroid; the induced moment is that centroid offset crossed with
    the force.  The returned wrench (zero force, negated moment) is what the
    group must additionally apply so the object still feels exactly the
    desired wrench.  object_force must be a 3-vector (ValueError otherwise).
    """
    force = np.asarray(object_force, dtype=float)
    if force.shape != (3,):
        raise ValueError(
            f"object_force must have shape (3,), got {force.shape}")
    cx, cy, cz = (weights.beta @ grasp_map.grasp_vectors).tolist()
    fx, fy, fz = force.tolist()
    induced = np.array([cy * fz - cz * fy, cz * fx - cx * fz,
                        cx * fy - cy * fx])
    return induced, Wrench(np.zeros(3), -induced)
