"""Grasp geometry: wrench transmission and load-share bookkeeping.

A grasp wrench [f; m] reaches the object CoM as [f; m + r x f], where r is
the grasp point's world-frame offset from the CoM.  Shares split the
desired wrench among manipulators; any share-weighted centroid offset from
the CoM turns force into an induced moment, which the counterbalance
machinery hands back to the group as a compensating wrench.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioValidationError, _set


class ZeroCapabilityError(ValueError):
    """Proportional shares are undefined when the group has zero capability."""


@dataclass(frozen=True, eq=False)
class GraspMap:
    """World-frame grasp geometry of the carried object.

    ``grasp_vectors`` are the CoM-to-grasp-point offsets in the world; the
    object does not rotate, so they equal its body-frame grasp points.
    """

    grasp_vectors: np.ndarray

    @classmethod
    def from_object(cls, obj):
        """Build the map for an object model's grasp points."""
        return cls.from_vectors(obj.grasp_points)

    @classmethod
    def from_vectors(cls, grasp_vectors):
        vectors = np.array(grasp_vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1:] != (3,) or \
                vectors.size == 0 or not np.isfinite(vectors).all():
            raise ValueError("grasp_vectors must be a finite N x 3 array "
                             f"with N >= 1, got shape {vectors.shape}")
        vectors.flags.writeable = False
        return cls(vectors)

    @property
    def count(self):
        return self.grasp_vectors.shape[0]


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


def _shares(k, uniform):
    """Load shares of (R, N) capability rows: equal if ``uniform`` or where
    a row sums to 0, else proportional."""
    even = np.full(k.shape, 1.0 / k.shape[1])
    total = k.sum(axis=1, keepdims=True)
    return even if uniform else np.where(
        total > 0.0, k / np.where(total > 0.0, total, 1.0), even)


def counterbalance_moment(weights, grasp_map, object_force):
    """Moment induced by off-CoM force application, and its compensation.

    Splitting a pure force by shares beta applies it at the share-weighted
    grasp centroid; the induced moment is that centroid offset crossed with
    the force.  Returns ``(induced, compensation)``: the group must also
    apply the wrench [0; -induced] so the object feels exactly the desired
    wrench.  object_force must be a 3-vector, with one share per grasp
    point (ValueError otherwise).
    """
    force = np.asarray(object_force, dtype=float)
    if force.shape != (3,):
        raise ValueError(
            f"object_force must have shape (3,), got {force.shape}")
    if weights.beta.size != grasp_map.count:
        raise ValueError(f"{weights.beta.size} shares for "
                         f"{grasp_map.count} grasp points")
    induced = _induced(weights.beta[None], grasp_map.grasp_vectors,
                       force[None])[0]
    return induced, np.concatenate([np.zeros(3), -induced])


def _induced(beta, grasp_vectors, force):
    """Induced moments of (R, N) share rows splitting (R, 3) forces."""
    return np.cross(np.matmul(beta[:, None, :], grasp_vectors)[:, 0], force)
