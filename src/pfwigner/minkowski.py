"""Minkowski four-vector algebra and Lorentz transformations.

Signature (+,-,-,-), units c = 1. Transformations are plain 4x4 real
matrices wrapped in a validating container; boosts are the unique pure
(rotation-free) ones, rotations act on the spatial block only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)

# Construction-time validation.
CONSTRUCTION_TOL = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(angle, math.tau)
    if r <= -math.pi:
        r = math.pi
    return r


@dataclass(frozen=True)
class FourVector:
    t: float
    x: float
    y: float
    z: float

    @classmethod
    def from_array(cls, a) -> "FourVector":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def norm2(self) -> float:
        return minkowski_dot(self, self)

    def is_null(self, tol: float = CONSTRUCTION_TOL) -> bool:
        scale = max(1.0, self.t * self.t)
        return abs(self.norm2()) <= tol * scale

    def is_unit_timelike(self, tol: float = CONSTRUCTION_TOL) -> bool:
        scale = max(1.0, self.t * self.t)
        return abs(self.norm2() - 1.0) <= tol * scale


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    """Proper orthochronous Lorentz matrix, validated on construction.

    Metric preservation is checked with a scale-aware tolerance
    (1e-12 for unit-scale entries, relaxed quadratically for large
    boosts, whose entries grow like gamma).
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()) ** 2)
        err = np.abs(m.T @ METRIC @ m - METRIC).max()
        if err > CONSTRUCTION_TOL * scale:
            raise ValueError(f"matrix does not preserve the metric (err={err:.3e})")
        if abs(np.linalg.det(m) - 1.0) > CONSTRUCTION_TOL * scale:
            raise ValueError("matrix is not proper (det != +1)")
        if m[0, 0] < 1.0 - CONSTRUCTION_TOL:
            raise ValueError("matrix is not orthochronous (m[0][0] < 1)")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


IDENTITY = LorentzTransform(np.eye(4))


@dataclass(frozen=True)
class FrameVelocity:
    """Unit timelike four-velocity of the distinguished frame.

    theta_vector = spatial(u)/u.t is the frame's velocity seen by the
    observer; theta = |theta_vector| in units of c.
    """

    u: FourVector

    def __post_init__(self):
        scale = max(1.0, self.u.t * self.u.t)
        if abs(self.u.norm2() - 1.0) > CONSTRUCTION_TOL * scale:
            raise ValueError("u is not unit timelike")
        if self.u.t < 1.0 - CONSTRUCTION_TOL:
            raise ValueError("u is not future-pointing (u.t < 1)")

    @classmethod
    def rest(cls) -> "FrameVelocity":
        return cls(FourVector(1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_velocity(cls, v) -> "FrameVelocity":
        v = np.asarray(v, dtype=float)
        v2 = float(v @ v)
        if v2 >= 1.0:
            raise ValueError("speed must be < 1")
        g = 1.0 / math.sqrt(1.0 - v2)
        return cls(FourVector(g, *(g * v)))

    @property
    def theta_vector(self) -> np.ndarray:
        return self.u.spatial / self.u.t

    @property
    def theta(self) -> float:
        return float(np.linalg.norm(self.theta_vector))


@dataclass(frozen=True)
class PhotonKinematics:
    """A photon momentum together with the frame velocity it is paired with."""

    k: FourVector
    u: FrameVelocity

    def __post_init__(self):
        scale = max(1.0, self.k.t * self.k.t)
        if abs(self.k.norm2()) > CONSTRUCTION_TOL * scale:
            raise ValueError("k is not null")
        if self.k.t <= 0.0:
            raise ValueError("k must have positive energy")
        if self.kappa <= 0.0:
            raise ValueError("kappa = eta(u, k) must be positive")

    @property
    def kappa(self) -> float:
        return minkowski_dot(self.u.u, self.k)


def boost_to(u: FrameVelocity) -> LorentzTransform:
    """The unique pure boost taking (1;0,0,0) to u."""
    g = u.u.t
    w = u.u.spatial
    m = np.eye(4)
    m[0, 0] = g
    m[0, 1:] = w
    m[1:, 0] = w
    m[1:, 1:] += np.outer(w, w) / (1.0 + g)
    return LorentzTransform(m)


def boost_from_velocity(v) -> LorentzTransform:
    return boost_to(FrameVelocity.from_velocity(v))


def rotation_about(axis, delta: float) -> LorentzTransform:
    """Spatial rotation by delta about a unit axis (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > CONSTRUCTION_TOL:
        raise ValueError("axis must be a unit vector")
    kx = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    r = np.eye(3) + math.sin(delta) * kx + (1.0 - math.cos(delta)) * (kx @ kx)
    m = np.eye(4)
    m[1:, 1:] = r
    return LorentzTransform(m)


def rotation_z_to(n) -> LorentzTransform:
    """Minimal rotation taking z-hat to the unit vector n.

    For n != -z the axis is z x n; at n = -z the convention is a
    rotation by pi about x-hat (tie-break, documented).
    """
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > CONSTRUCTION_TOL:
        raise ValueError("n must be a unit vector")
    c = n[2]
    s = math.hypot(n[0], n[1])
    if s < 1e-300:
        if c > 0.0:
            return IDENTITY
        return rotation_about([1.0, 0.0, 0.0], math.pi)
    axis = np.array([-n[1], n[0], 0.0]) / s
    return rotation_about(axis, math.atan2(s, c))


def apply(L: LorentzTransform, v: FourVector) -> FourVector:
    return FourVector.from_array(L.m @ v.vec)


def compose(L2: LorentzTransform, L1: LorentzTransform) -> LorentzTransform:
    return LorentzTransform(L2.m @ L1.m)


def inverse(L: LorentzTransform) -> LorentzTransform:
    # eta-orthogonality gives the inverse without numerical inversion
    return LorentzTransform(METRIC @ L.m.T @ METRIC)
