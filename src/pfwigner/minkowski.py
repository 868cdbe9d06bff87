"""Minkowski four-vector algebra and Lorentz transformations.

Signature (+,-,-,-), units c = 1. Transformations are plain 4x4 real
matrices wrapped in a validating container; boosts are the unique pure
(rotation-free) ones, rotations act on the spatial block only.

Every transform builder also takes N rows of input and returns an
(N,4,4) stack, each matrix validated as a single one would be; a single
input is the N=1 case of the same code. Row-wise products use `row_dot`,
which is bit-identical to `a @ b` on each row (a row-wise
`np.linalg.norm` is not), and per-row angles use `math`, not the numpy
ufuncs, so a stacked row equals its single call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)

# Construction-time validation.
CONSTRUCTION_TOL = 1e-12

# rows of a stack handled at a time: bounds the working arrays of a
# stacked call whatever the length of the stack
STACK_BLOCK = 256


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most STACK_BLOCK rows covering range(n)."""
    return [slice(i, min(i + STACK_BLOCK, n)) for i in range(0, n, STACK_BLOCK)]


def row_dot(a, b) -> np.ndarray:
    """Euclidean product of each row of a with the row of b, as `a[i] @ b[i]`."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def unit_rows(x) -> np.ndarray:
    """Each row of x divided by its norm, as `x[i] / np.linalg.norm(x[i])`."""
    return x / np.sqrt(row_dot(x, x))[..., None]


def format_row(v) -> str:
    return "(" + ", ".join(format(x, ".10g") for x in np.asarray(v).tolist()) + ")"


class RowError(Exception):
    """Base of the errors raised for one row of a stack.

    `row` counts from the first row of the stack and `reason` says what
    is wrong with it; the message reads "row {row}: {reason}".
    """

    def __init__(self, row: int, reason: str):
        super().__init__()
        self.reason = reason
        self.at_row(row)

    def at_row(self, row: int) -> None:
        self.row = row
        self.args = (f"row {row}: {self.reason}",)


class RowValueError(RowError, ValueError):
    """A row of a stack failed validation."""


class rows_from:
    """Context for a stack that is rows `first`, `first` + 1, ... of a
    longer one: a RowError raised inside names the row of the longer one."""

    def __init__(self, first: int):
        self.first = first

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        if self.first and isinstance(exc, RowError):
            exc.at_row(exc.row + self.first)
        return False


def _check_rows(tests, stacked: bool, culprit=None) -> None:
    """Raise ValueError for the first row failing one of `tests`.

    Each test is (ok, message): a boolean row mask and a function of the
    row giving the message. For a stack it is a RowValueError, whose
    message also says, through `culprit(row)`, what the row holds.
    """
    if all(passed.all() for passed, _ in tests):
        return
    i = int(np.argmin(np.logical_and.reduce([passed for passed, _ in tests])))
    message = next(message(i) for passed, message in tests if not passed[i])
    if stacked:
        raise RowValueError(i, message + ("" if culprit is None else f" ({culprit(i)})"))
    raise ValueError(message)


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
        return bool(_on_shell(self.norm2(), self.t, tol))

    def is_unit_timelike(self, tol: float = CONSTRUCTION_TOL) -> bool:
        return bool(_on_shell(self.norm2() - 1.0, self.t, tol))


def _components(a):
    if isinstance(a, FourVector):
        return a.t, a.x, a.y, a.z
    return a[..., 0], a[..., 1], a[..., 2], a[..., 3]


def minkowski_dot(a, b):
    """eta(a, b) of two FourVectors, or of each row of two (...,4) arrays."""
    (at, ax, ay, az), (bt, bx, by, bz) = _components(a), _components(b)
    return at * bt - ax * bx - ay * by - az * bz


def _on_shell(off, t, tol: float = CONSTRUCTION_TOL):
    # |off| <= tol * max(1, t^2): the departure `off` of a Minkowski square
    # from its shell, against a tolerance that grows with the energy t;
    # written so that NaN fails it
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(off) <= tol * np.maximum(1.0, t * t)


def _matrix_tests(b: np.ndarray) -> list:
    # an inf entry, or one whose square overflows, would make the
    # tolerances inf, so those are caught first; each test is written
    # `x <= tol` so that NaN fails it
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.abs(b).max(axis=(1, 2))
        tol = CONSTRUCTION_TOL * np.maximum(1.0, peak * peak)
        err = np.abs(b.transpose(0, 2, 1) @ METRIC @ b - METRIC).max(axis=(1, 2))
        det = np.linalg.det(b)
    return [
        (np.isfinite(peak), lambda i: "matrix has non-finite entries"),
        (np.isfinite(tol), lambda i: "matrix entries are too large to validate"),
        (err <= tol, lambda i: f"matrix does not preserve the metric (err={err[i]:.3e})"),
        (np.abs(det - 1.0) <= tol, lambda i: "matrix is not proper (det != +1)"),
        (b[:, 0, 0] >= 1.0 - CONSTRUCTION_TOL,
         lambda i: "matrix is not orthochronous (m[0][0] < 1)"),
    ]


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    """Proper orthochronous Lorentz matrix, or an (N,4,4) stack of them,
    validated on construction.

    Metric preservation is checked with a scale-aware tolerance
    (1e-12 for unit-scale entries, relaxed quadratically for large
    boosts, whose entries grow like gamma). Each matrix of a stack gets
    the tests and its own scale as a single matrix would, STACK_BLOCK
    rows at a time, and the error names the first failing row and its
    gamma, m[0][0].
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
        stack = m.reshape(-1, 4, 4)
        for rows in row_blocks(len(stack)):
            block = stack[rows]
            with rows_from(rows.start):
                _check_rows(_matrix_tests(block), m.ndim == 3,
                            lambda i: f"gamma={block[i, 0, 0]:.10g}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def stack(self) -> np.ndarray:
        """The matrices as an (N,4,4) array; N = 1 for a single transform."""
        return self.m.reshape(-1, 4, 4)

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, index) -> "LorentzTransform":
        """Row i of the stack as a single transform, or a slice as a stack;
        the rows were validated when the stack was built."""
        return _trusted(LorentzTransform, m=self.stack[index])


def _trusted(cls, **values):
    # an instance of cls holding values that were validated already
    out = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(out, name, value)
    return out


def _transform(m: np.ndarray, stacked: bool) -> LorentzTransform:
    return LorentzTransform(m if stacked else m[0])


IDENTITY = LorentzTransform(np.eye(4))


@dataclass(frozen=True)
class FrameVelocity:
    """Unit timelike four-velocity of the distinguished frame.

    theta_vector = spatial(u)/u.t is the frame's velocity seen by the
    observer; theta = |theta_vector| in units of c.
    """

    u: FourVector

    def __post_init__(self):
        _check_rows(_frame_tests(self.u.vec[None]), False)

    @classmethod
    def rest(cls) -> "FrameVelocity":
        return cls(FourVector(1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_velocity(cls, v) -> "FrameVelocity":
        return cls(FourVector.from_array(four_velocity(np.asarray(v, dtype=float).reshape(3))))

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
        _check_rows(_pair_tests(self.k.vec[None], self.u.u.vec[None]), False)

    @property
    def kappa(self) -> float:
        return minkowski_dot(self.u.u, self.k)


@dataclass(frozen=True, eq=False)
class PairStack:
    """N photon momenta k and frame four-velocities u as (N,4) arrays.

    Each row is validated as `FrameVelocity` and `PhotonKinematics`
    validate one pair, and the error names the first failing row.
    """

    k: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        u = np.array(self.u, dtype=float)
        if k.ndim != 2 or k.shape[1] != 4 or u.shape != k.shape:
            raise ValueError(f"expected two (N,4) arrays, got shapes {k.shape} and {u.shape}")
        _check_rows(_frame_tests(u) + _pair_tests(k, u), True,
                    lambda i: f"k={format_row(k[i])}, u={format_row(u[i])}")
        k.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "u", u)

    @classmethod
    def of(cls, pairs) -> "PairStack":
        """A PairStack itself, or one PhotonKinematics or a sequence of them,
        as a stack; the pairs were validated when they were built."""
        if isinstance(pairs, PairStack):
            return pairs
        if isinstance(pairs, PhotonKinematics):
            pairs = (pairs,)
        k = np.array([p.k.vec for p in pairs]).reshape(-1, 4)
        u = np.array([p.u.u.vec for p in pairs]).reshape(-1, 4)
        k.setflags(write=False)
        u.setflags(write=False)
        return _trusted(cls, k=k, u=u)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, rows: slice) -> "PairStack":
        return _trusted(PairStack, k=self.k[rows], u=self.u[rows])

    @property
    def kappa(self) -> np.ndarray:
        return minkowski_dot(self.u, self.k)


# The validation rules of a frame velocity, a photon momentum and a pair,
# as (ok, message) tests on each row of (N,4) arrays: FrameVelocity,
# PhotonKinematics and standard_wigner validate one row, PairStack and
# boost_to N rows.

def _frame_tests(u: np.ndarray) -> list:
    with np.errstate(over="ignore", invalid="ignore"):
        timelike = _on_shell(minkowski_dot(u, u) - 1.0, u[:, 0])
    return [
        (timelike, lambda i: "u is not unit timelike"),
        (u[:, 0] >= 1.0 - CONSTRUCTION_TOL, lambda i: "u is not future-pointing (u.t < 1)"),
    ]


def _photon_tests(k: np.ndarray) -> list:
    with np.errstate(over="ignore", invalid="ignore"):
        null = _on_shell(minkowski_dot(k, k), k[:, 0])
    return [
        (null, lambda i: "k is not null"),
        (k[:, 0] > 0.0, lambda i: "k must have positive energy"),
    ]


def _pair_tests(k: np.ndarray, u: np.ndarray) -> list:
    # the photon tests and a positive kappa; u is tested by _frame_tests
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = minkowski_dot(u, k)
    return _photon_tests(k) + [(kappa > 0.0, lambda i: "kappa = eta(u, k) must be positive")]


def _checked_unit_rows(n, what: str) -> np.ndarray:
    rows = np.asarray(n, dtype=float).reshape(-1, 3)
    off = np.abs(np.sqrt(row_dot(rows, rows)) - 1.0)
    _check_rows([(off <= CONSTRUCTION_TOL, lambda i: f"{what} must be a unit vector")],
                np.ndim(n) == 2)
    return rows


def four_velocity(v) -> np.ndarray:
    """(gamma; gamma v) of a velocity (3,), or of each row of an (N,3) stack."""
    v = np.asarray(v, dtype=float)
    v2 = row_dot(v, v)
    _check_rows([(np.atleast_1d(v2 < 1.0), lambda i: "speed must be < 1")], v.ndim == 2)
    g = (1.0 / np.sqrt(1.0 - v2))[..., None]
    return np.concatenate([g, g * v], axis=-1)


def boost_to(u) -> LorentzTransform:
    """The unique pure boost taking (1;0,0,0) to u.

    u is a FrameVelocity, or an (N,4) array of four-velocities, each
    validated as FrameVelocity validates one, for an (N,4,4) stack.
    """
    stacked = not isinstance(u, FrameVelocity)
    if stacked:
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 4:
            raise ValueError(f"expected an (N,4) array of four-velocities, got shape {u.shape}")
        _check_rows(_frame_tests(u), True, lambda i: f"u={format_row(u[i])}")
    else:
        u = u.u.vec[None]
    g = u[:, 0]
    w = u[:, 1:]
    m = np.empty((len(u), 4, 4))
    m[:, 0, 0] = g
    m[:, 0, 1:] = w
    m[:, 1:, 0] = w
    m[:, 1:, 1:] = np.eye(3) + w[:, :, None] * w[:, None, :] / (1.0 + g)[:, None, None]
    return _transform(m, stacked)


def boost_from_velocity(v) -> LorentzTransform:
    """Pure boost to velocity v (3,), or the stack of boosts of an (N,3) array."""
    v = np.asarray(v, dtype=float)
    return boost_to(four_velocity(v) if v.ndim == 2 else FrameVelocity.from_velocity(v))


def rotation_about(axis, delta) -> LorentzTransform:
    """Spatial rotation by delta about a unit axis (Rodrigues form).

    An (N,3) array of axes or an (N,) array of angles, the other one
    shared or also of N rows, gives the (N,4,4) stack of rotations.
    """
    axes = _checked_unit_rows(axis, "axis")
    delta = np.asarray(delta, dtype=float)
    stacked = np.ndim(axis) == 2 or delta.ndim == 1
    n = max(len(axes), delta.size)
    if len(axes) != n:
        axes = np.broadcast_to(axes, (n, 3))
    angles = delta.reshape(-1).tolist()
    if len(angles) != n:
        angles = np.broadcast_to(angles, (n,)).tolist()
    kx = np.zeros((n, 3, 3))
    kx[:, 0, 1] = -axes[:, 2]
    kx[:, 0, 2] = axes[:, 1]
    kx[:, 1, 0] = axes[:, 2]
    kx[:, 1, 2] = -axes[:, 0]
    kx[:, 2, 0] = -axes[:, 1]
    kx[:, 2, 1] = axes[:, 0]
    sin = np.array([math.sin(d) for d in angles])[:, None, None]
    versin = np.array([1.0 - math.cos(d) for d in angles])[:, None, None]
    m = np.zeros((n, 4, 4))
    m[:, 0, 0] = 1.0
    m[:, 1:, 1:] = np.eye(3) + sin * kx + versin * (kx @ kx)
    return _transform(m, stacked)


def rotation_z_to(n) -> LorentzTransform:
    """Minimal rotation taking z-hat to the unit vector n, or the stack of
    them for an (N,3) array.

    For n != -z the axis is z x n; at n = -z the convention is a
    rotation by pi about x-hat (tie-break, documented).
    """
    rows = _checked_unit_rows(n, "n")
    stacked = np.ndim(n) == 2
    c = rows[:, 2]
    s = np.array([math.hypot(x, y) for x, y in rows[:, :2].tolist()])
    pole = s < 1e-300
    if not stacked and pole[0] and c[0] > 0.0:
        return IDENTITY
    axis = np.zeros_like(rows)
    axis[:, 0] = -rows[:, 1]
    axis[:, 1] = rows[:, 0]
    axis /= np.where(pole, 1.0, s)[:, None]
    angle = np.array([math.atan2(y, x) for y, x in zip(s.tolist(), c.tolist())])
    if pole.any():
        # at +z the identity, at -z the half turn about x
        axis[pole] = (1.0, 0.0, 0.0)
        angle[pole] = np.where(c[pole] > 0.0, 0.0, math.pi)
    if stacked:
        return rotation_about(axis, angle)
    return rotation_about(axis[0], angle[0])


def apply(L: LorentzTransform, v):
    """L v for a FourVector; for an (N,4) array, each row by its transform
    of a stack, or all rows by a single transform."""
    if isinstance(v, FourVector):
        return FourVector.from_array(apply(L, v.vec[None])[0])
    return (L.stack @ np.asarray(v, dtype=float)[..., None])[..., 0]


def compose(L2: LorentzTransform, L1: LorentzTransform) -> LorentzTransform:
    return LorentzTransform(L2.m @ L1.m)


def inverse(L: LorentzTransform) -> LorentzTransform:
    # eta-orthogonality gives the inverse without numerical inversion
    return LorentzTransform(METRIC @ np.swapaxes(L.m, -1, -2) @ METRIC)
