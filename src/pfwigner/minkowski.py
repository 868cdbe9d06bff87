"""Minkowski four-vector algebra and Lorentz transformations.

Signature (+,-,-,-), units c = 1. Four-vectors are the rows of (N,4)
arrays, and a photon momentum paired with a frame four-velocity is a
row of a `PairStack`. Transforms are (N,4,4) stacks of real matrices in
a validating container, `LorentzTransform`; boosts are the unique pure
(rotation-free) ones, rotations act on the spatial block only. One pair
and one transform are stacks of one row: a (4,4) matrix, or a single
axis, velocity or direction given to a builder or to `four_velocity`,
becomes one row, and `wrap_angle` of a float is one row.

Every transform builder takes N rows of input and returns the (N,4,4)
stack, and every validation error is a `RowValueError` that names its
row. A builder is its input tests, a private kernel (`_boost_stack`,
`_rotation_stack`, `_rotation_z_to_stack`) that returns the raw (N,4,4)
array, and the validation of that array. A matrix that never leaves the
function that builds it, such as a factor of a standard element, comes
from the kernel unchecked. Row-wise products use `row_dot`, which is
bit-identical to `a @ b` on each row (a row-wise `np.linalg.norm` is
not), and per-row angles use `math`, not the numpy ufuncs, so a row of
a stack equals its one-row call bit for bit. `wrap_angle` is exact array
arithmetic with the bits of `math.remainder` on each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)
_METRIC_ROWS = np.diag(METRIC)[:, None]

# Construction-time validation.
CONSTRUCTION_TOL = 1e-12

# rows of a long sweep made at a time, by the callers that make its rows
# (`cli.cmd_boost_scan`, `polarisation.anomalous_malus_curve` and the
# oracle checks); every function of the matrix route runs the rows it is
# given at once. The block bounds the working arrays of the sweep and
# amortises numpy's fixed cost per call, which dominates at these sizes
# (a block of the matrix route makes about 300 numpy calls on arrays of
# at most STACK_BLOCK x 4 x 4). Measured by `benchmarks/run.py --seconds
# 5`, one run each, in reference seconds:
#   STACK_BLOCK  boost-scan wall_s  validate wall_s  validate peak_rss_mb
#   256          0.0084             0.113            39.23
#   512          0.0071             0.097            39.42
#   1024         0.0059             0.096            39.93
#   2048         0.0060             0.088            40.47
# 1024 is the smallest block that runs the 607 rows of the default
# boost-scan at once; 2048 gains nothing there and costs memory.
STACK_BLOCK = 1024


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most STACK_BLOCK rows covering range(n)."""
    return [slice(i, min(i + STACK_BLOCK, n)) for i in range(0, n, STACK_BLOCK)]


def row_dot(a, b) -> np.ndarray:
    """Euclidean product of each row of a with the row of b, as `a[i] @ b[i]`."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def math_rows(f, *xs) -> np.ndarray:
    """f(xs[0][i], xs[1][i], ...) for each i, by a `math` function f:
    numpy's sin, cos, arcsin and arctan2 can differ from `math` in the last bit.
    When every input is a broadcast view of one value (stride 0), as a float
    shared by every row is, f is called once and its value fills the rows."""
    n = len(xs[0])
    if n and all(x.strides == (0,) for x in xs):
        return np.full(n, f(*[x[0].item() for x in xs]), dtype=float)
    return np.fromiter(map(f, *[x.tolist() for x in xs]), float, n)


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


def _check_rows(tests, culprit=None, error=RowValueError) -> None:
    """Raise `error`, a RowError (RowValueError unless given), for the
    first row failing one of `tests`.

    Each test is (ok, message): a boolean row mask and a function of the
    row giving the message, which also says, through `culprit(row)`,
    what the row holds.
    """
    if all(passed.all() for passed, _ in tests):
        return
    i = int(np.argmin(np.logical_and.reduce([passed for passed, _ in tests])))
    message = next(message(i) for passed, message in tests if not passed[i])
    raise error(i, message + ("" if culprit is None else f" ({culprit(i)})"))


def wrap_angle(angle) -> np.ndarray:
    """Each angle of an (N,) array wrapped to (-pi, pi]; a float is one row.

    Bit for bit the IEEE `math.remainder(x, tau)` of each entry, with -pi
    taken to pi, and an infinite entry raises ValueError as it does. The
    `fmod` is exact, and so is each correction by tau, by Sterbenz's lemma,
    since pi < |r| < tau; a tie |r| = pi ends at pi either way. A NaN stays
    NaN (a signalling one comes out quiet).
    """
    angle = np.asarray(angle, dtype=float).reshape(-1)
    if np.isinf(angle).any():
        raise ValueError("math domain error")
    with np.errstate(invalid="ignore"):
        r = np.fmod(angle, math.tau)
    np.subtract(r, math.tau, out=r, where=r > math.pi)
    np.add(r, math.tau, out=r, where=r < -math.pi)
    return np.where(r <= -math.pi, math.pi, r)


def _components(a):
    return a[..., 0], a[..., 1], a[..., 2], a[..., 3]


def minkowski_dot(a, b):
    """eta(a, b) of each row of two (...,4) arrays."""
    (at, ax, ay, az), (bt, bx, by, bz) = _components(a), _components(b)
    return at * bt - ax * bx - ay * by - az * bz


def _on_shell(off, t):
    # |off| <= tol * max(1, t^2): the departure `off` of a Minkowski square
    # from its shell, against a tolerance that grows with the energy t;
    # written so that NaN fails it
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(off) <= CONSTRUCTION_TOL * np.maximum(1.0, t * t)


def _metric_error(b: np.ndarray) -> np.ndarray:
    """max |b^T eta b - eta| of each matrix of an (N,4,4) stack, with eta b
    as a sign flip of b's rows: the bits of `b^T @ METRIC @ b` for finite
    entries, with one matrix product fewer."""
    return np.abs(b.transpose(0, 2, 1) @ (b * _METRIC_ROWS) - METRIC).max(axis=(1, 2))


def _matrix_tests(b: np.ndarray) -> list:
    # an inf entry, or one whose square overflows, would make the
    # tolerances inf, so those are caught first; each test is written
    # `x <= tol` so that NaN fails it
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.abs(b).max(axis=(1, 2))
        tol = CONSTRUCTION_TOL * np.maximum(1.0, peak * peak)
        err = _metric_error(b)
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
    """An (N,4,4) stack of proper orthochronous Lorentz matrices, validated
    on construction; a (4,4) matrix is a stack of one row.

    Metric preservation is checked with a scale-aware tolerance
    (1e-12 for unit-scale entries, relaxed quadratically for large
    boosts, whose entries grow like gamma). Each matrix gets the tests
    and its own scale, every row at once, and the error names the first
    failing row and its gamma, m[0][0]. The test arrays grow with the
    stack: validating 16 384 random rows peaks at 6.3 MiB of tracemalloc.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
        m = m.reshape(-1, 4, 4)
        _check_rows(_matrix_tests(m), lambda i: f"gamma={m[i, 0, 0]:.10g}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def __len__(self) -> int:
        return len(self.m)

    def __getitem__(self, index) -> "LorentzTransform":
        """The rows of an index, a slice or an array of row indices, as a
        stack; the rows were validated when the stack was built."""
        return _trusted(LorentzTransform, m=self.m[index].reshape(-1, 4, 4))


def _trusted(cls, **values):
    # an instance of cls holding values that were validated already,
    # read-only as the constructor leaves them: an index array copies
    out = object.__new__(cls)
    for name, value in values.items():
        value.setflags(write=False)
        object.__setattr__(out, name, value)
    return out


IDENTITY = LorentzTransform(np.eye(4))


@dataclass(frozen=True, eq=False)
class PairStack:
    """N photon momenta k and frame four-velocities u as (N,4) arrays.

    One pair is a stack of one row. Each row is validated: u unit
    timelike and future-pointing, k null with positive energy, and
    kappa = eta(u, k) positive; the error names the first failing row and
    what it holds.
    """

    k: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        u = np.array(self.u, dtype=float)
        if k.ndim != 2 or k.shape[1] != 4 or u.shape != k.shape:
            raise ValueError(f"expected two (N,4) arrays, got shapes {k.shape} and {u.shape}")
        _check_rows(_frame_tests(u) + _pair_tests(k, u),
                    lambda i: f"k={format_row(k[i])}, u={format_row(u[i])}")
        k.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, rows) -> "PairStack":
        """The pairs of an index, a slice or an array of row indices, as a
        stack."""
        return _trusted(PairStack, k=self.k[rows].reshape(-1, 4), u=self.u[rows].reshape(-1, 4))

    @property
    def kappa(self) -> np.ndarray:
        return minkowski_dot(self.u, self.k)


# The validation rules of a frame velocity, a photon momentum and a pair,
# as (ok, message) tests on each row of (N,4) arrays, run by PairStack,
# boost_to and `induction.photon_momenta`.

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
    _check_rows([(off <= CONSTRUCTION_TOL, lambda i: f"{what} must be a unit vector")])
    return rows


def four_velocity(v) -> np.ndarray:
    """The (N,4) rows (gamma; gamma v) of an (N,3) array of velocities, or
    one row for a velocity (3,)."""
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    v2 = row_dot(v, v)
    _check_rows([(v2 < 1.0, lambda i: "speed must be < 1")])
    g = (1.0 / np.sqrt(1.0 - v2))[:, None]
    return np.concatenate([g, g * v], axis=1)


def along_z(speeds) -> np.ndarray:
    """The (N,3) velocities of the given speeds along z."""
    v = np.zeros((len(speeds), 3))
    v[:, 2] = speeds
    return v


def boost_to(u) -> LorentzTransform:
    """The (N,4,4) stack of the unique pure boosts taking (1;0,0,0) to
    each row of an (N,4) array of four-velocities, each row validated as
    the u of a PairStack."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 4:
        raise ValueError(f"expected an (N,4) array of four-velocities, got shape {u.shape}")
    _check_rows(_frame_tests(u), lambda i: f"u={format_row(u[i])}")
    return LorentzTransform(_boost_stack(u))


def _boost_stack(u: np.ndarray) -> np.ndarray:
    """The (N,4,4) array of `boost_to` of an (N,4) array of four-velocities
    that are valid already, unchecked in and out."""
    g = u[:, 0]
    w = u[:, 1:]
    m = np.empty((len(u), 4, 4))
    m[:, 0, 0] = g
    m[:, 0, 1:] = w
    m[:, 1:, 0] = w
    m[:, 1:, 1:] = np.eye(3) + w[:, :, None] * w[:, None, :] / (1.0 + g)[:, None, None]
    return m


def boost_from_velocity(v) -> LorentzTransform:
    """The stack of pure boosts to the velocities of an (N,3) array, or of
    one row for a velocity (3,)."""
    # the four-velocity of a speed below 1 passes the tests of boost_to, so
    # only the boost itself is validated
    return LorentzTransform(_boost_stack(four_velocity(v)))


def rotation_about(axis, delta) -> LorentzTransform:
    """Spatial rotations by delta about a unit axis (Rodrigues form).

    An (N,3) array of axes or an (N,) array of angles, the other one
    shared or also of N rows, gives the (N,4,4) stack of rotations; a
    single axis and angle give one row.
    """
    return LorentzTransform(_rotation_stack(_checked_unit_rows(axis, "axis"), delta))


def _rotation_stack(axes, delta) -> np.ndarray:
    """The (N,4,4) array of `rotation_about` of (1 or N) unit axes and
    (1 or N) angles, the one shared by every row, unchecked in and out."""
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    angles = np.asarray(delta, dtype=float).reshape(-1)
    # K and K @ K of each given axis: a shared axis is built once and
    # broadcast against the angles
    kx = np.zeros((len(axes), 3, 3))
    kx[:, 0, 1] = -axes[:, 2]
    kx[:, 0, 2] = axes[:, 1]
    kx[:, 1, 0] = axes[:, 2]
    kx[:, 1, 2] = -axes[:, 0]
    kx[:, 2, 0] = -axes[:, 1]
    kx[:, 2, 1] = axes[:, 0]
    sin = math_rows(math.sin, angles)[:, None, None]
    versin = (1.0 - math_rows(math.cos, angles))[:, None, None]
    spatial = np.eye(3) + sin * kx + versin * (kx @ kx)
    m = np.zeros((len(spatial), 4, 4))
    m[:, 0, 0] = 1.0
    m[:, 1:, 1:] = spatial
    return m


# below this length of its x-y part, a unit vector is taken to be +z or -z
_POLE = 1e-300


def rotation_z_to(n) -> LorentzTransform:
    """The stack of minimal rotations taking z-hat to each unit vector of
    an (N,3) array, or of one row for a unit vector n (3,).

    For n != -z the axis is z x n; at n = +z the rotation is the exact
    identity, and at n = -z the convention is a rotation by pi about
    x-hat (tie-break, documented).
    """
    return LorentzTransform(_rotation_z_to_stack(_checked_unit_rows(n, "n")))


def _rotation_z_to_stack(rows: np.ndarray) -> np.ndarray:
    """The (N,4,4) array of `rotation_z_to` of an (N,3) array of unit
    vectors, unchecked in and out."""
    c = rows[:, 2]
    s = math_rows(math.hypot, rows[:, 0], rows[:, 1])
    pole = s < _POLE
    axis = np.zeros_like(rows)
    axis[:, 0] = -rows[:, 1]
    axis[:, 1] = rows[:, 0]
    axis /= np.where(pole, 1.0, s)[:, None]
    angle = math_rows(math.atan2, s, c)
    if pole.any():
        # at +z the identity, at -z the half turn about x
        axis[pole] = (1.0, 0.0, 0.0)
        angle[pole] = np.where(c[pole] > 0.0, 0.0, math.pi)
    return _rotation_stack(axis, angle)


def apply(L: LorentzTransform, v) -> np.ndarray:
    """L v for each row of an (N,4) array: row i by transform i of a stack,
    or every row by a transform of one row."""
    return (L.m @ np.asarray(v, dtype=float)[..., None])[..., 0]


def compose(L2: LorentzTransform, L1: LorentzTransform) -> LorentzTransform:
    return LorentzTransform(L2.m @ L1.m)


def inverse(L: LorentzTransform) -> LorentzTransform:
    # eta-orthogonality gives the inverse without numerical inversion
    return LorentzTransform(METRIC @ np.swapaxes(L.m, -1, -2) @ METRIC)
