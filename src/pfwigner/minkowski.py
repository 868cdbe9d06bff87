"""Minkowski four-vector algebra and Lorentz transformations.

Signature (+,-,-,-), units c = 1. Four-vectors are the rows of (N,4)
arrays, and a photon momentum paired with a frame four-velocity is a
row of a `PairStack`. Transforms are (N,4,4) stacks of real matrices in
a validating container, `LorentzTransform`; boosts are the unique pure
(rotation-free) ones, rotations act on the spatial block only. One pair
and one transform are stacks of one row: a (4,4) matrix, or a single
axis, velocity or direction given to a builder or to `four_velocity`,
becomes one row, and `wrap_angle` of a float is one row. Row arguments
come in by two readers: `_array_rows` for vectors and matrices, and
`_checked_rows` for per-row numbers.

Every transform builder takes N rows of input and returns the (N,4,4)
stack, and every validation error is a `RowValueError` that names its
row. A builder is its input tests, a private kernel (`_boost_stack`,
`_rotation_stack`, `_rotation_z_to_stack`) that returns the raw (N,4,4)
array, and the validation of that array, except `boost_from_velocity`
and `rotation_z_to`, whose input tests make their output valid (see
there). The input tests of `rotation_about` are `_rotation_inputs`,
which `polarisation.anomalous_malus_curve` runs before it builds its
rotations about a validated photon direction with the kernel,
unvalidated. The minimal rotation z-hat -> n is written once, in
`_z_frame`, from which `_rotation_z_to_stack` and the gauge of
`induction` read it. A factor
of a validated product and the standard elements of both Wigner routes
come from the kernels unchecked: the stabiliser test of the Wigner
element certifies the elements. Row-wise products use `row_dot`, which is
bit-identical to `a @ b` on each row (a row-wise `np.linalg.norm` is
not), and the largest |entry| of each row uses `_row_abs_max`, the bits
of `np.abs(a).max` over every axis but the first in one contiguous
pass. Per-row angles use `math`, not the numpy ufuncs, so a row of
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
# eta_i eta_j: eta m^T eta is m^T with entry (i, j) times this sign
_METRIC_SIGNS = _METRIC_ROWS * np.diag(METRIC)
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

# Construction-time validation.
CONSTRUCTION_TOL = 1e-12
# the largest ||n| - 1| of an axis or direction that a builder admits. The
# metric error of a rotation grows as 2 ||n| - 1|: over 20 000 random unit
# vectors scaled by 1 + eps (seed 0), with near-pole ones for
# `rotation_z_to`, `rotation_about` first fails its matrix tests at eps
# 1.3e-13 and `rotation_z_to` at 5.1e-13. At this bound their worst errors
# are 0.80 and 0.20 of the tolerance, so a refusal names the axis, not the
# matrix, and `rotation_z_to` needs no validation of its output.
UNIT_TOL = 1e-13

# rows of a long sweep made at a time by `in_blocks`, through which the
# matrix-route sweeps (`cli.cmd_boost_scan`, `anomalous_malus_curve` and
# the oracle checks) make their rows. The block bounds their working
# arrays and amortises numpy's fixed cost per call, which dominates at
# these sizes (a block of the matrix route makes about 300 numpy calls on
# arrays of at most STACK_BLOCK x 4 x 4). Measured when the block was
# chosen, before later speed-ups of the route (boost-scan now reads about
# 0.003 s), by `benchmarks/run.py --seconds 5`, one run each, in reference
# seconds:
#   STACK_BLOCK  boost-scan wall_s  validate wall_s  validate peak_rss_mb
#   256          0.0084             0.113            39.23
#   512          0.0071             0.097            39.42
#   1024         0.0059             0.096            39.93
#   2048         0.0060             0.088            40.47
# 1024 is the smallest block that runs the 607 rows of the default
# boost-scan at once; 2048 gains nothing there and costs memory.
STACK_BLOCK = 1024


def row_dot(a, b) -> np.ndarray:
    """Euclidean product of each row of a with the row of b, as `a[i] @ b[i]`."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_abs_max(a) -> np.ndarray:
    """max |a[i]| over every axis but the first, for each row i: the bits of
    `np.abs(a).max` over axes 1 and on, NaN included, as max is exact in any
    order and a zero under abs has no sign. The stack is copied with the row
    index last and contiguous, so that `np.maximum.reduce` takes each entry
    of every row at once."""
    x = a.reshape(len(a), math.prod(a.shape[1:])).T.copy()
    np.abs(x, out=x)
    return np.maximum.reduce(x)


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


def in_blocks(n: int, rows) -> np.ndarray:
    """rows(block) for consecutive slices of at most STACK_BLOCK rows
    covering range(n), concatenated; an empty float array when n = 0.
    A RowError raised for a block names the row of the whole range."""
    out = []
    for start in range(0, n, STACK_BLOCK):
        try:
            out.append(rows(slice(start, min(start + STACK_BLOCK, n))))
        except RowError as exc:
            exc.at_row(exc.row + start)
            raise
    return np.concatenate(out) if out else np.empty(0)


def _check_rows(tests, culprit=None, error=RowValueError) -> None:
    """Raise `error`, a RowError (RowValueError unless given), for the
    first row failing one of `tests`.

    Each test is (ok, message): a boolean row mask and a function of the
    row giving the message, which also says, through `culprit(row)`,
    what the row holds.
    """
    if not tests:
        return
    # the masks ANDed once: row i passes every test where ok[i]
    ok = tests[0][0]
    for passed, _ in tests[1:]:
        ok = ok & passed
    if np.count_nonzero(ok) == ok.size:
        return
    i = int(np.argmin(ok))
    message = next(message(i) for passed, message in tests if not passed[i])
    raise error(i, message + ("" if culprit is None else f" ({culprit(i)})"))


def _finite_test(name: str, x: np.ndarray):
    """The (ok, message) test that each entry of an (N,) array, `name`, is
    finite."""
    return np.isfinite(x), lambda i: f"{name}={x[i].item()!r} is not finite"


def _stack_rows(*lengths: int) -> int:
    """The rows of stacks of these lengths, each 1 or N, as numpy broadcasts
    them: a stack of one row is shared, also by a stack of none."""
    n = max((m for m in lengths if m != 1), default=1)
    if any(m not in (1, n) for m in lengths):
        raise ValueError(f"stacks of {lengths} rows do not match")
    return n


def _checked_rows(tests, *fields, error=RowValueError) -> list[np.ndarray]:
    """The per-row fields as (N,) float arrays, each flattened: a float is
    one row shared by every row, as a stride-0 view, and a (1, N) or (N, 1)
    array N rows. Counts other than 1 and N raise `_stack_rows`'s
    ValueError, and `error` names the first row failing `tests`, at its
    first failing field."""
    rows = [np.asarray(x, dtype=float).reshape(-1) for x in fields]
    n = _stack_rows(*map(len, rows))
    if any(len(x) != n for x in rows):
        rows = np.broadcast_arrays(*rows)
    _check_rows(tests(*rows), error=error)
    return rows


def _array_rows(x, shape: tuple, what: str, single: bool) -> np.ndarray:
    """x as a new (N, *shape) float array of `what`; where `single`, one
    value of that shape is one row. Any other shape raises ValueError."""
    rows = np.array(x, dtype=float, ndmin=len(shape) + 1 if single else 0)
    if rows.shape[1:] != shape:
        raise ValueError(f"expected an (N,{','.join(map(str, shape))}) array of {what}, "
                         f"got shape {np.shape(x)}")
    return rows


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
    return np.abs(off) <= CONSTRUCTION_TOL * np.maximum(1.0, t * t)


def _metric_error(b: np.ndarray) -> np.ndarray:
    """max |b^T eta b - eta| of each matrix of an (N,4,4) stack, with eta b
    as a sign flip of b's rows: the bits of `b^T @ METRIC @ b` for finite
    entries, with one matrix product fewer."""
    return _row_abs_max(b.transpose(0, 2, 1) @ (b * _METRIC_ROWS) - METRIC)


def _proper(b: np.ndarray) -> np.ndarray:
    """Whether each matrix of an (N,4,4) stack that preserves the metric
    has determinant +1, without an LU factorisation.

    In the polar form m = B R, B a pure boost and R = diag(+-1, Q) with Q
    orthogonal, det m = sign(m00) det Q, and Q = S - sign(m00) v t^T /
    (1 + |m00|), with S = m[1:, 1:], v = m[1:, 0] and t = m[0, 1:]. The
    entries of Q are O(1) while those of m grow like gamma, so the sign of
    det Q, by 3x3 cofactors, stays right where |det m - 1| against a
    tolerance in gamma^2 tests nothing; written so that NaN fails it.
    """
    m00 = b[:, 0, 0]
    c = np.sign(m00) / (1.0 + np.abs(m00))
    q = b[:, 1:, 1:] - (c[:, None] * b[:, 1:, 0])[:, :, None] * b[:, 0, None, 1:]
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q.transpose(1, 2, 0)
    det = (q00 * (q11 * q22 - q12 * q21) - q01 * (q10 * q22 - q12 * q20)
           + q02 * (q10 * q21 - q11 * q20))
    return m00 * det > 0.0


# the largest entry of a matrix that `LorentzTransform` validates. Rounding
# moves the entries of Q in `_proper` by about gamma * 1e-16. Over 400
# draws each of rotation.boost.rotation, boost.boost and
# boost.rotation.boost and their parity flips (seed 5), the sign of det Q
# was right on all 2 400 up to gamma 3e15 and wrong on 15 at 4e15; the
# bound keeps the error near 1e-3, 300 times below that. Its square also
# keeps the tolerances finite.
MAX_ENTRY = 1e13


def _matrix_tests(b: np.ndarray) -> list:
    # an inf entry, or one above MAX_ENTRY, is caught before the tests
    # that it would defeat; each test is written `x <= tol` so that NaN
    # fails it
    with np.errstate(over="ignore", invalid="ignore"):
        peak = _row_abs_max(b)
        tol = CONSTRUCTION_TOL * np.maximum(1.0, peak * peak)
        err = _metric_error(b)
        proper = _proper(b)
    return [
        (np.isfinite(peak), lambda i: "matrix has non-finite entries"),
        (peak <= MAX_ENTRY, lambda i: "matrix entries are too large to validate"),
        (err <= tol, lambda i: f"matrix does not preserve the metric (err={err[i]:.3e})"),
        (proper, lambda i: "matrix is not proper (det != +1)"),
        (b[:, 0, 0] >= 1.0 - CONSTRUCTION_TOL,
         lambda i: "matrix is not orthochronous (m[0][0] < 1)"),
    ]


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    """An (N,4,4) stack of proper orthochronous Lorentz matrices, validated
    on construction; a (4,4) matrix is a stack of one row.

    Metric preservation is checked with a scale-aware tolerance
    (1e-12 for unit-scale entries, relaxed quadratically for large
    boosts, whose entries grow like gamma), the determinant's sign by
    `_proper`, and entries above MAX_ENTRY are refused. Each matrix gets
    the tests and its own scale, every row at once, and the error names
    the first failing row and its gamma, m[0][0]. The test arrays grow
    with the stack: validating 16 384 random rows peaks at 6.4 MiB of
    tracemalloc, most of it the metric test's.
    """

    m: np.ndarray

    def __post_init__(self):
        m = _array_rows(self.m, (4, 4), "Lorentz matrices", True)
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
        k = _array_rows(self.k, (4,), "photon momenta", False)
        u = _array_rows(self.u, (4,), "four-velocities", False)
        if len(k) != len(u):
            raise ValueError(f"stacks of {(len(k), len(u))} rows do not match")
        with np.errstate(over="ignore", invalid="ignore"):
            tests = _frame_tests(u) + _pair_tests(k, u)
        _check_rows(tests, lambda i: f"k={format_row(k[i])}, u={format_row(u[i])}")
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
# boost_to and `induction.photon_momenta`, each under one np.errstate that
# ignores overflow and invalid operations: an inf or NaN entry fails a test
# instead of warning.

def _frame_tests(u: np.ndarray) -> list:
    return [
        (_on_shell(minkowski_dot(u, u) - 1.0, u[:, 0]), lambda i: "u is not unit timelike"),
        (u[:, 0] >= 1.0 - CONSTRUCTION_TOL, lambda i: "u is not future-pointing (u.t < 1)"),
    ]


def _photon_tests(k: np.ndarray) -> list:
    return [
        (_on_shell(minkowski_dot(k, k), k[:, 0]), lambda i: "k is not null"),
        (k[:, 0] > 0.0, lambda i: "k must have positive energy"),
    ]


def _pair_tests(k: np.ndarray, u: np.ndarray) -> list:
    # the photon tests and a positive kappa; u is tested by _frame_tests
    return _photon_tests(k) + [(minkowski_dot(u, k) > 0.0,
                                lambda i: "kappa = eta(u, k) must be positive")]


def _checked_unit_rows(n, name: str, what: str) -> np.ndarray:
    rows = _array_rows(n, (3,), what, True)
    off = np.abs(np.sqrt(row_dot(rows, rows)) - 1.0)
    _check_rows([(off <= UNIT_TOL, lambda i: f"{name} must be a unit vector")])
    return rows


def four_velocity(v) -> np.ndarray:
    """The (N,4) rows (gamma; gamma v) of an (N,3) array of velocities, or
    one row for a velocity (3,)."""
    v = _array_rows(v, (3,), "velocities", True)
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
    u = _array_rows(u, (4,), "four-velocities", False)
    with np.errstate(over="ignore", invalid="ignore"):
        tests = _frame_tests(u)
    _check_rows(tests, lambda i: f"u={format_row(u[i])}")
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
    m[:, 1:, 1:] = _EYE3 + w[:, :, None] * w[:, None, :] / (1.0 + g)[:, None, None]
    return m


def boost_from_velocity(v) -> LorentzTransform:
    """The stack of pure boosts to the velocities of an (N,3) array, or of
    one row for a velocity (3,), trusted without validation.

    Its input test is `four_velocity`'s: a finite speed below 1. So
    1 - v^2 >= 2^-53 and gamma <= 2^26.5 (about 9.5e7), far below
    MAX_ENTRY. The four-velocity is off its shell by the rounding of v^2
    over 1 - v^2, about gamma^2 3e-16, and the kernel's metric error is of
    that order, against a tolerance of 1e-12 gamma^2: each boost passes
    `_matrix_tests` with a margin of about 10^3, which
    tests/test_kernels.py measures over the whole input domain.
    """
    return _trusted(LorentzTransform, m=_boost_stack(four_velocity(v)))


def rotation_about(axis, delta) -> LorentzTransform:
    """Spatial rotations by delta about a unit axis (Rodrigues form).

    An (N,3) array of axes or an (N,) array of angles, the other one
    shared or also of N rows, gives the (N,4,4) stack of rotations; a
    single axis and angle give one row. An angle must be finite.
    """
    return LorentzTransform(_rotation_stack(*_rotation_inputs(axis, delta)))


def _rotation_inputs(axis, delta) -> tuple[np.ndarray, np.ndarray]:
    """The input tests of `rotation_about`: its axes as an (N,3) array of
    unit vectors (within UNIT_TOL) and its angles as an (N,) array of
    finite ones, of 1 or N rows each; the RowValueError of a failing row
    names it."""
    axes = _checked_unit_rows(axis, "axis", "axes")
    (angles,) = _checked_rows(lambda d: [_finite_test("angle", d)], delta)
    _stack_rows(len(axes), len(angles))
    return axes, angles


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
    spatial = _EYE3 + sin * kx + versin * (kx @ kx)
    m = np.zeros((len(spatial), 4, 4))
    m[:, 0, 0] = 1.0
    m[:, 1:, 1:] = spatial
    return m


# below this size of the larger of |n_x| and |n_y|, a unit vector is taken
# to be +z or -z: the rotation there is the exact identity at +z and the
# exact half turn about x-hat, diag(1, -1, -1), at -z
_POLE = 1e-300
_HALF_TURN_X = np.diag([1.0, -1.0, -1.0])
_HALF_TURN_X.setflags(write=False)


def rotation_z_to(n) -> LorentzTransform:
    """The stack of minimal rotations taking z-hat to each unit vector of
    an (N,3) array, or of one row for a unit vector n (3,), trusted without
    validation: its input test admits ||n| - 1| <= UNIT_TOL, where the
    kernel's metric error stays below a quarter of the tolerance (see
    UNIT_TOL), and the entries of a rotation are finite and of size 1.

    Built without an angle: with v = z x n = (-n_y, n_x, 0), the rotation
    is R = I + [v]x + f [v]x^2, where f = 1/(1 + n_z) for n_z >= 0 and
    f = (1 - n_z)/s^2, s = |(n_x, n_y)|, for n_z < 0, which stays well
    conditioned up to -z. The last column of R is n. At n = +z the rotation
    is the exact identity, and at n = -z the convention is the half turn
    about x-hat, diag(1, -1, -1) (tie-break, documented).
    """
    rows = _checked_unit_rows(n, "n", "directions")
    return _trusted(LorentzTransform, m=_rotation_z_to_stack(rows))


def _rotation_z_to_stack(rows: np.ndarray) -> np.ndarray:
    """The (N,4,4) array of `rotation_z_to` of an (N,3) array of unit
    vectors, unchecked in and out."""
    out = np.zeros((len(rows), 4, 4))
    out[:, 0, 0] = 1.0
    out[:, 1:, 1:] = _z_frame(rows).transpose(0, 2, 1)
    return out


def _z_frame(rows: np.ndarray) -> np.ndarray:
    """The (N,3,3) array whose rows are the images of x-hat, y-hat and
    z-hat under the minimal rotation taking z-hat to each unit vector n of
    an (N,3) array: the transpose of the spatial block of `rotation_z_to`,
    with n its last row; unchecked in and out."""
    x, y, c = rows.T
    # the x-y block is I - g (p, q)(p, q)^T, with (p, q) = (x, y)/m and m the
    # larger of |x| and |y|, so that no square of a tiny x or y underflows:
    # g = m^2/(1 + c) in the north and (1 - c)/(p^2 + q^2) in the south,
    # where p^2 + q^2 = 1 + r^2 lies in [1, 2]. A pole row (m < _POLE) is
    # scaled by _POLE instead, which keeps it finite, and overwritten
    ax, ay = np.abs(x), np.abs(y)
    m = np.maximum(ax, ay)
    pole, south = m < _POLE, c < 0.0
    if pole.all():
        # every row is overwritten, as every bench photon's is
        return np.where(south[:, None, None], _HALF_TURN_X, _EYE3)
    scale = np.maximum(m, _POLE)
    p, q, r = x / scale, y / scale, np.minimum(ax, ay) / scale
    t = 1.0 + np.abs(c)  # 1 + c in the north, 1 - c in the south
    g = np.where(south, t / (1.0 + r * r), m * m / t)
    gp = g * p
    out = np.empty((len(rows), 3, 3))
    out[:, 0, 0] = 1.0 - gp * p
    out[:, 0, 1] = out[:, 1, 0] = -(gp * q)
    out[:, 1, 1] = 1.0 - g * q * q
    out[:, :2, 2] = -rows[:, :2]
    out[:, 2] = rows
    if pole.any():
        out[pole & ~south] = _EYE3
        out[pole & south] = _HALF_TURN_X
    return out


def apply(L: LorentzTransform, v) -> np.ndarray:
    """L v for each row of an (N,4) array: row i by transform i of a stack,
    or every row by a transform of one row."""
    return (L.m @ np.asarray(v, dtype=float)[..., None])[..., 0]


def compose(L2: LorentzTransform, L1: LorentzTransform) -> LorentzTransform:
    """L2 L1 of each row: stacks of 1 or N rows, as `_stack_rows` pairs them."""
    _stack_rows(len(L2), len(L1))
    return LorentzTransform(L2.m @ L1.m)


def inverse(L: LorentzTransform) -> LorentzTransform:
    return LorentzTransform(_eta_inverse(L.m))


def _eta_inverse(m: np.ndarray) -> np.ndarray:
    """eta m^T eta: the inverse of each Lorentz matrix of a stack, without a
    solve or a product, as m^T with entry (i, j) times eta_i eta_j = +-1.

    Every matrix given must be finite: a validated transform, or a kernel
    product of validated pairs. For finite entries these are the bits of
    the two matrix products eta (m^T eta), up to the sign of a zero entry:
    each entry of those is +-m_ji plus zero terms. An inf entry would
    differ (0 * inf is NaN there); `inverse` validates its result.
    """
    return np.swapaxes(m, -1, -2) * _METRIC_SIGNS
