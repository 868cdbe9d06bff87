"""Closed-form phase formulas for the two bench configurations.

Both experiments place the photon along z-hat with the frame velocity
direction at angle chi to it. A boost of speed V along the photon (or a
rotation by delta about it) then produces the polarisation phases below.
These are the analytic route; the matrix route lives in `induction`, and
the two are cross-checked against each other by the validation suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .minkowski import math_rows, wrap_angle


class DomainError(ValueError):
    """An input is outside the validity range of a closed-form expression.
    `row` is the failing row of a stacked scenario, else None."""

    row: int | None = None


def _check_range(name, value, lo, hi, lo_open=False, hi_open=False):
    """Raise DomainError unless lo <= value <= hi, each end open if flagged
    (NaN fails); for an array, return the mask of the entries in range."""
    ok = (value > lo if lo_open else value >= lo) & (value < hi if hi_open else value <= hi)
    if ok is True or isinstance(value, np.ndarray):
        return ok
    if not ok:
        raise DomainError(f"{name}={value!r} outside {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
    return True


def _check_delta(delta):
    """Raise DomainError unless delta is finite; for an array, return the
    mask of the finite entries."""
    if isinstance(delta, np.ndarray):
        return np.isfinite(delta)
    if not math.isfinite(delta):
        raise DomainError(f"delta={delta!r} is not finite")
    return True


def _boost_domain(v, theta_pf, chi):
    return (_check_range("v", v, -1.0, 1.0, lo_open=True, hi_open=True)
            & _check_range("theta_pf", theta_pf, 0.0, 1.0, hi_open=True)
            & _check_range("chi", chi, 0.0, math.pi))


def _rotation_domain(delta, theta_pf, chi):
    return (_check_delta(delta)
            & _check_range("theta_pf", theta_pf, 0.0, 1.0, hi_open=True)
            & _check_range("chi", chi, 0.0, math.pi))


def _check_scenario(s, domain, *values) -> None:
    """Validate the field values of scenario s, in field order, with
    `domain`: it checks one row of them and gives True, or the mask of the
    rows in range if a field is an array. Then every field becomes a float
    array of one length (one row if all arrays are 0-d), and the first
    failing row raises as its single scenario would, with its `row`."""
    try:
        if domain(*values) is True:
            return
    except DomainError:
        if np.ndarray not in map(type, values):
            raise
    rows = np.broadcast_arrays(*[np.array(x, dtype=float, ndmin=1) for x in values])
    ok = domain(*rows)
    if ok is not True and not ok.all():
        i = int(np.argmin(ok))
        try:
            domain(*(x[i].item() for x in rows))
        except DomainError as exc:
            exc.row = i
            raise
    for name, x in zip(s.__dataclass_fields__, rows):
        object.__setattr__(s, name, x)


@dataclass(frozen=True)
class BoostScenario:
    """Signed boost speed v along the photon, frame speed theta_pf, angle
    chi: floats, or (N,) arrays (floats among them are shared) for N rows."""

    v: float | np.ndarray
    theta_pf: float | np.ndarray
    chi: float | np.ndarray

    def __post_init__(self):
        _check_scenario(self, _boost_domain, self.v, self.theta_pf, self.chi)


@dataclass(frozen=True)
class RotationScenario:
    """Rotation angle delta about the photon, frame speed theta_pf, angle
    chi: floats, or (N,) arrays (floats among them are shared) for N rows."""

    delta: float | np.ndarray
    theta_pf: float | np.ndarray
    chi: float | np.ndarray

    def __post_init__(self):
        _check_scenario(self, _rotation_domain, self.delta, self.theta_pf, self.chi)


def _bounded_asin(arg: float) -> float:
    if abs(arg) > 1.0 + 1e-12:
        raise DomainError(f"arcsin argument {arg!r} violates the analytic bound")
    return math.asin(max(-1.0, min(1.0, arg)))


# sqrt, sin, cos, asin and atan2 as the formulas call them, on floats and
# on arrays. Arrays take numpy's sqrt, which is IEEE-exact like math.sqrt,
# and the other functions from `math` one entry at a time, so a stacked
# row equals its single call bit for bit. Indexed by "is it an array".
_FLOAT_MATH = (math.sqrt, math.sin, math.cos, _bounded_asin, math.atan2)
_MATH = (_FLOAT_MATH, (np.sqrt,) + tuple(partial(math_rows, f) for f in _FLOAT_MATH[1:]))


def boost_phase(s: BoostScenario):
    """Polarisation phase for a boost of speed v along the photon; an
    array of one phase per row for a stacked scenario."""
    sqrt, sin, cos, asin, _ = _MATH[isinstance(s.chi, np.ndarray)]
    v, th, chi = s.v, s.theta_pf, s.chi
    rv = sqrt(1.0 - v * v)
    rt = sqrt(1.0 - th * th)
    num = v * th * sin(chi)
    den = sqrt(2.0 * (1.0 + rv) * (1.0 + rt) * (v * th * cos(chi) + rv * rt + 1.0))
    return asin(num / den)


def _rotation_factors(theta_pf, chi, sqrt=math.sqrt, sin=math.sin, cos=math.cos):
    """The factors of the rotation formulas that depend on theta_pf and chi
    only: n, dd, a sin(chi) and theta_pf sin(chi). sqrt, sin and cos are
    math's for floats; arrays take those of _MATH[True]."""
    rt = sqrt(1.0 - theta_pf * theta_pf)
    c, s = cos(chi), sin(chi)
    a = (1.0 - rt) * c - theta_pf
    return rt + a * c, 1.0 - theta_pf * c, a * s, theta_pf * s


def _rotation_angle(n, dd, a_sin, sin_half, cos_half, atan2=math.atan2):
    """rotation_phase from the factors of _rotation_factors and the
    sine and cosine of delta/2."""
    return 2.0 * atan2(n * sin_half, dd * cos_half + a_sin * sin_half)


def rotation_phase(s: RotationScenario):
    """Polarisation phase for a rotation by delta about the photon; an
    array of one phase per row for a stacked scenario.

    Two-argument arctangent form: numerator and denominator of the
    half-angle tangent are both multiplied by sin(delta/2), which makes
    delta = 0 and delta = pi regular. Continuous and increasing in delta
    on [0, 2pi], with rotation_phase(2pi) = 2pi.
    """
    sqrt, sin, cos, _, atan2 = _MATH[isinstance(s.delta, np.ndarray)]
    n, dd, a_sin, _ = _rotation_factors(s.theta_pf, s.chi, sqrt, sin, cos)
    half = 0.5 * s.delta
    return _rotation_angle(n, dd, a_sin, sin(half), cos(half), atan2)


def rotation_phase_shift(s: RotationScenario):
    """delta - rotation_phase, wrapped to (-pi, pi]; an array of one shift
    per row for a stacked scenario."""
    return wrap_angle(s.delta - rotation_phase(s))


def rotation_shift_approx(s: RotationScenario):
    """First-order (small theta_pf) magnitude of the rotation phase shift;
    an array of one magnitude per row for a stacked scenario.

    theta_pf * sin(chi) * (1 - cos(delta)); equals the half-angle form
    2*theta_pf*sin(chi)*tan^2(delta/2)/(1+tan^2(delta/2)) where the
    latter is defined, but stays regular at delta = pi.
    """
    sqrt, sin, cos, *_ = _MATH[isinstance(s.delta, np.ndarray)]
    return _rotation_factors(s.theta_pf, s.chi, sqrt, sin, cos)[3] * (1.0 - cos(s.delta))


def check_rotation_grid(deltas, theta_pf: float, chis) -> None:
    """Raise DomainError, with the message of RotationScenario, unless
    theta_pf, each chi and then each delta is in range; once this passes,
    no row of rotation_rows(deltas, theta_pf, chis) can fail. Each axis is
    checked as one array, and its first value out of range is checked
    again alone, which raises."""
    _check_range("theta_pf", theta_pf, 0.0, 1.0, hi_open=True)
    for values, check in ((chis, partial(_check_range, "chi", lo=0.0, hi=math.pi)),
                          (deltas, _check_delta)):
        ok = check(np.asarray(values, dtype=float))
        if not ok.all():
            check(values[int(np.argmin(ok))])


def rotation_table(deltas, theta_pf: float, chis) -> np.ndarray:
    """The (N, 6) array of the rows (delta, chi, phi_ex, dphi_ex, dphi_ap,
    abs_err) of a rotation sweep, each delta with every chi in turn.

    phi_ex is rotation_phase wrapped to (-pi, pi], dphi_ex is
    rotation_phase - delta wrapped, dphi_ap is rotation_shift_approx and
    abs_err is ||dphi_ex| - dphi_ap|. The grid is validated first by
    check_rotation_grid, then the rows are those of `rotation_rows`.
    """
    check_rotation_grid(deltas, theta_pf, chis)
    return rotation_rows(deltas, theta_pf, chis)


def rotation_rows(deltas, theta_pf: float, chis) -> np.ndarray:
    """`rotation_table` of a grid that check_rotation_grid has passed,
    unchecked: a caller that validated a whole grid once asks for the rows
    of its parts. The factors of each chi and of each delta are computed
    once, and every value equals the one the single calls give, bit for
    bit."""
    _, sin, cos, _, atan2 = _MATH[True]
    # row i holds delta i // n_chi and chi i % n_chi
    n_chi, n_delta = len(chis), len(deltas)
    chi_factors = np.array([_rotation_factors(theta_pf, chi) for chi in chis]).reshape(-1, 4)
    n, dd, a_sin, th_sin = np.tile(chi_factors, (n_delta, 1)).T
    d = np.array(deltas, dtype=float)
    half = 0.5 * d
    sin_half, cos_half, vers = (np.repeat(x, n_chi) for x in (sin(half), cos(half), 1.0 - cos(d)))
    d = np.repeat(d, n_chi)
    phi = _rotation_angle(n, dd, a_sin, sin_half, cos_half, atan2)
    approx = th_sin * vers
    shift = wrap_angle(phi - d)
    chi = np.tile(np.array(chis, dtype=float), n_delta)
    return np.column_stack([d, chi, wrap_angle(phi), shift, approx, np.abs(np.abs(shift) - approx)])
