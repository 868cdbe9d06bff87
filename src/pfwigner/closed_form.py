"""Closed-form phase formulas for the two bench configurations.

Both experiments place the photon along z-hat with the frame velocity
direction at angle chi to it. A boost of speed V along the photon (or a
rotation by delta about it) then produces the polarisation phases below.
These are the analytic route; the matrix route lives in `induction`, and
the two are cross-checked against each other by the validation suite.

Every formula takes (N,) float arrays, one entry per row (a float is
shared by every row, and floats alone are one row), and returns one value
per row. `sin`, `cos`, `asin` and `atan2` run per row by `math`, so each
row equals its one-row call bit for bit. A row outside
a formula's domain raises a `DomainError` that names it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .minkowski import RowValueError, _check_rows, math_rows, wrap_angle


class DomainError(RowValueError):
    """A row is outside the validity range of a closed-form expression."""


def _range_test(name, value, lo, hi, lo_open=False, hi_open=False):
    """The (ok, message) test of lo <= value <= hi on each entry of an (N,)
    array, each end open if flagged (NaN fails)."""
    ok = (value > lo if lo_open else value >= lo) & (value < hi if hi_open else value <= hi)
    ends = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    return ok, lambda i: f"{name}={value[i].item()!r} outside {ends}"


def _delta_test(delta):
    """The (ok, message) test that each entry of an (N,) array is finite."""
    return np.isfinite(delta), lambda i: f"delta={delta[i].item()!r} is not finite"


_theta_test = partial(_range_test, "theta_pf", lo=0.0, hi=1.0, hi_open=True)
_chi_test = partial(_range_test, "chi", lo=0.0, hi=math.pi)


def _boost_tests(v, theta_pf, chi):
    return [_range_test("v", v, -1.0, 1.0, lo_open=True, hi_open=True),
            _theta_test(theta_pf), _chi_test(chi)]


def _rotation_tests(delta, theta_pf, chi):
    return [_delta_test(delta), _theta_test(theta_pf), _chi_test(chi)]


def _checked_rows(tests, *fields) -> list[np.ndarray]:
    """The fields of a formula as (N,) float arrays, a float being shared
    by every row and floats alone giving one row, once no row fails
    `tests` of them: DomainError names the first row that does, with the
    first field it fails, in argument order."""
    rows = np.broadcast_arrays(*[np.array(x, dtype=float, ndmin=1) for x in fields])
    _check_rows(tests(*rows), error=DomainError)
    return rows


def boost_phase(v, theta_pf, chi) -> np.ndarray:
    """Polarisation phase for a boost of signed speed v along the photon,
    with frame speed theta_pf at angle chi to it, one per row."""
    v, th, chi = _checked_rows(_boost_tests, v, theta_pf, chi)
    rv = np.sqrt(1.0 - v * v)
    rt = np.sqrt(1.0 - th * th)
    num = v * th * math_rows(math.sin, chi)
    den = np.sqrt(2.0 * (1.0 + rv) * (1.0 + rt) * (v * th * math_rows(math.cos, chi) + rv * rt + 1.0))
    arg = num / den
    _check_rows([(np.abs(arg) <= 1.0 + 1e-12,
                  lambda i: f"arcsin argument {arg[i].item()!r} violates the analytic bound")],
                error=DomainError)
    return math_rows(math.asin, np.clip(arg, -1.0, 1.0))


def _rotation_factors(theta_pf, chi):
    """The factors of the rotation formulas that depend on theta_pf and chi
    only, for an (N,) array of chi: n, dd, a sin(chi) and theta_pf sin(chi)."""
    rt = np.sqrt(1.0 - theta_pf * theta_pf)
    c, s = math_rows(math.cos, chi), math_rows(math.sin, chi)
    a = (1.0 - rt) * c - theta_pf
    return rt + a * c, 1.0 - theta_pf * c, a * s, theta_pf * s


def _rotation_angle(n, dd, a_sin, sin_half, cos_half):
    """rotation_phase from the factors of _rotation_factors and the
    sine and cosine of delta/2."""
    return 2.0 * math_rows(math.atan2, n * sin_half, dd * cos_half + a_sin * sin_half)


def rotation_phase(delta, theta_pf, chi) -> np.ndarray:
    """Polarisation phase for a rotation by delta about the photon, with
    frame speed theta_pf at angle chi to it, one per row.

    Two-argument arctangent form: numerator and denominator of the
    half-angle tangent are both multiplied by sin(delta/2), which makes
    delta = 0 and delta = pi regular. Continuous and increasing in delta
    on [0, 2pi], with rotation_phase(2pi) = 2pi.
    """
    delta, th, chi = _checked_rows(_rotation_tests, delta, theta_pf, chi)
    n, dd, a_sin, _ = _rotation_factors(th, chi)
    half = 0.5 * delta
    return _rotation_angle(n, dd, a_sin, math_rows(math.sin, half), math_rows(math.cos, half))


def rotation_phase_shift(delta, theta_pf, chi) -> np.ndarray:
    """delta - rotation_phase, wrapped to (-pi, pi], one per row."""
    return wrap_angle(np.asarray(delta, dtype=float) - rotation_phase(delta, theta_pf, chi))


def rotation_shift_approx(delta, theta_pf, chi) -> np.ndarray:
    """First-order (small theta_pf) magnitude of the rotation phase shift,
    one per row.

    theta_pf * sin(chi) * (1 - cos(delta)); equals the half-angle form
    2*theta_pf*sin(chi)*tan^2(delta/2)/(1+tan^2(delta/2)) where the
    latter is defined, but stays regular at delta = pi.
    """
    delta, th, chi = _checked_rows(_rotation_tests, delta, theta_pf, chi)
    return _rotation_factors(th, chi)[3] * (1.0 - math_rows(math.cos, delta))


def check_rotation_grid(deltas, theta_pf: float, chis) -> None:
    """Raise DomainError, with the reason rotation_phase gives, unless
    theta_pf, each chi and then each delta is in range; once this passes,
    no row of rotation_rows(deltas, theta_pf, chis) can fail. Each axis is
    checked as one array, and the row named is the index within it."""
    for test in (_theta_test(np.array([theta_pf], dtype=float)),
                 _chi_test(np.asarray(chis, dtype=float)),
                 _delta_test(np.asarray(deltas, dtype=float))):
        _check_rows([test], error=DomainError)


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
    of its parts. The factors of the chis and of each delta are computed
    once, and every value equals the one the one-row calls give, bit for
    bit."""
    # row i holds delta i // n_chi and chi i % n_chi
    chis = np.asarray(chis, dtype=float)
    n_chi, n_delta = len(chis), len(deltas)
    n, dd, a_sin, th_sin = (np.tile(x, n_delta) for x in _rotation_factors(theta_pf, chis))
    d = np.array(deltas, dtype=float)
    half = 0.5 * d
    sin_half, cos_half, vers = (np.repeat(x, n_chi) for x in (
        math_rows(math.sin, half), math_rows(math.cos, half), 1.0 - math_rows(math.cos, d)))
    d = np.repeat(d, n_chi)
    phi = _rotation_angle(n, dd, a_sin, sin_half, cos_half)
    approx = th_sin * vers
    shift = wrap_angle(phi - d)
    chi = np.tile(chis, n_delta)
    return np.column_stack([d, chi, wrap_angle(phi), shift, approx, np.abs(np.abs(shift) - approx)])
