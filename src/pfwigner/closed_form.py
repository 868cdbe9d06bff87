"""Closed-form phase formulas for the two bench configurations.

Both experiments place the photon along z-hat with the frame velocity
direction at angle chi to it. A boost of speed V along the photon (or a
rotation by delta about it) then produces the polarisation phases below.
These are the analytic route; the matrix route lives in `induction`, and
the two are cross-checked against each other by the validation suite.

The formulas are the case a = 0 of the frame's azimuth a about the
photon, measured from lab x: the bench plane, x-z. For a pair turned
about the photon by a, with rho(a) = rotation_phase(a, theta_pf, chi),
the matrix route gives rho(a + delta) - rho(a) for a rotation by delta,
and boost_phase(V, theta_pf, chi) + rho(a; theta', chi') -
rho(a; theta_pf, chi) for a boost V along the photon, (theta', chi') the
boosted frame's speed and angle. The Thomas-Wigner angle of that boost,
about the transverse axis turned with the pair, is
-2 boost_phase(V, theta_pf, chi) at every a.

Every formula reads its fields by `minkowski._checked_rows`, one entry
per row (a float is shared by every row, and floats alone are one row),
and returns one value per row. `sin`, `cos` and `atan2` run on whole
arrays and `asin` per row, all by `minkowski.math_rows` with the bits of
`math`, so each row equals its one-row call bit for bit. A row outside a
formula's domain raises a `DomainError` that names it.

The arithmetic of `boost_phase` and `rotation_phase` past their angles
lives in private helpers that take the cosine and sine of chi
(`_boost_sine`, `_rotation_factors`, `_rotation_yx`). The gauge of the
matrix route (`induction._gauge_stack`) calls the same helpers, so each
formula has one code path, and builds its rotation with no angle.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .minkowski import (RowValueError, _check_rows, _checked_rows, _finite_test, math_rows,
                        wrap_angle)


class DomainError(RowValueError):
    """A row is outside the validity range of a closed-form expression."""


def _range_test(name, value, lo, hi, lo_open=False, hi_open=False):
    """The (ok, message) test of lo <= value <= hi on each entry of an (N,)
    array, each end open if flagged (NaN fails)."""
    ok = (value > lo if lo_open else value >= lo) & (value < hi if hi_open else value <= hi)
    return ok, lambda i: (f"{name}={value[i].item()!r} outside "
                          f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")


_delta_test = partial(_finite_test, "delta")
_v_test = partial(_range_test, "v", lo=-1.0, hi=1.0, lo_open=True, hi_open=True)
_theta_test = partial(_range_test, "theta_pf", lo=0.0, hi=1.0, hi_open=True)
_chi_test = partial(_range_test, "chi", lo=0.0, hi=math.pi)


def _boost_tests(v, theta_pf, chi):
    return [_v_test(v), _theta_test(theta_pf), _chi_test(chi)]


def _rotation_tests(delta, theta_pf, chi):
    return [_delta_test(delta), _theta_test(theta_pf), _chi_test(chi)]


def _cos_sin(chi):
    return math_rows(math.cos, chi), math_rows(math.sin, chi)


def boost_phase(v, theta_pf, chi) -> np.ndarray:
    """Polarisation phase for a boost of signed speed v along the photon,
    with frame speed theta_pf at angle chi to it, one per row."""
    v, th, chi = _checked_rows(_boost_tests, v, theta_pf, chi, error=DomainError)
    return math_rows(math.asin, _boost_sine(v, th, *_cos_sin(chi)))


def _boost_sine(v, theta_pf, cos_chi, sin_chi):
    """The sine of boost_phase, its arcsin argument, from the cosine and
    sine of chi: DomainError names the first row past the analytic bound
    |sine| <= 1 (by more than 1e-12), and the sines are clipped to it."""
    rv = np.sqrt(1.0 - v * v)
    rt = np.sqrt(1.0 - theta_pf * theta_pf)
    num = v * theta_pf * sin_chi
    den = np.sqrt(2.0 * (1.0 + rv) * (1.0 + rt) * (v * theta_pf * cos_chi + rv * rt + 1.0))
    arg = num / den
    _check_rows([(np.abs(arg) <= 1.0 + 1e-12,
                  lambda i: f"arcsin argument {arg[i].item()!r} violates the analytic bound")],
                error=DomainError)
    return np.minimum(np.maximum(arg, -1.0), 1.0)


def _rotation_factors(theta_pf, cos_chi, sin_chi):
    """The factors of the rotation formulas that depend on theta_pf and chi
    only, from the cosine and sine of chi: n, dd, a sin(chi) and
    theta_pf sin(chi)."""
    rt = np.sqrt(1.0 - theta_pf * theta_pf)
    a = (1.0 - rt) * cos_chi - theta_pf
    return rt + a * cos_chi, 1.0 - theta_pf * cos_chi, a * sin_chi, theta_pf * sin_chi


def _rotation_yx(n, dd, a_sin, sin_half, cos_half):
    """The (y, x) pair whose atan2 is half of rotation_phase, from the
    factors of _rotation_factors and the sine and cosine of delta/2. It is
    homogeneous in (sin_half, cos_half): any multiple of them gives the
    same direction, or the opposite one."""
    return n * sin_half, dd * cos_half + a_sin * sin_half


def _rotation_angle(n, dd, a_sin, sin_half, cos_half):
    """rotation_phase from the factors of _rotation_factors and the
    sine and cosine of delta/2, flattened: factors of the chis against
    (n_delta, 1) sines and cosines give the delta-major rows of the grid."""
    y, x = _rotation_yx(n, dd, a_sin, sin_half, cos_half)
    return 2.0 * math_rows(math.atan2, y.reshape(-1), x.reshape(-1))


def rotation_phase(delta, theta_pf, chi) -> np.ndarray:
    """Polarisation phase for a rotation by delta about the photon, with
    frame speed theta_pf at angle chi to it, one per row.

    Two-argument arctangent form: numerator and denominator of the
    half-angle tangent are both multiplied by sin(delta/2), which makes
    delta = 0 and delta = pi regular. Continuous and increasing in delta
    on [0, 2pi], with rotation_phase(2pi) = 2pi.
    """
    delta, th, chi = _checked_rows(_rotation_tests, delta, theta_pf, chi, error=DomainError)
    n, dd, a_sin, _ = _rotation_factors(th, *_cos_sin(chi))
    half = 0.5 * delta
    return _rotation_angle(n, dd, a_sin, math_rows(math.sin, half), math_rows(math.cos, half))


def rotation_phase_shift(delta, theta_pf, chi) -> np.ndarray:
    """delta - rotation_phase, wrapped to (-pi, pi], one per row: the
    negative of dphi_ex of `rotation_table` (rotation_phase - delta), so
    positive where the polarisation lags the apparatus; a zero may differ
    from dphi_ex's in its sign."""
    delta, theta_pf, chi = _checked_rows(_rotation_tests, delta, theta_pf, chi, error=DomainError)
    return wrap_angle(delta - rotation_phase(delta, theta_pf, chi))


def rotation_shift_approx(delta, theta_pf, chi) -> np.ndarray:
    """First-order (small theta_pf) magnitude of the rotation phase shift,
    one per row.

    theta_pf * sin(chi) * (1 - cos(delta)); equals the half-angle form
    2*theta_pf*sin(chi)*tan^2(delta/2)/(1+tan^2(delta/2)) where the
    latter is defined, but stays regular at delta = pi.
    """
    delta, th, chi = _checked_rows(_rotation_tests, delta, theta_pf, chi, error=DomainError)
    return _rotation_factors(th, *_cos_sin(chi))[3] * (1.0 - math_rows(math.cos, delta))


def check_rotation_grid(deltas, theta_pf: float, chis) -> tuple[np.ndarray, float, np.ndarray]:
    """The grid as (deltas, theta_pf, chis), each axis flattened to an (N,)
    array and theta_pf a float, once theta_pf, each chi and then each delta
    is in range: else DomainError, with the reason rotation_phase gives.
    Once this passes, no row of rotation_rows of the grid can fail. Each
    axis is checked as one array, and the row named is the index within
    it; a theta_pf of more than one value raises ValueError."""
    if np.size(theta_pf) != 1:
        raise ValueError(f"theta_pf must be one value, got shape {np.shape(theta_pf)}")
    theta_pf, chis, deltas = (
        _checked_rows(lambda x: [test(x)], axis, error=DomainError)[0]
        for test, axis in ((_theta_test, theta_pf), (_chi_test, chis), (_delta_test, deltas)))
    return deltas, theta_pf.item(), chis


def rotation_table(deltas, theta_pf: float, chis) -> np.ndarray:
    """The (N, 6) array of the rows (delta, chi, phi_ex, dphi_ex, dphi_ap,
    abs_err) of a rotation sweep, each delta with every chi in turn.

    phi_ex is rotation_phase wrapped to (-pi, pi], dphi_ex is
    rotation_phase - delta wrapped, dphi_ap is rotation_shift_approx and
    abs_err is ||dphi_ex| - dphi_ap|. The grid is read and validated first
    by check_rotation_grid; the grid columns are put in front of the rows
    of `rotation_rows`.
    """
    deltas, theta_pf, chis = check_rotation_grid(deltas, theta_pf, chis)
    return np.column_stack([np.repeat(deltas, len(chis)), np.tile(chis, len(deltas)),
                            rotation_rows(deltas, theta_pf, chis)])


def rotation_rows(deltas, theta_pf: float, chis) -> np.ndarray:
    """The (N, 4) array of the computed columns (phi_ex, dphi_ex, dphi_ap,
    abs_err) of `rotation_table`, for a grid that check_rotation_grid has
    passed, unchecked: (N,) axes and a float theta_pf, as it returns them.
    A caller that validated a whole grid once asks for the rows of its
    parts. The factors of the chis and of each delta are computed once and
    broadcast over the grid, and every value equals the one the one-row
    calls give, bit for bit."""
    # grid entry [i, j] holds delta i and chi j, and is row i * n_chi + j
    n_delta, n_chi = len(deltas), len(chis)
    n, dd, a_sin, th_sin = _rotation_factors(theta_pf, *_cos_sin(chis))
    half = 0.5 * deltas
    phi = _rotation_angle(n, dd, a_sin, math_rows(math.sin, half)[:, None],
                          math_rows(math.cos, half)[:, None]).reshape(n_delta, n_chi)
    out = np.empty((n_delta, n_chi, 4))
    out[..., 0] = wrap_angle(phi).reshape(phi.shape)
    out[..., 1] = shift = wrap_angle(phi - deltas[:, None]).reshape(phi.shape)
    out[..., 2] = approx = th_sin * (1.0 - math_rows(math.cos, deltas))[:, None]
    out[..., 3] = np.abs(np.abs(shift) - approx)
    return out.reshape(-1, 4)
