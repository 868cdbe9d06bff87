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

from .minkowski import wrap_angle


class DomainError(ValueError):
    """An input is outside the validity range of a closed-form expression."""


def _check_range(name, value, lo, hi, lo_open=False, hi_open=False):
    ok = (value > lo if lo_open else value >= lo) and (value < hi if hi_open else value <= hi)
    if not (math.isfinite(value) and ok):
        raise DomainError(f"{name}={value!r} outside {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")


def _check_delta(delta):
    if not math.isfinite(delta):
        raise DomainError(f"delta={delta!r} is not finite")


@dataclass(frozen=True)
class BoostScenario:
    """Signed boost speed v along the photon, frame speed theta_pf, angle chi."""

    v: float
    theta_pf: float
    chi: float

    def __post_init__(self):
        _check_range("v", self.v, -1.0, 1.0, lo_open=True, hi_open=True)
        _check_range("theta_pf", self.theta_pf, 0.0, 1.0, hi_open=True)
        _check_range("chi", self.chi, 0.0, math.pi)


@dataclass(frozen=True)
class RotationScenario:
    """Rotation angle delta about the photon, frame speed theta_pf, angle chi."""

    delta: float
    theta_pf: float
    chi: float

    def __post_init__(self):
        _check_delta(self.delta)
        _check_range("theta_pf", self.theta_pf, 0.0, 1.0, hi_open=True)
        _check_range("chi", self.chi, 0.0, math.pi)


def boost_phase(s: BoostScenario) -> float:
    """Polarisation phase for a boost of speed v along the photon."""
    v, th, chi = s.v, s.theta_pf, s.chi
    rv = math.sqrt(1.0 - v * v)
    rt = math.sqrt(1.0 - th * th)
    num = v * th * math.sin(chi)
    den = math.sqrt(2.0 * (1.0 + rv) * (1.0 + rt) * (v * th * math.cos(chi) + rv * rt + 1.0))
    arg = num / den
    if abs(arg) > 1.0 + 1e-12:
        raise DomainError(f"arcsin argument {arg!r} violates the analytic bound")
    return math.asin(max(-1.0, min(1.0, arg)))


def boost_phase_asymptote(theta_pf: float, chi: float) -> float:
    """Limit of boost_phase as v -> +1 (the v -> -1, pi - chi limit is its negative)."""
    _check_range("theta_pf", theta_pf, 0.0, 1.0, hi_open=True)
    _check_range("chi", chi, 0.0, math.pi)
    rt = math.sqrt(1.0 - theta_pf * theta_pf)
    den = math.sqrt(2.0 * (1.0 + rt) * (1.0 + theta_pf * math.cos(chi)))
    return math.asin(theta_pf * math.sin(chi) / den)


def _rotation_factors(theta_pf: float, chi: float) -> tuple[float, float, float, float]:
    """The factors of the rotation formulas that depend on theta_pf and chi
    only: n, dd, a sin(chi) and theta_pf sin(chi)."""
    rt = math.sqrt(1.0 - theta_pf * theta_pf)
    a = (1.0 - rt) * math.cos(chi) - theta_pf
    return (rt + a * math.cos(chi), 1.0 - theta_pf * math.cos(chi), a * math.sin(chi),
            theta_pf * math.sin(chi))


def _rotation_angle(n: float, dd: float, a_sin: float, sin_half: float, cos_half: float) -> float:
    """rotation_phase from the factors of _rotation_factors and the
    sine and cosine of delta/2."""
    return 2.0 * math.atan2(n * sin_half, dd * cos_half + a_sin * sin_half)


def rotation_phase(s: RotationScenario) -> float:
    """Polarisation phase for a rotation by delta about the photon.

    Two-argument arctangent form: numerator and denominator of the
    half-angle tangent are both multiplied by sin(delta/2), which makes
    delta = 0 and delta = pi regular. Continuous and increasing in delta
    on [0, 2pi], with rotation_phase(2pi) = 2pi.
    """
    n, dd, a_sin, _ = _rotation_factors(s.theta_pf, s.chi)
    half = 0.5 * s.delta
    return _rotation_angle(n, dd, a_sin, math.sin(half), math.cos(half))


def rotation_phase_shift(s: RotationScenario) -> float:
    """delta - rotation_phase, wrapped to (-pi, pi]."""
    return wrap_angle(s.delta - rotation_phase(s))


def rotation_shift_approx(s: RotationScenario) -> float:
    """First-order (small theta_pf) magnitude of the rotation phase shift.

    theta_pf * sin(chi) * (1 - cos(delta)); equals the half-angle form
    2*theta_pf*sin(chi)*tan^2(delta/2)/(1+tan^2(delta/2)) where the
    latter is defined, but stays regular at delta = pi.
    """
    return _rotation_factors(s.theta_pf, s.chi)[3] * (1.0 - math.cos(s.delta))


def rotation_table(deltas, theta_pf: float, chis) -> list[tuple[float, ...]]:
    """The rows (delta, chi, phi_ex, dphi_ex, dphi_ap, abs_err) of a
    rotation sweep, each delta with every chi in turn.

    phi_ex is rotation_phase wrapped to (-pi, pi], dphi_ex is
    rotation_phase - delta wrapped, dphi_ap is rotation_shift_approx and
    abs_err is ||dphi_ex| - dphi_ap|. theta_pf, each chi and each delta are
    validated once, with the messages of RotationScenario; every value
    equals the one the single calls give, bit for bit.
    """
    _check_range("theta_pf", theta_pf, 0.0, 1.0, hi_open=True)
    for chi in chis:
        _check_range("chi", chi, 0.0, math.pi)
    for d in deltas:
        _check_delta(d)
    factors = [(chi,) + _rotation_factors(theta_pf, chi) for chi in chis]
    rows = []
    for d in deltas:
        half = 0.5 * d
        sin_half, cos_half, vers = math.sin(half), math.cos(half), 1.0 - math.cos(d)
        for chi, n, dd, a_sin, th_sin in factors:
            phi = _rotation_angle(n, dd, a_sin, sin_half, cos_half)
            approx = th_sin * vers
            shift = wrap_angle(phi - d)
            rows.append((d, chi, wrap_angle(phi), shift, approx, abs(abs(shift) - approx)))
    return rows
