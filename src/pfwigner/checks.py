"""The validation suite. Each check takes what it sweeps (grid tuples,
or a seed and a draw count) and its tolerance, and returns a `CheckResult`.

Library functions are looked up on their modules at call time, so that a
profiler or a test that rebinds a module's function sees these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import closed_form, induction, minkowski, polarisation
from .closed_form import BoostScenario
from .minkowski import (LorentzTransform, PairStack, along_z, apply, four_velocity, unit_rows,
                        wrap_angle)

V_GRID = tuple(round(-0.99 + 0.03 * i, 10) for i in range(67))
THETA_GRID = (0.0, 1e-3, 0.1, 0.5)
CHI_GRID = tuple(i * math.pi / 6.0 for i in range(7))
DELTA_GRID = tuple(i * math.pi / 24.0 for i in range(1, 48))


@dataclass(frozen=True)
class CheckResult:
    """Passes when value <= tol; `stabiliser` is the largest stabiliser
    residual of the paired route the check saw (0 if it runs none)."""

    value: float
    tol: float
    stabiliser: float = 0.0


def _random_direction(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def _random_null(rng) -> np.ndarray:
    d = _random_direction(rng)
    e = rng.uniform(0.2, 5.0)
    return np.concatenate(([e], e * d))


def _random_velocity(rng) -> np.ndarray:
    return _random_direction(rng) * rng.uniform(0.0, 0.99)


def _random_transform(rng) -> np.ndarray:
    """Rotation axis and angle, then boost velocity, of a random transform."""
    axis = _random_direction(rng)
    return np.concatenate((axis, [rng.uniform(-math.pi, math.pi)], _random_velocity(rng)))


def _random_transforms(t: np.ndarray) -> LorentzTransform:
    """The stack of transforms drawn as the rows of t by `_random_transform`."""
    return minkowski.compose(minkowski.boost_from_velocity(t[:, 4:]),
                             minkowski.rotation_about(t[:, :3], t[:, 3]))


def _draw_rows(n: int, draw) -> np.ndarray:
    # one row of numbers per call of draw(), in order, so that each check
    # takes the same values from its generator as a loop over rows would
    first = np.concatenate(draw())
    rows = np.empty((n, len(first)))
    rows[0] = first
    for i in range(1, n):
        rows[i] = np.concatenate(draw())
    return rows


def boost_oracle_equivalence(v_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest |matrix - closed-form phase| of bench-pair boosts along z."""
    worst = stab = 0.0
    boosts = minkowski.boost_from_velocity(along_z(v_grid))
    for th in theta_grid:
        for chi in chi_grid:
            w = induction.pf_wigner(induction.bench_pair(th, chi), boosts)
            for v, phi in zip(v_grid, w.phi.tolist()):
                worst = max(worst, abs(phi - closed_form.boost_phase(BoostScenario(v, th, chi))))
            stab = max(stab, float(w.stabiliser.max()))
    return CheckResult(worst, tol, stab)


def rotation_oracle_equivalence(delta_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest ||matrix| - |closed-form phase|| of bench-pair rotations
    about z; inf if a sign disagrees."""
    worst = stab = 0.0
    sign_ok = True
    rotations = minkowski.rotation_about(np.array([0.0, 0.0, 1.0]), np.array(delta_grid))
    for th in theta_grid:
        for chi in chi_grid:
            w = induction.pf_wigner(induction.bench_pair(th, chi), rotations)
            table = closed_form.rotation_table(delta_grid, th, (chi,))
            for row, phi in zip(table, w.phi.tolist()):
                want = row[2]
                worst = max(worst, abs(abs(phi) - abs(want)))
                if phi * want < 0.0 and abs(want) > 1e-12:
                    sign_ok = False
            stab = max(stab, float(w.stabiliser.max()))
    return CheckResult(worst if sign_ok else math.inf, tol, stab)


def _composition_defect(w1, w2, w12) -> float:
    return max(abs(wrap_angle(d)) for d in (w12.phi - w1.phi - w2.phi).tolist())


def composition_law_pair(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Largest defect of phi(L2 L1) = phi(L1) + phi(L2), random (k, u, L1, L2)."""
    rng = np.random.default_rng(seed)
    rows = _draw_rows(n_draws, lambda: (_random_null(rng), _random_velocity(rng),
                                        _random_transform(rng), _random_transform(rng)))
    kin = PairStack(rows[:, :4], four_velocity(rows[:, 4:7]))
    l1, l2 = _random_transforms(rows[:, 7:14]), _random_transforms(rows[:, 14:])
    w1 = induction.pf_wigner(kin, l1)
    w2 = induction.pf_wigner(induction.transform_pair(kin, l1), l2)
    w12 = induction.pf_wigner(kin, minkowski.compose(l2, l1))
    stab = max(float(w1.stabiliser.max()), float(w2.stabiliser.max()),
               float(w12.stabiliser.max()))
    return CheckResult(_composition_defect(w1, w2, w12), tol, stab)


def composition_law_standard(seed: int, n_draws: int, tol: float) -> CheckResult:
    """The composition law of the pairless route, random (k, L1, L2)."""
    rng = np.random.default_rng(seed)
    rows = _draw_rows(n_draws, lambda: (_random_null(rng), _random_transform(rng),
                                        _random_transform(rng)))
    k = rows[:, :4]
    l1, l2 = _random_transforms(rows[:, 4:11]), _random_transforms(rows[:, 11:])
    w1 = induction.standard_wigner(k, l1)
    w2 = induction.standard_wigner(apply(l1, k), l2)
    w12 = induction.standard_wigner(k, minkowski.compose(l2, l1))
    return CheckResult(_composition_defect(w1, w2, w12), tol)


def stabiliser_residuals(earlier: Iterable[CheckResult], tol: float) -> CheckResult:
    """The largest stabiliser residual that earlier checks returned."""
    return CheckResult(max((r.stabiliser for r in earlier), default=math.inf), tol)


def standard_anchors(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Pairless route: a boost along k gives 0, a rotation by d about k gives d."""
    rng = np.random.default_rng(seed)
    rows = _draw_rows(n_draws, lambda: (_random_null(rng), [rng.uniform(-0.99, 0.99)],
                                        [rng.uniform(-math.pi, math.pi)]))
    k, v, d = rows[:, :4], rows[:, 4], rows[:, 5]
    kh = unit_rows(k[:, 1:])
    boosted = induction.standard_wigner(k, minkowski.boost_from_velocity(kh * v[:, None])).phi
    rotated = induction.standard_wigner(k, minkowski.rotation_about(kh, d)).phi
    worst = max(abs(wrap_angle(x)) for x in (rotated - d).tolist())
    return CheckResult(max(float(np.abs(boosted).max()), worst), tol)


def reduction_zero_theta(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Largest |paired - pairless phase| with the frame at rest, on the
    classes where both conventions agree (row i takes class i mod 3):
    rotations about any axis, boosts along k, and their products."""
    rng = np.random.default_rng(seed)
    rows = _draw_rows(n_draws, lambda: (_random_null(rng), _random_direction(rng),
                                        [rng.uniform(-math.pi, math.pi)],
                                        [rng.uniform(-0.99, 0.99)]))
    k, axes, angles, v = rows[:, :4], rows[:, 4:7], rows[:, 7], rows[:, 8]
    kh = unit_rows(k[:, 1:])
    rot = minkowski.rotation_about(axes, angles)
    kboost = minkowski.boost_from_velocity(kh * v[:, None])
    choices = np.stack([rot.m, kboost.m, minkowski.compose(rot, kboost).m])
    L = LorentzTransform(choices[np.arange(len(k)) % 3, np.arange(len(k))])
    rest = np.tile([1.0, 0.0, 0.0, 0.0], (len(k), 1))
    diff = induction.phase_difference(PairStack(k, rest), L)
    return CheckResult(float(np.abs(diff).max()), tol)


def approximation_order(theta_grid, delta_grid, chi_grid, tol: float) -> CheckResult:
    """|slope - 2| of the shift formula's worst error against theta, log-log."""
    errs = [max(row[5] for row in closed_form.rotation_table(delta_grid, th, chi_grid))
            for th in theta_grid]
    slope = float(np.polyfit(np.log(theta_grid), np.log(errs), 1)[0])
    return CheckResult(abs(slope - 2.0), tol)


def chi_extremum(v_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest offset from pi/2 of the chi where |boost phase| peaks; inf
    unless the phase is exactly 0 at chi = 0, the only chi tested where
    v or theta is 0."""
    worst = 0.0
    for v in v_grid:
        for th in theta_grid:
            if closed_form.boost_phase(BoostScenario(v, th, 0.0)) != 0.0:
                worst = math.inf
            if v == 0.0 or th == 0.0:
                continue
            mags = [abs(closed_form.boost_phase(BoostScenario(v, th, chi))) for chi in chi_grid]
            worst = max(worst, abs(chi_grid[int(np.argmax(mags))] - 0.5 * math.pi))
    return CheckResult(worst, tol)


def malus_monte_carlo(seed: int, first_seed: int, n_settings: int, n_samples: int,
                      tol: float) -> CheckResult:
    """Random (theta, Theta) settings whose frequency (setting i seeded
    first_seed + i) misses cos^2 by more than four standard errors."""
    rng = np.random.default_rng(seed)
    misses = 0
    for i in range(n_settings):
        theta = rng.uniform(0.0, math.pi)
        big = rng.uniform(0.0, math.pi)
        p = polarisation.malus_probability(theta, big)
        freq = polarisation.monte_carlo_malus(p, n_samples, seed=first_seed + i)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)
        if abs(freq - p) > 4.0 * sigma:
            misses += 1
    return CheckResult(float(misses), tol)


def run_checks(table) -> dict[str, CheckResult]:
    """Run each (name, partial) of table in order; `stabiliser_residuals`
    is given the results before it."""
    results: dict[str, CheckResult] = {}
    for name, check in table:
        if check.func is stabiliser_residuals:
            results[name] = check(list(results.values()))
        else:
            results[name] = check()
    return results
