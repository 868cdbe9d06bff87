"""The validation suite. Each check takes what it sweeps (grid tuples,
or a seed and a draw count) and its tolerance, and returns a `CheckResult`.

Library functions are looked up on their modules at call time, so that a
profiler or a test that rebinds a module's function sees these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from . import closed_form, induction, minkowski, polarisation
from .minkowski import (LorentzTransform, PairStack, along_z, apply, four_velocity, row_blocks,
                        rows_from, unit_rows, wrap_angle)

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


def _draws(rng, n: int, spec) -> np.ndarray:
    """n rows of random inputs, the columns of each item of `spec` in turn:
    a unit "direction", a "null" momentum of energy in [0.2, 5), a "velocity"
    of speed below 0.99, a "transform" (see `_random_transforms`), or for
    (lo, hi) a number in [lo, hi). Each direction and number is one generator
    call for all n rows, made in the order the items name them."""
    def columns(item) -> list:
        if item == "direction":
            return [unit_rows(rng.standard_normal((n, 3)))]
        if item == "null":
            d, e = columns("direction") + columns((0.2, 5.0))
            return [e, e * d]
        if item == "velocity":
            d, s = columns("direction") + columns((0.0, 0.99))
            return [d * s]
        if item == "transform":
            return columns("direction") + columns((-math.pi, math.pi)) + columns("velocity")
        if isinstance(item, str):
            raise ValueError(f"unknown draw item {item!r}")
        return [rng.uniform(*item, (n, 1))]

    return np.concatenate([column for item in spec for column in columns(item)], axis=1)


def _random_transforms(t: np.ndarray) -> LorentzTransform:
    """The stack of transforms drawn as the "transform" columns t of `_draws`."""
    return minkowski.compose(minkowski.boost_from_velocity(t[:, 4:]),
                             minkowski.rotation_about(t[:, :3], t[:, 3]))


def _phase(w: induction.WignerAngle) -> tuple[np.ndarray, float]:
    """The angle of each row and the largest stabiliser residual of w:
    what a check reads, without the Wigner elements w holds."""
    return w.phi, float(w.stabiliser.max())


def _moved_element(pairs: PairStack, L: LorentzTransform) -> np.ndarray:
    """The stack of standard elements of the moved pairs (Lk, Lu)."""
    return induction.pf_standard_element(induction.transform_pair(pairs, L)).m


def _bench_wigner(theta_grid, chi_grid, L: LorentzTransform):
    """pf_wigner phases of every transform of L at every bench pair of the
    grids, their largest stabiliser residual, and the theta and chi of each
    row: the rows of a pair follow each other, theta-major. The element of
    each bench pair is built once, and its rows gathered a block at a time."""
    th = np.repeat(theta_grid, len(chi_grid))
    chi = np.tile(chi_grid, len(theta_grid))
    pairs = induction.bench_pair(th, chi)
    elements = induction.pf_standard_element(pairs).m
    pair_of, transform_of = np.divmod(np.arange(len(pairs) * len(L)), len(L))
    phi, stab = [], 0.0
    for rows in row_blocks(len(pair_of)):
        p, l = pairs[pair_of[rows]], L[transform_of[rows]]
        with rows_from(rows.start):
            block_phi, block_stab = _phase(induction.pf_wigner_from_elements(
                p, elements[pair_of[rows]], l, _moved_element(p, l)))
        phi.append(block_phi)
        stab = max(stab, block_stab)
    return np.concatenate(phi), stab, th[pair_of], chi[pair_of]


def boost_oracle_equivalence(v_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest |matrix - closed-form phase| of bench-pair boosts along z."""
    phi, stab, th, chi = _bench_wigner(theta_grid, chi_grid,
                                       minkowski.boost_from_velocity(along_z(v_grid)))
    v = np.tile(v_grid, len(theta_grid) * len(chi_grid))
    want = closed_form.boost_phase(v, th, chi)
    return CheckResult(float(np.abs(phi - want).max()), tol, stab)


def rotation_oracle_equivalence(delta_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest ||matrix| - |closed-form phase|| of bench-pair rotations
    about z; inf if a sign disagrees."""
    phi, stab, _, _ = _bench_wigner(theta_grid, chi_grid, minkowski.rotation_about(
        np.array([0.0, 0.0, 1.0]), np.array(delta_grid)))
    # phi_ex of one table per theta, its delta-major rows put chi-major
    want = np.concatenate([
        closed_form.rotation_table(delta_grid, th, chi_grid)[:, 2]
        .reshape(len(delta_grid), len(chi_grid)).T.ravel() for th in theta_grid])
    sign_ok = not ((phi * want < 0.0) & (np.abs(want) > 1e-12)).any()
    worst = float(np.abs(np.abs(phi) - np.abs(want)).max())
    return CheckResult(worst if sign_ok else math.inf, tol, stab)


def _composition_defect(phi1, phi2, phi12) -> float:
    return float(np.abs(wrap_angle(phi12 - phi1 - phi2)).max())


def composition_law_pair(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Largest defect of phi(L2 L1) = phi(L1) + phi(L2), random (k, u, L1, L2).

    The elements of the pairs p, L1 p, L2 L1 p and (L2 L1) p are each
    built once."""
    rng = np.random.default_rng(seed)
    rows = _draws(rng, n_draws, ("null", "velocity", "transform", "transform"))
    p = PairStack(rows[:, :4], four_velocity(rows[:, 4:7]))
    a, b = _random_transforms(rows[:, 7:14]), _random_transforms(rows[:, 14:])
    ab = minkowski.compose(b, a)
    s = induction.pf_standard_element(p).m
    p1 = induction.transform_pair(p, a)
    s1 = induction.pf_standard_element(p1).m
    phi1, stab1 = _phase(induction.pf_wigner_from_elements(p, s, a, s1))
    phi2, stab2 = _phase(induction.pf_wigner_from_elements(p1, s1, b, _moved_element(p1, b)))
    phi12, stab12 = _phase(induction.pf_wigner_from_elements(p, s, ab, _moved_element(p, ab)))
    return CheckResult(_composition_defect(phi1, phi2, phi12), tol, max(stab1, stab2, stab12))


def composition_law_standard(seed: int, n_draws: int, tol: float) -> CheckResult:
    """The composition law of the pairless route, random (k, L1, L2); the
    elements of k and L1 k are each built once."""
    rng = np.random.default_rng(seed)
    rows = _draws(rng, n_draws, ("null", "transform", "transform"))
    a, b = _random_transforms(rows[:, 4:11]), _random_transforms(rows[:, 11:])
    ab = minkowski.compose(b, a)
    k = induction.photon_momenta(rows[:, :4])
    k1 = induction.photon_momenta(apply(a, k))
    element = induction.massless_standard_element
    e, e1 = element(k), element(k1)
    phi1 = induction.standard_wigner_from_elements(k, e, a, e1).phi
    phi2 = induction.standard_wigner_from_elements(k1, e1, b, element(apply(b, k1))).phi
    phi12 = induction.standard_wigner_from_elements(k, e, ab, element(apply(ab, k))).phi
    return CheckResult(_composition_defect(phi1, phi2, phi12), tol)


def stabiliser_residuals(earlier: Iterable[CheckResult], tol: float) -> CheckResult:
    """The largest stabiliser residual that earlier checks returned."""
    return CheckResult(max((r.stabiliser for r in earlier), default=math.inf), tol)


def standard_anchors(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Pairless route: a boost along k gives 0, a rotation by d about k gives d."""
    rng = np.random.default_rng(seed)
    rows = _draws(rng, n_draws, ("null", (-0.99, 0.99), (-math.pi, math.pi)))
    k, v, d = rows[:, :4], rows[:, 4], rows[:, 5]
    kh = unit_rows(k[:, 1:])
    boosted = induction.standard_wigner(k, minkowski.boost_from_velocity(kh * v[:, None])).phi
    rotated = induction.standard_wigner(k, minkowski.rotation_about(kh, d)).phi
    worst = float(np.abs(wrap_angle(rotated - d)).max())
    return CheckResult(max(float(np.abs(boosted).max()), worst), tol)


def reduction_zero_theta(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Largest |paired - pairless phase| with the frame at rest, on the
    classes where both conventions agree (row i takes class i mod 3):
    rotations about any axis, boosts along k, and their products."""
    rng = np.random.default_rng(seed)
    rows = _draws(rng, n_draws, ("null", "direction", (-math.pi, math.pi), (-0.99, 0.99)))
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
    errs = [closed_form.rotation_table(delta_grid, th, chi_grid)[:, 5].max() for th in theta_grid]
    slope = float(np.polyfit(np.log(theta_grid), np.log(errs), 1)[0])
    return CheckResult(abs(slope - 2.0), tol)


def chi_extremum(v_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest offset from pi/2 of the chi where |boost phase| peaks; inf
    unless the phase is exactly 0 at chi = 0, the only chi tested where
    v or theta is 0."""
    chis = (0.0,) + tuple(chi_grid)
    v, th, chi = (np.array(x) for x in zip(*product(v_grid, theta_grid, chis)))
    phase = closed_form.boost_phase(v, th, chi).reshape(-1, len(chis))
    if (phase[:, 0] != 0.0).any():
        return CheckResult(math.inf, tol)
    moving = (v[::len(chis)] != 0.0) & (th[::len(chis)] != 0.0)
    peaks = np.argmax(np.abs(phase[moving, 1:]), axis=1).tolist()
    return CheckResult(max((abs(chi_grid[i] - 0.5 * math.pi) for i in peaks), default=0.0), tol)


def malus_monte_carlo(seed: int, first_seed: int, n_settings: int, n_samples: int,
                      tol: float) -> CheckResult:
    """Random (theta, Theta) settings whose frequency (setting i seeded
    first_seed + i) misses cos^2 by more than four standard errors."""
    theta, big = np.random.default_rng(seed).uniform(0.0, math.pi, size=(n_settings, 2)).T
    p = polarisation.malus_probability(theta, big)
    freq = polarisation.monte_carlo_malus(p, n_samples, seed=first_seed)
    sigma = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / n_samples)
    return CheckResult(float(np.count_nonzero(np.abs(freq - p) > 4.0 * sigma)), tol)


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
