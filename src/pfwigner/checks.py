"""The validation suite. Each check takes what it sweeps (grid tuples,
or a seed and a draw count) and its tolerance, and returns a `CheckResult`,
which holds the verdict; `CHECKS` binds each to what `validate` runs it with.
Both oracle checks run `_bench_oracle` and pass it only their transforms and
their closed form.

Library functions are looked up on their modules at call time, so that a
profiler or a test that rebinds a module's function sees these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable

import numpy as np

from . import closed_form, induction, minkowski, polarisation
from .minkowski import (LorentzTransform, PairStack, along_z, apply, four_velocity, unit_rows,
                        wrap_angle)

@dataclass(frozen=True)
class CheckResult:
    """What a check measured and its tolerance; `stabiliser` is the largest
    stabiliser residual of the paired route the check saw (0 if it runs none)."""

    value: float
    tol: float
    stabiliser: float = 0.0

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

    @property
    def margin(self) -> float:
        """value / tol as silent IEEE division: inf over a tol of 0, nan for 0 / 0."""
        with np.errstate(all="ignore"):
            return float(np.float64(self.value) / self.tol)


def _directions(rng, n: int) -> np.ndarray:
    """n unit rows. Each draw function makes one generator call for all n
    rows per direction or number, in the order its docstring names them."""
    return unit_rows(rng.standard_normal((n, 3)))


def _null_momenta(rng, n: int) -> np.ndarray:
    """n null momenta (e; e d): a direction d, then an energy e in [0.2, 5)."""
    d, e = _directions(rng, n), rng.uniform(0.2, 5.0, (n, 1))
    return np.concatenate([e, e * d], axis=1)


def _velocities(rng, n: int) -> np.ndarray:
    """n velocities: a direction, then a speed in [0, 0.99)."""
    return _directions(rng, n) * rng.uniform(0.0, 0.99, (n, 1))


def _transforms(rng, n: int) -> LorentzTransform:
    """n transforms boost . rotation: the rotation's axis, its angle in
    [-pi, pi), then the boost's velocity; the factors from the kernels and
    the product validated."""
    rotations = minkowski._rotation_stack(_directions(rng, n), rng.uniform(-math.pi, math.pi, n))
    return LorentzTransform(minkowski._boost_stack(four_velocity(_velocities(rng, n))) @ rotations)


def _phase(w: induction.WignerAngle) -> tuple[np.ndarray, float]:
    """The angle of each row and the largest stabiliser residual of w:
    what a check reads."""
    return w.phi, float(w.stabiliser.max())


def _bench_oracle(theta_grid, chi_grid, x_grid, transforms, closed):
    """The pf_wigner phases of transforms(x) at every bench pair of the
    grids, closed(x, theta, chi) of the same rows in one stacked call, and
    the largest stabiliser residual: the rows of a pair follow each other,
    theta-major, one per x. The element of each bench pair is built once,
    and its rows gathered a block at a time."""
    th = np.repeat(theta_grid, len(chi_grid))
    chi = np.tile(chi_grid, len(theta_grid))
    pairs = induction.bench_pair(th, chi)
    elements = induction.pf_standard_element(pairs)
    x = np.array(x_grid, dtype=float)
    L = transforms(x)
    pair_of, transform_of = np.divmod(np.arange(len(pairs) * len(L)), len(L))
    stab = [0.0]

    def block(rows: slice) -> np.ndarray:
        p, l = pairs[pair_of[rows]], L[transform_of[rows]]
        phi, block_stab = _phase(induction.pf_wigner_from_elements(
            p, elements[pair_of[rows]], l,
            induction.pf_standard_element(induction.transform_pair(p, l))))
        stab.append(block_stab)
        return phi

    phi = minkowski.in_blocks(len(pair_of), block)
    return phi, closed(x[transform_of], th[pair_of], chi[pair_of]), max(stab)


def boost_oracle_equivalence(v_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest |matrix - closed-form phase| of bench-pair boosts along z."""
    phi, want, stab = _bench_oracle(
        theta_grid, chi_grid, v_grid, lambda v: minkowski.boost_from_velocity(along_z(v)),
        closed_form.boost_phase)
    return CheckResult(float(np.abs(phi - want).max()), tol, stab)


def rotation_oracle_equivalence(delta_grid, theta_grid, chi_grid, tol: float) -> CheckResult:
    """Largest ||matrix| - |closed-form phase|| of bench-pair rotations
    about z; inf if a sign disagrees where |closed form| > 1e-12."""
    phi, want, stab = _bench_oracle(
        theta_grid, chi_grid, delta_grid, lambda d: minkowski.rotation_about(induction.Z_AXIS, d),
        lambda d, th, chi: wrap_angle(closed_form.rotation_phase(d, th, chi)))
    sign_ok = not ((phi * want < 0.0) & (np.abs(want) > 1e-12)).any()
    worst = float(np.abs(np.abs(phi) - np.abs(want)).max())
    return CheckResult(worst if sign_ok else math.inf, tol, stab)


def _composition_defect(phi1, phi2, phi12) -> float:
    return float(np.abs(wrap_angle(phi12 - phi1 - phi2)).max())


def _composition_law(x, a: LorentzTransform, b: LorentzTransform, element, move,
                     wigner) -> tuple[float, float]:
    """Largest defect of phi(L2 L1) = phi(L1) + phi(L2) at x for L1 = a, L2 = b
    on one route, and the largest stabiliser residual; the route's elements
    of x, L1 x, L2 L1 x and (L2 L1) x are each built once."""
    ab = minkowski.compose(b, a)
    s = element(x)
    x1 = move(x, a)
    s1 = element(x1)
    phi1, stab1 = _phase(wigner(x, s, a, s1))
    phi2, stab2 = _phase(wigner(x1, s1, b, element(move(x1, b))))
    phi12, stab12 = _phase(wigner(x, s, ab, element(move(x, ab))))
    return _composition_defect(phi1, phi2, phi12), max(stab1, stab2, stab12)


def composition_law_pair(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Largest defect of phi(L2 L1) = phi(L1) + phi(L2), random (k, u, L1, L2)."""
    rng = np.random.default_rng(seed)
    p = PairStack(_null_momenta(rng, n_draws), four_velocity(_velocities(rng, n_draws)))
    a, b = _transforms(rng, n_draws), _transforms(rng, n_draws)
    defect, stab = _composition_law(p, a, b, induction.pf_standard_element,
                                    induction.transform_pair, induction.pf_wigner_from_elements)
    return CheckResult(defect, tol, stab)


def composition_law_standard(seed: int, n_draws: int, tol: float) -> CheckResult:
    """The composition law of the pairless route, random (k, L1, L2); each
    moved k is validated, as `transform_pair` validates each moved pair."""
    rng = np.random.default_rng(seed)
    k = induction.photon_momenta(_null_momenta(rng, n_draws))
    a, b = _transforms(rng, n_draws), _transforms(rng, n_draws)
    defect, _ = _composition_law(k, a, b, induction.massless_standard_element,
                                 lambda k, L: induction.photon_momenta(apply(L, k)),
                                 induction.standard_wigner_from_elements)
    return CheckResult(defect, tol)


def stabiliser_residuals(earlier: Iterable[CheckResult], tol: float) -> CheckResult:
    """The largest stabiliser residual that earlier checks returned."""
    return CheckResult(max((r.stabiliser for r in earlier), default=math.inf), tol)


def standard_anchors(seed: int, n_draws: int, tol: float) -> CheckResult:
    """Pairless route: a boost along k gives 0, a rotation by d about k gives d."""
    rng = np.random.default_rng(seed)
    k = _null_momenta(rng, n_draws)
    v, d = rng.uniform(-0.99, 0.99, n_draws), rng.uniform(-math.pi, math.pi, n_draws)
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
    k = _null_momenta(rng, n_draws)
    axes = _directions(rng, n_draws)
    angles, v = rng.uniform(-math.pi, math.pi, n_draws), rng.uniform(-0.99, 0.99, n_draws)
    kh = unit_rows(k[:, 1:])
    rot = minkowski._rotation_stack(axes, angles)
    kboost = minkowski._boost_stack(four_velocity(kh * v[:, None]))
    choices = np.stack([rot, kboost, rot @ kboost])
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


def malus_monte_carlo(seed: int, draw_seed: int, n_settings: int, n_samples: int,
                      tol: float) -> CheckResult:
    """Random (theta, Theta) settings whose frequency misses cos^2 by more
    than four standard errors; one stream, seeded draw_seed, draws every
    setting's count in turn."""
    theta, big = np.random.default_rng(seed).uniform(0.0, math.pi, size=(n_settings, 2)).T
    p = polarisation.malus_probability(theta, big)
    freq = polarisation.monte_carlo_malus(p, n_samples, seed=draw_seed)
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


V_GRID = tuple(round(-0.99 + 0.03 * i, 10) for i in range(67))
THETA_GRID = (0.0, 1e-3, 0.1, 0.5)
CHI_GRID = tuple(i * math.pi / 6.0 for i in range(7))
DELTA_GRID = tuple(i * math.pi / 24.0 for i in range(1, 48))

# each check of `validate`, bound to the grids, seeds and tolerance it runs with
CHECKS = tuple((check.func.__name__, check) for check in (
    partial(boost_oracle_equivalence, V_GRID, THETA_GRID, CHI_GRID, 1e-9),
    partial(rotation_oracle_equivalence, DELTA_GRID, THETA_GRID, CHI_GRID, 1e-9),
    partial(composition_law_pair, 2024, 1000, 1e-9),
    partial(composition_law_standard, 2025, 1000, 1e-9),
    partial(stabiliser_residuals, tol=induction.STABILISER_TOL),
    partial(standard_anchors, 2026, 100, 1e-10),
    partial(reduction_zero_theta, 2027, 500, 1e-9),
    partial(approximation_order, (1e-2, 1e-3, 1e-4), DELTA_GRID,
            tuple(i * math.pi / 12.0 for i in range(13)), 0.1),
    partial(chi_extremum, tuple(v for v in V_GRID if v != 0.0), (1e-3, 0.1, 0.5),
            CHI_GRID, 1e-12),
    partial(malus_monte_carlo, 2028, 3000, 20, 1_000_000, 1.0),
))
