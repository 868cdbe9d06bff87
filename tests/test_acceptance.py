"""Acceptance suite: the verifiable contract of the package.

Each test is one numbered criterion; `pytest -v` therefore prints one
pass/fail line per criterion. Tolerances and grids are stated inline
rather than imported so this file stays an independent statement of
the contract. The first three criteria share their sweep results
through cached helpers; criterion 4 aggregates the stabiliser
residuals those sweeps produced.
"""

import functools
import math
import time

import numpy as np
import pytest

from pfwigner import (
    BoostScenario,
    FourVector,
    FrameVelocity,
    PhotonKinematics,
    RotationScenario,
    bench_pair,
    boost_from_velocity,
    boost_phase,
    boost_phase_asymptote,
    compose,
    monte_carlo_malus,
    malus_probability,
    pf_wigner,
    phase_difference,
    rotation_about,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
    standard_wigner,
    transform_pair,
    wrap_angle,
)
from pfwigner.cli import main as cli_main

from helpers import (
    photon_direction,
    random_aligned_transform,
    random_null,
    random_pair,
    random_transform,
)

Z = np.array([0.0, 0.0, 1.0])
V_GRID = [round(-0.99 + 0.03 * i, 10) for i in range(67)]
THETA_GRID = (0.0, 1e-3, 0.1, 0.5)
CHI_GRID = tuple(i * math.pi / 6.0 for i in range(7))
DELTA_GRID = tuple(i * math.pi / 24.0 for i in range(1, 48))


def report(name, value, tol, extra=""):
    print(f"criterion {name}: value={value:.3e} tol={tol:.3e} {extra}".rstrip())


@functools.lru_cache(maxsize=None)
def boost_sweep():
    """Both phase routes over the full boost grid; returns the worst
    disagreement, the worst stabiliser residual, and the elapsed time."""
    worst = stab = 0.0
    t0 = time.perf_counter()
    for v in V_GRID:
        L = boost_from_velocity([0.0, 0.0, v])
        for th in THETA_GRID:
            for chi in CHI_GRID:
                w = pf_wigner(bench_pair(th, chi), L)
                want = boost_phase(BoostScenario(v, th, chi))
                worst = max(worst, abs(w.phi - want))
                stab = max(stab, w.stabiliser)
    return worst, stab, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def rotation_sweep():
    worst = stab = 0.0
    signs_match = True
    t0 = time.perf_counter()
    for d in DELTA_GRID:
        L = rotation_about(Z, d)
        for th in THETA_GRID:
            for chi in CHI_GRID:
                w = pf_wigner(bench_pair(th, chi), L)
                want = wrap_angle(rotation_phase(RotationScenario(d, th, chi)))
                worst = max(worst, abs(abs(w.phi) - abs(want)))
                if abs(want) > 1e-12 and w.phi * want < 0.0:
                    signs_match = False
                stab = max(stab, w.stabiliser)
    return worst, stab, signs_match, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def composition_sweep():
    rng = np.random.default_rng(101)
    failures = 0
    worst = stab = 0.0
    for _ in range(1000):
        kin = random_pair(rng)
        l1, l2 = random_transform(rng), random_transform(rng)
        w1 = pf_wigner(kin, l1)
        w2 = pf_wigner(transform_pair(kin, l1), l2)
        w12 = pf_wigner(kin, compose(l2, l1))
        defect = abs(wrap_angle(w12.phi - w1.phi - w2.phi))
        worst = max(worst, defect)
        if defect > 1e-9:
            failures += 1
        stab = max(stab, w1.stabiliser, w2.stabiliser, w12.stabiliser)
    return worst, failures, stab


def test_criterion_01_boost_oracle_equivalence():
    """Closed-form boost phase equals the matrix construction on the
    full (V, theta, chi) grid within 1e-9, in under five seconds."""
    worst, _, elapsed = boost_sweep()
    report("01 boost oracle", worst, 1e-9, f"elapsed={elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_rotation_oracle_equivalence():
    """Closed-form rotation phase magnitude equals the matrix angle on
    the (delta, theta, chi) grid within 1e-9, with a consistent sign,
    in under five seconds."""
    worst, _, signs_match, elapsed = rotation_sweep()
    report("02 rotation oracle", worst, 1e-9, f"elapsed={elapsed:.2f}s")
    assert worst <= 1e-9
    assert signs_match
    assert elapsed < 5.0


def test_criterion_03_composition_law():
    """Paired Wigner phases are additive under composition: 1000 random
    (k, u, L1, L2) draws with |V| <= 0.99, zero defects above 1e-9."""
    worst, failures, _ = composition_sweep()
    report("03 composition law", worst, 1e-9, f"failures={failures}")
    assert failures == 0
    assert worst <= 1e-9


def test_criterion_04_stabiliser_residuals():
    """Every little-group element produced by criteria 1 to 3 fixes the
    standard pair within 1e-9."""
    worst = max(boost_sweep()[1], rotation_sweep()[1], composition_sweep()[2])
    report("04 stabiliser residuals", worst, 1e-9)
    assert worst <= 1e-9


def test_criterion_05_standard_anchors():
    """Frame-free construction: a boost along the photon gives zero
    phase and a rotation about it gives exactly the rotation angle,
    100 random draws each, within 1e-10."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        k = random_null(rng)
        kh = photon_direction(k)
        boost = boost_from_velocity(kh * rng.uniform(-0.99, 0.99))
        worst = max(worst, abs(standard_wigner(k, boost).phi))
        d = rng.uniform(-math.pi, math.pi)
        rot = rotation_about(kh, d)
        worst = max(worst, abs(wrap_angle(standard_wigner(k, rot).phi - d)))
    report("05 standard anchors", worst, 1e-10)
    assert worst <= 1e-10


def test_criterion_06_reduction_to_standard():
    """With the distinguished frame at rest the two phases agree. The
    comparison is made on the transform classes under which both
    section conventions describe the same internal rotation: rotations
    about any axis, boosts along the photon, and their compositions;
    500 draws, |difference| <= 1e-9."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        k = random_null(rng)
        kin = PhotonKinematics(k, FrameVelocity.rest())
        worst = max(worst, abs(phase_difference(kin, random_aligned_transform(rng, k))))
    report("06 reduction at rest", worst, 1e-9)
    assert worst <= 1e-9


def test_criterion_07_approximation_order():
    """The small-speed shift formula is second order: regressing the
    worst grid error against theta in {1e-2, 1e-3, 1e-4} on log-log
    axes gives slope 2 +/- 0.1."""
    thetas = (1e-2, 1e-3, 1e-4)
    errs = []
    for th in thetas:
        worst = 0.0
        for d in DELTA_GRID:
            for chi in (i * math.pi / 12.0 for i in range(13)):
                s = RotationScenario(d, th, chi)
                worst = max(worst, abs(abs(rotation_phase_shift(s)) - rotation_shift_approx(s)))
        errs.append(worst)
    slope = float(np.polyfit(np.log(thetas), np.log(errs), 1)[0])
    report("07 approximation order", slope, 2.1, "(slope, want 2 +/- 0.1)")
    assert slope == pytest.approx(2.0, abs=0.1)


def test_criterion_08_chi_behaviour():
    """The boost phase vanishes identically along the axis and, at any
    fixed speeds, |phase| peaks at chi = pi/2 on the pi/6 grid."""
    for v in V_GRID:
        for th in THETA_GRID:
            assert boost_phase(BoostScenario(v, th, 0.0)) == 0.0
    worst = 0.0
    for v in V_GRID:
        if v == 0.0:
            continue
        for th in (1e-3, 0.1, 0.5):
            mags = [abs(boost_phase(BoostScenario(v, th, chi))) for chi in CHI_GRID]
            worst = max(worst, abs(CHI_GRID[int(np.argmax(mags))] - 0.5 * math.pi))
    report("08 chi behaviour", worst, 1e-12, "(argmax offset from pi/2)")
    assert worst <= 1e-12


def test_criterion_09_malus_monte_carlo():
    """Transmission frequencies from one million samples sit within
    four binomial standard errors of cos^2 in at least 19 of 20 random
    settings, and the seeded run is reproducible to the last bit."""
    rng = np.random.default_rng(104)
    settings = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)) for _ in range(20)]
    n = 1_000_000
    hits = 0
    freqs = []
    for i, (theta, big) in enumerate(settings):
        p = malus_probability(theta, big)
        freq = monte_carlo_malus(p, n, seed=500 + i)
        freqs.append(freq)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        if abs(freq - p) <= 4.0 * sigma:
            hits += 1
    again = [monte_carlo_malus(malus_probability(th, big), n, seed=500 + i)
             for i, (th, big) in enumerate(settings)]
    identical = all(format(a, ".17g") == format(b, ".17g") for a, b in zip(freqs, again))
    report("09 malus monte carlo", float(20 - hits), 1.0, f"reproducible={identical}")
    assert hits >= 19
    assert identical


def test_criterion_10_boost_curve_regeneration(tmp_path):
    """The default boost sweep is odd in V, monotone on [0, 0.99], and
    reaches within 2% of the analytic ultrarelativistic limit."""
    out = tmp_path / "boost.csv"
    assert cli_main(["boost-scan", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    vs = np.array([float(r[0]) for r in rows])
    phi = np.array([float(r[1]) for r in rows])
    n = len(rows)
    assert n == 607 and vs[0] == -0.9999 and vs[-1] == 0.9999

    odd_defect = max(abs(phi[i] + phi[n - 1 - i]) for i in range(n))
    body = phi[(vs >= 0.0) & (vs <= 0.99)]
    monotone = bool(np.all(np.diff(body) >= 0.0))
    limit = boost_phase_asymptote(1.2336e-3, 0.5 * math.pi)
    end_gap = abs(phi[-1] - limit) / limit
    report("10 boost curve", end_gap, 0.02,
           f"odd_defect={odd_defect:.2e} monotone={monotone}")
    assert odd_defect < 1e-12
    assert monotone
    assert end_gap <= 0.02


def test_criterion_11_rotation_grid_regeneration(tmp_path):
    """The default rotation sweep vanishes on the chi = 0 and delta = 0
    boundaries and peaks at (pi, pi/2) with magnitude 2 theta within 2%."""
    out = tmp_path / "rotation.csv"
    assert cli_main(["rotation-scan", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    table = [(float(r[0]), float(r[1]), float(r[3])) for r in rows]

    boundary = max(abs(dphi) for d, chi, dphi in table if chi == 0.0 or d == 0.0)
    d_max, chi_max, peak = max(table, key=lambda row: abs(row[2]))
    th = 1.2336e-3
    peak_gap = abs(abs(peak) - 2.0 * th) / (2.0 * th)
    report("11 rotation grid", peak_gap, 0.02,
           f"boundary={boundary:.2e} argmax=({d_max:.4f},{chi_max:.4f})")
    assert boundary < 1e-12
    assert d_max == pytest.approx(math.pi, abs=1e-12)
    assert chi_max == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert peak_gap <= 0.02
