"""Acceptance suite: the verifiable contract of the package.

Each test is one numbered criterion; `pytest -v` therefore prints one
pass/fail line per criterion. Criteria 1 to 9 run the checks of
`pfwigner.checks`, the same code `validate` runs, but with the grids,
seeds, draw counts and tolerances stated inline rather than imported, so
this file stays an independent statement of the contract. Criterion 4
aggregates the stabiliser residuals the sweeps of criteria 1 to 3 return.
"""

import math
import time

import numpy as np
import pytest

from pfwigner import checks, monte_carlo_malus, polarisation
from pfwigner.cli import main as cli_main

V_GRID = tuple(round(-0.99 + 0.03 * i, 10) for i in range(67))
THETA_GRID = (0.0, 1e-3, 0.1, 0.5)
CHI_GRID = tuple(i * math.pi / 6.0 for i in range(7))
DELTA_GRID = tuple(i * math.pi / 24.0 for i in range(1, 48))


def report(name, value, tol, extra=""):
    print(f"criterion {name}: value={value:.3e} tol={tol:.3e} {extra}".rstrip())


def timed(check, *args):
    t0 = time.perf_counter()
    result = check(*args)
    return result, time.perf_counter() - t0


def test_criterion_01_boost_oracle_equivalence():
    """Closed-form boost phase equals the matrix construction on the
    full (V, theta, chi) grid within 1e-9, in under five seconds."""
    result, elapsed = timed(checks.boost_oracle_equivalence, V_GRID, THETA_GRID, CHI_GRID, 1e-9)
    report("01 boost oracle", result.value, 1e-9, f"elapsed={elapsed:.2f}s")
    assert result.value <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_rotation_oracle_equivalence():
    """Closed-form rotation phase magnitude equals the matrix angle on
    the (delta, theta, chi) grid within 1e-9, with a consistent sign,
    in under five seconds."""
    # a sign that disagrees makes the value inf
    result, elapsed = timed(checks.rotation_oracle_equivalence, DELTA_GRID, THETA_GRID,
                            CHI_GRID, 1e-9)
    report("02 rotation oracle", result.value, 1e-9, f"elapsed={elapsed:.2f}s")
    assert result.value <= 1e-9
    assert elapsed < 5.0


def test_criterion_03_composition_law():
    """Paired Wigner phases are additive under composition: 1000 random
    (k, u, L1, L2) draws with |V| <= 0.99, zero defects above 1e-9."""
    result = checks.composition_law_pair(101, 1000, 1e-9)
    report("03 composition law", result.value, 1e-9, "(worst defect)")
    assert result.value <= 1e-9


def test_criterion_04_stabiliser_residuals():
    """Every little-group element produced by criteria 1 to 3 fixes the
    standard pair within 1e-9."""
    sweeps = [checks.boost_oracle_equivalence(V_GRID, THETA_GRID, CHI_GRID, 1e-9),
              checks.rotation_oracle_equivalence(DELTA_GRID, THETA_GRID, CHI_GRID, 1e-9),
              checks.composition_law_pair(101, 1000, 1e-9)]
    result = checks.stabiliser_residuals(sweeps, 1e-9)
    report("04 stabiliser residuals", result.value, 1e-9)
    assert result.value <= 1e-9


def test_criterion_05_standard_anchors():
    """Frame-free construction: a boost along the photon gives zero
    phase and a rotation about it gives exactly the rotation angle,
    100 random draws each, within 1e-10."""
    result = checks.standard_anchors(102, 100, 1e-10)
    report("05 standard anchors", result.value, 1e-10)
    assert result.value <= 1e-10


def test_criterion_06_reduction_to_standard():
    """With the distinguished frame at rest the two phases agree. The
    comparison is made on the transform classes under which both
    section conventions describe the same internal rotation: rotations
    about any axis, boosts along the photon, and their compositions;
    500 draws, |difference| <= 1e-9."""
    result = checks.reduction_zero_theta(103, 500, 1e-9)
    report("06 reduction at rest", result.value, 1e-9)
    assert result.value <= 1e-9


def test_criterion_07_approximation_order():
    """The small-speed shift formula is second order: regressing the
    worst grid error against theta in {1e-2, 1e-3, 1e-4} on log-log
    axes gives slope 2 +/- 0.1."""
    chis = tuple(i * math.pi / 12.0 for i in range(13))
    result = checks.approximation_order((1e-2, 1e-3, 1e-4), DELTA_GRID, chis, 0.1)
    report("07 approximation order", result.value, 0.1, "(|slope - 2|)")
    assert result.value <= 0.1


def test_criterion_08_chi_behaviour():
    """The boost phase vanishes identically along the axis and, at any
    fixed speeds, |phase| peaks at chi = pi/2 on the pi/6 grid."""
    # inf if the phase on the axis is not exactly 0
    result = checks.chi_extremum(V_GRID, THETA_GRID, CHI_GRID, 1e-12)
    report("08 chi behaviour", result.value, 1e-12, "(argmax offset from pi/2)")
    assert result.value <= 1e-12


def test_criterion_09_malus_monte_carlo(monkeypatch):
    """Transmission frequencies from one million samples sit within
    four binomial standard errors of cos^2 in at least 19 of 20 random
    settings, and the seeded run is reproducible to the last bit."""
    freqs = []

    def recorded(p, n, seed):
        freq = monte_carlo_malus(p, n, seed)
        freqs.extend(freq.tolist())
        return freq

    monkeypatch.setattr(polarisation, "monte_carlo_malus", recorded)
    result = checks.malus_monte_carlo(104, 500, 20, 1_000_000, 1.0)
    first = freqs[:]
    checks.malus_monte_carlo(104, 500, 20, 1_000_000, 1.0)
    identical = [format(f, ".17g") for f in first] == [format(f, ".17g") for f in freqs[20:]]
    report("09 malus monte carlo", result.value, 1.0, f"reproducible={identical}")
    assert result.value <= 1.0
    assert len(first) == 20 and identical


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
    # the V -> 1 limit of the boost phase at chi = pi/2 is arcsin(theta)/2
    limit = 0.5 * math.asin(1.2336e-3)
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
