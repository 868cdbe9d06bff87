import math

import numpy as np
import pytest

from pfwigner import (
    PairStack,
    anomalous_malus_curve,
    bench_pair,
    four_velocity,
    malus_probability,
    monte_carlo_malus,
)
from pfwigner.minkowski import RowValueError

TH_CMB = 1.2336e-3


# --- transmission statistics --------------------------------------------------------


@pytest.mark.parametrize(
    "theta,Theta,p",
    [(0.0, 0.0, 1.0), (0.0, 0.5 * math.pi, 0.0), (0.0, 0.25 * math.pi, 0.5)],
)
def test_malus_probability_values(theta, Theta, p):
    assert malus_probability(theta, Theta).tolist() == pytest.approx([p], abs=1e-15)


def test_monte_carlo_degenerate_probabilities():
    assert monte_carlo_malus(malus_probability(0.0, 0.0), 1000, seed=1).tolist() == [1.0]
    assert monte_carlo_malus(malus_probability(0.0, 0.5 * math.pi), 1000, seed=1).tolist() == [0.0]


def test_monte_carlo_matches_probability():
    n = 1_000_000
    p = malus_probability(0.0, 0.25 * math.pi)[0]
    freq = monte_carlo_malus(p, n, seed=99)[0]
    assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_monte_carlo_is_deterministic():
    p = malus_probability(0.3, 1.1)
    a = monte_carlo_malus(p, 100_000, seed=42)
    b = monte_carlo_malus(p, 100_000, seed=42)
    assert a.tolist() == b.tolist()


# seeds of the distribution test, and its bound on each of its two z-scores:
# Binomial(n, p) counts would fail it with probability about 1e-6
DIST_SEEDS = range(2000)
DIST_Z = 5.0


@pytest.mark.parametrize("n", [1000, 196_625])
def test_monte_carlo_counts_are_binomial(n):
    p = malus_probability(0.3, 1.1)[0]
    # row i of one call is seeded DIST_SEEDS.start + i
    freqs = monte_carlo_malus(np.full(len(DIST_SEEDS), p), n, seed=DIST_SEEDS.start)
    counts = np.rint(freqs * n)
    assert np.all(counts / n == freqs)
    assert counts.min() >= 0 and counts.max() <= n
    # the sample mean and variance of the counts against n p and n p (1 - p),
    # each with its standard error over len(DIST_SEEDS) draws; the variance's
    # includes the binomial excess kurtosis (1 - 6 p q) / (n p q)
    m, q = len(DIST_SEEDS), 1.0 - p
    var = n * p * q
    kurt = (1.0 - 6.0 * p * q) / var
    assert abs(counts.mean() - n * p) <= DIST_Z * math.sqrt(var / m)
    assert abs(counts.var(ddof=1) - var) <= DIST_Z * var * math.sqrt(2.0 / (m - 1) + kurt / m)


def test_monte_carlo_rejects_empty_sample():
    with pytest.raises(ValueError):
        monte_carlo_malus(1.0, 0, seed=1)


@pytest.mark.parametrize("p", [math.nan, -1e-3, 1.0 + 1e-12])
def test_monte_carlo_rejects_probability_outside_unit_interval(p):
    with pytest.raises(RowValueError, match=r"^row 0: p=.* outside \[0, 1\]$"):
        monte_carlo_malus(p, 1000, seed=1)
    with pytest.raises(RowValueError, match=rf"^row 2: p={p!r} outside \[0, 1\]$"):
        monte_carlo_malus([0.0, 1.0, p, 0.5], 1000, seed=1)


# --- the co-rotation experiment -------------------------------------------------------


def test_curve_is_classical_when_frame_is_at_rest():
    kin = bench_pair(0.0, 0.5 * math.pi)
    theta, Theta0 = 0.2, 0.9
    curve = anomalous_malus_curve(kin, theta, Theta0, np.linspace(0.0, math.tau, 25))
    expected = malus_probability(theta, Theta0)[0]
    assert curve.shape == (25,)
    for p in curve.tolist():
        assert p == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("deltas", [[0.5, 0.7], [0.5, 0.7, 0.9]])
def test_curve_rejects_a_pair_of_more_than_one_row(deltas):
    # every delta would rotate about row 0's photon, and as many deltas as
    # rows would pair off with them
    one = bench_pair(0.3, 1.1)
    other = PairStack([[1.0, 1.0, 0.0, 0.0]], four_velocity((0.1, 0.2, 0.3)))
    two = PairStack(np.concatenate([one.k, other.k]), np.concatenate([one.u, other.u]))
    with pytest.raises(ValueError, match=r"^expected a pair of one row, got 2 rows$"):
        anomalous_malus_curve(two, 0.2, 1.3, deltas)


def test_crossed_polariser_leakage_frozen_value():
    # co-rotating a crossed polariser by a quarter turn leaks intensity
    # sin^2 of the phase mismatch instead of staying dark
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    theta = 0.3
    curve = anomalous_malus_curve(kin, theta, theta + 0.5 * math.pi, [0.5 * math.pi])
    assert curve.shape == (1,)
    assert curve[0] == pytest.approx(1.5217689599999526e-06, rel=1e-9)


def test_curve_leakage_follows_second_order_law():
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    theta = 0.0
    deltas = np.linspace(0.0, math.tau, 13)
    curve = anomalous_malus_curve(kin, theta, theta + 0.5 * math.pi, deltas)
    for d, p in zip(deltas.tolist(), curve.tolist()):
        # the mismatch itself is only accurate to O(theta_pf^2), which
        # propagates to ~4e-9 in the transmitted probability
        mismatch = TH_CMB * (1.0 - math.cos(d))
        assert p == pytest.approx(math.sin(mismatch) ** 2, abs=1e-8)
