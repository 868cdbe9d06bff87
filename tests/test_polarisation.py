import math

import numpy as np
import pytest

from pfwigner import (
    anomalous_malus_curve,
    bench_pair,
    malus_probability,
    monte_carlo_malus,
)

TH_CMB = 1.2336e-3


# --- transmission statistics --------------------------------------------------------


@pytest.mark.parametrize(
    "theta,Theta,p",
    [(0.0, 0.0, 1.0), (0.0, 0.5 * math.pi, 0.0), (0.0, 0.25 * math.pi, 0.5)],
)
def test_malus_probability_values(theta, Theta, p):
    assert malus_probability(theta, Theta) == pytest.approx(p, abs=1e-15)


def test_monte_carlo_degenerate_probabilities():
    assert monte_carlo_malus(malus_probability(0.0, 0.0), 1000, seed=1) == 1.0
    assert monte_carlo_malus(malus_probability(0.0, 0.5 * math.pi), 1000, seed=1) == 0.0


def test_monte_carlo_matches_probability():
    n = 1_000_000
    p = malus_probability(0.0, 0.25 * math.pi)
    freq = monte_carlo_malus(p, n, seed=99)
    assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_monte_carlo_is_deterministic():
    p = malus_probability(0.3, 1.1)
    a = monte_carlo_malus(p, 100_000, seed=42)
    b = monte_carlo_malus(p, 100_000, seed=42)
    assert a == b


def test_monte_carlo_rejects_empty_sample():
    with pytest.raises(ValueError):
        monte_carlo_malus(1.0, 0, seed=1)


# --- the co-rotation experiment -------------------------------------------------------


def test_curve_is_classical_when_frame_is_at_rest():
    kin = bench_pair(0.0, 0.5 * math.pi)
    theta, Theta0 = 0.2, 0.9
    curve = anomalous_malus_curve(kin, theta, Theta0, np.linspace(0.0, math.tau, 25))
    expected = malus_probability(theta, Theta0)
    for _, p in curve:
        assert p == pytest.approx(expected, abs=1e-12)


def test_crossed_polariser_leakage_frozen_value():
    # co-rotating a crossed polariser by a quarter turn leaks intensity
    # sin^2 of the phase mismatch instead of staying dark
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    theta = 0.3
    curve = anomalous_malus_curve(kin, theta, theta + 0.5 * math.pi, [0.5 * math.pi])
    delta, p = curve[0]
    assert delta == 0.5 * math.pi
    assert p == pytest.approx(1.5217689599999526e-06, rel=1e-9)


def test_curve_leakage_follows_second_order_law():
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    theta = 0.0
    deltas = np.linspace(0.0, math.tau, 13)
    curve = anomalous_malus_curve(kin, theta, theta + 0.5 * math.pi, deltas)
    for d, p in curve:
        # the mismatch itself is only accurate to O(theta_pf^2), which
        # propagates to ~4e-9 in the transmitted probability
        mismatch = TH_CMB * (1.0 - math.cos(d))
        assert p == pytest.approx(math.sin(mismatch) ** 2, abs=1e-8)
