import math
import re

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
from pfwigner.minkowski import STACK_BLOCK, RowValueError

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


# rows of the distribution test, and its bound on each of its two z-scores:
# Binomial(n, p) counts would fail it with probability about 1e-6
DIST_ROWS = 2000
DIST_Z = 5.0


@pytest.mark.parametrize("n", [1000, 196_625])
def test_monte_carlo_counts_are_binomial(n):
    p = malus_probability(0.3, 1.1)[0]
    freqs = monte_carlo_malus(np.full(DIST_ROWS, p), n, seed=0)
    counts = np.rint(freqs * n)
    assert np.all(counts / n == freqs)
    assert counts.min() >= 0 and counts.max() <= n
    # the sample mean and variance of the counts against n p and n p (1 - p),
    # each with its standard error over DIST_ROWS draws; the variance's
    # includes the binomial excess kurtosis (1 - 6 p q) / (n p q)
    m, q = DIST_ROWS, 1.0 - p
    var = n * p * q
    kurt = (1.0 - 6.0 * p * q) / var
    assert abs(counts.mean() - n * p) <= DIST_Z * math.sqrt(var / m)
    assert abs(counts.var(ddof=1) - var) <= DIST_Z * var * math.sqrt(2.0 / (m - 1) + kurt / m)


def test_monte_carlo_rejects_empty_sample():
    with pytest.raises(ValueError, match=r"^n_samples must be >= 1$"):
        monte_carlo_malus(1.0, 0, seed=1)


@pytest.mark.parametrize("n", [10.5, 10.0, np.float64(10.0), True, "10", None])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_integer(n):
    # binomial would draw from int(n) trials and the count be divided by n
    with pytest.raises(ValueError, match=r"^n_samples must be an integer, got "):
        monte_carlo_malus(0.5, n, seed=1)


def test_monte_carlo_takes_a_numpy_integer_sample_count():
    assert monte_carlo_malus(0.3, np.int64(1000), seed=5).tolist() == \
        monte_carlo_malus(0.3, 1000, seed=5).tolist()


# --- the draw, pinned to numpy's ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 10**6, 2**63 - 1])
@pytest.mark.parametrize("seed", [0, 42, 2**32 - 20, 2**128 - 20, 2**130])
def test_monte_carlo_is_the_per_row_default_rng_draw(n, seed):
    # every row is drawn, in order, from the one generator default_rng(seed)
    p = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 37), [0.5, 1e-9, 1.0 - 1e-9]])
    want = np.random.default_rng(seed).binomial(n, p) / n
    assert monte_carlo_malus(p, n, seed).tolist() == want.tolist()


def test_monte_carlo_of_a_sample_count_past_int64_raises_numpy_s_overflow():
    # numpy's binomial count is an int64
    with pytest.raises(OverflowError):
        monte_carlo_malus(0.5, 2**63, 1)


def test_monte_carlo_rows_past_one_block_are_a_prefix():
    # one stream for the whole call: the rows of the first block and past
    # it are those of the shorter calls, whatever rows follow them
    p = np.linspace(0.0, 1.0, STACK_BLOCK + 3)
    seed = 2**32 - STACK_BLOCK
    whole = monte_carlo_malus(p, 1000, seed).tolist()
    for k in (1, STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1, STACK_BLOCK + 2):
        assert monte_carlo_malus(p[:k], 1000, seed).tolist() == whole[:k], k


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_monte_carlo_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match=r"^seed must be >= 0"):
        monte_carlo_malus([0.5, 0.5], 1000, seed)


@pytest.mark.parametrize("p", [math.nan, -1e-3, 1.0 + 1e-12])
def test_monte_carlo_rejects_probability_outside_unit_interval(p):
    with pytest.raises(RowValueError, match=r"^row 0: p=.* outside \[0, 1\]$"):
        monte_carlo_malus(p, 1000, seed=1)
    with pytest.raises(RowValueError, match=rf"^row 2: p={p!r} outside \[0, 1\]$"):
        monte_carlo_malus([0.0, 1.0, p, 0.5], 1000, seed=1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call,row", [
    (lambda x: malus_probability(np.array([0.0, x]), 0.0), "row 1: theta"),
    (lambda x: malus_probability(0.0, [0.1, 0.2, x]), "row 2: Theta"),
    (lambda x: anomalous_malus_curve(bench_pair(0.1, 0.5), x, 0.3, [0.1]), "row 0: theta"),
    (lambda x: anomalous_malus_curve(bench_pair(0.1, 0.5), 0.3, x, [0.1]), "row 0: Theta0"),
], ids=["probability-theta", "probability-Theta", "curve-theta", "curve-Theta0"])
def test_an_angle_that_is_not_finite_names_its_row(call, row, bad):
    # cos of an infinite angle was a bare 'math domain error'
    with pytest.raises(RowValueError, match=rf"^{row}={bad!r} is not finite$"):
        call(bad)


def _deltas_with(n, row, bad):
    deltas = np.linspace(0.0, 1.0, n)
    deltas[row] = bad
    return deltas


@pytest.mark.parametrize("deltas,row", [
    ([0.1, 0.2, math.inf], 2),
    (_deltas_with(STACK_BLOCK + 5, STACK_BLOCK + 3, math.inf), STACK_BLOCK + 3),
    (_deltas_with(2 * STACK_BLOCK + 1, STACK_BLOCK, -math.inf), STACK_BLOCK),
], ids=["one-block", "past-a-block", "first-of-a-block"])
def test_a_delta_that_is_not_finite_names_its_row_of_the_sweep(deltas, row):
    # the input test of the curve's rotations, that of rotation_about
    bad = np.asarray(deltas)[row].item()
    with pytest.raises(RowValueError, match=rf"^row {row}: angle={bad!r} is not finite$"):
        anomalous_malus_curve(bench_pair(0.1, 0.5), 0.2, 1.3, deltas)
    # theta and Theta0 are tested first, over every row
    theta = np.full(len(deltas), 0.2)
    theta[1] = math.nan
    with pytest.raises(RowValueError, match=r"^row 1: theta=nan is not finite$"):
        anomalous_malus_curve(bench_pair(0.1, 0.5), theta, 1.3, deltas)


@pytest.mark.parametrize("call,message", [
    (lambda: malus_probability([0.0, -1e308], [0.1, 1e308]), "row 1: Theta - theta=inf"),
    (lambda: anomalous_malus_curve(bench_pair(0.1, 0.5), 1e308, -1e308, [0.1, 0.2]),
     "row 0: Theta0 + delta - theta - phi=-inf"),
], ids=["probability", "curve"])
def test_an_argument_that_overflows_names_its_row(call, message):
    # finite angles pass the input tests, but their difference overflows:
    # the cosine's argument itself is tested, with no overflow warning
    with pytest.raises(RowValueError, match=rf"^{re.escape(message)} is not finite$"):
        call()


# --- the co-rotation experiment -------------------------------------------------------


def test_curve_is_classical_when_frame_is_at_rest():
    kin = bench_pair(0.0, 0.5 * math.pi)
    theta, Theta0 = 0.2, 0.9
    curve = anomalous_malus_curve(kin, theta, Theta0, np.linspace(0.0, math.tau, 25))
    expected = malus_probability(theta, Theta0)[0]
    assert curve.shape == (25,)
    for p in curve.tolist():
        assert p == pytest.approx(expected, abs=1e-12)


def test_curve_of_no_deltas_is_empty():
    assert anomalous_malus_curve(bench_pair(0.3, 1.0), 0.2, 1.3, np.array([])).shape == (0,)


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
