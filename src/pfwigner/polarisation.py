"""Malus transmission of a co-rotated polariser experiment, and its
statistics: every function takes (N,) arrays and returns (N,) arrays, and
a float is one row."""

from __future__ import annotations

import math
import operator

import numpy as np

from .induction import pf_wigner
from .minkowski import (
    LorentzTransform,
    PairStack,
    _check_rows,
    _checked_rows,
    _finite_test,
    _rotation_inputs,
    _rotation_stack,
    _trusted,
    in_blocks,
    math_rows,
    unit_rows,
)


def _cos_squared(name: str, x: np.ndarray) -> np.ndarray:
    """cos^2 of each entry of the (N,) array x, the argument `name` of the
    Malus law; an entry that is not finite, as where a difference of finite
    angles overflows, raises a RowValueError naming its row."""
    _check_rows([_finite_test(name, x)])
    # per row with math: numpy's a ** 2 is a * a but Python's float ** 2 is
    # libm pow, and the two differ in the last bit for some angles
    return math_rows(lambda a: math.cos(a) ** 2, x)


def malus_probability(theta, Theta) -> np.ndarray:
    """cos^2(Theta - theta) of each row of theta and Theta, (N,) arrays
    (floats among them shared); an angle that is not finite raises a
    RowValueError naming its row, and so does a difference of them that
    overflows."""
    theta, Theta = _checked_rows(lambda t, T: [_finite_test("theta", t), _finite_test("Theta", T)],
                                 theta, Theta)
    with np.errstate(over="ignore"):
        x = Theta - theta
    return _cos_squared("Theta - theta", x)


def monte_carlo_malus(p, n_samples: int, seed: int) -> np.ndarray:
    """Empirical pass fraction of n_samples seeded Bernoulli trials at
    each probability of the (N,) array p: the number of passes of row i is
    Binomial(n_samples, p[i]), and the call is exactly
    `np.random.default_rng(seed).binomial(n_samples, p) / n_samples`.

    One generator is seeded once per call and draws the rows in order, so
    row i's count depends on the seed and on rows 0..i, not on the rows
    after it: the first k rows of a call equal the call on p[:k]. The
    counts thus rest on numpy's default_rng seeding and its
    Generator.binomial stream. n_samples is an int of at least 1 (a float
    or a bool raises ValueError) that fits an int64, numpy's binomial count
    (2^63 raises numpy's OverflowError), seed an int of at least 0 (a
    negative one raises ValueError), and a p outside [0, 1] raises a
    RowValueError naming its row.
    """
    if isinstance(n_samples, (bool, np.bool_)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    (p,) = _checked_rows(lambda p: [((p >= 0.0) & (p <= 1.0),
                                     lambda i: f"p={float(p[i])!r} outside [0, 1]")], p)
    return np.random.default_rng(seed).binomial(n_samples, p) / n_samples


def anomalous_malus_curve(pair: PairStack, theta, Theta0, deltas) -> np.ndarray:
    """Predicted transmission when the polariser is rotated about the beam,
    one entry per row of theta, Theta0 and deltas.

    For each delta the polariser axis angle advances by delta while the
    state's polarisation angle advances by the pair Wigner angle of that
    rotation (matrix route, not the closed form), so the probability is
    cos^2(Theta0 + delta - theta - phi). With a zero frame velocity
    phi = delta exactly and the curve is the constant classical value.
    `pair` is a PairStack of one row; any other raises ValueError. The
    deltas go to `pf_wigner` STACK_BLOCK at a time, through `in_blocks`,
    which bounds the working arrays of the sweep; an error names the row
    of the deltas. theta, Theta0 and deltas are per-row fields, read
    together by `_checked_rows`: a float is shared by every row, and row
    counts other than 1 and N raise its ValueError. A theta or Theta0 that
    is not finite raises a RowValueError naming its row, and so does an
    argument of the cosine that overflows.

    The rotations about the photon are checked once, on input, by the
    input tests of `rotation_about` (a delta that is not finite raises
    `row i: angle=inf is not finite`, i its row of the deltas), and their
    kernel matrices go to `pf_wigner` unvalidated: the axis is the
    `unit_rows` direction of a validated photon, about 1e-16 from the
    sphere against UNIT_TOL = 1e-13, where each rotation passes
    `minkowski._matrix_tests` within 1e-2 of the tolerance, as
    tests/test_kernels.py checks over such axes and every finite angle.
    """
    if len(pair) != 1:
        raise ValueError(f"expected a pair of one row, got {len(pair)} rows")
    theta, Theta0, deltas = _checked_rows(
        lambda t, T, d: [_finite_test("theta", t), _finite_test("Theta0", T)],
        theta, Theta0, deltas)
    axis = unit_rows(pair.k[:, 1:])[0]

    def phases(rows: slice) -> np.ndarray:
        rotations = _rotation_stack(*_rotation_inputs(axis, deltas[rows]))
        return pf_wigner(pair, _trusted(LorentzTransform, m=rotations)).phi

    phi = in_blocks(len(deltas), phases)
    with np.errstate(over="ignore"):
        x = Theta0 + deltas - theta - phi
    return _cos_squared("Theta0 + delta - theta - phi", x)
