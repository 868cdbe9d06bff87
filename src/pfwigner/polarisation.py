"""Malus transmission of a co-rotated polariser experiment, and its
statistics: every function takes (N,) arrays and returns (N,) arrays, and
a float is one row."""

from __future__ import annotations

import math

import numpy as np

from .induction import pf_wigner
from .minkowski import (PairStack, _check_rows, math_rows, rotation_about, row_blocks, rows_from,
                        unit_rows)


def _cos_squared(x) -> np.ndarray:
    # per row with math: numpy's a ** 2 is a * a but Python's float ** 2 is
    # libm pow, and the two differ in the last bit for some angles
    return math_rows(lambda a: math.cos(a) ** 2, np.asarray(x, dtype=float).reshape(-1))


def malus_probability(theta, Theta) -> np.ndarray:
    """cos^2(Theta - theta) of each row of theta and Theta, (N,) arrays
    (floats among them shared)."""
    return _cos_squared(np.subtract(Theta, theta, dtype=float))


def monte_carlo_malus(p, n_samples: int, seed: int) -> np.ndarray:
    """Empirical pass fraction of n_samples seeded Bernoulli trials at
    each probability of the (N,) array p: the number of passes of row i is
    Binomial(n_samples, p[i]), drawn at once from the generator seeded with
    seed + i."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    p = np.asarray(p, dtype=float).reshape(-1)
    _check_rows([((p >= 0.0) & (p <= 1.0), lambda i: f"p={float(p[i])!r} outside [0, 1]")])
    return np.array([np.random.default_rng(seed + i).binomial(n_samples, q)
                     for i, q in enumerate(p.tolist())], dtype=float) / n_samples


def anomalous_malus_curve(pair: PairStack, theta: float, Theta0: float, deltas) -> np.ndarray:
    """Predicted transmission when the polariser is rotated about the beam,
    one entry per delta of the (N,) array deltas.

    For each delta the polariser axis angle advances by delta while the
    state's polarisation angle advances by the pair Wigner angle of that
    rotation (matrix route, not the closed form), so the probability is
    cos^2(Theta0 + delta - theta - phi). With a zero frame velocity
    phi = delta exactly and the curve is the constant classical value.
    `pair` is a PairStack of one row; any other raises ValueError. The
    deltas go to `pf_wigner`, which runs the rows it is given at once,
    STACK_BLOCK at a time: this loop bounds the working arrays of the
    sweep.
    """
    if len(pair) != 1:
        raise ValueError(f"expected a pair of one row, got {len(pair)} rows")
    axis = unit_rows(pair.k[:, 1:])[0]
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    phi = np.empty(len(deltas))
    for block in row_blocks(len(deltas)):
        with rows_from(block.start):
            phi[block] = pf_wigner(pair, rotation_about(axis, deltas[block])).phi
    return _cos_squared(Theta0 + deltas - theta - phi)
