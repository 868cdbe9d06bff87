"""Malus transmission of a co-rotated polariser experiment, and its statistics."""

from __future__ import annotations

import math

import numpy as np

from .induction import pf_wigner
from .minkowski import PairStack, rotation_about, row_blocks, rows_from, unit_rows


def malus_probability(theta: float, Theta: float) -> float:
    return math.cos(Theta - theta) ** 2


def monte_carlo_malus(p: float, n_samples: int, seed: int) -> float:
    """Empirical pass fraction of n_samples seeded Bernoulli trials at
    probability p: their number of passes is Binomial(n_samples, p), drawn
    at once from the generator seeded with `seed`."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    return int(np.random.default_rng(seed).binomial(n_samples, p)) / n_samples


def anomalous_malus_curve(pair: PairStack, theta: float, Theta0: float,
                          deltas) -> list[tuple[float, float]]:
    """Predicted transmission when the polariser is rotated about the beam.

    For each delta the polariser axis angle advances by delta while the
    state's polarisation angle advances by the pair Wigner angle of that
    rotation (matrix route, not the closed form), so the probability is
    cos^2(Theta0 + delta - theta - phi). With a zero frame velocity
    phi = delta exactly and the curve is the constant classical value.
    `pair` is a PairStack of one row.
    """
    axis = unit_rows(pair.k[:, 1:])[0]
    deltas = [float(d) for d in deltas]
    out = []
    for block in row_blocks(len(deltas)):
        with rows_from(block.start):
            phi = pf_wigner(pair, rotation_about(axis, np.array(deltas[block]))).phi
        out.extend((d, math.cos(Theta0 + d - theta - p) ** 2)
                   for d, p in zip(deltas[block], phi.tolist()))
    return out
