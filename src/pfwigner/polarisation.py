"""Malus transmission of a co-rotated polariser experiment, and its statistics."""

from __future__ import annotations

import math

import numpy as np

from .induction import pf_wigner
from .minkowski import PhotonKinematics, rotation_about, row_blocks, rows_from

# uniform draws made and counted at a time, which bounds the memory of a draw
MC_BLOCK = 1 << 16


def malus_probability(theta: float, Theta: float) -> float:
    return math.cos(Theta - theta) ** 2


def monte_carlo_malus(p: float, n_samples: int, seed: int) -> float:
    """Empirical pass fraction of n_samples seeded Bernoulli trials at probability p."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, n_samples, MC_BLOCK):
        hits += int(np.count_nonzero(rng.random(min(MC_BLOCK, n_samples - start)) < p))
    return hits / n_samples


def anomalous_malus_curve(kin: PhotonKinematics, theta: float, Theta0: float,
                          deltas) -> list[tuple[float, float]]:
    """Predicted transmission when the polariser is rotated about the beam.

    For each delta the polariser axis angle advances by delta while the
    state's polarisation angle advances by the pair Wigner angle of that
    rotation (matrix route, not the closed form), so the probability is
    cos^2(Theta0 + delta - theta - phi). With a zero frame velocity
    phi = delta exactly and the curve is the constant classical value.
    """
    ks = kin.k.spatial
    axis = ks / np.linalg.norm(ks)
    deltas = [float(d) for d in deltas]
    out = []
    for block in row_blocks(len(deltas)):
        with rows_from(block.start):
            phi = pf_wigner(kin, rotation_about(axis, np.array(deltas[block]))).phi
        out.extend((d, math.cos(Theta0 + d - theta - p) ** 2)
                   for d, p in zip(deltas[block], phi.tolist()))
    return out
