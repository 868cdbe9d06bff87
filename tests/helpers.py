"""Shared random generators for the test suite.

All generators take an explicit numpy Generator so every test that uses
them is seeded and reproducible.
"""

import math

import numpy as np

from pfwigner import (
    PairStack,
    boost_from_velocity,
    compose,
    four_velocity,
    rotation_about,
)


def random_direction(rng):
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def random_null(rng, e_min=0.2, e_max=5.0):
    """A (1,4) row: a null momentum of energy in [e_min, e_max)."""
    e = rng.uniform(e_min, e_max)
    return np.concatenate(([e], e * random_direction(rng)))[None]


def random_pair(rng, n=1, v_max=0.99):
    """A PairStack of n rows, each drawn in turn: a null momentum as
    `random_null` draws it, then a frame velocity of speed below v_max."""
    rows = [(random_null(rng), four_velocity(random_direction(rng) * rng.uniform(0.0, v_max)))
            for _ in range(n)]
    return PairStack(np.concatenate([k for k, _ in rows]), np.concatenate([u for _, u in rows]))


def random_rotation(rng):
    return rotation_about(random_direction(rng), rng.uniform(-math.pi, math.pi))


def random_boost(rng, v_max=0.99):
    return boost_from_velocity(random_direction(rng) * rng.uniform(0.0, v_max))


def random_transform(rng, v_max=0.99):
    """A generic proper orthochronous element: boost times rotation."""
    return compose(random_boost(rng, v_max), random_rotation(rng))


def photon_direction(k):
    """The unit (3,) direction of the momentum row k, of shape (1,4)."""
    return k[0, 1:] / np.linalg.norm(k[0, 1:])


def null_translation(a, b):
    """The (1,4,4) array of the null translation T(a, b): the part of an
    E(2) element that is not a rotation, which fixes (1, 0, 0, 1) and
    shifts e_x and e_y by a and b times it."""
    z = 0.5 * (a * a + b * b)
    return np.array([[[1.0 + z, a, b, -z],
                      [a, 1.0, 0.0, -a],
                      [b, 0.0, 1.0, -b],
                      [z, a, b, 1.0 - z]]])


def random_aligned_transform(rng, k):
    """Rotation about any axis, boost along the photon, or their product.

    These are the classes under which the two little-group constructions
    share a convention, so their phases are directly comparable.
    """
    kh = photon_direction(k)
    rot = random_rotation(rng)
    kboost = boost_from_velocity(kh * rng.uniform(-0.99, 0.99))
    return (rot, kboost, compose(rot, kboost))[int(rng.integers(3))]
