"""Stacked calls against their single calls, bit for bit.

Every stacked row must equal the call made with that row alone: the
stacked code is the single code run over N rows, not an approximation
of it. The drawn pairs cover each branch of the construction: a frame at
rest, a frame velocity parallel and antiparallel to the photon, a photon
along -z (the tie-break of `rotation_z_to`) and two pairs that differ
only in the sign of a zero.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import (
    FourVector,
    IDENTITY,
    FrameVelocity,
    LorentzTransform,
    PairStack,
    PhotonKinematics,
    StabilityError,
    bench_pair,
    boost_from_velocity,
    compose,
    pf_wigner,
    rotation_about,
    standard_wigner,
)
from pfwigner import minkowski
from pfwigner.minkowski import STACK_BLOCK

# equal as values, but atan2 sends the frame azimuth to +pi or -pi
_G = 1.0 / math.sqrt(1.0 - 0.05)
SIGNED_ZERO_PAIRS = [
    PhotonKinematics(FourVector(1.0, 0.0, 0.0, 1.0),
                     FrameVelocity(FourVector(_G, -0.2 * _G, zero, 0.1 * _G)))
    for zero in (0.0, -0.0)
]


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-2).map(_unit)
photon_directions = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)]).map(_unit), vectors)


@st.composite
def pairs(draw):
    kh = draw(photon_directions)
    e = draw(st.floats(0.2, 5.0))
    kind = draw(st.sampled_from(["rest", "parallel", "antiparallel", "generic"]))
    speed = draw(st.floats(0.0, 0.95))
    if kind == "rest":
        u = FrameVelocity.rest()
    else:
        d = {"parallel": kh, "antiparallel": -kh}.get(kind)
        u = FrameVelocity.from_velocity((draw(vectors) if d is None else d) * speed)
    return PhotonKinematics(FourVector(e, *(e * kh)), u)


@st.composite
def transforms(draw):
    rot = rotation_about(draw(vectors), draw(st.floats(-math.pi, math.pi)))
    boost = boost_from_velocity(draw(vectors) * draw(st.floats(0.0, 0.9)))
    return draw(st.sampled_from([rot, boost, compose(boost, rot)]))


def _stack(ts):
    return LorentzTransform(np.stack([t.m for t in ts]))


def _assert_rows_equal(stacked, singles):
    for field in ("phi", "residual", "stabiliser"):
        got = getattr(stacked, field)
        assert isinstance(got, np.ndarray) and got.shape == (len(singles),)
        want = np.array([getattr(w, field) for w in singles])
        np.testing.assert_array_equal(got, want, err_msg=field)


# a block of 3 rows makes every stack of the examples span several blocks
@given(st.lists(st.tuples(pairs(), transforms()), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_stacked_rows_equal_single_calls(rows):
    kins = [k for k, _ in rows] + SIGNED_ZERO_PAIRS
    ts = [t for _, t in rows] + [rows[0][1]] * 2
    with mock.patch.object(minkowski, "STACK_BLOCK", 3):
        many = pf_wigner(PairStack.of(kins), _stack(ts))
        one_pair = pf_wigner(kins[0], _stack(ts))
        std = standard_wigner(np.array([k.k.vec for k in kins]), _stack(ts))
    _assert_rows_equal(many, [pf_wigner(k, t) for k, t in zip(kins, ts)])
    _assert_rows_equal(one_pair, [pf_wigner(kins[0], t) for t in ts])
    _assert_rows_equal(std, [standard_wigner(k.k, t) for k, t in zip(kins, ts)])


def test_stack_longer_than_a_block_equals_single_calls():
    kin = bench_pair(0.3, 1.1)
    speeds = np.linspace(-0.95, 0.95, STACK_BLOCK + 2)
    boosts = boost_from_velocity(np.outer(speeds, [0.0, 0.6, 0.8]))
    singles = [pf_wigner(kin, boosts[i]) for i in range(len(speeds))]
    _assert_rows_equal(pf_wigner(kin, boosts), singles)


@given(st.lists(transforms(), min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_transform_stack_validates_each_row(ts, data):
    stack = _stack(ts)
    for i, t in enumerate(ts):
        np.testing.assert_array_equal(stack[i].m, t.m)
        np.testing.assert_array_equal(LorentzTransform(stack.m[i]).m, t.m)
    bad = data.draw(st.sampled_from([2.0 * np.eye(4), np.diag([1.0, -1.0, -1.0, -1.0]),
                                     np.diag([-1.0, -1.0, 1.0, 1.0]), np.full((4, 4), np.nan)]))
    j = data.draw(st.integers(0, len(ts)))
    rows = [t.m for t in ts]
    rows.insert(j, bad)
    with pytest.raises(ValueError) as single:
        LorentzTransform(bad)
    with mock.patch.object(minkowski, "STACK_BLOCK", 3), \
            pytest.raises(ValueError, match=rf"^row {j}: ") as stacked:
        LorentzTransform(np.stack(rows))
    assert str(stacked.value).startswith(f"row {j}: {single.value} (gamma=")


def test_pair_stack_names_the_failing_row():
    k = np.tile([1.0, 0.0, 0.0, 1.0], (3, 1))
    u = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    k[2, 0] = 2.0
    with pytest.raises(ValueError, match=r"^row 2: k is not null \(k=\(2, 0, 0, 1\), u="):
        PairStack(k, u)


def test_stability_error_names_the_row_of_the_stack():
    # the one hostile pair is in the second block of three rows
    kins = [bench_pair(0.1, 1.0)] * 4 + [bench_pair(0.999999999, 0.5)] + [bench_pair(0.2, 2.0)]
    with mock.patch.object(minkowski, "STACK_BLOCK", 3), \
            pytest.raises(StabilityError, match=r"^row 4: pair moved by .* \(k=\(1, 0, 0, 1\), "
                                                 r"u=\(22360.68009, .*, transform gamma=1\)$"):
        pf_wigner(PairStack.of(kins), LorentzTransform(np.tile(np.eye(4), (6, 1, 1))))


def test_single_calls_keep_messages_without_a_row():
    with pytest.raises(ValueError, match=r"^speed must be < 1$"):
        boost_from_velocity([0.0, 0.0, 1.5])
    with pytest.raises(ValueError, match=r"^row 1: speed must be < 1$"):
        boost_from_velocity([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]])
    with pytest.raises(ValueError, match=r"^k is not null$"):
        standard_wigner(FourVector(2.0, 0.0, 0.0, 1.0), IDENTITY)
