import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import (
    IDENTITY,
    METRIC,
    FourVector,
    FrameVelocity,
    LorentzTransform,
    PhotonKinematics,
    apply,
    boost_from_velocity,
    boost_to,
    compose,
    inverse,
    minkowski_dot,
    rotation_about,
    rotation_z_to,
    wrap_angle,
)

from helpers import random_direction, random_transform

Q = FourVector(1.0, 0.0, 0.0, 1.0)
U_REST = FourVector(1.0, 0.0, 0.0, 0.0)


# --- wrap_angle -------------------------------------------------------


@pytest.mark.parametrize(
    "angle,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi, math.pi),
        (-3.0 * math.pi, math.pi),
        (math.tau, 0.0),
        (0.5, 0.5),
        (-0.5, -0.5),
    ],
)
def test_wrap_angle_examples(angle, expected):
    assert wrap_angle(angle) == pytest.approx(expected, abs=1e-15)


@given(st.floats(-100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_range_and_periodicity(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert abs(wrap_angle(a + math.tau) - w) < 1e-12
    if -math.pi < a <= math.pi:
        assert w == pytest.approx(a, abs=1e-15)


# --- FourVector and the dot product -----------------------------------


def test_metric_is_diag_plus_minus():
    np.testing.assert_array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        METRIC[0, 0] = 2.0


def test_dot_examples():
    assert Q.norm2() == 0.0
    assert U_REST.norm2() == 1.0
    assert minkowski_dot(U_REST, FourVector(2.0, 0.0, 0.0, 2.0)) == 2.0
    assert minkowski_dot(Q, FourVector(1.0, 0.0, 0.0, -1.0)) == 2.0


def test_from_array_round_trip():
    v = FourVector.from_array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(v.vec, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(v.spatial, [2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        FourVector.from_array([1.0, 2.0, 3.0])


def test_null_and_timelike_checks_are_scale_aware():
    # a large null vector with relative rounding should still register null
    e = 1e8
    assert FourVector(e, 0.0, 0.0, e * (1.0 + 1e-14)).is_null()
    assert not FourVector(1.0, 0.0, 0.0, 0.9).is_null()
    assert U_REST.is_unit_timelike()
    assert not Q.is_unit_timelike()


# --- LorentzTransform validation --------------------------------------


def test_identity_is_valid_and_fixes_vectors():
    v = FourVector(1.5, 0.2, -0.3, 0.7)
    assert apply(IDENTITY, v) == v


def test_rejects_non_metric_preserving():
    with pytest.raises(ValueError, match="metric"):
        LorentzTransform(2.0 * np.eye(4))


def test_rejects_improper():
    with pytest.raises(ValueError, match="proper"):
        LorentzTransform(np.diag([1.0, -1.0, -1.0, -1.0]))


def test_rejects_non_orthochronous():
    with pytest.raises(ValueError, match="orthochronous"):
        LorentzTransform(np.diag([-1.0, -1.0, 1.0, 1.0]))


def _identity_with_inf():
    m = np.eye(4)
    m[1, 2] = np.inf
    return m


@pytest.mark.parametrize("build", [
    lambda: LorentzTransform(np.full((4, 4), np.nan)),
    lambda: LorentzTransform(_identity_with_inf()),
    lambda: FrameVelocity.from_velocity([np.nan, 0.0, 0.0]),
    lambda: FrameVelocity(FourVector(np.nan, 0.0, 0.0, 0.0)),
    lambda: PhotonKinematics(FourVector(np.nan, 0.0, 0.0, 1.0), FrameVelocity.rest()),
], ids=["nan_matrix", "inf_entry", "nan_velocity", "nan_four_velocity", "nan_momentum"])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_matrix_is_frozen_after_construction():
    L = rotation_about([0.0, 0.0, 1.0], 0.3)
    with pytest.raises(ValueError):
        L.m[0, 0] = 5.0


# --- boosts ------------------------------------------------------------


def test_boost_of_rest_frame_is_identity():
    np.testing.assert_allclose(boost_to(FrameVelocity.rest()).m, np.eye(4), atol=1e-15)


def test_boost_half_c_along_x_matches_textbook_matrix():
    g = 1.0 / math.sqrt(0.75)
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = g
    expected[0, 1] = expected[1, 0] = 0.5 * g
    np.testing.assert_allclose(boost_from_velocity([0.5, 0.0, 0.0]).m, expected, atol=1e-15)


def test_boost_carries_rest_to_target_velocity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = FrameVelocity.from_velocity(random_direction(rng) * rng.uniform(0.0, 0.99))
        got = apply(boost_to(u), U_REST)
        np.testing.assert_allclose(got.vec, u.u.vec, atol=1e-12)


def test_boost_spatial_block_is_symmetric():
    m = boost_from_velocity([0.3, -0.2, 0.5]).m
    np.testing.assert_allclose(m, m.T, atol=1e-15)


def test_speed_at_or_above_c_rejected():
    with pytest.raises(ValueError):
        FrameVelocity.from_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        FrameVelocity.from_velocity([0.8, 0.8, 0.0])


def test_theta_vector_is_coordinate_velocity():
    u = FrameVelocity.from_velocity([0.3, 0.0, 0.4])
    np.testing.assert_allclose(u.theta_vector, [0.3, 0.0, 0.4], atol=1e-15)
    assert u.theta == pytest.approx(0.5, rel=1e-15)


# --- rotations ----------------------------------------------------------


def test_rotation_zero_angle_is_identity():
    np.testing.assert_allclose(rotation_about([1.0, 0.0, 0.0], 0.0).m, np.eye(4), atol=1e-15)


def test_rotation_quarter_turn_about_z():
    R = rotation_about([0.0, 0.0, 1.0], 0.5 * math.pi)
    got = apply(R, FourVector(0.0, 1.0, 0.0, 0.0))
    np.testing.assert_allclose(got.vec, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_full_turn_is_identity():
    R = rotation_about(random_direction(np.random.default_rng(3)), math.tau)
    np.testing.assert_allclose(R.m, np.eye(4), atol=1e-12)


def test_rotation_axis_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        rotation_about([0.0, 0.0, 2.0], 0.1)


def test_rotation_z_to_z_is_identity():
    assert rotation_z_to([0.0, 0.0, 1.0]) is IDENTITY


def test_rotation_z_to_x():
    got = apply(rotation_z_to([1.0, 0.0, 0.0]), Q)
    np.testing.assert_allclose(got.vec, [1.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_rotation_z_to_antipode_uses_x_axis_half_turn():
    # the n = -z direction is a removable singularity; the tie-break is
    # a half turn about x
    R = rotation_z_to([0.0, 0.0, -1.0])
    np.testing.assert_allclose(R.m, rotation_about([1.0, 0.0, 0.0], math.pi).m, atol=1e-15)


def test_rotation_z_to_random_directions():
    rng = np.random.default_rng(5)
    for i in range(300):
        if i % 10 == 0:
            # exercise the near-antipodal region too
            n = np.array([rng.normal() * 1e-9, rng.normal() * 1e-9, -1.0])
            n /= np.linalg.norm(n)
        else:
            n = random_direction(rng)
        got = apply(rotation_z_to(n), Q)
        np.testing.assert_allclose(got.vec, [1.0, *n], atol=1e-12)


# --- composition and inversion -----------------------------------------


def test_compose_applies_right_factor_first():
    rng = np.random.default_rng(8)
    L1, L2 = random_transform(rng), random_transform(rng)
    v = FourVector(2.0, 0.1, -0.4, 0.3)
    lhs = apply(compose(L2, L1), v)
    rhs = apply(L2, apply(L1, v))
    np.testing.assert_allclose(lhs.vec, rhs.vec, atol=1e-12)


def test_inverse_matches_numerical_inverse():
    rng = np.random.default_rng(9)
    for _ in range(50):
        L = random_transform(rng)
        np.testing.assert_allclose(inverse(L).m, np.linalg.inv(L.m), atol=1e-10)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(10)
    for _ in range(100):
        L = random_transform(rng)
        np.testing.assert_allclose(compose(inverse(L), L).m, np.eye(4), atol=1e-12)


def test_random_transforms_preserve_dot():
    rng = np.random.default_rng(12)
    for _ in range(200):
        L = random_transform(rng)
        v = FourVector(*rng.normal(size=4))
        w = FourVector(*rng.normal(size=4))
        before = minkowski_dot(v, w)
        after = minkowski_dot(apply(L, v), apply(L, w))
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
@settings(max_examples=200, deadline=None)
def test_collinear_boosts_compose_by_velocity_addition(v1, v2):
    lhs = compose(boost_from_velocity([0.0, 0.0, v2]), boost_from_velocity([0.0, 0.0, v1]))
    w = (v1 + v2) / (1.0 + v1 * v2)
    np.testing.assert_allclose(lhs.m, boost_from_velocity([0.0, 0.0, w]).m, atol=1e-9)


# --- photon kinematics ---------------------------------------------------


def test_pair_validation():
    u = FrameVelocity.from_velocity([0.0, 0.0, 0.5])
    kin = PhotonKinematics(Q, u)
    assert kin.kappa == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
    with pytest.raises(ValueError, match="null"):
        PhotonKinematics(FourVector(1.0, 0.0, 0.0, 0.5), u)
    with pytest.raises(ValueError, match="energy"):
        PhotonKinematics(FourVector(-1.0, 0.0, 0.0, -1.0), u)
