import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import (
    IDENTITY,
    METRIC,
    LorentzTransform,
    PairStack,
    apply,
    boost_from_velocity,
    boost_to,
    compose,
    four_velocity,
    inverse,
    minkowski_dot,
    pf_standard_element,
    rotation_about,
    rotation_z_to,
    wrap_angle,
)
from pfwigner.minkowski import _metric_error

from helpers import random_direction, random_transform

Q = np.array([1.0, 0.0, 0.0, 1.0])
U_REST = np.array([1.0, 0.0, 0.0, 0.0])


def one_pair(k, u):
    return PairStack(np.array([k], dtype=float), np.array([u], dtype=float))


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
    # a float is one row
    assert wrap_angle(angle).tolist() == pytest.approx([expected], abs=1e-15)


@given(st.floats(-100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_range_and_periodicity(a):
    (w,) = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert abs(wrap_angle(a + math.tau)[0] - w) < 1e-12
    if -math.pi < a <= math.pi:
        assert w == pytest.approx(a, abs=1e-15)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _remainder_wrap(angles):
    # the per-row definition that wrap_angle's array arithmetic replaces
    r = np.array([math.remainder(x, math.tau) for x in angles])
    return np.where(r <= -math.pi, math.pi, r)


# the ties +-pi, their odd multiples, the turns and their neighbours
TIES = [s * math.pi + k * math.tau for s in (1.0, -1.0) for k in (-10**6, -3, -1, 0, 1, 2, 10**6)]
TIES += [np.nextafter(x, t) for x in TIES for t in (-math.inf, math.inf)]
SIGNALLING_NAN = float(np.array([0x7FF0000000000001], dtype=np.uint64).view(float)[0])


@given(st.lists(st.floats(allow_infinity=False) | st.floats(-1e308, 1e308)
                | st.floats(-1e-300, 1e-300) | st.builds(lambda s, k: s * math.pi + k * math.tau,
                                                         st.sampled_from([1.0, -1.0]),
                                                         st.integers(-10**9, 10**9)),
                max_size=30))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_has_the_bits_of_per_row_remainder(angles):
    angles = angles + TIES + [0.0, -0.0, 5e-324, -5e-324, math.nan, SIGNALLING_NAN, 1e308, -1e308]
    got, want = wrap_angle(np.array(angles)), _remainder_wrap(angles)
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert _bits(got[~nan]).tolist() == _bits(want[~nan]).tolist()


@pytest.mark.parametrize("angles", [[math.inf], [1.0, -math.inf], [math.nan, math.inf]])
def test_wrap_angle_of_an_infinity_raises_without_a_warning(angles):
    with pytest.raises(ValueError):
        math.remainder(angles[-1], math.tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            wrap_angle(np.array(angles))


# --- the dot product ---------------------------------------------------


def test_metric_is_diag_plus_minus():
    np.testing.assert_array_equal(METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        METRIC[0, 0] = 2.0


def test_dot_examples():
    assert minkowski_dot(Q, Q) == 0.0
    assert minkowski_dot(U_REST, U_REST) == 1.0
    assert minkowski_dot(U_REST, np.array([2.0, 0.0, 0.0, 2.0])) == 2.0
    assert minkowski_dot(Q, np.array([1.0, 0.0, 0.0, -1.0])) == 2.0
    # each row of two (N,4) arrays
    rows = np.array([Q, U_REST, [2.0, 1.0, -1.0, 0.5]])
    np.testing.assert_array_equal(minkowski_dot(rows, rows), [0.0, 1.0, 1.75])


def test_null_and_timelike_checks_are_scale_aware():
    # a null momentum of energy 1e3 with a relative rounding of 1e-14 is
    # null: the tolerance grows with the energy squared
    e = 1e3
    one_pair([e, 0.0, 0.0, e * (1.0 + 1e-14)], U_REST)
    with pytest.raises(ValueError, match=r"^row 0: k is not null "
                                         r"\(k=\(1, 0, 0, 0\.9\), u=\(1, 0, 0, 0\)\)$"):
        one_pair([1.0, 0.0, 0.0, 0.9], U_REST)
    with pytest.raises(ValueError, match=r"^row 0: u is not unit timelike "
                                         r"\(k=\(1, 0, 0, 1\), u=\(1, 0, 0, 1\)\)$"):
        one_pair(Q, Q)


# --- LorentzTransform validation --------------------------------------


def test_identity_is_valid_and_fixes_vectors():
    v = np.array([[1.5, 0.2, -0.3, 0.7]])
    np.testing.assert_array_equal(apply(IDENTITY, v), v)


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


@pytest.mark.parametrize("build,message", [
    (lambda: LorentzTransform(np.full((4, 4), np.nan)),
     r"row 0: matrix has non-finite entries \(gamma=nan\)"),
    (lambda: LorentzTransform(_identity_with_inf()),
     r"row 0: matrix has non-finite entries \(gamma=1\)"),
    (lambda: boost_from_velocity([np.nan, 0.0, 0.0]), r"row 0: speed must be < 1"),
    (lambda: one_pair(Q, [np.nan, 0.0, 0.0, 0.0]),
     r"row 0: u is not unit timelike \(k=\(1, 0, 0, 1\), u=\(nan, 0, 0, 0\)\)"),
    (lambda: one_pair([np.nan, 0.0, 0.0, 1.0], U_REST),
     r"row 0: k is not null \(k=\(nan, 0, 0, 1\), u=\(1, 0, 0, 0\)\)"),
], ids=["nan_matrix", "inf_entry", "nan_velocity", "nan_four_velocity", "nan_momentum"])
def test_non_finite_input_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def _metric_stacks():
    rng = np.random.default_rng(11)
    n = 2000
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    boosts = boost_from_velocity(axes[::-1] * rng.uniform(0.0, 0.999, (n, 1)))
    rotations = rotation_about(axes, rng.uniform(-10.0, 10.0, n))
    k = rng.normal(size=(n, 3))
    k = rng.uniform(0.1, 10.0, (n, 1)) * np.column_stack([np.linalg.norm(k, axis=1), k])
    pairs = PairStack(k, four_velocity(axes * rng.uniform(0.0, 0.99, (n, 1))))
    z_turns = rotation_about([0.0, 0.0, 1.0], np.array([0.0, math.pi, -0.0, -math.pi]))
    return [boosts.m, rotations.m, compose(boosts, rotations).m, compose(rotations, boosts).m,
            pf_standard_element(pairs).m, z_turns.m]


def test_metric_error_has_the_bits_of_the_two_product_form():
    # eta b is a sign flip of b's rows, and a signed zero vanishes under abs
    for b in _metric_stacks():
        want = np.abs(b.transpose(0, 2, 1) @ METRIC @ b - METRIC).max(axis=(1, 2))
        assert _bits(_metric_error(b)).tolist() == _bits(want).tolist()


def test_matrix_is_frozen_after_construction():
    L = rotation_about([0.0, 0.0, 1.0], 0.3)
    with pytest.raises(ValueError):
        L.m[0, 0] = 5.0


@pytest.mark.parametrize("index", [1, slice(0, 2), np.array([0, 2])], ids=["int", "slice", "array"])
def test_rows_of_a_stack_are_frozen(index):
    # an int or a slice gives a view of the frozen stack, an index array a
    # copy; each is a stack that is read-only
    L = rotation_about(np.eye(3), np.array([0.1, 0.2, 0.3]))[index]
    pairs = PairStack(np.tile(Q, (3, 1)), np.tile(U_REST, (3, 1)))[index]
    n = np.arange(3)[index].size
    assert L.m.shape == (n, 4, 4) and pairs.k.shape == pairs.u.shape == (n, 4)
    for x in (L.m, pairs.k, pairs.u):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 5.0


# --- boosts ------------------------------------------------------------


def test_boost_of_rest_frame_is_identity():
    np.testing.assert_allclose(boost_to(U_REST[None]).m, [np.eye(4)], atol=1e-15)


def test_boost_half_c_along_x_matches_textbook_matrix():
    g = 1.0 / math.sqrt(0.75)
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = g
    expected[0, 1] = expected[1, 0] = 0.5 * g
    np.testing.assert_allclose(boost_from_velocity([0.5, 0.0, 0.0]).m, [expected], atol=1e-15)


def test_boost_carries_rest_to_target_velocity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = four_velocity(random_direction(rng) * rng.uniform(0.0, 0.99))
        got = apply(boost_to(u), U_REST[None])
        np.testing.assert_allclose(got, u, atol=1e-12)


def test_boost_spatial_block_is_symmetric():
    m = boost_from_velocity([0.3, -0.2, 0.5]).m[0]
    np.testing.assert_allclose(m, m.T, atol=1e-15)


def test_speed_at_or_above_c_rejected():
    with pytest.raises(ValueError, match=r"^row 0: speed must be < 1$"):
        four_velocity([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^row 0: speed must be < 1$"):
        four_velocity([0.8, 0.8, 0.0])
    # a frame moving at the speed of light is not unit timelike
    with pytest.raises(ValueError, match=r"^row 0: u is not unit timelike "
                                         r"\(k=\(1, 0, 0, 1\), u=\(1, 1, 0, 0\)\)$"):
        one_pair(Q, [1.0, 1.0, 0.0, 0.0])


def test_four_velocity_is_coordinate_velocity():
    # a velocity (3,) is one row
    u = four_velocity([0.3, 0.0, 0.4])
    assert u.shape == (1, 4)
    np.testing.assert_allclose(u[0, 1:] / u[0, 0], [0.3, 0.0, 0.4], atol=1e-15)
    assert u[0, 0] == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-15)
    assert minkowski_dot(u, u)[0] == pytest.approx(1.0, rel=1e-15)


# --- rotations ----------------------------------------------------------


def test_rotation_zero_angle_is_identity():
    np.testing.assert_allclose(rotation_about([1.0, 0.0, 0.0], 0.0).m, [np.eye(4)], atol=1e-15)


def test_rotation_quarter_turn_about_z():
    R = rotation_about([0.0, 0.0, 1.0], 0.5 * math.pi)
    got = apply(R, np.array([[0.0, 1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(got, [[0.0, 0.0, 1.0, 0.0]], atol=1e-15)


def test_rotation_full_turn_is_identity():
    R = rotation_about(random_direction(np.random.default_rng(3)), math.tau)
    np.testing.assert_allclose(R.m, [np.eye(4)], atol=1e-12)


def test_rotation_axis_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        rotation_about([0.0, 0.0, 2.0], 0.1)


def test_rotation_z_to_z_is_identity():
    # the exact identity, bit for bit
    assert rotation_z_to([0.0, 0.0, 1.0]).m.tobytes() == IDENTITY.m.tobytes()


def test_rotation_z_to_x():
    got = apply(rotation_z_to([1.0, 0.0, 0.0]), Q[None])
    np.testing.assert_allclose(got, [[1.0, 1.0, 0.0, 0.0]], atol=1e-15)


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
        got = apply(rotation_z_to(n), Q[None])
        np.testing.assert_allclose(got, [[1.0, *n]], atol=1e-12)


# --- composition and inversion -----------------------------------------


def test_compose_applies_right_factor_first():
    rng = np.random.default_rng(8)
    L1, L2 = random_transform(rng), random_transform(rng)
    v = np.array([[2.0, 0.1, -0.4, 0.3]])
    lhs = apply(compose(L2, L1), v)
    rhs = apply(L2, apply(L1, v))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_inverse_matches_numerical_inverse():
    rng = np.random.default_rng(9)
    for _ in range(50):
        L = random_transform(rng)
        np.testing.assert_allclose(inverse(L).m, np.linalg.inv(L.m), atol=1e-10)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(10)
    for _ in range(100):
        L = random_transform(rng)
        np.testing.assert_allclose(compose(inverse(L), L).m, [np.eye(4)], atol=1e-12)


def test_random_transforms_preserve_dot():
    rng = np.random.default_rng(12)
    for _ in range(200):
        L = random_transform(rng)
        v = rng.normal(size=(1, 4))
        w = rng.normal(size=(1, 4))
        before = minkowski_dot(v, w)[0]
        after = minkowski_dot(apply(L, v), apply(L, w))[0]
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
@settings(max_examples=200, deadline=None)
def test_collinear_boosts_compose_by_velocity_addition(v1, v2):
    lhs = compose(boost_from_velocity([0.0, 0.0, v2]), boost_from_velocity([0.0, 0.0, v1]))
    w = (v1 + v2) / (1.0 + v1 * v2)
    np.testing.assert_allclose(lhs.m, boost_from_velocity([0.0, 0.0, w]).m, atol=1e-9)


# --- photon/frame pairs ---------------------------------------------------


def test_pair_validation():
    (u,) = four_velocity([0.0, 0.0, 0.5])
    pair = one_pair(Q, u)
    assert pair.kappa.shape == (1,)
    assert pair.kappa[0] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
    with pytest.raises(ValueError, match=r"^row 0: k is not null \(k=\(1, 0, 0, 0\.5\), "
                                         r"u=\(1\.154700538, 0, 0, 0\.5773502692\)\)$"):
        one_pair([1.0, 0.0, 0.0, 0.5], u)
    with pytest.raises(ValueError, match=r"^row 0: k must have positive energy "
                                         r"\(k=\(-1, 0, 0, -1\), u=\(1\.154700538, "):
        one_pair([-1.0, 0.0, 0.0, -1.0], u)
    # a frame so fast that it passes as unit timelike at its scale, but
    # moves with the photon: kappa rounds to 0
    with pytest.raises(ValueError, match=r"^row 0: kappa = eta\(u, k\) must be positive \(k="
                                         r"\(1, 0, 0, 1\), u=\(100000000, 0, 0, 100000000\)\)$"):
        one_pair(Q, [1e8, 0.0, 0.0, 1e8])
