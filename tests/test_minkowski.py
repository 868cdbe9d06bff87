import math
import re
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
    bench_pair,
    boost_from_velocity,
    boost_to,
    compose,
    four_velocity,
    inverse,
    massless_standard_element,
    minkowski_dot,
    pf_standard_element,
    rotation_about,
    rotation_z_to,
    wrap_angle,
)
from pfwigner.minkowski import (
    MAX_ENTRY,
    RowError,
    RowValueError,
    _check_rows,
    _checked_rows,
    _eta_inverse,
    _finite_test,
    _matrix_tests,
    _metric_error,
    _row_abs_max,
    _stack_rows,
    math_rows,
    unit_rows,
)
from pfwigner.closed_form import DomainError
from pfwigner.induction import StabilityError

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


def test_a_deprecation_warning_of_the_package_fails_the_suite():
    # pyproject's filterwarnings: a DeprecationWarning raised in a pfwigner
    # module (one of numpy's, say, for a call the package makes) is an
    # error, and one raised elsewhere stays a warning
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("probe", DeprecationWarning, "minkowski.py", 1,
                               module="pfwigner.minkowski")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("probe", DeprecationWarning, "other.py", 1, module="other")


# --- math_rows of a value shared by every row -------------------------


def _counted(f):
    # f, and the list of the argument tuples it was called with
    calls = []

    def spy(*args):
        calls.append(args)
        return f(*args)
    return spy, calls


def _per_row(f, *xs):
    # math_rows by the per-row path: contiguous copies have no zero stride
    return math_rows(f, *[np.array(x) for x in xs])


@pytest.mark.parametrize("f,args", [
    (math.sin, lambda n: [np.broadcast_to(0.5 * math.pi, (n,))]),
    (math.sin, lambda n: np.broadcast_arrays(np.array([1.0]), np.zeros(n))[:1]),
    (math.atan2, lambda n: [np.broadcast_to(-0.0, (n,)), np.broadcast_to(-1.0, (n,))]),
    (math.atan2, lambda n: np.broadcast_arrays(np.array([3.0]), np.array(-7.0), np.zeros(n))[:2]),
], ids=["sin-broadcast_to", "sin-broadcast_arrays", "atan2-broadcast_to",
        "atan2-broadcast_arrays"])
def test_math_rows_of_a_shared_value_calls_f_once(f, args):
    xs = args(5)
    assert all(x.strides == (0,) for x in xs)
    spy, calls = _counted(f)
    got = math_rows(spy, *xs)
    assert len(calls) == 1
    want = _per_row(f, *xs)
    assert got.shape == want.shape == (5,)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got.flags.writeable and got.flags.owndata
    assert not any(np.shares_memory(got, x) for x in xs)


def test_math_rows_of_an_empty_broadcast_is_empty():
    spy, calls = _counted(math.sin)
    got = math_rows(spy, np.broadcast_to(1.0, (0,)))
    assert got.shape == (0,) and got.dtype == float and calls == []


def test_math_rows_of_a_shared_and_a_full_input_runs_each_row():
    shared, full = np.broadcast_arrays(np.array(2.0), np.array([0.5, -1.0, 0.0, -0.0]))
    spy, calls = _counted(math.atan2)
    got = math_rows(spy, shared, full)
    assert calls == [(2.0, 0.5), (2.0, -1.0), (2.0, 0.0), (2.0, -0.0)]
    assert got.view(np.uint64).tolist() == _per_row(math.atan2, shared, full).view(
        np.uint64).tolist()


def test_math_rows_of_a_shared_value_outside_the_domain_raises_as_each_row():
    with pytest.raises(ValueError, match=r"^math domain error$"):
        _per_row(math.asin, np.broadcast_to(2.0, (3,)))
    with pytest.raises(ValueError, match=r"^math domain error$"):
        math_rows(math.asin, np.broadcast_to(2.0, (3,)))


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


# the parity flips of a pure boost: P and T are improper, PT is proper
# but not orthochronous. Their metric error is that of the boost, so the
# proper test alone tells P and T apart from the boost at any gamma
FLIPS = {
    "P": (np.diag([1.0, -1.0, -1.0, -1.0]), "matrix is not proper (det != +1)"),
    "T": (np.diag([-1.0, 1.0, 1.0, 1.0]), "matrix is not proper (det != +1)"),
    "PT": (-np.eye(4), "matrix is not orthochronous (m[0][0] < 1)"),
}
FLIP_GAMMAS = (1.0, 1.5e6, 1e7, 1e9, 1e12)


def _boost_of_gamma(gamma, direction=(1.0, 0.0, 0.0)):
    # the pure boost of Lorentz factor gamma along a unit direction; above
    # gamma 6.7e7 no float speed below 1 reaches it
    d = np.asarray(direction, dtype=float)
    return boost_to(np.concatenate([[gamma], math.sqrt(gamma * gamma - 1.0) * d])[None]).m[0]


@pytest.mark.parametrize("gamma", FLIP_GAMMAS)
@pytest.mark.parametrize("flip", FLIPS)
def test_parity_flip_of_a_large_boost_gets_its_low_gamma_message(flip, gamma):
    # each flip keeps its message at rest (gamma 1) up to gamma 1e12, along
    # x and along a generic direction; a determinant test with a tolerance
    # in gamma^2 accepted every flip from gamma 1.4e6 on
    f, reason = FLIPS[flip]
    m = f @ _boost_of_gamma(gamma)
    want = "^" + re.escape(f"row 0: {reason} (gamma={m[0, 0]:.10g})") + "$"
    with pytest.raises(ValueError, match=want):
        LorentzTransform(m)
    with pytest.raises(ValueError, match=rf"^row 0: {re.escape(reason)} "):
        LorentzTransform(f @ _boost_of_gamma(gamma, np.array([2.0, -6.0, 3.0]) / 7.0))


@pytest.mark.parametrize("flip", FLIPS)
def test_parity_flip_in_a_later_row_of_a_stack_is_named(flip):
    # proper boosts of every gamma of FLIP_GAMMAS, then one flipped boost:
    # the error names the last row of the stack
    f, reason = FLIPS[flip]
    boosts = [_boost_of_gamma(g) for g in FLIP_GAMMAS]
    for gamma in FLIP_GAMMAS:
        m = np.stack(boosts + [f @ _boost_of_gamma(gamma)])
        assert len(LorentzTransform(m[:-1])) == len(boosts)
        with pytest.raises(ValueError, match=rf"^row {len(boosts)}: {re.escape(reason)} "):
            LorentzTransform(m)


@pytest.mark.parametrize("gamma", [1e4, 1e6, 1e7, 1e8, 1e9, 1e10, 1e12])
def test_generic_proper_matrices_and_their_flips_up_to_gamma_1e12(gamma):
    # 400 draws of rotation . boost . rotation are accepted (compose
    # validates them), and the parity flip of each fails the proper test
    # and only that one
    rng = np.random.default_rng(5)
    n = 400
    d = unit_rows(rng.standard_normal((n, 3)))
    u = np.column_stack([np.full(n, gamma), math.sqrt(gamma * gamma - 1.0) * d])
    turns = [rotation_about(unit_rows(rng.standard_normal((n, 3))), rng.uniform(-math.pi, math.pi, n))
             for _ in range(2)]
    m = compose(turns[0], compose(boost_to(u), turns[1])).m
    verdicts = [ok for ok, _ in _matrix_tests(FLIPS["P"][0] @ m)]
    finite, small, metric, proper, orthochronous = verdicts
    assert finite.all() and small.all() and metric.all() and orthochronous.all()
    assert not proper.any()


def test_entries_above_max_entry_are_too_large_to_validate():
    # a boost at the bound passes; one of twice the bound, or of gamma 9e15
    # as two collinear boosts of speed 1 - 2^-53 compose to, is refused
    assert LorentzTransform(_boost_of_gamma(MAX_ENTRY)).m[0, 0, 0] == MAX_ENTRY
    for gamma in (2.0 * MAX_ENTRY, 9e15):
        want = f"row 0: matrix entries are too large to validate (gamma={gamma:.10g})"
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            LorentzTransform(_boost_of_gamma(gamma))
    v = boost_from_velocity([0.9999999999999999, 0.0, 0.0])
    with pytest.raises(ValueError, match="too large to validate"):
        compose(v, v)


@pytest.mark.parametrize("row,message", [
    (np.diag([0.0, 1.0, 1.0, 1.0]), r"matrix does not preserve the metric \(err=1\.000e\+00\) "
                                   r"\(gamma=0\)"),
    (np.zeros((4, 4)), r"matrix does not preserve the metric \(err=1\.000e\+00\) \(gamma=0\)"),
    (np.full((4, 4), np.nan), r"matrix has non-finite entries \(gamma=nan\)"),
], ids=["zero_m00", "zero", "nan"])
def test_degenerate_rows_keep_their_messages_without_warnings(row, message):
    m = np.stack([np.eye(4), row])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^row 1: {message}$"):
            LorentzTransform(m)


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
    (lambda: rotation_about([0.0, 0.0, 1.0], [0.1, np.inf]), r"row 1: angle=inf is not finite"),
    (lambda: rotation_about([0.0, 0.0, 1.0], np.nan), r"row 0: angle=nan is not finite"),
    (lambda: bench_pair(0.1, np.inf), r"row 0: chi=inf is not finite"),
], ids=["nan_matrix", "inf_entry", "nan_velocity", "nan_four_velocity", "nan_momentum",
        "inf_angle", "nan_angle", "inf_chi"])
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
            pf_standard_element(pairs), z_turns.m]


def test_metric_error_has_the_bits_of_the_two_product_form():
    # eta b is a sign flip of b's rows, and a signed zero vanishes under abs
    for b in _metric_stacks():
        want = np.abs(b.transpose(0, 2, 1) @ METRIC @ b - METRIC).max(axis=(1, 2))
        assert _bits(_metric_error(b)).tolist() == _bits(want).tolist()


def _inverse_stacks():
    # validated boost . rotation stacks from gamma 1 to 1e6, both standard
    # elements of random pairs, stacks of one row and of none, and the
    # stacks of the metric test
    rng = np.random.default_rng(13)
    n = 500
    gamma = np.geomspace(1.0, 1e6, n)
    u = np.column_stack([gamma, np.sqrt(gamma * gamma - 1.0)[:, None]
                         * unit_rows(rng.normal(size=(n, 3)))])
    turns = rotation_about(unit_rows(rng.normal(size=(n, 3))), rng.uniform(-math.pi, math.pi, n))
    generic = compose(boost_to(u), turns).m
    k = rng.normal(size=(n, 3))
    k = rng.uniform(0.1, 10.0, (n, 1)) * np.column_stack([np.linalg.norm(k, axis=1), k])
    pairs = PairStack(k, four_velocity(unit_rows(rng.normal(size=(n, 3)))
                                       * rng.uniform(0.0, 0.99, (n, 1))))
    return [generic, generic[:1], generic[:0], pf_standard_element(pairs),
            massless_standard_element(k), IDENTITY.m] + _metric_stacks()


def test_eta_inverse_equals_the_two_product_form():
    # each entry is +-m_ji, to which the products only add zero terms; ==
    # takes +0 and -0 as equal, the one difference the products may make
    for m in _inverse_stacks():
        got, want = _eta_inverse(m), METRIC @ np.swapaxes(m, 1, 2) @ METRIC
        assert got.shape == want.shape
        assert (got == want).all()


def _abs_max_stacks():
    # random rows with a row of NaN, a row holding one NaN, one holding one
    # +inf, a row of -inf, one holding inf beside NaN, a row of +0 and one
    # of -0; each stack also cut to one row, to none and to the zero rows
    rng = np.random.default_rng(17)
    for shape in ((9, 4), (9, 4, 4)):
        a = rng.normal(size=shape)
        a[0] = np.nan
        a[1].flat[2] = np.nan
        a[2].flat[1] = np.inf
        a[3] = -np.inf
        a[4].flat[:2] = (np.inf, np.nan)
        a[5] = 0.0
        a[6] = -0.0
        yield from (a, a[:1], a[:0], a[5:7])


def test_row_abs_max_has_the_bits_of_abs_max():
    for a in _abs_max_stacks():
        want = np.abs(a).max(axis=tuple(range(1, a.ndim)))
        got = _row_abs_max(a)
        assert got.shape == want.shape
        assert _bits(got).tolist() == _bits(want).tolist()


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


# --- the row checks against their reference ------------------------------


def _check_rows_reference(tests, culprit=None, error=RowValueError):
    # the row check as first written: each mask tested by .all(), and a
    # failure ANDs them all again to find its row
    if all(passed.all() for passed, _ in tests):
        return
    i = int(np.argmin(np.logical_and.reduce([passed for passed, _ in tests])))
    message = next(message(i) for passed, message in tests if not passed[i])
    raise error(i, message + ("" if culprit is None else f" ({culprit(i)})"))


def _checked_rows_reference(tests, *fields, error=RowValueError):
    # the field reader as first written: every field broadcast
    rows = [np.asarray(x, dtype=float).reshape(-1) for x in fields]
    _stack_rows(*map(len, rows))
    rows = np.broadcast_arrays(*rows)
    _check_rows_reference(tests(*rows), error=error)
    return rows


def _outcome(call):
    """(class, row, message) of the RowError or ValueError call raises, or
    None when it returns."""
    try:
        call()
    except RowError as exc:
        return type(exc), exc.row, str(exc)
    except ValueError as exc:
        return type(exc), None, str(exc)
    return None


@st.composite
def row_masks(draw):
    """0 to 5 boolean masks of 1 to 60 rows: all passing, all failing, one
    row failing, random, or born of a comparison with NaN entries."""
    n = draw(st.integers(1, 60))
    masks = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["pass", "fail", "one", "random", "nan"]))
        if kind in ("pass", "fail", "one"):
            mask = np.full(n, kind != "fail")
            if kind == "one":
                mask[draw(st.integers(0, n - 1))] = False
        elif kind == "random":
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            x = np.array(draw(st.lists(st.floats(-2.0, 2.0) | st.just(math.nan),
                                       min_size=n, max_size=n)))
            mask = np.abs(x) <= 1.0
        masks.append(mask)
    return masks


@given(row_masks(), st.booleans(), st.sampled_from([RowValueError, DomainError, StabilityError]))
@settings(max_examples=300, deadline=None)
def test_check_rows_names_the_row_and_test_its_reference_names(masks, with_culprit, error):
    # the first failing row, the first failing test at that row, the
    # culprit and the error class, or no error; the masks are not written
    tests = [(mask, lambda i, j=j: f"test {j} fails") for j, mask in enumerate(masks)]
    culprit = (lambda i: f"row {i} holds this") if with_culprit else None
    copies = [mask.copy() for mask in masks]
    want = _outcome(lambda: _check_rows_reference(tests, culprit, error))
    assert _outcome(lambda: _check_rows(tests, culprit, error)) == want
    assert all((mask == copy).all() for mask, copy in zip(masks, copies))
    if want is not None:
        assert want[0] is error


# a per-row field: a float, a 0-d array, or an array of 0, 1 or n rows
# laid out as (m,), (1, m) or (m, 1), some of its entries not finite
field_values = st.floats(-1e3, 1e3) | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def row_fields(draw):
    n = draw(st.integers(0, 8))
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "0-d", "(m,)", "(1, m)", "(m, 1)"]))
        if kind == "float":
            fields.append(draw(field_values))
        elif kind == "0-d":
            fields.append(np.array(draw(field_values)))
        else:
            m = draw(st.sampled_from([1, n, n, 3]))
            x = np.array(draw(st.lists(field_values, min_size=m, max_size=m)), dtype=float)
            fields.append({"(m,)": x, "(1, m)": x[None], "(m, 1)": x[:, None]}[kind])
    return fields


@given(row_fields())
@settings(max_examples=300, deadline=None)
def test_checked_rows_returns_the_rows_and_errors_of_its_reference(fields):
    # the same values, shapes and strides, or the same error: the row
    # mismatch, or the first row and field that is not finite
    def tests(*rows):
        return [_finite_test(f"x{j}", x) for j, x in enumerate(rows)]

    got, want = [], []
    outcome = _outcome(lambda: got.extend(_checked_rows(tests, *fields)))
    assert outcome == _outcome(lambda: want.extend(_checked_rows_reference(tests, *fields)))
    if outcome is not None:
        return
    assert [x.shape for x in got] == [x.shape for x in want]
    assert [x.strides for x in got] == [x.strides for x in want]
    assert [x.view(np.uint64).tolist() for x in got] == [x.view(np.uint64).tolist() for x in want]
    # a field of one row shared by more or fewer rows is a stride-0 view
    n = len(got[0])
    for field, x in zip(fields, got):
        if np.size(field) == 1 and n != 1:
            assert x.strides == (0,)

