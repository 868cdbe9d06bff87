"""The unchecked matrix kernels and where validation runs.

Each transform builder runs its input tests, calls a kernel that returns
the raw (N,4,4) array and validates the result, except
`boost_from_velocity` and `rotation_z_to`, whose input tests make the
result valid, as a hypothesis test over their whole input domains checks;
so do the input tests of `rotation_about` for the rotations about a
validated photon direction of `anomalous_malus_curve`. Inside `induction` the
standard elements of both routes and their factors come from the kernels
directly, and so do the factors that `checks` multiplies into the
transforms it validates, so no construction-time check sees them; at run
time the stabiliser test of the Wigner element certifies the standard
elements. The tests here take the construction check over: every
kernel's output passes `minkowski._matrix_tests` and its defining
property over the input envelope, so do both standard elements of random valid input (the pair
element up to frame gamma 1e2 and at photon directions on and near
+-z, where the minimal rotation takes its pole branches), the output of
every public builder passes the tests too and its proper test agrees
with the sign of `np.linalg.det` up to gamma 1e6, each kernel equals its
builder bit for bit, and the number of validations a call makes is
pinned.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfwigner import (
    IDENTITY,
    LorentzTransform,
    PairStack,
    anomalous_malus_curve,
    bench_pair,
    boost_from_velocity,
    boost_phase,
    boost_to,
    checks,
    closed_form,
    cli,
    compose,
    four_velocity,
    induction,
    inverse,
    massless_standard_element,
    minkowski,
    pf_standard_element,
    pf_wigner,
    rotation_about,
    rotation_phase,
    rotation_z_to,
    standard_wigner,
)
from pfwigner.minkowski import (
    _POLE,
    _boost_stack,
    _matrix_tests,
    _proper,
    _rotation_inputs,
    _rotation_stack,
    _rotation_z_to_stack,
    unit_rows,
)

from helpers import random_pair

Q = np.array([1.0, 0.0, 0.0, 1.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def assert_valid(m):
    for ok, message in _matrix_tests(m):
        assert ok.all(), message(int(np.argmin(ok)))


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


axes = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-2),
).map(_unit)
angles = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-1e6, 1e6))
# directions at and within 1e-12 of +z and -z, and anywhere else
tilts = st.floats(-1e-12, 1e-12)
directions = st.one_of(
    st.tuples(tilts, tilts, st.sampled_from([1.0, -1.0])).map(_unit),
    axes,
)


@given(st.lists(st.tuples(axes, angles), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_rotation_kernel_is_a_rotation_about_its_axis(rows):
    a = np.array([axis for axis, _ in rows])
    d = np.array([delta for _, delta in rows])
    m = _rotation_stack(a, d)
    assert_valid(m)
    r = m[:, 1:, 1:]
    np.testing.assert_allclose((r @ a[:, :, None])[:, :, 0], a, atol=1e-12)
    # a vector across the axis turns by delta, counterclockwise about it
    v = unit_rows(np.cross(a, np.where(np.abs(a[:, :1]) < 0.5, [[1.0, 0.0, 0.0]],
                                       [[0.0, 1.0, 0.0]])))
    want = np.cos(d)[:, None] * v + np.sin(d)[:, None] * np.cross(a, v)
    np.testing.assert_allclose((r @ v[:, :, None])[:, :, 0], want, atol=1e-12)


@given(st.lists(st.tuples(axes, st.floats(1.0, 1e4)), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_boost_kernel_takes_rest_to_its_four_velocity(rows):
    # four-velocities from rest (gamma 1) up to gamma 1e4
    g = np.array([gamma for _, gamma in rows])
    u = np.column_stack([g, np.sqrt(g * g - 1.0)[:, None] * np.array([d for d, _ in rows])])
    m = _boost_stack(u)
    assert_valid(m)
    assert_same_bits(m[:, :, 0], u)
    assert_same_bits(m, np.swapaxes(m, 1, 2))


@given(st.lists(directions, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_rotation_z_to_kernel_takes_z_to_its_direction(rows):
    n = np.array(rows)
    m = _rotation_z_to_stack(n)
    assert_valid(m)
    np.testing.assert_allclose(m[:, 1:, 1:] @ Z_HAT, n, atol=1e-12)


def _pole_table():
    # directions at these distances from +z and -z, at five azimuths, then
    # +z, -z and -z with a negative zero; at 1e-161 and below the square
    # of an x-y component underflows
    dist = np.array([1e-300, 1e-200, 1e-161, 1e-100, 1e-16, 1e-8])
    azimuth = np.array([0.0, 0.7, 0.5 * math.pi, 2.5, -2.0])
    d, phi = (a.reshape(-1) for a in np.meshgrid(dist, azimuth))
    near = np.column_stack([d * np.cos(phi), d * np.sin(phi), np.sqrt(1.0 - d * d)])
    south = near * [1.0, 1.0, -1.0]
    return np.concatenate([near, south, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, -1.0]]])


def test_rotation_z_to_kernel_near_the_poles():
    n = _pole_table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = _rotation_z_to_stack(n)
    assert_valid(m)
    r = m[:, 1:, 1:]
    # R z = n, and R^T R = I
    np.testing.assert_allclose(r @ Z_HAT, n, rtol=0.0, atol=1e-15)
    assert np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)).max() <= 1e-15
    # below _POLE the rotation is the exact identity at +z and the exact
    # half turn about x at -z; the table reaches there only at 1e-300
    pole = np.maximum(np.abs(n[:, 0]), np.abs(n[:, 1])) < _POLE
    assert pole[-3:].all() and (np.abs(n[pole, 0]) < 1e-299).all()
    want = np.where(n[pole, 2, None, None] > 0.0, np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0]))
    assert_same_bits(m[pole], want)
    # elsewhere R fixes the unit axis of z x n, here normalised after
    # scaling so that no square underflows
    v = np.column_stack([-n[~pole, 1], n[~pole, 0], np.zeros((~pole).sum())])
    v = unit_rows(v / np.abs(v).max(axis=1)[:, None])
    np.testing.assert_allclose((r[~pole] @ v[:, :, None])[:, :, 0], v, rtol=0.0, atol=1e-15)


@pytest.fixture
def trig_calls(monkeypatch):
    """The `math_rows` calls and the calls of math.atan2, math.hypot,
    math.sin, math.cos and math.asin since the fixture was set up, by name,
    and the calls of the array routes of math_rows as "sin[]", "cos[]" and
    "atan2[]". Each spy of a function with an array route takes that
    route's place in `minkowski._ARRAY_ROUTES` too, counted: math_rows
    takes the same route for the spy as for the function, and a spy that
    lost its route would count each row."""
    calls = {}

    def spy(name, f):
        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)
        return counted

    routes = minkowski._ARRAY_ROUTES
    for name in ("atan2", "hypot", "sin", "cos", "asin"):
        f = getattr(math, name)
        counted = spy(name, f)
        monkeypatch.setattr(math, name, counted)
        if f in routes:
            monkeypatch.setitem(routes, counted, spy(name + "[]", routes[f]))
    for module in (minkowski, induction, closed_form):
        monkeypatch.setattr(module, "math_rows", spy("math_rows", module.math_rows))
    return calls


def test_minimal_rotations_take_no_per_row_trigonometry(trig_calls):
    rng = np.random.default_rng(44)
    n = unit_rows(rng.normal(size=(1000, 3)))
    pairs = random_pair(rng, 1000)
    trig_calls.clear()
    _rotation_z_to_stack(n)
    massless_standard_element(np.column_stack([np.ones(1000), n]))
    # the gauge factor too: the pair element takes no angle
    pf_standard_element(pairs)
    assert trig_calls == {}
    # a kernel that takes angles, and the closed forms, take sin, cos and
    # atan2 of the whole stack at once and only asin per row
    _rotation_stack(n, np.ones(1000))
    assert trig_calls == {"math_rows": 2, "sin[]": 1, "cos[]": 1}
    boost_phase(np.full(1000, 0.5), 0.3, np.ones(1000))
    assert trig_calls == {"math_rows": 5, "sin[]": 2, "cos[]": 2, "asin": 1000}
    rotation_phase(np.ones(1000), 0.3, np.ones(1000))
    assert trig_calls == {"math_rows": 10, "sin[]": 4, "cos[]": 4, "atan2[]": 1, "asin": 1000}


nulls = st.tuples(axes, st.floats(1e-3, 1e3)).map(lambda x: np.concatenate([[x[1]], x[1] * x[0]]))


@given(st.lists(nulls, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_massless_element_takes_the_reference_momentum_to_k(rows):
    # null momenta of energy 1e-3 to 1e3
    k = np.array(rows)
    m = massless_standard_element(k)
    assert_valid(m)
    # the boost along z has entries of order e + 1/e
    scale = k[:, :1] + 1.0 / k[:, :1]
    assert (np.abs(m @ Q - k) <= 1e-12 * scale).all()


# a photon of energy 1e-3 to 1e3 along a direction on or near +-z, or
# anywhere, and a frame from rest (gamma 1) up to gamma 1e2 along an axis
pair_rows = st.tuples(directions, st.floats(1e-3, 1e3), axes, st.floats(1.0, 1e2))


@given(st.lists(pair_rows, min_size=1, max_size=4))
@example([((0.0, 0.0, 1.0), 1.0, (0.0, 0.0, 1.0), 1.0)])
@example([((0.0, 0.0, -1.0), 2.0, (0.0, 0.0, 1.0), 30.0),
          ((0.0, 0.0, 1.0), 0.5, (0.0, 0.0, -1.0), 1e2)])
@settings(max_examples=300, deadline=None)
def test_pair_element_carries_the_standard_pair_to_its_pair(rows):
    # a photon along +-z seen from a frame at rest or moving along z stays
    # along +-z, where the minimal rotation is its exact pole branch
    e = np.array([row[1] for row in rows])
    g = np.array([row[3] for row in rows])
    k = e[:, None] * np.column_stack([np.ones(len(rows)), [row[0] for row in rows]])
    u = np.column_stack([g, np.sqrt(g * g - 1.0)[:, None] * np.array([row[2] for row in rows])])
    pairs = PairStack(k, u)
    m = pf_standard_element(pairs)
    assert_valid(m)
    # the element has entries of order gamma, and kappa, of order gamma e,
    # may cancel: its rounding is of order gamma e, which m scales by gamma
    q = pairs.kappa[:, None] * Q
    assert (np.abs((m @ q[:, :, None])[:, :, 0] - k) <= 1e-12 * (g * g * e)[:, None]).all()
    assert (np.abs(m @ np.array([1.0, 0.0, 0.0, 0.0]) - u) <= 1e-12 * g[:, None]).all()


PARITY = np.diag([1.0, -1.0, -1.0, -1.0])


def assert_proper_as_det(m):
    # the proper test of m and of its parity flip against the sign of a
    # determinant by LU factorisation, which is reliable at these gammas
    for x in (m, PARITY @ m):
        assert _proper(x).tolist() == (np.linalg.det(x) > 0.0).tolist()


# the speeds `boost_from_velocity` takes: up to 1 - 2^-53, the largest below
# 1 (gamma 6.7e7 along an axis, up to 9.5e7 elsewhere), subnormal ones and
# any between; rows whose v^2 rounds to 1 are refused by its input test
top_speeds = st.sampled_from([1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 - 1e-12, 5e-324, 1e-310])
velocities = st.tuples(axes, st.one_of(top_speeds, st.floats(0.0, 1.0, exclude_max=True),
                                       st.floats(0.0, 1e-300))).map(
    lambda x: x[1] * x[0]).filter(lambda v: v @ v < 1.0)


# scale errors of a unit vector about the bound of the unit test, UNIT_TOL,
# and up to 2e-12; a rotation fails its matrix tests from 1.3e-13
unit_errors = st.one_of(st.sampled_from([1e-13, -1e-13, 1.3e-13, 5.1e-13, -9.9e-13]),
                        st.floats(-2e-12, 2e-12))


@given(st.lists(st.tuples(axes, st.floats(1.0, 1e6), angles, directions), min_size=1, max_size=4),
       st.lists(velocities, min_size=1, max_size=4), unit_errors)
@example([((1.0, 0.0, 0.0), 1.0, 0.0, (0.0, 0.0, 1.0))],
         [(1.0 - 2.0 ** -53, 0.0, 0.0), (0.0, 0.0, -5e-324),
          tuple(_unit([1.0, 1.0, 1.0]) * (1.0 - 2.0 ** -53))], 1e-13)
@settings(max_examples=300, deadline=None)
def test_public_builders_give_valid_matrices_whose_proper_test_is_the_det_sign(rows, velocities,
                                                                              unit_error):
    # four-velocities and velocities from rest (gamma 1) up to gamma 1e6;
    # `boost_from_velocity` is not validated at run time, so its whole input
    # domain is tested here (past gamma 1e6, where the LU determinant is no
    # reference), and its metric error stays 100 times below the tolerance
    # (measured: 1 500 times, over 2e5 draws near speed 1). Neither is
    # `rotation_z_to`, whose unit test admits only directions it builds to
    # within a quarter of the tolerance
    trusted = boost_from_velocity(np.array(velocities)).m
    assert_valid(trusted)
    peak = np.abs(trusted).max(axis=(1, 2))
    assert (minkowski._metric_error(trusted) <= 1e-14 * np.maximum(1.0, peak * peak)).all()
    d = np.array([row[0] for row in rows])
    g = np.array([row[1] for row in rows])
    delta = np.array([row[2] for row in rows])
    n = np.array([row[3] for row in rows])
    u = np.column_stack([g, np.sqrt(g * g - 1.0)[:, None] * d])
    boosts = boost_to(u)
    rotation = rotation_about(d[::-1], delta)
    built = [boosts, boost_from_velocity(np.sqrt(1.0 - 1.0 / (g * g))[:, None] * d), rotation,
             rotation_z_to(n), compose(boosts, rotation), compose(rotation, boosts),
             inverse(compose(boosts, rotation))]
    for L in built:
        assert_valid(L.m)
        assert_proper_as_det(L.m)
    # axes and directions off the unit sphere are refused by their unit
    # test, not by the matrix tests, and the directions admitted build
    # rotations within a quarter of the tolerance
    scale = 1.0 + unit_error
    for build, x, bound in ((lambda axis: rotation_about(axis, delta), d * scale, 1.0),
                            (rotation_z_to, n * scale, 0.25)):
        try:
            m = build(x).m
        except minkowski.RowValueError as exc:
            assert exc.reason.endswith("must be a unit vector")
            continue
        assert_valid(m)
        assert (minkowski._metric_error(m) <= bound * minkowski.CONSTRUCTION_TOL).all()


# any finite angle, the largest ones included
finite_angles = st.one_of(angles, st.sampled_from([1e300, -1e300, 1.7976931348623157e308]),
                          st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(pair_rows, finite_angles), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_rotations_about_a_validated_photon_pass_the_matrix_tests_by_a_margin(rows):
    # the rotations of `anomalous_malus_curve`, which go to pf_wigner
    # unvalidated: about the unit direction of the photon of a validated
    # pair, on and near +-z too, by any finite angle. Their metric error
    # stays below 1e-2 of the tolerance (measured: 2.2e-3 at most over 10^6
    # random rows, seed 1)
    e = np.array([row[1] for row, _ in rows])
    g = np.array([row[3] for row, _ in rows])
    k = e[:, None] * np.column_stack([np.ones(len(rows)), [row[0] for row, _ in rows]])
    u = np.column_stack([g, np.sqrt(g * g - 1.0)[:, None] * np.array([row[2] for row, _ in rows])])
    axis = unit_rows(PairStack(k, u).k[:, 1:])
    m = _rotation_stack(*_rotation_inputs(axis, np.array([delta for _, delta in rows])))
    assert_valid(m)
    assert (minkowski._metric_error(m) <= 1e-2 * minkowski.CONSTRUCTION_TOL).all()


# --- each kernel is its builder, bit for bit ---------------------------


def assert_rows_of(ones, many):
    """Each transform of `ones`, built from one input, is the one-row stack
    of the matching row of `many`, the call with all the inputs."""
    assert len(ones) == len(many)
    for i, one in enumerate(ones):
        assert one.m.shape == (1, 4, 4)
        assert_same_bits(one.m, many.m[i:i + 1])


def test_kernels_equal_their_builders_bit_for_bit():
    rng = np.random.default_rng(41)
    d = unit_rows(rng.normal(size=(6, 3)))
    delta = rng.uniform(-10.0, 10.0, size=6)
    speed = rng.uniform(0.0, 0.999, size=6)[:, None]
    g = 1.0 / np.sqrt(1.0 - speed * speed)
    u = np.column_stack([g, g * speed * d])

    boosts = boost_to(u)
    assert_same_bits(_boost_stack(u), boosts.m)
    assert_rows_of([boost_to(u[i:i + 1]) for i in range(len(u))], boosts)
    v = 0.6 * d
    velocity_boosts = boost_from_velocity(v)
    assert_same_bits(_boost_stack(four_velocity(v)), velocity_boosts.m)
    assert_rows_of([boost_from_velocity(row) for row in v], velocity_boosts)

    rotations = rotation_about(d, delta)
    assert_same_bits(_rotation_stack(d, delta), rotations.m)
    assert_same_bits(_rotation_stack(d[0], delta), rotation_about(d[0], delta).m)
    assert_same_bits(_rotation_stack(d, delta[0]), rotation_about(d, delta[0]).m)
    assert_rows_of([rotation_about(axis, angle) for axis, angle in zip(d, delta)], rotations)

    tilt = 1e-13
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], _unit([tilt, -tilt, 1.0]),
                      _unit([tilt, tilt, -1.0]), [-0.0, 0.0, -1.0]])
    n = np.concatenate([poles, d])
    aligned = rotation_z_to(n)
    assert_same_bits(_rotation_z_to_stack(n), aligned.m)
    assert_rows_of([rotation_z_to(row) for row in n], aligned)
    # at +z the kernel gives the identity exactly
    assert_same_bits(aligned.m[:1], IDENTITY.m)

    # a product, an inverse and the rows of a stack are one-row stacks too
    assert_rows_of([compose(boosts[i], rotations[i]) for i in range(6)], compose(boosts, rotations))
    assert_rows_of([inverse(boosts[i]) for i in range(6)], inverse(boosts))
    assert_rows_of([rotations[i] for i in range(6)], rotations)
    assert_same_bits(rotations[-1].m, rotations.m[5:])
    assert_same_bits(IDENTITY.m, np.eye(4)[None])


@pytest.mark.parametrize("axis", [Z_HAT, _unit([0.3, -0.8, 0.5])], ids=["z", "generic"])
def test_rotation_kernel_of_one_shared_axis_equals_the_axis_repeated(axis):
    # one axis builds its cross-product matrices once and broadcasts them
    # against the angles, with the bits of the N-row call
    delta = np.random.default_rng(43).uniform(-10.0, 10.0, size=300)
    delta[:4] = (0.0, -0.0, math.pi, -math.pi)
    repeated = np.tile(axis, (len(delta), 1))
    assert_same_bits(_rotation_stack(axis, delta), _rotation_stack(repeated, delta))
    assert_same_bits(rotation_about(axis, delta).m, rotation_about(repeated, delta).m)


# --- where validation runs ----------------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """The number of LorentzTransform validations since the fixture was set
    up, and the number of rows they validated."""
    count = [0, 0]
    validate = LorentzTransform.__post_init__

    def counted(self):
        count[0] += 1
        validate(self)
        count[1] += len(self.m)

    monkeypatch.setattr(LorentzTransform, "__post_init__", counted)
    return count


@pytest.mark.parametrize("route", [pf_wigner, lambda kin, L: standard_wigner(kin.k, L)],
                         ids=["pf_wigner", "standard_wigner"])
def test_one_wigner_call_validates_no_matrix(validations, route):
    # its pairs or momenta are checked where they enter and its standard
    # elements, built from the kernels, by the stabiliser test
    kin = bench_pair(0.1, 1.0)
    L = rotation_about(Z_HAT, 0.3)
    validations[0] = 0
    route(kin, L)
    assert validations[0] == 0


@pytest.mark.parametrize("build,count", [
    (lambda: boost_from_velocity([[0.3, 0.0, 0.4], [0.0, 0.0, -0.9]]), 0),
    (lambda: boost_to(four_velocity([0.3, 0.0, 0.4])), 1),
    (lambda: rotation_about(Z_HAT, [0.3, 1.0]), 1),
    (lambda: rotation_z_to(_unit([1.0, 2.0, 3.0])), 0),
    (lambda: compose(IDENTITY, IDENTITY), 1),
    (lambda: inverse(IDENTITY), 1),
], ids=["boost_from_velocity", "boost_to", "rotation_about", "rotation_z_to", "compose",
        "inverse"])
def test_only_the_velocity_boost_is_trusted_without_validation(validations, build, count):
    # and the minimal rotation, whose unit test makes its output valid
    validations[0] = 0
    build()
    assert validations[0] == count


def test_gauge_reads_the_transverse_frame_without_a_4x4_rotation(monkeypatch):
    pairs = random_pair(np.random.default_rng(8), 50)
    want = induction._gauge_stack(pairs)

    def refused(rows):
        raise AssertionError("the gauge built a 4x4 minimal rotation")

    monkeypatch.setattr(induction, "_rotation_z_to_stack", refused)
    monkeypatch.setattr(minkowski, "_rotation_z_to_stack", refused)
    assert_same_bits(induction._gauge_stack(pairs), want)


def test_direction_in_pf_validates_no_matrix(validations):
    # its pairs were validated where they entered, so the boost to each
    # frame comes from the kernel, with the bits of the validated builder
    kin = random_pair(np.random.default_rng(5), 300)
    want = induction._direction_after(boost_to(kin.u).m, kin.k)
    validations[0] = 0
    got = induction.direction_in_pf(kin)
    assert validations[0] == 0
    assert_same_bits(got, want)


def test_malus_curve_validates_no_rotation(validations):
    # its rotations pass the input tests of rotation_about once, and their
    # matrices go to pf_wigner without a validation
    validations[0] = 0
    anomalous_malus_curve(bench_pair(0.3, 1.1), 0.2, 1.3, np.linspace(0.0, math.tau, 49))
    assert validations[0] == 0


def test_validate_makes_9_validations_of_6647_rows(validations):
    # the random transforms of the composition laws and of the reduction
    # check are validated as the products that enter the Wigner routes,
    # not factor by factor; no standard element is validated, and no boost
    # from a velocity, whose input test makes it valid
    results = checks.run_checks(cli.CHECKS)
    assert all(r.passed for r in results.values())
    assert validations == [9, 6647]


def test_default_boost_scan_runs_as_one_block(validations, monkeypatch, tmp_path):
    # the 607 speeds of the default sweep fit one STACK_BLOCK: one stack of
    # boosts and the two standard elements, of the pair and of the moved
    # pairs, none of them validated: the boosts come from velocities whose
    # input test makes them valid
    builds = [0]
    build = induction.pf_standard_element

    def counted(pairs):
        builds[0] += 1
        return build(pairs)

    monkeypatch.setattr(induction, "pf_standard_element", counted)
    validations[0] = 0
    assert cli.main(["boost-scan", "--output", str(tmp_path / "scan.csv")]) == 0
    assert builds[0] == 2
    assert validations[0] == 0

