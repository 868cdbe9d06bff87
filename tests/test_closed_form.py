import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import (
    DomainError,
    boost_phase,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
    rotation_table,
    wrap_angle,
)
from pfwigner.closed_form import check_rotation_grid

# speed of the distinguished frame used throughout the frozen examples
# (solar-system speed relative to the microwave background, in units of c)
TH_CMB = 1.2336e-3


def _asymptote(theta_pf, chi):
    """The limit of boost_phase as v -> +1 (the v -> -1, pi - chi limit is
    its negative): the closed form with sqrt(1 - v^2) -> 0 and v -> 1."""
    rt = math.sqrt(1.0 - theta_pf * theta_pf)
    den = math.sqrt(2.0 * (1.0 + rt) * (1.0 + theta_pf * math.cos(chi)))
    return math.asin(theta_pf * math.sin(chi) / den)


# --- frozen values ------------------------------------------------------


def test_boost_phase_frozen_value():
    got = boost_phase(0.5, TH_CMB, 0.5 * math.pi)
    assert got == pytest.approx(0.00016527112326288887, rel=5e-16, abs=0.0)


def test_rotation_phase_frozen_value():
    got = rotation_phase(0.5 * math.pi, TH_CMB, 0.5 * math.pi)
    assert got == pytest.approx(1.5720299271077725, rel=5e-16, abs=0.0)


def test_asymptote_frozen_value():
    got = _asymptote(TH_CMB, 0.5 * math.pi)
    assert got == pytest.approx(0.0006168001564379563, rel=5e-16, abs=0.0)


def test_shift_approx_frozen_value():
    got = rotation_shift_approx(0.5 * math.pi, TH_CMB, 0.5 * math.pi)
    assert got == pytest.approx(0.0012335999999999998, rel=5e-16, abs=0.0)


# --- exact special cases -------------------------------------------------


@pytest.mark.parametrize("v", [-0.99, -0.5, 0.0, 0.5, 0.99])
def test_boost_phase_vanishes_on_axis(v):
    assert boost_phase(v, 0.3, 0.0) == 0.0
    # chi = pi is zero only up to float(sin(pi)) ~ 1.2e-16
    assert abs(boost_phase(v, 0.3, math.pi)) < 1e-16


@pytest.mark.parametrize("chi", [0.0, 0.7, 0.5 * math.pi, math.pi])
def test_boost_phase_vanishes_without_motion(chi):
    assert boost_phase(0.0, 0.3, chi) == 0.0
    assert boost_phase(0.5, 0.0, chi) == 0.0


def test_rotation_phase_at_zero_angle_is_zero():
    assert rotation_phase(0.0, 0.3, 1.0) == 0.0


@pytest.mark.parametrize("delta", [0.1, 1.0, math.pi, 5.0, math.tau])
def test_rotation_phase_reduces_to_delta_at_rest(delta):
    got = rotation_phase(delta, 0.0, 1.0)
    assert got == pytest.approx(delta, abs=1e-12)


def test_shift_vanishes_at_rest():
    for delta in (0.3, 1.0, 2.0, 4.0):
        assert abs(rotation_phase_shift(delta, 0.0, 0.9)) < 1e-12


# --- domain validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(v=1.0, theta_pf=0.1, chi=1.0),
        dict(v=-1.0, theta_pf=0.1, chi=1.0),
        dict(v=0.5, theta_pf=1.0, chi=1.0),
        dict(v=0.5, theta_pf=-0.1, chi=1.0),
        dict(v=0.5, theta_pf=0.1, chi=-0.1),
        dict(v=0.5, theta_pf=0.1, chi=math.pi + 0.1),
    ],
)
def test_boost_scenario_rejects_out_of_range(kwargs):
    with pytest.raises(DomainError):
        boost_phase(**kwargs)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
def test_rotation_scenario_rejects_non_finite_delta(delta):
    with pytest.raises(DomainError):
        rotation_phase(delta, 0.1, 1.0)


@pytest.mark.parametrize(
    "deltas,theta_pf,chis",
    [
        ([0.0, math.nan], 0.1, [1.0]),
        ([math.inf], 0.1, [1.0]),
        ([1.0, -math.inf], 0.1, [0.0, 1.0]),
        ([1.0], 0.1, [0.5, -0.1]),
        ([1.0], 0.1, [math.pi + 0.1]),
        ([1.0], 0.1, [math.nan]),
        ([1.0], 1.0, [1.0]),
        ([1.0], -0.1, [1.0]),
    ],
)
def test_rotation_table_rejects_what_the_scenario_rejects(deltas, theta_pf, chis):
    # the same reason as rotation_phase; the grid names the index within its axis
    with pytest.raises(DomainError) as want:
        for d in deltas:
            for chi in chis:
                rotation_phase(d, theta_pf, chi)
    with pytest.raises(DomainError) as got:
        rotation_table(deltas, theta_pf, chis)
    assert got.value.reason == want.value.reason


@pytest.mark.parametrize(
    "deltas,chis,reason,row",
    [
        ([1.0], [0.5, -0.1, 4.0, math.nan], "chi=-0.1 outside [0.0, 3.141592653589793]", 1),
        ([1.0], np.array([0.5, math.nan, -0.1]), "chi=nan outside [0.0, 3.141592653589793]", 1),
        ([0.0, 1.0, math.inf, math.nan], [1.0], "delta=inf is not finite", 2),
        # theta_pf, then the chis, then the deltas
        ([math.nan], [4.0], "chi=4.0 outside [0.0, 3.141592653589793]", 0),
    ],
)
def test_rotation_grid_names_its_first_value_out_of_range(deltas, chis, reason, row):
    with pytest.raises(DomainError) as got:
        check_rotation_grid(deltas, 0.1, chis)
    assert str(got.value) == f"row {row}: {reason}"


# --- structural properties -------------------------------------------------


@given(st.floats(0.0, 0.99), st.floats(0.0, 0.9))
@settings(max_examples=300, deadline=None)
def test_boost_phase_odd_in_v_at_quarter_pi_half(v, th):
    s = boost_phase(v, th, 0.5 * math.pi)
    assert boost_phase(-v, th, 0.5 * math.pi) == pytest.approx(-s, abs=1e-15)


@given(st.floats(0.0, 0.99), st.floats(0.0, 0.9), st.floats(0.0, math.pi))
@settings(max_examples=300, deadline=None)
def test_boost_phase_reversal_symmetry(v, th, chi):
    # reversing the boost and reflecting chi about pi/2 flips the sign
    lhs = boost_phase(-v, th, math.pi - chi)
    rhs = -boost_phase(v, th, chi)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_boost_phase_approaches_asymptote():
    for th, chi in [(0.1, 0.5 * math.pi), (0.5, 0.5 * math.pi), (0.3, 1.0)]:
        limit = _asymptote(th, chi)
        near = boost_phase(1.0 - 1e-12, th, chi)
        assert near == pytest.approx(limit, rel=1e-5)


def test_asymptote_at_right_angle_is_half_arcsine():
    # at chi = pi/2 the limiting value collapses to arcsin(theta)/2
    for th in (1e-4, 1e-2, 0.1, 0.5, 0.9):
        got = _asymptote(th, 0.5 * math.pi)
        assert got == pytest.approx(0.5 * math.asin(th), rel=1e-14)


def test_rotation_phase_is_continuous_and_increasing():
    th, chi = 0.5, 1.1
    deltas = np.linspace(0.0, math.tau, 2001)
    phis = np.concatenate([rotation_phase(d, th, chi) for d in deltas])
    assert np.all(np.diff(phis) > 0.0)
    assert phis[0] == 0.0
    assert phis[-1] == pytest.approx(math.tau, abs=1e-12)
    # no jump anywhere near the half turn
    assert np.max(np.abs(np.diff(phis))) < 0.02


def test_shift_approx_matches_half_angle_form():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        delta, th, chi = (rng.uniform(0.0, math.tau), rng.uniform(0.0, 0.99),
                          rng.uniform(0.0, math.pi))
        direct = rotation_shift_approx(delta, th, chi)[0]
        half = 2.0 * th * math.sin(chi) * math.sin(0.5 * delta) ** 2
        assert direct == pytest.approx(half, abs=1e-15)


def test_shift_matches_approx_to_second_order():
    th = 1e-5
    for delta in np.linspace(0.1, math.tau - 0.1, 23):
        for chi in np.linspace(0.0, math.pi, 7):
            s = (delta, th, chi)
            err = abs(abs(rotation_phase_shift(*s)) - rotation_shift_approx(*s))
            assert err < 10.0 * th * th


@pytest.mark.parametrize("theta_pf", [0.0, TH_CMB, 0.1, 0.5, 0.9])
def test_shift_is_the_negative_of_the_table_shift(theta_pf):
    # delta - phase against the table's dphi_ex, phase - delta: equal as
    # numbers, so a zero may differ in its sign
    deltas, chis = np.linspace(-7.0, 9.0, 161), [i * math.pi / 6.0 for i in range(7)]
    table = rotation_table(deltas, theta_pf, chis)
    shift = rotation_phase_shift(table[:, 0], theta_pf, table[:, 1])
    assert (shift == -table[:, 3]).all()


@given(st.lists(st.floats(-100.0, 100.0), max_size=6), st.floats(0.0, 1.0, exclude_max=True),
       st.lists(st.floats(0.0, math.pi), max_size=4))
@settings(max_examples=200, deadline=None)
def test_rotation_table_rows_equal_single_calls(deltas, theta_pf, chis):
    deltas = deltas + [0.0, math.pi, math.tau, -0.5 * math.pi, -math.tau]
    chis = chis + [0.0, math.pi]
    for th in (0.0, theta_pf):
        want = []
        for d in deltas:
            for chi in chis:
                s = (d, th, chi)
                phi = rotation_phase(*s)[0]
                approx = rotation_shift_approx(*s)[0]
                shift = wrap_angle(phi - d)[0]
                assert abs(shift) == abs(rotation_phase_shift(*s)[0])
                want.append((d, chi, wrap_angle(phi)[0], shift, approx, abs(abs(shift) - approx)))
        table = rotation_table(deltas, th, chis)
        assert table.shape == (len(want), 6)
        # the bits, so that -0.0 differs from 0.0
        assert table.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
