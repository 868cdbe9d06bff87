"""Stacked calls against their single calls, bit for bit.

Every row of a stacked call must equal the call made with that row
alone, a one-row PairStack or a one-row transform: the stacked code is
the single code run over N rows, not an approximation of it. The drawn
pairs cover each branch of the construction: a frame at rest, a frame
velocity parallel and antiparallel to the photon, a photon along -z (the
tie-break of `rotation_z_to`) and two pairs that differ only in the sign
of a zero.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfwigner import (
    DomainError,
    IDENTITY,
    LorentzTransform,
    PairStack,
    StabilityError,
    alignment_angle,
    anomalous_malus_curve,
    apply,
    bench_pair,
    boost_from_velocity,
    boost_phase,
    compose,
    four_velocity,
    malus_probability,
    massless_standard_element,
    monte_carlo_malus,
    pf_standard_element,
    pf_wigner,
    pf_wigner_from_elements,
    phase_difference,
    photon_momenta,
    rotation_about,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
    rotation_table,
    rotation_z_to,
    standard_wigner,
    standard_wigner_from_elements,
    transform_pair,
    wrap_angle,
)
from pfwigner import checks, cli, closed_form, induction, minkowski
from pfwigner.checks import CHI_GRID, DELTA_GRID, THETA_GRID, V_GRID
from pfwigner.induction import Z_AXIS, _euclidean_stack, _gauge_stack
from pfwigner.minkowski import (METRIC, STACK_BLOCK, _photon_tests, _rotation_stack, along_z,
                                in_blocks)

from helpers import random_pair

Q = [1.0, 0.0, 0.0, 1.0]
U_REST = [1.0, 0.0, 0.0, 0.0]

# equal as values, but atan2 sends the frame azimuth to +pi or -pi
_G = 1.0 / math.sqrt(1.0 - 0.05)
SIGNED_ZERO_PAIRS = [PairStack([Q], [[_G, -0.2 * _G, zero, 0.1 * _G]]) for zero in (0.0, -0.0)]


def _joined(kins):
    """The one-row PairStacks kins as one stack."""
    return PairStack(np.concatenate([p.k for p in kins]), np.concatenate([p.u for p in kins]))


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


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
        u = [U_REST]
    else:
        d = {"parallel": kh, "antiparallel": -kh}.get(kind)
        u = four_velocity((draw(vectors) if d is None else d) * speed)
    return PairStack([[e, *(e * kh)]], u)


@st.composite
def transforms(draw):
    rot = rotation_about(draw(vectors), draw(st.floats(-math.pi, math.pi)))
    boost = boost_from_velocity(draw(vectors) * draw(st.floats(0.0, 0.9)))
    return draw(st.sampled_from([rot, boost, compose(boost, rot)]))


def _stack(ts):
    return LorentzTransform(np.concatenate([t.m for t in ts]))


def _assert_rows_equal(stacked, singles):
    # row i of the stacked call against the one entry of call i
    for field in ("phi", "residual", "stabiliser"):
        got = getattr(stacked, field)
        assert isinstance(got, np.ndarray) and got.shape == (len(singles),)
        assert all(getattr(w, field).shape == (1,) for w in singles)
        want = np.concatenate([getattr(w, field) for w in singles])
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=field)


@given(st.lists(st.tuples(pairs(), transforms()), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_stacked_rows_equal_single_calls(rows):
    kins = [k for k, _ in rows] + SIGNED_ZERO_PAIRS
    ts = [t for _, t in rows] + [rows[0][1]] * 2
    many = pf_wigner(_joined(kins), _stack(ts))
    one_pair = pf_wigner(kins[0], _stack(ts))
    std = standard_wigner(_joined(kins).k, _stack(ts))
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
    rows = [t.m[0] for t in ts]
    rows.insert(j, bad)
    with pytest.raises(ValueError, match=r"^row 0: ") as single:
        LorentzTransform(bad)
    with pytest.raises(ValueError, match=rf"^row {j}: ") as stacked:
        LorentzTransform(np.stack(rows))
    assert str(stacked.value) == f"row {j}: {single.value.reason}"


def test_bench_pair_rows_equal_one_row_calls():
    # theta 0 at chi above pi/2, where the computed velocity along z is -0.0
    th = np.array([0.0, 0.0, 1e-3, 0.5, 0.999999999, 0.3])
    chi = np.array([1.0, 2.0, 0.0, math.pi, 0.5, 2.5])
    many = bench_pair(th, chi)
    ones = [bench_pair(float(t), float(c)) for t, c in zip(th, chi)]
    assert all(len(p) == 1 for p in ones)
    np.testing.assert_array_equal(_bits(many.k), _bits(_joined(ones).k))
    np.testing.assert_array_equal(_bits(many.u), _bits(_joined(ones).u))
    # a float is shared by every row
    np.testing.assert_array_equal(_bits(bench_pair(0.5, chi).u),
                                  _bits(bench_pair(np.full(6, 0.5), chi).u))


def test_pair_stack_names_the_failing_row():
    k = np.tile([1.0, 0.0, 0.0, 1.0], (3, 1))
    u = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    k[2, 0] = 2.0
    with pytest.raises(ValueError, match=r"^row 2: k is not null \(k=\(2, 0, 0, 1\), u="):
        PairStack(k, u)


def test_stability_error_names_the_row_of_the_stack():
    # the one hostile pair is row 4
    kins = bench_pair(np.array([0.1] * 4 + [0.999999999, 0.2]), np.array([1.0] * 4 + [0.5, 2.0]))
    with pytest.raises(StabilityError, match=r"^row 4: pair moved by .* \(k=\(1, 0, 0, 1\), "
                                              r"u=\(22360.68009, .*, transform gamma=1\)$"):
        pf_wigner(kins, LorentzTransform(np.tile(np.eye(4), (6, 1, 1))))


def test_gauge_domain_error_names_the_row_of_the_stack():
    # row 4 moves the frame to a speed that rounds to 1 in alignment_angle
    kin = bench_pair(0.9, 1.5)
    boosts = [IDENTITY] * 4 + [boost_from_velocity([0.9999999999999999, 0.0, 0.0]), IDENTITY]
    with pytest.raises(DomainError) as exc:
        pf_wigner(kin, LorentzTransform(np.concatenate([L.m for L in boosts])))
    assert isinstance(exc.value, minkowski.RowError)
    assert str(exc.value) == ("row 4: theta_pf=1.0 outside [0.0, 1.0) in the gauge of the pair "
                              "(k=(67108864, 67108864, 0, 1), u=(292173655.6, 292173655.6, 0, "
                              "0.1460540433))")


def test_single_calls_name_row_0():
    # a single input is one row, so its message names row 0
    with pytest.raises(ValueError, match=r"^row 0: speed must be < 1$"):
        boost_from_velocity([0.0, 0.0, 1.5])
    with pytest.raises(ValueError, match=r"^row 1: speed must be < 1$"):
        boost_from_velocity([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]])
    with pytest.raises(ValueError, match=r"^row 0: k is not null \(k=\(2, 0, 0, 1\)\)$"):
        standard_wigner(np.array([[2.0, 0.0, 0.0, 1.0]]), IDENTITY)
    with pytest.raises(minkowski.RowValueError, match=r"^row 0: axis must be a unit vector$"):
        rotation_about([0.0, 0.0, 2.0], 0.1)
    with pytest.raises(minkowski.RowValueError,
                       match=r"^row 0: matrix does not preserve the metric \(err=.*\) \(gamma=2\)$"):
        LorentzTransform(2.0 * np.eye(4))


def test_stacks_of_zero_rows_give_empty_results():
    # a stack of no rows is a stack: every call on it returns no rows
    none = np.empty((0, 4))
    pairs, L = PairStack(none, none), LorentzTransform(np.empty((0, 4, 4)))
    assert rotation_about([0.0, 0.0, 1.0], np.array([])).m.shape == (0, 4, 4)
    assert rotation_about(np.empty((0, 3)), 0.3).m.shape == (0, 4, 4)
    angles = [pf_wigner(pairs, L), standard_wigner(none, L),
              # a pair of one row is shared by the no rows of a transform stack
              pf_wigner(bench_pair(0.3, 1.0), rotation_about([0.0, 0.0, 1.0], np.array([])))]
    for w in angles:
        assert all(getattr(w, f).shape == (0,) for f in ("phi", "stabiliser", "residual"))
    assert phase_difference(pairs, L).shape == (0,)


def test_in_blocks_of_no_rows_is_an_empty_float_array_and_makes_no_call():
    calls = []
    got = in_blocks(0, calls.append)
    assert got.dtype == np.float64 and got.shape == (0,)
    assert calls == []


def test_in_blocks_concatenates_its_blocks_and_names_the_row_of_the_range():
    # with STACK_BLOCK at 3, 8 rows are the blocks 0-2, 3-5 and 6-7; a
    # RowValueError for row 1 of the third block names row 7
    blocks = []

    def rows(block, bad=None):
        blocks.append((block.start, block.stop))
        if block.start == bad:
            raise minkowski.RowValueError(1, "speed must be < 1")
        return np.arange(block.start, block.stop, dtype=float)

    with mock.patch.object(minkowski, "STACK_BLOCK", 3):
        assert in_blocks(8, rows).tolist() == list(range(8))
        assert blocks == [(0, 3), (3, 6), (6, 8)]
        with pytest.raises(minkowski.RowValueError, match=r"^row 7: speed must be < 1$") as exc:
            in_blocks(8, lambda block: rows(block, bad=6))
    assert exc.value.row == 7


# --- elements built once and passed to each angle ----------------------------

def _assert_angle_bits_equal(got, want):
    for field in ("phi", "residual", "stabiliser"):
        assert (np.asarray(getattr(got, field)).view(np.uint64).tobytes()
                == np.asarray(getattr(want, field)).view(np.uint64).tobytes()), field


_ORACLES = {
    "boosts": (V_GRID, lambda v: boost_from_velocity(along_z(v)), boost_phase),
    "rotations": (DELTA_GRID, lambda d: rotation_about(Z_AXIS, d),
                  lambda d, th, chi: wrap_angle(rotation_phase(d, th, chi))),
}


@pytest.mark.parametrize("oracle", _ORACLES.values(), ids=_ORACLES.keys())
def test_bench_elements_built_once_equal_pf_wigner(oracle):
    # the oracle grid: each of the 28 bench elements built once and gathered
    # over the rows of its pair
    x_grid, transforms, closed = oracle
    x = np.array(x_grid)
    th, chi = np.repeat(THETA_GRID, len(CHI_GRID)), np.tile(CHI_GRID, len(THETA_GRID))
    bench, all_l = bench_pair(th, chi), transforms(x)
    pair_of, transform_of = np.divmod(np.arange(len(bench) * len(all_l)), len(all_l))
    pairs, L = bench[pair_of], all_l[transform_of]
    got = pf_wigner_from_elements(pairs, pf_standard_element(bench)[pair_of], L,
                                  pf_standard_element(transform_pair(pairs, L)))
    _assert_angle_bits_equal(got, pf_wigner(pairs, L))
    phi, want, stab = checks._bench_oracle(THETA_GRID, CHI_GRID, x_grid, transforms, closed)
    assert phi.view(np.uint64).tobytes() == got.phi.view(np.uint64).tobytes()
    assert stab == got.stabiliser.max()
    # each row's reference is the one-row closed form at its (x, theta, chi)
    one_row = [closed(x[i], th[j], chi[j]) for j, i in zip(pair_of, transform_of)]
    assert want.view(np.uint64).tobytes() == np.concatenate(one_row).view(np.uint64).tobytes()


def test_rotation_oracle_reference_is_that_of_the_rotation_tables(monkeypatch):
    # phi_ex of one `rotation_table` per theta, its delta-major rows put
    # chi-major: the reference the rotation oracle read before its rows
    # came from `_bench_oracle`
    tables = np.concatenate([
        rotation_table(DELTA_GRID, th, CHI_GRID)[:, 2]
        .reshape(len(DELTA_GRID), len(CHI_GRID)).T.ravel() for th in THETA_GRID])
    seen = []
    oracle = checks._bench_oracle

    def kept(*args):
        seen.append(oracle(*args))
        return seen[-1]

    monkeypatch.setattr(checks, "_bench_oracle", kept)
    assert checks.rotation_oracle_equivalence(DELTA_GRID, THETA_GRID, CHI_GRID, 1e-9).passed
    assert seen[0][1].view(np.uint64).tobytes() == tables.view(np.uint64).tobytes()


def _rotation_oracle_negated_where(monkeypatch, delta_grid, rows):
    # the rotation oracle's value with `rotation_phase` negated on the rows
    # (delta, theta, chi) where rows(delta, theta, chi) holds
    phase = closed_form.rotation_phase
    monkeypatch.setattr(closed_form, "rotation_phase", lambda d, th, chi: np.where(
        rows(d, th, chi), -1.0, 1.0) * phase(d, th, chi))
    return checks.rotation_oracle_equivalence(delta_grid, THETA_GRID, CHI_GRID, 1e-9).value


def test_rotation_oracle_fails_a_sign_flip_where_the_phase_is_not_zero(monkeypatch):
    # one row of the validate grids, its reference more than 0.5 from 0
    value = _rotation_oracle_negated_where(
        monkeypatch, DELTA_GRID, lambda d, th, chi: (d == DELTA_GRID[3]) & (th == 0.5)
        & (chi == CHI_GRID[2]))
    assert abs(rotation_phase(DELTA_GRID[3], 0.5, CHI_GRID[2])[0]) > 0.5
    assert value == math.inf


def test_rotation_oracle_compares_no_sign_where_the_phase_is_zero(monkeypatch):
    # at delta 1e-13 each reference is within 1e-12 of 0, and negating it
    # changes no |.| the check compares
    deltas = (1e-13, math.pi / 3)
    th, chi = np.repeat(THETA_GRID, len(CHI_GRID)), np.tile(CHI_GRID, len(THETA_GRID))
    assert (np.abs(rotation_phase(deltas[0], th, chi)) <= 1e-12).all()
    clean = checks.rotation_oracle_equivalence(deltas, THETA_GRID, CHI_GRID, 1e-9).value
    value = _rotation_oracle_negated_where(monkeypatch, deltas, lambda d, th, chi: d == deltas[0])
    assert math.isfinite(value) and value == clean


def _composition_draws(seed, pair, n=40):
    # x, L1 and L2 as the pair (pair=True) or pairless composition check
    # draws them: x is a PairStack, or the momenta k
    rng = np.random.default_rng(seed)
    k = checks._null_momenta(rng, n)
    x = PairStack(k, four_velocity(checks._velocities(rng, n))) if pair else photon_momenta(k)
    return x, checks._transforms(rng, n), checks._transforms(rng, n)


@pytest.mark.parametrize("seed", [2024, 7])
def test_pair_composition_elements_built_once_equal_independent_calls(seed):
    kin, l1, l2 = _composition_draws(seed, pair=True)
    l12 = compose(l2, l1)
    moved = transform_pair(kin, l1)
    s, s1 = pf_standard_element(kin), pf_standard_element(moved)
    w1, w2, w12 = pf_wigner(kin, l1), pf_wigner(moved, l2), pf_wigner(kin, l12)
    _assert_angle_bits_equal(pf_wigner_from_elements(kin, s, l1, s1), w1)
    _assert_angle_bits_equal(pf_wigner_from_elements(
        moved, s1, l2, pf_standard_element(transform_pair(moved, l2))), w2)
    _assert_angle_bits_equal(pf_wigner_from_elements(
        kin, s, l12, pf_standard_element(transform_pair(kin, l12))), w12)
    # the check gives what the independent calls give
    got = checks.composition_law_pair(seed, 40, 1e-9)
    stab = max(float(w.stabiliser.max()) for w in (w1, w2, w12))
    assert got == checks.CheckResult(checks._composition_defect(w1.phi, w2.phi, w12.phi), 1e-9,
                                     stab)


@pytest.mark.parametrize("seed", [2025, 7])
def test_standard_composition_elements_built_once_equal_independent_calls(seed):
    k, l1, l2 = _composition_draws(seed, pair=False)
    l12 = compose(l2, l1)
    k1 = apply(l1, k)
    e, e1 = massless_standard_element(k), massless_standard_element(k1)
    w1, w2, w12 = standard_wigner(k, l1), standard_wigner(k1, l2), standard_wigner(k, l12)
    _assert_angle_bits_equal(standard_wigner_from_elements(k, e, l1, e1), w1)
    _assert_angle_bits_equal(standard_wigner_from_elements(
        k1, e1, l2, massless_standard_element(apply(l2, k1))), w2)
    _assert_angle_bits_equal(standard_wigner_from_elements(
        k, e, l12, massless_standard_element(apply(l12, k))), w12)
    got = checks.composition_law_standard(seed, 40, 1e-9)
    assert got == checks.CheckResult(checks._composition_defect(w1.phi, w2.phi, w12.phi), 1e-9)


@pytest.mark.parametrize("check,validator,seed", [
    (checks.composition_law_pair, "transform_pair", 2024),
    (checks.composition_law_standard, "photon_momenta", 2025)], ids=["pair", "standard"])
def test_composition_checks_validate_every_moved_input(monkeypatch, check, validator, seed):
    # L1 x, L2 L1 x and (L2 L1) x each pass the route's validation once (the
    # pairless route also validates the drawn k)
    calls = []
    original = getattr(induction, validator)
    monkeypatch.setattr(induction, validator, lambda *args: calls.append(1) or original(*args))
    check(seed, 40, 1e-9)
    assert len(calls) == (3 if validator == "transform_pair" else 4)


def test_stability_error_of_given_elements_names_the_row_of_the_stack():
    # as test_stability_error_names_the_row_of_the_stack, through the
    # elements-given path: the hostile pair is row 4 of the given stacks
    pairs = bench_pair(np.array([0.1] * 4 + [0.999999999, 0.2]), np.array([1.0] * 4 + [0.5, 2.0]))
    L = LorentzTransform(np.tile(np.eye(4), (6, 1, 1)))
    s1 = pf_standard_element(pairs)
    s2 = pf_standard_element(transform_pair(pairs, L))
    with pytest.raises(StabilityError, match=r"^row 4: pair moved by .* \(k=\(1, 0, 0, 1\), "
                                              r"u=\(22360.68009, .*, transform gamma=1\)$"):
        pf_wigner_from_elements(pairs, s1, L, s2)


def test_pairless_stability_error_names_the_row_k_and_the_transform_gamma():
    # the one hostile transform is row 4, a boost along x of gamma 7e5;
    # both routes raise through one core, and this is the pairless text
    k = photon_momenta(np.tile(Q, (6, 1)))
    L = boost_from_velocity([[v, 0.0, 0.0] for v in (0.1, 0.2, 0.3, 0.4, 1.0 - 1e-12, 0.5)])
    text = (r"^row 4: reference null vector moved by 1\.443e-05 "
            r"\(k=\(1, 0, 0, 1\), transform gamma=707114\.6025\)$")
    with pytest.raises(StabilityError, match=text):
        standard_wigner(k, L)
    with pytest.raises(StabilityError, match=text):
        standard_wigner_from_elements(k, massless_standard_element(k), L,
                                      massless_standard_element(apply(L, k)))


@pytest.mark.parametrize("short", range(4))
def test_given_elements_reject_stacks_whose_rows_do_not_match(short):
    # each of the four stacks may have 1 or N rows, never another count
    pairs = bench_pair(np.array([0.1, 0.2, 0.3]), 1.0)
    L = boost_from_velocity(along_z([0.1, 0.2, 0.3]))
    k = photon_momenta(pairs.k)
    calls = [(pf_wigner_from_elements, [pairs, pf_standard_element(pairs), L,
                                        pf_standard_element(transform_pair(pairs, L))]),
             (standard_wigner_from_elements, [k, massless_standard_element(k), L,
                                              massless_standard_element(apply(L, k))])]
    lengths = re.escape(str(tuple(2 if i == short else 3 for i in range(4))))
    for f, args in calls:
        args[short] = args[short][:2]
        with pytest.raises(ValueError, match=rf"^stacks of {lengths} rows do not match$"):
            f(*args)


# --- the reconstruction residual, rebuilt when it is read ----------------------

# the two blocks of STACK_BLOCK + 3 rows
TWO_BLOCKS = (slice(0, STACK_BLOCK), slice(STACK_BLOCK, STACK_BLOCK + 3))


def _longer_than_a_block(seed=11):
    # STACK_BLOCK + 3 random pairs and transforms: two blocks
    rng, n = np.random.default_rng(seed), STACK_BLOCK + 3
    pairs = PairStack(checks._null_momenta(rng, n), four_velocity(checks._velocities(rng, n)))
    return pairs, checks._transforms(rng, n)


def _conjugated(e1, L, e2):
    return METRIC @ np.swapaxes(e2, 1, 2) @ METRIC @ L.m @ e1


def test_pf_residual_is_that_of_each_block_and_of_the_eager_formula():
    pairs, L = _longer_than_a_block()
    w_all = pf_wigner(pairs, L)
    got = w_all.residual
    blocks, eager, eager_stab = [], [], []
    for b in TWO_BLOCKS:
        p, l = pairs[b], L[b]
        s1, s2 = pf_standard_element(p), pf_standard_element(transform_pair(p, l))
        blocks.append(pf_wigner_from_elements(p, s1, l, s2).residual)
        # written out: max |W - Rz(phi)|
        w = _conjugated(s1, l, s2)
        phi = np.array([math.atan2(y, x) for y, x in zip(w[:, 2, 1], w[:, 1, 1])])
        eager.append(np.abs(w - _rotation_stack(Z_AXIS, phi)).max(axis=(1, 2)))
        # and max(|W q - q|, |W u_rest - u_rest|), q = kappa (1, 0, 0, 1)
        q = p.kappa[:, None] * np.array(Q)
        eager_stab.append(np.maximum(np.abs((w @ q[:, :, None])[:, :, 0] - q).max(axis=1),
                                     np.abs(w @ np.array(U_REST) - U_REST).max(axis=1)))
    assert got.shape == (STACK_BLOCK + 3,)
    assert _bits(got).tolist() == _bits(np.concatenate(blocks)).tolist()
    assert _bits(got).tolist() == _bits(np.concatenate(eager)).tolist()
    assert 0.0 < got.max() < 1e-9
    assert _bits(w_all.stabiliser).tolist() == _bits(np.concatenate(eager_stab)).tolist()
    assert 0.0 < w_all.stabiliser.max() < 1e-9


def test_standard_residual_is_that_of_each_block_and_of_the_eager_formula():
    pairs, L = _longer_than_a_block(12)
    k = photon_momenta(pairs.k)
    w_all = standard_wigner(k, L)
    got = w_all.residual
    blocks, eager, eager_stab = [], [], []
    for b in TWO_BLOCKS:
        kb, l = k[b], L[b]
        e1, e2 = massless_standard_element(kb), massless_standard_element(apply(l, kb))
        blocks.append(standard_wigner_from_elements(kb, e1, l, e2).residual)
        # written out: max |E - T(alpha, beta) Rz(phi)|
        e = _conjugated(e1, l, e2)
        e_x, e_y = np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])
        eex = e @ e_x
        phi = np.array([math.atan2(y, x) for y, x in zip(-minkowski.minkowski_dot(eex, e_y),
                                                         -minkowski.minkowski_dot(eex, e_x))])
        t = e @ _rotation_stack(Z_AXIS, -phi)
        rebuilt = _euclidean_stack(t[:, 1, 0], t[:, 2, 0]) @ _rotation_stack(Z_AXIS, phi)
        eager.append(np.abs(e - rebuilt).max(axis=(1, 2)))
        # and |E q - q|, q = (1, 0, 0, 1)
        eager_stab.append(np.abs(e @ np.array(Q) - Q).max(axis=1))
    assert got.shape == (STACK_BLOCK + 3,)
    assert _bits(got).tolist() == _bits(np.concatenate(blocks)).tolist()
    assert _bits(got).tolist() == _bits(np.concatenate(eager)).tolist()
    assert 0.0 < got.max() < 1e-9
    assert _bits(w_all.stabiliser).tolist() == _bits(np.concatenate(eager_stab)).tolist()
    assert 0.0 < w_all.stabiliser.max() < 1e-9


@pytest.fixture
def rebuilds(monkeypatch):
    """The number of residual rebuilds, one per angle whose residual is
    read, by route."""
    counts = {"pf": 0, "standard": 0}
    for route, name in (("pf", "_pf_residual"), ("standard", "_standard_residual")):
        def spy(element, _route=route, _rebuild=getattr(induction, name)):
            counts[_route] += 1
            return _rebuild(element)
        monkeypatch.setattr(induction, name, spy)
    return counts


def test_an_angle_rebuilds_its_residual_once_on_first_read(rebuilds):
    pairs, L = _longer_than_a_block()
    w = pf_wigner(pairs, L)
    assert rebuilds == {"pf": 0, "standard": 0}
    first = w.residual
    assert rebuilds == {"pf": 1, "standard": 0}
    assert w.residual is first and rebuilds["pf"] == 1


@pytest.mark.parametrize("args,per_route", [
    (None, 0),
    (["boost-scan"], 0),
    (["malus"], 0),
    (["wigner", "--transform", "boost:x:0.5"], 1),
], ids=["checks", "boost-scan", "malus", "wigner"])
def test_only_wigner_reads_a_residual(rebuilds, args, per_route, tmp_path):
    if args is None:
        assert all(r.passed for r in checks.run_checks(cli.CHECKS).values())
    else:
        assert cli.main(args + ["--output", str(tmp_path / "out")]) == 0
    assert rebuilds == {"pf": per_route, "standard": per_route}


def test_an_angle_is_compared_and_hashed_as_an_object():
    pairs = bench_pair(np.array([0.1, 0.2]), 1.0)
    L = boost_from_velocity(along_z([0.3, -0.4]))
    w, again = pf_wigner(pairs, L), pf_wigner(pairs, L)
    assert w == w and w != again and _bits(w.phi).tolist() == _bits(again.phi).tolist()
    assert len({w, again, w}) == 2
    assert repr(w) == f"WignerAngle(phi={w.phi!r}, stabiliser={w.stabiliser!r})"


# --- closed forms, the alignment angle and the check draws ---------------------

# rows every stacked closed-form example includes: theta 0, chi 0 and pi,
# signed zeros and negative speeds and angles
EDGE_BOOSTS = [(0.0, 0.0, 0.0), (-0.0, 0.3, 1.0), (0.5, 0.0, 2.0), (-0.7, 0.4, 0.0),
               (0.9, 0.2, math.pi), (-0.999, 0.99, 0.5 * math.pi)]
EDGE_ROTATIONS = [(0.0, 0.0, 0.0), (-0.0, 0.3, 1.0), (-2.0, 0.4, math.pi), (math.tau, 0.2, 0.0),
                  (-math.pi, 0.99, 0.5 * math.pi), (7.0, 0.0, 2.0)]

speeds = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
frame_speeds = st.floats(0.0, 1.0, exclude_max=True)
chis = st.floats(0.0, math.pi)


def _stacked_call(f, rows):
    # f of the rows at once: each argument the array of its column
    return f(*(np.array(col) for col in zip(*rows)))


def _assert_bits_equal(got, want):
    assert isinstance(got, np.ndarray) and got.shape == (len(want),)
    assert _bits(got).tolist() == _bits(want).tolist()


def _one_row_calls(f, rows):
    # f of each row alone, through its one-row call: a float is one row
    singles = [f(*row) for row in rows]
    assert all(isinstance(x, np.ndarray) and x.shape == (1,) for x in singles)
    return np.concatenate(singles)


@given(st.lists(st.tuples(speeds, frame_speeds, chis), max_size=20))
@settings(max_examples=100, deadline=None)
def test_stacked_boost_phase_equals_one_row_calls(rows):
    rows = rows + EDGE_BOOSTS
    _assert_bits_equal(_stacked_call(boost_phase, rows), _one_row_calls(boost_phase, rows))


@given(st.lists(st.tuples(st.floats(-20.0, 20.0), frame_speeds, chis), max_size=20))
@settings(max_examples=100, deadline=None)
def test_stacked_rotation_phase_equals_one_row_calls(rows):
    rows = rows + EDGE_ROTATIONS
    _assert_bits_equal(_stacked_call(rotation_phase, rows), _one_row_calls(rotation_phase, rows))


@given(st.lists(st.tuples(st.floats(-20.0, 20.0), frame_speeds, chis), max_size=20))
@settings(max_examples=100, deadline=None)
def test_stacked_rotation_shifts_equal_one_row_calls(rows):
    # with delta pi, and 3pi whose shift wraps
    rows = rows + EDGE_ROTATIONS + [(math.pi, 0.5, math.pi), (-3.0 * math.pi, 0.1, 1.0)]
    for f in (rotation_phase_shift, rotation_shift_approx):
        _assert_bits_equal(_stacked_call(f, rows), _one_row_calls(f, rows))


# the ends of (-pi, pi] and their neighbours, turns, signed zeros and a NaN
EDGE_ANGLES = [0.0, -0.0, math.nan, 1e300, -5e-324] + [
    x for k in (-3, -2, -1, 1, 2, 3) for x in (k * math.pi, np.nextafter(k * math.pi, 0.0),
                                            np.nextafter(k * math.pi, k * 10.0))]


@given(st.lists(st.floats(allow_infinity=False), max_size=20))
@settings(max_examples=100, deadline=None)
def test_wrap_angle_of_an_array_equals_one_row_calls(angles):
    angles = angles + EDGE_ANGLES
    _assert_bits_equal(wrap_angle(np.array(angles)),
                       _one_row_calls(wrap_angle, [(float(x),) for x in angles]))


# --- the Malus functions ----------------------------------------------------------

# cos^2 of 4.521248355076138 is 0.03609197133605738 by Python's float ** 2
# (libm pow) and 0.036091971336057384 by numpy's a ** 2 (a * a)
EDGE_MALUS = [(0.0, 4.521248355076138), (0.0, 0.0), (-0.0, 0.0), (0.3, 0.3 + 0.5 * math.pi),
              (-math.pi, math.pi), (1e-300, -5e-324)]


@given(st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)), max_size=20))
@settings(max_examples=100, deadline=None)
def test_malus_probability_of_arrays_equals_one_row_calls(rows):
    rows = rows + EDGE_MALUS
    got = malus_probability(*(np.array(col) for col in zip(*rows)))
    _assert_bits_equal(got, _one_row_calls(malus_probability, rows))
    # and the float formula, row by row: a numpy square fails here
    _assert_bits_equal(got, np.array([math.cos(big - theta) ** 2 for theta, big in rows]))


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), st.integers(1, 10**6),
       st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_monte_carlo_malus_of_an_array_equals_one_row_calls(ps, n_samples, seed):
    # row i of one call is the one-row call seeded seed + i
    ps = ps + [0.0, 1.0]
    _assert_bits_equal(monte_carlo_malus(np.array(ps), n_samples, seed),
                       _one_row_calls(lambda i, p: monte_carlo_malus(p, n_samples, seed + i),
                                      list(enumerate(ps))))


def _curve_of_one_row_calls(pair, theta, Theta0, deltas):
    # each delta through its own one-row call, checked against the float
    # formula of the pf_wigner angles of the rotations
    singles = _one_row_calls(lambda d: anomalous_malus_curve(pair, theta, Theta0, [d]),
                             [(d,) for d in deltas])
    phi = pf_wigner(pair, rotation_about(pair.k[0, 1:], np.array(deltas))).phi.tolist()
    _assert_bits_equal(singles, np.array([math.cos(Theta0 + d - theta - p) ** 2
                                          for d, p in zip(deltas, phi)]))
    return singles


# a block of 3 rows makes every curve of the examples span several blocks;
# frame speeds as in `pairs`, below those whose stabiliser test fails
@given(st.floats(0.0, 0.95), chis, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_malus_curve_equals_one_row_calls(theta_pf, chi, theta, Theta0, deltas):
    pair = bench_pair(theta_pf, chi)
    with mock.patch.object(minkowski, "STACK_BLOCK", 3):
        got = anomalous_malus_curve(pair, theta, Theta0, np.array(deltas))
    _assert_bits_equal(got, _curve_of_one_row_calls(pair, theta, Theta0, deltas))


def test_malus_curve_longer_than_a_block_equals_one_row_calls():
    pair = bench_pair(0.3, 1.1)
    deltas = np.linspace(-7.0, 7.0, STACK_BLOCK + 2)
    _assert_bits_equal(anomalous_malus_curve(pair, 0.2, 1.3, deltas),
                       _curve_of_one_row_calls(pair, 0.2, 1.3, deltas.tolist()))


def test_stacked_scenario_shares_its_float_fields():
    # a float is shared by every row
    got = boost_phase(np.array([0.1, -0.2]), 0.3, 1.0)
    _assert_bits_equal(got, boost_phase(np.array([0.1, -0.2]), np.array([0.3, 0.3]),
                                        np.array([1.0, 1.0])))
    assert got.tolist() == [boost_phase(v, 0.3, 1.0)[0] for v in (0.1, -0.2)]
    # floats alone are one row
    for x in (boost_phase(0.1, 0.3, 1.0), rotation_phase(0.1, 0.3, 1.0)):
        assert isinstance(x, np.ndarray) and x.shape == (1,)
    # 0-d arrays are one row
    _assert_bits_equal(boost_phase(np.array(0.1), 0.3, 1.0), boost_phase(0.1, 0.3, 1.0))
    _assert_bits_equal(rotation_phase(np.array(0.1), np.array(0.3), 1.0),
                       rotation_phase(0.1, 0.3, 1.0))
    with pytest.raises(DomainError, match=r"^row 0: v=1\.5 outside \(-1\.0, 1\.0\)$"):
        boost_phase(np.array(1.5), 0.3, 1.0)


anything = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([math.nan, math.inf, -math.inf, 1.0]))


@given(st.sampled_from([boost_phase, rotation_phase, rotation_phase_shift, rotation_shift_approx]),
       st.lists(st.tuples(anything, anything, anything), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_stacked_scenario_raises_as_its_first_failing_row(f, rows):
    want = None
    for i, row in enumerate(rows):
        try:
            f(*row)
        except DomainError as exc:
            assert exc.row == 0
            want = f"row {i}: {exc.reason}"
            break
    if want is None:
        _stacked_call(f, rows)
    else:
        with pytest.raises(DomainError) as got:
            _stacked_call(f, rows)
        assert str(got.value) == want


def test_stacked_scenario_with_a_bad_shared_field_names_the_first_row():
    # every row fails theta_pf; row 0 fails v first, as its one-row call
    with pytest.raises(DomainError, match=r"^row 0: v=1\.5 outside \(-1\.0, 1\.0\)$"):
        boost_phase(np.array([1.5, 0.2]), 1.0, 0.5)
    with pytest.raises(DomainError, match=r"^row 1: delta=nan is not finite$"):
        rotation_phase(np.array([0.1, math.nan]), 0.2, 0.5)


def _pair_angles(kin):
    # (theta, chi, alpha) of a one-row pair as floats: the frame speed,
    # the polar angle of the frame velocity from the photon direction by
    # atan2 of cross and dot, and its azimuth in the transverse frame
    # carried over from z-hat by the minimal rotation
    k, u = kin.k[0], kin.u[0]
    th_vec = u[1:] / u[0]
    th = math.sqrt(th_vec @ th_vec)
    kh = k[1:] / math.sqrt(k[1:] @ k[1:])
    cross = np.cross(kh, th_vec)
    t = rotation_z_to(kh).m[0, 1:, 1:].T @ th_vec
    return th, math.atan2(math.sqrt(cross @ cross), kh @ th_vec), math.atan2(t[1], t[0])


def _alignment_by_angles(kin):
    # the gauge h of a one-row pair by the angle route: one-row calls of
    # the public closed forms at the angles of the pair
    th, chi, alpha = _pair_angles(kin)
    if th == 0.0:
        return 0.0
    u_perp = float(kin.u[0, 0]) * th * math.sin(chi)
    th_apex = u_perp / math.sqrt(1.0 + u_perp * u_perp)
    h = -boost_phase(th * math.cos(chi), th_apex, 0.5 * math.pi)[0]
    if alpha >= 0.0:
        phase = rotation_phase(alpha, th, chi)[0]
    else:
        phase = rotation_phase(alpha + math.tau, th, chi)[0] - math.tau
    return h + (alpha - phase)


# the gauge rotation against Rz of the angle route's h: 1.3e-14 at most
# over 20 000 random pairs (seed 5)
GAUGE_TOL = 1e-13

# a frame at rest, one along the photon, one whose transverse velocity has
# t_x > 0 and two with t_x < 0 that differ only in the sign of a zero
EDGE_PAIRS = [bench_pair(0.0, 1.0), bench_pair(0.4, 0.0),
              PairStack([Q], four_velocity([0.3, -0.4, 0.1]))]
EDGE_PAIRS += SIGNED_ZERO_PAIRS


@given(st.lists(pairs(), max_size=8))
@settings(max_examples=60, deadline=None)
def test_stacked_alignment_angle_equals_single_calls(kins):
    kins = kins + EDGE_PAIRS
    singles = [alignment_angle(k) for k in kins]
    gauges = [_gauge_stack(k) for k in kins]
    assert all(h.shape == (1,) for h in singles)
    assert all(g.shape == (1, 4, 4) for g in gauges)
    _assert_bits_equal(alignment_angle(_joined(kins)), np.concatenate(singles))
    assert _bits(_gauge_stack(_joined(kins))).tolist() == _bits(np.concatenate(gauges)).tolist()
    by_angles = _rotation_stack(Z_AXIS, [_alignment_by_angles(k) for k in kins])
    assert np.abs(np.concatenate(gauges) - by_angles).max() <= GAUGE_TOL


def test_gauge_is_the_rotation_of_the_angle_route():
    # the section did not move: the kernel, which takes no angle, against
    # Rz(h) of h by the angle route, one pair at a time
    kins = random_pair(np.random.default_rng(5), 2000)
    by_angles = _rotation_stack(Z_AXIS, [_alignment_by_angles(kins[i:i + 1]) for i in range(len(kins))])
    assert np.abs(_gauge_stack(kins) - by_angles).max() <= GAUGE_TOL


def test_alignment_edge_pairs_cover_both_branches():
    # the kernel's stand-in for the half angle of alpha has one form where
    # t_x >= 0 and one where t_x < 0; t = 0 is alpha = 0
    cos_alphas = [math.cos(_pair_angles(k)[2]) for k in EDGE_PAIRS]
    assert min(cos_alphas) < 0.0 < max(cos_alphas)
    assert alignment_angle(EDGE_PAIRS[0])[0] == 0.0
    np.testing.assert_array_equal(_gauge_stack(EDGE_PAIRS[0]), [np.eye(4)])


# the random checks of `validate`, each called as (seed, n_draws, tol)
RANDOM_CHECKS = {
    "pair": checks.composition_law_pair,
    "standard": checks.composition_law_standard,
    "anchors": checks.standard_anchors,
    "reduction": checks.reduction_zero_theta,
}


# each draw function of `checks` built by hand: one array call per
# direction or number for all n rows, each direction scaled row by row,
# each transform from the public builders
def _random_direction(rng, n):
    return np.array([d / np.linalg.norm(d) for d in rng.standard_normal((n, 3))])


def _random_null(rng, n):
    d = _random_direction(rng, n)
    e = rng.uniform(0.2, 5.0, (n, 1))
    return np.concatenate((e, e * d), axis=1)


def _random_velocity(rng, n):
    return _random_direction(rng, n) * rng.uniform(0.0, 0.99, (n, 1))


def _random_transform(rng, n):
    rotation = rotation_about(_random_direction(rng, n), rng.uniform(-math.pi, math.pi, n))
    return compose(boost_from_velocity(_random_velocity(rng, n)), rotation)


PER_ROW_DRAWS = {
    "_directions": _random_direction,
    "_null_momenta": _random_null,
    "_velocities": _random_velocity,
    "_transforms": _random_transform,
}


@pytest.fixture
def draws(monkeypatch):
    """Each call of a draw function of `checks`, nested ones too: its name,
    n, the generator state before and after it, and what it returned."""
    calls = []
    for name in PER_ROW_DRAWS:
        def spy(rng, n, _name=name, _draw=getattr(checks, name)):
            before = rng.bit_generator.state
            got = _draw(rng, n)
            calls.append((_name, n, before, rng.bit_generator.state, got))
            return got
        monkeypatch.setattr(checks, name, spy)
    return calls


def _assert_unit(rows):
    assert (np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-15).all()


def _assert_in(x, lo, hi):
    assert ((lo <= x) & (x < hi)).all()


def _assert_null(k):
    _assert_in(k[:, 0], 0.2, 5.0)
    _assert_unit(k[:, 1:] / k[:, :1])
    assert all(ok.all() for ok, _ in _photon_tests(k))


def _assert_speeds(v):
    _assert_in(np.linalg.norm(v, axis=1), 0.0, 0.99)


def _assert_transforms(L):
    # a LorentzTransform is validated when it is built
    assert isinstance(L, LorentzTransform)


# what each draw function promises of its rows
PROMISES = {
    "_directions": _assert_unit,
    "_null_momenta": _assert_null,
    "_velocities": _assert_speeds,
    "_transforms": _assert_transforms,
}


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("check", RANDOM_CHECKS.values(), ids=RANDOM_CHECKS.keys())
def test_draws_keep_their_promises(draws, monkeypatch, check, n):
    # every draw the check makes keeps its function's promise, and every
    # rotation it makes, of a drawn transform or its own, is by an angle
    # in [-pi, pi)
    angles, rotate = [], minkowski._rotation_stack
    monkeypatch.setattr(minkowski, "_rotation_stack",
                        lambda axes, delta: angles.append(delta) or rotate(axes, delta))
    check(2024, n, 1.0)
    assert draws and angles
    for name, size, _, _, got in draws:
        assert size == len(got) == n
        PROMISES[name](got)
    _assert_in(np.concatenate(angles), -math.pi, math.pi)


def _assert_as_the_per_row_draw(name, n, before, after, got):
    # the bits of the per-row helper run from the same generator state, and
    # the state it leaves
    rng = np.random.default_rng()
    rng.bit_generator.state = before
    want = PER_ROW_DRAWS[name](rng, n)
    assert getattr(got, "m", got).tobytes() == getattr(want, "m", want).tobytes()
    assert rng.bit_generator.state == after


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("seed", [2024, 7])
def test_draws_are_one_array_call_per_draw_in_spec_order(draws, seed, n):
    rng = np.random.default_rng(seed)
    for name in PER_ROW_DRAWS:
        getattr(checks, name)(rng, n)
    # each function, and each draw function it calls
    assert len(draws) == 9
    for call in draws:
        _assert_as_the_per_row_draw(*call)


@pytest.mark.parametrize("seed", [2024, 2025, 7])
@pytest.mark.parametrize("check", RANDOM_CHECKS.values(), ids=RANDOM_CHECKS.keys())
def test_draws_equal_the_per_row_helpers(draws, check, seed):
    # each draw a check makes, at the generator state it makes it in
    check(seed, 300, 1.0)
    assert draws
    for call in draws:
        _assert_as_the_per_row_draw(*call)
