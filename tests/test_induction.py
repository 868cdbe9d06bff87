import math
import re

import numpy as np
import pytest

from pfwigner import (
    IDENTITY,
    DomainError,
    LorentzTransform,
    PairStack,
    StabilityError,
    alignment_angle,
    apply,
    bench_pair,
    boost_from_velocity,
    boost_phase,
    boost_to,
    compose,
    direction_in_pf,
    four_velocity,
    inverse,
    pf_standard_element,
    pf_wigner,
    phase_difference,
    rotation_about,
    rotation_phase,
    rotation_z_to,
    standard_wigner,
    transform_pair,
    wrap_angle,
)
from pfwigner.induction import _gauge_stack
from pfwigner.minkowski import STACK_BLOCK, RowValueError, along_z

from helpers import (
    null_translation,
    photon_direction,
    random_aligned_transform,
    random_null,
    random_pair,
    random_transform,
)

TH_CMB = 1.2336e-3
Z = np.array([0.0, 0.0, 1.0])
# the standard pair as rows: the reference null vector and the frame at rest
Q_UNIT = np.array([[1.0, 0.0, 0.0, 1.0]])
U_REST = np.array([[1.0, 0.0, 0.0, 0.0]])


# --- reference directions and the bench pairs ------------------------------


def test_direction_in_pf_at_rest_is_propagation_direction():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = random_null(rng)
        n = direction_in_pf(PairStack(k, U_REST))
        assert n.shape == (1, 3)
        np.testing.assert_allclose(n[0], photon_direction(k), atol=1e-14)


def test_direction_in_pf_matches_aberration_formula():
    # photon along x, frame motion along z with speed v: the direction in
    # the distinguished frame is (1/gamma, 0, -v) normalised
    v = 0.5
    g = 1.0 / math.sqrt(1.0 - v * v)
    kin = PairStack([[1.0, 1.0, 0.0, 0.0]], four_velocity([0.0, 0.0, v]))
    np.testing.assert_allclose(direction_in_pf(kin), [[1.0 / g, 0.0, -v]], atol=1e-15)


def test_bench_pair_geometry():
    th, chi = 0.3, 1.1
    kin = bench_pair(th, chi)
    assert len(kin) == 1
    np.testing.assert_array_equal(kin.k, Q_UNIT)
    tv = kin.u[0, 1:] / kin.u[0, 0]
    assert np.linalg.norm(tv) == pytest.approx(th, rel=1e-14)
    ang = math.atan2(math.hypot(tv[0], tv[1]), tv[2])
    assert ang == pytest.approx(chi, rel=1e-14)
    assert tv[1] == 0.0 and tv[0] >= 0.0


@pytest.mark.parametrize("theta_pf,reason", [
    (-0.5, "theta_pf=-0.5 outside [0.0, 1.0)"),
    (math.nan, "theta_pf=nan outside [0.0, 1.0)"),
    (1.0, "theta_pf=1.0 outside [0.0, 1.0)"),
])
def test_bench_pair_tests_its_frame_speed_as_the_closed_forms_do(theta_pf, reason):
    # a negative speed would move the frame against the direction chi names
    with pytest.raises(RowValueError, match=f"^row 1: {re.escape(reason)}$"):
        bench_pair(np.array([0.3, theta_pf]), 0.5)
    with pytest.raises(DomainError, match=f"^row 0: {re.escape(reason)}$"):
        boost_phase(0.1, theta_pf, 0.5)


def test_bench_pair_at_rest():
    # exactly the rest four-velocity, also where the computed zero velocity
    # along z would be -0.0 (chi > pi/2)
    for chi in (0.7, 2.0):
        kin = bench_pair(0.0, chi)
        assert kin.u.tobytes() == U_REST.tobytes()
    kins = bench_pair(np.array([0.0, 0.3, 0.0]), np.array([0.7, 2.0, 2.0]))
    assert kins.u[[0, 2]].tobytes() == np.tile(U_REST, (2, 1)).tobytes()


# --- the carrying element -------------------------------------------------


def test_alignment_angle_trivial_configurations():
    # at rest, and for motion along or orthogonal to the photon, the
    # section needs no extra spin about the momentum
    h = alignment_angle(bench_pair(np.array([0.0, 0.4, 0.4]), np.array([0.3, 0.0, 0.5 * math.pi])))
    assert h.shape == (3,)
    assert h[0] == 0.0
    assert np.abs(h[1:]).max() <= 1e-15


def test_carrier_maps_standard_pair_identically():
    S = pf_standard_element(PairStack(Q_UNIT, U_REST))
    np.testing.assert_allclose(S, [np.eye(4)], atol=1e-15)


def test_carrier_maps_standard_pair_to_target():
    rng = np.random.default_rng(32)
    for _ in range(200):
        kin = random_pair(rng)
        S = pf_standard_element(kin)[0]
        # the reference null vector at the pair's kappa
        q = kin.kappa[0] * Q_UNIT[0]
        np.testing.assert_allclose(S @ q, kin.k[0], atol=1e-10)
        np.testing.assert_allclose(S @ U_REST[0], kin.u[0], atol=1e-10)


# --- stacked standard elements ------------------------------------------


def test_standard_element_stack_is_its_factors_bit_exact():
    # reference: each element built straight from its factors, one pair at a time
    rng = np.random.default_rng(33)
    pairs = random_pair(rng, STACK_BLOCK + 1)
    stack = pf_standard_element(pairs)
    assert stack.shape == (len(pairs), 4, 4)
    for i, s in enumerate(stack):
        kin = pairs[i:i + 1]
        direct = (boost_to(kin.u).m[0] @ rotation_z_to(direction_in_pf(kin)[0]).m[0]
                  @ _gauge_stack(kin)[0])
        np.testing.assert_array_equal(s, direct)
        np.testing.assert_array_equal(pf_standard_element(kin), [direct])


def test_transform_pair_moves_both_members():
    rng = np.random.default_rng(33)
    kin = random_pair(rng)
    L = random_transform(rng)
    out = transform_pair(kin, L)
    assert isinstance(out, PairStack) and len(out) == 1
    np.testing.assert_allclose(out.k[0], L.m[0] @ kin.k[0], atol=1e-12)
    np.testing.assert_allclose(out.u[0], L.m[0] @ kin.u[0], atol=1e-12)


# --- frame-paired Wigner phase ---------------------------------------------


def test_pf_wigner_identity_is_zero():
    rng = np.random.default_rng(34)
    for _ in range(10):
        kin = random_pair(rng)
        w = pf_wigner(kin, compose(rotation_about(Z, 0.0), rotation_about(Z, 0.0)))
        assert w.phi.shape == w.stabiliser.shape == (1,)
        assert abs(w.phi[0]) < 1e-14
        assert w.stabiliser[0] < 1e-12


def test_pf_wigner_boost_frozen_example():
    w = pf_wigner(bench_pair(TH_CMB, 0.5 * math.pi), boost_from_velocity([0.0, 0.0, 0.5]))
    assert w.phi[0] == pytest.approx(0.00016527112326288887, rel=1e-12, abs=0.0)
    assert w.stabiliser[0] < 1e-12


def test_pf_wigner_collinear_boost_is_zero():
    for th in (1e-3, 0.1, 0.5):
        w = pf_wigner(bench_pair(th, 0.0), boost_from_velocity([0.0, 0.0, 0.7]))
        assert abs(w.phi[0]) < 1e-10


def test_pf_wigner_rotation_matches_closed_form():
    for d in (0.3, 0.5 * math.pi, 2.5):
        for th, chi in [(TH_CMB, 0.5 * math.pi), (0.1, 0.8), (0.5, 2.0)]:
            w = pf_wigner(bench_pair(th, chi), rotation_about(Z, d))
            want = wrap_angle(rotation_phase(d, th, chi))[0]
            assert w.phi[0] == pytest.approx(want, abs=1e-12)


def test_pf_wigner_rotation_off_the_bench_plane_follows_the_azimuth():
    # the bench pair turned about the photon by an azimuth a: a rotation by
    # delta about it advances a by delta, so the phase is rho(a + delta) -
    # rho(a), rho = rotation_phase at (theta, chi), not rho(delta). Here the
    # gauge reads the transverse frame velocity at every azimuth, not only
    # along +-x
    rng = np.random.default_rng(3)
    n = 400
    th, chi = rng.uniform(0.0, 0.9, n), rng.uniform(0.0, math.pi, n)
    a, d = rng.uniform(-math.pi, math.pi, (2, n))
    turned = transform_pair(bench_pair(th, chi), rotation_about(Z, a))
    phi = pf_wigner(turned, rotation_about(Z, d)).phi
    want = wrap_angle(rotation_phase(a + d, th, chi) - rotation_phase(a, th, chi))
    assert np.abs(wrap_angle(phi - want)).max() <= 1e-12
    # the azimuth matters: the bench-plane law misses these rows by up to pi
    assert np.abs(wrap_angle(phi - rotation_phase(d, th, chi))).max() > 3.0


def test_pf_wigner_boost_off_the_bench_plane_follows_the_azimuth():
    # the bench pair turned about the photon by an azimuth a, then boosted
    # by V along it: Rz(a) and Bz(V) commute, so the cocycle gives
    # boost_phase(V, theta, chi) + rho(a; theta', chi') - rho(a; theta, chi),
    # rho = rotation_phase and (theta', chi') the speed and angle of the
    # boosted frame
    rng = np.random.default_rng(4)
    n = 500
    th, chi = rng.uniform(0.0, 0.9, n), rng.uniform(0.0, math.pi, n)
    a, v = rng.uniform(-math.pi, math.pi, n), rng.uniform(-0.9, 0.9, n)
    turned = transform_pair(bench_pair(th, chi), rotation_about(Z, a))
    boost = boost_from_velocity(along_z(v))
    phi = pf_wigner(turned, boost).phi
    u = transform_pair(turned, boost).u
    vel = u[:, 1:] / u[:, :1]
    th_b = np.sqrt((vel * vel).sum(axis=1))
    chi_b = np.arctan2(np.hypot(vel[:, 0], vel[:, 1]), vel[:, 2])
    want = wrap_angle(boost_phase(v, th, chi) + rotation_phase(a, th_b, chi_b)
                      - rotation_phase(a, th, chi))
    assert np.abs(wrap_angle(phi - want)).max() <= 1e-12
    # the azimuth matters: the bench-plane law misses these rows by over 2
    assert np.abs(wrap_angle(phi - boost_phase(v, th, chi))).max() > 2.0


def test_thomas_angle_off_the_bench_plane_does_not_follow_the_azimuth():
    # the Thomas-Wigner rotation W = B(Bu)^-1 Bz(V) B(u) of the bench frame
    # turned about the photon by a, read about the transverse axis turned
    # with it: its angle is -2 boost_phase(V, theta, chi) at every a. The
    # rotation is physical and does not depend on a; the section's phase does
    rng = np.random.default_rng(6)
    n = 500
    th, chi = rng.uniform(0.0, 0.9, n), rng.uniform(0.0, math.pi, n)
    a, v = rng.uniform(-math.pi, math.pi, n), rng.uniform(-0.999, 0.999, n)
    turn = rotation_about(Z, a)
    u = apply(turn, bench_pair(th, chi).u)
    boost = boost_from_velocity(along_z(v))
    w = compose(inverse(boost_to(apply(boost, u))), compose(boost, boost_to(u)))
    turned_back = compose(inverse(turn), compose(w, turn)).m
    omega = np.arctan2(turned_back[:, 1, 3], turned_back[:, 3, 3])
    assert np.abs(-0.5 * omega - boost_phase(v, th, chi)).max() <= 1e-12
    # read about lab y instead, the angle misses these rows by over 0.9
    assert np.abs(-0.5 * np.arctan2(w.m[:, 1, 3], w.m[:, 3, 3])
                  - boost_phase(v, th, chi)).max() > 0.9


def test_pf_wigner_composition_sample():
    rng = np.random.default_rng(35)
    for _ in range(300):
        kin = random_pair(rng)
        l1, l2 = random_transform(rng), random_transform(rng)
        w1 = pf_wigner(kin, l1)
        w2 = pf_wigner(transform_pair(kin, l1), l2)
        w12 = pf_wigner(kin, compose(l2, l1))
        assert abs(wrap_angle(w12.phi - w1.phi - w2.phi)[0]) < 1e-9
        assert max(w1.stabiliser[0], w2.stabiliser[0], w12.stabiliser[0]) < 1e-9


def test_pf_wigner_rejects_degenerate_numerics():
    # gamma ~ 7e5 boosts lose too many digits to certify the stabiliser,
    # so the guard must refuse rather than return an unreliable angle
    kin = PairStack(Q_UNIT, U_REST)
    with pytest.raises(StabilityError, match="pair moved"):
        pf_wigner(kin, boost_from_velocity([0.0, 0.0, 1.0 - 1e-12]))


# --- frame-free Wigner phase -------------------------------------------------


def test_standard_wigner_boost_along_photon_is_zero():
    rng = np.random.default_rng(36)
    for _ in range(30):
        k = random_null(rng)
        L = boost_from_velocity(photon_direction(k) * rng.uniform(-0.99, 0.99))
        assert abs(standard_wigner(k, L).phi[0]) < 1e-10


def test_standard_wigner_rotation_about_photon_is_delta():
    rng = np.random.default_rng(37)
    for _ in range(30):
        k = random_null(rng)
        d = rng.uniform(-math.pi, math.pi)
        L = rotation_about(photon_direction(k), d)
        assert wrap_angle(standard_wigner(k, L).phi[0] - d) == pytest.approx(0.0, abs=1e-10)


def test_standard_wigner_requires_null_momentum():
    with pytest.raises(ValueError, match=r"^row 0: k is not null \(k=\(1, 0, 0, 0\.5\)\)$"):
        standard_wigner(np.array([[1.0, 0.0, 0.0, 0.5]]), rotation_about(Z, 0.3))


@pytest.mark.parametrize("k", [Q_UNIT[0], Q_UNIT[:, :3], Q_UNIT[None]], ids=["1d", "3-wide", "3d"])
def test_standard_wigner_requires_an_n_by_4_array_of_momenta(k):
    # as boost_to and PairStack do, a wrong shape is named before any row
    message = re.escape(f"expected an (N,4) array of photon momenta, got shape {k.shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        standard_wigner(k, IDENTITY)


def test_rotation_angle_recovered_under_translation_parts():
    """Little-group elements factor as T(a,b).Rz(phi); the returned angle
    must see through the translation factor."""
    rng = np.random.default_rng(38)
    for _ in range(200):
        a, b = rng.normal(size=2) * 2.0
        phi = rng.uniform(-math.pi, math.pi)
        elem = compose(LorentzTransform(null_translation(a, b)), rotation_about(Z, phi))
        w = standard_wigner(Q_UNIT, elem)
        assert wrap_angle(w.phi[0] - phi) == pytest.approx(0.0, abs=1e-10)
        assert w.stabiliser[0] < 1e-9


def test_euclidean_element_fixes_standard_momentum():
    elem = LorentzTransform(null_translation(0.7, -1.2))
    np.testing.assert_allclose(elem.m[0] @ Q_UNIT[0], Q_UNIT[0], atol=1e-12)


def test_standard_wigner_composition_sample():
    rng = np.random.default_rng(39)
    for _ in range(300):
        k = random_null(rng)
        l1, l2 = random_transform(rng), random_transform(rng)
        w1 = standard_wigner(k, l1)
        w2 = standard_wigner(apply(l1, k), l2)
        w12 = standard_wigner(k, compose(l2, l1))
        assert abs(wrap_angle(w12.phi - w1.phi - w2.phi)[0]) < 1e-9


# --- the observable difference ------------------------------------------------


def test_phase_difference_frozen_example():
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    got = phase_difference(kin, rotation_about(Z, 0.5 * math.pi))[0]
    assert got == pytest.approx(0.0012336003128758932, rel=5e-16, abs=0.0)


def test_phase_difference_sign_is_positive_for_quarter_turns():
    # orientation is part of the contract: a rotation about the photon
    # with the frame moving orthogonally advances the paired phase
    for d in (0.3, 1.0, 0.5 * math.pi, 3.0):
        kin = bench_pair(TH_CMB, 0.5 * math.pi)
        assert phase_difference(kin, rotation_about(Z, d))[0] > 0.0


def test_phase_difference_vanishes_at_rest_sample():
    rng = np.random.default_rng(40)
    for _ in range(60):
        k = random_null(rng)
        L = random_aligned_transform(rng, k)
        assert abs(phase_difference(PairStack(k, U_REST), L)[0]) < 1e-9


def test_phase_difference_vanishes_for_collinear_boost():
    kin = bench_pair(0.3, 0.0)
    L = boost_from_velocity([0.0, 0.0, 0.8])
    assert abs(phase_difference(kin, L)[0]) < 1e-10


def test_phase_difference_tracks_approximation():
    kin = bench_pair(TH_CMB, 0.5 * math.pi)
    for d in (0.5, 1.5, 3.0, 5.0):
        got = phase_difference(kin, rotation_about(Z, d))[0]
        approx = TH_CMB * (1.0 - math.cos(d))
        assert got == pytest.approx(approx, abs=5.0 * TH_CMB * TH_CMB)


# --- angles under exact transforms, to the sign of zero ---------------------

# the pairs: bench pairs of speed 0, 0.3 and 0.9 at chi 0, pi/2 and pi, and
# a photon along -z from a frame at rest and from one moving along x
K_MINUS_Z = np.array([[1.0, 0.0, 0.0, -1.0]])
SIGN_PAIRS = [bench_pair(th, chi) for th in (0.0, 0.3, 0.9) for chi in (0.0, math.pi / 2, math.pi)]
SIGN_PAIRS += [PairStack(K_MINUS_Z, U_REST), PairStack(K_MINUS_Z, four_velocity([0.5, 0.0, 0.0]))]
X, Y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
EXACT_TRANSFORMS = {
    "identity": IDENTITY,
    "rotation:z:0": rotation_about(Z, 0.0),
    "rotation:x:0": rotation_about(X, 0.0),
    "rotation:y:0": rotation_about(Y, 0.0),
    "boost:z:0": boost_from_velocity([0.0, 0.0, 0.0]),
    "rotation:z:pi": rotation_about(Z, math.pi),
    "rotation:x:pi": rotation_about(X, math.pi),
    "rotation:y:pi": rotation_about(Y, math.pi),
    "boost:z:0.5": boost_from_velocity([0.0, 0.0, 0.5]),
    "boost:x:0.5": boost_from_velocity([0.5, 0.0, 0.0]),
}
# the phi of pf_wigner at each of SIGN_PAIRS and of standard_wigner at k
# along +z and -z, as the two-product inverse gave them; each transform by
# 0 is the exact identity and gives the identity's angles
_AT_IDENTITY = ([0.0, 0.0, 0.0, 0.0, -3.0321606835661907e-34, -2.3613976759443123e-51, 0.0,
                 5.7686358901238614e-33, 3.528068985910851e-33, 0.0, 0.0], [-0.0, -0.0])
SIGNED_PHI = {
    "identity": _AT_IDENTITY,
    "rotation:z:0": _AT_IDENTITY,
    "rotation:x:0": _AT_IDENTITY,
    "rotation:y:0": _AT_IDENTITY,
    "boost:z:0": _AT_IDENTITY,
    "rotation:z:pi": ([math.pi, math.pi, math.pi, math.pi, -2.5322073455589984, math.pi, math.pi,
                       -0.9020536235925242, -math.pi, -math.pi, -2.0943951023931957],
                      [math.pi, -math.pi]),
    "rotation:x:pi": ([0.0, 0.0, 0.0, 0.0, -3.1415926535897922, -0.5203344602949408,
                       -5.551115123125789e-16, -math.pi, -1.3130908167785345, 0.0, -math.pi],
                      [-0.0, -0.0]),
    "rotation:y:pi": ([0.0, 0.0, 0.0, 0.0, 9.641439510373247e-35, -2.3613976759443114e-51,
                       8.862067098174736e-33, 3.303445561308201e-33, 1.5854020629989164e-32,
                       math.pi, 1.0471975511965979], [-0.0, -math.pi]),
    "boost:z:0.5": ([0.0, 0.0, 0.0, 0.0, 0.04111665993375892, 5.254340837819917e-18, 0.0,
                     0.1663947392887511, 2.471917665534779e-17, 0.0, -0.07167378445268269],
                    [-0.0, -0.0]),
    "boost:x:0.5": ([0.029975583298746375, 0.029975583298746375, 0.029975583298746375,
                     0.0448576336207654, 0.06521831716079143, 0.0038544378157036696,
                     0.03830029991886813, 0.1872043669040145, -0.1421171067491286,
                     -2.064419519094449, 2.1894579040664275], [-0.0, -math.pi]),
}


@pytest.mark.parametrize("name", SIGNED_PHI)
def test_angles_under_exact_transforms_keep_their_bits_and_sign_of_zero(name):
    # repr tells -0.0 from 0.0 and is exact for every float; the signbit is
    # checked on its own as well
    L = EXACT_TRANSFORMS[name]
    got = ([float(pf_wigner(pair, L).phi[0]) for pair in SIGN_PAIRS]
           + [float(standard_wigner(k, L).phi[0]) for k in (Q_UNIT, K_MINUS_Z)])
    want = [*SIGNED_PHI[name][0], *SIGNED_PHI[name][1]]
    assert [repr(x) for x in got] == [repr(x) for x in want]
    assert np.signbit(got).tolist() == np.signbit(want).tolist()
