"""Little-group machinery for photon states.

Two constructions live here. `standard_wigner` is the usual massless one:
conjugating by the standard element L_k = R_khat B_z(|k|) lands in E(2),
and the SO(2) part of that is the phase. `pf_wigner` keys the standard
element to a pair (k, u) instead, where u is the four-velocity of a
distinguished frame; the stabiliser of the pair is SO(2), so the whole
little-group element is a z-rotation and the phase is read off directly.

The pair standard element is L_u R_n Rz(h): the boost taking the frame to
rest, the minimal rotation aligning the photon direction seen from that
frame, and an SO(2) alignment h(k, u) fixing the residual gauge of the
pair bundle. See `alignment_angle` for how h is pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import BoostScenario, RotationScenario, boost_phase, rotation_phase
from .minkowski import (
    METRIC,
    FourVector,
    FrameVelocity,
    LorentzTransform,
    PhotonKinematics,
    apply,
    boost_to,
    minkowski_dot,
    rotation_about,
    rotation_z_to,
    wrap_angle,
)

STABILISER_TOL = 1e-9
Z_AXIS = np.array([0.0, 0.0, 1.0])


class StabilityError(RuntimeError):
    """The little-group element moved a vector it must fix.

    Signals a construction bug (or a numerically hostile transform),
    not bad user input.
    """


@dataclass(frozen=True)
class StandardPair:
    """The reference pair: q = kappa*(1;0,0,1) and the rest four-velocity."""

    kappa: float = 1.0

    def __post_init__(self):
        if not (self.kappa > 0.0):
            raise ValueError("kappa must be positive")

    @property
    def q(self) -> FourVector:
        return FourVector(self.kappa, 0.0, 0.0, self.kappa)

    @property
    def u_pf(self) -> FourVector:
        return FourVector(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class WignerAngle:
    """Extracted little-group angle.

    residual: max deviation of the element from the exact form implied
    by the angle (a z-rotation for the pair construction, a null
    translation times a z-rotation for the standard one).
    stabiliser: max deviation of the element on the vectors it must fix.
    """

    phi: float
    residual: float
    stabiliser: float = 0.0


def direction_in_pf(kin: PhotonKinematics) -> np.ndarray:
    """Unit photon direction seen from the distinguished frame's rest coordinates."""
    kp = METRIC @ boost_to(kin.u).m.T @ METRIC @ kin.k.vec
    return kp[1:] / np.linalg.norm(kp[1:])


def _pair_angles(kin: PhotonKinematics) -> tuple[float, float, float]:
    """(theta, chi, alpha) of a pair: frame speed, polar angle of the frame
    velocity from the photon direction, and its azimuth in the transverse
    frame carried over from z-hat by the minimal rotation.

    chi comes from atan2 of cross and dot: arccos of a near-unit dot
    turns 1e-16 of rounding into 1e-8 of angle, which the alignment would
    then amplify.
    """
    th_vec = kin.u.theta_vector
    th = float(np.linalg.norm(th_vec))
    if th == 0.0:
        return 0.0, 0.0, 0.0
    kh = kin.k.spatial / np.linalg.norm(kin.k.spatial)
    chi = math.atan2(float(np.linalg.norm(np.cross(kh, th_vec))), float(kh @ th_vec))
    tv = rotation_z_to(kh).m[1:, 1:].T @ th_vec
    alpha = math.atan2(tv[1], tv[0])
    return th, chi, alpha


def _rotation_phase_continued(alpha: float, th: float, chi: float) -> float:
    # rotation_phase on [0, 2pi), shifted to the (-pi, pi] branch so that
    # alpha -> phase(alpha) is continuous through alpha = 0
    if alpha >= 0.0:
        return rotation_phase(RotationScenario(alpha, th, chi))
    return rotation_phase(RotationScenario(alpha + math.tau, th, chi)) - math.tau


def alignment_angle(kin: PhotonKinematics) -> float:
    """SO(2) gauge h(k, u) of the pair standard element.

    The stabiliser of the pair is SO(2), so after L_u R_n the standard
    element is fixed only up to a z-rotation. That residual gauge decides
    how the extracted angle distributes over the pair manifold, and it is
    pinned here by two requirements, each a closed-form route this library
    must agree with:

    * along orbits of boosts parallel to the photon, the angle accumulates
      `closed_form.boost_phase`. Such boosts compose by velocity addition
      in the coordinate v* = (velocity of the frame along the photon), so
      anchoring each orbit at its transverse point (chi = pi/2) and
      integrating boost_phase along it gives the boost part of h;
    * around the photon axis, the angle accumulates
      `closed_form.rotation_phase`. A rotation by delta advances the
      azimuth alpha of the frame velocity about the photon by delta, so
      the deficit alpha - rotation_phase(alpha) is the rotation part.
      rotation_phase(alpha + 2pi) = rotation_phase(alpha) + 2pi keeps it
      single-valued on the circle.

    h vanishes whenever the frame velocity is zero or parallel to the
    photon, and the construction stays an exact cocycle for any h, so
    composition and stabiliser properties are unaffected by the choice.
    """
    th, chi, alpha = _pair_angles(kin)
    if th == 0.0:
        return 0.0
    u_perp = kin.u.u.t * th * math.sin(chi)
    th_apex = u_perp / math.sqrt(1.0 + u_perp * u_perp)
    v_star = th * math.cos(chi)
    h = -boost_phase(BoostScenario(v_star, th_apex, 0.5 * math.pi))
    return h + (alpha - _rotation_phase_continued(alpha, th, chi))


def bench_pair(theta_pf: float, chi: float) -> PhotonKinematics:
    """The bench configuration: unit photon along z-hat, frame velocity of
    speed theta_pf at angle chi to it, in the x-z plane."""
    k = FourVector(1.0, 0.0, 0.0, 1.0)
    if theta_pf == 0.0:
        return PhotonKinematics(k, FrameVelocity.rest())
    v = [theta_pf * math.sin(chi), 0.0, theta_pf * math.cos(chi)]
    return PhotonKinematics(k, FrameVelocity.from_velocity(v))


def pf_standard_element(kin: PhotonKinematics) -> LorentzTransform:
    """The transform carrying (q, u_rest) to (k, u), with the pinned gauge."""
    n = direction_in_pf(kin)
    m = boost_to(kin.u).m @ rotation_z_to(n).m @ rotation_about(Z_AXIS, alignment_angle(kin)).m
    return LorentzTransform(m)


def transform_pair(kin: PhotonKinematics, L: LorentzTransform) -> PhotonKinematics:
    """The pair (Lk, Lu) as a validated PhotonKinematics."""
    return PhotonKinematics(apply(L, kin.k), FrameVelocity(apply(L, kin.u.u)))


def pf_wigner(kin: PhotonKinematics, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at the pair (k, u).

    Conjugates L by the pair standard elements, checks the result fixes
    both q and the rest four-velocity, and reads the z-rotation angle
    from the (y,x), (x,x) entries.
    """
    kin2 = transform_pair(kin, L)
    s1 = pf_standard_element(kin)
    s2 = pf_standard_element(kin2)
    w = METRIC @ s2.m.T @ METRIC @ L.m @ s1.m

    pair = StandardPair(kin.kappa)
    stab = max(
        float(np.abs(w @ pair.q.vec - pair.q.vec).max()),
        float(np.abs(w @ pair.u_pf.vec - pair.u_pf.vec).max()),
    )
    if stab > STABILISER_TOL:
        raise StabilityError(f"pair moved by {stab:.3e}")

    phi = math.atan2(w[2, 1], w[1, 1])
    residual = float(np.abs(w - rotation_about(Z_AXIS, phi).m).max())
    return WignerAngle(phi=phi, residual=residual, stabiliser=stab)


def _massless_standard(k: FourVector) -> np.ndarray:
    # L_k = R_khat B_z(|k|/kappa_ref), kappa_ref = 1; B_z rescales the
    # reference null vector (1;0,0,1) by r along the light cone
    r = k.t
    c = 0.5 * (r + 1.0 / r)
    s = 0.5 * (r - 1.0 / r)
    bz = np.array([
        [c, 0.0, 0.0, s],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [s, 0.0, 0.0, c],
    ])
    kh = k.spatial / np.linalg.norm(k.spatial)
    return rotation_z_to(kh).m @ bz


def euclidean_element(alpha: float, beta: float) -> LorentzTransform:
    """Null translation T(alpha, beta): the E(2) part that is not a rotation."""
    z = 0.5 * (alpha * alpha + beta * beta)
    return LorentzTransform(np.array([
        [1.0 + z, alpha, beta, -z],
        [alpha, 1.0, 0.0, -alpha],
        [beta, 0.0, 1.0, -beta],
        [z, alpha, beta, 1.0 - z],
    ]))


def standard_wigner(k: FourVector, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at k for the pairless (E(2)) construction.

    The conjugated element is a null translation times a z-rotation.
    Null translations shift e_x by multiples of q, which are
    eta-orthogonal to e_x and e_y, so the rotation angle survives in
    cos phi = -eta(E e_x, e_x), sin phi = -eta(E e_x, e_y).
    """
    scale = max(1.0, k.t * k.t)
    if abs(k.norm2()) > 1e-12 * scale or k.t <= 0.0:
        raise ValueError("k must be null with positive energy")
    k2 = apply(L, k)
    e = METRIC @ _massless_standard(k2).T @ METRIC @ L.m @ _massless_standard(k)

    q = np.array([1.0, 0.0, 0.0, 1.0])
    stab = float(np.abs(e @ q - q).max())
    if stab > STABILISER_TOL:
        raise StabilityError(f"reference null vector moved by {stab:.3e}")

    ex = FourVector(0.0, 1.0, 0.0, 0.0)
    ey = FourVector(0.0, 0.0, 1.0, 0.0)
    eex = FourVector.from_array(e @ ex.vec)
    phi = math.atan2(-minkowski_dot(eex, ey), -minkowski_dot(eex, ex))

    # reconstruct T(alpha, beta) Rz(phi) and measure the leftover
    t = e @ rotation_about(Z_AXIS, -phi).m
    rebuilt = euclidean_element(float(t[1, 0]), float(t[2, 0])).m @ rotation_about(Z_AXIS, phi).m
    residual = float(np.abs(e - rebuilt).max())
    return WignerAngle(phi=phi, residual=residual, stabiliser=stab)


def phase_difference(kin: PhotonKinematics, L: LorentzTransform) -> float:
    """Wrapped difference between the pair angle and the pairless angle of L."""
    return wrap_angle(pf_wigner(kin, L).phi - standard_wigner(kin.k, L).phi)
