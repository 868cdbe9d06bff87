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

Both constructions run over stacks: one pair or N pairs against one
transform or N transforms, processed STACK_BLOCK rows at a time. A
single pair against a single transform is the N=1 case of the same code.
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
    PairStack,
    PhotonKinematics,
    RowError,
    _check_rows,
    _photon_tests,
    apply,
    boost_to,
    format_row,
    minkowski_dot,
    rotation_about,
    rotation_z_to,
    row_blocks,
    row_dot,
    rows_from,
    unit_rows,
    wrap_angle,
)

STABILISER_TOL = 1e-9
Z_AXIS = np.array([0.0, 0.0, 1.0])
_E_X = np.array([0.0, 1.0, 0.0, 0.0])
_E_Y = np.array([0.0, 0.0, 1.0, 0.0])


class StabilityError(RowError, RuntimeError):
    """The little-group element moved a vector it must fix.

    Signals a construction bug (or a numerically hostile transform),
    not bad user input. The message names the row, the pair and the
    gamma of the transform.
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


# the vectors the little-group elements must fix: q at kappa = 1, which
# scales with the kappa of each pair, and the rest four-velocity
_Q_UNIT = StandardPair().q.vec
_U_REST = StandardPair().u_pf.vec


@dataclass(frozen=True)
class WignerAngle:
    """Extracted little-group angle: floats for one pair under one
    transform, else arrays with one entry per row.

    residual: max deviation of the element from the exact form implied
    by the angle (a z-rotation for the pair construction, a null
    translation times a z-rotation for the standard one).
    stabiliser: max deviation of the element on the vectors it must fix.
    """

    phi: float | np.ndarray
    residual: float | np.ndarray
    stabiliser: float | np.ndarray = 0.0


def _direction_after(boost: np.ndarray, k: np.ndarray) -> np.ndarray:
    kp = (METRIC @ np.swapaxes(boost, 1, 2) @ METRIC @ k[:, :, None])[:, :, 0]
    return unit_rows(kp[:, 1:])


def _single(kin, L: LorentzTransform) -> bool:
    return isinstance(kin, (PhotonKinematics, FourVector)) and L.m.ndim == 2


def _stack_rows(*lengths: int) -> int:
    n = max(lengths)
    if any(m not in (1, n) for m in lengths):
        raise ValueError(f"stacks of {lengths} rows do not match")
    return n


def _rows(x, rows: slice):
    return x if len(x) == 1 else x[rows]


def _angles(parts: list, single: bool) -> WignerAngle:
    phi, residual, stab = (np.concatenate(col) for col in zip(*parts))
    if single:
        return WignerAngle(float(phi[0]), float(residual[0]), float(stab[0]))
    return WignerAngle(phi, residual, stab)


def _row(x, i: int):
    return x[0 if len(x) == 1 else i]


def _gamma(L: LorentzTransform, i: int) -> str:
    return f"transform gamma={_row(L.stack, i)[0, 0]:.10g}"


def _atan2_rows(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # math.atan2 per row: np.arctan2 can differ from it in the last bit
    return np.array([math.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())])


def direction_in_pf(kin):
    """Unit photon direction seen from the distinguished frame's rest
    coordinates; (N,3) for a PairStack."""
    pairs = PairStack.of(kin)
    n = _direction_after(boost_to(pairs.u).stack, pairs.k)
    return n if isinstance(kin, PairStack) else n[0]


def _pair_angles(pairs: PairStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, chi, alpha) of each pair: frame speed, polar angle of the
    frame velocity from the photon direction, and its azimuth in the
    transverse frame carried over from z-hat by the minimal rotation;
    all three are 0 for a frame at rest.

    chi comes from atan2 of cross and dot: arccos of a near-unit dot
    turns 1e-16 of rounding into 1e-8 of angle, which the alignment would
    then amplify.
    """
    th_vec = pairs.u[:, 1:] / pairs.u[:, :1]
    th = np.sqrt(row_dot(th_vec, th_vec))
    kh = unit_rows(pairs.k[:, 1:])
    cross = np.cross(kh, th_vec)
    chi = _atan2_rows(np.sqrt(row_dot(cross, cross)), row_dot(kh, th_vec))
    tv = (np.swapaxes(rotation_z_to(kh).stack[:, 1:, 1:], 1, 2) @ th_vec[:, :, None])[:, :, 0]
    alpha = _atan2_rows(tv[:, 1], tv[:, 0])
    rest = th == 0.0
    return th, np.where(rest, 0.0, chi), np.where(rest, 0.0, alpha)


def _rotation_phase_continued(alpha: float, th: float, chi: float) -> float:
    # rotation_phase on [0, 2pi), shifted to the (-pi, pi] branch so that
    # alpha -> phase(alpha) is continuous through alpha = 0
    if alpha >= 0.0:
        return rotation_phase(RotationScenario(alpha, th, chi))
    return rotation_phase(RotationScenario(alpha + math.tau, th, chi)) - math.tau


def _alignment(gamma: float, th: float, chi: float, alpha: float) -> float:
    if th == 0.0:
        return 0.0
    u_perp = gamma * th * math.sin(chi)
    th_apex = u_perp / math.sqrt(1.0 + u_perp * u_perp)
    v_star = th * math.cos(chi)
    h = -boost_phase(BoostScenario(v_star, th_apex, 0.5 * math.pi))
    return h + (alpha - _rotation_phase_continued(alpha, th, chi))


def alignment_angle(kin):
    """SO(2) gauge h(k, u) of the pair standard element; an array of one
    entry per row for a PairStack.

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
    pairs = PairStack.of(kin)
    h = [_alignment(*row) for row in zip(pairs.u[:, 0].tolist(),
                                         *(a.tolist() for a in _pair_angles(pairs)))]
    return np.array(h) if isinstance(kin, PairStack) else h[0]


def bench_pair(theta_pf: float, chi: float) -> PhotonKinematics:
    """The bench configuration: unit photon along z-hat, frame velocity of
    speed theta_pf at angle chi to it, in the x-z plane."""
    k = FourVector(1.0, 0.0, 0.0, 1.0)
    if theta_pf == 0.0:
        return PhotonKinematics(k, FrameVelocity.rest())
    v = [theta_pf * math.sin(chi), 0.0, theta_pf * math.cos(chi)]
    return PhotonKinematics(k, FrameVelocity.from_velocity(v))


def pf_standard_element(kin) -> LorentzTransform:
    """The transform carrying (q, u_rest) to (k, u), with the pinned gauge;
    for a PairStack, the (N,4,4) stack of each row's element."""
    pairs = PairStack.of(kin)
    b = boost_to(pairs.u).stack
    n = _direction_after(b, pairs.k)
    s = b @ rotation_z_to(n).stack @ rotation_about(Z_AXIS, alignment_angle(pairs)).stack
    return LorentzTransform(s if isinstance(kin, PairStack) else s[0])


def transform_pair(kin, L: LorentzTransform):
    """The pair (Lk, Lu), validated: a PhotonKinematics for one pair under
    one transform, else a PairStack with a row per pair or per transform."""
    pairs = PairStack.of(kin)
    k, u = apply(L, pairs.k), apply(L, pairs.u)
    if _single(kin, L):
        return PhotonKinematics(FourVector.from_array(k[0]),
                                FrameVelocity(FourVector.from_array(u[0])))
    return PairStack(k, u)


def pf_wigner(kin, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at the pair (k, u).

    Conjugates L by the pair standard elements, checks the result fixes
    both q and the rest four-velocity, and reads the z-rotation angle
    from the (y,x), (x,x) entries.

    kin is a PhotonKinematics or a PairStack, L a transform or a stack;
    each has 1 or N rows, and row i is pair i (or the one pair) under
    transform i (or the one transform). The element of each given pair
    is built once.
    """
    pairs = PairStack.of(kin)
    n = _stack_rows(len(pairs), len(L))
    s1 = pf_standard_element(pairs).stack if len(pairs) == 1 else None
    parts = []
    for rows in row_blocks(n):
        p = _rows(pairs, rows)
        with rows_from(rows.start):
            parts.append(_pf_wigner_rows(p, pf_standard_element(p).stack if s1 is None else s1,
                                         _rows(L, rows)))
    return _angles(parts, _single(kin, L))


def _pf_wigner_rows(pairs: PairStack, s1: np.ndarray, L: LorentzTransform):
    s2 = pf_standard_element(transform_pair(pairs, L)).stack
    w = METRIC @ np.swapaxes(s2, 1, 2) @ METRIC @ L.stack @ s1

    q = pairs.kappa[:, None] * _Q_UNIT
    stab = np.maximum(np.abs((w @ q[:, :, None])[:, :, 0] - q).max(axis=1),
                      np.abs(w @ _U_REST - _U_REST).max(axis=1))
    bad = ~(stab <= STABILISER_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        k, u = _row(pairs.k, i), _row(pairs.u, i)
        raise StabilityError(i, f"pair moved by {stab[i]:.3e} "
                                f"(k={format_row(k)}, u={format_row(u)}, {_gamma(L, i)})")

    phi = _atan2_rows(w[:, 2, 1], w[:, 1, 1])
    residual = np.abs(w - rotation_about(Z_AXIS, phi).stack).max(axis=(1, 2))
    return phi, residual, stab


def _massless_standard(k: np.ndarray) -> np.ndarray:
    # L_k = R_khat B_z(|k|/kappa_ref), kappa_ref = 1; B_z rescales the
    # reference null vector (1;0,0,1) by r along the light cone
    r = k[:, 0]
    c = 0.5 * (r + 1.0 / r)
    s = 0.5 * (r - 1.0 / r)
    bz = np.tile(np.eye(4), (len(k), 1, 1))
    bz[:, 0, 0] = bz[:, 3, 3] = c
    bz[:, 0, 3] = bz[:, 3, 0] = s
    return rotation_z_to(unit_rows(k[:, 1:])).stack @ bz


def euclidean_element(alpha, beta) -> LorentzTransform:
    """Null translation T(alpha, beta): the E(2) part that is not a rotation;
    the (N,4,4) stack for arrays of N."""
    stacked = np.ndim(alpha) == 1 or np.ndim(beta) == 1
    a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float).reshape(-1),
                               np.asarray(beta, dtype=float).reshape(-1))
    z = 0.5 * (a * a + b * b)
    m = np.tile(np.eye(4), (len(z), 1, 1))
    m[:, 0] = np.stack([1.0 + z, a, b, -z], axis=1)
    m[:, 1, 0], m[:, 1, 3] = a, -a
    m[:, 2, 0], m[:, 2, 3] = b, -b
    m[:, 3] = np.stack([z, a, b, 1.0 - z], axis=1)
    return LorentzTransform(m if stacked else m[0])


def standard_wigner(k, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at k for the pairless (E(2)) construction.

    The conjugated element is a null translation times a z-rotation.
    Null translations shift e_x by multiples of q, which are
    eta-orthogonal to e_x and e_y, so the rotation angle survives in
    cos phi = -eta(E e_x, e_x), sin phi = -eta(E e_x, e_y).

    k is a FourVector or an (N,4) array of momenta; rows pair up with the
    transforms as in `pf_wigner`.
    """
    single = isinstance(k, FourVector)
    ks = k.vec[None] if single else np.asarray(k, dtype=float)
    _check_rows(_photon_tests(ks), not single, lambda i: f"k={format_row(ks[i])}")
    n = _stack_rows(len(ks), len(L))
    e1 = _massless_standard(ks) if len(ks) == 1 else None
    parts = []
    for rows in row_blocks(n):
        kr = _rows(ks, rows)
        with rows_from(rows.start):
            parts.append(_standard_wigner_rows(kr, _massless_standard(kr) if e1 is None else e1,
                                               _rows(L, rows)))
    return _angles(parts, _single(k, L))


def _standard_wigner_rows(k: np.ndarray, e1: np.ndarray, L: LorentzTransform):
    e = METRIC @ np.swapaxes(_massless_standard(apply(L, k)), 1, 2) @ METRIC @ L.stack @ e1

    stab = np.abs(e @ _Q_UNIT - _Q_UNIT).max(axis=1)
    bad = ~(stab <= STABILISER_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise StabilityError(i, f"reference null vector moved by {stab[i]:.3e} "
                                f"(k={format_row(_row(k, i))}, {_gamma(L, i)})")

    eex = e @ _E_X
    phi = _atan2_rows(-minkowski_dot(eex, _E_Y), -minkowski_dot(eex, _E_X))

    # reconstruct T(alpha, beta) Rz(phi) and measure the leftover
    t = e @ rotation_about(Z_AXIS, -phi).stack
    rebuilt = euclidean_element(t[:, 1, 0], t[:, 2, 0]).stack @ rotation_about(Z_AXIS, phi).stack
    residual = np.abs(e - rebuilt).max(axis=(1, 2))
    return phi, residual, stab


def phase_difference(kin, L: LorentzTransform):
    """Wrapped difference between the pair angle and the pairless angle of
    L; an array of one entry per row for stacked input."""
    d = pf_wigner(kin, L).phi - standard_wigner(kin.k, L).phi
    return wrap_angle(d) if np.ndim(d) == 0 else np.array([wrap_angle(x) for x in d.tolist()])
