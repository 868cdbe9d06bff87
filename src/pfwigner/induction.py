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

Both constructions run over stacks: 1 or N pairs (a `PairStack`) or
momenta against a `LorentzTransform` of 1 or N rows, and every result
has one entry per row. A single pair or transform is a stack of one row.
Each comes in two steps: build the standard elements, then conjugate
and read the angle given them (`pf_wigner_from_elements`,
`standard_wigner_from_elements`), so a caller that needs several angles
at the same pairs builds each element once. Every function here runs
the rows it is given at once, so its working arrays grow with the stack:
at 16 384 random rows (3.0 MiB of inputs) the tracemalloc peak of
`pf_wigner` is 14.2 MiB and that of `standard_wigner` 10.6 MiB. A caller
that makes a long sweep cuts it into `minkowski.STACK_BLOCK` rows where
it makes the rows (`row_blocks`, with `rows_from` so that an error names
the row of the sweep), as `cli.cmd_boost_scan` and
`polarisation.anomalous_malus_curve` do.

The angle and the stabiliser test are computed at once. The reconstruction
residual, a diagnostic, is computed on its first read, from the Wigner
element, which the angle holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .closed_form import DomainError, boost_phase, rotation_phase
from .minkowski import (
    METRIC,
    LorentzTransform,
    PairStack,
    RowError,
    _boost_stack,
    _check_rows,
    _photon_tests,
    _rotation_stack,
    _rotation_z_to_stack,
    apply,
    boost_to,
    format_row,
    four_velocity,
    math_rows,
    minkowski_dot,
    rotation_about,  # noqa: F401  unused here, bound for benchmarks/test_benchmark.py
    row_dot,
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
    not bad user input. The message names the row, the pair, the gamma
    of the frame (paired route only) and the gamma of the transform.
    """


class GaugeDomainError(DomainError):
    """A pair whose gauge (`alignment_angle`) puts a closed form outside its
    domain, as when a frame speed rounds to 1. The message names the row,
    the closed form's input and the pair."""


# the vectors the little-group elements must fix: the reference null
# vector q at kappa = 1, which scales with the kappa of each pair, and the
# rest four-velocity
_Q_UNIT = np.array([1.0, 0.0, 0.0, 1.0])
_U_REST = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class WignerAngle:
    """Extracted little-group angle: arrays with one entry per row.

    stabiliser: max deviation of the element on the vectors it must fix.
    residual: max deviation of the element from the exact form implied
    by the angle (a z-rotation for the pair construction, a null
    translation times a z-rotation for the standard one). It is computed
    on its first read and kept. The angle holds the Wigner element it
    was computed from, bound into the `_rebuild` call that gives the
    residual.
    """

    phi: np.ndarray
    stabiliser: np.ndarray
    _rebuild: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def residual(self) -> np.ndarray:
        return self._rebuild()


def _direction_after(boost: np.ndarray, k: np.ndarray) -> np.ndarray:
    kp = (METRIC @ np.swapaxes(boost, 1, 2) @ METRIC @ k[:, :, None])[:, :, 0]
    return unit_rows(kp[:, 1:])


def _stack_rows(*lengths: int) -> int:
    """The rows of stacks of these lengths, each 1 or N, as numpy broadcasts
    them: a stack of one row is shared, also by a stack of none."""
    n = max((m for m in lengths if m != 1), default=1)
    if any(m not in (1, n) for m in lengths):
        raise ValueError(f"stacks of {lengths} rows do not match")
    return n


def _row(x, i: int):
    return x[0 if len(x) == 1 else i]


def _gamma(L: LorentzTransform, i: int) -> str:
    return f"transform gamma={_row(L.m, i)[0, 0]:.10g}"


def direction_in_pf(pairs: PairStack) -> np.ndarray:
    """The (N,3) unit photon directions seen from the distinguished
    frame's rest coordinates."""
    return _direction_after(boost_to(pairs.u).m, pairs.k)


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
    # np.cross's own products and differences, without its axis moves
    (kx, ky, kz), (tx, ty, tz) = kh.T, th_vec.T
    cross = np.stack([ky * tz - kz * ty, kz * tx - kx * tz, kx * ty - ky * tx], axis=-1)
    chi = math_rows(math.atan2, np.sqrt(row_dot(cross, cross)), row_dot(kh, th_vec))
    tv = (np.swapaxes(_rotation_z_to_stack(kh)[:, 1:, 1:], 1, 2) @ th_vec[:, :, None])[:, :, 0]
    alpha = math_rows(math.atan2, tv[:, 1], tv[:, 0])
    rest = th == 0.0
    return th, np.where(rest, 0.0, chi), np.where(rest, 0.0, alpha)


def alignment_angle(pairs: PairStack) -> np.ndarray:
    """SO(2) gauge h(k, u) of the pair standard element, one entry per row.

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
    th, chi, alpha = _pair_angles(pairs)
    u_perp = pairs.u[:, 0] * th * math_rows(math.sin, chi)
    th_apex = u_perp / np.sqrt(1.0 + u_perp * u_perp)
    v_star = th * math_rows(math.cos, chi)
    # rotation_phase on [0, 2pi), shifted to the (-pi, pi] branch so that
    # alpha -> phase(alpha) is continuous through alpha = 0
    turned = alpha >= 0.0
    try:
        h = -boost_phase(v_star, th_apex, 0.5 * math.pi)
        phase = rotation_phase(np.where(turned, alpha, alpha + math.tau), th, chi)
    except DomainError as exc:
        i = exc.row
        raise GaugeDomainError(i, f"{exc.reason} in the gauge of the pair "
                                  f"(k={format_row(pairs.k[i])}, u={format_row(pairs.u[i])})") from exc
    return np.where(th == 0.0, 0.0, h + (alpha - np.where(turned, phase, phase - math.tau)))


def bench_pair(theta_pf, chi) -> PairStack:
    """The bench configurations: unit photon along z-hat, frame velocity of
    speed theta_pf at angle chi to it, in the x-z plane; floats give one
    row, (N,) arrays (floats among them shared) N rows. A row with
    theta_pf = 0 has the frame exactly at rest, u = (1, 0, 0, 0)."""
    theta_pf, chi = np.broadcast_arrays(np.asarray(theta_pf, dtype=float).reshape(-1),
                                        np.asarray(chi, dtype=float).reshape(-1))
    v = np.zeros((len(chi), 3))
    v[:, 0] = theta_pf * math_rows(math.sin, chi)
    v[:, 2] = theta_pf * math_rows(math.cos, chi)
    u = np.where((theta_pf == 0.0)[:, None], _U_REST, four_velocity(v))
    return PairStack(np.tile(_Q_UNIT, (len(u), 1)), u)


def pf_standard_element(pairs: PairStack) -> LorentzTransform:
    """The (N,4,4) stack of the transforms carrying (q, u_rest) to each
    pair (k, u), with the pinned gauge.

    The three factors are built unchecked from the validated pairs, and
    the element they make is validated once."""
    b = _boost_stack(pairs.u)
    n = _direction_after(b, pairs.k)
    return LorentzTransform(b @ _rotation_z_to_stack(n)
                            @ _rotation_stack(Z_AXIS, alignment_angle(pairs)))


def transform_pair(pairs: PairStack, L: LorentzTransform) -> PairStack:
    """The pairs (Lk, Lu), validated, with a row per pair or per transform."""
    return PairStack(apply(L, pairs.k), apply(L, pairs.u))


def pf_wigner(pairs: PairStack, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at the pair (k, u).

    Conjugates L by the pair standard elements, checks the result fixes
    both q and the rest four-velocity, and reads the z-rotation angle
    from the (y,x), (x,x) entries.

    pairs and L each have 1 or N rows, and row i is pair i (or the one
    pair) under transform i (or the one transform). The element of each
    given pair is built once, that of each moved pair too, and both go to
    `pf_wigner_from_elements` with every row at once.
    """
    _stack_rows(len(pairs), len(L))
    return pf_wigner_from_elements(pairs, pf_standard_element(pairs).m, L,
                                   pf_standard_element(transform_pair(pairs, L)).m)


def pf_wigner_from_elements(pairs: PairStack, s1: np.ndarray, L: LorentzTransform,
                            s2: np.ndarray) -> WignerAngle:
    """`pf_wigner` of the pairs under L, given their standard elements.

    s1 is the (1 or N, 4, 4) stack of `pf_standard_element(pairs)` and s2
    that of the moved pairs, `transform_pair(pairs, L)`; rows pair up as
    in `pf_wigner`. The phase is the angle of the Wigner element
    W = S(Lp)^-1 L S(p) = eta s2^T eta L s1. This runs the stabiliser test
    and the angle extraction of `pf_wigner` on the rows it is given, at
    once, and returns arrays of N (the residual is rebuilt from W when it
    is read); its StabilityError names the row of the given stacks. A
    caller that needs several angles at the same pairs builds each
    element once and passes it to each call.
    """
    _stack_rows(len(pairs), len(s1), len(L), len(s2))
    w = METRIC @ np.swapaxes(s2, 1, 2) @ METRIC @ L.m @ s1

    q = pairs.kappa[:, None] * _Q_UNIT
    stab = np.maximum(np.abs((w @ q[:, :, None])[:, :, 0] - q).max(axis=1),
                      np.abs(w @ _U_REST - _U_REST).max(axis=1))
    _check_rows([(stab <= STABILISER_TOL,
                  lambda i: f"pair moved by {stab[i]:.3e} (k={format_row(_row(pairs.k, i))}, "
                            f"u={format_row(_row(pairs.u, i))}, "
                            f"frame gamma={_row(pairs.u, i)[0]:.10g}, {_gamma(L, i)})")],
                error=StabilityError)

    return WignerAngle(_pf_angle(w), stab, partial(_pf_residual, w))


def _pf_angle(w: np.ndarray) -> np.ndarray:
    return math_rows(math.atan2, w[:, 2, 1], w[:, 1, 1])


def _pf_residual(w: np.ndarray) -> np.ndarray:
    """max |W - Rz(phi)| of each row: the pair element's departure from
    the z-rotation of its angle."""
    return np.abs(w - _rotation_stack(Z_AXIS, _pf_angle(w))).max(axis=(1, 2))


def massless_standard_element(k: np.ndarray) -> np.ndarray:
    """The (N,4,4) stack of standard elements L_k = R_khat B_z(|k|) of the
    pairless route, one per row of an (N,4) array of photon momenta
    (see `photon_momenta`); B_z rescales the reference null vector
    (1;0,0,1) by |k| along the light cone. The rotation comes from the
    kernel unchecked; the stabiliser test checks the Wigner element."""
    r = k[:, 0]
    c = 0.5 * (r + 1.0 / r)
    s = 0.5 * (r - 1.0 / r)
    bz = np.tile(np.eye(4), (len(k), 1, 1))
    bz[:, 0, 0] = bz[:, 3, 3] = c
    bz[:, 0, 3] = bz[:, 3, 0] = s
    return _rotation_z_to_stack(unit_rows(k[:, 1:])) @ bz


def euclidean_element(alpha, beta) -> LorentzTransform:
    """Null translations T(alpha, beta), the E(2) part that is not a
    rotation: the (N,4,4) stack for arrays of N, one row for floats."""
    return LorentzTransform(_euclidean_stack(alpha, beta))


def _euclidean_stack(alpha, beta) -> np.ndarray:
    """The (N,4,4) array of `euclidean_element` of (1 or N) alphas and
    (1 or N) betas, unchecked."""
    a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float).reshape(-1),
                               np.asarray(beta, dtype=float).reshape(-1))
    z = 0.5 * (a * a + b * b)
    m = np.tile(np.eye(4), (len(z), 1, 1))
    m[:, 0] = np.stack([1.0 + z, a, b, -z], axis=1)
    m[:, 1, 0], m[:, 1, 3] = a, -a
    m[:, 2, 0], m[:, 2, 3] = b, -b
    m[:, 3] = np.stack([z, a, b, 1.0 - z], axis=1)
    return m


def photon_momenta(k) -> np.ndarray:
    """An (N,4) array of momenta, each row tested as a photon momentum:
    null, with positive energy. A failing row is named with its k."""
    k = np.asarray(k, dtype=float)
    _check_rows(_photon_tests(k), lambda i: f"k={format_row(k[i])}")
    return k


def standard_wigner(k, L: LorentzTransform) -> WignerAngle:
    """Little-group angle of L at k for the pairless (E(2)) construction.

    The conjugated element is a null translation times a z-rotation.
    Null translations shift e_x by multiples of q, which are
    eta-orthogonal to e_x and e_y, so the rotation angle survives in
    cos phi = -eta(E e_x, e_x), sin phi = -eta(E e_x, e_y).

    k is an (N,4) array of momenta; rows pair up with the transforms as
    in `pf_wigner`, and the elements of k and of the moved momenta go to
    `standard_wigner_from_elements` with every row at once.
    """
    k = photon_momenta(k)
    _stack_rows(len(k), len(L))
    return standard_wigner_from_elements(k, massless_standard_element(k), L,
                                         massless_standard_element(apply(L, k)))


def standard_wigner_from_elements(k: np.ndarray, e1: np.ndarray, L: LorentzTransform,
                                  e2: np.ndarray) -> WignerAngle:
    """`standard_wigner` of the momenta k under L, given their standard
    elements.

    k is an (N,4) array from `photon_momenta`, e1 the (1 or N, 4, 4) stack
    of `massless_standard_element(k)` and e2 that of the moved momenta
    `apply(L, k)`. Like `pf_wigner_from_elements`, this runs the
    stabiliser test and the angle extraction on the rows it is given, at
    once, and returns arrays of N, with the reconstruction residual
    rebuilt from the element when it is read.
    """
    _stack_rows(len(k), len(e1), len(L), len(e2))
    e = METRIC @ np.swapaxes(e2, 1, 2) @ METRIC @ L.m @ e1

    stab = np.abs(e @ _Q_UNIT - _Q_UNIT).max(axis=1)
    _check_rows([(stab <= STABILISER_TOL,
                  lambda i: f"reference null vector moved by {stab[i]:.3e} "
                            f"(k={format_row(_row(k, i))}, {_gamma(L, i)})")],
                error=StabilityError)

    return WignerAngle(_standard_angle(e), stab, partial(_standard_residual, e))


def _standard_angle(e: np.ndarray) -> np.ndarray:
    eex = e @ _E_X
    return math_rows(math.atan2, -minkowski_dot(eex, _E_Y), -minkowski_dot(eex, _E_X))


def _standard_residual(e: np.ndarray) -> np.ndarray:
    """max |E - T(alpha, beta) Rz(phi)| of each row: the pairless element's
    departure from the null translation and z-rotation it is read as."""
    phi = _standard_angle(e)
    t = e @ _rotation_stack(Z_AXIS, -phi)
    rebuilt = _euclidean_stack(t[:, 1, 0], t[:, 2, 0]) @ _rotation_stack(Z_AXIS, phi)
    return np.abs(e - rebuilt).max(axis=(1, 2))


def phase_difference(pairs: PairStack, L: LorentzTransform) -> np.ndarray:
    """Wrapped difference between the pair angle and the pairless angle of
    L, one entry per row."""
    return wrap_angle(pf_wigner(pairs, L).phi - standard_wigner(pairs.k, L).phi)
