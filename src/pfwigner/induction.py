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
pair bundle. See `alignment_angle` for how h is pinned. `_gauge_stack`
builds Rz(h) from the cosine and sine of each part of h, through the
helpers the closed forms use themselves, and reads the transverse frame
of the photon from `minkowski._z_frame`; like the kernels of the other
two factors, it makes no per-row `math` call.

Both constructions run over stacks: 1 or N pairs (a `PairStack`) or
momenta against a `LorentzTransform` of 1 or N rows, and every result
has one entry per row. A single pair or transform is a stack of one row.
Each comes in two steps: build the standard elements, then conjugate
and read the angle given them (`pf_wigner_from_elements`,
`standard_wigner_from_elements`), so a caller that needs several angles
at the same pairs builds each element once. The elements are unchecked
products of kernels, which the stabiliser test of the Wigner element
certifies; both routes form, test and read it in one core, `_wigner`.
Every function here runs the rows it is given at once, so its
working arrays grow with the stack: at 16 384 random rows (3.0 MiB of
inputs) the tracemalloc peak of `pf_wigner` is 11.0 MiB and that of
`standard_wigner` 8.8 MiB. A caller that makes a long sweep makes its
rows through `minkowski.in_blocks`, `minkowski.STACK_BLOCK` rows at a
time, so that an error names the row of the sweep, as
`cli.cmd_boost_scan`, `polarisation.anomalous_malus_curve` and the
oracle checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .closed_form import (
    DomainError,
    _boost_sine,
    _rotation_factors,
    _rotation_yx,
    _theta_test,
    _v_test,
)
from .minkowski import (
    LorentzTransform,
    PairStack,
    RowError,
    RowValueError,
    _array_rows,
    _boost_stack,
    _check_rows,
    _checked_rows,
    _eta_inverse,
    _finite_test,
    _photon_tests,
    _rotation_z_to_stack,
    _row_abs_max,
    _stack_rows,
    _z_frame,
    apply,
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
    not bad user input. The message names the row, the pair and its frame
    gamma (k alone on the pairless route) and the transform gamma.
    """


# the vectors the little-group elements must fix: the reference null
# vector q at kappa = 1, which scales with the kappa of each pair, and the
# rest four-velocity
_Q_UNIT = np.array([1.0, 0.0, 0.0, 1.0])
_U_REST = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class WignerAngle:
    """Extracted little-group angle: arrays with one entry per row.

    stabiliser: max deviation of the element on the vectors it must fix.
    A Lorentz element that fixes q and the rest four-velocity is exactly
    a z-rotation, and one that fixes q exactly a null translation times
    a z-rotation (Weinberg vol. 1 section 2.5), so the stabiliser test is
    what certifies the form that phi is read from.
    """

    phi: np.ndarray
    stabiliser: np.ndarray


def _direction_after(boost: np.ndarray, k: np.ndarray) -> np.ndarray:
    return unit_rows((_eta_inverse(boost) @ k[:, :, None])[:, 1:, 0])


def _row(x, i: int):
    return x[0 if len(x) == 1 else i]


def _gamma(L: LorentzTransform, i: int) -> str:
    return f"transform gamma={_row(L.m, i)[0, 0]:.10g}"


def _pair_culprit(pairs: PairStack, L: LorentzTransform, i: int) -> str:
    k, u = _row(pairs.k, i), _row(pairs.u, i)
    return f"k={format_row(k)}, u={format_row(u)}, frame gamma={u[0]:.10g}, {_gamma(L, i)}"


def direction_in_pf(pairs: PairStack) -> np.ndarray:
    """The (N,3) unit photon directions seen from the distinguished
    frame's rest coordinates."""
    return _direction_after(_boost_stack(pairs.u), pairs.k)


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

    h is one atan2 of the rotation `_gauge_stack` builds, 0 for a frame
    at rest.
    """
    return _z_angle(_gauge_stack(pairs))


# the cosine and sine of chi = pi/2, where each orbit of boosts along the
# photon is anchored, as boost_phase takes them at 0.5 * math.pi
_APEX = (math.cos(0.5 * math.pi), math.sin(0.5 * math.pi))


def _gauge_stack(pairs: PairStack) -> np.ndarray:
    """The (N,4,4) stack of the gauge rotations Rz(h) of `alignment_angle`,
    unchecked, built with no angle from the cosine and sine of each part
    of h = h_b + alpha - phi:

    * chi, from theta cos(chi) and theta sin(chi), the dot and cross
      products of the photon direction and the frame velocity;
    * alpha, from the transverse frame velocity t over its norm rho
      (alpha = 0 where t = 0), t read in the frame of the images of x-hat
      and y-hat under the lab's minimal rotation z-hat -> k-hat;
    * h_b = -asin(a), a from `closed_form._boost_sine` at chi = pi/2, as
      (sqrt(1 - a^2), -a);
    * phi = 2 atan2(y, x), (y, x) from `closed_form._rotation_yx`, as
      ((x - y)(x + y), 2xy)/(x^2 + y^2). (y, x) is homogeneous in the sine
      and cosine of alpha/2, for which (t_y, rho + t_x) stands in where
      t_x >= 0 and (rho - t_x, t_y) elsewhere, each well conditioned.

    A row that fails a domain test of the closed forms, run on their
    inputs as they run them, raises a DomainError that names the pair.
    """
    th_vec = pairs.u[:, 1:] / pairs.u[:, :1]
    th = np.sqrt(row_dot(th_vec, th_vec))
    kh = unit_rows(pairs.k[:, 1:])
    # np.cross's own products and differences, without its axis moves
    (kx, ky, kz), (vx, vy, vz) = kh.T, th_vec.T
    cross = np.empty_like(kh)
    cross[:, 0] = ky * vz - kz * vy
    cross[:, 1] = kz * vx - kx * vz
    cross[:, 2] = kx * vy - ky * vx
    # sin(chi) from the cross product: from the dot alone, near chi = 0,
    # 1e-16 of rounding would become 1e-8
    th_cos, th_sin = row_dot(kh, th_vec), np.sqrt(row_dot(cross, cross))
    # (0, 0) for a frame at rest, where every factor of h multiplies it by
    # theta = 0
    speed = np.where(th == 0.0, 1.0, th)
    cos_chi, sin_chi = th_cos / speed, th_sin / speed
    # t = (e1 . theta, e2 . theta), e1 and e2 the images of x-hat and
    # y-hat, with its larger entry scaled to 1, so that no square underflows
    frame = _z_frame(kh)
    t = np.empty((len(kh), 2))
    t[:, 0], t[:, 1] = row_dot(frame[:, 0], th_vec), row_dot(frame[:, 1], th_vec)
    t[(t == 0.0).all(axis=1)] = (1.0, 0.0)
    tx, ty = (t / _row_abs_max(t)[:, None]).T
    rho = np.sqrt(tx * tx + ty * ty)
    east = tx >= 0.0

    # the frame speed at the apex of the orbit, where the boost along the
    # photon has taken its velocity along it, theta cos(chi), to 0
    u_perp = pairs.u[:, 0] * th_sin
    th_apex = u_perp / np.sqrt(1.0 + u_perp * u_perp)
    try:
        _check_rows([_v_test(th_cos), _theta_test(th_apex)], error=DomainError)
        a = _boost_sine(th_cos, th_apex, *_APEX)
        _check_rows([_theta_test(th)], error=DomainError)
    except DomainError as exc:
        i = exc.row
        raise DomainError(i, f"{exc.reason} in the gauge of the pair "
                             f"(k={format_row(pairs.k[i])}, u={format_row(pairs.u[i])})") from exc
    n, dd, a_sin, _ = _rotation_factors(th, cos_chi, sin_chi)
    y, x = _rotation_yx(n, dd, a_sin, np.where(east, ty, rho - tx), np.where(east, rho + tx, ty))
    q = x * x + y * y
    cos_phi, sin_phi = (x - y) * (x + y) / q, 2.0 * x * y / q
    cos_a, sin_a = tx / rho, ty / rho
    # alpha - phi, then h_b + alpha - phi
    c1, s1 = cos_a * cos_phi + sin_a * sin_phi, sin_a * cos_phi - cos_a * sin_phi
    cos_b = np.sqrt((1.0 - a) * (1.0 + a))
    c, s = cos_b * c1 + a * s1, cos_b * s1 - a * c1
    g = np.zeros((len(c), 4, 4))
    g[:, 0, 0] = g[:, 3, 3] = 1.0
    g[:, 1, 1] = g[:, 2, 2] = c
    g[:, 2, 1], g[:, 1, 2] = s, -s
    return g


def bench_pair(theta_pf, chi) -> PairStack:
    """The bench configurations: unit photon along z-hat, frame velocity of
    speed theta_pf at angle chi to it, in the x-z plane; floats give one
    row, (N,) arrays (floats among them shared) N rows. A row with
    theta_pf = 0 has the frame exactly at rest, u = (1, 0, 0, 0). chi must
    be finite, and theta_pf in [0, 1), as the closed forms test it."""
    theta_pf, chi = _checked_rows(lambda th, c: [_theta_test(th), _finite_test("chi", c)],
                                  theta_pf, chi)
    v = np.zeros((len(chi), 3))
    v[:, 0] = theta_pf * math_rows(math.sin, chi)
    v[:, 2] = theta_pf * math_rows(math.cos, chi)
    u = np.where((theta_pf == 0.0)[:, None], _U_REST, four_velocity(v))
    return PairStack(np.tile(_Q_UNIT, (len(u), 1)), u)


def pf_standard_element(pairs: PairStack) -> np.ndarray:
    """The (N,4,4) stack of standard elements L_u R_n Rz(h), each carrying
    (q, u_rest) to its pair (k, u), with the pinned gauge.

    Like `massless_standard_element`, the product of the kernels is
    returned unchecked: the stabiliser test of `pf_wigner_from_elements`
    checks the Wigner element made from it."""
    # the gauge first, so that its working arrays and the other factors
    # are not held at once
    g = _gauge_stack(pairs)
    b = _boost_stack(pairs.u)
    return b @ _rotation_z_to_stack(_direction_after(b, pairs.k)) @ g


def transform_pair(pairs: PairStack, L: LorentzTransform) -> PairStack:
    """The pairs (Lk, Lu), validated, with a row per pair or per transform;
    the error for a moved pair names it, the given pair and both gammas."""
    try:
        return PairStack(apply(L, pairs.k), apply(L, pairs.u))
    except RowValueError as exc:
        raise RowValueError(exc.row, f"moved pair fails validation: {exc.reason}; given pair "
                                     f"({_pair_culprit(pairs, L, exc.row)})") from exc


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
    return pf_wigner_from_elements(pairs, pf_standard_element(pairs), L,
                                   pf_standard_element(transform_pair(pairs, L)))


def pf_wigner_from_elements(pairs: PairStack, s1: np.ndarray, L: LorentzTransform,
                            s2: np.ndarray) -> WignerAngle:
    """`pf_wigner` of the pairs under L, given their standard elements.

    s1 is the (1 or N, 4, 4) stack of `pf_standard_element(pairs)` and s2
    that of the moved pairs, `transform_pair(pairs, L)`; rows pair up as
    in `pf_wigner`. The phase is the z-rotation angle of the Wigner
    element, which must fix both q and the rest four-velocity (see
    `_wigner`); its StabilityError names the row of the given stacks. A
    caller that needs several angles at the same pairs builds each
    element once and passes it to each call.
    """
    return _wigner(len(pairs), s1, L, s2, (pairs.kappa[:, None] * _Q_UNIT, _U_REST[None]), "pair",
                   partial(_pair_culprit, pairs, L), _z_angle)


def _wigner(rows: int, s1: np.ndarray, L: LorentzTransform, s2: np.ndarray, fixed, moved: str,
            culprit: Callable[[int], str], angle) -> WignerAngle:
    """The Wigner element W = S(Lp)^-1 L S(p) = eta s2^T eta L s1 of the
    `rows` given pairs or momenta, certified and read: the one body of both
    routes. The stabiliser is the largest |W v - v| over the (1 or N, 4)
    arrays v of `fixed`; a row above STABILISER_TOL raises StabilityError,
    "<moved> moved by ..." with `culprit(row)`. The angle is angle(W)."""
    _stack_rows(rows, len(s1), len(L), len(s2))
    w = _eta_inverse(s2) @ L.m @ s1
    stab = np.maximum.reduce([_row_abs_max((w @ v[:, :, None])[:, :, 0] - v) for v in fixed])
    _check_rows([(stab <= STABILISER_TOL, lambda i: f"{moved} moved by {stab[i]:.3e}")],
                culprit, StabilityError)
    return WignerAngle(angle(w), stab)


def _z_angle(m: np.ndarray) -> np.ndarray:
    """The angle of each z-rotation of an (N,4,4) stack, from its (y,x) and
    (x,x) entries."""
    return math_rows(math.atan2, m[:, 2, 1], m[:, 1, 1])


def massless_standard_element(k: np.ndarray) -> np.ndarray:
    """The (N,4,4) stack of standard elements L_k = R_khat B_z(|k|) of the
    pairless route, one per row of an (N,4) array of photon momenta
    (see `photon_momenta`); B_z rescales the reference null vector
    (1;0,0,1) by |k| along the light cone. The rotation comes from the
    kernel unchecked; the stabiliser test checks the Wigner element."""
    r = k[:, 0]
    c = 0.5 * (r + 1.0 / r)
    s = 0.5 * (r - 1.0 / r)
    bz = np.zeros((len(k), 4, 4))
    bz[:, 1, 1] = bz[:, 2, 2] = 1.0
    bz[:, 0, 0] = bz[:, 3, 3] = c
    bz[:, 0, 3] = bz[:, 3, 0] = s
    return _rotation_z_to_stack(unit_rows(k[:, 1:])) @ bz


def photon_momenta(k) -> np.ndarray:
    """An (N,4) array of momenta, each row tested as a photon momentum:
    null, with positive energy. A failing row is named with its k."""
    k = _array_rows(k, (4,), "photon momenta", False)
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
    `apply(L, k)`. Like `pf_wigner_from_elements`, this runs the core
    `_wigner` on the rows it is given, at once: the element must fix the
    reference null vector q, and its StabilityError names k and the
    transform gamma.
    """
    return _wigner(len(k), e1, L, e2, (_Q_UNIT[None],), "reference null vector",
                   lambda i: f"k={format_row(_row(k, i))}, {_gamma(L, i)}",
                   _standard_angle)


def _standard_angle(e: np.ndarray) -> np.ndarray:
    eex = e @ _E_X
    return math_rows(math.atan2, -minkowski_dot(eex, _E_Y), -minkowski_dot(eex, _E_X))


def phase_difference(pairs: PairStack, L: LorentzTransform) -> np.ndarray:
    """Wrapped difference between the pair angle and the pairless angle of
    L, one entry per row."""
    return wrap_angle(pf_wigner(pairs, L).phi - standard_wigner(pairs.k, L).phi)
