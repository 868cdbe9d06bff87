"""Which plausible bugs `validate` catches: a table of mutants.

Each row rebinds one library function to a wrong version of it, in the
module that defines it and in every `pfwigner` module that imported it
(the "in the gauge" row and two kernel rows rebind it where `induction`
reads it alone), then runs every check of `validate`. The closed-form
rows bend the private helper that the closed form and the gauge kernel
of the matrix route share, where a bug in the formula would be. The
kernel rows bend a factor of the pair standard element, which nothing
validates as it is built: the stabiliser test and the checks of the
angle must see it. A mutant is killed when some check exceeds
its tolerance or the run raises a row error. A mutant that `validate` does
not kill today is a strict xfail whose reason names the ROADMAP item meant
to kill it, so a new check that kills it turns the row into an XPASS
failure until its mark is lifted.

Score at this commit: 8 killed of 14.
"""

import dataclasses
import sys

import numpy as np
import pytest

from pfwigner import checks, cli, closed_form, induction, polarisation
from pfwigner.minkowski import RowError, _rotation_stack, wrap_angle


def _rebind(monkeypatch, module, name, mutate, everywhere=True):
    """Rebind module.name to mutate(original), and where `everywhere`, in
    each loaded pfwigner module that holds the original too."""
    original = getattr(module, name)
    mutant = mutate(original)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "pfwigner"]
    for m in modules if everywhere else [module]:
        if vars(m).get(name) is original:
            monkeypatch.setattr(m, name, mutant)


def _half_angles(bend):
    """A mutation of closed_form._rotation_yx, the (y, x) pair whose atan2
    is half of rotation_phase: half of the phase is moved by bend(phi, delta,
    a_sin), from the phase phi, the angle delta and the factor a_sin. The
    pair is homogeneous in the sine and cosine of delta/2, so phi and delta
    are each known mod 2pi."""
    def mutate(f):
        def mutant(n, dd, a_sin, sin_half, cos_half):
            half = np.arctan2(*f(n, dd, a_sin, sin_half, cos_half))
            half = half + 0.5 * bend(2.0 * half, 2.0 * np.arctan2(sin_half, cos_half), a_sin)
            return np.sin(half), np.cos(half)
        return mutant
    return mutate


# the shift phi - delta scaled by 1.3
_shift_scaled = _half_angles(lambda phi, delta, a_sin: 0.3 * wrap_angle(phi - delta))
# a term zero at theta_pf = 0 and at delta = 0 and 2pi, second order in
# a_sin = -theta_pf sin(chi) + O(theta_pf^2), so the shift formula's error
# keeps its order, theta_pf^2
_second_order = _half_angles(lambda phi, delta, a_sin: 0.15 * np.square(a_sin) * np.sin(delta))


def _negated(f):
    def mutant(*args):
        w = f(*args)
        return dataclasses.replace(w, phi=-w.phi)
    return mutant


# each row a call of its own at the same seed, so every row redraws the
# first value of default_rng(seed) instead of the next value of one stream
def _one_seed(f):
    def mutant(p, n_samples, seed):
        return np.concatenate([f([q], n_samples, seed) for q in np.asarray(p).reshape(-1)])
    return mutant


def _bent(index, scale=1.0, shift=0.0):
    """A mutation of a kernel: the entries at `index` of each (N,4,4) array
    it returns are scaled, then shifted."""
    def mutate(f):
        def mutant(*args):
            m = f(*args)
            m[index] = m[index] * scale + shift
            return m
        return mutant
    return mutate


def _survives(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"validate does not kill it yet: ROADMAP item {item}")


MUTANTS = [
    pytest.param(
        lambda mp: _rebind(mp, closed_form, "_boost_sine", lambda f: lambda *a: (
            np.sin(1.3 * np.arcsin(f(*a))))),
        # boost_phase scaled by 1.3 through its sine, which the gauge of
        # the matrix route shares, so no check sees a wrong boost_phase
        id="boost_phase-scaled", marks=_survives("1 (a Thomas-Wigner oracle)")),
    pytest.param(
        lambda mp: _rebind(mp, induction, "_rotation_yx", _shift_scaled, everywhere=False),
        id="rotation_phase-shift-scaled-in-the-gauge"),
    pytest.param(
        lambda mp: _rebind(mp, closed_form, "_rotation_yx", _second_order),
        # rotation_phase is the paper's choice of section: no second route
        # checks it, and the shift formula's error keeps its order
        id="rotation_phase-second-order", marks=_survives("11 (an extended-precision reference)")),
    # the gauge h = alignment_angle, bent in the kernel that builds Rz(h)
    pytest.param(
        lambda mp: _rebind(mp, induction, "_gauge_stack", lambda f: lambda p: (
            _rotation_stack(induction.Z_AXIS, np.zeros(len(p))))),
        id="alignment_angle-zero"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "_gauge_stack", lambda f: lambda p: (
            _rotation_stack(induction.Z_AXIS, 1.3 * induction._z_angle(f(p))))),
        id="alignment_angle-scaled"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "_rotation_z_to_stack",
                           _bent(np.s_[:, 1, 2], scale=1.001), everywhere=False),
        id="rotation_z_to-kernel-entry-scaled-in-induction"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "_boost_stack",
                           _bent(np.s_[:, 1:, 1:], scale=1.0 + 1e-4), everywhere=False),
        id="boost-kernel-spatial-block-bent-in-induction"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "_gauge_stack", _bent(np.s_[:, 1, 2], shift=1e-6)),
        id="rotation-kernel-entry-shifted-in-induction"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "pf_wigner_from_elements", _negated),
        id="pf_wigner-negated"),
    pytest.param(
        lambda mp: _rebind(mp, induction, "standard_wigner_from_elements", _negated),
        id="standard_wigner-negated"),
    pytest.param(
        lambda mp: _rebind(mp, polarisation, "malus_probability",
                           lambda f: lambda theta, big: 1.0 - f(theta, big)),
        id="malus_probability-sin-squared", marks=_survives("13 (Malus checks)")),
    pytest.param(
        lambda mp: _rebind(mp, polarisation, "monte_carlo_malus", lambda f: lambda p, n, seed: (
            np.asarray(p, dtype=float).reshape(-1))),
        id="monte_carlo_malus-returns-p", marks=_survives("13 (Malus checks)")),
    pytest.param(
        lambda mp: _rebind(mp, polarisation, "monte_carlo_malus", _one_seed),
        id="monte_carlo_malus-one-seed", marks=_survives("13 (Malus checks)")),
    pytest.param(
        lambda mp: _rebind(mp, polarisation, "anomalous_malus_curve",
                           lambda f: lambda *a: 1.0 - f(*a)),
        id="anomalous_malus_curve-complement", marks=_survives("13 (Malus checks)")),
]


@pytest.mark.parametrize("mutate", MUTANTS)
def test_validate_kills_the_mutant(monkeypatch, mutate):
    mutate(monkeypatch)
    try:
        results = checks.run_checks(cli.CHECKS)
    except RowError:
        return
    assert any(not r.passed for r in results.values())

