"""Photon polarisation phase numerics with and without a distinguished frame."""

from .closed_form import (
    BoostScenario,
    DomainError,
    RotationScenario,
    boost_phase,
    boost_phase_asymptote,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
)
from .induction import (
    StabilityError,
    StandardPair,
    WignerAngle,
    alignment_angle,
    bench_pair,
    direction_in_pf,
    euclidean_element,
    pf_standard_element,
    pf_wigner,
    phase_difference,
    standard_wigner,
    transform_pair,
)
from .minkowski import (
    IDENTITY,
    METRIC,
    FourVector,
    FrameVelocity,
    LorentzTransform,
    PairStack,
    PhotonKinematics,
    RowError,
    apply,
    boost_from_velocity,
    boost_to,
    compose,
    four_velocity,
    inverse,
    minkowski_dot,
    rotation_about,
    rotation_z_to,
    rows_from,
    wrap_angle,
)
from .polarisation import (
    anomalous_malus_curve,
    malus_probability,
    monte_carlo_malus,
)

__version__ = "0.1.0"
