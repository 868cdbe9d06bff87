"""Photon polarisation phase numerics with and without a distinguished frame."""

from .closed_form import (
    DomainError,
    boost_phase,
    rotation_phase,
    rotation_phase_shift,
    rotation_shift_approx,
    rotation_table,
)
from .induction import (
    StabilityError,
    WignerAngle,
    alignment_angle,
    bench_pair,
    direction_in_pf,
    massless_standard_element,
    pf_standard_element,
    pf_wigner,
    pf_wigner_from_elements,
    phase_difference,
    photon_momenta,
    standard_wigner,
    standard_wigner_from_elements,
    transform_pair,
)
from .minkowski import (
    IDENTITY,
    METRIC,
    LorentzTransform,
    PairStack,
    RowError,
    apply,
    boost_from_velocity,
    boost_to,
    compose,
    four_velocity,
    in_blocks,
    inverse,
    minkowski_dot,
    rotation_about,
    rotation_z_to,
    wrap_angle,
)
from .polarisation import (
    anomalous_malus_curve,
    malus_probability,
    monte_carlo_malus,
)

__version__ = "0.1.0"
