"""Radial Dirac bound states via superpotential factorization.

The package builds W(r) for six potential families, forms the SUSY partner
potentials V_-+ = W^2 -+ W', evaluates the closed-form spectra and
wavefunctions where they exist, and verifies everything against an
independent finite-difference eigensolver.
"""

from .core import (
    ConfigurationError,
    DomainError,
    Family,
    ModelSpec,
    NoBoundStateError,
    NumericError,
    RadialGrid,
    anharmonic_model,
    coulomb_model,
    custom_model,
    deformed_coulomb_model,
    epsilon_to_energy,
    morse_model,
    omega_total,
    oscillator_model,
    sextic_model,
)
from .analytic import (
    analytic_epsilon_sq,
    analytic_spectrum,
    analytic_wavefunctions,
    closed_form_state,
)
from .numsolve import (
    TridiagonalOperator,
    cumulative_quadrature,
    discretize,
    eigenvector,
    lowest_eigenvalues,
    quadrature,
    sturm_count,
)
from .qes import (
    qes_ground_state,
    qes_numeric_spectrum,
)
from .superpot import (
    PartnerPotentials,
    Superpotential,
    apply_lowering,
    ground_state_from_w,
    partner_potentials,
    superpotential_from_model,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "Family",
    "ModelSpec",
    "NoBoundStateError",
    "NumericError",
    "PartnerPotentials",
    "RadialGrid",
    "Superpotential",
    "TridiagonalOperator",
    "analytic_epsilon_sq",
    "analytic_spectrum",
    "analytic_wavefunctions",
    "anharmonic_model",
    "apply_lowering",
    "closed_form_state",
    "coulomb_model",
    "cumulative_quadrature",
    "custom_model",
    "deformed_coulomb_model",
    "discretize",
    "eigenvector",
    "epsilon_to_energy",
    "ground_state_from_w",
    "lowest_eigenvalues",
    "morse_model",
    "omega_total",
    "oscillator_model",
    "partner_potentials",
    "qes_ground_state",
    "qes_numeric_spectrum",
    "quadrature",
    "sextic_model",
    "sturm_count",
    "superpotential_from_model",
    "__version__",
]
