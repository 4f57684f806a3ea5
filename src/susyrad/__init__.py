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
    Source,
    SpectrumLevel,
    SpectrumResult,
    Units,
    anharmonic_model,
    coulomb_model,
    custom_model,
    deformed_coulomb_model,
    epsilon_to_energy,
    morse_model,
    nonrelativistic_limit,
    omega_total,
    oscillator_model,
    sextic_model,
    spectrum_result,
)
from .analytic import (
    RadialWavefunction,
    analytic_epsilon_sq,
    analytic_spectrum,
    analytic_wavefunctions,
)
from .numsolve import (
    IsospectralReport,
    TridiagonalOperator,
    cumulative_quadrature,
    discretize,
    eigenvector,
    isospectral_check,
    lowest_eigenvalues,
    quadrature,
    sturm_count,
)
from .qes import (
    QesGroundState,
    qes_ground_state,
    qes_numeric_spectrum,
)
from .superpot import (
    PartnerPotentials,
    Superpotential,
    apply_lowering,
    apply_raising,
    ground_state_from_w,
    partner_potentials,
    superpotential_from_model,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "Family",
    "IsospectralReport",
    "ModelSpec",
    "NoBoundStateError",
    "NumericError",
    "PartnerPotentials",
    "QesGroundState",
    "RadialGrid",
    "RadialWavefunction",
    "Source",
    "SpectrumLevel",
    "SpectrumResult",
    "Superpotential",
    "TridiagonalOperator",
    "Units",
    "analytic_epsilon_sq",
    "analytic_spectrum",
    "analytic_wavefunctions",
    "anharmonic_model",
    "apply_lowering",
    "apply_raising",
    "coulomb_model",
    "cumulative_quadrature",
    "custom_model",
    "deformed_coulomb_model",
    "discretize",
    "eigenvector",
    "epsilon_to_energy",
    "ground_state_from_w",
    "isospectral_check",
    "lowest_eigenvalues",
    "morse_model",
    "nonrelativistic_limit",
    "omega_total",
    "oscillator_model",
    "partner_potentials",
    "qes_ground_state",
    "qes_numeric_spectrum",
    "quadrature",
    "sextic_model",
    "spectrum_result",
    "sturm_count",
    "superpotential_from_model",
    "__version__",
]
