"""Quasi-exactly-solvable families: anharmonic, sextic, deformed Coulomb.

Only the lower-partner zero mode is known in closed form for these models
(epsilon^2 = 0 by construction); everything above it comes from the
finite-difference solver.  The closed-form f_0 is analytic.closed_form_state,
sampled from the family record's log_zero_mode, so it does not pass through
the quadrature of W in superpot.ground_state_from_w and the two can be
cross-checked; cli.zero_mode_residual, the metric of verify's ground_residual
check, is how well it solves V_-.  Neither the package namespace nor the CLI
imports this module: tests and the benchmark import its helpers from here.
"""

from __future__ import annotations

from .analytic import closed_form_state
from .core import ConfigurationError, ModelSpec, RadialGrid
from .numsolve import discretize, lowest_eigenvalues
from .superpot import normalized_zero_mode, partner_potentials, superpotential_from_model


def qes_ground_state(model: ModelSpec, grid: RadialGrid):
    """Normalized closed-form zero mode f_0 of V_- (epsilon^2 = 0), sampled
    on the grid as an array; cli.zero_mode_residual measures how well it
    solves V_-.

    Raises DomainError if the mode fails to decay at r_max (window too short
    or non-normalizable parameters) or leaves the float range on the grid.
    """
    if not model.is_qes:
        raise ConfigurationError("qes_ground_state requires a quasi-exactly-solvable family")
    return normalized_zero_mode(closed_form_state(model, 0, grid), grid)


def qes_numeric_spectrum(model: ModelSpec, grid: RadialGrid, k: int) -> list:
    """First k epsilon^2 of the QES lower problem from the finite-difference solver.

    Level 0 should land at epsilon^2 ~ 0 up to O(h^2) and wall-truncation
    error whenever the zero mode is compatible with the Dirichlet window.
    """
    if not model.is_qes:
        raise ConfigurationError("qes_numeric_spectrum requires a quasi-exactly-solvable family")
    if k < 1:
        raise ValueError("k must be at least 1")
    pp = partner_potentials(superpotential_from_model(model), grid)
    return lowest_eigenvalues(discretize(pp.v_minus, grid), k)
