"""Quasi-exactly-solvable families: anharmonic, sextic, deformed Coulomb.

Only the lower-partner zero mode is known in closed form for these models
(epsilon^2 = 0 by construction); everything above it comes from the
finite-difference solver.  The closed-form f_0 written here is deliberately
independent of superpot.ground_state_from_w so the two construction paths
can be cross-checked; zero_mode_residual is how well it solves V_-, the
metric of verify's ground_residual check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    ModelSpec,
    RadialGrid,
)
from .numsolve import discretize, lowest_eigenvalues, quadrature
from .superpot import _DECAY_CEILING, partner_potentials, superpotential_from_model


def _require_qes(model: ModelSpec, what: str) -> None:
    if not model.is_qes:
        raise ConfigurationError(f"{what} requires a quasi-exactly-solvable family")


def zero_mode_residual(f0: np.ndarray, v_minus: np.ndarray, grid: RadialGrid) -> float:
    """sup |(-f0'' + V_- f0)| / sup |f0| over the grid interior, with the
    three-point Laplacian; nan when a term leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        lap = (f0[2:] - 2.0 * f0[1:-1] + f0[:-2]) / grid.h**2
        return float(np.max(np.abs(-lap + v_minus[1:-1] * f0[1:-1])) / np.max(np.abs(f0)))


def qes_ground_state(model: ModelSpec, grid: RadialGrid) -> np.ndarray:
    """Normalized closed-form zero mode f_0 of V_- (epsilon^2 = 0), sampled
    on the grid; zero_mode_residual measures how well it solves V_-.

    Raises DomainError if the mode fails to decay at r_max (window too short
    or non-normalizable parameters) or leaves the float range on the grid.
    """
    _require_qes(model, "qes_ground_state")
    with np.errstate(over="ignore", invalid="ignore"):
        g = model.record.log_zero_mode(model, grid.points())
    # a term that overflows sends log f_0 to -inf, or to nan by a zero coefficient
    g = np.where(np.isnan(g), -np.inf, g)
    if not math.isfinite(np.max(g)):
        raise DomainError("zero mode leaves the float range on this grid")
    g = g - np.max(g)
    f = np.exp(g)
    if f[-1] > _DECAY_CEILING:
        raise DomainError(
            "zero mode does not decay at r_max; enlarge the window or check parameters"
        )
    return f / math.sqrt(quadrature(f * f, grid))


def qes_numeric_spectrum(model: ModelSpec, grid: RadialGrid, k: int) -> list:
    """First k epsilon^2 of the QES lower problem from the finite-difference solver.

    Level 0 should land at epsilon^2 ~ 0 up to O(h^2) and wall-truncation
    error whenever the zero mode is compatible with the Dirichlet window.
    """
    _require_qes(model, "qes_numeric_spectrum")
    if k < 1:
        raise ValueError("k must be at least 1")
    pp = partner_potentials(superpotential_from_model(model), grid)
    return lowest_eigenvalues(discretize(pp.v_minus, grid), k)
