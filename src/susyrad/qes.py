"""Quasi-exactly-solvable families: anharmonic, sextic, deformed Coulomb.

Only the lower-partner zero mode is known in closed form for these models
(epsilon^2 = 0 by construction); everything above it comes from the
finite-difference solver.  The closed-form f_0 written here is deliberately
independent of superpot.ground_state_from_w so the two construction paths
can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    ModelSpec,
    RadialGrid,
    Source,
    SpectrumResult,
    spectrum_result,
)
from .numsolve import discretize, lowest_eigenvalues, quadrature
from .superpot import _DECAY_CEILING, partner_potentials, superpotential_from_model


def _require_qes(model: ModelSpec, what: str) -> None:
    if not model.is_qes:
        raise ConfigurationError(f"{what} requires a quasi-exactly-solvable family")


@dataclass(frozen=True)
class QesGroundState:
    """Closed-form zero mode with its self-check residual.

    residual_sup is zero_mode_residual(f0, V_-, grid), an O(h^2)
    discretization of how well f_0 annihilates the lower problem at
    epsilon^2 = 0.
    """

    grid: RadialGrid
    f0: np.ndarray
    epsilon_sq: float
    residual_sup: float


def zero_mode_residual(f0: np.ndarray, v_minus: np.ndarray, grid: RadialGrid) -> float:
    """sup |(-f0'' + V_- f0)| / sup |f0| over the grid interior, with the
    three-point Laplacian."""
    lap = (f0[2:] - 2.0 * f0[1:-1] + f0[:-2]) / grid.h**2
    return float(np.max(np.abs(-lap + v_minus[1:-1] * f0[1:-1])) / np.max(np.abs(f0)))


def qes_ground_state(model: ModelSpec, grid: RadialGrid) -> QesGroundState:
    """Normalized closed-form zero mode of V_- with its residual check.

    Raises DomainError if the mode fails to decay at r_max (window too short
    or non-normalizable parameters).
    """
    _require_qes(model, "qes_ground_state")
    g = model.record.log_zero_mode(model, grid.points())
    g = g - np.max(g)
    f = np.exp(g)
    if f[-1] > _DECAY_CEILING:
        raise DomainError(
            "zero mode does not decay at r_max; enlarge the window or check parameters"
        )
    f = f / math.sqrt(quadrature(f * f, grid))
    v_minus = partner_potentials(superpotential_from_model(model), grid).v_minus
    residual = zero_mode_residual(f, v_minus, grid)
    return QesGroundState(grid=grid, f0=f, epsilon_sq=0.0, residual_sup=residual)


def qes_numeric_spectrum(model: ModelSpec, grid: RadialGrid, k: int) -> SpectrumResult:
    """First k levels of the QES lower problem from the finite-difference solver.

    Level 0 should land at epsilon^2 ~ 0 up to O(h^2) and wall-truncation
    error whenever the zero mode is compatible with the Dirichlet window.
    """
    _require_qes(model, "qes_numeric_spectrum")
    if k < 1:
        raise ValueError("k must be at least 1")
    pp = partner_potentials(superpotential_from_model(model), grid)
    eigs = lowest_eigenvalues(discretize(pp.v_minus, grid), k)
    return spectrum_result(eigs, model.units, Source.NUMERIC)
