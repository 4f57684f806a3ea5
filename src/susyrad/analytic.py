"""Closed-form spectra and bound-state wavefunctions.

Three families admit a full analytic solution: the (magnetic) oscillator,
the Coulomb problem and the Morse well.  Each lower-partner state is a
Laguerre envelope whose variable, power and order the family record holds;
the upper component is produced by the lowering operator and the pair is
normalized jointly, int (f_-^2 + f_+^2) dr = 1.

All epsilon^2 values are the shifted squared eigenvalues of
-f'' + V_- f = eps^2 f; map them to energies with core.epsilon_to_energy.
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
from .numsolve import quadrature
from .specfun import laguerre
from .superpot import apply_lowering, superpotential_from_model


@dataclass(frozen=True)
class RadialWavefunction:
    """Normalized two-component bound state sampled on a grid.

    f_minus solves the lower-partner problem at epsilon_sq; f_plus is its
    image under the lowering operator divided by epsilon (identically zero
    for the n = 0 zero mode).  The joint norm is 1.
    """

    grid: RadialGrid
    n: int
    epsilon_sq: float
    f_minus: np.ndarray
    f_plus: np.ndarray

    def spinor_norm(self) -> float:
        return quadrature(self.f_minus**2 + self.f_plus**2, self.grid)


# --------------------------------------------------------------------------
# Spectra


def analytic_epsilon_sq(model: ModelSpec, n: int) -> float:
    """The closed form in the family record.  QES families only expose n = 0."""
    record = model.record
    if record.closed_form == "none":
        raise ConfigurationError(f"{model.family.value} models have no analytic spectrum")
    if n < 0 or n != int(n):
        raise DomainError("level n must be a nonnegative integer")
    if record.closed_form == "ground":
        if n != 0:
            raise ConfigurationError(
                f"{model.family.value} has only its ground state in closed form"
            )
        return 0.0
    return record.epsilon_sq(model, n)


def analytic_spectrum(model: ModelSpec, n_max: int) -> SpectrumResult:
    """Levels n = 0..n_max as a SpectrumResult with analytic provenance."""
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    eps = [analytic_epsilon_sq(model, n) for n in range(n_max + 1)]
    return spectrum_result(eps, model.units, Source.ANALYTIC)


# --------------------------------------------------------------------------
# Wavefunctions


def _laguerre_envelope(k_power: float, z: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """z^k e^{-z/2} L_n^alpha(z), evaluated in log form and peak-shifted."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = k_power * np.log(z) - 0.5 * z
    g = np.where(np.isfinite(g), g, -np.inf)
    g_max = float(np.max(g))
    if not math.isfinite(g_max):
        raise DomainError("wavefunction envelope degenerate on this grid")
    with np.errstate(over="ignore"):
        env = np.exp(g - g_max)
    return env * laguerre(n, alpha, z)


def analytic_wavefunctions(model: ModelSpec, n: int, grid: RadialGrid) -> RadialWavefunction:
    """Level n of a solvable family from the Laguerre envelope in its record.

    f_- is z^k e^{-z/2} L_n^alpha(z) with (k, z, alpha) = record.envelope;
    f_+ is its image under the lowering operator divided by epsilon.
    """
    if model.record.closed_form != "all":
        raise ConfigurationError(f"{model.family.value} has no closed-form excited wavefunctions")
    eps_sq = analytic_epsilon_sq(model, n)  # also validates n and a finite tower
    sp = superpotential_from_model(model)
    if sp.singular_coefficient != 0.0 and grid.r_min <= 0.0:
        raise DomainError(f"{model.family.value} wavefunctions require r_min > 0")
    k_power, z, alpha = model.record.envelope(model, n, grid.points())
    raw = _laguerre_envelope(k_power, z, n, alpha)
    nrm = math.sqrt(quadrature(raw**2, grid))
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DomainError("wavefunction vanishes or overflows on this grid")
    f_minus = raw / nrm
    if n == 0:
        f_plus = np.zeros_like(f_minus)
    else:
        f_plus = apply_lowering(sp, f_minus, grid) / math.sqrt(eps_sq)
    scale = 1.0 / math.sqrt(quadrature(f_minus**2 + f_plus**2, grid))
    return RadialWavefunction(
        grid=grid, n=n, epsilon_sq=eps_sq,
        f_minus=f_minus * scale, f_plus=f_plus * scale,
    )
