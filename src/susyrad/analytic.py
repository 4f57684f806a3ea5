"""Closed-form spectra and bound-state wavefunctions.

Three families admit a full analytic solution: the (magnetic) oscillator,
the Coulomb problem and the Morse well.  Each lower-partner state is a
Laguerre envelope; the upper component is produced by the lowering operator
and the pair is normalized jointly, int (f_-^2 + f_+^2) dr = 1.

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
    Family,
    ModelSpec,
    RadialGrid,
    Source,
    SpectrumResult,
    omega_total,
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


def _require_family(model: ModelSpec, family: Family, what: str) -> None:
    if model.family is not family:
        raise ConfigurationError(f"{what} requires a {family.value} model")


def _require_level(n: int) -> None:
    if n < 0 or n != int(n):
        raise DomainError("level n must be a nonnegative integer")


# --------------------------------------------------------------------------
# Spectra


def oscillator_epsilon_sq(n: int, model: ModelSpec) -> float:
    """eps^2_n = 4 n (m/hbar) omega_T; degenerate in ell."""
    _require_family(model, Family.OSCILLATOR, "oscillator_epsilon_sq")
    return analytic_epsilon_sq(model, n)


def coulomb_epsilon_sq(n: int, model: ModelSpec) -> float:
    """eps^2_n = kappa^2 [ 1/(ell+1)^2 - 1/(n+ell+1)^2 ]."""
    _require_family(model, Family.COULOMB, "coulomb_epsilon_sq")
    return analytic_epsilon_sq(model, n)


def morse_epsilon_sq(n: int, model: ModelSpec) -> float:
    """eps^2_n = alpha n (2b - alpha n), valid while b - alpha n > 0.

    Note the ordering of the factors: the level must *rise* with n through
    the finite tower.  Requesting a level at or beyond the threshold raises
    NoBoundStateError.
    """
    _require_family(model, Family.MORSE, "morse_epsilon_sq")
    return analytic_epsilon_sq(model, n)


def morse_max_level(model: ModelSpec) -> int:
    """Largest n with b - alpha n > 0 (the Morse tower is finite)."""
    _require_family(model, Family.MORSE, "morse_max_level")
    return model.max_level


def analytic_epsilon_sq(model: ModelSpec, n: int) -> float:
    """The closed form in the family record.  QES families only expose n = 0."""
    record = model.record
    if record.closed_form == "none":
        raise ConfigurationError(f"{model.family.value} models have no analytic spectrum")
    _require_level(n)
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


def _assemble_pair(model: ModelSpec, grid: RadialGrid, n: int, eps_sq: float,
                   f_minus_raw: np.ndarray) -> RadialWavefunction:
    """Normalize f_- and attach the lowered upper component."""
    nrm = math.sqrt(quadrature(f_minus_raw**2, grid))
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DomainError("wavefunction vanishes or overflows on this grid")
    f_minus = f_minus_raw / nrm
    if n == 0:
        f_plus = np.zeros_like(f_minus)
    else:
        sp = superpotential_from_model(model)
        f_plus = apply_lowering(sp, f_minus, grid) / math.sqrt(eps_sq)
    total = quadrature(f_minus**2 + f_plus**2, grid)
    scale = 1.0 / math.sqrt(total)
    return RadialWavefunction(
        grid=grid, n=n, epsilon_sq=eps_sq,
        f_minus=f_minus * scale, f_plus=f_plus * scale,
    )


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


def oscillator_wavefunctions(n: int, model: ModelSpec, grid: RadialGrid) -> RadialWavefunction:
    """Oscillator level n: f_- is a z^{(ell+1)/2} e^{-z/2} L_n^{ell+1/2}
    envelope in z = (m omega_T / hbar) r^2."""
    _require_family(model, Family.OSCILLATOR, "oscillator_wavefunctions")
    _require_level(n)
    if grid.r_min <= 0.0:
        raise DomainError("oscillator wavefunctions require r_min > 0")
    lam = model.units.mass * omega_total(model.params["omega"], model.params["B"],
                                         model.units) / model.units.hbar
    z = lam * grid.points() ** 2
    ell = model.ell
    raw = _laguerre_envelope((ell + 1.0) / 2.0, z, n, ell + 0.5)
    return _assemble_pair(model, grid, n, oscillator_epsilon_sq(n, model), raw)


def coulomb_wavefunctions(n: int, model: ModelSpec, grid: RadialGrid) -> RadialWavefunction:
    """Coulomb level n: f_- ~ z^{ell+1} e^{-z/2} L_n^{2 ell + 1}(z) with
    z = 2 kappa r / (n + ell + 1)."""
    _require_family(model, Family.COULOMB, "coulomb_wavefunctions")
    _require_level(n)
    if grid.r_min <= 0.0:
        raise DomainError("coulomb wavefunctions require r_min > 0")
    kappa, ell = model.params["kappa"], model.ell
    z = 2.0 * kappa * grid.points() / (n + ell + 1.0)
    raw = _laguerre_envelope(ell + 1.0, z, n, 2.0 * ell + 1.0)
    return _assemble_pair(model, grid, n, coulomb_epsilon_sq(n, model), raw)


def morse_wavefunctions(n: int, model: ModelSpec, grid: RadialGrid) -> RadialWavefunction:
    """Morse level n: f_- ~ z^{b/alpha - n} e^{-z/2} L_n^{2b/alpha - 2n}(z)
    with z = (2a/alpha) e^{-alpha r}.  The window may extend to negative r."""
    _require_family(model, Family.MORSE, "morse_wavefunctions")
    eps_sq = morse_epsilon_sq(n, model)  # also validates boundedness
    a, alpha, b = (model.params[k] for k in ("a", "alpha", "b"))
    z = (2.0 * a / alpha) * np.exp(-alpha * grid.points())
    raw = _laguerre_envelope(b / alpha - n, z, n, 2.0 * b / alpha - 2.0 * n)
    return _assemble_pair(model, grid, n, eps_sq, raw)


def analytic_wavefunctions(model: ModelSpec, n: int, grid: RadialGrid) -> RadialWavefunction:
    """Dispatch to the family constructor (solvable families only)."""
    if model.family is Family.OSCILLATOR:
        return oscillator_wavefunctions(n, model, grid)
    if model.family is Family.COULOMB:
        return coulomb_wavefunctions(n, model, grid)
    if model.family is Family.MORSE:
        return morse_wavefunctions(n, model, grid)
    raise ConfigurationError(
        f"{model.family.value} has no closed-form excited wavefunctions"
    )
