"""Closed-form spectra and bound-state wavefunctions.

Three families admit a full analytic solution: the (magnetic) oscillator,
the Coulomb problem and the Morse well.  Each lower-partner state is a
Laguerre envelope whose variable, power and order the family record holds
(a QES family's record holds only its zero mode); closed_form_state samples
either.  A bound state is the pair of arrays (f_-, f_+) on the grid: the
upper component is produced by the lowering operator and the pair is
normalized jointly, int (f_-^2 + f_+^2) dr = 1.

All epsilon^2 values are the shifted squared eigenvalues of
-f'' + V_- f = eps^2 f, in natural units; core.epsilon_to_energy maps them to
the energies E = +-sqrt(1 + eps^2).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    ModelSpec,
    NoBoundStateError,
    RadialGrid,
    Superpotential,
)
from .numsolve import quadrature
from .specfun import laguerre
from .superpot import apply_lowering, superpotential_from_model


# --------------------------------------------------------------------------
# Spectra


def analytic_epsilon_sq(model: ModelSpec, n: int) -> float:
    """The closed form in the family record.  QES families only expose n = 0;
    a finite tower refuses the levels above its top, model.max_level."""
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
    if n > model.max_level:
        raise NoBoundStateError(f"{model.family.value} level n={n} is not bound; "
                                f"the tower ends at n={model.max_level}")
    try:
        eps_sq = record.epsilon_sq(model, n)
    except OverflowError:
        eps_sq = math.inf
    if not math.isfinite(eps_sq):
        raise DomainError(f"{model.family.value} level {n}: epsilon^2 overflows")
    return eps_sq


def analytic_spectrum(model: ModelSpec, n_max: int) -> list:
    """Closed-form epsilon^2_n for n = 0..n_max."""
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    return [analytic_epsilon_sq(model, n) for n in range(n_max + 1)]


# --------------------------------------------------------------------------
# Wavefunctions


def closed_form_state(model: ModelSpec, n: int, grid: RadialGrid) -> np.ndarray:
    """Lower component of level n from the family record, its envelope peaking
    at 1: z^k e^{-z/2} L_n^alpha(z), (k, z, alpha) = record.envelope, for an
    "all" family; exp(log_zero_mode) at n = 0 for a "ground" family.  At a c/r
    pole of W (c < 0) at r = 0 the state goes as r^{-c}: its sample there is 0.
    Refuses levels as analytic_epsilon_sq does."""
    analytic_epsilon_sq(model, n)
    record, r = model.record, grid.points()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if record.closed_form == "all":
            k_power, z, alpha = record.envelope(model, n, r)
            g = k_power * np.log(z) - 0.5 * z
        else:
            g = record.log_zero_mode(model, r)
    # log 0 at a pole is -inf; nan comes from a zero coefficient times an
    # overflow, or two overflows where the decaying term wins: take it as -inf
    g = np.where(np.isnan(g), -np.inf, g)
    g_max = float(np.max(g))
    if not math.isfinite(g_max):
        raise DomainError("wavefunction envelope degenerate on this grid")
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(g - g_max)
        return f * laguerre(n, alpha, z) if record.closed_form == "all" else f


def analytic_wavefunctions(model: ModelSpec, n: int, grid: RadialGrid) -> tuple:
    """Level n of the closed_form_state as the pair (f_-, f_+): f_+ is the
    image of f_- under the lowering operator divided by epsilon (zero at n = 0)."""
    return spinor_from_lower(superpotential_from_model(model), closed_form_state(model, n, grid),
                             n, analytic_epsilon_sq(model, n), grid)


def spinor_from_lower(sp: Superpotential, f_minus: np.ndarray, n: int, eps_sq: float,
                      grid: RadialGrid) -> tuple:
    """Level n from its lower component at epsilon_sq, closed-form or numeric,
    as the pair of arrays (f_-, f_+).

    f_- is scaled to unit norm, f_+ is its image under the lowering operator
    divided by epsilon (zero for the n = 0 zero mode), and the pair is then
    normalized jointly: quadrature(f_-**2 + f_+**2, grid) is 1.
    """
    nrm = math.sqrt(quadrature(f_minus**2, grid))
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DomainError("wavefunction vanishes or overflows on this grid")
    f_minus = f_minus / nrm
    if n == 0:
        f_plus = np.zeros_like(f_minus)
    elif eps_sq <= 0:
        raise DomainError("cannot form the upper component at epsilon^2 <= 0")
    else:
        f_plus = apply_lowering(sp, f_minus, grid) / math.sqrt(eps_sq)
    scale = 1.0 / math.sqrt(quadrature(f_minus**2 + f_plus**2, grid))
    return f_minus * scale, f_plus * scale
