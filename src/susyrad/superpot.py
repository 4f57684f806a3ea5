"""Superpotentials W(r), partner potentials and the first-order ladder operators.

The radial problem factorizes through W = l/r + (e A(r) + v(r))/hbar: the
partner potentials are V_- = W^2 - W' and V_+ = W^2 + W', the lower-partner
zero mode is exp(-int W), and the operators (d/dr + W) / (-d/dr + W) map
between the partner towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, ModelSpec, RadialGrid, Superpotential
from .numsolve import cumulative_quadrature, quadrature

#: relative size at r_max above which exp(-int W) is rejected as non-normalizable
_DECAY_CEILING = 1e-6


def _sample(fn: Callable, r: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.asarray(fn(r), dtype=float) + np.zeros_like(r)


def superpotential_from_model(model: ModelSpec) -> Superpotential:
    """Build the superpotential of a model from its family record."""
    return model.record.superpotential(model)


@dataclass(frozen=True)
class PartnerPotentials:
    """V_- and V_+ sampled on a common grid."""

    grid: RadialGrid
    v_minus: np.ndarray
    v_plus: np.ndarray


def partner_potentials(sp: Superpotential, grid: RadialGrid) -> PartnerPotentials:
    """Sample V_-+ = W^2 -+ W' on the grid.

    Raises DomainError if the samples are not finite on the interior (a grid
    wall sitting exactly on a singularity of W is tolerated, since Dirichlet
    solvers never read the wall values).
    """
    r = grid.points()
    w = _sample(sp.w, r)
    wp = _sample(sp.w_prime, r)
    with np.errstate(invalid="ignore", over="ignore"):
        v_minus = w * w - wp
        v_plus = w * w + wp
    if not (np.all(np.isfinite(v_minus[1:-1])) and np.all(np.isfinite(v_plus[1:-1]))):
        raise DomainError("partner potentials are singular inside the grid")
    return PartnerPotentials(grid=grid, v_minus=v_minus, v_plus=v_plus)


def _central_derivative(f: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return d


def _ladder(sp: Superpotential, f_samples, grid: RadialGrid, sign: float) -> np.ndarray:
    """Apply (sign * d/dr + W) to tabulated f; O(h^2) finite-difference derivative."""
    f = np.asarray(f_samples, dtype=float)
    if f.shape != (grid.n_points,):
        raise ValueError("f_samples must have one entry per grid point")
    w = _sample(sp.w, grid.points())
    # W may blow up at a wall where f has an exact zero; that wall value is
    # meaningless downstream, so pin it instead of propagating inf * 0.
    with np.errstate(invalid="ignore", over="ignore"):
        out = sign * _central_derivative(f, grid.h) + w * f
    out[~np.isfinite(out)] = 0.0
    return out


def apply_lowering(sp: Superpotential, f_samples, grid: RadialGrid) -> np.ndarray:
    """Apply (d/dr + W) to tabulated f; O(h^2) finite-difference derivative."""
    return _ladder(sp, f_samples, grid, 1.0)


def apply_raising(sp: Superpotential, f_samples, grid: RadialGrid) -> np.ndarray:
    """Apply (-d/dr + W) to tabulated f; adjoint partner of apply_lowering."""
    return _ladder(sp, f_samples, grid, -1.0)


def ground_state_from_w(sp: Superpotential, grid: RadialGrid) -> np.ndarray:
    """Normalized lower-partner zero mode f_0 = exp(-int W) from W alone.

    The 1/r part of W is integrated in closed form (a power-law prefactor);
    the regular remainder goes through cumulative Simpson quadrature, which
    is exact for the polynomial superpotentials.  Raises DomainError when the
    result fails to decay at r_max (non-normalizable zero mode on this
    window, e.g. a sign-flipped W).
    """
    r = grid.points()
    exponent = -cumulative_quadrature(_sample(sp.w_regular, r), grid)
    c = sp.singular_coefficient
    if c != 0.0:
        if grid.r_min <= 0.0:
            raise DomainError("singular superpotential requires r_min > 0")
        exponent = exponent - c * np.log(r / grid.r_min)
    exponent -= np.max(exponent)
    f = np.exp(exponent)
    if f[-1] > _DECAY_CEILING:
        raise DomainError(
            "exp(-int W) does not decay at r_max; the zero mode is not "
            "normalizable on this window"
        )
    return f / math.sqrt(quadrature(f * f, grid))
