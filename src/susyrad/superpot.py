"""Superpotentials W(r), partner potentials and the lowering operator.

The radial problem factorizes through W = l/r + e A(r) + v(r): the
partner potentials are V_- = W^2 - W' and V_+ = W^2 + W', the lower-partner
zero mode is exp(-int W), and the lowering operator d/dr + W maps the V_-
tower onto the V_+ one.  Its adjoint, the raising operator -d/dr + W, is
2W - (d/dr + W) and has no function of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, ModelSpec, RadialGrid, Superpotential
from .numsolve import _grid_samples, cumulative_quadrature, quadrature

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
    return PartnerPotentials(v_minus=v_minus, v_plus=v_plus)


def _central_derivative(f: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return d


def apply_lowering(sp: Superpotential, f_samples, grid: RadialGrid) -> np.ndarray:
    """Apply (d/dr + W) to tabulated f; O(h^2) finite-difference derivative."""
    f = _grid_samples("f_samples", f_samples, grid)
    w = _sample(sp.w, grid.points())
    # W may blow up at a wall where f has an exact zero; that wall value is
    # meaningless downstream, so pin it instead of propagating inf * 0.
    with np.errstate(invalid="ignore", over="ignore"):
        out = _central_derivative(f, grid.h) + w * f
    out[~np.isfinite(out)] = 0.0
    return out


def ground_state_from_w(sp: Superpotential, grid: RadialGrid) -> np.ndarray:
    """Normalized zero mode f_0 = exp(-int W) by cumulative Simpson quadrature,
    for a W that is finite on the grid (a tabulated one).  Raises DomainError
    when int W leaves the float range, or as normalized_zero_mode."""
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -cumulative_quadrature(_sample(sp.w, grid.points()), grid)
    if not np.all(np.isfinite(exponent)):
        raise DomainError("exp(-int W) leaves the float range on this grid")
    return normalized_zero_mode(np.exp(exponent - np.max(exponent)), grid)


def normalized_zero_mode(f0: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """A zero mode sampled with peak 1, scaled to unit norm.  Raises
    DomainError when it has not decayed by r_max (window too short, or a
    non-normalizable zero mode such as that of a sign-flipped W)."""
    if f0[-1] > _DECAY_CEILING:
        raise DomainError(
            "zero mode does not decay at r_max; enlarge the window or check parameters"
        )
    return f0 / math.sqrt(quadrature(f0 * f0, grid))
