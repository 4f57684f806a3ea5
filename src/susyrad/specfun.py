"""Generalized Laguerre polynomials.

The closed-form bound states are Laguerre envelopes; the three-term
recurrence below is the only evaluation path used in production code, so the
test suite checks it against an independent series expansion.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError


def laguerre(n: int, alpha: float, z):
    """Generalized Laguerre polynomial L_n^alpha(z) by upward recurrence.

    (k+1) L_{k+1} = (2k + 1 + alpha - z) L_k - (k + alpha) L_{k-1}

    Args:
        n: degree, integer >= 0.
        alpha: superscript parameter (must keep alpha > -1 for the weight
            z^alpha e^{-z} to be integrable, which is all we ever need).
        z: scalar or ndarray of evaluation points.

    Returns:
        float for scalar z, ndarray matching z otherwise.
    """
    if n < 0 or n != int(n):
        raise DomainError("laguerre degree n must be a nonnegative integer")
    if alpha <= -1:
        raise DomainError("laguerre parameter alpha must be > -1")
    zarr = np.asarray(z, dtype=float)
    prev = np.ones_like(zarr)           # L_0
    if n == 0:
        return float(prev) if np.isscalar(z) else prev
    cur = 1.0 + alpha - zarr            # L_1
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - zarr) * cur - (k + alpha) * prev) / (k + 1)
    return float(cur) if np.isscalar(z) else cur

