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
        z: evaluation points, as anything np.asarray reads as floats.

    Returns:
        float values shaped like z: an ndarray, or for a scalar z a 0-d
        array or numpy float.
    """
    if n < 0 or n != int(n):
        raise DomainError("laguerre degree n must be a nonnegative integer")
    if alpha <= -1:
        raise DomainError("laguerre parameter alpha must be > -1")
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)              # L_0
    if n == 0:
        return prev
    cur = 1.0 + alpha - z               # L_1
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
    return cur

