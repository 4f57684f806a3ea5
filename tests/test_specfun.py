"""Laguerre recurrence against an independent series-expansion oracle."""

import math

import numpy as np
import pytest

from susyrad import DomainError
from susyrad.specfun import laguerre
from susyrad.core import RadialGrid
from susyrad.numsolve import quadrature


def laguerre_series(n, alpha, z):
    """Independent oracle:

        L_n^a(z) = sum_{k=0}^{n} (-1)^k binom(n+a, n-k) z^k / k!

    with the generalized binomial evaluated as a product so non-integer
    alpha works.
    """
    total = 0.0
    for k in range(n + 1):
        binom = 1.0
        for j in range(n - k):
            binom *= (n + alpha - j) / (n - k - j)
        total += (-1.0) ** k * binom * z**k / math.factorial(k)
    return total


def test_degree_zero_and_one():
    assert laguerre(0, 2.5, 17.3) == 1.0
    # L_1^a(z) = 1 + a - z
    assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)
    assert laguerre(1, 3.0, 0.0) == 4.0


def test_known_point():
    # L_2(z) = (z^2 - 4z + 2) / 2, so L_2(2) = -1
    assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_recurrence_matches_series(n, alpha):
    """Recurrence vs series to 1e-10 relative over z in [0, 50]."""
    for z in np.linspace(0.0, 50.0, 38):  # irrational-ish step, avoids roots
        a = laguerre(n, alpha, float(z))
        b = laguerre_series(n, alpha, float(z))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b)), (n, alpha, z)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [0, 1, 3, 6, 8])
def test_value_at_origin_is_binomial(n, alpha):
    # L_n^a(0) = binom(n + a, n) = prod_{k=1..n} (a + k) / k
    expected = 1.0
    for k in range(1, n + 1):
        expected *= (alpha + k) / k
    assert laguerre(n, alpha, 0.0) == pytest.approx(expected, rel=1e-13)


def test_array_evaluation_matches_scalar():
    z = np.array([0.0, 0.3, 1.7, 9.2])
    vec = laguerre(4, 1.5, z)
    assert vec.shape == z.shape
    for zi, vi in zip(z, vec):
        assert vi == laguerre(4, 1.5, float(zi))


def test_laguerre_domain_errors():
    with pytest.raises(DomainError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(DomainError):
        laguerre(2, -1.0, 1.0)


@pytest.mark.parametrize("n,alpha", [(0, 0.5), (1, 0.5), (2, 0.5), (1, 0.0),
                                     (3, 0.0), (2, 2.5), (4, 2.5)])
def test_weighted_orthogonality(n, alpha):
    """int_0^inf z^a e^{-z} L_n^a L_k^a dz = delta_{nk} Gamma(n+a+1)/n!

    checked by quadrature on [0, 200].  The z^(1/2) weight has unbounded
    derivatives at z = 0, capping composite Simpson at O(h^1.5) there
    (measured), hence the much finer grid for alpha < 1.
    """
    grid = RadialGrid(0.0, 200.0, 1600001 if alpha < 1.0 else 200001)
    z = grid.points()
    weight = np.zeros_like(z)
    weight[1:] = z[1:] ** alpha * np.exp(-z[1:])
    weight[0] = 1.0 if alpha == 0.0 else 0.0
    norm_target = math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
    for k in (n, n + 1, n + 2):
        integral = quadrature(weight * laguerre(n, alpha, z) * laguerre(k, alpha, z), grid)
        if k == n:
            assert integral == pytest.approx(norm_target, rel=1e-6)
        else:
            assert abs(integral) <= 1e-6 * norm_target

