"""Quasi-exactly-solvable families: partner forms, zero modes, residuals."""

import math

import numpy as np
import pytest

from susyrad import (
    ConfigurationError,
    DomainError,
    RadialGrid,
    anharmonic_model,
    coulomb_model,
    deformed_coulomb_model,
    discretize,
    epsilon_to_energy,
    ground_state_from_w,
    lowest_eigenvalues,
    partner_potentials,
    quadrature,
    sextic_model,
    superpotential_from_model,
)
from susyrad.cli import zero_mode_residual
from susyrad.qes import qes_ground_state, qes_numeric_spectrum

RNG_RADII = np.random.default_rng(20260815).uniform(0.05, 6.0, size=100)


def _residual(model, grid):
    """The closed-form zero mode's residual against V_-, as verify's
    ground_residual check measures it."""
    v_minus = partner_potentials(superpotential_from_model(model), grid).v_minus
    return zero_mode_residual(qes_ground_state(model, grid), v_minus, grid)


def test_qes_gate_rejects_solvable_families():
    grid = RadialGrid(1e-3, 10.0, 101)
    with pytest.raises(ConfigurationError):
        qes_ground_state(coulomb_model(1.0), grid)


# ------------------------------------------------- closed partner forms


def test_anharmonic_partner_closed_form():
    """W = a + w r + b r^2 gives
    V_-+ = b^2 r^4 + 2bw r^3 + (w^2 + 2ab) r^2 + (2aw -+ 2b) r + a^2 -+ w."""
    a, w, b = 1.5, 0.7, 0.4
    grid = RadialGrid(0.05, 6.0, 120)
    r = grid.points()
    pp = partner_potentials(superpotential_from_model(anharmonic_model(a, w, b)), grid)
    base = b * b * r**4 + 2 * b * w * r**3 + (w * w + 2 * a * b) * r**2 + a * a
    vm = base + (2 * a * w - 2 * b) * r - w
    vp = base + (2 * a * w + 2 * b) * r + w
    np.testing.assert_allclose(pp.v_minus, vm, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pp.v_plus, vp, rtol=1e-12, atol=1e-12)
    # difference at r = 1 is 2 W'(1) = 2 (w + 2b)
    i = int(np.argmin(np.abs(r - 1.0)))
    assert pp.v_plus[i] - pp.v_minus[i] == pytest.approx(2 * (w + 2 * b * r[i]))


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_sextic_partner_closed_form(ell):
    """W = -l/r + w r + b r^3:
    V_- = l(l-1)/r^2 + (w^2 - b(2l+3)) r^2 + 2bw r^4 + b^2 r^6 - w(2l+1)
    V_+ = l(l+1)/r^2 + (w^2 - b(2l-3)) r^2 + 2bw r^4 + b^2 r^6 - w(2l-1)."""
    w, b = 1.3, 0.6
    r = np.sort(RNG_RADII)
    grid = RadialGrid(float(r[0]), float(r[-1]), 7)
    sp = superpotential_from_model(sextic_model(w, b, ell=ell))
    vm = sp.w(r) ** 2 - sp.w_prime(r)
    vp = sp.w(r) ** 2 + sp.w_prime(r)
    tail = 2 * b * w * r**4 + b * b * r**6
    ref_m = ell * (ell - 1) / r**2 + (w * w - b * (2 * ell + 3)) * r**2 + tail - w * (2 * ell + 1)
    ref_p = ell * (ell + 1) / r**2 + (w * w - b * (2 * ell - 3)) * r**2 + tail - w * (2 * ell - 1)
    np.testing.assert_allclose(vm, ref_m, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(vp, ref_p, rtol=1e-10, atol=1e-10)
    assert grid.h > 0  # grid only used to anchor the endpoints


def test_sextic_hand_values_at_unit_parameters():
    grid = RadialGrid(1.0, 3.0, 3)
    pp = partner_potentials(superpotential_from_model(sextic_model(1.0, 1.0, ell=1)), grid)
    np.testing.assert_allclose(pp.v_minus, [-4.0, 77.0, 852.0], atol=1e-12)
    assert pp.v_plus[0] == pytest.approx(6.0)
    assert pp.v_plus[1] == pytest.approx(103.5)


def test_deformed_coulomb_partner_closed_form():
    """W = e2/(2(l+1)) - (l+1)/r + w r. The cross terms produce a linear
    confinement piece e2 w r / (l+1) on top of the Coulomb and oscillator
    parts; the constant is q^2 - w(2l+3) for V_- with q = e2/(2(l+1))."""
    e2, w, ell = 1.0, 1.0, 0
    q = e2 / (2.0 * (ell + 1))
    grid = RadialGrid(0.5, 10.0, 77)
    r = grid.points()
    pp = partner_potentials(superpotential_from_model(deformed_coulomb_model(e2, w, ell=ell)), grid)
    common = w * w * r**2 + (e2 * w / (ell + 1)) * r - e2 / r + q * q
    vm = ell * (ell + 1) / r**2 + common - w * (2 * ell + 3)
    vp = (ell + 1) * (ell + 2) / r**2 + common - w * (2 * ell + 1)
    np.testing.assert_allclose(pp.v_minus, vm, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pp.v_plus, vp, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ zero modes


def test_anharmonic_zero_mode_shape_and_energy():
    model = anharmonic_model(1.0, 1.0, 1.0)
    grid = RadialGrid(0.0, 8.0, 4001)
    r = grid.points()
    f0 = qes_ground_state(model, grid)
    ref = np.exp(-r**3 / 3.0 - r**2 / 2.0 - r)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(f0, ref, atol=1e-12)


def test_sextic_zero_mode_shape():
    model = sextic_model(1.0, 1.0, ell=2)
    grid = RadialGrid(1e-5, 6.0, 4001)
    r = grid.points()
    f0 = qes_ground_state(model, grid)
    ref = r**2 * np.exp(-r**2 / 2.0 - r**4 / 4.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(f0, ref, atol=1e-12)


def test_deformed_coulomb_zero_mode_shape():
    model = deformed_coulomb_model(2.0, 0.5, ell=1)
    grid = RadialGrid(1e-4, 14.0, 4001)
    r = grid.points()
    f0 = qes_ground_state(model, grid)
    ref = r**2 * np.exp(-0.25 * r**2 - 0.5 * r)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(f0, ref, atol=1e-12)


@pytest.mark.parametrize("model,rmin,rmax", [
    (anharmonic_model(1.0, 1.0, 1.0), 0.0, 8.0),
    (sextic_model(1.0, 1.0, ell=0), 0.0, 6.0),
])
def test_zero_mode_agrees_with_integrated_superpotential(model, rmin, rmax):
    """Closed-form f0 against exp(-int W) built by quadrature: two fully
    independent constructions of the same state, where W is regular."""
    grid = RadialGrid(rmin, rmax, 8001)
    f0 = qes_ground_state(model, grid)
    f = ground_state_from_w(superpotential_from_model(model), grid)
    assert np.max(np.abs(f0 - f)) < 1e-8


@pytest.mark.parametrize("model,rmin,rmax", [
    (anharmonic_model(1.0, 1.0, 1.0), 0.0, 8.0),
    (sextic_model(1.0, 1.0, ell=1), 1e-5, 6.0),
    (deformed_coulomb_model(1.0, 1.0, ell=0), 1e-3, 12.0),
])
def test_zero_mode_residual_shrinks_second_order(model, rmin, rmax):
    """sup |-f0'' + V_- f0| / sup |f0| is O(h^2): halving h quarters it."""
    res = []
    for n_points in (8001, 16001):
        res.append(_residual(model, RadialGrid(rmin, rmax, n_points)))
    assert res[0] < 1e-5
    assert 3.5 < res[0] / res[1] < 4.5


def test_zero_mode_rejects_short_window():
    # omega_T = 0 removes the confining tail; on [1e-3, 6] the state has not
    # decayed at the right edge and the normalizability gate must fire
    with pytest.raises(DomainError):
        qes_ground_state(deformed_coulomb_model(1.0, 0.0, ell=0), RadialGrid(1e-3, 6.0, 601))
    # on a long enough window the same model is fine
    assert _residual(deformed_coulomb_model(1.0, 0.0, ell=0), RadialGrid(1e-3, 40.0, 4001)) < 1e-3


def test_zero_mode_that_overflows_on_the_grid_is_refused():
    """a r leaves the float range at the far end, where log f_0 is +inf: the
    state is not normalizable, and it is refused rather than zeroed there."""
    with pytest.raises(DomainError, match="degenerate"):
        qes_ground_state(anharmonic_model(-1e300, 1.0, 1.0), RadialGrid(0.0, 1e10, 11))


@pytest.mark.parametrize("model", [sextic_model(1.0, 1.0, ell=1),
                                   deformed_coulomb_model(1.0, 1.0, ell=0)])
def test_singular_zero_modes_vanish_at_r_0(model):
    """At a c/r pole of W (c < 0) at r = 0 the zero mode, which goes as
    r^{-c}, takes its limit 0; the window that starts at the pole gives the
    same samples as one that stops just short of it, and solves V_- within
    verify's ground_residual budget of 50 h^2."""
    grid = RadialGrid(0.0, 6.0, 601)
    f0 = qes_ground_state(model, grid)
    assert f0[0] == 0.0 and np.all(np.isfinite(f0))
    near = qes_ground_state(model, RadialGrid(1e-300, 6.0, 601))
    np.testing.assert_allclose(f0[1:], near[1:], rtol=1e-13)
    grid = RadialGrid(0.0, 6.0, 8001)
    assert _residual(model, grid) < 50.0 * grid.h**2


# ------------------------------------------------------- numeric spectra


@pytest.mark.parametrize("model,grid", [
    (anharmonic_model(-8.0, 1.0, 1.0), RadialGrid(1e-5, 8.0, 8001)),
    (sextic_model(1.0, 1.0, ell=1), RadialGrid(1e-5, 6.0, 6001)),
    (deformed_coulomb_model(1.0, 1.0, ell=0), RadialGrid(1e-5, 12.0, 8001)),
])
def test_numeric_spectrum_captures_zero_mode(model, grid):
    """For parameter sets whose zero mode vanishes at both walls the solver
    recovers eps^2 = 0 at the bottom, and E = +-mc^2 survives the tiny
    negative rounding of eps0^2."""
    eps = qes_numeric_spectrum(model, grid, 3)
    assert len(eps) == 3
    assert abs(eps[0]) < 1e-4
    assert eps[1] > 1.0
    energy_plus, energy_minus = epsilon_to_energy(eps[0])
    assert energy_plus == pytest.approx(1.0, abs=1e-4)
    assert energy_minus == pytest.approx(-1.0, abs=1e-4)


def test_sextic_reduces_to_uniform_gaps_without_sextic_term():
    """b = 0 collapses V_- to a shifted radial oscillator: gaps of 4 w."""
    grid = RadialGrid(1e-5, 10.0, 4001)
    pp = partner_potentials(superpotential_from_model(sextic_model(1.0, 0.0, ell=1)), grid)
    eigs = lowest_eigenvalues(discretize(pp.v_minus, grid), 4)
    np.testing.assert_allclose(np.diff(eigs), 4.0, atol=1e-4)
    assert abs(eigs[0]) < 1e-4


def test_anharmonic_perturbs_continuously_from_harmonic():
    """A 1e-6 quartic coupling moves the first excited level by well under
    a percent relative to the b = 0 comparator."""
    grid = RadialGrid(0.0, 10.0, 4001)
    levels = {}
    for b in (0.0, 1e-6):
        pp = partner_potentials(superpotential_from_model(anharmonic_model(1.0, 1.0, b)), grid)
        levels[b] = lowest_eigenvalues(discretize(pp.v_minus, grid), 2)[1]
    assert abs(levels[1e-6] - levels[0.0]) / levels[0.0] < 1e-2


def test_numeric_spectrum_rejects_non_qes():
    with pytest.raises(ConfigurationError):
        qes_numeric_spectrum(coulomb_model(1.0), RadialGrid(1e-3, 20.0, 201), 2)
