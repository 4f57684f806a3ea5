"""Quasi-exactly-solvable families: partner forms, zero modes, residuals."""

import math

import numpy as np
import pytest

from susyrad import (
    ConfigurationError,
    DomainError,
    RadialGrid,
    Source,
    anharmonic_model,
    coulomb_model,
    deformed_coulomb_model,
    discretize,
    ground_state_from_w,
    lowest_eigenvalues,
    partner_potentials,
    qes_ground_state,
    qes_numeric_spectrum,
    quadrature,
    sextic_model,
    superpotential_from_model,
)

RNG_RADII = np.random.default_rng(20260815).uniform(0.05, 6.0, size=100)


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
    gs = qes_ground_state(model, grid)
    assert gs.epsilon_sq == 0.0
    ref = np.exp(-r**3 / 3.0 - r**2 / 2.0 - r)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(gs.f0, ref, atol=1e-12)


def test_sextic_zero_mode_shape():
    model = sextic_model(1.0, 1.0, ell=2)
    grid = RadialGrid(1e-5, 6.0, 4001)
    r = grid.points()
    gs = qes_ground_state(model, grid)
    ref = r**2 * np.exp(-r**2 / 2.0 - r**4 / 4.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(gs.f0, ref, atol=1e-12)


def test_deformed_coulomb_zero_mode_shape():
    model = deformed_coulomb_model(2.0, 0.5, ell=1)
    grid = RadialGrid(1e-4, 14.0, 4001)
    r = grid.points()
    gs = qes_ground_state(model, grid)
    ref = r**2 * np.exp(-0.25 * r**2 - 0.5 * r)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(gs.f0, ref, atol=1e-12)


@pytest.mark.parametrize("model,rmin,rmax", [
    (anharmonic_model(1.0, 1.0, 1.0), 0.0, 8.0),
    (sextic_model(1.0, 1.0, ell=1), 1e-5, 6.0),
    (deformed_coulomb_model(1.0, 1.0, ell=0), 1e-3, 12.0),
])
def test_zero_mode_agrees_with_integrated_superpotential(model, rmin, rmax):
    """Closed-form f0 against exp(-int W) built by quadrature: two fully
    independent constructions of the same state."""
    grid = RadialGrid(rmin, rmax, 8001)
    gs = qes_ground_state(model, grid)
    f = ground_state_from_w(superpotential_from_model(model), grid)
    assert np.max(np.abs(gs.f0 - f)) < 1e-8


@pytest.mark.parametrize("model,rmin,rmax", [
    (anharmonic_model(1.0, 1.0, 1.0), 0.0, 8.0),
    (sextic_model(1.0, 1.0, ell=1), 1e-5, 6.0),
    (deformed_coulomb_model(1.0, 1.0, ell=0), 1e-3, 12.0),
])
def test_zero_mode_residual_shrinks_second_order(model, rmin, rmax):
    """sup |-f0'' + V_- f0| / sup |f0| is O(h^2): halving h quarters it."""
    res = []
    for n_points in (8001, 16001):
        res.append(qes_ground_state(model, RadialGrid(rmin, rmax, n_points)).residual_sup)
    assert res[0] < 1e-5
    assert 3.5 < res[0] / res[1] < 4.5


def test_zero_mode_rejects_short_window():
    # omega_T = 0 removes the confining tail; on [1e-3, 6] the state has not
    # decayed at the right edge and the normalizability gate must fire
    with pytest.raises(DomainError):
        qes_ground_state(deformed_coulomb_model(1.0, 0.0, ell=0), RadialGrid(1e-3, 6.0, 601))
    # on a long enough window the same model is fine
    gs = qes_ground_state(deformed_coulomb_model(1.0, 0.0, ell=0), RadialGrid(1e-3, 40.0, 4001))
    assert gs.residual_sup < 1e-3


def test_singular_zero_modes_need_open_origin():
    with pytest.raises(DomainError):
        qes_ground_state(sextic_model(1.0, 1.0, ell=1), RadialGrid(0.0, 6.0, 601))


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
    spec = qes_numeric_spectrum(model, grid, 3)
    eps = spec.epsilon_sq_values()
    assert abs(eps[0]) < 1e-4
    assert eps[1] > 1.0
    assert spec.levels[0].energy_plus == pytest.approx(1.0, abs=1e-4)
    assert spec.levels[0].energy_minus == pytest.approx(-1.0, abs=1e-4)
    assert all(lv.source is Source.NUMERIC for lv in spec.levels)


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
