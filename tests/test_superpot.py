"""Superpotential assembly, partner potentials, ladder operators, zero modes."""

import math
import warnings

import numpy as np
import pytest

from susyrad import (
    DomainError,
    RadialGrid,
    analytic_wavefunctions,
    anharmonic_model,
    apply_lowering,
    apply_raising,
    coulomb_model,
    custom_model,
    deformed_coulomb_model,
    ground_state_from_w,
    morse_model,
    oscillator_model,
    partner_potentials,
    quadrature,
    sextic_model,
    superpotential_from_model,
)

ALL_MODELS = [
    oscillator_model(1.0, 0.0, ell=0),
    oscillator_model(0.5, 3.0, ell=2),
    coulomb_model(1.0, ell=0),
    coulomb_model(2.0, ell=1),
    morse_model(3.0, 1.0, 3.0),
    anharmonic_model(1.0, 1.0, 1.0),
    sextic_model(1.0, 1.0, ell=1),
    deformed_coulomb_model(1.0, 1.0, ell=0),
]


def test_oscillator_w_values():
    # W = (m omega_T / hbar) r - (ell+1)/r; at omega_T = 1, ell = 0: W(2) = 1.5
    sp = superpotential_from_model(oscillator_model(1.0))
    assert sp.w(2.0) == pytest.approx(1.5, abs=1e-15)
    assert sp.singular_coefficient == -1.0
    # Larmor shift: omega=1, B=2 gives omega_T = 2
    sp2 = superpotential_from_model(oscillator_model(1.0, 2.0))
    assert sp2.w(1.0) == pytest.approx(2.0 - 1.0, abs=1e-15)


def test_morse_w_crosses_zero_at_origin_when_a_equals_b():
    sp = superpotential_from_model(morse_model(3.0, 1.0, 3.0))
    assert sp.w(0.0) == 0.0
    assert sp.w_prime(0.0) == 3.0
    assert sp.singular_coefficient == 0.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_regular_plus_singular_split(model):
    sp = superpotential_from_model(model)
    r = np.linspace(0.11, 7.7, 29)
    np.testing.assert_allclose(sp.w_regular(r) + sp.singular_coefficient / r,
                               sp.w(r), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_w_prime_is_derivative_of_w(model):
    sp = superpotential_from_model(model)
    r = np.linspace(0.5, 6.0, 23)
    d = 1e-6
    fd = (sp.w(r + d) - sp.w(r - d)) / (2 * d)
    np.testing.assert_allclose(fd, sp.w_prime(r), rtol=1e-7, atol=1e-6)


def test_partner_oscillator_values():
    # ell = 0, omega_T = 1: V_- = r^2 - 3, V_+ = r^2 + 2/r^2 - 1
    grid = RadialGrid(1.0, 3.0, 3)
    pp = partner_potentials(superpotential_from_model(oscillator_model(1.0)), grid)
    np.testing.assert_allclose(pp.v_minus, [-2.0, 1.0, 6.0], atol=1e-13)
    np.testing.assert_allclose(pp.v_plus, [2.0, 3.5, 8.0 + 2.0 / 9.0], atol=1e-13)


def test_partner_difference_is_twice_w_prime():
    for model in ALL_MODELS:
        grid = RadialGrid(0.2, 8.0, 101)
        sp = superpotential_from_model(model)
        pp = partner_potentials(sp, grid)
        np.testing.assert_allclose(pp.v_plus - pp.v_minus,
                                   2.0 * sp.w_prime(grid.points()),
                                   rtol=1e-12, atol=1e-10)


def test_partner_sextic_ell1_closed_form():
    """V_- = l(l-1)/r^2 + (w^2 - b(2l+3)) r^2 + 2bw r^4 + b^2 r^6 - w(2l+1),
    so at l = 1, w = b = 1 the r^2 coefficient is -4."""
    grid = RadialGrid(0.5, 2.5, 21)
    r = grid.points()
    pp = partner_potentials(superpotential_from_model(sextic_model(1.0, 1.0, ell=1)), grid)
    expected = -4.0 * r**2 + 2.0 * r**4 + r**6 - 3.0
    np.testing.assert_allclose(pp.v_minus, expected, rtol=1e-12)


def test_partner_rejects_interior_singularity():
    grid = RadialGrid(-1.0, 20.0, 22)  # r = 0 is an interior node here
    with pytest.raises(DomainError):
        partner_potentials(superpotential_from_model(coulomb_model(1.0)), grid)


def test_lowering_annihilates_ground_state():
    """(d/dr + W) exp(-int W) = 0; discretely the sup residual is O(h^2)."""
    model = anharmonic_model(1.0, 1.0, 1.0)
    sp = superpotential_from_model(model)
    sups = []
    for n_points in (1001, 2001):
        grid = RadialGrid(0.0, 8.0, n_points)
        f0 = ground_state_from_w(sp, grid)
        img = apply_lowering(sp, f0, grid)
        sups.append(np.max(np.abs(img)))
    assert sups[0] < 1e-3
    assert 3.0 < sups[0] / sups[1] < 5.5  # second order


def test_lowering_maps_level_one_to_norm_epsilon():
    """||(d/dr + W) f_1|| = eps_1 for the normalized first excited state."""
    model = oscillator_model(1.0)
    grid = RadialGrid(1e-4, 12.0, 2401)
    sp = superpotential_from_model(model)
    wf = analytic_wavefunctions(model, 1, grid)
    f1 = wf.f_minus / math.sqrt(quadrature(wf.f_minus**2, grid))
    img = apply_lowering(sp, f1, grid)
    nrm = math.sqrt(quadrature(img**2, grid))
    assert nrm == pytest.approx(2.0, rel=1e-4)  # eps_1 = sqrt(4 * 1)


def test_lowering_at_a_singular_wall_warns_nothing():
    """W = r - 1/r is infinite at r_min = 0, where f vanishes: the wall sample
    is pinned to 0 without a numpy warning."""
    grid = RadialGrid(0.0, 5.0, 101)
    r = grid.points()
    sp = superpotential_from_model(oscillator_model(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = apply_lowering(sp, r * np.exp(-r**2 / 2.0), grid)
    assert img[0] == 0.0 and np.all(np.isfinite(img))


def test_raising_after_lowering_scales_by_epsilon_sq():
    """A+ A f = eps^2 f. Compared on r in [0.5, 11.5]: near the 1/r pole the
    stencil error degrades, so measure where the coefficients are smooth."""
    model = oscillator_model(1.0)
    sp = superpotential_from_model(model)
    devs = []
    for n_points in (1201, 2401):
        grid = RadialGrid(1e-4, 12.0, n_points)
        r = grid.points()
        wf = analytic_wavefunctions(model, 1, grid)
        f1 = wf.f_minus / math.sqrt(quadrature(wf.f_minus**2, grid))
        back = apply_raising(sp, apply_lowering(sp, f1, grid), grid)
        mask = (r >= 0.5) & (r <= 11.5)
        devs.append(np.max(np.abs(back - 4.0 * f1)[mask]))
    assert devs[0] < 1e-3
    assert 3.5 < devs[0] / devs[1] < 4.5  # second order


def test_lowering_raising_are_adjoint_for_interior_functions():
    """<g, (d+W) f> = <(-d+W) g, f> when f and g vanish at the walls."""
    model = anharmonic_model(0.5, 1.0, 0.3)
    sp = superpotential_from_model(model)
    grid = RadialGrid(0.0, 7.0, 4001)
    r = grid.points()
    f = r * (7.0 - r) * np.exp(-r)
    g = np.sin(math.pi * r / 7.0) ** 2 * np.exp(-0.3 * r)
    lhs = quadrature(g * apply_lowering(sp, f, grid), grid)
    rhs = quadrature(apply_raising(sp, g, grid) * f, grid)
    assert lhs == pytest.approx(rhs, rel=1e-7)


def test_operators_preserve_zero_and_validate_shape():
    model = oscillator_model(1.0)
    sp = superpotential_from_model(model)
    grid = RadialGrid(1e-3, 5.0, 101)
    z = np.zeros(101)
    assert np.all(apply_lowering(sp, z, grid) == 0.0)
    assert np.all(apply_raising(sp, z, grid) == 0.0)
    with pytest.raises(ValueError):
        apply_lowering(sp, np.zeros(100), grid)


def test_ground_state_anharmonic_closed_form():
    """a = 0 Anharmonic zero mode: exp(-b r^3/3 - w r^2/2), checked pointwise
    after normalization."""
    model = anharmonic_model(0.0, 1.0, 1.0)
    grid = RadialGrid(0.0, 8.0, 4001)
    r = grid.points()
    f = ground_state_from_w(superpotential_from_model(model), grid)
    ref = np.exp(-r**3 / 3.0 - r**2 / 2.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    assert np.max(np.abs(f - ref)) < 1e-6


def test_ground_state_morse_closed_form():
    # exp(-int W) with W = b - a e^{-alpha r}: proportional to
    # exp(-b r - (a/alpha) e^{-alpha r})
    model = morse_model(3.0, 1.0, 3.0)
    grid = RadialGrid(-10.0, 30.0, 8001)
    r = grid.points()
    f = ground_state_from_w(superpotential_from_model(model), grid)
    ref = np.exp(-3.0 * r - 3.0 * np.exp(-r) + 3.0)  # constant absorbed by norm
    ref /= math.sqrt(quadrature(ref**2, grid))
    assert np.max(np.abs(f - ref)) < 1e-8


def test_ground_state_sextic_closed_form():
    model = sextic_model(1.0, 1.0, ell=1)
    grid = RadialGrid(1e-5, 6.0, 6001)
    r = grid.points()
    f = ground_state_from_w(superpotential_from_model(model), grid)
    ref = r * np.exp(-r**2 / 2.0 - r**4 / 4.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    assert np.max(np.abs(f - ref)) < 1e-8


def test_ground_state_deformed_coulomb_reconstruction():
    """Numerical exp(-int W) against r^{l+1} exp(-w r^2/2 - e2 r/(2(l+1))):
    the full W including the linear confinement term must be integrated."""
    model = deformed_coulomb_model(1.0, 1.0, ell=0)
    grid = RadialGrid(1e-3, 12.0, 6001)
    r = grid.points()
    f = ground_state_from_w(superpotential_from_model(model), grid)
    ref = r * np.exp(-r**2 / 2.0 - r / 2.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    assert np.max(np.abs(f - ref)) < 1e-9


def test_ground_state_oscillator_matches_analytic_wavefunction():
    model = oscillator_model(1.0, 0.0, ell=1)
    grid = RadialGrid(1e-4, 12.0, 2401)
    f = ground_state_from_w(superpotential_from_model(model), grid)
    wf = analytic_wavefunctions(model, 0, grid)
    assert np.max(np.abs(f - wf.f_minus)) < 1e-9


def test_ground_state_rejects_growing_mode():
    # W = -r: exp(-int W) = exp(r^2/2) blows up at the right wall
    grid = RadialGrid(0.0, 6.0, 601)
    r = grid.points()
    model = custom_model(grid, -r, -np.ones_like(r))
    with pytest.raises(DomainError):
        ground_state_from_w(superpotential_from_model(model), grid)


def test_ground_state_singular_w_needs_positive_rmin():
    model = coulomb_model(1.0)
    sp = superpotential_from_model(model)
    with pytest.raises(DomainError):
        ground_state_from_w(sp, RadialGrid(0.0, 40.0, 401))


def test_custom_interpolation_hits_tabulated_nodes():
    grid = RadialGrid(0.0, 5.0, 51)
    r = grid.points()
    w = np.tanh(r) + 0.2 * r
    wp = 1.0 / np.cosh(r) ** 2 + 0.2
    sp = superpotential_from_model(custom_model(grid, w, wp))
    np.testing.assert_array_equal(sp.w(r), w)
    np.testing.assert_array_equal(sp.w_prime(r), wp)
    assert sp.w(0.55) == pytest.approx(np.interp(0.55, r, w), abs=1e-15)
