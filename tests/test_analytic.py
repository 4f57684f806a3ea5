"""Closed-form spectra and paired wavefunctions for the solvable families."""

import math

import numpy as np
import pytest

from susyrad import (
    ConfigurationError,
    NoBoundStateError,
    RadialGrid,
    Source,
    analytic_epsilon_sq,
    analytic_spectrum,
    analytic_wavefunctions,
    anharmonic_model,
    coulomb_model,
    custom_model,
    discretize,
    eigenvector,
    lowest_eigenvalues,
    morse_model,
    oscillator_model,
    partner_potentials,
    quadrature,
    superpotential_from_model,
)


def _sign_changes(f):
    """Interior sign changes, ignoring the sub-1e-8 tails."""
    g = f[np.abs(f) > 1e-8 * np.max(np.abs(f))]
    return int(np.sum(np.sign(g[1:]) != np.sign(g[:-1])))


# ---------------------------------------------------------------- spectra


def test_oscillator_epsilon_sq_values():
    m = oscillator_model(1.0)
    assert analytic_epsilon_sq(m, 0) == 0.0
    assert analytic_epsilon_sq(m, 3) == pytest.approx(12.0, abs=1e-14)
    # Larmor shift: omega_T = omega + eB/2m = 2, so 4 n omega_T -> 16 at n = 2
    assert analytic_epsilon_sq(oscillator_model(1.0, 2.0), 2) == pytest.approx(16.0)


def test_oscillator_epsilon_independent_of_ell():
    for n in range(4):
        assert analytic_epsilon_sq(oscillator_model(1.0, ell=0), n) == \
            pytest.approx(analytic_epsilon_sq(oscillator_model(1.0, ell=3), n))


def test_coulomb_epsilon_sq_values():
    # kappa^2 (1/(l+1)^2 - 1/(n+l+1)^2)
    assert analytic_epsilon_sq(coulomb_model(1.0), 0) == 0.0
    assert analytic_epsilon_sq(coulomb_model(1.0), 1) == pytest.approx(0.75)
    assert analytic_epsilon_sq(coulomb_model(1.0, ell=1), 2) == pytest.approx(0.1875)
    assert analytic_epsilon_sq(coulomb_model(2.0), 1) == pytest.approx(3.0)


def test_morse_epsilon_sq_values_and_tower_end():
    m = morse_model(3.0, 1.0, 3.0)
    assert analytic_epsilon_sq(m, 0) == 0.0
    assert analytic_epsilon_sq(m, 1) == pytest.approx(5.0)  # alpha n (2b - alpha n)
    assert analytic_epsilon_sq(m, 2) == pytest.approx(8.0)
    assert m.max_level == 2
    with pytest.raises(NoBoundStateError):
        analytic_epsilon_sq(m, 3)  # b - alpha n = 0: not normalizable


def test_morse_max_level_fractional_depth():
    assert morse_model(3.0, 1.0, 2.5).max_level == 2
    assert morse_model(3.0, 2.0, 1.0).max_level == 0


def test_analytic_spectrum_assembly():
    spec = analytic_spectrum(oscillator_model(1.0), 3)
    assert spec.epsilon_sq_values() == pytest.approx([0.0, 4.0, 8.0, 12.0])
    assert all(lv.source is Source.ANALYTIC for lv in spec.levels)
    assert spec.levels[0].energy_plus == pytest.approx(1.0)
    assert spec.levels[1].energy_minus == pytest.approx(-math.sqrt(5.0))


def test_qes_families_only_expose_the_zero_mode():
    m = anharmonic_model(1.0, 1.0, 1.0)
    assert analytic_epsilon_sq(m, 0) == 0.0
    with pytest.raises(ConfigurationError):
        analytic_epsilon_sq(m, 1)


def test_custom_family_has_no_closed_form():
    grid = RadialGrid(0.0, 5.0, 51)
    r = grid.points()
    m = custom_model(grid, r, np.ones_like(r))
    with pytest.raises(ConfigurationError):
        analytic_epsilon_sq(m, 0)
    with pytest.raises(ConfigurationError):
        analytic_wavefunctions(m, 0, grid)


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        analytic_epsilon_sq(oscillator_model(1.0), -1)


# ---------------------------------------------------------- wavefunctions


def test_oscillator_ground_state_shape():
    # ell = 0, lambda = 1: f_0 proportional to r exp(-r^2/2)
    model = oscillator_model(1.0)
    grid = RadialGrid(1e-4, 12.0, 2401)
    r = grid.points()
    wf = analytic_wavefunctions(model, 0, grid)
    ref = r * np.exp(-r**2 / 2.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(wf.f_minus, ref, atol=1e-12)
    assert np.all(wf.f_plus == 0.0)


def test_coulomb_ground_state_shape():
    # ell = 0, kappa = 1: f_0 proportional to r exp(-r)
    model = coulomb_model(1.0)
    grid = RadialGrid(1e-4, 40.0, 4001)
    r = grid.points()
    wf = analytic_wavefunctions(model, 0, grid)
    ref = r * np.exp(-r)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(wf.f_minus, ref, atol=1e-12)


def test_morse_ground_state_shape():
    # z = (2a/alpha) e^{-alpha r}; f_0 proportional to z^{b/alpha} e^{-z/2}
    model = morse_model(3.0, 1.0, 3.0)
    grid = RadialGrid(-10.0, 30.0, 4001)
    r = grid.points()
    wf = analytic_wavefunctions(model, 0, grid)
    z = 6.0 * np.exp(-r)
    ref = z**3 * np.exp(-z / 2.0)
    ref /= math.sqrt(quadrature(ref**2, grid))
    np.testing.assert_allclose(wf.f_minus, ref, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_oscillator_node_count(n):
    wf = analytic_wavefunctions(oscillator_model(1.0), n, RadialGrid(1e-4, 14.0, 2801))
    assert _sign_changes(wf.f_minus) == n


@pytest.mark.parametrize("n", [0, 1, 2])
def test_coulomb_node_count(n):
    wf = analytic_wavefunctions(coulomb_model(1.0), n, RadialGrid(1e-4, 120.0, 12001))
    assert _sign_changes(wf.f_minus) == n


def test_wavefunction_metadata():
    model = coulomb_model(1.0, ell=1)
    grid = RadialGrid(1e-4, 80.0, 8001)
    wf = analytic_wavefunctions(model, 2, grid)
    assert wf.n == 2
    assert wf.epsilon_sq == pytest.approx(0.1875)
    assert wf.grid is grid


@pytest.mark.parametrize("model,grid", [
    (oscillator_model(1.0), RadialGrid(1e-4, 14.0, 2801)),
    (oscillator_model(0.5, 3.0, ell=2), RadialGrid(1e-4, 10.0, 2001)),
    (coulomb_model(1.0), RadialGrid(1e-4, 200.0, 20001)),
    (morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001)),
])
def test_spinor_norm_is_one(model, grid):
    for n in range(3):
        wf = analytic_wavefunctions(model, n, grid)
        assert wf.spinor_norm() == pytest.approx(1.0, abs=1e-12)


def test_tails_vanish_at_r_max():
    cases = [
        (oscillator_model(1.0), RadialGrid(1e-4, 14.0, 2801)),
        (coulomb_model(1.0), RadialGrid(1e-4, 200.0, 20001)),
        (morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001)),
    ]
    for model, grid in cases:
        wf = analytic_wavefunctions(model, 2, grid)
        assert abs(wf.f_minus[-1]) < 1e-15


def test_large_order_states_stay_finite():
    """exp(k ln z - z/2) assembly must not overflow for high n at large r."""
    wf = analytic_wavefunctions(coulomb_model(1.0), 8, RadialGrid(1e-4, 400.0, 8001))
    assert np.all(np.isfinite(wf.f_minus))
    assert np.all(np.isfinite(wf.f_plus))
    assert wf.spinor_norm() == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------- ladder orthogonality


@pytest.mark.parametrize("model,grid,count,bound", [
    (oscillator_model(1.0), RadialGrid(1e-4, 14.0, 2801), 5, 1e-10),
    (coulomb_model(1.0), RadialGrid(1e-4, 200.0, 20001), 5, 5e-9),
    (morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001), 3, 1e-12),
])
def test_lower_component_gram_matrix(model, grid, count, bound):
    fs = []
    for n in range(count):
        f = analytic_wavefunctions(model, n, grid).f_minus
        fs.append(f / math.sqrt(quadrature(f * f, grid)))
    gram = np.array([[quadrature(a * b, grid) for b in fs] for a in fs])
    assert np.max(np.abs(gram - np.eye(count))) < bound


# -------------------------------------------------- against the eigensolver


def test_upper_component_is_partner_eigenvector():
    """f_plus of level 1 equals the V_+ ground eigenvector to O(h^2)."""
    model = oscillator_model(1.0)
    grid = RadialGrid(1e-4, 12.0, 2401)
    pp = partner_potentials(superpotential_from_model(model), grid)
    op = discretize(pp.v_plus, grid)
    lam = lowest_eigenvalues(op, 1)[0]
    assert lam == pytest.approx(4.0, abs=1e-3)
    wf = analytic_wavefunctions(model, 1, grid)
    fp = wf.f_plus / math.sqrt(quadrature(wf.f_plus**2, grid))
    vec = eigenvector(op, lam)
    if np.dot(vec, fp) < 0.0:
        vec = -vec
    assert np.max(np.abs(vec - fp)) < 10.0 * grid.h**2


@pytest.mark.parametrize("model,grid,count,bound", [
    (oscillator_model(1.0), RadialGrid(1e-5, 12.0, 4801), 4, 1e-4),
    (coulomb_model(1.0), RadialGrid(1e-4, 80.0, 8001), 3, 1e-3),
    (morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001), 3, 1e-4),
])
def test_analytic_levels_match_numeric_solver(model, grid, count, bound):
    pp = partner_potentials(superpotential_from_model(model), grid)
    eigs = lowest_eigenvalues(discretize(pp.v_minus, grid), count)
    for n in range(count):
        ana = analytic_epsilon_sq(model, n)
        assert abs(eigs[n] - ana) / max(1.0, abs(ana)) < bound


def test_wavefunctions_require_open_origin_for_singular_families():
    from susyrad import DomainError
    with pytest.raises(DomainError):
        analytic_wavefunctions(oscillator_model(1.0), 0, RadialGrid(0.0, 12.0, 1201))
    with pytest.raises(DomainError):
        analytic_wavefunctions(coulomb_model(1.0), 0, RadialGrid(0.0, 40.0, 401))


def test_morse_level_beyond_tower_raises():
    with pytest.raises(NoBoundStateError):
        analytic_wavefunctions(morse_model(3.0, 1.0, 3.0), 3, RadialGrid(-10.0, 30.0, 401))
