"""Grids, model validation and the energy mapping."""

import math

import numpy as np
import pytest

from susyrad import (
    ConfigurationError,
    DomainError,
    Family,
    ModelSpec,
    NoBoundStateError,
    RadialGrid,
    anharmonic_model,
    coulomb_model,
    custom_model,
    deformed_coulomb_model,
    epsilon_to_energy,
    morse_model,
    omega_total,
    oscillator_model,
    sextic_model,
)


def test_grid_spacing_and_points():
    g = RadialGrid(0.0, 1.0, 5)
    assert g.h == 0.25
    np.testing.assert_allclose(g.points(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        RadialGrid(1.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        RadialGrid(2.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        RadialGrid(0.0, 1.0, 2)
    with pytest.raises(ConfigurationError):
        RadialGrid(1e-3, math.inf, 100)
    with pytest.raises(ConfigurationError, match="width"):
        RadialGrid(-1e308, 1e308, 5)  # finite ends, but r_max - r_min overflows


def test_omega_total():
    # omega_T = omega + B/2 in natural units
    assert omega_total(1.0, 0.0) == 1.0
    assert omega_total(1.0, 2.0) == 2.0
    assert omega_total(0.0, 4.0) == 2.0
    with pytest.raises(DomainError):
        omega_total(-1.0, 0.0)


def test_epsilon_to_energy_natural_units():
    # E = +-sqrt(1 + eps^2)
    assert epsilon_to_energy(0.0) == (1.0, -1.0)
    assert epsilon_to_energy(3.0) == (2.0, -2.0)
    assert epsilon_to_energy(8.0) == (3.0, -3.0)


def test_epsilon_to_energy_refuses_only_below_the_rest_mass():
    # a discretized zero mode can land just below zero; the energy identity
    # must still hold on that row
    ep, em = epsilon_to_energy(-2e-6)
    assert (ep, em) == (math.sqrt(1.0 - 2e-6), -math.sqrt(1.0 - 2e-6))
    assert abs(ep**2 - 1.0 + 2e-6) < 1e-15
    assert epsilon_to_energy(-1.0) == (0.0, -0.0)
    with pytest.raises(DomainError):
        epsilon_to_energy(-1.0 - 1e-3)


def test_energy_identity_machine_precision():
    """E^2 - 1 == eps^2 must hold to rounding on every level."""
    for eps_sq in (0.0, 1e-8, 0.5, 4.0, 1e4):
        ep, em = epsilon_to_energy(eps_sq)
        # the subtraction cancels, so rounding scales with E^2 itself
        assert abs(ep**2 - 1.0 - eps_sq) <= 8 * np.finfo(float).eps * max(ep**2, 1.0)
        assert em == -ep


def test_nonrelativistic_limit_bounds_exact_gap():
    """E - 1 <= eps^2 / 2, with an O(eps^4) gap that shrinks ~4x
    per halving of eps^2."""
    gaps = []
    for eps_sq in (0.02, 0.01, 0.005):
        ep, _ = epsilon_to_energy(eps_sq)
        exact = ep - 1.0
        approx = eps_sq / 2.0  # the nonrelativistic eps^2 / 2
        assert exact <= approx
        gaps.append(approx - exact)
    assert 3.5 < gaps[0] / gaps[1] < 4.5
    assert 3.5 < gaps[1] / gaps[2] < 4.5


def test_oscillator_model_validation():
    m = oscillator_model(1.0, 2.0, ell=1)
    assert m.family is Family.OSCILLATOR and m.ell == 1
    with pytest.raises(ConfigurationError):
        oscillator_model(0.0, 0.0)  # omega_T would vanish
    with pytest.raises(ConfigurationError):
        oscillator_model(1.0, ell=-1)


def test_coulomb_model_validation():
    coulomb_model(2.0, ell=3)
    with pytest.raises(ConfigurationError):
        coulomb_model(0.0)
    with pytest.raises(ConfigurationError):
        coulomb_model(1.0, ell=-2)


def test_morse_model_validation():
    morse_model(3.0, 1.0, 3.0)
    for bad in ((0.0, 1.0, 3.0), (3.0, 0.0, 3.0), (3.0, 1.0, 0.0)):
        with pytest.raises(ConfigurationError):
            morse_model(*bad)


def test_qes_model_validation():
    anharmonic_model(-8.0, 1.0, 1.0)
    anharmonic_model(1.0, 1.0, 0.0)  # b = 0 harmonic comparator is allowed
    with pytest.raises(ConfigurationError):
        anharmonic_model(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        anharmonic_model(1.0, 1.0, -0.5)

    sextic_model(1.0, 2.0, ell=2)
    sextic_model(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        sextic_model(1.0, 1.0, ell=-1)

    deformed_coulomb_model(1.0, 1.0, ell=0)
    deformed_coulomb_model(1.0, 0.0)  # pure deformed-Coulomb limit
    with pytest.raises(ConfigurationError):
        deformed_coulomb_model(0.0, 1.0)


def test_custom_model_requires_tabulated_data():
    g = RadialGrid(0.0, 1.0, 11)
    w = np.linspace(0.0, 1.0, 11)
    m = custom_model(g, w, np.ones(11))
    assert m.family is Family.CUSTOM
    with pytest.raises(ConfigurationError):
        custom_model(g, w[:5], np.ones(11))
    with pytest.raises(ConfigurationError):
        ModelSpec(Family.CUSTOM, {"grid": g, "w_samples": w})  # missing derivative


def test_model_missing_parameters():
    with pytest.raises(ConfigurationError):
        ModelSpec(Family.MORSE, {"a": 3.0, "alpha": 1.0})
