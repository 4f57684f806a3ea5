"""Acceptance gate: one test per advertised guarantee, at the stated tolerance.

Run with -v to get one pass/fail line per guarantee. Two tests are expected
failures (strict xfail). They pin the inner Dirichlet wall at r_min = 1e-3, so
every level shifts by roughly |u'(r_min)|^2 * r_min, which exceeds the stated
tolerance no matter how fine the grid is. The companion diagnostic shows the
identical setups pass once the wall moves inward to 1e-4, isolating the defect
to wall placement rather than the solver.
"""

import json
import math
import time

import numpy as np
import pytest

from susyrad import (
    RadialGrid,
    analytic_spectrum,
    analytic_wavefunctions,
    anharmonic_model,
    apply_lowering,
    coulomb_model,
    deformed_coulomb_model,
    discretize,
    eigenvector,
    epsilon_to_energy,
    lowest_eigenvalues,
    morse_model,
    oscillator_model,
    partner_potentials,
    quadrature,
    sextic_model,
    superpotential_from_model,
)
from susyrad.cli import main, zero_mode_residual
from susyrad.numsolve import isospectral_check
from susyrad.qes import qes_ground_state, qes_numeric_spectrum

OSC_LEVELS = [0.0, 4.0, 8.0, 12.0, 16.0]
COULOMB_LEVELS = [0.0, 3.0 / 4.0, 8.0 / 9.0, 15.0 / 16.0]
MORSE_LEVELS = [0.0, 5.0, 8.0]


def _numeric_levels(model, grid, k):
    pp = partner_potentials(superpotential_from_model(model), grid)
    return lowest_eigenvalues(discretize(pp.v_minus, grid), k)


def _max_dev(eigs, targets):
    return max(abs(e - t) for e, t in zip(eigs, targets))


@pytest.mark.xfail(
    strict=True,
    reason="inner wall pinned at r_min = 1e-3: the Dirichlet truncation shifts "
    "each oscillator level by ~|u'(r_min)|^2 * r_min (measured max 5.3e-3 over "
    "n = 0..4), which exceeds the 1e-3 budget at any grid spacing; "
    "see test_wall_shift_dominates_pinned_grid_failures",
)
def test_oscillator_levels_match_4n_within_1e3_on_pinned_grid():
    grid = RadialGrid(1e-3, 12.0, 2401)
    start = time.perf_counter()
    eigs = _numeric_levels(oscillator_model(1.0), grid, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds the 5s budget"
    dev = _max_dev(eigs, OSC_LEVELS)
    assert dev < 1e-3, f"max |eps^2 - 4n| = {dev:.3e} on [1e-3, 12] x 2401"


def test_larmor_coupling_gives_uniform_gap_of_8_within_2e3():
    # omega = 1, B = 2 -> omega_T = 2, so consecutive levels differ by 8
    eigs = _numeric_levels(oscillator_model(1.0, 2.0), RadialGrid(7e-5, 9.0, 4801), 5)
    gaps = np.diff(eigs)
    dev = float(np.max(np.abs(gaps - 8.0)))
    assert dev < 2e-3, f"max |gap - 8| = {dev:.3e}, gaps = {gaps}"


@pytest.mark.xfail(
    strict=True,
    reason="inner wall pinned at r_min = 1e-3: the ground state has "
    "|u'(0)|^2 = 4, so the truncation shift is ~4e-3 (measured 4.0e-3), "
    "exceeding the 2e-3 budget at any grid spacing; "
    "see test_wall_shift_dominates_pinned_grid_failures",
)
def test_coulomb_levels_match_rydberg_ladder_within_2e3_on_pinned_grid():
    grid = RadialGrid(1e-3, 250.0, 12001)
    start = time.perf_counter()
    eigs = _numeric_levels(coulomb_model(1.0), grid, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds the 30s budget"
    dev = _max_dev(eigs, COULOMB_LEVELS)
    assert dev < 2e-3, f"max deviation {dev:.3e} on [1e-3, 250] x 12001"


def test_morse_levels_positive_with_corrected_sign_within_2e3():
    """eps^2 = alpha n (2b - alpha n) gives {0, 5, 8}; the opposite ordering
    alpha n (alpha n - 2b) would put levels at -5 and -8, and the solver must
    find no spectrum down there."""
    grid = RadialGrid(-12.0, 40.0, 8001)
    eigs = _numeric_levels(morse_model(3.0, 1.0, 3.0), grid, 3)
    dev = _max_dev(eigs, MORSE_LEVELS)
    assert dev < 2e-3, f"max deviation {dev:.3e} from {MORSE_LEVELS}"
    assert eigs[0] > -2e-3, f"spurious negative eigenvalue {eigs[0]:.3e}"
    # the lowest eigenvalue sits at 0, nowhere near the sign-flipped -5
    assert abs(eigs[0] - (-5.0)) > 4.9


def test_partner_spectra_align_shifted_by_one_within_2e3():
    """eigs(V_+)[i] = eigs(V_-)[i+1] for the first four pairs, across the
    oscillator, Coulomb, Morse, and sextic families."""
    cases = [
        ("oscillator", oscillator_model(1.0), RadialGrid(1e-5, 12.0, 4801)),
        ("coulomb", coulomb_model(1.0), RadialGrid(1e-4, 80.0, 8001)),
        ("morse", morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001)),
        ("sextic", sextic_model(1.0, 1.0, ell=1), RadialGrid(1e-5, 6.0, 6001)),
    ]
    for label, model, grid in cases:
        pp = partner_potentials(superpotential_from_model(model), grid)
        deviations = isospectral_check(_numeric_levels(model, grid, 5), pp.v_plus, grid)
        worst = max(abs(d) for d in deviations)
        assert worst < 2e-3, f"{label}: max pair deviation {worst:.3e} >= 2e-3"
        assert len(deviations) == 4


def test_lowering_operator_intertwines_oscillator_levels():
    """For n = 1..3: ||(d/dr + W) f_n|| = eps_n within 1%, and the normalized
    image reproduces the V_+ eigenvector at the same level to sup-norm 1e-2."""
    model = oscillator_model(1.0)
    grid = RadialGrid(1e-4, 12.0, 2401)
    sp = superpotential_from_model(model)
    pp = partner_potentials(sp, grid)
    op_plus = discretize(pp.v_plus, grid)
    eigs_plus = lowest_eigenvalues(op_plus, 3)
    for n in (1, 2, 3):
        f_minus, _ = analytic_wavefunctions(model, n, grid)
        f = f_minus / math.sqrt(quadrature(f_minus**2, grid))
        img = apply_lowering(sp, f, grid)
        norm = math.sqrt(quadrature(img * img, grid))
        eps_n = 2.0 * math.sqrt(n)
        assert abs(norm - eps_n) / eps_n < 0.01, (
            f"n={n}: ||A f|| = {norm:.6f} vs eps = {eps_n:.6f}"
        )
        partner_vec = eigenvector(op_plus, eigs_plus[n - 1])
        image_hat = img / norm
        if float(np.dot(partner_vec, image_hat)) < 0.0:
            partner_vec = -partner_vec
        sup = float(np.max(np.abs(image_hat - partner_vec)))
        assert sup < 1e-2, f"n={n}: sup |image - partner eigenvector| = {sup:.3e}"


def test_qes_zero_modes_solve_their_potentials_and_anchor_the_spectrum():
    """Each closed-form zero mode satisfies -f'' + V_- f = 0 with sup residual
    < 1e-4 at h = 1e-3, the residual drops ~4x when h halves, and the solver
    finds the eps^2 = 0 level to within 5e-4."""
    residual_cases = [
        ("anharmonic", anharmonic_model(-8.0, 1.0, 1.0), 0.0, 8.0, 8001, 16001),
        ("sextic", sextic_model(1.0, 1.0, ell=1), 1e-5, 6.0, 6001, 12001),
        ("deformed-coulomb", deformed_coulomb_model(1.0, 1.0, ell=0),
         1e-3, 12.001, 12001, 24001),
    ]

    def residual(model, grid):
        v_minus = partner_potentials(superpotential_from_model(model), grid).v_minus
        return zero_mode_residual(qes_ground_state(model, grid), v_minus, grid)

    for label, model, rmin, rmax, n_h, n_half in residual_cases:
        res_h = residual(model, RadialGrid(rmin, rmax, n_h))
        res_half = residual(model, RadialGrid(rmin, rmax, n_half))
        assert res_h < 1e-4, f"{label}: residual {res_h:.3e} at h=1e-3"
        ratio = res_h / res_half
        assert 3.5 < ratio < 4.5, f"{label}: halving h gave ratio {ratio:.2f}"

    level0_cases = [
        ("anharmonic", anharmonic_model(-8.0, 1.0, 1.0), RadialGrid(1e-5, 8.0, 8001)),
        ("sextic", sextic_model(1.0, 1.0, ell=1), RadialGrid(1e-5, 6.0, 6001)),
        ("deformed-coulomb", deformed_coulomb_model(1.0, 1.0, ell=0),
         RadialGrid(1e-5, 12.0, 8001)),
    ]
    for label, model, grid in level0_cases:
        eps0 = qes_numeric_spectrum(model, grid, 1)[0]
        assert abs(eps0) < 5e-4, f"{label}: numeric level-0 eps^2 = {eps0:.3e}"


def test_oscillator_gram_identity_and_universal_spinor_norms():
    """Gram matrix of the first five oscillator states is the identity within
    1e-6; every generated wavefunction pair carries total norm 1 within 1e-8."""
    model = oscillator_model(1.0)
    grid = RadialGrid(1e-4, 14.0, 2801)
    states = []
    for n in range(5):
        f = analytic_wavefunctions(model, n, grid)[0]
        states.append(f / math.sqrt(quadrature(f * f, grid)))
    gram = np.array([[quadrature(a * b, grid) for b in states] for a in states])
    dev = float(np.max(np.abs(gram - np.eye(5))))
    assert dev < 1e-6, f"Gram deviation {dev:.3e}"

    norm_cases = [
        (oscillator_model(1.0), RadialGrid(1e-4, 14.0, 2801), 4),
        (oscillator_model(0.5, 3.0, ell=2), RadialGrid(1e-4, 10.0, 2001), 3),
        (coulomb_model(1.0), RadialGrid(1e-4, 200.0, 20001), 3),
        (coulomb_model(2.0, ell=1), RadialGrid(1e-4, 60.0, 6001), 2),
        (morse_model(3.0, 1.0, 3.0), RadialGrid(-12.0, 40.0, 8001), 2),
    ]
    for model, grid, n_top in norm_cases:
        for n in range(n_top + 1):
            f_minus, f_plus = analytic_wavefunctions(model, n, grid)
            norm = quadrature(f_minus**2 + f_plus**2, grid)
            assert abs(norm - 1.0) < 1e-8, f"{model.family.value} n={n}: norm {norm!r}"


def test_every_spectrum_row_satisfies_the_relativistic_energy_relation():
    """E^2 - 1 = eps^2 to machine precision (natural units), for analytic and
    numeric spectra alike."""
    spectra = [
        analytic_spectrum(oscillator_model(1.0), 4),
        analytic_spectrum(oscillator_model(1.0, 2.0, ell=1), 3),
        analytic_spectrum(coulomb_model(1.0, 0), 3),
        analytic_spectrum(morse_model(3.0, 1.0, 3.0), 2),
        qes_numeric_spectrum(anharmonic_model(-8.0, 1.0, 1.0), RadialGrid(1e-5, 8.0, 8001), 2),
    ]
    for spec in spectra:
        for n, eps_sq in enumerate(spec):
            for energy in epsilon_to_energy(eps_sq):
                lhs = energy * energy - 1.0
                scale = 1.0 + abs(eps_sq)
                assert abs(lhs - eps_sq) <= 4.0 * np.finfo(float).eps * scale, (
                    f"identity violated at n={n}: {lhs!r} vs {eps_sq!r}"
                )


def test_box_eigenvalue_converges_at_second_order_with_clean_residuals():
    """Free particle on [0, pi]: lowest eigenvalue -> 1 with observed order 2,
    and inverse-iteration eigenpairs satisfy ||T v - lam v|| < 10 tol."""
    errs = []
    for n_points in (101, 201, 401):
        grid = RadialGrid(0.0, math.pi, n_points)
        lam = lowest_eigenvalues(discretize(np.zeros(n_points), grid), 1)[0]
        errs.append(abs(lam - 1.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 < p < 2.2 for p in orders), f"observed orders {orders}"

    tol = 1e-8
    grid = RadialGrid(0.0, math.pi, 2001)
    op = discretize(np.zeros(2001), grid)
    for idx, lam in enumerate(lowest_eigenvalues(op, 3, tol=tol)):
        assert lam == pytest.approx((idx + 1) ** 2, abs=1e-4)
        v = eigenvector(op, lam, tol=tol)[1:-1]
        act = op.diag * v
        act[1:] += op.off * v[:-1]
        act[:-1] += op.off * v[1:]
        residual = float(np.max(np.abs(act - lam * v)))
        assert residual < 10.0 * tol, f"mode {idx}: residual {residual:.3e}"


def test_wall_shift_dominates_pinned_grid_failures():
    """Diagnostic for the two expected failures above: keeping the point count
    fixed (same h) and moving the inner wall from 1e-3 to 1e-4 brings both
    cases inside their tolerance, and the measured shift drops by far more
    than the O(h^2) discretization floor. The defect is the wall placement."""
    cases = [
        (oscillator_model(1.0), 12.0, 2401, OSC_LEVELS, 1e-3),
        (coulomb_model(1.0), 250.0, 12001, COULOMB_LEVELS, 2e-3),
    ]
    for model, r_max, n_points, targets, tol in cases:
        dev_pinned = _max_dev(
            _numeric_levels(model, RadialGrid(1e-3, r_max, n_points), len(targets)),
            targets)
        dev_inner = _max_dev(
            _numeric_levels(model, RadialGrid(1e-4, r_max, n_points), len(targets)),
            targets)
        assert dev_pinned > tol, (
            f"{model.family.value}: pinned-wall run unexpectedly within "
            f"tolerance ({dev_pinned:.3e} <= {tol:g})"
        )
        assert dev_inner < tol, (
            f"{model.family.value}: wall at 1e-4 still off ({dev_inner:.3e})"
        )
        assert dev_pinned / dev_inner > 5.0, (
            f"{model.family.value}: shift ratio {dev_pinned / dev_inner:.1f} "
            "too small for a wall-dominated error"
        )


#: parameter points across the ranges the benchmark draws verify's models
#: from, each family's extremes included; Coulomb at l = 0 and kappa 1.548,
#: 1.643, 1.974 and 2.0 are drawn points that failed analytic_vs_numeric
#: while the default inner wall sat at 1e-4 / kappa
VERIFY_POINTS = [
    ("oscillator", "--omega", "0.5", "--B", "0.0"),
    ("oscillator", "--omega", "2.0", "--B", "1.0"),
    ("oscillator", "--omega", "1.234", "--B", "0.5", "--ell", "1"),
    ("oscillator", "--omega", "2.0", "--B", "0.0", "--ell", "2"),
    ("coulomb", "--kappa", "0.5"),
    ("coulomb", "--kappa", "1.548"),
    ("coulomb", "--kappa", "1.643"),
    ("coulomb", "--kappa", "1.974"),
    ("coulomb", "--kappa", "2.0"),
    ("coulomb", "--kappa", "2.0", "--ell", "1"),
    ("coulomb", "--kappa", "0.5", "--ell", "2"),
    ("morse", "--a", "2.5", "--alpha", "1.2", "--b", "2.5"),
    ("morse", "--a", "3.5", "--alpha", "0.8", "--b", "3.5"),
    ("morse", "--a", "3.126", "--alpha", "0.826", "--b", "2.513"),
    ("anharmonic", "--a", "0.5", "--omega-t", "0.5", "--b", "0.5"),
    ("anharmonic", "--a", "1.5", "--omega-t", "1.5", "--b", "1.5"),
    ("sextic", "--omega-t", "0.5", "--b", "0.5"),
    ("sextic", "--omega-t", "1.5", "--b", "1.5"),
    ("deformed-coulomb", "--e2", "0.5", "--omega-t", "0.5"),
    ("deformed-coulomb", "--e2", "1.5", "--omega-t", "1.5"),
]


@pytest.mark.parametrize("argv", VERIFY_POINTS, ids=" ".join)
def test_default_verify_passes_across_each_family_parameter_range(argv, capsys):
    """Default verify, every check its model's premises allow, on each
    family's default window."""
    code = main(["verify", "--model", *argv])
    failed = [e for e in json.loads(capsys.readouterr().out)["entries"] if e["status"] != "pass"]
    assert code == 0 and not failed, failed


#: windows that start at the c/r pole of W, where the SUSY wall condition
#: (d/dr + W) f = 0 is plain Dirichlet because f goes as r^{-c}
POLE_WINDOWS = [
    ("oscillator", "--grid", "0,12.47,2801"),
    ("coulomb", "--grid", "0,155,16001"),
    ("deformed-coulomb", "--grid", "0,20,8001"),
    ("sextic", "--ell", "1", "--grid", "0,6,6001"),
]


@pytest.mark.parametrize("argv", POLE_WINDOWS, ids=" ".join)
def test_default_verify_from_the_pole_at_r_0_runs_and_passes_all_five_checks(argv, capsys):
    """The closed-form states take their limit 0 at the pole, so every check
    has its premises and gives a number."""
    code = main(["verify", "--model", *argv])
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["check"] for e in entries] == ["isospectral", "intertwine", "orthonormal",
                                             "ground_residual", "analytic_vs_numeric"]
    assert all(e["metric"] is not None and e["status"] == "pass" for e in entries), entries
    assert code == 0
