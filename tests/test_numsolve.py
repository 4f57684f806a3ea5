"""Finite-difference eigensolver: hand oracles, scipy cross-checks, order tests."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from susyrad import (
    DomainError,
    NumericError,
    RadialGrid,
    apply_lowering,
    cumulative_quadrature,
    discretize,
    eigenvector,
    lowest_eigenvalues,
    oscillator_model,
    partner_potentials,
    quadrature,
    sextic_model,
    sturm_count,
    superpotential_from_model,
)
from susyrad.cli import build_parser, resolve_config
from susyrad import cli, numsolve
from susyrad.core import Family
from susyrad.numsolve import TridiagonalOperator, _newton_sweep, isospectral_check

EPS = np.finfo(float).eps


def test_discretize_free_particle_entries():
    """V = 0 on [0,1] with 5 points: h = 1/4, diag = 2/h^2 = 32, off = -16."""
    grid = RadialGrid(0.0, 1.0, 5)
    op = discretize(np.zeros(5), grid)
    np.testing.assert_array_equal(op.diag, [32.0, 32.0, 32.0])
    np.testing.assert_array_equal(op.off, [-16.0, -16.0])
    assert op.size == 3


def test_discretize_shape_and_interior_checks():
    grid = RadialGrid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        discretize(np.zeros(4), grid)
    v = np.zeros(5)
    v[2] = np.inf
    with pytest.raises(DomainError):
        discretize(v, grid)
    # walls may be singular; Dirichlet never reads them
    v = np.zeros(5)
    v[0] = np.inf
    v[-1] = np.nan
    discretize(v, grid)


def test_constant_shift_moves_spectrum_exactly():
    rng = np.random.default_rng(7)
    grid = RadialGrid(0.0, 1.0, 42)
    v = rng.uniform(-5.0, 5.0, 42)
    base = lowest_eigenvalues(discretize(v, grid), 4, tol=1e-12)
    shifted = lowest_eigenvalues(discretize(v + 11.25, grid), 4, tol=1e-12)
    np.testing.assert_allclose(np.array(shifted) - np.array(base), 11.25, atol=1e-9)


def _stencil_operator(diag, h=1.0):
    """The stencil with this diagonal on a grid of spacing h (up to rounding),
    so that every off-diagonal entry is -1/h^2."""
    n = len(diag) + 2
    grid = RadialGrid(0.0, h * (n - 1), n)
    return TridiagonalOperator(diag=np.asarray(diag, float), grid=grid)


def test_off_is_the_stencil_coupling_bit_for_bit():
    """The benchmark's LAPACK gate and operator keys read op.off: on
    discretize's operator and on its coarsened one, each on its own grid,
    it is exactly np.full(n_points - 3, -1/h^2)."""
    grid = RadialGrid(0.001, 12.0, 1201)
    op = discretize(np.random.default_rng(3).uniform(-5.0, 5.0, 1201), grid)
    coarse = numsolve._coarsened(op)
    assert coarse.grid.n_points == 601
    for each in (op, coarse):
        g = each.grid
        assert each.off.tobytes() == np.full(g.n_points - 3, -1.0 / g.h**2).tobytes()


def test_operator_refuses_a_diagonal_of_the_wrong_length():
    grid = RadialGrid(0.0, 1.0, 5)
    TridiagonalOperator(diag=np.zeros(3), grid=grid)
    for size in (2, 4):
        with pytest.raises(ValueError):
            TridiagonalOperator(diag=np.zeros(size), grid=grid)


def test_operators_compare_and_hash_by_identity():
    grid = RadialGrid(0.0, 1.0, 11)
    op, same = discretize(np.zeros(11), grid), discretize(np.zeros(11), grid)
    assert op == op and op != same
    assert hash(op) == hash(op) and len({op, same, op}) == 2


def test_two_by_two_hand_case():
    """diag (2, 2), off -1 has eigenvalues 1 and 3."""
    op = _stencil_operator([2.0, 2.0])
    assert sturm_count(op, 0.0) == 0
    assert sturm_count(op, 2.0) == 1
    assert sturm_count(op, 4.0) == 2
    eigs = lowest_eigenvalues(op, 2, tol=1e-12)
    np.testing.assert_allclose(eigs, [1.0, 3.0], atol=1e-10)


def test_sturm_count_monotone_in_lambda():
    rng = np.random.default_rng(123)
    op = _stencil_operator(rng.uniform(-4, 4, 60), 0.7)
    lams = np.sort(rng.uniform(-12, 12, 100))
    counts = [sturm_count(op, lam) for lam in lams]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[0] == 0 and counts[-1] == 60


def test_lowest_eigenvalues_against_scipy():
    rng = np.random.default_rng(2024)
    d = rng.uniform(-2, 6, 80)
    op = _stencil_operator(d, 0.6)
    ours = lowest_eigenvalues(op, 10, tol=1e-12)
    ref = eigh_tridiagonal(d, op.off, eigvals_only=True)[:10]
    np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_lowest_eigenvalues_argument_validation():
    op = _stencil_operator([2.0, 2.0])
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 3)
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 1, tol=0.0)


def test_particle_in_a_box_lowest_level_second_order():
    """-f'' on [0, pi]: exact lowest eigenvalue is 1; the three-point stencil
    converges at order h^2."""
    errs = []
    for n_points in (101, 201, 401):
        grid = RadialGrid(0.0, math.pi, n_points)
        op = discretize(np.zeros(n_points), grid)
        lam = lowest_eigenvalues(op, 1, tol=1e-12)[0]
        errs.append(abs(lam - 1.0))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 1.8 < order1 < 2.2
    assert 1.8 < order2 < 2.2


def test_box_eigenvector_matches_sine():
    grid = RadialGrid(0.0, math.pi, 201)
    op = discretize(np.zeros(201), grid)
    lam = lowest_eigenvalues(op, 1, tol=1e-12)[0]
    vec = eigenvector(op, lam)
    r = grid.points()
    exact = np.sin(r)
    exact /= math.sqrt(quadrature(exact**2, grid))
    assert np.max(np.abs(vec - exact)) < 5.0 * grid.h**2


def test_eigenvector_two_by_two_and_sign():
    op = _stencil_operator([2.0, 2.0])
    vec = eigenvector(op, 1.0, tol=1e-12)
    # ground state of the toy: interior entries equal and positive
    assert vec[0] == 0.0 and vec[-1] == 0.0
    assert vec[1] == pytest.approx(vec[2], rel=1e-12)
    assert vec[1] > 0
    assert quadrature(vec**2, op.grid) == pytest.approx(1.0, abs=1e-13)


def test_eigenvector_residual_and_determinism():
    m = oscillator_model(1.0)
    grid = RadialGrid(1e-5, 12.0, 1201)
    pp = partner_potentials(superpotential_from_model(m), grid)
    op = discretize(pp.v_minus, grid)
    lam = lowest_eigenvalues(op, 2)[1]
    v1 = eigenvector(op, lam)
    v2 = eigenvector(op, lam)
    assert np.array_equal(v1, v2)  # bit-for-bit reproducible
    # residual of the full-grid vector on the interior
    interior = v1[1:-1]
    res = op.diag * interior
    res[:-1] += op.off * interior[1:]
    res[1:] += op.off * interior[:-1]
    res -= lam * interior
    assert np.linalg.norm(res) / np.linalg.norm(interior) < 1e-7


def test_eigenvector_rejects_bogus_shift():
    op = _stencil_operator([2.0, 2.0])
    with pytest.raises(NumericError):
        eigenvector(op, 2.0, tol=1e-12)  # midgap, nowhere near an eigenvalue


@pytest.mark.parametrize("diag, h, shift", [
    ([2.0, 2.0], 1.0, 2.0),          # midgap: both pivots at the twist are 0
    ([0.0] * 40, 1.0, 0.0),          # band centre of an even chain, not a level
    ([0.0] * 40, 1.0, 0.0312),       # between two levels of that chain
    ([3.0, 1e9, 3.0], 1e-2, -1e12),  # far below a stiff spectrum
    ([3.0, 1e9, 3.0], 1e-2, 1e12),   # far above it
])
def test_twisted_eigenvector_rejects_shifts_off_the_spectrum_without_warnings(diag, h, shift):
    """Clamped pivots and huge ratios end in NumericError, never in a numpy
    warning or in a vector whose norm overflowed to a zero vector."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            eigenvector(_stencil_operator(diag, h), shift, tol=1e-12)


def test_quadrature_polynomials_and_exponential():
    grid = RadialGrid(0.0, 1.0, 101)
    r = grid.points()
    assert quadrature(np.ones(101), grid) == pytest.approx(1.0, abs=1e-14)
    # Simpson is exact for cubics
    assert quadrature(r**3, grid) == pytest.approx(0.25, abs=1e-14)
    g40 = RadialGrid(0.0, 40.0, 4001)
    val = quadrature(np.exp(-g40.points()), g40)
    assert val == pytest.approx(1.0 - math.exp(-40.0), rel=1e-9)


@pytest.mark.parametrize("n_points", [3, 4, 5, 6, 7, 16001])
def test_quadrature_weights_are_simpsons_1_4_2_4_1(n_points):
    """Integer samples keep every sum exact: the odd-count rule is h/3 times
    the 1, 4, 2, ..., 4, 1 weighted sum, the even count adds a trapezoid."""
    grid = RadialGrid(0.0, 3.0 * (n_points - 1), n_points)  # h = 3
    y = np.arange(1.0, n_points + 1.0) ** 2
    odd = n_points if n_points % 2 else n_points - 1
    w = np.ones(odd)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    expected = float(sum(wi * yi for wi, yi in zip(w, y[:odd])))
    if odd < n_points:
        expected += 1.5 * (y[-2] + y[-1])
    assert quadrature(y, grid) == expected


def test_quadrature_even_point_fallback():
    # trapezoid tail: exact for a linear integrand even with an even count
    grid = RadialGrid(0.0, 1.0, 100)
    r = grid.points()
    assert quadrature(r, grid) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        quadrature(np.ones(99), grid)


def test_cumulative_quadrature_running_cosine():
    """Running integral of cos matches sin at every node to ~h^4."""
    grid = RadialGrid(0.0, 3.0, 3001)
    r = grid.points()
    run = cumulative_quadrature(np.cos(r), grid)
    assert np.max(np.abs(run - np.sin(r))) < 1e-10
    # final value agrees with the one-shot rule
    assert run[-1] == pytest.approx(quadrature(np.cos(r), grid), abs=1e-13)


def test_cumulative_quadrature_even_count_final_point():
    grid = RadialGrid(0.0, 2.0, 500)
    r = grid.points()
    run = cumulative_quadrature(r**2, grid)
    assert run[-1] == pytest.approx(8.0 / 3.0, rel=1e-10)


_SAMPLE_READERS = {
    "discretize": ("v_samples", discretize),
    "quadrature": ("f_samples", quadrature),
    "cumulative_quadrature": ("f_samples", cumulative_quadrature),
    "apply_lowering": ("f_samples", lambda f, grid: apply_lowering(
        superpotential_from_model(oscillator_model(1.0)), f, grid)),
}


@pytest.mark.parametrize("reader", list(_SAMPLE_READERS))
@pytest.mark.parametrize("shape", [(10,), (12,), (11, 1), ()],
                         ids=["short", "long", "column", "scalar"])
def test_samples_need_one_entry_per_grid_point(reader, shape):
    """Every function that reads samples on a grid refuses any other shape
    with the same message, and takes a list of 11 numbers."""
    name, read = _SAMPLE_READERS[reader]
    grid = RadialGrid(0.5, 1.5, 11)
    with pytest.raises(ValueError, match=f"^{name} must have one entry per grid point$"):
        read(np.ones(shape), grid)
    read([1] * 11, grid)


def _partner_deviations(model, grid):
    """The lowest five V- levels and isospectral_check's four pair deviations."""
    pp = partner_potentials(superpotential_from_model(model), grid)
    eigs_minus = lowest_eigenvalues(discretize(pp.v_minus, grid), 5)
    return eigs_minus, isospectral_check(eigs_minus, pp.v_plus, grid)


def test_isospectral_oscillator():
    """Partner towers of the oscillator interlace: eigs(V+)[i] = eigs(V-)[i+1],
    here to better than 1e-3 on a wall-safe window."""
    eigs_minus, deviations = _partner_deviations(oscillator_model(1.0),
                                                 RadialGrid(1e-5, 12.0, 4801))
    assert len(deviations) == 4
    assert max(abs(d) for d in deviations) < 1e-3
    assert abs(eigs_minus[0]) < 1e-3  # zero mode of the lower partner


def test_isospectral_sextic_ell1():
    _, deviations = _partner_deviations(sextic_model(1.0, 1.0, ell=1),
                                        RadialGrid(1e-5, 6.0, 6001))
    assert max(abs(d) for d in deviations) < 1e-3, deviations


def test_isospectral_check_needs_a_pair():
    grid = RadialGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        isospectral_check([0.0], np.zeros(11), grid)


def _partner_solve(family, monkeypatch):
    """The V+ operator of a family's default window, the V+ levels 0-2 that
    isospectral_check solves on it from V- levels 1-3, as verify reads
    them, and [Newton sweeps, Sturm counts] per V+ level."""
    cfg = resolve_config(build_parser().parse_args(
        ["spectrum", "--model", family, "--method", "numeric", "--n-max", "3"]))
    eigs_minus = cfg.eigenvalues(4)
    op = discretize(cfg.partners.v_plus, cfg.grid)
    monkeypatch.setattr(numsolve, "discretize", lambda v, grid: op)
    work = _count_work(monkeypatch, op)
    levels, level = [], numsolve._LevelSolver.level
    monkeypatch.setattr(numsolve._LevelSolver, "level",
                        lambda solver, i: levels.append(level(solver, i)) or levels[-1])
    isospectral_check(eigs_minus, cfg.partners.v_plus, cfg.grid)
    return op, levels, work


@pytest.mark.parametrize("family", [f.value for f in Family if f is not Family.CUSTOM])
def test_partner_levels_carry_their_certificate_on_the_partner_operator(family, monkeypatch):
    """V+ levels start from the V- levels, yet each is LAPACK's on the V+
    operator and passes its own two-count certificate there, also on the QES
    defaults, where the V- levels miss the V+ ones by units."""
    op, levels, _ = _partner_solve(family, monkeypatch)
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 2))
    assert len(levels) == 3
    _assert_certified_lapack_levels(op, levels, 1e-10, ref)


@pytest.mark.parametrize("family", ["oscillator", "coulomb", "morse"])
def test_partner_levels_from_v_minus_take_at_most_2_newton_sweeps_and_4_counts(family, monkeypatch):
    """On the defaults where verify runs isospectral, a V+ level takes one
    Newton sweep from V- level i+1 and the two certificate counts, or one
    more round of both.  V- level i+1 misses V+ level i by the partners'
    O(h^2) difference e, and a step from it leaves about
    e^2 |sum_j 1/(lam_i - lam_j)|.  On the oscillator default e is
    (i+1) 2e-5, so that is 0.8-8.5 eff_tol, beyond the eff_tol/2
    certificate, and every level takes the second round.  Solving V+ with
    its own coarse chain took 25 sweeps and 32 counts for the three
    oscillator levels."""
    _, _, work = _partner_solve(family, monkeypatch)
    assert len(work) == 3
    assert max(sweeps for sweeps, _ in work) <= 2 and max(counts for _, counts in work) <= 4


def test_oscillator_levels_second_order_in_h():
    """Error against eps^2 = 4n at fixed window, three h-halvings.

    r_min = 1e-8 keeps the wall-truncation shift (which is O(r_min), not
    O(h^2)) far below the discretization error being measured."""
    m = oscillator_model(1.0)
    errs = []
    for n_points in (601, 1201, 2401):
        grid = RadialGrid(1e-8, 12.0, n_points)
        pp = partner_potentials(superpotential_from_model(m), grid)
        eigs = lowest_eigenvalues(discretize(pp.v_minus, grid), 3)
        errs.append(max(abs(e - 4.0 * n) for n, e in enumerate(eigs)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


@pytest.mark.xfail(
    strict=True,
    reason="with the wall pinned at r_min = 1e-3 the Dirichlet truncation "
    "shifts every level by ~|u'(0)|^2 * r_min ~ 2.3e-3 > 1e-3, independent "
    "of h; see the wall-sensitivity test in test_acceptance.py",
)
def test_oscillator_levels_on_pinned_coarse_window():
    """eps^2 = {0,4,8,12,16} within 1e-3 on the fixed [1e-3, 12] window with
    N = 2400 interior points."""
    m = oscillator_model(1.0)
    grid = RadialGrid(1e-3, 12.0, 2402)
    pp = partner_potentials(superpotential_from_model(m), grid)
    eigs = lowest_eigenvalues(discretize(pp.v_minus, grid), 5)
    assert max(abs(e - 4.0 * n) for n, e in enumerate(eigs)) < 1e-3


# ------------------------------------------------------------------ properties


@st.composite
def tridiagonal_operators(draw):
    """Stencil operators with n <= 200 rows of three kinds: generic, a random
    diagonal with a coupling 1/h^2 between 0.1 and 5; stiff, a wall that
    puts ||T|| near 4e9 as on the Morse window; and Coulomb-like, whose
    levels cluster below zero."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["generic", "stiff", "coulomb"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        d, h = rng.uniform(-10.0, 10.0, n), rng.uniform(0.45, 3.0)
    elif kind == "stiff":
        x = np.linspace(0.0, 1.0, n)
        h = 1.0 / (n + 1)
        d = 2.0 / h**2 + 4e9 * np.exp(-40.0 * x) + rng.uniform(-1.0, 1.0, n)
    else:
        r_max = rng.uniform(50.0, 300.0)
        h = r_max / (n + 1)
        r = h * np.arange(1, n + 1)
        ell = int(rng.integers(0, 3))
        d = 2.0 / h**2 - 2.0 * rng.uniform(0.5, 2.0) / r + ell * (ell + 1) / r**2
    return _stencil_operator(d, h)


def _eff_tol(op, tol):
    """The solver's bracket floor max(tol, 8 eps ||T||), ||T|| from Gershgorin."""
    max_off = float(np.max(np.abs(op.off))) if op.size > 1 else 0.0
    norm = max(abs(float(np.min(op.diag)) - 2.0 * max_off),
               abs(float(np.max(op.diag)) + 2.0 * max_off), 1.0)
    return max(tol, 8.0 * EPS * norm), norm


@given(op=tridiagonal_operators(), k_share=st.floats(0.0, 1.0),
       tol=st.sampled_from([1e-10, 1e-6, 1e-12]))
def test_levels_agree_with_lapack_and_carry_their_sturm_certificate(op, k_share, tol):
    k = 1 + int(k_share * (min(op.size, 12) - 1))
    eigs = lowest_eigenvalues(op, k, tol=tol)
    eff_tol, norm = _eff_tol(op, tol)
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True)[:k]
    assert np.max(np.abs(np.array(eigs) - ref)) <= eff_tol + 8.0 * EPS * norm
    assert eigs == sorted(eigs)
    for i, lam in enumerate(eigs):
        assert sturm_count(op, lam - 0.5 * eff_tol) <= i < sturm_count(op, lam + 0.5 * eff_tol)


@given(op=tridiagonal_operators(), k_share=st.floats(0.0, 1.0), j_share=st.floats(0.0, 1.0))
def test_level_i_does_not_depend_on_how_many_levels_are_solved(op, k_share, j_share):
    k = 1 + int(k_share * (min(op.size, 12) - 1))
    j = 1 + int(j_share * (k - 1))
    assert lowest_eigenvalues(op, k)[:j] == lowest_eigenvalues(op, j)


# ----------------------------------------------- the nested-grid predictor


def _spectrum_operator(*argv):
    """The V- operator `spectrum` solves for these flags."""
    return resolve_config(build_parser().parse_args(
        ["spectrum", "--method", "numeric", "--n-max", "9", *argv])).operator


#: the default window of every built-in family and the scan's 16 001-point
#: windows: odd grids large enough that every level starts from a prediction
PREDICTED_WINDOWS = [("--model", f.value) for f in Family if f is not Family.CUSTOM] + [
    ("--model", "oscillator", "--grid", "0.001,12,16001"),
    ("--model", "coulomb", "--grid", "0.001,250,16001"),
]


def _assert_certified_lapack_levels(op, eigs, tol, ref):
    """Levels eigs agree with LAPACK's ref and carry the eff_tol/2 certificate."""
    eff_tol, norm = _eff_tol(op, tol)
    assert np.max(np.abs(np.array(eigs) - ref[:len(eigs)])) <= eff_tol + 8.0 * EPS * norm
    for i, lam in enumerate(eigs):
        assert sturm_count(op, lam - 0.5 * eff_tol) <= i < sturm_count(op, lam + 0.5 * eff_tol)


def _assert_lapack_agreement_and_certificates(op, k):
    """The property test above on one large operator: LAPACK computes only
    levels 0..k-1, since all of a 16 001-point spectrum takes seconds."""
    eigs = lowest_eigenvalues(op, k)
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i",
                           select_range=(0, k - 1))
    assert eigs == sorted(eigs)
    _assert_certified_lapack_levels(op, eigs, 1e-10, ref)


@pytest.mark.parametrize("argv", PREDICTED_WINDOWS, ids=" ".join)
def test_predicted_levels_agree_with_lapack_and_carry_their_sturm_certificate(argv):
    op = _spectrum_operator(*argv)
    assert numsolve._coarsened(numsolve._coarsened(op)) is not None
    _assert_lapack_agreement_and_certificates(op, 10)


#: an operator the predictor does not apply to: an even grid
EVEN_GRID_OPERATOR = _spectrum_operator("--model", "oscillator", "--grid", "0.001,7,2800")


@pytest.mark.parametrize("op", [EVEN_GRID_OPERATOR], ids=["even-grid"])
def test_unpredicted_levels_agree_with_lapack_and_carry_their_sturm_certificate(op):
    assert numsolve._coarsened(op) is None
    _assert_lapack_agreement_and_certificates(op, 10)


@pytest.mark.parametrize("op", [_spectrum_operator("--model", "coulomb"), EVEN_GRID_OPERATOR],
                         ids=["coulomb-default", "even-grid"])
def test_level_i_is_the_same_float_for_every_k(op):
    ten = lowest_eigenvalues(op, 10)
    assert lowest_eigenvalues(op, 5) == ten[:5]
    assert lowest_eigenvalues(op, 1) == ten[:1]


def test_predicted_levels_take_at_most_3_newton_sweeps_each(monkeypatch):
    """On the Coulomb default window Newton's iteration takes 6-21 sweeps
    per level from the midpoint of an isolating Sturm bracket, and at most 3
    from the nested-grid prediction."""
    op = _spectrum_operator("--model", "coulomb")
    sweeps = []
    sweep, level = numsolve._newton_sweep, numsolve._LevelSolver.level

    def counted_sweep(sweep_op, lam):
        if sweep_op is op:
            sweeps[-1] += 1
        return sweep(sweep_op, lam)

    def counted_level(solver, i):
        if solver.op is op:
            sweeps.append(0)
        return level(solver, i)

    monkeypatch.setattr(numsolve, "_newton_sweep", counted_sweep)
    monkeypatch.setattr(numsolve._LevelSolver, "level", counted_level)
    lowest_eigenvalues(op, 5)
    assert len(sweeps) == 5 and max(sweeps) <= 3


def _count_work(monkeypatch, op):
    """Per level of op that a _LevelSolver solves, [Newton sweeps, Sturm
    counts], appended as the levels are solved; levels of other operators
    (the coarse chain) are not counted."""
    work = []
    sweep, count, level = numsolve._newton_sweep, numsolve.sturm_count, numsolve._LevelSolver.level

    def counted(fn, kind):
        def wrapped(work_op, lam):
            if work_op is op:
                work[-1][kind] += 1
            return fn(work_op, lam)
        return wrapped

    def counted_level(solver, i):
        if solver.op is op:
            work.append([0, 0])
        return level(solver, i)

    monkeypatch.setattr(numsolve, "_newton_sweep", counted(sweep, 0))
    monkeypatch.setattr(numsolve, "sturm_count", counted(count, 1))
    monkeypatch.setattr(numsolve._LevelSolver, "level", counted_level)
    return work


@pytest.mark.parametrize("argv", PREDICTED_WINDOWS, ids=" ".join)
def test_predicted_levels_take_at_most_2_newton_sweeps_and_4_counts(argv, monkeypatch):
    """From the nested-grid prediction a level takes one Newton sweep and
    the two certificate counts, rarely a second round of both.  Counts that
    first isolate the level around the prediction cost 5-16 sweeps and up to
    36 counts per level on the 16 001-point Coulomb window."""
    op = _spectrum_operator(*argv)
    work = _count_work(monkeypatch, op)
    lowest_eigenvalues(op, 10)
    assert len(work) == 10
    assert max(sweeps for sweeps, _ in work) <= 2 and max(counts for _, counts in work) <= 4


def test_certificate_takes_only_the_counts_kept_ones_do_not_settle():
    """Level 0 of the 2x2 toy is 1.0, eff_tol is 1e-3: kept counts within
    eff_tol/2 of lam settle its certificate with no new count, and a kept
    count further away settles nothing."""
    solver = numsolve._LevelSolver(_stencil_operator([2.0, 2.0]), 1e-3)
    solver.counts += [(0.9997, 0), (1.0004, 1)]
    assert solver.certified(0, 1.0) and len(solver.counts) == 2
    assert not solver.certified(0, 1.0006)  # level 0 is below 1.0006 - 5e-4
    assert not solver.certified(0, 0.9994)  # and above 0.9994 + 5e-4


def test_levels_next_to_the_chain_bottom_start_from_the_2h_level(monkeypatch):
    """On 1 201 points the coarse operator has no coarse operator of its own,
    so the 2h level alone predicts each level; from it a level takes at most
    3 Newton sweeps, against up to 6 from the midpoint of an isolating bracket."""
    op = _spectrum_operator("--model", "oscillator", "--grid", "0.001,12,1201")
    assert numsolve._coarsened(numsolve._coarsened(op)) is None
    _assert_lapack_agreement_and_certificates(op, 10)
    work = _count_work(monkeypatch, op)
    lowest_eigenvalues(op, 10)
    assert len(work) == 10 and max(sweeps for sweeps, _ in work) <= 3


@pytest.mark.parametrize("argv", PREDICTED_WINDOWS, ids=" ".join)
def test_predicted_coarse_levels_take_no_count(argv, monkeypatch):
    """A coarse level with a prediction is Newton's iteration alone; counts
    go to certified levels only: the fine ones, those at the chain's bottom,
    which have no prediction, and a predicted level whose guards fail.  That
    happens only on the Coulomb windows, to at most levels 0 and 1 of the
    999-row operator: on the default window their 2h prediction from the
    chain's bottom is 0.09 and 0.007 off."""
    op = _spectrum_operator(*argv)
    taken, fell_back, per_level = [0], [False], []
    count, level, predicted = (numsolve.sturm_count, numsolve._LevelSolver.level,
                               numsolve._LevelSolver.predicted)

    def counted_count(count_op, lam):
        taken[0] += 1
        return count(count_op, lam)

    def flagged_level(solver, i):
        fell_back[0] = True
        return level(solver, i)

    def counted_predicted(solver, i):
        before, fell_back[0] = taken[0], False
        lam = predicted(solver, i)
        if i < len(solver.predictions):
            per_level.append((taken[0] - before, fell_back[0]))
        return lam

    monkeypatch.setattr(numsolve, "sturm_count", counted_count)
    monkeypatch.setattr(numsolve._LevelSolver, "level", flagged_level)
    monkeypatch.setattr(numsolve._LevelSolver, "predicted", counted_predicted)
    lowest_eigenvalues(op, 10)
    assert len(per_level) >= 20
    assert all(counts == 0 for counts, fell in per_level if not fell)
    assert sum(fell for _, fell in per_level) <= (2 if "coulomb" in argv else 0)


def test_narrow_closes_in_on_p_on_a_log_scale():
    """Level 0 of the 2x2 toy is 1.0 and eff_tol is 1e-12.  A count at p, 1e-3
    above the level, isolates it in [lo, p], which spans 12 decades of
    distance from p; halving the log of that distance pins the level's to a
    factor of 2 in six counts, where bisecting [lo, p] to a width of 1e-3
    takes ten."""
    op, p = _stencil_operator([2.0, 2.0]), 1.001
    plain, near = numsolve._LevelSolver(op, 1e-12), numsolve._LevelSolver(op, 1e-12)
    plain.count(p)
    assert plain.narrow(0) == (plain.lo, p)
    near.count(p)
    a, b = near.narrow(0, p)
    assert a < 1.0 < b and p - a <= 2.0 * (p - b) and len(near.counts) <= 7


#: windows where the nested-grid prediction is far enough off that Newton's
#: iteration from it strays: Coulomb levels 0-1 near the bottom of a short
#: coarse chain, and Morse levels 2-3 among the tower-top box states
STRAYING_WINDOWS = [
    (10, ("--model", "coulomb", "--grid", "0.001,250,801")),
    (10, ("--model", "coulomb", "--grid", "0.001,250,1201")),
    (4, ("--model", "morse", "--a", "3.126", "--alpha", "0.826", "--b", "2.513")),
]


@pytest.mark.parametrize("k, argv", STRAYING_WINDOWS, ids=[" ".join(a) for _, a in STRAYING_WINDOWS])
def test_a_prediction_that_strays_costs_at_most_8_newton_sweeps(k, argv, monkeypatch):
    """Where the iteration from a prediction strays, counts close in on the
    prediction before the level is isolated, so a level takes at most 8
    Newton sweeps; isolating it by bisection of the bracket up to the
    prediction took 20-23, and counts at a half-width around it 10-14.  An
    iterate is offered to the certificate only once its step predicts
    convergence, so a level also takes at most 8 counts; offering every
    iterate from the prediction took 10-11 on the Coulomb windows."""
    op = _spectrum_operator(*argv)
    work = _count_work(monkeypatch, op)
    eigs = lowest_eigenvalues(op, k)
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, k - 1))
    _assert_certified_lapack_levels(op, eigs, 1e-10, ref)
    assert len(work) == k and max(sweeps for sweeps, _ in work) <= 8
    assert max(counts for _, counts in work) <= 8


def test_wrong_predictions_still_give_certified_levels(monkeypatch):
    """A prediction that is level i+1, far above the levels, below the
    spectrum or midway between two levels costs sweeps, not correctness: the
    levels are LAPACK's, certified, for at most twice the Newton sweeps of
    the solve without predictions."""
    op, k = _spectrum_operator("--model", "coulomb"), 10
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, k))
    work = _count_work(monkeypatch, op)

    def solve(predictions):
        work.clear()
        solver = numsolve._LevelSolver(op, 1e-10, predictions)
        eigs = [solver.level(i) for i in range(k)]
        _assert_certified_lapack_levels(op, eigs, 1e-10, ref)
        return sum(sweeps for sweeps, _ in work), solver

    unpredicted, solver = solve(())
    for predictions in (list(ref[1:]), [10.0 * ref[k - 1]] * k, [solver.lo - 1.0] * k,
                        list(0.5 * (ref[:-1] + ref[1:]))):
        assert solve(predictions)[0] <= 2 * unpredicted


@given(op=tridiagonal_operators(), k_share=st.floats(0.0, 1.0),
       tol=st.sampled_from([1e-10, 1e-6]), data=st.data())
def test_arbitrary_predictions_still_give_certified_levels(op, k_share, tol, data):
    k = 1 + int(k_share * (min(op.size, 12) - 1))
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True) if op.size > 1 else op.diag
    spread = 2.0 * float(np.max(np.abs(op.off), initial=0.0)) + 1.0
    near = st.floats(float(np.min(op.diag)) - spread, float(np.max(op.diag)) + spread)
    predictions = data.draw(st.lists(st.one_of(near, st.sampled_from(ref.tolist()), st.floats()),
                                     max_size=k))
    solver = numsolve._LevelSolver(op, tol, predictions)
    _assert_certified_lapack_levels(op, [solver.level(i) for i in range(k)], tol, ref)


def test_narrow_takes_the_log_scale_cut_without_overflow_near_the_float_limit():
    """The cut sits at the geometric mean of the bracket ends' distances from
    the prediction; from a prediction near 1e154 their product overflows, so
    the mean is taken as sqrt(near) * sqrt(far)."""
    op = _stencil_operator([4.00000001e9])
    solver = numsolve._LevelSolver(op, 1e-10, [1.3407807929942597e154])
    _assert_certified_lapack_levels(op, [solver.level(0)], 1e-10, op.diag)


def test_newton_sweep_slope_is_the_log_det_derivative():
    """The sweep's slope is d/dlam log|det(T - lam)| = sum_j 1/(lam - lam_j),
    and its count is the Sturm count."""
    rng = np.random.default_rng(5)
    d = rng.uniform(-4.0, 4.0, 50)
    op = _stencil_operator(d, 0.8)
    ref = eigh_tridiagonal(d, op.off, eigvals_only=True)
    for lam in (-9.0, 0.1234, 2.5, 9.0):
        count, slope = _newton_sweep(op, lam)
        assert count == sturm_count(op, lam)
        assert slope == pytest.approx(float(np.sum(1.0 / (lam - ref))), rel=1e-9)


def _full_sweep_count(op, lam):
    """Reference Sturm count: every row's pivot, clamped as sturm_count does."""
    d, e = op.diag.tolist(), op.off.tolist()
    pivmin = float(np.finfo(float).tiny) * max([1.0] + [x * x for x in e])
    count, q = 0, None
    for i, di in enumerate(d):
        q = di - lam if i == 0 else di - lam - e[i - 1] * e[i - 1] / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


@st.composite
def count_cases(draw):
    """An operator and a shift: on a row's Gershgorin bottom
    d_i - |e_{i-1}| - |e_i|, one ulp either side of it, on an eigenvalue, or
    anywhere in the Gershgorin range."""
    op = draw(tridiagonal_operators())
    d, e = op.diag, op.off
    i = draw(st.integers(0, len(d) - 1))
    bottom = d[i] - (abs(e[i - 1]) if i > 0 else 0.0) - (abs(e[i]) if i < len(e) else 0.0)
    how = draw(st.sampled_from(["bottom", "below", "above", "eigenvalue", "anywhere"]))
    if how == "bottom":
        lam = bottom
    elif how in ("below", "above"):
        lam = np.nextafter(bottom, -np.inf if how == "below" else np.inf)
    elif how == "eigenvalue":
        lam = eigh_tridiagonal(d, e, eigvals_only=True)[i] if len(d) > 1 else d[0]
    else:
        spread = 2.0 * float(np.max(np.abs(e), initial=0.0))
        lam = draw(st.floats(float(np.min(d)) - spread - 1.0, float(np.max(d)) + spread + 1.0))
    return op, float(lam)


@given(case=count_cases())
@example(case=(_stencil_operator([2.0, 2.0]), 1.0))  # level 1 sits on both bottoms
def test_early_exit_sturm_count_equals_the_full_sweep(case):
    op, lam = case
    assert sturm_count(op, lam) == _full_sweep_count(op, lam)


@given(case=count_cases())
@example(case=(_stencil_operator([2.0, 2.0]), 1.0))
def test_newton_sweep_count_equals_the_full_sweep(case):
    op, lam = case
    assert _newton_sweep(op, lam)[0] == _full_sweep_count(op, lam)


#: the Coulomb default window and the scan's 16 001-point Coulomb window
COULOMB_WINDOWS = [("--model", "coulomb"), ("--model", "coulomb", "--grid", "0.001,250,16001")]


@pytest.mark.parametrize("argv", COULOMB_WINDOWS, ids=" ".join)
def test_one_newton_step_from_near_a_level_stays_quadratic(argv):
    """From lam_i + delta, delta = 1e-5 max(1, |lam_i|), one Newton step lands
    within 0.05 delta of LAPACK's level i, levels 0-9: the shortened sweep
    leaves at most 0.013 delta, a sweep of every row 0.023 delta.  A sweep
    that stopped at sturm_count's exit row would leave 0.08-0.98 delta, since
    the leading minor it reads has a level about delta from lam_i."""
    op = _spectrum_operator(*argv)
    ref = eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 9))
    for lam in ref.tolist():
        delta = 1e-5 * max(1.0, abs(lam))
        x = lam + delta
        assert abs(x - 1.0 / _newton_sweep(op, x)[1] - lam) <= 0.05 * delta


class _CountedRows(list):
    """A list that counts the items its iterators hand out."""

    read = 0

    def __iter__(self):
        for item in super().__iter__():
            self.read += 1
            yield item


def _rows_a_newton_sweep_reads(op, lam):
    d, *rest = op._sweep_rows
    op.__dict__["_sweep_rows"] = (rows := _CountedRows(d), *rest)
    _newton_sweep(op, lam)
    return rows.read


def test_newton_sweep_stops_twice_as_deep_as_the_count_past_the_turning_row():
    """At the certified level 0 of the Coulomb default window the sweep stops
    in the level's decaying tail, after 10 % of the rows; level 9's tail
    reaches the window's end, so its sweep reads every row."""
    op = _spectrum_operator("--model", "coulomb")
    eigs = lowest_eigenvalues(op, 10)
    assert _rows_a_newton_sweep_reads(op, eigs[0]) <= op.size // 4
    assert _rows_a_newton_sweep_reads(op, eigs[9]) == op.size


def _check_against_lapack(op, k):
    """Levels 0..k-1: the twisted vector's residual, and its angle to LAPACK's
    vector, which Davis-Kahan bounds by residual/gap plus LAPACK's own error."""
    n = op.size
    eff_tol, norm = _eff_tol(op, 1e-10)
    eigs = lowest_eigenvalues(op, k)
    # levels 0..k hold the nearest neighbour of each of levels 0..k-1
    ref_vals, ref_vecs = eigh_tridiagonal(op.diag, op.off, select="i",
                                          select_range=(0, min(k, n - 1)))
    for i, lam in enumerate(eigs):
        v = eigenvector(op, lam)[1:-1]
        v = v / np.linalg.norm(v)
        res = v * op.diag - lam * v
        res[:-1] += op.off * v[1:]
        res[1:] += op.off * v[:-1]
        residual = float(np.linalg.norm(res))
        assert residual <= math.sqrt(n) * eff_tol + 64.0 * EPS * norm
        gap = float(np.min(np.abs(np.delete(ref_vals, i) - lam), initial=np.inf))
        angle = (residual + 64.0 * EPS * norm) / gap
        assert 1.0 - abs(float(v @ ref_vecs[:, i])) <= angle**2 + n * EPS


@given(op=tridiagonal_operators(), k_share=st.floats(0.0, 1.0))
def test_twisted_eigenvector_matches_lapack(op, k_share):
    _check_against_lapack(op, 1 + int(k_share * (min(op.size, 6) - 1)))


def test_eigenvector_takes_every_shift_a_level_certificate_allows():
    """A shift 0.45 eff_tol from a level of the 16 001-point Coulomb window
    leaves a twisted residual near 0.45 eff_tol/max|v|, above the residual
    check's bound for these spread-out levels; the vector at its Rayleigh
    quotient passes the check and is LAPACK's vector."""
    op = _spectrum_operator("--model", "coulomb", "--grid", "0.001,250,16001")
    eff_tol, norm = _eff_tol(op, 1e-10)
    vals, vecs = eigh_tridiagonal(op.diag, op.off, select="i", select_range=(0, 10))
    for i in range(10):
        gap = min(vals[i + 1] - vals[i], vals[i] - vals[i - 1] if i else np.inf)
        for shift in (vals[i] - 0.45 * eff_tol, vals[i] + 0.45 * eff_tol):
            v = eigenvector(op, float(shift))[1:-1]
            angle = (math.sqrt(op.size) * eff_tol + 64.0 * EPS * norm) / gap
            assert 1.0 - abs(float(v @ vecs[:, i])) / np.linalg.norm(v) <= angle**2 + op.size * EPS


def test_eigenvector_refuses_a_rayleigh_retry_beyond_its_bound():
    """Level 0 of the 2x2 toy is 1.0; with tol 1e-12 the residual bound is
    1e-11.  At 8e-12 from the level the residual, sqrt(2) * 8e-12, fails it,
    and the Rayleigh quotient lies 8e-12 away, beyond the 1e-12 a retry may
    move: the call raises and names the shift it was given."""
    shift = 1.0 + 8e-12
    with pytest.raises(NumericError, match=re.escape(repr(shift))):
        eigenvector(_stencil_operator([2.0, 2.0]), shift, tol=1e-12)


@pytest.mark.parametrize("family", [f.value for f in Family if f is not Family.CUSTOM])
def test_twisted_eigenvector_matches_lapack_on_the_default_operators(family):
    cfg = resolve_config(build_parser().parse_args(
        ["spectrum", "--model", family, "--method", "numeric", "--n-max", "4"]))
    _check_against_lapack(cfg.operator, 5)


def _loop_first_extremum_sign(v):
    """Reference: the sign of the first interior local extremum above
    1e-6 max|v|, found by a loop, else of the largest sample."""
    amax = np.max(np.abs(v))
    if amax == 0.0:
        return 1.0
    floor = 1e-6 * amax
    for i in range(1, len(v) - 1):
        if abs(v[i]) < floor:
            continue
        if (v[i] - v[i - 1]) * (v[i + 1] - v[i]) <= 0.0:
            return 1.0 if v[i] > 0 else -1.0
    return 1.0 if v[int(np.argmax(np.abs(v)))] >= 0 else -1.0


@given(st.lists(st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 1.0, -1.0, 2.0]),
                          st.floats(-10.0, 10.0)), min_size=1, max_size=40))
def test_first_extremum_sign_is_the_loops(values):
    v = np.array(values)
    assert numsolve._first_extremum_sign(v) == _loop_first_extremum_sign(v)


def _full_sweep_eigenvector(op, lam):
    """eigenvector with no row Gershgorin-safe, so that its forward pivots
    run down every row: the full-sweep reference."""
    *rows, safe = op._sweep_rows
    op.__dict__["_sweep_rows"] = (*rows, np.full(op.size, -np.inf))
    try:
        return eigenvector(op, lam)
    finally:
        op.__dict__["_sweep_rows"] = (*rows, safe)


#: every built-in default, the scan's 16 001-point windows and the
#: acceptance tests' pinned windows
EIGENVECTOR_WINDOWS = PREDICTED_WINDOWS + [
    ("--model", "oscillator", "--grid", "0.001,12,2401"),
    ("--model", "oscillator", "--grid", "0.001,12,2402"),
    ("--model", "coulomb", "--grid", "0.001,250,12001"),
]


@pytest.mark.parametrize("argv", EIGENVECTOR_WINDOWS, ids=" ".join)
def test_eigenvector_stopping_its_forward_sweep_is_bit_identical(argv):
    op = _spectrum_operator(*argv)
    for lam in lowest_eigenvalues(op, 10):
        assert eigenvector(op, lam).tobytes() == _full_sweep_eigenvector(op, lam).tobytes()


def test_eigenvector_forward_sweep_stops_in_the_levels_tail():
    """At level 1 of the Coulomb default window the forward pivots stop where
    the level has decayed, before half the rows (the backward pivots, which
    the stop needs, still take every row)."""
    op = _spectrum_operator("--model", "coulomb")
    lam = lowest_eigenvalues(op, 2)[1]
    d, *rest = op._sweep_rows
    op.__dict__["_sweep_rows"] = (rows := _CountedRows(d), *rest)
    eigenvector(op, lam)
    assert 0 < rows.read < op.size // 2


def _spy_on_shifts(monkeypatch) -> dict:
    """The shift of every sturm_count, _newton_sweep and _pivots call from
    now on, by function name."""
    shifts = {}
    for name in ("sturm_count", "_newton_sweep", "_pivots"):
        def spy(*args, _real=getattr(numsolve, name), _seen=shifts.setdefault(name, [])):
            _seen.append(args[1])
            return _real(*args)
        monkeypatch.setattr(numsolve, name, spy)
    return shifts


def _assert_float_shifts(shifts):
    for name, seen in shifts.items():
        assert seen, name
        assert all(type(lam) is float for lam in seen), (name, {type(lam) for lam in seen})


def test_every_sweep_reads_a_python_float_shift(monkeypatch, capsys):
    """On the anharmonic default window eff_tol is the 8 eps |T| floor
    (about 1.2e-8, above tol), which a numpy eps made a numpy scalar, and the
    certificate counts' shifts with it; a numpy scalar shift costs about
    three times as much per row as a float."""
    assert type(numsolve._EPS) is float
    op = _spectrum_operator("--model", "anharmonic")
    assert numsolve._LevelSolver(op, 1e-10).eff_tol > 1e-10
    shifts = _spy_on_shifts(monkeypatch)
    assert cli.main(["spectrum", "--model", "anharmonic", "--n-max", "4"]) == 0
    assert cli.main(["wavefunction", "--model", "anharmonic", "--method", "numeric",
                     "--n", "2"]) == 0
    capsys.readouterr()
    _assert_float_shifts(shifts)


def test_levels_are_python_floats_and_numpy_scalar_inputs_change_no_bit(monkeypatch):
    """np.float64 shifts, tolerances and predictions read as the same floats:
    the same bits out, and every sweep still reads a float shift."""
    grid = RadialGrid(0.01, 6.0, 1201)
    pp = partner_potentials(superpotential_from_model(oscillator_model(1.0)), grid)
    op = discretize(pp.v_minus, grid)
    eigs, loose = lowest_eigenvalues(op, 4), lowest_eigenvalues(op, 4, 1e-6)
    assert all(type(lam) is float for lam in eigs + loose)
    lams = eigs + [eigs[1] + 1e-3, -1.0]
    counts = [sturm_count(op, lam) for lam in lams]
    vectors = [eigenvector(op, lam, 1e-10).tobytes() for lam in eigs]
    deviations = isospectral_check(eigs, pp.v_plus, grid)
    assert all(type(x) is float for x in deviations)

    assert [sturm_count(op, np.float64(lam)) for lam in lams] == counts
    shifts = _spy_on_shifts(monkeypatch)
    numpy_tol = lowest_eigenvalues(op, 4, np.float64(1e-6))  # tol is eff_tol here
    assert all(type(lam) is float for lam in numpy_tol) and numpy_tol == loose
    assert [eigenvector(op, np.float64(lam), np.float64(1e-10)).tobytes()
            for lam in eigs] == vectors
    numpy_predictions = isospectral_check(np.array(eigs), pp.v_plus, grid)
    assert all(type(x) is float for x in numpy_predictions) and numpy_predictions == deviations
    _assert_float_shifts(shifts)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_a_tolerance_that_is_not_finite_is_refused(tol):
    op = _stencil_operator([2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="tol"):
        lowest_eigenvalues(op, 1, tol)
    with pytest.raises(ValueError, match="tol"):
        eigenvector(op, 2.0, tol)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_a_shift_that_is_not_finite_is_refused(lam):
    """A non-finite shift is refused before any sweep: an infinite one used to
    give a vector (and numpy's invalid-value warning), a nan a NumericError."""
    op = _stencil_operator([2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="lam"):
        eigenvector(op, lam)
