"""Independent finite-difference eigensolver and quadrature.

This module is the oracle the closed-form results are judged against, so it
deliberately shares no code with the analytic paths: a three-point Laplacian
with Dirichlet walls, Sturm-sequence counts for eigenvalues, inverse
iteration for eigenvectors, and composite Simpson quadrature.  Plain numpy
only.

Eigenvalues are solved level by level.  Sturm counts isolate each level in a
bracket holding that one eigenvalue; every count is kept and narrows the
bracket of every later level.  A Newton iteration on log|det(T - lam)|, whose
derivative rides along the same pivot recurrence, then refines the level,
and two more counts certify the result to the same tolerance bisection would
give.  Inverse iteration factors each shifted operator once and replays the
factors for every iteration.

Convention: the operator is -d^2/dr^2 + V(r) acting on functions that vanish
at both ends of the grid; eigenvalues approximate epsilon^2.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DomainError, NumericError, RadialGrid

_MAX_BISECTIONS = 200
_MAX_NEWTON_STEPS = 100
_INVERSE_ITERATIONS = 5
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization on the interior grid points.

    diag has n_points - 2 entries (2/h^2 + V_i), off has one fewer (-1/h^2).
    """

    diag: np.ndarray
    off: np.ndarray
    grid: RadialGrid

    @property
    def size(self) -> int:
        return len(self.diag)

    @cached_property
    def _sweep_rows(self) -> tuple:
        """What a Sturm sweep reads, as Python floats: diag[0], the later
        diagonal entries, the squared off-diagonal entries, and pivmin."""
        d = self.diag.tolist()
        # equal entries share one float object: a uniform grid has a single one
        unique = {}
        e2 = [unique.setdefault(v, v) for v in (self.off * self.off).tolist()]
        pivmin = float(np.finfo(float).tiny) * max(1.0, max(e2, default=1.0))
        return d[0], d[1:], e2, pivmin


def discretize(v_samples, grid: RadialGrid) -> TridiagonalOperator:
    """Build the Dirichlet operator for -f'' + V f = eps^2 f from potential samples.

    The endpoint samples are never used (the wavefunction is pinned to zero
    there), so a potential that diverges exactly at a wall is fine; a
    non-finite value at any interior point is a domain error.
    """
    v = np.asarray(v_samples, dtype=float)
    if v.shape != (grid.n_points,):
        raise ValueError("v_samples must have one entry per grid point")
    interior = v[1:-1]
    if not np.all(np.isfinite(interior)):
        raise DomainError("potential is not finite on the interior of the grid")
    h = grid.h
    diag = 2.0 / h**2 + interior
    off = np.full(grid.n_points - 3, -1.0 / h**2)
    return TridiagonalOperator(diag=diag, off=off, grid=grid)


def sturm_count(op: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of the operator at or below lam.

    Standard Sturm sequence: count the nonpositive pivots of the LDL^T
    factorization of (T - lam I).  A pivot smaller in magnitude than pivmin
    is clamped to -pivmin *before* the sign test (the LAPACK convention);
    clamping after miscounts when lam hits an eigenvalue of a leading minor,
    and pivmin is scaled by max(e^2) so the following division cannot
    overflow.
    """
    d0, d_rest, e2_all, pivmin = op._sweep_rows
    count = 0
    q = d0 - lam
    if q < pivmin:  # q <= 0, or |q| < pivmin and clamped to -pivmin
        count += 1
        if q > -pivmin:
            q = -pivmin
    for d, e2 in zip(d_rest, e2_all):
        q = d - lam - e2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _newton_sweep(op: TridiagonalOperator, lam: float) -> tuple:
    """Sturm count at lam and the slope d/dlam log|det(T - lam I)|, in one sweep.

    log|det| is the sum of log|q_i| over the pivots, so the slope is the sum
    of q_i'/q_i.  Differentiating q_i = d_i - lam - e_{i-1}^2/q_{i-1} gives
    q_i' = -1 + (e_{i-1}^2/q_{i-1}) (q_{i-1}'/q_{i-1}); t carries q_i'/q_i.
    The pivots and the count are exactly those of sturm_count.
    """
    d0, d_rest, e2_all, pivmin = op._sweep_rows
    count = 0
    q = d0 - lam
    if q < pivmin:
        count += 1
        if q > -pivmin:
            q = -pivmin
    t = -1.0 / q
    slope = t
    for d, e2 in zip(d_rest, e2_all):
        g = e2 / q
        q = d - lam - g
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        t = (g * t - 1.0) / q
        slope += t
    return count, slope


class _LevelSolver:
    """Eigenvalues of one operator, level by level, from shared Sturm counts.

    Every count taken is kept as (lam, count): a count c at lam bounds each
    level i from below (c <= i) or from above (c > i), so all levels share
    the work.  Where no count bounds a level from above yet, the search
    doubles its step up from the Gershgorin bottom; the wanted levels
    usually sit just above that bottom and far below the Gershgorin top.
    Level i reads only counts taken for levels 0..i, so it does not depend
    on how many levels are asked for.
    """

    def __init__(self, op: TridiagonalOperator, tol: float):
        n = op.size
        max_off = float(np.max(np.abs(op.off))) if n > 1 else 0.0
        lo = float(np.min(op.diag)) - 2.0 * max_off
        self.op = op
        self.hi = float(np.max(op.diag)) + 2.0 * max_off
        self.eff_tol = max(tol, 8.0 * _EPS * max(abs(lo), abs(self.hi), 1.0))
        # strictly below the spectrum, so that count(lo) = 0 needs no sweep
        self.lo = lo - self.eff_tol
        # first step: the lowest level of a free chain with this coupling
        self.step = max(self.eff_tol, 4.0 * max_off * math.sin(0.5 * math.pi / (n + 1)) ** 2)
        self.counts = []

    def count(self, lam: float) -> int:
        c = sturm_count(self.op, lam)
        self.counts.append((lam, c))
        return c

    def bracket(self, i: int) -> tuple:
        """Tightest (a, count(a), b, count(b)) with count(a) <= i < count(b);
        b is None while nothing bounds level i from above."""
        a, ca, b, cb = self.lo, 0, None, None
        for lam, c in self.counts:
            if c <= i:
                if lam > a:
                    a, ca = lam, c
            elif b is None or lam < b:
                b, cb = lam, c
        return a, ca, b, cb

    def narrow(self, i: int, isolate: bool) -> tuple:
        """Bisect level i's bracket until it is eff_tol wide or, with
        isolate, holds no eigenvalue but level i's; returns the bracket."""
        for _ in range(_MAX_BISECTIONS):
            a, ca, b, cb = self.bracket(i)
            if b is None:
                lam = min(self.lo + self.step, self.hi)
                self.step *= 2.0
            elif b - a <= self.eff_tol or (isolate and ca == i and cb == i + 1):
                return a, b
            else:
                lam = 0.5 * (a + b)
                if not a < lam < b:
                    return a, b  # float resolution reached
            self.count(lam)
        raise NumericError("bisection failed to shrink the eigenvalue bracket")

    def newton(self, i: int, a: float, b: float):
        """Newton's iteration on det(T - lam I) inside (a, b), a bracket that
        holds level i alone; None if the bracket closes to eff_tol first.

        A step that leaves the bracket, or is not at most half the previous
        one, is replaced by bisection, so the bracket keeps shrinking.  The
        new iterate is accepted once the step is below eff_tol/4, or once
        the error that quadratic convergence predicts from two Newton steps
        in a row, step^3 / previous^2, is below eff_tol/64; the counts in
        level() then certify it.
        """
        x = 0.5 * (a + b)
        last_step, newton_step = b - a, None
        for _ in range(_MAX_NEWTON_STEPS):
            c, slope = _newton_sweep(self.op, x)
            self.counts.append((x, c))
            if c <= i:
                a = x
            else:
                b = x
            y = x - 1.0 / slope if slope != 0.0 else math.nan
            step = abs(y - x)
            if not (a < y < b and step <= 0.5 * last_step):
                y, newton_step = 0.5 * (a + b), None
            elif step <= 0.25 * self.eff_tol or (
                    newton_step and step**3 <= self.eff_tol * newton_step**2 / 64.0):
                return y
            else:
                newton_step = step
            if b - a <= self.eff_tol:
                return None
            last_step, x = abs(y - x), y
        return None

    def level(self, i: int) -> float:
        a, b = self.narrow(i, isolate=True)
        if b - a > self.eff_tol:
            lam = self.newton(i, a, b)
            half = 0.5 * self.eff_tol
            if lam is not None and self.count(lam - half) <= i < self.count(lam + half):
                return lam
            a, b = self.narrow(i, isolate=False)
        return 0.5 * (a + b)


def lowest_eigenvalues(op: TridiagonalOperator, k: int, tol: float = 1e-10) -> list:
    """The k smallest eigenvalues, each within eff_tol/2 of the exact one.

    eff_tol is tol floored at a few ulps of the spectral scale, which matters
    on very stiff grids.  Each level is either the midpoint of a Sturm
    bracket at most eff_tol wide or a Newton iterate lam certified by
    count(lam - eff_tol/2) <= i < count(lam + eff_tol/2).  Level i is the
    same float whatever k is.

    Returns a list of k floats in nondecreasing order.
    """
    n = op.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    solver = _LevelSolver(op, tol)
    return [solver.level(i) for i in range(k)]


class _SingularShift(Exception):
    pass


class _ShiftedLU:
    """LU factors of (T - shift*I) by Gaussian elimination with partial
    pivoting, computed once in Python floats and replayed by every solve.

    T is symmetric tridiagonal (diag, off).  Per elimination step the
    factors keep the multiplier and whether the two rows swapped; U has
    three diagonals A, B, C (pivoting adds the fill C) and the last pivot.
    Every float column is a packed array, so an inverse iteration on a
    16k-point grid holds about 1 MB rather than 4.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray, shift: float):
        diag, off = array("d", diag.tobytes()), array("d", off.tobytes())
        off_next = off[1:]
        off_next.append(0.0)
        self.mults, self.swaps = array("d"), []
        self.A, self.B, self.C = array("d"), array("d"), array("d")
        a = diag[0] - shift
        b = off[0] if off else 0.0
        for r2_a, d_next, r2_c in zip(off, diag[1:], off_next):
            c, r2_b = 0.0, d_next - shift
            swap = abs(r2_a) > abs(a)
            if swap:
                a, r2_a = r2_a, a
                b, r2_b = r2_b, b
                c, r2_c = r2_c, c
            if a == 0.0:
                raise _SingularShift
            m = r2_a / a
            self.mults.append(m)
            self.swaps.append(swap)
            self.A.append(a)
            self.B.append(b)
            self.C.append(c)
            a = r2_b - m * b
            b = r2_c - m * c
        if a == 0.0:
            raise _SingularShift
        self.last = a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (T - shift*I) x = rhs."""
        rhs = array("d", rhs.tobytes())
        y = array("d")
        cur = rhs[0]
        for m, swap, nxt in zip(self.mults, self.swaps, rhs[1:]):
            if swap:
                cur, nxt = nxt, cur
            y.append(cur)
            cur = nxt - m * cur
        x1, x2 = cur / self.last, 0.0
        x = array("d", [x1])
        for yi, a, b, c in zip(reversed(y), reversed(self.A), reversed(self.B),
                               reversed(self.C)):
            x1, x2 = (yi - b * x1 - c * x2) / a, x1
            x.append(x1)
        x.reverse()
        return np.frombuffer(x)


def _matvec(op: TridiagonalOperator, x):
    y = op.diag * x
    y[:-1] += op.off * x[1:]
    y[1:] += op.off * x[:-1]
    return y


def _first_extremum_sign(v: np.ndarray) -> float:
    """Sign of the first interior local extremum with non-negligible amplitude."""
    amax = np.max(np.abs(v))
    if amax == 0.0:
        return 1.0
    floor = 1e-6 * amax
    for i in range(1, len(v) - 1):
        if abs(v[i]) < floor:
            continue
        if (v[i] - v[i - 1]) * (v[i + 1] - v[i]) <= 0.0:
            return 1.0 if v[i] > 0 else -1.0
    peak = int(np.argmax(np.abs(v)))
    return 1.0 if v[peak] >= 0 else -1.0


def eigenvector(op: TridiagonalOperator, lam: float, tol: float = 1e-10) -> np.ndarray:
    """Eigenvector for a converged eigenvalue lam via inverse iteration.

    Deterministic: all-ones start, a handful of iterations on one LU
    factorization of the shifted operator, shift micro-perturbed if the
    factorization hits an exactly singular pivot.

    Returns the full-grid samples (zeros at the Dirichlet walls), normalized
    to unit quadrature norm, with the sign fixed so the first extremum is
    positive.  Raises NumericError if the residual check fails.
    """
    n = op.size
    scale = max(abs(lam), float(np.max(np.abs(op.diag))), 1.0)
    x = None
    for attempt in range(4):
        shift = lam + attempt * 64.0 * _EPS * scale
        try:
            lu = _ShiftedLU(op.diag, op.off, shift)
            x_try = np.ones(n)
            for _ in range(_INVERSE_ITERATIONS):
                x_new = lu.solve(x_try)
                nrm = float(np.linalg.norm(x_new))
                if nrm == 0.0 or not math.isfinite(nrm):
                    raise _SingularShift
                x_try = x_new / nrm
        except _SingularShift:
            continue
        x = x_try
        break
    if x is None:
        raise NumericError("inverse iteration could not factor the shifted operator")

    residual = float(np.linalg.norm(_matvec(op, x) - lam * x))
    if residual > 10.0 * max(tol, 64.0 * _EPS * scale):
        raise NumericError(
            f"inverse iteration residual {residual:.3e} too large for shift {lam!r}"
        )
    full = np.zeros(op.grid.n_points)
    full[1:-1] = x
    full *= _first_extremum_sign(full)
    full /= math.sqrt(quadrature(full * full, op.grid))
    return full


# --------------------------------------------------------------------------
# Quadrature


def quadrature(f_samples, grid: RadialGrid) -> float:
    """Integral of tabulated f over the grid by composite Simpson.

    Even sample counts fall back to the trapezoid rule on the last interval.
    """
    y = np.asarray(f_samples, dtype=float)
    if y.shape != (grid.n_points,):
        raise ValueError("f_samples must have one entry per grid point")
    h = grid.h
    if len(y) % 2 == 1:
        return _simpson_odd(y, h)
    return _simpson_odd(y[:-1], h) + 0.5 * h * (y[-2] + y[-1])


def _simpson_odd(y, h) -> float:
    w = np.ones(len(y))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ y))


def cumulative_quadrature(f_samples, grid: RadialGrid) -> np.ndarray:
    """Running integral I[j] = int_{r_0}^{r_j} f, Simpson-accurate at every node.

    Even indices come from cumulated Simpson pairs; odd ones add a
    quadratic-interpolation half step, h/12 * (5 f_{j-1} + 8 f_j - f_{j+1}).
    """
    y = np.asarray(f_samples, dtype=float)
    if y.shape != (grid.n_points,):
        raise ValueError("f_samples must have one entry per grid point")
    n = len(y)
    h = grid.h
    out = np.zeros(n)
    m = (n - 1) // 2
    if m > 0:
        pairs = h / 3.0 * (y[0:2 * m - 1:2] + 4.0 * y[1:2 * m:2] + y[2:2 * m + 1:2])
        out[2:2 * m + 1:2] = np.cumsum(pairs)
    j = np.arange(1, n, 2)
    j_in = j[j <= n - 2]
    out[j_in] = out[j_in - 1] + h / 12.0 * (5.0 * y[j_in - 1] + 8.0 * y[j_in] - y[j_in + 1])
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + h / 12.0 * (-y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
    return out


# --------------------------------------------------------------------------
# Isospectrality


@dataclass(frozen=True)
class IsospectralReport:
    """Pairing of the partner spectra: eigs_plus[i] against eigs_minus[i+1]."""

    eigs_minus: tuple
    eigs_plus: tuple
    deviations: tuple
    max_abs_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation < self.tolerance


def isospectral_check(v_minus, v_plus, grid: RadialGrid, k: int = 5,
                      tol: float = 2e-3) -> IsospectralReport:
    """Verify the partner-spectrum shift: the i-th level of V+ matches the
    (i+1)-th level of V- for the first k-1 pairs."""
    if k < 2:
        raise ValueError("need k >= 2 to form at least one pair")
    eigs_m = lowest_eigenvalues(discretize(v_minus, grid), k)
    eigs_p = lowest_eigenvalues(discretize(v_plus, grid), k - 1)
    return pair_partner_levels(eigs_m, eigs_p, tol)


def pair_partner_levels(eigs_minus, eigs_plus, tol: float) -> IsospectralReport:
    """Report on solved partner levels: eigs_plus[i] against eigs_minus[i+1]."""
    deviations = tuple(p - m for p, m in zip(eigs_plus, eigs_minus[1:]))
    return IsospectralReport(
        eigs_minus=tuple(eigs_minus),
        eigs_plus=tuple(eigs_plus),
        deviations=deviations,
        max_abs_deviation=max(abs(d) for d in deviations),
        tolerance=tol,
    )
