"""Independent finite-difference eigensolver and quadrature.

This module is the oracle the closed-form results are judged against, so it
deliberately shares no code with the analytic paths: a three-point Laplacian
with Dirichlet walls, Sturm-sequence counts for eigenvalues, a twisted
factorization for eigenvectors, and composite Simpson quadrature.  Plain numpy
only.  The operator is that stencil, TridiagonalOperator(diag, grid): every
row couples to its neighbours by -1/h^2, so a sweep reads the diagonal and one
coupling, and the off-diagonal array `off` is derived from the grid.

Eigenvalues are solved level by level, and every Sturm count is kept to
narrow the bracket of every later level.  A Newton iteration on
log|det(T - lam)|, whose derivative rides along the same pivot recurrence,
refines a level, and two counts certify it to the same tolerance bisection
would give.  A count stops early once the rows left are diagonally dominant
enough at lam that none of their pivots can turn negative.  A Newton sweep
takes the same exit test and then sweeps on as deep again past the row where
that dominance sets in, so that its leading minor's level lies within Newton's
own error of the operator's.  An eigenvector takes one backward pivot sweep
at its level and one forward sweep, which stops where the count would.

On an odd uniform grid, Newton's iteration starts from a nested-grid
prediction, with no count taken first: the same operator on every other grid
node is solved recursively to a looser tolerance, and Richardson
extrapolation of the h^2 expansion from the grids with 2h and 4h (2h alone
next to the chain's bottom) predicts the level.  Where it strays, counts
close in on the prediction on a log scale and isolate the level, as they do
with no prediction (an even grid, a coarse operator below _COARSE_MIN_ROWS
rows, a failed coarse solve), and the same iteration starts again from the
bracket's midpoint, until the eff_tol/2 certificate holds or the bracket is
eff_tol wide.  Only the levels a caller reads are certified: a coarse level
with a prediction is Newton's iteration alone, guarded by each sweep's own
count.  isospectral_check starts V+ level i from V- level i+1, with no coarse
chain, and certifies it on the V+ operator.

Convention: the operator is -d^2/dr^2 + V(r) acting on functions that vanish
at both ends of the grid; eigenvalues approximate epsilon^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .core import DomainError, NumericError, RadialGrid

_MAX_BISECTIONS = 200
_MAX_NEWTON_STEPS = 100
_EXIT_TEST_ROWS = 128
#: fewest rows of a coarse operator that is solved to predict the levels
_COARSE_MIN_ROWS = 300
#: coarse levels only seed the fine ones, so they are solved to this
#: tolerance, or to the caller's where that is looser
_COARSE_TOL = 1e-5
#: a Python float, so that eff_tol and every shift derived from it are too
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """The three-point stencil on the interior grid points: diag has
    n_points - 2 entries (2/h^2 + V_i), and every row couples to its
    neighbours by the one off-diagonal entry -1/h^2.  Operators compare and
    hash by identity (an ndarray field has no truth value or hash)."""

    diag: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        if len(self.diag) != self.grid.n_points - 2:
            raise ValueError("diag must have one entry per interior grid point")

    @property
    def size(self) -> int:
        return len(self.diag)

    @property
    def off(self) -> np.ndarray:
        """The off-diagonal, size - 1 entries of -1/h^2."""
        return np.full(self.size - 1, -1.0 / self.grid.h**2)

    @cached_property
    def _sweep_rows(self) -> tuple:
        """What a sweep reads: the diagonal as Python floats; the coupling
        e = |off| (0.0 for one row) and e^2; pivmin; and `safe`, the suffix
        minimum of each row's rounding-widened Gershgorin bottom (see
        sturm_count)."""
        e = 1.0 / self.grid.h**2 if self.size > 1 else 0.0
        e2 = e * e
        pivmin = float(np.finfo(float).tiny) * max(1.0, e2)
        spread = np.full(self.size, 2.0 * e)
        spread[[0, -1]] = e  # the end rows have one neighbour
        bottom = self.diag - spread
        spread += np.abs(self.diag)
        spread *= 4.0 * _EPS
        bottom -= spread
        bottom -= 2.0 * pivmin
        safe = np.minimum.accumulate(bottom[::-1])[::-1]
        return self.diag.tolist(), e, e2, pivmin, safe


def _grid_samples(name: str, values, grid: RadialGrid) -> np.ndarray:
    """values as floats, one entry per grid point, or ValueError."""
    samples = np.asarray(values, dtype=float)
    if samples.shape != (grid.n_points,):
        raise ValueError(f"{name} must have one entry per grid point")
    return samples


def discretize(v_samples, grid: RadialGrid) -> TridiagonalOperator:
    """Build the Dirichlet operator for -f'' + V f = eps^2 f from potential samples.

    The endpoint samples are never used (the wavefunction is pinned to zero
    there), so a potential that diverges exactly at a wall is fine; a
    non-finite value at any interior point is a domain error.
    """
    interior = _grid_samples("v_samples", v_samples, grid)[1:-1]
    if not np.all(np.isfinite(interior)):
        raise DomainError("potential is not finite on the interior of the grid")
    h = grid.h
    h4 = h * h * h * h
    # a sweep squares the off-diagonal -1/h^2, so 1/h^4 must be a finite float
    if not (0.0 < h4 < math.inf and 1.0 / h4 < math.inf):
        raise DomainError(f"grid spacing {h!r} is outside the float range of the operator")
    return TridiagonalOperator(diag=2.0 / h**2 + interior, grid=grid)


def sturm_count(op: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of the operator at or below lam.

    Standard Sturm sequence: count the nonpositive pivots of the LDL^T
    factorization of (T - lam I).  A pivot smaller in magnitude than pivmin
    is clamped to -pivmin *before* the sign test (the LAPACK convention);
    clamping after miscounts when lam hits an eigenvalue of a leading minor,
    and pivmin is scaled by e^2 so the following division cannot overflow.

    The sweep stops before row i once q_{i-1} >= |e| and every row j >= i
    has d_j - |e_{j-1}| - |e_j| - 4 eps (|d_j| + |e_{j-1}| + |e_j|) - 2 pivmin
    >= lam + 4 eps |lam|, e_{-1} and e_{n-1} being 0.  Then each later pivot is
    at least |e| + pivmin, rounding included, so none is counted and the
    count equals the full sweep's.  Row 0 reads e^2/inf = 0.  lam is read as
    a Python float: a numpy scalar costs about three times as much per row.
    """
    lam = float(lam)
    d, e, e2, pivmin, safe = op._sweep_rows
    tail = int(np.searchsorted(safe, lam + 4.0 * _EPS * abs(lam)))
    rows, n = iter(d), len(d)
    count, q, i, block = 0, math.inf, 0, tail
    # rows go in blocks, and the exit test runs between blocks: once it
    # holds it holds for every later row, so testing late changes nothing
    while i < n and (i < tail or q < e):
        for di in islice(rows, block):
            q = di - lam - e2 / q
            if q < pivmin:  # q <= 0, or |q| < pivmin and clamped to -pivmin
                count += 1
                if q > -pivmin:
                    q = -pivmin
        i += block
        block = _EXIT_TEST_ROWS
    return count


def _newton_sweep(op: TridiagonalOperator, lam: float) -> tuple:
    """Sturm count at lam and the slope d/dlam log|det(T_m - lam I)| of the
    leading minor T_m of the rows swept, in one sweep.

    log|det| is the sum of log|q_i| over the pivots, so the slope is the sum
    of q_i'/q_i.  Differentiating q_i = d_i - lam - e_{i-1}^2/q_{i-1} gives
    q_i' = -1 + (e_{i-1}^2/q_{i-1}) (q_{i-1}'/q_{i-1}); t carries q_i'/q_i.
    The sweep takes sturm_count's blocks and exit test, so its count is
    sturm_count's.  At the exit row m, T_m has an eigenvalue about |lam - mu|
    from the operator's mu near lam, which makes Newton's iteration linear, so
    the sweep runs max(m - tail, _EXIT_TEST_ROWS) rows more, twice as deep
    past tail, which brings that gap to about |lam - mu|^2, Newton's own error.
    """
    d, e, e2, pivmin, safe = op._sweep_rows
    tail = int(np.searchsorted(safe, lam + 4.0 * _EPS * abs(lam)))
    rows, n = iter(d), len(d)
    count, q, t, slope, i, block, stop = 0, math.inf, 0.0, 0.0, 0, tail, n
    while i < stop:
        for di in islice(rows, block):
            g = e2 / q
            q = di - lam - g
            if q < pivmin:
                count += 1
                if q > -pivmin:
                    q = -pivmin
            t = (g * t - 1.0) / q
            slope += t
        i += block
        block = _EXIT_TEST_ROWS
        if stop == n and tail <= i < n and q >= e:  # sturm_count stops here
            block = max(i - tail, _EXIT_TEST_ROWS)
            stop = i + block
    return count, slope


class _LevelSolver:
    """Eigenvalues of one operator, level by level, from shared Sturm counts.

    Every count taken is kept as (lam, count): a count c at lam bounds each
    level i from below (c <= i) or from above (c > i), so all levels share
    the work.  Where no count bounds a level from above yet, the search
    doubles its step up from the Gershgorin bottom; the wanted levels
    usually sit just above that bottom and far below the Gershgorin top.
    Level i reads only counts taken for levels 0..i, so it does not depend
    on how many levels are asked for.  Newton's iteration for level i starts
    at predictions[i], where given, and after narrow at the bracket's midpoint.
    """

    def __init__(self, op: TridiagonalOperator, tol: float, predictions=()):
        n, max_off = op.size, op._sweep_rows[1]
        lo = float(np.min(op.diag)) - 2.0 * max_off
        self.op = op
        self.hi = float(np.max(op.diag)) + 2.0 * max_off
        self.eff_tol = max(tol, 8.0 * _EPS * max(abs(lo), abs(self.hi), 1.0))
        # strictly below the spectrum, so that count(lo) = 0 needs no sweep
        self.lo = lo - self.eff_tol
        # first step: the lowest level of a free chain with this coupling
        self.step = max(self.eff_tol, 4.0 * max_off * math.sin(0.5 * math.pi / (n + 1)) ** 2)
        self.counts = []
        self.predictions = predictions

    def count(self, lam: float) -> int:
        c = sturm_count(self.op, lam)
        self.counts.append((lam, c))
        return c

    def bracket(self, i: int) -> tuple:
        """Tightest (a, count(a), b, count(b)) with count(a) <= i < count(b);
        b is hi and count(b) None while nothing bounds level i from above."""
        a, ca, b, cb = self.lo, 0, self.hi, None
        for lam, c in self.counts:
            if c <= i:
                if lam > a:
                    a, ca = lam, c
            elif cb is None or lam < b:
                b, cb = lam, c
        return a, ca, b, cb

    def narrow(self, i: int, p: float = math.nan) -> tuple:
        """Count until level i's bracket isolates it or is eff_tol wide; returns
        the bracket.  While the level's distance from p (outside the bracket) is
        not known to a factor of two, a cut halves its log; other cuts bisect."""
        for _ in range(_MAX_BISECTIONS):
            a, ca, b, cb = self.bracket(i)
            near, far = sorted((max(abs(p - a), self.eff_tol), max(abs(p - b), self.eff_tol)))
            log_cut = p + math.copysign(math.sqrt(near) * math.sqrt(far), a - p)
            if far > 2.0 * near and a < log_cut < b:
                lam = log_cut
            elif cb is None:
                lam = min(self.lo + self.step, self.hi)
                self.step *= 2.0
            elif b - a <= self.eff_tol or (ca == i and cb == i + 1):
                return a, b
            else:
                lam = 0.5 * (a + b)
                if not a < lam < b:
                    return a, b  # float resolution reached
            self.count(lam)
        raise NumericError("bisection failed to shrink the eigenvalue bracket")

    def certified(self, i: int, lam: float) -> bool:
        """The two-count certificate of lam as level i; a kept count may settle a side."""
        half = 0.5 * self.eff_tol
        a, _, b, cb = self.bracket(i)
        return ((a >= lam - half or self.count(lam - half) <= i)
                and (cb is not None and b <= lam + half or i < self.count(lam + half)))

    def newton(self, i: int, x: float):
        """Newton's iteration on det(T - lam I) for level i from x inside its
        bracket, read again after every sweep: the certified level, or None once
        a step leaves the bracket or exceeds half the previous one (at first,
        the bracket's width).  An iterate is offered to the certificate once its
        step is below eff_tol/4, or once step^3 / previous^2, the error that
        quadratic convergence predicts, is below eff_tol/64; a failed offer iterates on."""
        a, _, b, _ = self.bracket(i)
        last_step = b - a
        if not 0.0 < x - a < last_step:
            return None
        for _ in range(_MAX_NEWTON_STEPS):
            c, slope = _newton_sweep(self.op, x)
            self.counts.append((x, c))
            a, _, b, _ = self.bracket(i)
            y = x - 1.0 / slope if slope != 0.0 else math.nan
            step = abs(y - x)
            if not (a < y < b and step <= 0.5 * last_step):
                return None
            # products, not **: a float ** that overflows raises OverflowError
            if (step <= 0.25 * self.eff_tol
                    or step * step * step <= self.eff_tol * (last_step * last_step) / 64.0) \
                    and self.certified(i, y):
                return y
            last_step, x = step, y
        return None

    def level(self, i: int) -> float:
        """Newton from the prediction (nan where none is given), then from the
        midpoint of each bracket narrow isolates, whose first sweep halves it,
        until a level is certified or the bracket is eff_tol wide."""
        p = x = self.predictions[i] if i < len(self.predictions) else math.nan
        for _ in range(_MAX_BISECTIONS):
            lam = self.newton(i, x)
            if lam is not None:
                return lam
            a, b = self.narrow(i, p)
            x = 0.5 * (a + b)
            if b - a <= self.eff_tol or not a < x < b:
                return x
        raise NumericError("bisection failed to shrink the eigenvalue bracket")

    def predicted(self, i: int) -> float:
        """Level i as Newton's iteration from its prediction with no count
        taken, uncertified, for levels that only seed a finer grid's: each
        sweep's own count must be i or i + 1 and each step at most half the
        previous one, until a step is at most eff_tol.  Where there is no
        prediction or a guard fails, the certified level(i)."""
        x, last_step = self.predictions[i] if i < len(self.predictions) else math.nan, math.inf
        while math.isfinite(x):
            c, slope = _newton_sweep(self.op, x)
            self.counts.append((x, c))
            step = abs(1.0 / slope) if slope != 0.0 else math.nan
            if c not in (i, i + 1) or not step <= 0.5 * last_step:
                break
            x, last_step = x - 1.0 / slope, step
            if step <= self.eff_tol:
                return x
        return self.level(i)


def lowest_eigenvalues(op: TridiagonalOperator, k: int, tol: float = 1e-10) -> list:
    """The k smallest eigenvalues, each within eff_tol/2 of the exact one.

    eff_tol is tol floored at a few ulps of the spectral scale, which matters
    on very stiff grids.  Each level is either the midpoint of a Sturm
    bracket at most eff_tol wide or a Newton iterate lam certified by
    count(lam - eff_tol/2) <= i < count(lam + eff_tol/2); where op comes from
    discretize on an odd grid, the iteration starts at a nested-grid
    prediction, before any count.  Level i is the same float whatever k is.

    Returns a list of k Python floats, in nondecreasing order up to eff_tol:
    two levels closer than eff_tol may come out in either order.
    """
    n = op.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    solver = _LevelSolver(op, tol, _predictions(op, k, tol)[0])
    return [solver.level(i) for i in range(k)]


def _coarsened(op: TridiagonalOperator):
    """The same stencil on every other node of the same grid, or None on an
    even grid, or where the coarse operator would have fewer than
    _COARSE_MIN_ROWS rows."""
    grid = op.grid
    if grid.n_points % 2 == 0 or (op.size - 1) // 2 < _COARSE_MIN_ROWS:
        return None
    coarse = RadialGrid(grid.r_min, grid.r_max, (grid.n_points + 1) // 2)
    # the diagonal keeps V at the shared nodes and swaps 2/h^2 for 2/(2h)^2
    return TridiagonalOperator(diag=op.diag[1::2] - 2.0 / grid.h**2 + 2.0 / coarse.h**2, grid=coarse)


def _predictions(op: TridiagonalOperator, k: int, tol: float) -> tuple:
    """Predictions of op's k lowest levels, and the coarse levels they come
    from ([] where there is no coarse operator or its solve failed).

    Level i is predicted as c1 + (c1 - c2)/4, the Richardson value of the h^2
    expansion, where c1 and c2 are level i on the grids with 2h and 4h, or as
    c1 where the 4h grid has no level i.  The coarse levels are predictions
    too (_LevelSolver.predicted), certified only at the chain's bottom.  The
    coarse solves take min(k, size) levels whatever k is, so the prediction
    for level i, and with it level i, do not depend on k.
    """
    coarse = _coarsened(op)
    if coarse is None:
        return [], []
    k, tol = min(k, coarse.size), max(tol, _COARSE_TOL)
    try:
        predictions, c2s = _predictions(coarse, k, tol)
        solver = _LevelSolver(coarse, tol, predictions)
        c1s = [solver.predicted(i) for i in range(k)]
    except NumericError:
        return [], []  # no prediction: the solve works without one
    return [c1 + 0.25 * (c1 - c2) for c1, c2 in zip(c1s, c2s)] + c1s[len(c2s):], c1s


def _pivots(d, lam: float, e2: float, pivmin: float, q: float = math.inf):
    """LDL^T pivots of (T - lam I) down the given diagonal entries d_i, after
    the pivot q; a pivot smaller in magnitude than pivmin is replaced by
    -pivmin, as in sturm_count.  A generator, read by np.fromiter."""
    for di in d:
        q = di - lam - e2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        yield q


def _forward_pivots(op: TridiagonalOperator, lam: float, minus: np.ndarray) -> np.ndarray:
    """The forward pivots D+ of (T - lam I) down to the row past which no
    twist can lie, given the backward pivots D-.

    Past sturm_count's exit row m, every forward pivot is at least |e| and,
    since each later row is Gershgorin-safe, so is every backward one; then
    gamma_j = d_j - lam - e^2/D+_{j-1} - e^2/D-_{j+1} is at least
    d_j - 2|e| - lam >= safe[m] - lam.  As computed, with rounding, it is at
    least safe[m] - lam - slack, slack = 16 eps (max|d| + 2|e| + |lam|).  So
    the sweep stops at such a row m once safe[m] - lam - slack exceeds the
    least |gamma| of the rows before it: the twist, the first least |gamma|,
    lies before m, and the vector reads no pivot past it.
    """
    d, e, e2, pivmin, safe = op._sweep_rows
    slack = 16.0 * _EPS * (float(np.max(np.abs(op.diag))) + 2.0 * e + abs(lam))
    tail = int(np.searchsorted(safe, lam + slack))
    rows, n, base = iter(d), len(d), op.diag - lam
    plus, q, m, least, seen, block = np.empty(n), math.inf, 0, math.inf, 0, max(tail, 1)
    while m < n:
        b = min(block, n - m)
        plus[m:m + b] = np.fromiter(_pivots(islice(rows, b), lam, e2, pivmin, q), float, b)
        m, q, block = m + b, float(plus[m + b - 1]), _EXIT_TEST_ROWS
        if m < n and q >= e:  # sturm_count stops here
            with np.errstate(over="ignore", invalid="ignore"):
                gamma = plus[seen:m] + minus[seen:m] - base[seen:m]
            least, seen = float(np.min(np.abs(gamma), initial=least)), m
            if safe[m] - lam - slack > least:
                break
    return plus[:m]


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
    inner = v[1:-1]
    turns = np.flatnonzero((np.abs(inner) >= 1e-6 * amax) & ((inner - v[:-2]) * (v[2:] - inner) <= 0.0))
    if turns.size:
        return 1.0 if inner[turns[0]] > 0 else -1.0
    peak = int(np.argmax(np.abs(v)))
    return 1.0 if v[peak] >= 0 else -1.0


def eigenvector(op: TridiagonalOperator, lam: float, tol: float = 1e-10) -> np.ndarray:
    """Eigenvector for a converged eigenvalue lam from one twisted factorization.

    The forward pivots D+ (T - lam = L D+ L^T) and the backward pivots D-
    (T - lam = U D- U^T) meet at the twist r that minimizes
    |gamma_r| = |D+_r + D-_r - (d_r - lam)|.  The vector with z_r = 1,
    z_i = -e_i/D+_i z_{i+1} below r and z_i = -e_{i-1}/D-_i z_{i-1} above r
    solves (T - lam) z = gamma_r e_r (Fernando 1997; Dhillon & Parlett 2004),
    so its angle to the true eigenvector is of order |lam - lambda|/gap.  Its
    residual |gamma_r x_r|, near |lam - lambda|/|x_r|, can reach sqrt(n) times a
    level's error, so a failing vector is rebuilt, and checked, at its Rayleigh
    quotient lam + gamma_r x_r^2 where that lies within the check's bound of lam.

    Returns the full-grid samples (zeros at the Dirichlet walls), normalized
    to unit quadrature norm, with the sign fixed so the first extremum is
    positive.  Raises NumericError if the vector overflows or the residual
    check fails, and ValueError for a lam or tol that is not finite.
    """
    lam, tol = float(lam), float(tol)
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if not math.isfinite(lam):
        raise ValueError("the shift lam must be finite")
    d, e, e2, pivmin, _ = op._sweep_rows
    bound = max(tol, 64.0 * _EPS * max(abs(lam), float(np.max(np.abs(op.diag))), 1.0))
    shift = lam
    for retry in (False, True):
        minus = np.fromiter(_pivots(reversed(d), shift, e2, pivmin), float, op.size)[::-1]
        plus = _forward_pivots(op, shift, minus)
        m = len(plus)
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = plus + minus[:m] - (op.diag[:m] - shift)
            r = int(np.argmin(np.abs(gamma)))
            z = np.ones(op.size)
            z[:r] = np.cumprod((e / plus[:r])[::-1])[::-1]
            z[r + 1:] = np.cumprod(e / minus[r + 1:])
        if not np.all(np.isfinite(z)):
            raise NumericError(f"twisted factorization overflows at shift {lam!r}")
        x = z / np.max(np.abs(z))
        x /= math.sqrt(float((x * x).sum()))
        res = _matvec(op, x) - shift * x
        residual = math.sqrt(float((res * res).sum()))
        step = float(gamma[r]) * float(x[r]) ** 2
        if residual <= 10.0 * bound or retry or not abs(step) <= bound:
            break
        shift = lam + step
    if residual > 10.0 * bound:
        raise NumericError(f"eigenvector residual {residual:.3e} too large for shift {lam!r}")
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
    y = _grid_samples("f_samples", f_samples, grid)
    h = grid.h
    if len(y) % 2 == 1:
        return _simpson_odd(y, h)
    return _simpson_odd(y[:-1], h) + 0.5 * h * (y[-2] + y[-1])


def _simpson_odd(y, h) -> float:
    # numpy's pairwise sums, not a BLAS dot: the bytes do not follow the
    # BLAS thread count
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def cumulative_quadrature(f_samples, grid: RadialGrid) -> np.ndarray:
    """Running integral I[j] = int_{r_0}^{r_j} f, Simpson-accurate at every node.

    Even indices come from cumulated Simpson pairs; odd ones add a
    quadratic-interpolation half step, h/12 * (5 f_{j-1} + 8 f_j - f_{j+1}).
    """
    y = _grid_samples("f_samples", f_samples, grid)
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


def isospectral_check(eigs_minus, v_plus, grid: RadialGrid) -> list:
    """The partner-spectrum shift: V+ level i minus V- level i+1, for each
    of the len(eigs_minus) - 1 pairs.  V+ level i is solved here from V-
    level i+1 as its prediction, and still carries its own certificate on
    the V+ operator, so the check does not take the V- levels on trust."""
    if len(eigs_minus) < 2:
        raise ValueError("isospectral_check needs at least two V- levels")
    predictions = [float(m) for m in eigs_minus[1:]]
    solver = _LevelSolver(discretize(v_plus, grid), 1e-10, predictions)
    return [solver.level(i) - m for i, m in enumerate(predictions)]
