"""Correctness checks on the outputs of benchmark ops.

Each check takes an op and its captured stdout and returns ``(ok, why,
err_ratio)``: whether the output is what the program documents, a one-line
reason when it is not, and the op's worst error as a share of its documented
tolerance (``None`` where the op has no such figure).  The checks use only
numpy and the standard library, never the program's own code.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import SOLVABLE, superpotential

#: documented tolerances of the level comparisons (README, verify checks)
LEVEL_TOL = 1e-3        # analytic_vs_numeric, relative to max(1, eps^2)
QES_LEVEL0_TOL = 5e-4   # analytic_vs_numeric for the QES zero mode
#: verify compares level 0 only where the zero mode at the wall r_min is
#: below this share of its peak (README, default checks)
WALL_SHARE = 1e-3
EPS = float(np.finfo(float).eps)


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not text.endswith("\r\n"):
        raise ValueError("CSV output does not end in CRLF")
    return rows[0], rows[1:]


def check_verify(op, code, text):
    rep = json.loads(text)
    entries = rep["entries"]
    ratios = []
    for e in entries:
        if e["metric"] is None:
            return False, f"{e['check']}: {e['detail']}", None
        if (e["status"] == "pass") != (e["metric"] < e["tolerance"]):
            return False, f"{e['check']}: status disagrees with metric/tolerance", None
        ratios.append(e["metric"] / e["tolerance"])
    all_passed = all(e["status"] == "pass" for e in entries)
    if rep["all_passed"] != all_passed or code != (0 if all_passed else 1):
        return False, f"exit code {code} disagrees with the report", None
    return True, "", max(ratios)


def zero_mode_clear_of_wall(op, r_min, r_max, points=20001):
    """Whether the zero mode exp(-int W) on [r_min, r_max] has fallen below
    WALL_SHARE of its peak at the wall, by the closed-form W.  Only then is a
    numeric level 0 near zero: where the zero mode is finite at the Dirichlet
    wall, verify skips its level-0 comparison, and so does max_err_ratio."""
    r = np.linspace(r_min, r_max, points)
    w, _ = superpotential(op.family, op.params, op.ell, r)
    log_f = -np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(r))))
    return float(np.max(log_f)) >= -math.log(WALL_SHARE)


def spectrum_levels(op, text, window=None):
    """Numeric epsilon^2 levels and the worst closed-form error ratio.

    ``window`` is the op's ``(r_min, r_max)``; a QES level 0 counts toward the
    ratio only where the zero mode there is clear of the wall.
    """
    header, rows = _csv_rows(text)
    col = {name: i for i, name in enumerate(header)}
    numeric = [float(r[col["epsilon_sq"]]) for r in rows if r[col["source"]] == "numeric"]
    if len(numeric) != op.n_max + 1 or numeric != sorted(numeric):
        raise ValueError("numeric levels missing or out of order")
    ratio = None
    if op.family in SOLVABLE:
        analytic = [float(r[col["epsilon_sq"]]) for r in rows if r[col["source"]] == "analytic"]
        ratio = max(abs(nu - an) / max(1.0, abs(an)) for nu, an in zip(numeric, analytic)) / LEVEL_TOL
    elif op.family != "custom" and window is not None and zero_mode_clear_of_wall(op, *window):
        ratio = abs(numeric[0]) / QES_LEVEL0_TOL
    return numeric, ratio


def check_spectrum(op, code, text):
    if code != 0:
        return False, f"exit code {code}", None
    _, ratio = spectrum_levels(op, text)
    return True, "", ratio


CHECKS = {
    "verify": check_verify,
    "spectrum": check_spectrum,
}


def check_output(op, code, text):
    """Run the op's check; a malformed output fails it instead of raising."""
    try:
        return CHECKS[op.command](op, code, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"malformed output: {type(exc).__name__}: {exc}", None


def lapack_bound(diag, off):
    """Agreement bound for one eigenvalue against LAPACK, scaled like the solver.

    The solver stops bisecting at max(1e-10, 8 eps ||T||), with ||T|| the
    larger end of the Gershgorin interval; LAPACK's own error is a few
    eps ||T||.  A flat absolute bound would fail stiff windows such as
    Morse's default, where ||T|| is about 4e9.
    """
    max_off = float(np.max(np.abs(off))) if len(off) else 0.0
    norm = max(abs(float(np.min(diag)) - 2.0 * max_off),
               abs(float(np.max(diag)) + 2.0 * max_off), 1.0)
    return max(1e-10, 8.0 * EPS * norm) + 8.0 * EPS * norm


def check_against_lapack(levels, diag, off):
    """Compare solver levels with SciPy ``eigh_tridiagonal`` on the same operator."""
    from scipy.linalg import eigh_tridiagonal

    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(0, len(levels) - 1))
    bound = lapack_bound(diag, off)
    worst = max(abs(a - b) for a, b in zip(levels, ref))
    if not worst <= bound:
        return False, f"levels differ from LAPACK by {worst:.3e} > {bound:.3e}"
    return True, ""
