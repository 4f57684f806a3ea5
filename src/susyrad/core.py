"""Shared domain types: radial grids, model specifications, energies.

Everything downstream (superpotentials, closed-form spectra, the numerical
solver, the CLI) works in terms of the values defined here.  All types are
immutable.  The package works in natural units only (hbar = m = c = e =
4*pi*eps0 = 1): every formula is quoted, and computed, in that convention.
The 1/r-pole families share W = const - (l+1)/r + omega_T r: the oscillator
has const = 0, Coulomb omega_T = 0, and deformed-Coulomb both terms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np


class DomainError(ValueError):
    """An input lies outside the physical/mathematical domain of an operation."""


class NoBoundStateError(DomainError):
    """The requested level does not exist as a bound state."""


class ConfigurationError(ValueError):
    """A model or grid configuration is structurally invalid."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or to verify its own result."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform one-dimensional mesh on [r_min, r_max] with n_points samples."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigurationError("a radial grid needs at least 3 points")
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ConfigurationError("grid ends must be finite")
        if not self.r_min < self.r_max:
            raise ConfigurationError("grid requires r_min < r_max")
        if not math.isfinite(self.r_max - self.r_min):
            raise ConfigurationError("grid width r_max - r_min overflows")

    @property
    def h(self) -> float:
        """Uniform spacing."""
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


class Family(enum.Enum):
    """The six potential families plus user-tabulated superpotentials."""

    OSCILLATOR = "oscillator"
    COULOMB = "coulomb"
    MORSE = "morse"
    ANHARMONIC_QES = "anharmonic"
    SEXTIC_QES = "sextic"
    DEFORMED_COULOMB_QES = "deformed-coulomb"
    CUSTOM = "custom"


def omega_total(omega: float, B: float) -> float:
    """Total oscillator frequency omega_T = omega + B/2: mechanical omega plus
    the Larmor term eB/2m in natural units."""
    if omega < 0 or B < 0:
        raise DomainError("omega and B must be nonnegative")
    return omega + B / 2.0


@dataclass(frozen=True)
class Superpotential:
    """W(r) and its derivative W'(r)."""

    w: Callable
    w_prime: Callable


@dataclass(frozen=True)
class FamilyRecord:
    """Everything the package knows about one family, keyed by `Family` in FAMILIES.

    params: parameter names, each with its command-line default.
    rules: (test, message) pairs checked in order by ModelSpec; a test that
        returns False on the spec raises ConfigurationError(message).
    superpotential: spec -> Superpotential, the closed form of W.
    window: (spec, n_max) -> the default RadialGrid.
    epsilon_sq: (spec, n) -> closed-form epsilon^2_n of a solvable family.
    tower_top: spec -> highest bound level of a finite tower; None when the
        tower does not end.
    envelope: (spec, n, r) -> (k, z, alpha) of a solvable family: the lower
        state of level n is z^k e^{-z/2} L_n^alpha(z) with z = z(r).
    log_zero_mode: (spec, r) -> log f_0 up to a constant, for a QES family.
    has_ell: ell is a free label (it must then be >= 0); otherwise it is 0.
    """

    params: Mapping
    rules: tuple
    superpotential: Callable
    window: Callable
    epsilon_sq: Callable | None = None
    tower_top: Callable | None = None
    envelope: Callable | None = None
    log_zero_mode: Callable | None = None
    has_ell: bool = True

    @property
    def closed_form(self) -> str:
        """Levels known in closed form, read from what the record holds: "all" (an
        envelope: spectrum and states), "ground" (a log_zero_mode only) or "none"."""
        if self.envelope is not None:
            return "all"
        return "none" if self.log_zero_mode is None else "ground"


def _omega_t(m: "ModelSpec") -> float:
    return omega_total(m.params["omega"], m.params["B"])


def _pole_w(m: "ModelSpec", const: float, w_t: float) -> Superpotential:
    """W = const - (l+1)/r + omega_T r and W' = (l+1)/r^2 + omega_T."""
    c = -(m.ell + 1.0)
    return Superpotential(lambda r: const + c / r + w_t * r, lambda r: -c / r**2 + w_t)


def _oscillator_r_max(w_t: float, n_max: int) -> float:
    return (8.0 + 2.0 * math.sqrt(n_max + 1.0)) / math.sqrt(w_t)


def _coulomb_r_max(kappa: float, n_r: int) -> float:
    return (2.0 * n_r**2 + 21.0 * n_r) / kappa


def _morse_w(m: "ModelSpec") -> Superpotential:
    a, alpha, b = m.params["a"], m.params["alpha"], m.params["b"]
    return Superpotential(lambda r: b - a * np.exp(-alpha * r),
                          lambda r: a * alpha * np.exp(-alpha * r))


def _morse_top(m: "ModelSpec") -> float:
    """Largest n with b - alpha n > 0 (the Morse tower is finite); inf when
    b / alpha is beyond the float range."""
    ratio = m.params["b"] / m.params["alpha"]
    return max(0, math.ceil(ratio - 1e-12) - 1) if math.isfinite(ratio) else math.inf


def _morse_envelope(m: "ModelSpec", n: int, r: np.ndarray) -> tuple:
    a, alpha, b = m.params["a"], m.params["alpha"], m.params["b"]
    return b / alpha - n, (2.0 * a / alpha) * np.exp(-alpha * r), 2.0 * b / alpha - 2.0 * n


def _morse_window(m: "ModelSpec", n_max: int) -> RadialGrid:
    alpha = m.params["alpha"]
    k_min = m.params["b"] / alpha - min(n_max, _morse_top(m))
    # the top level's tail decays like exp(-alpha k_min r); ten e-folds of it
    # leave a negligible shift from the Dirichlet wall at r_max
    return RadialGrid(-10.0 / alpha, (15.0 + 10.0 / k_min) / alpha, 8001)


def _anharmonic_w(m: "ModelSpec") -> Superpotential:
    a, w_t, b = m.params["a"], m.params["omega_T"], m.params["b"]
    return Superpotential(lambda r: a + w_t * r + b * r**2, lambda r: w_t + 2.0 * b * r)


def _sextic_w(m: "ModelSpec") -> Superpotential:
    w_t, b, c = m.params["omega_T"], m.params["b"], -float(m.ell)
    if m.ell == 0:  # no 1/r term: W is regular at the origin
        return Superpotential(lambda r: w_t * r + b * r**3, lambda r: w_t + 3.0 * b * r**2)
    return Superpotential(lambda r: c / r + (w_t * r + b * r**3),
                          lambda r: -c / r**2 + (w_t + 3.0 * b * r**2))


def _deformed_coulomb_window(m: "ModelSpec", n_max: int) -> RadialGrid:
    """20 / max(omega_T, e2 / 2(l+1)), widened to the shorter of the Coulomb
    (kappa = e2/2) and oscillator windows of level n_max: as omega_T -> 0 the
    model becomes Coulomb, whose levels spread far past the zero mode."""
    e2, w_t = m.params["e2"], m.params["omega_T"]
    coulomb = _coulomb_r_max(e2 / 2.0, n_max + m.ell + 1)
    oscillator = _oscillator_r_max(w_t, n_max) if w_t > 0 else math.inf
    zero_mode = 20.0 / max(w_t, e2 / (2.0 * (m.ell + 1.0)))
    return RadialGrid(1e-3, max(zero_mode, min(coulomb, oscillator)), 8001)


def _decay_r_max(m: "ModelSpec", r_lo: float) -> float:
    """Smallest radius (plus 30% margin) where the closed-form zero mode
    drops 1e-10 below its peak; sizes windows for superpolynomially decaying
    zero modes."""
    target = math.log(1e10)
    r_hi = max(4.0 * r_lo, 4.0)
    for _ in range(60):
        rs = np.linspace(r_lo, r_hi, 2001)
        g = m.record.log_zero_mode(m, rs)
        drop = np.max(g) - g
        idx = np.nonzero(drop >= target)[0]
        # require the drop to happen on the right flank, past the peak
        idx = idx[idx > int(np.argmax(g))]
        if len(idx):
            return 1.3 * float(rs[idx[0]])
        r_hi *= 2.0
    raise NumericError("could not find a decaying window for the zero mode")


def _custom_w(m: "ModelSpec") -> Superpotential:
    """Tabulated samples, linearly interpolated."""
    rs, w, wp = m.params["grid"].points(), m.params["w_samples"], m.params["w_prime_samples"]
    return Superpotential(lambda r: np.interp(r, rs, w), lambda r: np.interp(r, rs, wp))


FAMILIES = {
    Family.OSCILLATOR: FamilyRecord(
        params={"omega": 1.0, "B": 0.0},
        rules=(
            (lambda m: m.params["omega"] >= 0 and m.params["B"] >= 0,
             "oscillator requires omega >= 0 and B >= 0"),
            (lambda m: _omega_t(m) > 0, "oscillator requires omega_T = omega + eB/2m > 0"),
        ),
        superpotential=lambda m: _pole_w(m, 0.0, _omega_t(m)),
        window=lambda m, n_max: RadialGrid(1e-6 / math.sqrt(_omega_t(m)),
                                           _oscillator_r_max(_omega_t(m), n_max), 2801),
        epsilon_sq=lambda m, n: 4.0 * n * _omega_t(m),
        envelope=lambda m, n, r: ((m.ell + 1.0) / 2.0, _omega_t(m) * r**2, m.ell + 0.5),
    ),
    Family.COULOMB: FamilyRecord(
        params={"kappa": 1.0},
        rules=((lambda m: m.params["kappa"] > 0, "coulomb requires kappa > 0"),),
        superpotential=lambda m: _pole_w(m, m.params["kappa"] / (m.ell + 1.0), 0.0),
        window=lambda m, n_max: RadialGrid(
            1e-6 / m.params["kappa"], _coulomb_r_max(m.params["kappa"], n_max + m.ell + 1), 16001),
        epsilon_sq=lambda m, n: m.params["kappa"]**2 * (
            1.0 / (m.ell + 1.0) ** 2 - 1.0 / (n + m.ell + 1.0) ** 2),
        envelope=lambda m, n, r: (m.ell + 1.0, 2.0 * m.params["kappa"] * r / (n + m.ell + 1.0),
                                  2.0 * m.ell + 1.0),
    ),
    Family.MORSE: FamilyRecord(
        params={"a": 3.0, "alpha": 1.0, "b": 3.0},
        rules=((lambda m: m.params["a"] > 0 and m.params["alpha"] > 0 and m.params["b"] > 0,
                "morse requires a > 0, alpha > 0, b > 0"),),
        superpotential=_morse_w,
        window=_morse_window,
        epsilon_sq=lambda m, n: m.params["alpha"] * n * (2.0 * m.params["b"]
                                                         - m.params["alpha"] * n),
        tower_top=_morse_top,
        envelope=_morse_envelope,
        has_ell=False,
    ),
    Family.ANHARMONIC_QES: FamilyRecord(
        params={"a": 1.0, "omega_T": 1.0, "b": 1.0},
        # b = 0 is admitted as the harmonic limit (omega_T > 0 keeps the zero
        # mode normalizable); it is needed as a comparator configuration.
        rules=((lambda m: m.params["omega_T"] > 0, "anharmonic requires omega_T > 0"),
               (lambda m: m.params["b"] >= 0, "anharmonic requires b >= 0")),
        superpotential=_anharmonic_w,
        window=lambda m, n_max: RadialGrid(0.0, _decay_r_max(m, 0.0), 6001),
        log_zero_mode=lambda m, r: -(m.params["b"] * r**3 / 3.0
                                     + m.params["omega_T"] * r**2 / 2.0 + m.params["a"] * r),
        has_ell=False,
    ),
    Family.SEXTIC_QES: FamilyRecord(
        params={"omega_T": 1.0, "b": 1.0},
        rules=((lambda m: m.params["omega_T"] > 0, "sextic requires omega_T > 0"),
               (lambda m: m.params["b"] >= 0, "sextic requires b >= 0")),
        superpotential=_sextic_w,
        window=lambda m, n_max: RadialGrid(1e-5, _decay_r_max(m, 1e-5), 6001),
        log_zero_mode=lambda m, r: ((m.ell * np.log(r) if m.ell else 0.0)
                                    - m.params["omega_T"] * r**2 / 2.0 - m.params["b"] * r**4 / 4.0),
    ),
    Family.DEFORMED_COULOMB_QES: FamilyRecord(
        params={"e2": 1.0, "omega_T": 1.0},
        rules=((lambda m: m.params["e2"] > 0, "deformed-coulomb requires e2 > 0"),
               (lambda m: m.params["omega_T"] >= 0, "deformed-coulomb requires omega_T >= 0")),
        superpotential=lambda m: _pole_w(m, m.params["e2"] / (2.0 * (m.ell + 1.0)),
                                         m.params["omega_T"]),
        window=_deformed_coulomb_window,
        log_zero_mode=lambda m, r: ((m.ell + 1.0) * np.log(r)
                                    - m.params["omega_T"] * r**2 / 2.0
                                    - m.params["e2"] * r / (2.0 * (m.ell + 1.0))),
    ),
    Family.CUSTOM: FamilyRecord(
        params={},
        rules=(
            (lambda m: all(m.params.get(k) is not None
                           for k in ("grid", "w_samples", "w_prime_samples")),
             "custom family requires tabulated 'grid', 'w_samples' and 'w_prime_samples'"),
            (lambda m: isinstance(m.params["grid"], RadialGrid),
             "custom 'grid' must be a RadialGrid"),
            (lambda m: np.shape(m.params["w_samples"]) == (m.params["grid"].n_points,),
             "custom w_samples must have grid.n_points entries"),
            (lambda m: np.shape(m.params["w_prime_samples"]) == (m.params["grid"].n_points,),
             "custom w_prime_samples must have grid.n_points entries"),
        ),
        superpotential=_custom_w,
        # the tabulated window is the only sensible default
        window=lambda m, n_max: m.params["grid"],
        has_ell=False,
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """One of the potential families with its parameters and angular label.

    Parameter records are plain mappings; use the per-family constructors
    below rather than building the dict by hand.
    """

    family: Family
    params: Mapping
    ell: int = 0

    def __post_init__(self):
        record = self.record
        missing = [k for k in record.params if k not in self.params]
        if missing:
            raise ConfigurationError(
                f"{self.family.value} model missing parameters: {', '.join(missing)}"
            )
        for key in record.params:
            if not math.isfinite(self.params[key]):
                raise ConfigurationError(f"{self.family.value} requires a finite {key}")
        for test, message in record.rules:
            if not test(self):
                raise ConfigurationError(message)
        if record.has_ell and self.ell < 0:
            raise ConfigurationError(f"{self.family.value} requires ell >= 0")

    @property
    def record(self) -> FamilyRecord:
        return FAMILIES[self.family]

    @property
    def is_qes(self) -> bool:
        return self.record.closed_form == "ground"

    @property
    def max_level(self) -> float:
        """Highest bound level: the top of a finite tower, inf otherwise."""
        top = self.record.tower_top
        return math.inf if top is None else top(self)


def oscillator_model(omega: float, B: float = 0.0, ell: int = 0) -> ModelSpec:
    return ModelSpec(Family.OSCILLATOR, {"omega": float(omega), "B": float(B)}, ell)


def coulomb_model(kappa: float, ell: int = 0) -> ModelSpec:
    return ModelSpec(Family.COULOMB, {"kappa": float(kappa)}, ell)


def morse_model(a: float, alpha: float, b: float) -> ModelSpec:
    return ModelSpec(Family.MORSE, {"a": float(a), "alpha": float(alpha), "b": float(b)})


def anharmonic_model(a: float, omega_T: float, b: float) -> ModelSpec:
    return ModelSpec(Family.ANHARMONIC_QES,
                     {"a": float(a), "omega_T": float(omega_T), "b": float(b)})


def sextic_model(omega_T: float, b: float, ell: int = 0) -> ModelSpec:
    return ModelSpec(Family.SEXTIC_QES, {"omega_T": float(omega_T), "b": float(b)}, ell)


def deformed_coulomb_model(e2: float, omega_T: float, ell: int = 0) -> ModelSpec:
    return ModelSpec(Family.DEFORMED_COULOMB_QES, {"e2": float(e2), "omega_T": float(omega_T)},
                     ell)


def custom_model(grid: RadialGrid, w_samples, w_prime_samples) -> ModelSpec:
    return ModelSpec(Family.CUSTOM, {
        "grid": grid,
        "w_samples": _float_samples("w_samples", w_samples),
        "w_prime_samples": _float_samples("w_prime_samples", w_prime_samples),
    })


def _float_samples(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"custom {name} must be numbers") from None


# --------------------------------------------------------------------------
# Energies


def epsilon_to_energy(epsilon_sq: float) -> tuple[float, float]:
    """Map the shifted squared eigenvalue to the (+E, -E) energy pair.

    E = sqrt(1 + epsilon_sq), the relativistic dispersion in natural units;
    both signs are physical branches.  A numerical spectrum can put an exact
    zero mode at a tiny negative epsilon_sq, so only 1 + epsilon_sq < 0, where
    no real energy exists, is refused.

    Raises:
        DomainError: for epsilon_sq below -1.
    """
    arg = 1.0 + epsilon_sq
    if arg < 0:
        raise DomainError("epsilon_sq below the sub-rest-mass bound; no real energy")
    e = math.sqrt(arg)
    return (e, -e)
