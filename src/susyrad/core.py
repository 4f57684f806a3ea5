"""Shared domain types: units, radial grids, model specifications, spectra.

Everything downstream (superpotentials, closed-form spectra, the numerical
solver, the CLI) works in terms of the values defined here.  All types are
immutable; natural units (hbar = m = c = e = 4*pi*eps0 = 1) are the default
and every formula in the package is quoted in that convention.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
class Units:
    """Physical constants entering the radial equations.

    Defaults are natural units.  The permittivity has no field: it is
    absorbed into the Coulomb coupling kappa, which is passed as given.
    """

    hbar: float = 1.0
    mass: float = 1.0
    c: float = 1.0
    e_charge: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "c", "e_charge"):
            if not getattr(self, name) > 0:
                raise DomainError(f"units field {name!r} must be strictly positive")


NATURAL_UNITS = Units()


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


def omega_total(omega: float, B: float, units: Units = NATURAL_UNITS) -> float:
    """Total oscillator frequency: mechanical omega plus the Larmor term e*B/(2m)."""
    if omega < 0 or B < 0:
        raise DomainError("omega and B must be nonnegative")
    return omega + units.e_charge * B / (2.0 * units.mass)


@dataclass(frozen=True)
class Superpotential:
    """W(r) with its derivative and singular/regular split.

    `singular_coefficient` is the total coefficient of 1/r in W (angular plus
    any centrifugal-like part of v); `w_regular` is W minus that singular
    term, which stays finite at the origin and integrates cleanly.
    """

    w: Callable
    w_prime: Callable
    singular_coefficient: float
    w_regular: Callable


@dataclass(frozen=True)
class FamilyRecord:
    """Everything the package knows about one family, keyed by `Family` in FAMILIES.

    params: parameter names, each with its command-line default.
    rules: (test, message) pairs checked in order by ModelSpec; a test that
        returns False on the spec raises ConfigurationError(message).
    superpotential: spec -> Superpotential, the closed form of W.
    window: (spec, n_max) -> the default RadialGrid.
    closed_form: which levels are known in closed form: "all" (spectrum and
        states), "ground" (only the zero mode: the QES families) or "none".
    epsilon_sq: (spec, n) -> closed-form epsilon^2_n of an "all" family.
    tower_top: spec -> highest bound level of a finite tower; None when the
        tower does not end.
    envelope: (spec, n, r) -> (k, z, alpha) of an "all" family: the lower
        state of level n is z^k e^{-z/2} L_n^alpha(z) with z = z(r).
    log_zero_mode: (spec, r) -> log f_0 up to a constant, for "ground" families.
    has_ell: ell is a free label (it must then be >= 0); otherwise it is 0.
    """

    params: Mapping
    rules: tuple
    superpotential: Callable
    window: Callable
    closed_form: str = "all"
    epsilon_sq: Callable | None = None
    tower_top: Callable | None = None
    envelope: Callable | None = None
    log_zero_mode: Callable | None = None
    has_ell: bool = True


def _omega_t(m: "ModelSpec") -> float:
    return omega_total(m.params["omega"], m.params["B"], m.units)


def _oscillator_w(m: "ModelSpec") -> Superpotential:
    lam = m.units.mass * _omega_t(m) / m.units.hbar
    c = -(m.ell + 1.0)
    return Superpotential(lambda r: lam * r + c / r, lambda r: lam - c / r**2, c,
                          lambda r: lam * r)


def _oscillator_window(m: "ModelSpec", n_max: int) -> RadialGrid:
    s = math.sqrt(m.units.mass * _omega_t(m) / m.units.hbar)
    return RadialGrid(1e-6 / s, (8.0 + 2.0 * math.sqrt(n_max + 1.0)) / s, 2801)


def _coulomb_w(m: "ModelSpec") -> Superpotential:
    const = m.params["kappa"] / (m.ell + 1.0)
    c = -(m.ell + 1.0)
    return Superpotential(lambda r: const + c / r, lambda r: -c / r**2, c,
                          lambda r: const + 0.0 * r)


def _coulomb_window(m: "ModelSpec", n_max: int) -> RadialGrid:
    kappa, n_r = m.params["kappa"], n_max + m.ell + 1
    return RadialGrid(1e-6 / kappa, (2.0 * n_r**2 + 21.0 * n_r) / kappa, 16001)


def _morse_w(m: "ModelSpec") -> Superpotential:
    a, alpha, b = m.params["a"], m.params["alpha"], m.params["b"]
    w = lambda r: b - a * np.exp(-alpha * r)
    return Superpotential(w, lambda r: a * alpha * np.exp(-alpha * r), 0.0, w)


def _morse_top(m: "ModelSpec") -> float:
    """Largest n with b - alpha n > 0 (the Morse tower is finite); inf when
    b / alpha is beyond the float range."""
    ratio = m.params["b"] / m.params["alpha"]
    return max(0, math.ceil(ratio - 1e-12) - 1) if math.isfinite(ratio) else math.inf


def _morse_epsilon_sq(m: "ModelSpec", n: int) -> float:
    alpha, b = m.params["alpha"], m.params["b"]
    if not b - alpha * n > 0:
        raise NoBoundStateError(
            f"morse level n={n} is not bound (requires b - alpha*n > 0; "
            f"highest bound level is n={_morse_top(m)})"
        )
    return alpha * n * (2.0 * b - alpha * n)


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
    w = lambda r: a + w_t * r + b * r**2
    return Superpotential(w, lambda r: w_t + 2.0 * b * r, 0.0, w)


def _sextic_w(m: "ModelSpec") -> Superpotential:
    w_t, b = m.params["omega_T"], m.params["b"]
    regular = lambda r: w_t * r + b * r**3
    regular_prime = lambda r: w_t + 3.0 * b * r**2
    if m.ell == 0:  # no 1/r term: W is regular at the origin
        return Superpotential(regular, regular_prime, 0.0, regular)
    c = -float(m.ell)
    return Superpotential(lambda r: c / r + regular(r), lambda r: -c / r**2 + regular_prime(r),
                          c, regular)


def _deformed_coulomb_w(m: "ModelSpec") -> Superpotential:
    const = m.params["e2"] / (2.0 * (m.ell + 1.0))
    w_t = m.params["omega_T"]
    c = -(m.ell + 1.0)
    return Superpotential(lambda r: const + c / r + w_t * r, lambda r: -c / r**2 + w_t, c,
                          lambda r: const + w_t * r)


def _log_r(m: "ModelSpec", r: np.ndarray) -> np.ndarray:
    if r[0] <= 0.0:
        raise DomainError(f"{m.family.value} zero mode requires r_min > 0")
    return np.log(r)


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
    rs = m.params["grid"].points()

    def interpolant(samples):
        ys = np.asarray(samples, dtype=float)

        def f(r):
            out = np.interp(np.asarray(r, dtype=float), rs, ys)
            return float(out) if np.isscalar(r) else out
        return f

    w = interpolant(m.params["w_samples"])
    return Superpotential(w, interpolant(m.params["w_prime_samples"]), 0.0, w)


FAMILIES = {
    Family.OSCILLATOR: FamilyRecord(
        params={"omega": 1.0, "B": 0.0},
        rules=(
            (lambda m: m.params["omega"] >= 0 and m.params["B"] >= 0,
             "oscillator requires omega >= 0 and B >= 0"),
            (lambda m: _omega_t(m) > 0, "oscillator requires omega_T = omega + eB/2m > 0"),
        ),
        superpotential=_oscillator_w,
        window=_oscillator_window,
        epsilon_sq=lambda m, n: 4.0 * n * m.units.mass * _omega_t(m) / m.units.hbar,
        envelope=lambda m, n, r: ((m.ell + 1.0) / 2.0,
                                  m.units.mass * _omega_t(m) / m.units.hbar * r**2, m.ell + 0.5),
    ),
    Family.COULOMB: FamilyRecord(
        params={"kappa": 1.0},
        rules=((lambda m: m.params["kappa"] > 0, "coulomb requires kappa > 0"),),
        superpotential=_coulomb_w,
        window=_coulomb_window,
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
        epsilon_sq=_morse_epsilon_sq,
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
        closed_form="ground",
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
        closed_form="ground",
        log_zero_mode=lambda m, r: ((m.ell * _log_r(m, r) if m.ell else 0.0)
                                    - m.params["omega_T"] * r**2 / 2.0 - m.params["b"] * r**4 / 4.0),
    ),
    Family.DEFORMED_COULOMB_QES: FamilyRecord(
        params={"e2": 1.0, "omega_T": 1.0},
        rules=((lambda m: m.params["e2"] > 0, "deformed-coulomb requires e2 > 0"),
               (lambda m: m.params["omega_T"] >= 0, "deformed-coulomb requires omega_T >= 0")),
        superpotential=_deformed_coulomb_w,
        window=lambda m, n_max: RadialGrid(
            1e-3, 20.0 / max(m.params["omega_T"], m.params["e2"] / (2.0 * (m.ell + 1.0))), 8001),
        closed_form="ground",
        log_zero_mode=lambda m, r: ((m.ell + 1.0) * _log_r(m, r)
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
        closed_form="none",
        has_ell=False,
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """One of the potential families with its parameters, angular label and units.

    Parameter records are plain mappings; use the per-family constructors
    below rather than building the dict by hand.
    """

    family: Family
    params: Mapping
    ell: int = 0
    units: Units = field(default_factory=Units)

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


def oscillator_model(omega: float, B: float = 0.0, ell: int = 0,
                     units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.OSCILLATOR, {"omega": float(omega), "B": float(B)}, ell, units)


def coulomb_model(kappa: float, ell: int = 0, units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.COULOMB, {"kappa": float(kappa)}, ell, units)


def morse_model(a: float, alpha: float, b: float, units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.MORSE, {"a": float(a), "alpha": float(alpha), "b": float(b)},
                     0, units)


def anharmonic_model(a: float, omega_T: float, b: float,
                     units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.ANHARMONIC_QES,
                     {"a": float(a), "omega_T": float(omega_T), "b": float(b)}, 0, units)


def sextic_model(omega_T: float, b: float, ell: int = 0,
                 units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.SEXTIC_QES, {"omega_T": float(omega_T), "b": float(b)}, ell, units)


def deformed_coulomb_model(e2: float, omega_T: float, ell: int = 0,
                           units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(Family.DEFORMED_COULOMB_QES,
                     {"e2": float(e2), "omega_T": float(omega_T)}, ell, units)


def custom_model(grid: RadialGrid, w_samples, w_prime_samples,
                 units: Units = NATURAL_UNITS) -> ModelSpec:
    return ModelSpec(
        Family.CUSTOM,
        {
            "grid": grid,
            "w_samples": _float_samples("w_samples", w_samples),
            "w_prime_samples": _float_samples("w_prime_samples", w_prime_samples),
        },
        0,
        units,
    )


def _float_samples(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"custom {name} must be numbers") from None


# --------------------------------------------------------------------------
# Energies


def epsilon_to_energy(epsilon_sq: float, units: Units = NATURAL_UNITS) -> tuple[float, float]:
    """Map the shifted squared eigenvalue to the (+E, -E) energy pair.

    E = sqrt(m^2 c^4 + hbar^2 c^2 * epsilon_sq); both signs are physical
    branches of the relativistic dispersion.

    Raises:
        DomainError: for negative epsilon_sq (non-physical level).
    """
    if epsilon_sq < 0:
        raise DomainError("epsilon_sq must be nonnegative")
    return _energy_pair(epsilon_sq, units)


def _energy_pair(epsilon_sq: float, units: Units) -> tuple[float, float]:
    """Energy pair without the sign gate.

    Numerical spectra legitimately produce tiny negative epsilon_sq for an
    exact zero mode; this helper only requires the total squared energy to
    stay nonnegative so the E^2 - m^2 c^4 = hbar^2 c^2 eps^2 identity holds
    exactly on every emitted row.
    """
    m, c, hbar = units.mass, units.c, units.hbar
    arg = (m * c * c) ** 2 + (hbar * c) ** 2 * epsilon_sq
    if arg < 0:
        raise DomainError("epsilon_sq below the sub-rest-mass bound; no real energy")
    e = math.sqrt(arg)
    return (e, -e)


# --------------------------------------------------------------------------
# Spectra


class Source(enum.Enum):
    ANALYTIC = "analytic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    epsilon_sq: float
    energy_plus: float
    energy_minus: float
    source: Source


@dataclass(frozen=True)
class SpectrumResult:
    """Ordered bound-state levels with provenance."""

    levels: tuple

    def __post_init__(self):
        prev = None
        for lvl in self.levels:
            if prev is not None and lvl.epsilon_sq < prev - 1e-9 * max(1.0, abs(prev)):
                raise ValueError("epsilon_sq must be nondecreasing in n")
            prev = lvl.epsilon_sq

    def epsilon_sq_values(self) -> np.ndarray:
        return np.array([lvl.epsilon_sq for lvl in self.levels])


def spectrum_result(epsilon_sqs, units: Units, source: Source) -> SpectrumResult:
    """Assemble a SpectrumResult from epsilon^2 values for n = 0, 1, ..."""
    levels = []
    for n, eps2 in enumerate(epsilon_sqs):
        ep, em = _energy_pair(float(eps2), units)
        levels.append(SpectrumLevel(n, float(eps2), ep, em, source))
    return SpectrumResult(tuple(levels))
