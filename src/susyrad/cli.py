"""Command-line interface.

Four subcommands::

    susyrad spectrum      analytic and/or finite-difference levels
    susyrad wavefunction  sampled two-component bound states
    susyrad partner       sampled partner potentials V- and V+
    susyrad verify        run the consistency checks, emit a JSON report

Exit codes: 0 success (verify: all checks passed), 1 verify ran but at least
one check failed, 2 usage/configuration error, 3 runtime failure inside the
numerics.

Output is deterministic byte-for-byte for a fixed invocation: CSV uses 17
significant digits (round-trip exact for doubles) with CRLF line endings,
JSON uses the shortest round-trip float representation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic as _analytic
from . import qes as _qes
from .core import (
    FAMILIES,
    ConfigurationError,
    DomainError,
    Family,
    ModelSpec,
    NumericError,
    RadialGrid,
    Source,
    Superpotential,
    custom_model,
    spectrum_result,
)
from .numsolve import (
    TridiagonalOperator,
    discretize,
    eigenvector,
    isospectral_check,
    lowest_eigenvalues,
    quadrature,
)
from .superpot import (
    PartnerPotentials,
    apply_lowering,
    ground_state_from_w,
    partner_potentials,
    superpotential_from_model,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

#: tolerances for the verify checks (documented in the README)
CHECK_TOLERANCES = {
    "isospectral": 2e-3,
    "intertwine": 1e-2,
    "orthonormal": 1e-6,
    "orthonormal_numeric": 1e-8,
    "ground_residual_h2": 50.0,   # tolerance is 50 * h^2
    "analytic_vs_numeric": 1e-3,
    "analytic_vs_numeric_qes": 5e-4,
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved invocation: model, window, level count, method, output.

    The lower problem (W, the partner potentials V-+ and the V- operator) is
    built on first use and shared by the command and every verify check.
    """

    model: ModelSpec
    grid: RadialGrid
    n_max: int
    n: int
    method: str          # analytic | numeric | both
    output_format: str   # csv | json
    checks: tuple

    @cached_property
    def superpotential(self) -> Superpotential:
        return superpotential_from_model(self.model)

    @cached_property
    def partners(self) -> PartnerPotentials:
        return partner_potentials(self.superpotential, self.grid)

    @cached_property
    def operator(self) -> TridiagonalOperator:
        return discretize(self.partners.v_minus, self.grid)

    @cached_property
    def zero_mode(self) -> np.ndarray:
        """Closed-form zero mode: the QES formula, else exp(-int W)."""
        if self.model.is_qes:
            return _qes.qes_ground_state(self.model, self.grid).f0
        return ground_state_from_w(self.superpotential, self.grid)


# --------------------------------------------------------------------------
# Default windows


def default_grid(model: ModelSpec, n_max: int) -> RadialGrid:
    """Documented default window per family, scaled to the model parameters."""
    return model.record.window(model, n_max)


# --------------------------------------------------------------------------
# Verify checks


def default_checks(model: ModelSpec, grid: RadialGrid) -> tuple:
    """Checks that are meaningful for this model on this window.

    The pairing-sensitive checks (isospectral shift, level-0 comparison)
    assume the lower zero mode is compatible with the Dirichlet wall at
    r_min; that is diagnosed directly from exp(-int W): they are included
    only when the zero mode at the wall is below 1e-3 of its peak.
    """
    selected = {"intertwine", "orthonormal", "ground_residual"}
    try:
        f0 = ground_state_from_w(superpotential_from_model(model), grid)
        wall_ok = abs(f0[0]) <= 1e-3 * float(np.max(np.abs(f0)))
    except (DomainError, NumericError):
        wall_ok = False
    if wall_ok:
        selected.add("isospectral")
        if model.record.closed_form != "none":
            selected.add("analytic_vs_numeric")
    return tuple(c for c in CANONICAL_CHECKS if c in selected)


def _check_isospectral(cfg):
    rep = isospectral_check(cfg.partners.v_minus, cfg.partners.v_plus, cfg.grid, k=4,
                            tol=CHECK_TOLERANCES["isospectral"])
    detail = "pair deviations " + ", ".join(f"{d:.3e}" for d in rep.deviations)
    return rep.max_abs_deviation, rep.tolerance, detail


def _check_intertwine(cfg):
    op = cfg.operator
    eigs = lowest_eigenvalues(op, 4)
    worst = 0.0
    for i in (1, 2, 3):
        if eigs[i] <= 0:
            continue
        vec = eigenvector(op, eigs[i])
        img = apply_lowering(cfg.superpotential, vec, cfg.grid)
        nrm = math.sqrt(quadrature(img * img, cfg.grid))
        worst = max(worst, abs(nrm - math.sqrt(eigs[i])) / math.sqrt(eigs[i]))
    return worst, CHECK_TOLERANCES["intertwine"], "relative norm defect of lowered levels 1-3"


def _check_orthonormal(cfg):
    model, grid = cfg.model, cfg.grid
    if model.record.closed_form == "all":
        fs = [_analytic.analytic_wavefunctions(model, n, grid).f_minus
              for n in range(min(5, model.max_level + 1))]
        vecs = [f / math.sqrt(quadrature(f * f, grid)) for f in fs]
        gram = np.array([[quadrature(vi * vj, grid) for vj in vecs] for vi in vecs])
        tol = CHECK_TOLERANCES["orthonormal"]
        detail = f"lower-component Gram of levels 0-{len(vecs) - 1} vs identity"
    else:
        # numeric eigenvectors, compared in the discrete l2(h) inner product
        h = grid.h
        vs = [eigenvector(cfg.operator, lam) for lam in lowest_eigenvalues(cfg.operator, 3)]
        vecs = [v / math.sqrt(h * float(v @ v)) for v in vs]
        gram = h * np.array([[vi @ vj for vj in vecs] for vi in vecs])
        tol = CHECK_TOLERANCES["orthonormal_numeric"]
        detail = "l2(h) Gram of numeric levels 0-2"
    return float(np.max(np.abs(gram - np.eye(len(vecs))))), tol, detail


def _check_ground_residual(cfg):
    residual = _qes.zero_mode_residual(cfg.zero_mode, cfg.partners.v_minus, cfg.grid)
    tol = CHECK_TOLERANCES["ground_residual_h2"] * cfg.grid.h**2
    return residual, tol, "sup residual of the zero mode at epsilon^2 = 0"


def _check_analytic_vs_numeric(cfg):
    op = cfg.operator
    if cfg.model.is_qes:
        level0 = lowest_eigenvalues(op, 1)[0]
        return abs(level0), CHECK_TOLERANCES["analytic_vs_numeric_qes"], \
            "numeric level 0 against the closed-form zero mode"
    k = cfg.n_max + 1
    nums = lowest_eigenvalues(op, k)
    anas = [_analytic.analytic_epsilon_sq(cfg.model, n) for n in range(k)]
    metric = max(abs(nu - an) / max(1.0, abs(an)) for nu, an in zip(nums, anas))
    return metric, CHECK_TOLERANCES["analytic_vs_numeric"], \
        f"levels 0-{cfg.n_max}, relative to max(1, epsilon^2)"


_CHECK_RUNNERS = {
    "isospectral": _check_isospectral,
    "intertwine": _check_intertwine,
    "orthonormal": _check_orthonormal,
    "ground_residual": _check_ground_residual,
    "analytic_vs_numeric": _check_analytic_vs_numeric,
}

#: every check, in report order
CANONICAL_CHECKS = tuple(_CHECK_RUNNERS)


def run_verification(cfg: RunConfig) -> dict:
    """Execute the configured checks; returns the report payload."""
    entries = []
    infrastructure_failed = False
    for name in cfg.checks:
        try:
            metric, tol, detail = _CHECK_RUNNERS[name](cfg)
            status = "pass" if metric < tol else "fail"
            metric, tol = float(metric), float(tol)
        except Exception as exc:  # infrastructure failure inside a check
            infrastructure_failed = True
            status, metric, tol, detail = "fail", None, None, f"error: {exc}"
        entries.append({"check": name, "status": status, "metric": metric,
                        "tolerance": tol, "detail": detail})
    all_passed = all(e["status"] == "pass" for e in entries)
    return {
        "entries": entries,
        "all_passed": all_passed,
        "_infrastructure_failed": infrastructure_failed,
    }


# --------------------------------------------------------------------------
# Commands


def cmd_spectrum(cfg: RunConfig):
    model, n_max, name = cfg.model, cfg.n_max, cfg.model.family.value
    ana = nums = None
    if cfg.method in ("analytic", "both"):
        if model.record.closed_form == "none":
            raise UsageError(f"{name} models have no analytic spectrum; use --method numeric")
        if model.is_qes and n_max >= 1:
            raise UsageError(
                f"{name} has only its ground state in closed form; "
                "use --method numeric (or --n-max 0)"
            )
        if n_max > model.max_level:
            raise UsageError(f"{name} tower ends at n={model.max_level}; lower --n-max")
        ana = _analytic.analytic_spectrum(model, n_max).levels
    if cfg.method in ("numeric", "both"):
        nums = spectrum_result(lowest_eigenvalues(cfg.operator, n_max + 1), model.units,
                               Source.NUMERIC).levels

    rows = []
    for n in range(n_max + 1):
        if ana is not None:
            rows.append(dict(vars(ana[n]), source="analytic", delta=None))
        if nums is not None:
            delta = (nums[n].epsilon_sq - ana[n].epsilon_sq) if ana is not None else None
            rows.append(dict(vars(nums[n]), source="numeric", delta=delta))
    return rows


def cmd_wavefunction(cfg: RunConfig):
    model, grid, n = cfg.model, cfg.grid, cfg.n
    if cfg.method == "both":
        raise UsageError("wavefunction needs --method analytic or numeric, not both")
    if cfg.method == "analytic" and model.record.closed_form == "all":
        wf = _analytic.analytic_wavefunctions(model, n, grid)
        eps_sq, f_m, f_p = wf.epsilon_sq, wf.f_minus, wf.f_plus
    elif cfg.method == "analytic":  # only the zero mode is known in closed form
        name = model.family.value
        if n != 0:
            raise UsageError(f"{name} has only n=0 in closed form; use --method numeric"
                             if model.is_qes else
                             f"{name} models only expose the n=0 zero mode analytically")
        eps_sq, f_m, f_p = 0.0, cfg.zero_mode, np.zeros_like(cfg.zero_mode)
    else:
        op = cfg.operator
        eps_sq = lowest_eigenvalues(op, n + 1)[n]
        f_m = eigenvector(op, eps_sq)
        if n == 0:
            f_p = np.zeros_like(f_m)
        else:
            if eps_sq <= 0:
                raise DomainError("cannot form the upper component at epsilon^2 <= 0")
            f_p = apply_lowering(cfg.superpotential, f_m, grid) / math.sqrt(eps_sq)
        scale = 1.0 / math.sqrt(quadrature(f_m * f_m + f_p * f_p, grid))
        f_m, f_p = f_m * scale, f_p * scale
    r = grid.points()
    return {"n": n, "epsilon_sq": float(eps_sq), "r": r, "f_minus": f_m, "f_plus": f_p}


def cmd_partner(cfg: RunConfig):
    return {"r": cfg.grid.points(), "v_minus": cfg.partners.v_minus,
            "v_plus": cfg.partners.v_plus}


# --------------------------------------------------------------------------
# Serialization


def _g17(x) -> str:
    return format(float(x), ".17g")


def _csv_text(header, rows_of_values) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows_of_values:
        writer.writerow(row)
    return buf.getvalue()


def render_spectrum(rows, fmt: str, with_delta: bool) -> str:
    if fmt == "json":
        return json.dumps({"levels": rows}, indent=2) + "\n"
    header = ["n", "epsilon_sq", "energy_plus", "energy_minus", "source"]
    if with_delta:
        header.append("delta")
    out = []
    for row in rows:
        vals = [str(row["n"]), _g17(row["epsilon_sq"]), _g17(row["energy_plus"]),
                _g17(row["energy_minus"]), row["source"]]
        if with_delta:
            vals.append("" if row["delta"] is None else _g17(row["delta"]))
        out.append(vals)
    return _csv_text(header, out)


def render_samples(payload, fmt: str, columns) -> str:
    if fmt == "json":
        obj = {k: (list(map(float, v)) if isinstance(v, np.ndarray) else v)
               for k, v in payload.items()}
        return json.dumps(obj, indent=2) + "\n"
    arrays = [payload[c] for c in columns]
    rows = ([_g17(a[i]) for a in arrays] for i in range(len(arrays[0])))
    return _csv_text(list(columns), rows)


def render_verify(report: dict) -> str:
    clean = {"entries": report["entries"], "all_passed": report["all_passed"]}
    return json.dumps(clean, indent=2) + "\n"


# --------------------------------------------------------------------------
# Argument parsing and config resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyrad",
        description="Radial bound states via superpotential factorization: "
                    "closed-form spectra with an independent finite-difference check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("spectrum", "emit bound-state levels"),
        ("wavefunction", "emit sampled two-component bound states"),
        ("partner", "emit the sampled partner potentials"),
        ("verify", "run consistency checks and emit a JSON report"),
    ):
        s = sub.add_parser(name, help=text)
        s.add_argument("--model", choices=[f.value for f in Family], default=None)
        s.add_argument("--format", dest="output_format", choices=["csv", "json"], default=None)
        s.add_argument("--omega", type=float, default=None, help="oscillator frequency")
        s.add_argument("--B", type=float, default=None, help="magnetic field strength")
        s.add_argument("--ell", type=int, default=None, help="angular momentum label")
        s.add_argument("--kappa", type=float, default=None, help="coulomb coupling")
        s.add_argument("--a", type=float, default=None, help="morse depth / anharmonic linear term")
        s.add_argument("--b", type=float, default=None, help="morse shift / QES coupling")
        s.add_argument("--alpha", type=float, default=None, help="morse range")
        s.add_argument("--e2", type=float, default=None, help="deformed-coulomb coupling")
        s.add_argument("--omega-t", dest="omega_t", type=float, default=None,
                       help="total frequency for the QES families")
        s.add_argument("--grid", type=str, default=None, metavar="RMIN,RMAX,NPTS")
        s.add_argument("--n-max", dest="n_max", type=int, default=None)
        s.add_argument("--method", choices=["analytic", "numeric", "both"], default=None)
        s.add_argument("--checks", type=str, default=None,
                       help="comma-separated subset of: " + ",".join(CANONICAL_CHECKS))
        s.add_argument("--config", type=str, default=None, help="JSON config file")
        if name == "wavefunction":
            s.add_argument("--n", type=int, default=None, help="level (default 0)")
    return parser


#: model parameters whose flag and config key are spelled differently
_PARAM_KEYS = {"omega_T": "omega_t"}

_CONFIG_KEYS = {"model", "format", "ell", "grid", "n_max", "n", "method", "checks",
                "w_samples", "w_prime_samples",
                *(_PARAM_KEYS.get(k, k) for rec in FAMILIES.values() for k in rec.params)}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _parse_grid(value) -> RadialGrid:
    if isinstance(value, str):
        parts = value.split(",")
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise UsageError("grid must be 'rmin,rmax,npts'")
    if len(parts) != 3:
        raise UsageError("grid must be 'rmin,rmax,npts'")
    try:
        r_min, r_max, n_points = float(parts[0]), float(parts[1]), int(float(parts[2]))
    except (TypeError, ValueError):
        raise UsageError("grid must be 'rmin,rmax,npts' with numeric entries")
    try:
        return RadialGrid(r_min, r_max, n_points)
    except ConfigurationError as exc:
        raise UsageError(str(exc))


def _setting(args, file_cfg: dict, key: str, default=None, kind=None):
    """The flag, else the config-file value as `kind` (float, or int when
    integral; anything else is a usage error), else the default."""
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    value = file_cfg.get(key)
    if value is None or kind is None:
        return default if value is None else value
    try:
        x = float(value)
        if kind is int and x != int(x):
            raise ValueError
        return kind(x)
    except (TypeError, ValueError, OverflowError):
        kind_name = "an integer" if kind is int else "a number"
        raise UsageError(f"config value {key} must be {kind_name}, got {value!r}") from None


def resolve_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    family_name = _setting(args, file_cfg, "model", "oscillator")
    try:
        family = Family(family_name)
    except ValueError:
        raise UsageError(f"unknown model family {family_name!r}")

    record = FAMILIES[family]
    ell = _setting(args, file_cfg, "ell", 0, int)
    params = {key: _setting(args, file_cfg, _PARAM_KEYS.get(key, key), default, float)
              for key, default in record.params.items()}
    grid_setting = _setting(args, file_cfg, "grid")
    n_max = _setting(args, file_cfg, "n_max", kind=int)

    try:
        if family is Family.CUSTOM:
            if "w_samples" not in file_cfg or "w_prime_samples" not in file_cfg:
                raise UsageError(
                    "custom model needs w_samples and w_prime_samples in the config file"
                )
            if grid_setting is None:
                raise UsageError("custom model needs an explicit grid")
            model = custom_model(_parse_grid(grid_setting), file_cfg["w_samples"],
                                 file_cfg["w_prime_samples"])
        else:
            model = ModelSpec(family, params, ell if record.has_ell else 0)
        n_max = int(min(4, model.max_level) if n_max is None else n_max)
        if n_max < 0:
            raise UsageError("--n-max must be nonnegative")
        if grid_setting is not None:
            grid = _parse_grid(grid_setting)
        else:
            grid = default_grid(model, n_max)
    except (ConfigurationError, DomainError, NumericError) as exc:
        raise UsageError(f"invalid model configuration: {exc}")

    # closed forms cover every level only for the fully solvable families
    default_method = "both" if record.closed_form == "all" else "numeric"
    if args.command == "wavefunction":
        default_method = "numeric" if record.closed_form == "none" else "analytic"
    method = _setting(args, file_cfg, "method", default_method)
    if method not in ("analytic", "numeric", "both"):
        raise UsageError(f"unknown method {method!r}")

    fmt = getattr(args, "output_format", None)
    if fmt is None:
        fmt = file_cfg.get("format") or "csv"
    if args.command == "verify":
        fmt = "json"  # the verification report is always JSON
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")

    checks_setting = _setting(args, file_cfg, "checks")
    if checks_setting is None:
        checks = default_checks(model, grid) if args.command == "verify" else ()
    else:
        names = tuple(s.strip() for s in str(checks_setting).split(",") if s.strip())
        bad = [c for c in names if c not in CANONICAL_CHECKS]
        if bad:
            raise UsageError(f"unknown checks: {', '.join(bad)}")
        if record.closed_form == "none" and "analytic_vs_numeric" in names:
            raise UsageError(f"{family.value} models cannot run analytic_vs_numeric")
        checks = tuple(c for c in CANONICAL_CHECKS if c in names)

    # the numeric spectrum and the level comparison solve n_max + 1 levels, a
    # numeric wavefunction n + 1
    n = _setting(args, file_cfg, "n", 0, int)
    for flag, top, solved in (
            ("--n-max", n_max, "analytic_vs_numeric" in checks
             or (args.command == "spectrum" and method != "analytic")),
            ("--n", n, args.command == "wavefunction" and method == "numeric")):
        if solved and top + 1 > grid.n_points - 2:
            raise UsageError(f"{flag} {top} needs {top + 1} levels, but the grid has "
                             f"{grid.n_points - 2} interior points")
    if n < 0:
        raise UsageError("--n must be nonnegative")

    return RunConfig(model=model, grid=grid, n_max=n_max, n=n, method=method,
                     output_format=fmt, checks=checks)


# --------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "spectrum":
            rows = cmd_spectrum(cfg)
            sys.stdout.write(render_spectrum(rows, cfg.output_format,
                                             with_delta=cfg.method == "both"))
            return EXIT_OK
        if args.command == "wavefunction":
            payload = cmd_wavefunction(cfg)
            sys.stdout.write(render_samples(payload, cfg.output_format,
                                            columns=("r", "f_minus", "f_plus")))
            return EXIT_OK
        if args.command == "partner":
            payload = cmd_partner(cfg)
            sys.stdout.write(render_samples(payload, cfg.output_format,
                                            columns=("r", "v_minus", "v_plus")))
            return EXIT_OK
        # verify
        report = run_verification(cfg)
        sys.stdout.write(render_verify(report))
        if report["_infrastructure_failed"]:
            return EXIT_RUNTIME
        return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (DomainError, ConfigurationError, NumericError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
