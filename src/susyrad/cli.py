"""Command-line interface: the subcommands and the settings each reads are
the table COMMANDS.

Exit codes: 0 success (verify: all checks passed), 1 verify ran but at least
one check failed, 2 usage/configuration error, 3 runtime failure inside the
numerics. Every exit-2 refusal is one error line, made by the parser or by
resolve_config, which also judges the verify premises on the run's one
closed-form zero mode, before any output.

Output is deterministic byte-for-byte for a fixed invocation: CSV uses 17
significant digits (round-trip exact for doubles) with CRLF line endings,
JSON uses the shortest round-trip float representation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
    Superpotential,
    custom_model,
    epsilon_to_energy,
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
    normalized_zero_mode,
    partner_potentials,
    superpotential_from_model,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully-resolved invocation: model, window, level count, method, output.

    The lower problem (W, V-+, the V- operator, its lowest `levels`
    eigenvalues, the eigenvectors asked for, the closed-form zero mode) is
    built on first use and shared by the command, the verify premises and
    every check: one solve and one zero mode per invocation.  resolve_config
    sets `checks` and `levels` once it has allowed every read.
    """

    model: ModelSpec
    grid: RadialGrid
    n_max: int = 0
    n: int = 0
    method: str = "numeric"     # analytic | numeric | both
    output_format: str = "csv"  # csv | json
    checks: tuple = ()
    levels: int = 0             # V- levels the command and the checks read

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
    def spectrum(self) -> list:
        """The lowest V- levels: one solve that every reader slices."""
        return lowest_eigenvalues(self.operator, self.levels)

    def eigenvalues(self, k: int) -> list:
        """The k lowest V- levels."""
        return self.spectrum[:k]

    @cached_property
    def _vectors(self) -> dict:
        return {}

    def eigenvector(self, i: int) -> np.ndarray:
        """The V- eigenvector of level i, built once and read-only."""
        if i not in self._vectors:
            vec = eigenvector(self.operator, self.eigenvalues(i + 1)[i])
            vec.flags.writeable = False
            self._vectors[i] = vec
        return self._vectors[i]

    @cached_property
    def zero_mode(self) -> np.ndarray:
        """Normalized zero mode: the record's closed form, else exp(-int W)."""
        if self.model.record.closed_form == "none":
            return ground_state_from_w(self.superpotential, self.grid)
        f0 = _analytic.closed_form_state(self.model, 0, self.grid)
        return normalized_zero_mode(f0, self.grid)


# --------------------------------------------------------------------------
# Default windows


#: the highest level a verify check reads at any n_max: the closed-form Gram
#: spans levels 0-4, the others read at most V- levels 0-3
VERIFY_TOP_LEVEL = 4


def default_grid(model: ModelSpec, n_max: int) -> RadialGrid:
    """Documented default window per family, scaled to the model parameters."""
    return model.record.window(model, n_max)


# --------------------------------------------------------------------------
# Verify checks


def _check_isospectral(cfg):
    deviations = isospectral_check(cfg.eigenvalues(4), cfg.partners.v_plus, cfg.grid)
    detail = "pair deviations " + ", ".join(f"{d:.3e}" for d in deviations)
    return max(abs(d) for d in deviations), 2e-3, detail


def _check_intertwine(cfg):
    eigs = cfg.eigenvalues(4)
    levels = [i for i in (1, 2, 3) if eigs[i] > 0]  # epsilon_i = sqrt(eigs[i]) is real
    if not levels:
        raise NumericError("no V- level 1-3 is positive: no lowered norm to compare")
    worst = 0.0
    for i in levels:
        vec = cfg.eigenvector(i)
        img = apply_lowering(cfg.superpotential, vec, cfg.grid)
        nrm = math.sqrt(quadrature(img * img, cfg.grid))
        worst = max(worst, abs(nrm - math.sqrt(eigs[i])) / math.sqrt(eigs[i]))
    compared = f"levels {levels[0]}-{levels[-1]}" if len(levels) > 1 else f"level {levels[0]}"
    return worst, 1e-2, f"relative norm defect of lowered {compared}"


def _check_orthonormal(cfg):
    model, grid = cfg.model, cfg.grid
    if model.record.closed_form == "all":
        fs = [_analytic.analytic_wavefunctions(model, n, grid)[0]
              for n in range(min(VERIFY_TOP_LEVEL + 1, model.max_level + 1))]
        vecs = [f / math.sqrt(quadrature(f * f, grid)) for f in fs]
        gram = np.array([[quadrature(vi * vj, grid) for vj in vecs] for vi in vecs])
        tol, detail = 1e-6, f"lower-component Gram of levels 0-{len(vecs) - 1} vs identity"
    else:
        # numeric eigenvectors, compared in the discrete l2(h) inner product
        h = grid.h
        vs = [cfg.eigenvector(i) for i in range(3)]
        vecs = [v / math.sqrt(h * float((v * v).sum())) for v in vs]
        gram = h * np.array([[(vi * vj).sum() for vj in vecs] for vi in vecs])
        tol, detail = 1e-8, "l2(h) Gram of numeric levels 0-2"
    return float(np.max(np.abs(gram - np.eye(len(vecs))))), tol, detail


def _check_ground_residual(cfg):
    residual = _qes.zero_mode_residual(cfg.zero_mode, cfg.partners.v_minus, cfg.grid)
    return residual, 50.0 * cfg.grid.h**2, "sup residual of the zero mode at epsilon^2 = 0"


def _check_analytic_vs_numeric(cfg):
    if cfg.model.is_qes:
        level0 = cfg.eigenvalues(1)[0]
        return abs(level0), 5e-4, "numeric level 0 against the closed-form zero mode"
    nums = cfg.eigenvalues(cfg.n_max + 1)
    anas = _analytic.analytic_spectrum(cfg.model, cfg.n_max)
    metric = max(abs(nu - an) / max(1.0, abs(an)) for nu, an in zip(nums, anas))
    return metric, 1e-3, f"levels 0-{cfg.n_max}, relative to max(1, epsilon^2)"


@dataclass(frozen=True)
class Check:
    """One verify check: `run(cfg) -> (metric, tolerance, detail)` passes when
    metric < tolerance and reads `levels(model, n_max)` V- levels. Its premises:
    the closed-form zero mode exists on the window, and it clears the wall at
    r_min (else the check is left out by default); the family has closed-form
    levels (else it is left out or refused)."""

    run: Callable
    levels: Callable
    needs_zero_mode: bool = False
    needs_clear_wall: bool = False
    needs_closed_form: bool = False


#: every check, in report order
CHECKS = {
    "isospectral": Check(_check_isospectral, lambda m, n_max: 4, needs_clear_wall=True),
    "intertwine": Check(_check_intertwine, lambda m, n_max: 4),
    # the closed-form states of a solvable family exist where its zero mode does
    "orthonormal": Check(_check_orthonormal,
                         lambda m, n_max: 0 if m.record.closed_form == "all" else 3,
                         needs_zero_mode=True),
    "ground_residual": Check(_check_ground_residual, lambda m, n_max: 0, needs_zero_mode=True),
    "analytic_vs_numeric": Check(_check_analytic_vs_numeric,
                                 lambda m, n_max: 1 if m.is_qes else n_max + 1,
                                 needs_clear_wall=True, needs_closed_form=True),
}

#: the runners as a plain name -> function dict, the one table
#: run_verification dispatches through, so a runner can be swapped by name
_CHECK_RUNNERS = {name: check.run for name, check in CHECKS.items()}


def default_checks(model: ModelSpec, grid: RadialGrid, cfg: RunConfig | None = None) -> tuple:
    """Checks whose premises hold for this model on this window, judged on
    cfg.zero_mode, the array the checks read (a fresh RunConfig's if no cfg).
    The zero mode exists when it can be built and decays by r_max; the
    Dirichlet wall at r_min is clear when the zero mode there is below 1e-3 of
    its peak (on a 1/r pole of W at r_min = 0 it is 0, its limit)."""
    try:
        f0 = (cfg or RunConfig(model, grid)).zero_mode
        has_zero_mode, wall_clear = True, abs(f0[0]) <= 1e-3 * float(np.max(np.abs(f0)))
    except (DomainError, NumericError):
        has_zero_mode = wall_clear = False
    has_closed_form = model.record.closed_form != "none"
    return tuple(name for name, check in CHECKS.items()
                 if (has_zero_mode or not check.needs_zero_mode)
                 and (wall_clear or not check.needs_clear_wall)
                 and (has_closed_form or not check.needs_closed_form))


def run_verification(cfg: RunConfig) -> dict:
    """Execute the configured checks; returns the report payload."""
    entries = []
    for name in cfg.checks:
        try:
            metric, tol, detail = _CHECK_RUNNERS[name](cfg)
            if not math.isfinite(metric):
                raise NumericError(f"the metric is {metric}")
            status = "pass" if metric < tol else "fail"
            metric, tol = float(metric), float(tol)
        except Exception as exc:  # the check cannot run, or gives no number: "metric": null
            status, metric, tol = "fail", None, None
            detail = f"error: {type(exc).__name__}: {exc}"
        entries.append({"check": name, "status": status, "metric": metric,
                        "tolerance": tol, "detail": detail})
    return {"entries": entries, "all_passed": all(e["status"] == "pass" for e in entries)}


# --------------------------------------------------------------------------
# Commands


def cmd_spectrum(cfg: RunConfig):
    ana = nums = None
    if cfg.method in ("analytic", "both"):
        ana = _analytic.analytic_spectrum(cfg.model, cfg.n_max)
    if cfg.method in ("numeric", "both"):
        nums = cfg.eigenvalues(cfg.n_max + 1)

    rows = []
    for n in range(cfg.n_max + 1):
        for source, levels in (("analytic", ana), ("numeric", nums)):
            if levels is None:
                continue
            eps_sq = float(levels[n])
            energy_plus, energy_minus = epsilon_to_energy(eps_sq)
            delta = eps_sq - float(ana[n]) if source == "numeric" and ana is not None else None
            rows.append({"n": n, "epsilon_sq": eps_sq, "energy_plus": energy_plus,
                         "energy_minus": energy_minus, "source": source, "delta": delta})
    return rows


def cmd_wavefunction(cfg: RunConfig):
    model, grid, n = cfg.model, cfg.grid, cfg.n
    if cfg.method == "analytic" and model.record.closed_form != "all":
        # only the zero mode is known in closed form
        eps_sq, f_m, f_p = 0.0, cfg.zero_mode, np.zeros_like(cfg.zero_mode)
    elif cfg.method == "analytic":
        eps_sq = _analytic.analytic_epsilon_sq(model, n)
        f_m, f_p = _analytic.analytic_wavefunctions(model, n, grid)
    else:
        eps_sq = cfg.eigenvalues(n + 1)[n]
        f_m, f_p = _analytic.spinor_from_lower(cfg.superpotential, cfg.eigenvector(n), n,
                                               eps_sq, grid)
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
    # every field is a _g17 number, a fixed word or empty: none needs quoting
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows_of_values)
    return "\r\n".join(lines) + "\r\n"


def render_spectrum(rows, fmt: str) -> str:
    """CSV has a delta column when a row carries a delta (method both)."""
    if fmt == "json":
        return json.dumps({"levels": rows}, indent=2) + "\n"
    header = ["n", "epsilon_sq", "energy_plus", "energy_minus", "source"]
    with_delta = any(row["delta"] is not None for row in rows)
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


def render_samples(payload, fmt: str) -> str:
    """CSV columns: the payload's arrays, in order."""
    if fmt == "json":  # JSON has no NaN or infinity: a non-finite sample is null
        obj = {k: ([float(x) if math.isfinite(x) else None for x in v]
                   if isinstance(v, np.ndarray) else v)
               for k, v in payload.items()}
        return json.dumps(obj, indent=2) + "\n"
    arrays = {k: v for k, v in payload.items() if isinstance(v, np.ndarray)}
    rows = ([_g17(x) for x in values] for values in zip(*arrays.values()))
    return _csv_text(list(arrays), rows)


def render_verify(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# --------------------------------------------------------------------------
# Argument parsing and config resolution


#: each subcommand: its help, and what it reads besides the model (its family,
#: parameters and ell), the window and --config; config keys follow the same table
COMMANDS = {
    "spectrum": ("emit bound-state levels", ("format", "n_max", "method")),
    "wavefunction": ("emit sampled two-component bound states",
                     ("format", "n_max", "method", "n")),
    "partner": ("emit the sampled partner potentials", ("format", "n_max")),
    "verify": ("run consistency checks and emit a JSON report", ("n_max", "checks")),
}

#: model parameters whose flag and config key are spelled differently
_PARAM_KEYS = {"omega_T": "omega_t"}


def _model_keys(record) -> list:
    """The flags and config keys a family reads: its parameters, and ell if it has one."""
    return [_PARAM_KEYS.get(k, k) for k in record.params] + (["ell"] if record.has_ell else [])


class _Parser(argparse.ArgumentParser):
    """A refusal raises UsageError: one error line and exit 2, no usage block."""

    def error(self, message):
        raise UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand, so --help and an unknown command read the same, but flags
    on `command` only (on every subcommand when None): an invocation parses one."""
    parser = _Parser(
        prog="susyrad", allow_abbrev=False,
        description="Radial bound states via superpotential factorization: "
                    "closed-form spectra with an independent finite-difference check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    takers = {}  # model flag -> the families that take it
    for family, record in FAMILIES.items():
        for key in _model_keys(record):
            takers.setdefault(key, []).append(family.value)
    flags = {
        "model": (str, "family: " + ", ".join(f.value for f in Family)),
        "grid": (str, "RMIN,RMAX,NPTS (default: the family's window)"),
        **{key: (int if key == "ell" else float, "taken by " + ", ".join(families))
           for key, families in takers.items()},
        "format": (str, "csv or json"),
        "n_max": (int, "highest level (default 4, or the tower's top)"),
        "method": (str, "analytic, numeric or both"),
        "n": (int, "level (default 0)"),
        "checks": (str, "comma-separated subset of: " + ",".join(CHECKS)),
        "config": (str, "JSON config file"),
    }
    for name, (text, reads) in COMMANDS.items():
        s = sub.add_parser(name, help=text, allow_abbrev=False)  # full flag names only
        if command not in (None, name):
            continue
        for key in ("model", "grid", *takers, *reads, "config"):
            kind, help_text = flags[key]
            s.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    return parser


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
    return data


def _number(value) -> float:
    """float(value), refusing a boolean, which float() would read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _parse_grid(value) -> RadialGrid:
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 3:
        raise UsageError("grid must be 'rmin,rmax,npts'")
    try:
        r_min, r_max, npts = (_number(p) for p in parts)
        n_points = int(npts)
    except (TypeError, ValueError):
        raise UsageError("grid must be 'rmin,rmax,npts' with numeric entries")
    if n_points != npts:
        raise UsageError(f"grid NPTS must be an integer, got {parts[2]!r}")
    try:
        return RadialGrid(r_min, r_max, n_points)
    except ConfigurationError as exc:
        raise UsageError(str(exc))


def _setting(args, file_cfg: dict, key: str, default=None, kind=None):
    """The flag, else the config-file value as `kind` (float, or int when
    integral; anything else, a boolean too, is a usage error), else the default."""
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    value = file_cfg.get(key)
    if value is None or kind is None:
        return default if value is None else value
    try:
        x = _number(value)
        if kind is int and x != int(x):
            raise ValueError
        return kind(x)
    except (TypeError, ValueError, OverflowError):
        kind_name = "an integer" if kind is int else "a number"
        raise UsageError(f"config value {key} must be {kind_name}, got {value!r}") from None


def resolve_config(args) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    verify = args.command == "verify"

    family_name = _setting(args, file_cfg, "model", "oscillator")
    try:
        family = Family(family_name)
    except ValueError:
        raise UsageError(f"unknown model family {family_name!r}")

    record = FAMILIES[family]
    # a setting this subcommand and family do not read is refused, not dropped
    read = {"model", "grid", *COMMANDS[args.command][1], *_model_keys(record)}
    if family is Family.CUSTOM:
        read |= {"w_samples", "w_prime_samples"}
    given = {key for key, value in vars(args).items() if value is not None}
    flags = sorted("--" + key.replace("_", "-") for key in given - read - {"command", "config"})
    if flags:
        raise UsageError(f"{args.command} --model {family.value} takes no {', '.join(flags)}")
    keys = sorted(set(file_cfg) - read)
    if keys:
        raise UsageError(f"unknown config keys for {args.command} --model {family.value}: "
                         f"{', '.join(keys)}")

    ell = _setting(args, file_cfg, "ell", 0, int)
    params = {key: _setting(args, file_cfg, _PARAM_KEYS.get(key, key), default, float)
              for key, default in record.params.items()}
    grid_setting = _setting(args, file_cfg, "grid")
    n_max = _setting(args, file_cfg, "n_max", kind=int)
    n = _setting(args, file_cfg, "n", 0, int)
    if n < 0:
        raise UsageError("--n must be nonnegative")

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
            model = ModelSpec(family, params, ell)
        n_max = int(min(4, model.max_level) if n_max is None else n_max)
        if n_max < 0:
            raise UsageError("--n-max must be nonnegative")
        if grid_setting is not None:
            grid = _parse_grid(grid_setting)
            if record.has_ell and grid.r_min < 0:
                raise UsageError(f"{family.value} is radial: the grid needs r_min >= 0, "
                                 f"got {grid.r_min!r}")
        else:  # the window holds the highest level the run reads
            grid = default_grid(model, max(n_max, VERIFY_TOP_LEVEL if verify else n))
    except (ConfigurationError, DomainError, NumericError, OverflowError) as exc:
        raise UsageError(f"invalid model configuration: {exc}")

    # closed forms cover every level only for the fully solvable families
    default_method = "both" if record.closed_form == "all" else "numeric"
    methods = ("analytic", "numeric", "both")
    if args.command == "wavefunction":
        default_method = "numeric" if record.closed_form == "none" else "analytic"
        methods = methods[:2]
    method = _setting(args, file_cfg, "method", default_method)
    if method not in methods:
        raise UsageError(f"{args.command} takes --method {'/'.join(methods)}, not {method!r}")

    fmt = _setting(args, file_cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    cfg = RunConfig(model=model, grid=grid, n_max=n_max, n=n, method=method,
                    output_format=fmt)

    checks_setting = _setting(args, file_cfg, "checks")
    if checks_setting is None:
        names = default_checks(model, grid, cfg) if verify else ()
    else:
        names = tuple(s.strip() for s in str(checks_setting).split(",") if s.strip())
        bad = [c for c in names if c not in CHECKS]
        if bad:
            raise UsageError(f"unknown checks: {', '.join(bad)}")
        if not names:
            raise UsageError(f"--checks names no check; choose from {', '.join(CHECKS)}")
        names = tuple(c for c in CHECKS if c in names)
    cfg.checks = names

    # a reader: V- levels read from the one solve, top closed-form level read (-1: none)
    readers = []
    for c in names:
        count = CHECKS[c].levels(model, n_max)
        readers.append((f"the {c} check", count,
                        count - 1 if CHECKS[c].needs_closed_form else -1, "--n-max"))
    if args.command == "spectrum":
        readers.append((f"--n-max {n_max}", 0 if method == "analytic" else n_max + 1,
                        -1 if method == "numeric" else n_max, "--n-max"))
    if args.command == "wavefunction":
        # exp(-int W) is every family's n = 0 state, in closed form or not
        readers.append((f"--n {n}", n + 1 if method == "numeric" else 0,
                        n if method == "analytic" and n else -1, "--n"))
    # a finite tower knows its levels up to its top, a QES family its zero mode
    known = {"all": model.max_level, "ground": 0, "none": -1}[record.closed_form]
    for reader, count, top, flag in sorted(readers, key=lambda r: -r[1]):
        if count > grid.n_points - 2:
            raise UsageError(f"{reader} needs {count} levels, but the grid has "
                             f"{grid.n_points - 2} interior points")
        if top > known:
            what = "only its ground state" if known == 0 else "no level"
            raise UsageError(f"{family.value} tower ends at n={known}; lower {flag}"
                             if record.closed_form == "all" else
                             f"{family.value} has {what} in closed form, but {reader} "
                             f"reads levels to n={top}; the rest are numeric only")
    cfg.levels = max((count for _, count, _, _ in readers), default=0)
    return cfg


# --------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    # argparse takes a token that starts with "-" and is not a plain number for
    # a flag, so a negative value such as "-1e-05" or the r_min of
    # "-12,40,801" is attached to the flag before it; every long flag but
    # --help takes a value
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if re.fullmatch(r"--\w[\w-]*", argv[i]) and argv[i] != "--help" \
                and re.match(r"-\.?\d", argv[i + 1]):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "spectrum":
            sys.stdout.write(render_spectrum(cmd_spectrum(cfg), cfg.output_format))
            return EXIT_OK
        if args.command in ("wavefunction", "partner"):
            command = cmd_wavefunction if args.command == "wavefunction" else cmd_partner
            sys.stdout.write(render_samples(command(cfg), cfg.output_format))
            return EXIT_OK
        # verify
        report = run_verification(cfg)
        sys.stdout.write(render_verify(report))
        if any(e["metric"] is None for e in report["entries"]):
            return EXIT_RUNTIME
        return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED
    except SystemExit:  # --help; the parser raises UsageError for a refusal
        return EXIT_OK
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
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
