"""Digest a fixed battery of CLI invocations, one line each.

Usage::

    python tools/cli_digest.py SRC_DIR > digest.txt

Imports ``susyrad`` from SRC_DIR (put first on ``sys.path``), prints one
header line with numpy's version and the CPU features its SIMD loops use,

    # numpy <version> | cpu features: <enabled features>

then runs every invocation of the battery in-process through
``susyrad.cli.main`` and prints

    argv | exit | sha256(stdout)[:16] | stderr

A numpy warning is appended to the stderr column as ``warning: <message>``;
an exception that escapes ``main`` is printed as exit ``traceback`` with its
type and message.  Diffing the digests of two source trees lists every
invocation whose stdout bytes, exit code or message moved.  The battery
covers every family (a custom model from a generated config included),
every subcommand x method x format, several ``--n`` / ``--n-max`` values and
``--checks`` subsets, small, negative and even-count grids, refusals (config
files that hold no JSON object, a built-in family's config that holds
``w_samples``, and an infinite NPTS among them), parameters or windows at
the edge of the float range, tabulated models whose V- levels 1-3 are all or
partly negative (``intertwine`` cannot run, or compares fewer levels, and a
numeric wavefunction at such a level has no upper component), default
``verify`` on the sextic at ell = 3 and 5, config files whose grid r_min,
r_max or NPTS, or whose custom ``w_samples``, hold a JSON integer beyond the
float range, default ``verify`` on the tabulated W = r - 5 (no closed-form
level, a zero mode clear of the wall), and the help texts (at
``COLUMNS=80``, so that their widths do not follow the terminal).

The bytes are the same on one machine whatever the BLAS thread count, but
numpy's vectorized ``exp``, ``log`` and ``power`` round differently per
instruction set, so digests from hosts whose headers differ are not expected
to match line for line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

#: every built-in family with a small explicit window for it
SMALL_GRIDS = {
    "oscillator": "0.01,6,201",
    "coulomb": "0.01,30,301",
    "morse": "-4,10,201",
    "anharmonic": "0,5,201",
    "sextic": "0.01,4,201",
    "deformed-coulomb": "0.001,12,301",
}

#: grids too short for the levels most readers ask for, or crossing r = 0
EDGE_GRIDS = ("0.001,1,5", "-1,5,101", "0,5,101", "0.5,3,3")

CHECK_SUBSETS = ("isospectral", "intertwine", "orthonormal", "ground_residual",
                 "analytic_vs_numeric", "orthonormal,intertwine",
                 "isospectral,analytic_vs_numeric")

#: parameters or windows at the edge of the float range, and refusals
EXTREME = (
    ("spectrum", "--model", "coulomb", "--kappa=1e300"),
    ("spectrum", "--model", "coulomb", "--kappa=1e-300"),
    ("spectrum", "--model", "coulomb", "--grid", "0.5,1e300,11"),
    ("spectrum", "--model", "morse", "--grid", "1e-300,1e-299,11"),
    ("spectrum", "--model", "oscillator", "--omega=1e300"),
    ("spectrum", "--model", "oscillator", "--omega=1e307", "--method", "analytic",
     "--n-max", "9"),
    ("verify", "--model", "sextic", "--grid", "0.5,1e300,11"),
    ("verify", "--model", "sextic", "--grid", "1e160,1e161,11"),
    ("spectrum", "--model", "morse", "--b=1e200", "--alpha=1e-200", "--method", "analytic"),
    ("spectrum", "--model", "morse", "--b=1e200", "--alpha=1e-200"),
    ("verify", "--model", "morse", "--b=1e200", "--alpha=1e-200"),
    ("wavefunction", "--model", "morse", "--b=1e200", "--alpha=1e-200"),
    ("partner", "--model", "morse", "--b=1e200", "--alpha=1e-200"),
    ("wavefunction", "--method", "analytic", "--model", "oscillator", "--grid", "0.5,1e300,11"),
    ("wavefunction", "--method", "analytic", "--model", "coulomb", "--grid", "0.5,1e308,11"),
    ("wavefunction", "--method", "analytic", "--model", "morse", "--grid", "-1000,10,11"),
    ("wavefunction", "--method", "analytic", "--model", "morse", "--grid", "-1000,10,11",
     "--n", "2"),
    ("wavefunction", "--method", "analytic", "--model", "coulomb", "--grid",
     "1e-300,1e300,11", "--n", "3"),
    ("spectrum", "--model", "anharmonic", "--method", "analytic", "--n-max", "1"),
    ("spectrum", "--model", "morse", "--method", "analytic", "--n-max", "5"),
    ("wavefunction", "--method", "both"),
    ("wavefunction", "--model", "sextic", "--n", "1"),
    ("wavefunction", "--model", "morse", "--n", "3"),
    ("verify", "--model", "morse", "--n-max", "5"),
    ("verify", "--checks", ","),
    ("verify", "--checks", "bogus"),
    ("spectrum", "--n-max", "-1"),
    ("wavefunction", "--n", "-1"),
    ("spectrum", "--grid", "1,2"),
    ("spectrum", "--model", "anharmonic", "--a", "-1e-05"),
    ("verify", "--model", "anharmonic", "--a", "-8"),
    ("spectrum", "--config", "no-such-config.json"),
    # settings the subcommand or the family does not read, and unknown or cut-short flags
    ("partner", "--model", "oscillator", "--grid", "0.5,3,3", "--checks", "isospectral"),
    ("verify", "--format", "csv"),
    ("partner", "--method", "analytic"),
    ("verify", "--method", "both"),
    ("spectrum", "--n", "1"),
    ("spectrum", "--kap", "2"),
    ("spectrum", "--model", "foo"),
    ("spectrum", "--bogus", "1"),
    ("spectrum", "--model", "oscillator", "--kappa", "5"),
    ("spectrum", "--model", "morse", "--ell", "3"),
    # a residual that leaves the float range; the Coulomb limit omega_T = 0
    ("verify", "--model", "coulomb", "--kappa=1e150"),
    ("spectrum", "--model", "deformed-coulomb", "--omega-t", "0", "--n-max", "4"),
    # levels above the default n_max on the default window
    ("wavefunction", "--model", "coulomb", "--n", "9"),
    ("wavefunction", "--model", "coulomb", "--n", "12"),
    ("wavefunction", "--model", "coulomb", "--n", "9", "--method", "numeric"),
    ("wavefunction", "--model", "coulomb", "--n", "12", "--method", "numeric"),
    # Newton steps whose square and cube leave the float range
    ("spectrum", "--model", "oscillator", "--grid", "0,1e-70,801", "--n-max", "2"),
    ("spectrum", "--model", "oscillator", "--grid", "1e-80,1e-70,801", "--n-max", "2"),
    ("spectrum", "--model", "anharmonic", "--b", "1e150", "--n-max", "2"),
    ("spectrum", "--model", "anharmonic", "--grid", "0,1e75,801", "--n-max", "2"),
    ("spectrum", "--model", "sextic", "--b", "1e120", "--n-max", "1"),
    ("spectrum", "--model", "anharmonic", "--omega-t", "1e100", "--n-max", "1"),
    # a window whose width r_max - r_min overflows
    ("partner", "--model", "morse", "--grid=-1e308,1e308,5"),
    ("spectrum", "--model", "morse", "--grid=-1e308,1e308,5"),
    ("spectrum", "--model", "anharmonic", "--grid=-1e308,1e308,5", "--n-max", "1"),
    # the 1/r term of the sextic W (absent at ell = 0), and deformed-Coulomb at ell = 1
    ("spectrum", "--model", "sextic", "--ell", "1", "--n-max", "2"),
    ("wavefunction", "--model", "sextic", "--ell", "1", "--format", "json"),
    ("verify", "--model", "sextic", "--ell", "1"),
    ("spectrum", "--model", "deformed-coulomb", "--ell", "1", "--n-max", "2"),
    ("verify", "--model", "deformed-coulomb", "--ell", "1"),
    # an even point count: the trapezoid tail of the Simpson quadratures
    ("wavefunction", "--model", "oscillator", "--grid", "0.01,6,200", "--n", "1"),
    ("verify", "--model", "oscillator", "--grid", "0.01,6,200"),
    ("verify", "--model", "anharmonic", "--grid", "0,5,200"),
    # a reversed window and an unknown format
    ("spectrum", "--grid", "5,1,11"),
    ("spectrum", "--format", "xml"),
    # an NPTS beyond the float range
    ("spectrum", "--grid", "0,1,inf"),
    ("spectrum", "--grid", "0,1,1e400"),
    # the sextic default window at larger ell, where the zero mode peaks off the wall
    ("verify", "--model", "sextic", "--ell", "3"),
    ("verify", "--model", "sextic", "--ell", "5"),
)

#: config files the battery reads besides the tabulated W: text samples, keys
#: that spectrum or the oscillator does not read, booleans or fractions where
#: integers belong, an infinite NPTS, custom models without samples or without
#: a grid, an overflowing window, files that hold no JSON object (a string is
#: written as it stands), W = 0 with a constant W', so V- = -W': at 50
#: levels 1-3 are negative, at 0.6 levels 0 and 1, a 400-digit integer in the
#: grid or the samples, and W = r - 5 on [0, 12], so V- = (r - 5)^2 - 1
CONFIGS = {
    "bad.json": {"model": "custom", "grid": [0, 6, 5],
                 "w_samples": ["a", 1, 2, 3, 4], "w_prime_samples": [1.0] * 5},
    "stray.json": {"model": "oscillator", "checks": "isospectral"},
    "oscillator_samples.json": {"model": "oscillator", "w_samples": [1.0] * 5},
    "bool_params.json": {"model": "coulomb", "kappa": True, "ell": False},
    "bool_n_max.json": {"model": "oscillator", "n_max": True},
    "bool_grid.json": {"model": "oscillator", "grid": [0.5, True, 11]},
    "fraction_grid.json": {"model": "oscillator", "grid": [0.5, 3, 11.7]},
    "infinite_npts.json": {"model": "oscillator", "grid": [0, 1, float("inf")]},
    "float_n_max.json": {"model": "oscillator", "n_max": 2.0},
    "fraction_n_max.json": {"model": "oscillator", "n_max": 2.5},
    "no_samples.json": {"model": "custom", "grid": "0,6,601"},
    "no_grid.json": {"model": "custom", "w_samples": [1.0] * 5, "w_prime_samples": [0.0] * 5},
    "overflow_grid.json": {"model": "custom", "grid": [-1e308, 1e308, 5],
                           "w_samples": [1.0] * 5, "w_prime_samples": [0.0] * 5},
    "not_json.json": '{"model": "oscillator",',
    "not_object.json": [1, 2, 3],
    "negative_levels.json": {"model": "custom", "grid": [0, 10, 201],
                             "w_samples": [0.0] * 201, "w_prime_samples": [50.0] * 201},
    "partly_negative_levels.json": {"model": "custom", "grid": [0, 10, 201],
                                    "w_samples": [0.0] * 201,
                                    "w_prime_samples": [0.6] * 201},
    "huge_r_min.json": {"model": "oscillator", "grid": [10**400, 1, 11]},
    "huge_r_max.json": {"model": "oscillator", "grid": [0, 10**400, 11]},
    "huge_npts.json": {"model": "oscillator", "grid": [0, 1, 10**400]},
    "huge_w_samples.json": {"model": "custom", "grid": [0, 1, 3],
                            "w_samples": [10**400, 0, 0], "w_prime_samples": [0, 0, 0]},
    "shifted.json": {"model": "custom", "grid": [0, 12, 1201],
                     "w_samples": [12.0 * i / 1200 - 5.0 for i in range(1201)],
                     "w_prime_samples": [1.0] * 1201},
}


def battery(path: dict) -> list:
    """Every invocation, in a fixed order; `path` maps "custom.json" and
    "custom_even.json", tabulated-W configs, and each name in CONFIGS to its
    file, as write_configs returns it."""
    runs = []
    families = [("--model", f) for f in SMALL_GRIDS] + [("--config", path["custom.json"])]
    for model in families:
        small = SMALL_GRIDS.get(model[1])
        grids = [small, *EDGE_GRIDS] if small else [None, "0.001,1,5"]
        for grid in grids:
            where = [*model] + (["--grid", grid] if grid else [])
            for fmt in ("csv", "json"):
                for method in (None, "analytic", "numeric", "both"):
                    how = ["--format", fmt] + (["--method", method] if method else [])
                    for n_max in (None, "0", "2", "5"):
                        runs.append(["spectrum", *where, *how]
                                    + (["--n-max", n_max] if n_max else []))
                    for n in (None, "1", "3"):
                        runs.append(["wavefunction", *where, *how] + (["--n", n] if n else []))
                runs.append(["partner", *where, "--format", fmt])
            for n_max in (None, "1", "5"):
                runs.append(["verify", *where] + (["--n-max", n_max] if n_max else []))
            for checks in CHECK_SUBSETS:
                runs.append(["verify", *where, "--checks", checks])
            runs.append(["spectrum", *where, "--checks", "analytic_vs_numeric"])
    # the default window of every built-in family, with numeric eigenvectors
    # (the twisted factorization) on each
    for family in SMALL_GRIDS:
        runs.append(["spectrum", "--model", family])
        runs.append(["wavefunction", "--model", family, "--format", "json"])
        for n in ("0", "2"):
            runs.append(["wavefunction", "--model", family, "--method", "numeric",
                         "--format", "json", "--n", n])
        runs.append(["verify", "--model", family])
    runs.append(["verify", "--model", "coulomb", "--ell", "1", "--n-max", "6"])
    runs.append(["spectrum", "--config", path["bad.json"]])
    runs.append(["spectrum", "--config", path["stray.json"]])
    runs.extend(list(argv) for argv in EXTREME)
    runs.append(["--help"])
    runs.extend([command, "--help"] for command in ("spectrum", "wavefunction", "partner",
                                                     "verify"))
    runs.append(["verify", "--config", path["bool_params.json"]])
    runs.append(["spectrum", "--config", path["bool_n_max.json"]])
    runs.append(["partner", "--config", path["bool_grid.json"]])
    runs.append(["partner", "--config", path["fraction_grid.json"]])
    runs.append(["spectrum", "--model", "oscillator", "--grid", "0.5,3,11.7"])
    runs.append(["verify", "--config", path["custom_even.json"]])
    runs.append(["wavefunction", "--config", path["custom_even.json"]])
    runs.extend(["spectrum", "--config", path[name]]
                for name in ("float_n_max.json", "fraction_n_max.json", "no_samples.json",
                             "no_grid.json", "not_json.json", "not_object.json"))
    runs.append(["partner", "--config", path["overflow_grid.json"]])
    for name in ("negative_levels.json", "partly_negative_levels.json"):
        runs.append(["verify", "--config", path[name]])
        runs.append(["verify", "--config", path[name], "--checks", "intertwine"])
    runs.append(["spectrum", "--config", path["infinite_npts.json"]])
    runs.append(["spectrum", "--config", path["oscillator_samples.json"]])
    for name in ("negative_levels.json", "partly_negative_levels.json"):
        runs.append(["wavefunction", "--config", path[name], "--method", "numeric",
                     "--n", "1"])
    runs.extend(["spectrum", "--config", path[name]]
                for name in ("huge_r_min.json", "huge_r_max.json", "huge_npts.json",
                             "huge_w_samples.json"))
    runs.append(["verify", "--config", path["shifted.json"]])
    return runs


def _custom_config(n_points: int) -> dict:
    """W = 1 + r + r^2 tabulated on [0, 6] at n_points points."""
    r = [6.0 * i / (n_points - 1) for i in range(n_points)]
    return {"model": "custom", "grid": f"0,6,{n_points}",
            "w_samples": [1.0 + x + x * x for x in r],
            "w_prime_samples": [1.0 + 2.0 * x for x in r]}


def write_configs(directory: str) -> dict:
    """Write every config file the battery reads into `directory`: the
    tabulated W at 601 points ("custom.json") and at 600 ("custom_even.json"),
    and CONFIGS.  Returns the map from file name to path."""
    configs = {"custom.json": _custom_config(601), "custom_even.json": _custom_config(600),
               **CONFIGS}
    path = {name: os.path.join(directory, name) for name in configs}
    for name, config in configs.items():
        with open(path[name], "w", encoding="utf-8") as fh:
            fh.write(config if isinstance(config, str) else json.dumps(config))
    return path


def run(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback, which main never owes
                code = "traceback"
                err.write(f"{type(exc).__name__}: {exc}\n")
    text = err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], text


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isdir(args[0]):
        print("usage: cli_digest.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(args[0]))
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__
    from susyrad import cli

    enabled = " ".join(name for name, on in __cpu_features__.items() if on)
    print(f"# numpy {np.__version__} | cpu features: {enabled}")

    with tempfile.TemporaryDirectory() as tmp:
        for argv_ in battery(write_configs(tmp)):
            code, digest, err = run(cli, argv_)
            shown = " ".join(os.path.basename(a) if a.startswith(tmp) else a for a in argv_)
            print(f"{shown} | {code} | {digest} | {err.rstrip(chr(10)).replace(chr(10), ' / ')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
