"""Seeded operation lists for the benchmark workloads.

A pass is a fixed list of ops; an op is one ``susyrad`` command line.  The
seed only draws the model parameters, so every seed runs the same commands on
grids of the same sizes and the pass time compares like with like.  Integer
labels that select which verify checks run (``ell`` for the sextic and
deformed-Coulomb families, the sign of the anharmonic ``a``) stay at their
defaults for the same reason; continuous parameters range over about ±20-50 %
of the CLI defaults.  The ranges are not trimmed to avoid known defects: some
Morse and Coulomb draws fail ``verify`` (see README.md), and those failures
are counted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

#: built-in families in CLI order
FAMILIES = ("oscillator", "coulomb", "morse", "anharmonic", "sextic", "deformed-coulomb")
SOLVABLE = ("oscillator", "coulomb", "morse")

#: tabulated window of the custom model: a linear W sampled on [0, 14]
CUSTOM_GRID = (0.0, 14.0, 4001)

#: grid sizes of the explicit scan windows (the sizes the roadmap names)
SCAN_GRID_POINTS = (2401, 16001)


@dataclass(frozen=True)
class Op:
    """One command line plus what the checks need to judge its output."""

    label: str
    argv: tuple
    command: str
    family: str
    params: dict = field(default_factory=dict)
    ell: int = 0
    n_max: int = 4


def draw_models(seed: int) -> dict:
    """Model parameters for every family, drawn from ``seed``.

    Returns ``{family: (params, ell)}``; params use the CLI flag names.
    """
    rng = random.Random(seed)

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    return {
        "oscillator": ({"omega": u(0.5, 2.0), "B": u(0.0, 1.0)}, rng.choice((0, 1, 2))),
        "coulomb": ({"kappa": u(0.5, 2.0)}, rng.choice((0, 1, 2))),
        "morse": ({"a": u(2.5, 3.5), "alpha": u(0.8, 1.2), "b": u(2.5, 3.5)}, 0),
        "anharmonic": ({"a": u(0.5, 1.5), "omega-t": u(0.5, 1.5), "b": u(0.5, 1.5)}, 0),
        "sextic": ({"omega-t": u(0.5, 1.5), "b": u(0.5, 1.5)}, 0),
        "deformed-coulomb": ({"e2": u(0.5, 1.5), "omega-t": u(0.5, 1.5)}, 0),
        "custom": ({"c1": u(0.8, 1.2), "r0": u(5.0, 6.0)}, 0),
    }


def write_custom_config(params: dict, path: str) -> None:
    """Config file for the custom model W(r) = c1 (r - r0) on CUSTOM_GRID."""
    r_min, r_max, n = CUSTOM_GRID
    h = (r_max - r_min) / (n - 1)
    rs = [r_min + i * h for i in range(n)]
    cfg = {
        "model": "custom",
        "grid": list(CUSTOM_GRID),
        "w_samples": [params["c1"] * (r - params["r0"]) for r in rs],
        "w_prime_samples": [params["c1"]] * n,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


def morse_max_level(params: dict) -> int:
    """Highest bound Morse level: the largest n with b - alpha n > 0."""
    return max(0, math.ceil(params["b"] / params["alpha"] - 1e-12) - 1)


def _model_argv(family, params, ell, custom_config):
    if family == "custom":
        return ["--config", custom_config]
    argv = ["--model", family]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    if ell:
        argv += ["--ell", str(ell)]
    return argv


def _op(command, family, models, custom_config, extra=(), n_max=4, tag=""):
    params, ell = models[family]
    argv = [command] + _model_argv(family, params, ell, custom_config) + list(extra)
    label = f"{command}:{family}{tag}"
    return Op(label, tuple(argv), command, family, params, ell, n_max)


def verify_ops(models, custom_config):
    """``verify`` on every built-in family's default window, plus the custom model."""
    return [_op("verify", f, models, custom_config) for f in FAMILIES + ("custom",)]


def scan_ops(models, custom_config):
    """``spectrum`` (default method) for every family at n_max 0, 4 and 9, plus
    explicit oscillator and Coulomb windows at the roadmap's grid sizes."""
    ops = []
    for family in FAMILIES + ("custom",):
        for n_max in (0, 4, 9):
            if family == "morse":
                n_max = min(n_max, morse_max_level(models[family][0]))
            ops.append(_op("spectrum", family, models, custom_config,
                           ("--n-max", str(n_max)), n_max=n_max, tag=f":n{n_max}"))
    # the pinned windows of the acceptance tests, scaled to the drawn parameters
    osc, _ = models["oscillator"]
    s = math.sqrt(osc["omega"] + osc["B"] / 2.0)
    kappa = models["coulomb"][0]["kappa"]
    for points in SCAN_GRID_POINTS:
        for family, (lo, hi) in (("oscillator", (1e-3 / s, 12.0 / s)),
                                 ("coulomb", (1e-3 / kappa, 250.0 / kappa))):
            grid = f"{lo!r},{hi!r},{points}"
            ops.append(_op("spectrum", family, models, custom_config,
                           ("--grid", grid), tag=f":grid{points}"))
    return ops


WORKLOADS = {"verify": verify_ops, "scan": scan_ops}


def superpotential(family: str, params: dict, ell: int, r):
    """W and W' from the closed forms in the project README, written out
    independently of ``susyrad.superpot`` so that the checks can place the
    zero mode exp(-int W) on a window.  ``r`` is a numpy array; natural units."""
    r = np.asarray(r, dtype=float)
    p = params
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "oscillator":
            lam, c = p["omega"] + p["B"] / 2.0, ell + 1.0
            return lam * r - c / r, lam + c / r**2
        if family == "coulomb":
            c = ell + 1.0
            return p["kappa"] / c - c / r, c / r**2
        if family == "morse":
            e = np.exp(-p["alpha"] * r)
            return p["b"] - p["a"] * e, p["a"] * p["alpha"] * e
        if family == "anharmonic":
            w, b = p["omega-t"], p["b"]
            return p["a"] + w * r + b * r**2, w + 2.0 * b * r
        if family == "sextic":
            w, b = p["omega-t"], p["b"]
            return -ell / r + w * r + b * r**3, ell / r**2 + w + 3.0 * b * r**2
        if family == "deformed-coulomb":
            c, w = ell + 1.0, p["omega-t"]
            return p["e2"] / (2.0 * c) - c / r + w * r, c / r**2 + w
        if family == "custom":
            return p["c1"] * (r - p["r0"]), np.full_like(r, p["c1"])
    raise ValueError(f"unknown family {family!r}")
