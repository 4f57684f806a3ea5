"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
They are not part of the project's own test suite (``tests/``).
"""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from susyrad import cli, discretize, partner_potentials, superpotential_from_model  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402

BUILT_IN_VERIFY = [("verify", "--model", f) for f in workloads.FAMILIES]


def _bindings():
    """Every (namespace id, key) -> bound object, over modules and their dicts."""
    out = {}
    mods = [importlib.import_module("susyrad")]
    mods += [importlib.import_module(f"susyrad.{m}") for m in tracing.MODULES]
    for mod in mods:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    out[(mod.__name__, attr, key)] = item
    return out


def _stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def custom_config(tmp_path):
    path = str(tmp_path / "custom.json")
    workloads.write_custom_config(workloads.draw_models(0)["custom"][0], path)
    return path


def test_wrappers_reach_every_binding_and_uninstall_restores_them():
    before = _bindings()
    originals = {id(getattr(importlib.import_module(f"susyrad.{m}"), f))
                 for m, f, _ in tracing.TRACED}
    t = tracing.Tracer()
    patched = t.install()
    try:
        during = _bindings()
        assert not any(id(v) in originals for v in during.values())
        # the bindings the layers call through
        import susyrad.numsolve as numsolve
        import susyrad.qes as qes
        for fn in (cli.lowest_eigenvalues, qes.lowest_eigenvalues,
                   numsolve.lowest_eigenvalues, numsolve.sturm_count,
                   *cli._CHECK_RUNNERS.values()):
            assert hasattr(fn, "__wrapped__")
        assert patched > len(tracing.TRACED)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_scan_op_counts_sturm_sweeps(custom_config):
    op = workloads.scan_ops(workloads.draw_models(0), custom_config)[0]
    t = tracing.Tracer()
    t.install()
    try:
        code, _ = _stdout(op.argv)
    finally:
        t.uninstall()
    assert code == 0
    summary = tracing.summarize(t.spans)
    assert summary["numsolve.sturm_count"]["calls"] > 0
    assert summary["numsolve.sturm_count"]["work"] > 0


def test_default_verify_makes_18_solves_on_9_operators():
    t = tracing.Tracer()
    t.install()
    try:
        codes = [_stdout(argv)[0] for argv in BUILT_IN_VERIFY]
    finally:
        t.uninstall()
    assert codes == [0] * len(BUILT_IN_VERIFY)
    assert len(t.solves) == 18
    assert len({key for key, _, _ in t.solves}) == 9
    sweeps = tracing.summarize(t.spans)["numsolve.sturm_count"]["calls"]
    assert 45 < sweeps / sum(k for _, k, _ in t.solves) < 53


def test_traced_stdout_is_byte_identical(custom_config):
    ops = [op.argv for op in workloads.scan_ops(workloads.draw_models(3), custom_config)
           if op.label.endswith(":n0")]
    ops.append(("verify", "--model", "oscillator"))
    plain = [_stdout(argv) for argv in ops]
    t = tracing.Tracer()
    t.install()
    try:
        traced = [_stdout(argv) for argv in ops]
    finally:
        t.uninstall()
    assert traced == plain


def test_workloads_are_fixed_lists_drawn_from_the_seed(tmp_path):
    cfg = str(tmp_path / "c.json")
    for name, build in workloads.WORKLOADS.items():
        a = build(workloads.draw_models(7), cfg)
        assert a == build(workloads.draw_models(7), cfg)
        b = build(workloads.draw_models(8), cfg)
        assert [op.label.split(":n")[0] for op in a] == [op.label.split(":n")[0] for op in b]
        assert [op.argv for op in a] != [op.argv for op in b]


def test_lapack_gate_scales_with_the_operator_norm():
    argv = ("spectrum", "--model", "morse")
    code, text = _stdout(argv)
    assert code == 0
    cfg = cli.resolve_config(cli.build_parser().parse_args(list(argv)))
    op = discretize(partner_potentials(superpotential_from_model(cfg.model), cfg.grid).v_minus,
                    cfg.grid)
    assert np.max(np.abs(op.diag)) > 1e9  # stiff wall: a flat 1e-9 bound cannot hold
    rows = [line.split(",") for line in text.splitlines()[1:]]
    levels = [float(r[1]) for r in rows if r[4] == "numeric"]
    ok, why = checks.check_against_lapack(levels, op.diag, op.off)
    assert ok, why
    shifted = [levels[0] + 10 * checks.lapack_bound(op.diag, op.off)] + levels[1:]
    assert not checks.check_against_lapack(shifted, op.diag, op.off)[0]


class _DriftingCli:
    """The real CLI, with one more trailing space on every call: valid JSON
    whose bytes differ from run to run."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        code = cli.main(argv)
        print(" " * self.calls)
        self.calls += 1
        return code


def test_determinism_gate_counts_changed_stdout():
    ops = [workloads.Op("verify:small", ("verify", "--model", "oscillator", "--grid",
                                         "0.001,8,401"), "verify", "oscillator")]
    runner = Runner(_DriftingCli(), ops, tracing.Tracer())
    runner.run_pass(traced=False)
    assert runner.failed == 0 and runner.gates_ok
    runner.run_pass(traced=False)
    assert runner.failed == 1 and not runner.gates_ok


def test_failed_verify_check_counts_as_failed_op_not_gate_miss():
    op = workloads.Op("verify:coarse", ("verify", "--model", "oscillator", "--grid",
                                        "0.001,8,101", "--checks", "analytic_vs_numeric"),
                      "verify", "oscillator")
    runner = Runner(cli, [op], tracing.Tracer())
    runner.run_pass(traced=False)
    assert (runner.attempted, runner.failed, runner.gates_ok) == (1, 1, True)


def test_qes_level_zero_counts_only_where_the_zero_mode_clears_the_wall(custom_config):
    """The harness's wall rule agrees with the one verify's default checks use."""
    ops = [op for op in workloads.scan_ops(workloads.draw_models(0), custom_config)
           if op.label.endswith(":n0") and op.family not in workloads.SOLVABLE + ("custom",)]
    # a deformed-coulomb window whose inner wall sits deep in the r^(l+1) tail
    ops.append(workloads.Op("spectrum:deformed-coulomb:wall1e-5",
                            ("spectrum", "--model", "deformed-coulomb", "--grid", "1e-5,20,8001",
                             "--n-max", "0"), "spectrum", "deformed-coulomb",
                            {"e2": 1.0, "omega-t": 1.0}, n_max=0))
    clear_by_label = {}
    for op in ops:
        cfg = cli.resolve_config(cli.build_parser().parse_args(list(op.argv)))
        window = (cfg.grid.r_min, cfg.grid.r_max)
        clear = checks.zero_mode_clear_of_wall(op, *window)
        assert clear == ("analytic_vs_numeric" in cli.default_checks(cfg.model, cfg.grid))
        code, text = _stdout(op.argv)
        assert code == 0
        ratio = checks.spectrum_levels(op, text, window)[1]
        assert (ratio is not None) == clear
        assert ratio is None or ratio < 1.0
        clear_by_label[op.label] = clear
    # on their default windows no drawn QES zero mode clears the wall
    assert clear_by_label == {"spectrum:anharmonic:n0": False, "spectrum:sextic:n0": False,
                              "spectrum:deformed-coulomb:n0": False,
                              "spectrum:deformed-coulomb:wall1e-5": True}
