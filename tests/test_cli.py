"""End-to-end CLI tests driven through main(argv) in process."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susyrad import (
    ConfigurationError,
    Family,
    ModelSpec,
    RadialGrid,
    analytic_epsilon_sq,
    analytic_wavefunctions,
    anharmonic_model,
    cli,
    coulomb_model,
    custom_model,
    deformed_coulomb_model,
    eigenvector,
    lowest_eigenvalues,
    morse_model,
    oscillator_model,
    quadrature,
    sextic_model,
)
from susyrad import analytic, numsolve, superpot
from susyrad.core import FAMILIES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.split("\r\n") if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- spectrum


def test_spectrum_oscillator_analytic_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--method", "analytic")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "epsilon_sq", "energy_plus", "energy_minus", "source"]
    assert len(rows) == 5  # n_max defaults to 4
    row = rows[2]
    assert row[0] == "2" and row[4] == "analytic"
    assert float(row[1]) == pytest.approx(8.0, abs=1e-15)
    assert float(row[2]) == pytest.approx(3.0, abs=1e-15)  # sqrt(1 + 8)
    assert float(row[3]) == pytest.approx(-3.0, abs=1e-15)


def test_spectrum_csv_uses_crlf_and_17_digit_round_trip(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "coulomb",
                           "--method", "analytic", "--n-max", "2")
    assert code == 0
    assert "\r\n" in out
    _, rows = parse_csv(out)
    for row in rows:
        for field in row[1:4]:
            assert format(float(field), ".17g") == field


def test_spectrum_both_reports_small_deltas(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--n-max", "2", "--grid", "1e-4,12,2401")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "delta"
    assert len(rows) == 6  # analytic + numeric per level
    for row in rows:
        if row[4] == "analytic":
            assert row[5] == ""
        else:
            assert abs(float(row[5])) < 1e-3


def test_spectrum_json_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--method", "analytic", "--n-max", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"levels"}
    for row in doc["levels"]:
        assert set(row) == {"n", "epsilon_sq", "energy_plus", "energy_minus",
                            "source", "delta"}
        assert row["delta"] is None
    assert doc["levels"][1]["epsilon_sq"] == pytest.approx(4.0)


def test_spectrum_output_is_deterministic(capsys):
    args = ("spectrum", "--model", "coulomb", "--n-max", "2",
            "--grid", "1e-4,60,3001")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_spectrum_morse_beyond_tower_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "morse",
                           "--method", "analytic", "--n-max", "5")
    assert code == 2
    assert "tower" in err


def test_spectrum_qes_closed_form_only_at_ground(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "anharmonic",
                           "--method", "analytic", "--n-max", "1")
    assert code == 2
    assert "ground state" in err
    code, out, _ = run_cli(capsys, "spectrum", "--model", "anharmonic",
                           "--method", "analytic", "--n-max", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == 0.0


def test_spectrum_custom_needs_numeric(capsys, tmp_path):
    cfgfile = tmp_path / "w.json"
    r = np.linspace(0.0, 6.0, 601)
    cfgfile.write_text(json.dumps({
        "model": "custom", "grid": "0,6,601",
        "w_samples": list(1.0 + r + r * r),
        "w_prime_samples": list(1.0 + 2.0 * r),
    }))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfgfile),
                           "--method", "analytic")
    assert code == 2
    assert "numeric" in err


# ------------------------------------------------------------ wavefunction


def test_wavefunction_ground_state_has_empty_upper_component(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "oscillator",
                           "--n", "0", "--grid", "1e-4,12,601")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "f_minus", "f_plus"]
    assert len(rows) == 601
    assert all(float(row[2]) == 0.0 for row in rows)
    assert max(float(row[1]) for row in rows) > 0.0


def test_wavefunction_first_excited_changes_sign_once(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "coulomb",
                           "--n", "1", "--grid", "1e-4,60,1201")
    assert code == 0
    _, rows = parse_csv(out)
    f = np.array([float(row[1]) for row in rows])
    g = f[np.abs(f) > 1e-8 * np.max(np.abs(f))]
    assert int(np.sum(np.sign(g[1:]) != np.sign(g[:-1]))) == 1


def test_wavefunction_json_carries_level_metadata(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "oscillator",
                           "--n", "1", "--grid", "1e-4,12,1201",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "epsilon_sq", "r", "f_minus", "f_plus"}
    assert doc["n"] == 1
    assert doc["epsilon_sq"] == pytest.approx(4.0)
    assert len(doc["r"]) == len(doc["f_minus"]) == len(doc["f_plus"]) == 1201


def test_wavefunction_numeric_spinor_is_normalized(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "sextic",
                           "--ell", "1", "--method", "numeric", "--n", "1",
                           "--grid", "1e-5,6,1201", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    h = doc["r"][1] - doc["r"][0]
    fm, fp = np.array(doc["f_minus"]), np.array(doc["f_plus"])
    norm = np.trapezoid(fm * fm + fp * fp, dx=h)
    assert norm == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("n", [9, 12])
def test_default_wavefunction_window_holds_level_n(capsys, n):
    """The default window is sized for max(n_max, n), not for n_max alone."""
    code, out, _ = run_cli(capsys, "wavefunction", "--model", "coulomb", "--n", str(n),
                           "--method", "numeric", "--format", "json")
    assert code == 0
    exact = analytic_epsilon_sq(coulomb_model(1.0), n)
    assert json.loads(out)["epsilon_sq"] == pytest.approx(exact, rel=1e-3)


def test_wavefunction_sextic_at_ell_0_needs_no_open_origin(capsys):
    code, out, err = run_cli(capsys, "wavefunction", "--model", "sextic",
                             "--grid", "0,5,101", "--method", "analytic")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    f_minus = [float(r[1]) for r in rows]
    assert all(math.isfinite(f) for f in f_minus)
    assert f_minus[0] == max(f_minus)  # the zero mode exp(-r^2/2 - r^4/4) peaks at r = 0


def test_wavefunction_rejects_method_both(capsys):
    code, _, err = run_cli(capsys, "wavefunction", "--model", "oscillator",
                           "--method", "both")
    assert code == 2
    assert "method" in err


def test_wavefunction_qes_excited_analytic_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "wavefunction", "--model", "sextic",
                           "--n", "1")
    assert code == 2
    assert "numeric" in err


@pytest.mark.parametrize("w_prime", [50.0, 0.6])
def test_numeric_wavefunction_at_a_nonpositive_level_is_a_runtime_error(capsys, tmp_path,
                                                                       w_prime):
    """V- = -w_prime puts level 1 at epsilon^2 <= 0 (all of levels 1-3 at 50,
    levels 0 and 1 at 0.6), where f_+ = A f_- / epsilon cannot be formed: one
    error line naming why, exit 3, and no output."""
    cfgfile = tmp_path / "w.json"
    cfgfile.write_text(json.dumps({"model": "custom", "grid": [0, 10, 201],
                                   "w_samples": [0.0] * 201,
                                   "w_prime_samples": [w_prime] * 201}))
    assert run_cli(capsys, "wavefunction", "--config", str(cfgfile), "--method", "numeric",
                   "--n", "1") == (3, "", "error: cannot form the upper component at "
                                          "epsilon^2 <= 0\n")


# ---------------------------------------------------------------- partner


def test_partner_oscillator_values(capsys):
    code, out, _ = run_cli(capsys, "partner", "--model", "oscillator",
                           "--grid", "1,3,3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "v_minus", "v_plus"]
    vals = [[float(x) for x in row] for row in rows]
    assert vals[0] == pytest.approx([1.0, -2.0, 2.0])
    assert vals[1] == pytest.approx([2.0, 1.0, 3.5])
    assert vals[2] == pytest.approx([3.0, 6.0, 8.0 + 2.0 / 9.0])


def test_partner_sextic_hand_values(capsys):
    code, out, _ = run_cli(capsys, "partner", "--model", "sextic", "--ell", "1",
                           "--grid", "1,3,3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == pytest.approx([-4.0, 77.0, 852.0])
    assert float(rows[0][2]) == pytest.approx(6.0)
    assert float(rows[1][2]) == pytest.approx(103.5)


def test_partner_sextic_at_ell_0_is_finite_at_the_origin(capsys):
    # at ell = 0 W = omega_T r + b r^3 has no 1/r term, so V-+(0) = -+omega_T
    code, out, _ = run_cli(capsys, "partner", "--model", "sextic", "--grid", "0,5,101")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(x) for x in rows[0]] == [0.0, -1.0, 1.0]


@pytest.mark.parametrize("ell", [0, 1])
def test_deformed_coulomb_at_omega_t_0_matches_coulomb_on_its_default_window(capsys, ell):
    """omega_T = 0 leaves the Coulomb W with kappa = e2/2: its default window
    holds levels 0-4 of that closed form."""
    code, out, _ = run_cli(capsys, "spectrum", "--model", "deformed-coulomb", "--omega-t", "0",
                           "--ell", str(ell), "--n-max", "4")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    for n, row in enumerate(rows):
        exact = analytic_epsilon_sq(coulomb_model(0.5, ell), n)
        assert abs(float(row[1]) - exact) <= 1e-3 * max(1.0, exact), (n, row[1], exact)


@pytest.mark.parametrize("family", [f.value for f, r in FAMILIES.items() if r.has_ell])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_radial_family_refuses_a_grid_below_r_0(capsys, family, command):
    """A family with l lives on r >= 0, and its W has its pole at r = 0: a
    window that crosses it is one usage error, before any output."""
    code, out, err = run_cli(capsys, command, "--model", family, "--grid=-1,5,101")
    assert (code, out) == (2, "")
    assert err == f"error: {family} is radial: the grid needs r_min >= 0, got -1.0\n"


@pytest.mark.parametrize("family", [f.value for f, r in FAMILIES.items()
                                    if not r.has_ell and f is not Family.CUSTOM])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_family_without_l_takes_a_grid_below_r_0(capsys, family, command):
    code, out, err = run_cli(capsys, command, "--model", family, "--grid=-1,5,101")
    assert code == 0 and out and err == ""


# ----------------------------------------------------------------- verify


def test_verify_oscillator_runs_all_five_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = [e["check"] for e in doc["entries"]]
    assert names == list(cli.CHECKS)
    for entry in doc["entries"]:
        assert entry["status"] == "pass"
        assert entry["metric"] < entry["tolerance"]


def test_verify_wall_incompatible_zero_mode_trims_default_checks(capsys):
    # anharmonic with a = 1: the zero mode is maximal at r = 0, so the
    # Dirichlet eigensolver cannot see it and the spectral comparisons
    # are dropped from the default set
    code, out, _ = run_cli(capsys, "verify", "--model", "anharmonic")
    assert code == 0
    names = [e["check"] for e in json.loads(out)["entries"]]
    assert names == ["intertwine", "orthonormal", "ground_residual"]


@pytest.mark.parametrize("family", ["oscillator", "coulomb"])
def test_verify_leaves_out_checks_whose_zero_mode_is_missing(capsys, family):
    # the zero mode has not decayed by r = 5, so it is not normalizable on this
    # window and the checks that read closed-form states are left out by
    # default instead of erroring
    code, out, err = run_cli(capsys, "verify", "--model", family, "--grid", "0,5,101")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [e["check"] for e in doc["entries"]] == ["intertwine"]
    assert doc["entries"][0]["metric"] is not None and doc["all_passed"] is True


def test_verify_sextic_at_ell_0_keeps_its_zero_mode_checks_from_r_0(capsys):
    code, out, err = run_cli(capsys, "verify", "--model", "sextic", "--grid", "0,5,101")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert [e["check"] for e in doc["entries"]] == ["intertwine", "orthonormal", "ground_residual"]
    assert doc["all_passed"] is True


@pytest.mark.parametrize("ell", [3, 5])
def test_default_sextic_verify_at_higher_ell_passes_every_check(capsys, ell):
    """At ell >= 1 the sextic zero mode r^ell exp(-r^2/2 - r^4/4) rises from the
    wall at r = 0 before it decays; the default window reaches past its right
    flank, so all five checks run and pass."""
    code, out, err = run_cli(capsys, "verify", "--model", "sextic", "--ell", str(ell))
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert [e["check"] for e in doc["entries"]] == list(cli.CHECKS)
    assert all(e["status"] == "pass" for e in doc["entries"])


def test_default_verify_on_a_tabulated_w_runs_the_checks_that_need_no_closed_form(
        capsys, tmp_path):
    """W = r - 5 on [0, 12] makes V- = (r - 5)^2 - 1, whose zero mode
    exp(-(r - 5)^2 / 2) clears the wall at r = 0 and decays by r = 12. A
    tabulated W has no level in closed form, so analytic_vs_numeric is left
    out and the other four checks run and pass."""
    r = np.linspace(0.0, 12.0, 1201)
    cfgfile = tmp_path / "shifted.json"
    cfgfile.write_text(json.dumps({"model": "custom", "grid": [0, 12, 1201],
                                   "w_samples": (r - 5.0).tolist(),
                                   "w_prime_samples": [1.0] * 1201}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfgfile))
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert [e["check"] for e in doc["entries"]] == [
        "isospectral", "intertwine", "orthonormal", "ground_residual"]
    assert all(e["status"] == "pass" for e in doc["entries"])


def test_verify_wall_compatible_qes_gets_spectral_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "anharmonic",
                           "--a", "-8")
    assert code == 0
    doc = json.loads(out)
    names = [e["check"] for e in doc["entries"]]
    assert "isospectral" in names and "analytic_vs_numeric" in names
    assert doc["all_passed"] is True


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_default_verify_window_covers_the_levels_the_checks_read(capsys, n_max):
    # the closed-form Gram spans levels 0-4 whatever --n-max is
    code, out, _ = run_cli(capsys, "verify", "--model", "coulomb", "--n-max", str(n_max))
    assert code == 0
    assert [e["check"] for e in json.loads(out)["entries"]] == list(cli.CHECKS)


def test_qes_level_comparison_reads_level_zero_only(capsys):
    argv = ["verify", "--model", "anharmonic", "--a", "-8"]
    assert cli.resolve_config(cli.build_parser().parse_args(argv)).levels == 4
    code, out, err = run_cli(capsys, "verify", "--model", "anharmonic", "--checks",
                             "analytic_vs_numeric", "--n-max", "10", "--grid", "0.001,1,5")
    assert code in (0, 1) and err == ""
    (entry,) = json.loads(out)["entries"]
    assert entry["metric"] is not None


def test_check_that_cannot_run_exits_3(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator", "--grid", "0.001,1,5",
                           "--checks", "ground_residual")
    assert code == 3
    doc = json.loads(out)
    assert set(doc) == {"entries", "all_passed"} and doc["all_passed"] is False
    assert doc["entries"][0]["metric"] is None
    assert doc["entries"][0]["detail"].startswith("error: DomainError: ")


@pytest.mark.parametrize("family", [f.value for f in Family if f is not Family.CUSTOM])
@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_check_table_counts_the_levels_each_runner_reads(monkeypatch, family, name):
    """Run alone on its default window, each check asks RunConfig.eigenvalues
    for exactly the number of V- levels its CHECKS entry declares."""
    asked = [0]
    eigenvalues = cli.RunConfig.eigenvalues

    def counted(self, k):
        asked[0] = max(asked[0], k)
        return eigenvalues(self, k)

    monkeypatch.setattr(cli.RunConfig, "eigenvalues", counted)
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["verify", "--model", family, "--checks", name]))
    cli.CHECKS[name].run(cfg)
    assert asked[0] == cli.CHECKS[name].reads(cfg.model, cfg.n_max)[0] == cfg.levels


@pytest.mark.parametrize("w_prime,compared", [(50.0, ()), (0.6, (2, 3))])
def test_intertwine_compares_only_the_positive_levels(capsys, tmp_path, w_prime, compared):
    """W = 0 and W' = w_prime make V- = -w_prime on [0, 10]: at 50 levels 1-3
    are all negative, so intertwine has nothing to compare and cannot run
    (exit 3); at 0.6 levels 0 and 1 are, and it compares levels 2-3 alone."""
    grid = RadialGrid(0.0, 10.0, 201)
    config = {"model": "custom", "grid": [0, 10, 201], "w_samples": [0.0] * 201,
              "w_prime_samples": [w_prime] * 201}
    (tmp_path / "w.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(tmp_path / "w.json"))
    (entry,) = json.loads(out)["entries"]
    assert entry["check"] == "intertwine" and err == ""
    if not compared:
        assert code == 3 and entry["metric"] is None
        assert entry["detail"].startswith("error: NumericError: ")
        return
    op = numsolve.discretize(np.full(201, -w_prime), grid)
    eigs = lowest_eigenvalues(op, 4)
    assert eigs[1] <= 0.0 < eigs[2]
    sp = superpot.superpotential_from_model(custom_model(grid, config["w_samples"],
                                                         config["w_prime_samples"]))
    defects = []
    for i in compared:
        img = superpot.apply_lowering(sp, eigenvector(op, eigs[i]), grid)
        nrm = math.sqrt(quadrature(img * img, grid))
        defects.append(abs(nrm - math.sqrt(eigs[i])) / math.sqrt(eigs[i]))
    assert entry["detail"] == "relative norm defect of lowered levels 2-3"
    assert entry["metric"] == pytest.approx(max(defects), rel=1e-12)
    assert code == (0 if entry["metric"] < 1e-2 else 1)


def test_verify_checks_subset_in_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator",
                           "--checks", "orthonormal,intertwine")
    assert code == 0
    names = [e["check"] for e in json.loads(out)["entries"]]
    assert names == ["intertwine", "orthonormal"]


def test_verify_flags_failure_on_coarse_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator",
                           "--grid", "0.5,10,41", "--checks", "analytic_vs_numeric")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["entries"][0]["status"] == "fail"


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--model", "oscillator",
                           "--checks", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_verify_custom_model_from_config(capsys, tmp_path):
    cfgfile = tmp_path / "w.json"
    r = np.linspace(0.0, 6.0, 601)
    cfgfile.write_text(json.dumps({
        "model": "custom", "grid": "0,6,601",
        "w_samples": list(1.0 + r + r * r),
        "w_prime_samples": list(1.0 + 2.0 * r),
    }))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfgfile))
    assert code == 0
    doc = json.loads(out)
    names = [e["check"] for e in doc["entries"]]
    assert names == ["intertwine", "orthonormal", "ground_residual"]
    assert doc["all_passed"] is True


def test_infrastructure_failure_names_the_exception_type(capsys, monkeypatch):
    def broken(cfg):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "ground_residual", broken)
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator",
                           "--checks", "ground_residual")
    assert code == 3
    (entry,) = json.loads(out)["entries"]
    assert entry["status"] == "fail" and entry["metric"] is None
    assert entry["detail"] == "error: ZeroDivisionError: float division by zero"


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_default_verify_builds_the_zero_mode_once(capsys, monkeypatch, tmp_path, family):
    """The verify premises and the checks read one zero mode: the record's
    closed form, or exp(-int W) for custom."""
    builds, gram = [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            if not gram:  # not a level of the orthonormal check's Gram
                builds.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def gram_level(*args, **kwargs):
        gram.append(args)
        try:
            return wavefunctions(*args, **kwargs)
        finally:
            gram.pop()

    wavefunctions = analytic.analytic_wavefunctions
    monkeypatch.setattr(analytic, "analytic_wavefunctions", gram_level)
    monkeypatch.setattr(analytic, "closed_form_state", counted(analytic.closed_form_state))
    for module in (cli, superpot):
        monkeypatch.setattr(module, "ground_state_from_w", counted(superpot.ground_state_from_w))
    argv = ["verify", "--model", family]
    if family == "custom":
        cfgfile = tmp_path / "w.json"
        r = np.linspace(0.0, 6.0, 601)
        cfgfile.write_text(json.dumps({"grid": "0,6,601", "w_samples": list(1.0 + r + r * r),
                                       "w_prime_samples": list(1.0 + 2.0 * r)}))
        argv += ["--config", str(cfgfile)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "ground_residual" in out
    assert builds == ["ground_state_from_w" if family == "custom" else "closed_form_state"]


@pytest.mark.parametrize("family", [f.value for f in Family if f is not Family.CUSTOM])
def test_default_verify_solves_each_operator_once(capsys, monkeypatch, family):
    """One V- solve serves the command and every check, eigenvectors are
    built once, and each check reports the same bytes as when run alone."""
    solves, vectors = [], []

    def counted_solve(op, k, *args, **kwargs):
        solves.append(op.diag.tobytes() + op.off.tobytes())
        return lowest_eigenvalues(op, k, *args, **kwargs)

    def counted_vector(op, lam, *args, **kwargs):
        vectors.append((op.diag.tobytes(), lam))
        return eigenvector(op, lam, *args, **kwargs)

    for module in (cli, numsolve):
        monkeypatch.setattr(module, "lowest_eigenvalues", counted_solve)
        monkeypatch.setattr(module, "eigenvector", counted_vector)
    code, out, _ = run_cli(capsys, "verify", "--model", family)
    assert code == 0
    assert len(solves) == len(set(solves))
    assert len(vectors) == len(set(vectors))
    monkeypatch.undo()
    for entry in json.loads(out)["entries"]:
        _, alone, _ = run_cli(capsys, "verify", "--model", family, "--checks", entry["check"])
        assert json.loads(alone)["entries"] == [entry]
        text = "    " + json.dumps(entry, indent=2).replace("\n", "\n    ")
        assert text in out and text in alone


def test_run_config_eigenvectors_are_read_only():
    """A check cannot change the shared vector that the next check reads."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["verify", "--model", "oscillator", "--grid", "0.01,6,201"]))
    vec = cfg.eigenvector(1)
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        vec *= 2.0
    assert cfg.eigenvector(1) is vec


def test_verify_report_is_deterministic(capsys):
    args = ("verify", "--model", "oscillator", "--checks", "orthonormal")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_output_bytes_do_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a long dot product over its threads, so a reduction
    through BLAS sums in an order that follows the thread count.  A numeric
    Coulomb eigenvector on the 16 001-point default window goes through the
    eigenvector norms and the Simpson quadrature of its normalization."""
    argv = [sys.executable, "-m", "susyrad.cli", "wavefunction", "--model", "coulomb",
            "--method", "numeric", "--n", "2"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(argv, capture_output=True, check=True, env=env)
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 16002
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------------ config


def test_flag_overrides_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"model": "oscillator", "omega": 2.0,
                                   "n_max": 1, "method": "analytic"}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfgfile),
                           "--omega", "1.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2  # n_max from the file
    assert float(rows[1][1]) == pytest.approx(4.0)  # omega from the flag


def test_config_format_applies_when_flag_absent(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"model": "oscillator", "format": "json",
                                   "method": "analytic", "n_max": 0}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfgfile))
    assert code == 0
    json.loads(out)


def test_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"modle": "oscillator"}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfgfile))
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("family", [f.value for f in Family if f is not Family.CUSTOM])
def test_a_built_in_family_config_refuses_tabulated_samples(capsys, tmp_path, family):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"model": family, "w_samples": [1.0] * 5}))
    assert run_cli(capsys, "spectrum", "--config", str(cfgfile)) == (
        2, "", f"error: unknown config keys for spectrum --model {family}: w_samples\n")


def test_malformed_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--grid", "1,2")
    assert code == 2
    assert "grid" in err


def test_integral_grid_point_count_reads_in_any_float_spelling(capsys):
    runs = [run_cli(capsys, "partner", "--model", "oscillator", "--grid", f"0.5,3,{npts}")
            for npts in ("11", "11.0", "1.1e1")]
    assert runs[0][0] == 0 and runs[0][1].count("\n") == 12
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("grid,shown", [("0,1,inf", "'inf'"), ("0,1,1e400", "'1e400'"),
                                        ([0, 1, math.inf], "inf")],
                         ids=["flag-inf", "flag-beyond-float", "config-infinity"])
def test_an_infinite_grid_npts_gets_the_npts_refusal(capsys, tmp_path, grid, shown):
    """An NPTS beyond the float range, from a flag or as JSON Infinity in a
    config file, is refused as a non-integer NPTS, shown as it was given."""
    argv = ["spectrum", "--grid", grid]
    if not isinstance(grid, str):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"grid": grid}))
        argv = ["spectrum", "--config", str(cfgfile)]
    assert run_cli(capsys, *argv) == (2, "", f"error: grid NPTS must be an integer, got {shown}\n")


NUMERIC_ENTRIES = "grid must be 'rmin,rmax,npts' with numeric entries"


@pytest.mark.parametrize("config,message", [
    ({"grid": [10**400, 1, 11]}, NUMERIC_ENTRIES),
    ({"grid": [0, 10**400, 11]}, NUMERIC_ENTRIES),
    ({"grid": [0, 1, 10**400]}, NUMERIC_ENTRIES),
    ({"model": "custom", "grid": [0, 1, 3], "w_samples": [10**400, 0, 0],
      "w_prime_samples": [0, 0, 0]},
     "invalid model configuration: custom w_samples must be numbers"),
    ({"model": "custom", "grid": [0, 1, 3], "w_samples": [0, 0, 0],
      "w_prime_samples": [0, 10**400, 0]},
     "invalid model configuration: custom w_prime_samples must be numbers"),
], ids=["grid-r_min", "grid-r_max", "grid-npts", "w_samples", "w_prime_samples"])
def test_a_config_integer_beyond_the_float_range_is_refused_as_not_a_number(
        capsys, tmp_path, config, message):
    """A 400-digit JSON integer has no float: a grid entry of that size gets
    the grid's own refusal, a tabulated sample the samples' one."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    assert run_cli(capsys, "spectrum", "--config", str(cfgfile)) == (2, "", f"error: {message}\n")


def test_build_parser_without_a_command_takes_every_subcommand_flag():
    parser = cli.build_parser()
    for command, (_, reads) in cli.COMMANDS.items():
        flags = [f"--{key.replace('_', '-')}=0" for key in reads if key != "checks"]
        args = parser.parse_args([command, "--omega=2", *flags])
        assert args.command == command and args.omega == 2.0


def test_one_parser_serves_every_invocation_of_a_process(capsys, monkeypatch):
    """build_parser builds once; parsing leaves the parser as it was, so help,
    a refusal and a run read the same the second time."""
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["spectrum", "--help"], ["spectrum", "--bogus", "1"], ["spectrum"]):
        first = run_cli(capsys, *argv)
        assert first[1] or first[2]
        assert run_cli(capsys, *argv) == first


def test_negative_r_min_grid_reads_with_a_space_or_an_equals_sign(capsys):
    spaced = run_cli(capsys, "spectrum", "--model", "morse", "--grid", "-12,40,801")
    joined = run_cli(capsys, "spectrum", "--model", "morse", "--grid=-12,40,801")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""
    spaced = run_cli(capsys, "spectrum", "--model", "anharmonic", "--a", "-1e-05")
    joined = run_cli(capsys, "spectrum", "--model", "anharmonic", "--a=-1e-05")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_negative_n_max_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--n-max", "-1")
    assert code == 2
    assert "n-max" in err


@pytest.mark.parametrize("command,key,value", [
    ("spectrum", "omega", "abc"),
    ("spectrum", "ell", "abc"),
    ("spectrum", "ell", 1.5),
    ("spectrum", "n_max", "abc"),
    ("wavefunction", "n", "abc"),
    ("spectrum", "omega", True),
    ("spectrum", "omega", False),
    ("spectrum", "n_max", True),
    ("spectrum", "ell", False),
], ids=["omega-text", "ell-text", "ell-fraction", "n_max-text", "n-text", "omega-true",
        "omega-false", "n_max-true", "ell-false"])
def test_config_value_of_the_wrong_kind_is_usage_error(capsys, tmp_path, command, key, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config value {key} ") and err.count("\n") == 1


def _custom_config(w_samples):
    return {"model": "custom", "grid": [0, 6, 5], "w_samples": w_samples,
            "w_prime_samples": [1.0] * 5}


@pytest.mark.parametrize("argv,config", [
    (("spectrum", "--model", "coulomb", "--kappa", "inf"), None),
    (("spectrum", "--model", "oscillator", "--grid", "0.001,inf,100"), None),
    (("spectrum", "--model", "oscillator", "--grid", "0.001,1,5", "--n-max", "10"), None),
    (("wavefunction", "--method", "numeric", "--n", "10", "--grid", "0.001,1,5"), None),
    (("spectrum",), _custom_config(["a", 1, 2, 3, 4])),
    (("spectrum",), _custom_config(3)),
    (("verify", "--model", "oscillator", "--grid", "0.001,1,5"), None),
    (("verify", "--model", "morse", "--n-max", "5"), None),
    (("wavefunction", "--model", "morse", "--n", "3"), None),
    (("verify", "--checks", ","), None),
    (("spectrum", "--model", "anharmonic", "--method", "analytic", "--n-max", "1"), None),
    (("spectrum", "--model", "morse", "--method", "analytic", "--n-max", "5"), None),
    (("spectrum", "--method", "analytic"), _custom_config([1.0] * 5)),
    (("wavefunction", "--method", "both"), None),
    (("wavefunction", "--model", "sextic", "--n", "1"), None),
    (("wavefunction", "--method", "analytic", "--n", "1"), _custom_config([1.0] * 5)),
    (("verify", "--checks", "analytic_vs_numeric", "--n-max", "1"), _custom_config([1.0] * 5)),
    (("spectrum", "--checks", "analytic_vs_numeric"), _custom_config([1.0] * 5)),
    (("partner", "--model", "oscillator", "--grid", "0.5,3,3", "--checks", "isospectral"), None),
    (("verify", "--format", "csv"), None),
    (("partner", "--method", "analytic"), None),
    (("verify", "--method", "both"), None),
    (("spectrum", "--n", "1"), None),
    (("spectrum", "--kap", "2"), None),
    (("spectrum", "--model", "foo"), None),
    (("spectrum", "--bogus", "1"), None),
    (("spectrum", "--model", "oscillator", "--kappa", "5"), None),
    (("spectrum", "--model", "morse", "--ell", "3"), None),
    (("spectrum",), {"model": "oscillator", "checks": "isospectral"}),
    (("spectrum", "--model", "coulomb", "--n-max", "1" + "0" * 400), None),
    (("partner",), {"model": "oscillator", "grid": [0.5, True, 11]}),
    (("spectrum", "--model", "oscillator", "--grid", "0.5,3,11.7"), None),
    (("partner",), {"model": "oscillator", "grid": [0.5, 3, 11.7]}),
], ids=["non-finite-kappa", "non-finite-grid", "n-max-beyond-grid", "n-beyond-grid",
        "custom-w-text", "custom-w-scalar", "checks-beyond-grid", "verify-beyond-tower",
        "wavefunction-beyond-tower", "no-checks", "qes-analytic-spectrum-above-ground",
        "spectrum-beyond-tower", "custom-analytic-spectrum", "wavefunction-method-both",
        "qes-analytic-wavefunction-above-ground", "custom-analytic-wavefunction-above-ground",
        "custom-verify-closed-form-check", "custom-spectrum-closed-form-check",
        "partner-checks", "verify-format", "partner-method", "verify-method", "n-on-spectrum",
        "flag-prefix", "unknown-family", "unknown-flag", "param-of-another-family",
        "ell-without-ell", "spectrum-config-checks", "n-max-beyond-float", "grid-list-boolean",
        "grid-fractional-npts", "grid-list-fractional-npts"])
def test_bad_input_is_one_line_usage_error(capsys, tmp_path, argv, config):
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        argv = (*argv, "--config", str(cfgfile))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_only_the_flags_the_subcommand_reads(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0 and err == ""
    listed = set(re.findall(r"^  (--[\w-]+)", out, flags=re.M)) - {"--help"}
    model = {"--model", "--grid", "--config", "--ell", "--omega", "--B", "--kappa", "--a",
             "--alpha", "--b", "--omega-t", "--e2"}
    assert listed == model | {"--" + k.replace("_", "-") for k in cli.COMMANDS[command][1]}


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_allocation_failure_is_one_line_runtime_error(capsys, monkeypatch, command):
    # a grid of 1e11 points cannot be sampled; the failure is raised here
    # instead of attempted, which would allocate 745 GiB
    def no_memory(grid):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")

    monkeypatch.setattr(RadialGrid, "points", no_memory)
    code, out, err = run_cli(capsys, command, "--model", "oscillator",
                             "--grid", "0.001,5,100000000000")
    assert code == 3 and out == ""
    assert err == ("error: out of memory: Unable to allocate 745. GiB for an array with "
                   "shape (100000000000,) and data type float64\n")


# ------------------------------------------------------------ family table

CONSTRUCTORS = {
    Family.OSCILLATOR: oscillator_model,
    Family.COULOMB: coulomb_model,
    Family.MORSE: morse_model,
    Family.ANHARMONIC_QES: anharmonic_model,
    Family.SEXTIC_QES: sextic_model,
    Family.DEFORMED_COULOMB_QES: deformed_coulomb_model,
}


@pytest.mark.parametrize("family", list(CONSTRUCTORS), ids=lambda f: f.value)
def test_family_record_covers_the_model_and_drives_the_cli(capsys, family):
    record = FAMILIES[family]
    # every parameter the model carries and validates is named in the record
    assert set(CONSTRUCTORS[family](**record.params).params) == set(record.params)
    for key in record.params:
        with pytest.raises(ConfigurationError, match=key):
            ModelSpec(family, {**record.params, key: math.nan})
        with pytest.raises(ConfigurationError, match=key):
            ModelSpec(family, {k: v for k, v in record.params.items() if k != key})
    # CLI defaults resolve to the record's defaults and solve on a small grid
    argv = ["spectrum", "--model", family.value, "--method", "numeric", "--n-max", "0",
            "--grid", "0.01,6,201"]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert dict(cfg.model.params) == record.params
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert parse_csv(out)[1][0][4] == "numeric"
    # closed-form states come from the record: unit spinor norm on the default
    # window for every level it knows, a ConfigurationError above them
    model = cfg.model
    grid = record.window(model, 2)
    if record.closed_form == "all":
        assert record.epsilon_sq is not None and record.envelope is not None
    else:
        assert record.log_zero_mode is not None
    known = int(min(2, model.max_level)) if record.closed_form == "all" else 0
    for n in range(known + 1):
        f_minus, f_plus = analytic_wavefunctions(model, n, grid)
        assert quadrature(f_minus**2 + f_plus**2, grid) == pytest.approx(1.0, abs=1e-8)
    if record.closed_form == "ground":
        assert not np.any(f_plus)
        with pytest.raises(ConfigurationError):
            analytic_wavefunctions(model, 1, grid)


# ------------------------------------------------------------ flag space

@st.composite
def invocations(draw):
    """A built-in family with parameters drawn from half to twice their
    defaults, a subcommand and the flags it and the family take, on an
    explicit grid of at most 401 points (negative r_min for Morse)."""
    family = draw(st.sampled_from([f for f in Family if f is not Family.CUSTOM]))
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    reads = cli.COMMANDS[command][1]
    argv = [command, "--model", family.value]
    if "format" in reads:
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    for key, default in FAMILIES[family].params.items():
        value = default * draw(st.floats(0.5, 2.0)) if default else draw(st.floats(0.0, 2.0))
        flag = "--" + cli._PARAM_KEYS.get(key, key).replace("_", "-")
        argv += [flag, repr(round(value, 3))]
    r_min = draw(st.sampled_from([-8.0, -2.0, 0.0]) if family is Family.MORSE
                 else st.sampled_from([0.0, 1e-4, 1e-2]))
    r_max = round(draw(st.floats(3.0, 30.0)), 2)
    n_points = draw(st.sampled_from([401, 201, 101, 3]))
    argv += ["--grid", f"{r_min!r},{r_max!r},{n_points}"]
    optional = {"ell": st.integers(0, 2), "n_max": st.integers(0, 6),
                "method": st.sampled_from(["analytic", "numeric", "both"]),
                "checks": st.lists(st.sampled_from(list(cli.CHECKS)), min_size=1,
                                   unique=True).map(",".join),
                "n": st.integers(0, 4)}
    # only the settings this subcommand and family read
    takes = {*reads, *(["ell"] if FAMILIES[family].has_ell else [])}
    for key, values in optional.items():
        if key in takes and draw(st.booleans()):
            argv += ["--" + key.replace("_", "-"), str(draw(values))]
    return argv


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _spectrum_rows(out, fmt):
    if fmt == "json":
        return json.loads(out)["levels"]
    header, rows = parse_csv(out)
    return [dict(zip(header, row)) for row in rows]


@given(argv=invocations())
def test_flag_space_exits_cleanly_and_deterministically(argv):
    """Any drawn invocation exits 0-3; a usage or runtime failure is one
    "error:" line on stderr (or, for a verify check that cannot run, in the
    report), with no traceback or numpy warning; spectrum rows satisfy
    E^2 = m^2 c^4 + hbar^2 c^2 eps^2; a second run prints the same bytes."""
    code, out, err, caught = _run_quietly(argv)
    assert code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if err:
        assert code in (2, 3) and err.count("\n") == 1 and err.startswith("error: "), err
    elif code in (2, 3):
        assert argv[0] == "verify" and code == 3
        assert any(e["metric"] is None and e["detail"].startswith("error: ")
                   for e in json.loads(out)["entries"])
    if argv[0] == "spectrum" and code == 0:
        for row in _spectrum_rows(out, argv[argv.index("--format") + 1]):
            e_plus, e_minus, eps_sq = (float(row[k]) for k in
                                       ("energy_plus", "energy_minus", "epsilon_sq"))
            assert e_minus == -e_plus
            assert abs(e_plus**2 - 1.0 - eps_sq) <= 8 * np.finfo(float).eps * max(e_plus**2, 1.0)
    assert _run_quietly(argv)[:3] == (code, out, err)


#: parameters and windows whose squares, powers or spacing leave the float range
EXTREME_MAGNITUDES = [
    ("spectrum", "--model", "coulomb", "--kappa=1e300"),
    ("spectrum", "--model", "coulomb", "--kappa=1e-300"),
    ("spectrum", "--model", "coulomb", "--grid", "0.5,1e300,11"),
    ("spectrum", "--model", "morse", "--grid", "1e-300,1e-299,11"),
    ("spectrum", "--model", "oscillator", "--omega=1e300"),
    ("spectrum", "--model", "oscillator", "--omega=1e307", "--method", "analytic", "--n-max", "9"),
    ("verify", "--model", "sextic", "--grid", "0.5,1e300,11"),
    ("verify", "--model", "sextic", "--grid", "1e160,1e161,11"),
    ("wavefunction", "--method", "analytic", "--model", "morse", "--grid", "-1000,10,11",
     "--n", "2"),
    ("wavefunction", "--method", "analytic", "--model", "coulomb", "--grid",
     "1e-300,1e300,11", "--n", "3"),
]


@pytest.mark.parametrize("argv", EXTREME_MAGNITUDES, ids=" ".join)
def test_extreme_magnitudes_exit_with_one_error_line(argv):
    """Exit 2 or 3 with one "error:" line on stderr (for verify, in the
    report), with no traceback or numpy warning."""
    code, out, err, caught = _run_quietly(list(argv))
    assert code in (2, 3) and not caught, [str(w.message) for w in caught]
    if argv[0] == "verify":
        assert err == "" and all(e["metric"] is None and e["detail"].startswith("error: ")
                                 for e in json.loads(out)["entries"])
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err


#: windows and parameters whose Newton steps square and cube past the float range
FLOAT_RANGE_NEWTON_STEPS = [
    ("spectrum", "--model", "oscillator", "--grid", "0,1e-70,801", "--n-max", "2"),
    ("spectrum", "--model", "oscillator", "--grid", "1e-80,1e-70,801", "--n-max", "2"),
    ("spectrum", "--model", "anharmonic", "--b", "1e150", "--n-max", "2"),
    ("spectrum", "--model", "anharmonic", "--grid", "0,1e75,801", "--n-max", "2"),
    ("spectrum", "--model", "sextic", "--b", "1e120", "--n-max", "1"),
    ("spectrum", "--model", "anharmonic", "--omega-t", "1e100", "--n-max", "1"),
]


@pytest.mark.parametrize("argv", FLOAT_RANGE_NEWTON_STEPS, ids=" ".join)
def test_newton_steps_beyond_the_float_range_print_quietly(argv):
    """Newton's offer test compares step^3 with eff_tol step_prev^2 / 64 as
    products, which overflow to inf quietly: the levels print, with no
    traceback and no numpy warning."""
    code, out, err, caught = _run_quietly(list(argv))
    assert code == 0 and out and err == "" and not caught, [str(w.message) for w in caught]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    *[("partner", "--model", family, "--grid", "0,5,101", "--format", "json")
      for family in ("oscillator", "coulomb", "deformed-coulomb")],
    ("verify", "--model", "coulomb", "--kappa=1e150"),
], ids=" ".join)
def test_json_output_is_strict_where_a_value_leaves_the_float_range(argv):
    """JSON has no NaN or Infinity: a partner sample on the 1/r pole prints as
    null, and a verify metric that is not a finite number is a check that
    cannot run (exit 3); nothing reaches stderr and numpy warns of nothing."""
    code, out, err, caught = _run_quietly(list(argv))
    assert err == "" and not caught, [str(w.message) for w in caught]
    doc = json.loads(out, parse_constant=_refuse_constant)
    if argv[0] == "partner":
        assert code == 0
        assert doc["v_minus"][0] is None and doc["v_plus"][0] is None
        assert all(v is not None for v in doc["v_minus"][1:] + doc["v_plus"][1:])
    else:
        assert code == 3
        (entry,) = [e for e in doc["entries"] if e["check"] == "ground_residual"]
        assert entry["metric"] is None and entry["tolerance"] is None
        assert entry["detail"].startswith("error: NumericError: ")


@pytest.mark.parametrize("argv", [
    ("wavefunction", "--method", "analytic", "--model", "oscillator", "--grid", "0.5,1e300,11"),
    ("wavefunction", "--method", "analytic", "--model", "coulomb", "--grid", "0.5,1e308,11"),
    ("wavefunction", "--method", "analytic", "--model", "morse", "--grid", "-1000,10,11"),
], ids=" ".join)
def test_closed_form_envelope_beyond_the_float_range_prints_quietly(argv):
    """An envelope that overflows far out on the window underflows to zero
    once peak-shifted: the state prints, with nothing on stderr."""
    code, out, err, caught = _run_quietly(list(argv))
    assert code == 0 and out and err == "" and not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", [("spectrum", "--method", "analytic"), ("spectrum",),
                                     ("verify",), ("wavefunction",), ("partner",)],
                         ids=" ".join)
def test_morse_ratio_beyond_the_float_range_has_no_finite_top(command):
    """b / alpha overflows: the tower has no finite top, the closed-form levels
    still print, and what cannot be computed is one "error:" line (for verify,
    in the report), with no traceback or numpy warning."""
    argv = [*command, "--model", "morse", "--b=1e200", "--alpha=1e-200"]
    code, out, err, caught = _run_quietly(argv)
    assert code in (0, 2, 3) and not caught, [str(w.message) for w in caught]
    if command == ("spectrum", "--method", "analytic"):
        assert code == 0 and err == "" and len(parse_csv(out)[1]) == 5
    elif command == ("verify",):
        assert err == "" and all(e["metric"] is None and e["detail"].startswith("error: ")
                                 for e in json.loads(out)["entries"])
    elif code:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("family", ["morse", "anharmonic", "custom"])
@pytest.mark.parametrize("command", [("partner",), ("spectrum", "--n-max", "1")], ids=" ".join)
def test_a_window_whose_width_overflows_is_a_usage_error(tmp_path, command, family, source):
    """r_max - r_min beyond the float range is one usage error, from a flag or
    a config list, with no output and no numpy warning from linspace."""
    config = {"model": family}
    if family == "custom":
        config.update(w_samples=[1.0] * 5, w_prime_samples=[0.0] * 5)
    argv = [*command]
    if source == "flag":
        argv.append("--grid=-1e308,1e308,5")
    else:
        config["grid"] = [-1e308, 1e308, 5]
    cfgfile = tmp_path / "overflow.json"
    cfgfile.write_text(json.dumps(config))
    code, out, err, caught = _run_quietly(argv + ["--config", str(cfgfile)])
    assert not caught, [str(w.message) for w in caught]
    assert (code, out, err) == (2, "", "error: grid width r_max - r_min overflows\n")
