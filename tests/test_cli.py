"""End-to-end CLI tests driven through main(argv) in process."""

import json
import math
import warnings

import numpy as np
import pytest

from susyrad import (
    ConfigurationError,
    Family,
    ModelSpec,
    analytic_wavefunctions,
    anharmonic_model,
    cli,
    coulomb_model,
    deformed_coulomb_model,
    morse_model,
    oscillator_model,
    sextic_model,
)
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


def test_partner_interior_singularity_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "partner", "--model", "coulomb",
                           "--grid=-1,20,22")
    assert code == 3
    assert "singular" in err


# ----------------------------------------------------------------- verify


def test_verify_oscillator_runs_all_five_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = [e["check"] for e in doc["entries"]]
    assert names == list(cli.CANONICAL_CHECKS)
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


def test_verify_wall_compatible_qes_gets_spectral_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "anharmonic",
                           "--a", "-8")
    assert code == 0
    doc = json.loads(out)
    names = [e["check"] for e in doc["entries"]]
    assert "isospectral" in names and "analytic_vs_numeric" in names
    assert doc["all_passed"] is True


def test_verify_checks_subset_in_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator",
                           "--checks", "orthonormal,intertwine")
    assert code == 0
    names = [e["check"] for e in json.loads(out)["entries"]]
    assert names == ["intertwine", "orthonormal"]


def test_verify_is_json_even_when_csv_requested(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "oscillator",
                           "--format", "csv", "--checks", "orthonormal")
    assert code == 0
    json.loads(out)  # must parse


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


def test_verify_report_is_deterministic(capsys):
    args = ("verify", "--model", "oscillator", "--checks", "orthonormal")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


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


def test_malformed_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "oscillator",
                           "--grid", "1,2")
    assert code == 2
    assert "grid" in err


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
], ids=["omega-text", "ell-text", "ell-fraction", "n_max-text", "n-text"])
def test_config_value_of_the_wrong_kind_is_usage_error(capsys, tmp_path, command, key, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config value {key} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", "coulomb", "--kappa", "inf"),
    ("spectrum", "--model", "oscillator", "--grid", "0.001,inf,100"),
    ("spectrum", "--model", "oscillator", "--grid", "0.001,1,5", "--n-max", "10"),
    ("wavefunction", "--method", "numeric", "--n", "10", "--grid", "0.001,1,5"),
], ids=["non-finite-kappa", "non-finite-grid", "n-max-beyond-grid", "n-beyond-grid"])
def test_bad_input_is_one_line_usage_error(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1


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
    # window where the family is solvable, a ConfigurationError where it is not
    model = cfg.model
    grid = record.window(model, 2)
    if record.closed_form == "all":
        assert record.epsilon_sq is not None and record.envelope is not None
        for n in range(int(min(2, model.max_level)) + 1):
            wf = analytic_wavefunctions(model, n, grid)
            assert wf.spinor_norm() == pytest.approx(1.0, abs=1e-8)
    else:
        with pytest.raises(ConfigurationError):
            analytic_wavefunctions(model, 0, grid)
