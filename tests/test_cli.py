"""Command-line interface: parsing, CSV output, config files, exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polrot
from polrot.cli import build_parser, main, parse_angle, _theta_grid
from polrot.detection import closed_form_sensitivity, pipeline_signal, qcrb_sensitivity
from polrot.elements import PipelineSpec
from polrot.fock import required_cutoff

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# -- angle parsing ------------------------------------------------------------


def test_parse_angle_pi_fractions_exact():
    assert parse_angle("pi/4") == np.pi / 4
    assert parse_angle("pi/2") == np.pi / 2
    assert parse_angle("pi") == np.pi
    assert parse_angle("-pi/2") == -np.pi / 2
    assert parse_angle("2pi") == 2 * np.pi
    assert parse_angle("3pi/8") == 3 * np.pi / 8
    assert parse_angle("0.5pi") == 0.5 * np.pi
    assert parse_angle("PI/4") == np.pi / 4


def test_parse_angle_plain_numbers():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("-1e-3") == -1e-3
    assert parse_angle("0") == 0.0


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "pi/", "x*pi", "1..2", ""):
        with pytest.raises(ValueError):
            parse_angle(bad)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400", float("inf"), float("nan")])
def test_parse_angle_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="angle .* is not finite"):
        parse_angle(bad)


def test_theta_grid_hits_quarter_turn_exactly():
    grid = _theta_grid(181)
    assert len(grid) == 181
    assert grid[0] == 0.0
    assert grid[-1] == np.pi / 2
    assert grid[90] == np.pi / 4
    with pytest.raises(ValueError):
        _theta_grid(1)


# -- signal command -----------------------------------------------------------


def test_signal_default_grid(capsys):
    code, out, _ = run_cli(capsys, "signal")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta_rad", "signal", "p_even", "p_odd"]
    assert len(rows) == 181
    assert rows[0][1] == pytest.approx(1.0 / 11.0, abs=1e-12)
    assert rows[90][1] == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert row[2] + row[3] == pytest.approx(1.0, abs=1e-12)
        assert row[2] - row[3] == pytest.approx(row[1], abs=1e-12)


def test_signal_single_angle(capsys):
    code, out, _ = run_cli(
        capsys, "signal", "--variant", "r1", "--t1", "0.5", "--t2", "0.5",
        "--theta", "pi/4", "--n", "10",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == np.pi / 4
    assert rows[0][1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)


def test_signal_r2_noiseless_matches_lossless(capsys):
    code_a, out_a, _ = run_cli(capsys, "signal", "--theta-steps", "21")
    code_b, out_b, _ = run_cli(
        capsys, "signal", "--variant", "r2", "--t", "1", "--nth", "0",
        "--theta-steps", "21",
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_signal_to_file(capsys, tmp_path):
    path = tmp_path / "sig.csv"
    code, out, _ = run_cli(capsys, "signal", "--theta-steps", "5", "--out", str(path))
    assert code == 0
    assert out == ""
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8").startswith("theta_rad,signal")


def test_signal_rejects_bad_variant_params(capsys):
    code, _, err = run_cli(capsys, "signal", "--variant", "r1", "--t1", "0.5")
    assert code == 1
    assert "error" in err


# -- sensitivity command ------------------------------------------------------


def test_sensitivity_columns_and_summary(capsys):
    code, out, _ = run_cli(capsys, "sensitivity", "--theta-steps", "21")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta_rad", "delta_theta", "fisher", "hl", "inv_n", "is_optimal"]
    assert len(rows) == 22
    body, summary = rows[:-1], rows[-1]
    assert all(row[5] == 0.0 for row in body)
    assert summary[5] == 1.0
    assert summary[0] == pytest.approx(np.pi / 4, abs=1e-6)
    assert summary[1] == pytest.approx(qcrb_sensitivity(10.0), rel=1e-9)
    for row in rows:
        assert row[3] == pytest.approx(1.0 / 20.0, rel=1e-15)
        assert row[4] == pytest.approx(1.0 / 10.0, rel=1e-15)
        if math.isinf(row[1]):
            assert row[2] == 0.0
        else:
            assert row[2] == pytest.approx(1.0 / row[1] ** 2, rel=1e-12)


def test_sensitivity_divergent_rows_serialize_inf(capsys):
    code, out, _ = run_cli(
        capsys, "sensitivity", "--variant", "r1", "--t1", "0.5", "--t2", "0.5",
    )
    assert code == 0
    lines = out.strip("\n").split("\n")
    # default 181-point grid: row 91 sits exactly on the quarter turn
    mid = lines[91].split(",")
    assert mid[1] == "inf"
    assert mid[2] == "0"
    _, rows = parse_csv(out)
    assert rows[-1][1] == pytest.approx(1.403654422, rel=1e-6)


@pytest.mark.parametrize(
    "argv, named",
    [
        (("sensitivity", "--theta", "inf", "--n", "10"), "angle 'inf'"),
        (("sensitivity", "--theta", "1e400"), "angle '1e400'"),
        (("fock-validate", "--theta", "inf"), "angle 'inf'"),
        (("sensitivity", "--n", "nan"), "n must be"),
        (("fig4", "--n", "inf", "--t-steps", "2", "--nth-steps", "2"), "n must be"),
        (("fig2", "--n", "1e200", "--t1-steps", "2", "--t2-steps", "2"), "n must be"),
        (("fig5", "--nth", "nan", "--t-steps", "2", "--n-steps", "2"), "n_th must be"),
        (("signal", "--variant", "r2", "--t", "0.5", "--nth", "inf"), "n_th must be"),
        (("fock-validate", "--n", "inf", "--cutoff", "5"), "mean photon number n"),
        # the r1 closed form cancels to an optimum of 0, below the quantum bound
        (
            ("sensitivity", "--variant", "r1", "--t1", "0.1", "--t2", "1", "--n", "1e40", "--theta-steps", "5"),
            "below the quantum bound 5e-41 at n = 1e+40",
        ),
    ],
)
def test_non_finite_or_overflowing_input_exits_one(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert named in err
    assert "diverges" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("signal", "--n", "3e7"),
        ("signal", "--n", "1e8", "--theta", "pi/8"),
        ("signal", "--variant", "r1", "--t1", "0.5", "--t2", "0.7", "--n", "1e7"),
        ("signal", "--variant", "r2", "--t", "0.9", "--nth", "0.01", "--n", "1001"),
    ],
)
def test_signal_beyond_the_pipeline_limit_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"n = {float(argv[argv.index('--n') + 1])!r} exceeds the matrix pipeline limit n <= 1000" in err


@pytest.mark.parametrize("nth", ["1e9", "100000.00000000001"])
def test_signal_beyond_the_pipeline_n_th_limit_exits_one(capsys, nth):
    code, out, err = run_cli(capsys, "signal", "--variant", "r2", "--t", "0.9", "--nth", nth, "--theta", "pi/8")
    assert code == 1
    assert out == ""
    assert f"n_th = {float(nth)!r} exceeds the matrix pipeline limit n_th <= 100000" in err


def test_fock_validate_cutoff_too_large_for_memory_exits_one(capsys):
    code, out, err = run_cli(capsys, "fock-validate", "--n", "1", "--cutoff", "100000", "--t1", "0.9", "--t2", "0.9")
    assert code == 1
    assert out == ""
    assert f"cutoff 100000 needs {100001**4 * 16} bytes" in err
    # the cutoff the tail bound picks for n = 10 does not fit either
    code, out, err = run_cli(capsys, "fock-validate", "--n", "10")
    assert code == 1
    assert out == ""
    assert f"cutoff {required_cutoff(10.0)} needs {(required_cutoff(10.0) + 1) ** 4 * 16} bytes" in err


def test_config_infinite_angle_exits_one(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"theta": Infinity}')
    code, _, err = run_cli(capsys, "sensitivity", "--config", str(cfg))
    assert code == 1
    assert "angle inf is not finite" in err


def test_sensitivity_requires_positive_n(capsys):
    code, _, err = run_cli(capsys, "sensitivity", "--n", "0")
    assert code == 1
    assert "n > 0" in err


# -- figure commands ----------------------------------------------------------


def test_fig_commands_small_grids(capsys):
    for args, ncols in (
        (("fig2", "--t1-steps", "3", "--t2-steps", "3"), 5),
        (("fig3", "--t-steps", "3", "--n-steps", "2"), 6),
        (("fig4", "--t-steps", "3", "--nth-steps", "3"), 5),
        (("fig5", "--t-steps", "3", "--n-steps", "2"), 6),
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(header) == ncols
        assert len(rows) in (6, 9)


def test_fig_output_deterministic(capsys):
    code_a, out_a, _ = run_cli(capsys, "fig2", "--t1-steps", "4", "--t2-steps", "4")
    code_b, out_b, _ = run_cli(capsys, "fig2", "--t1-steps", "4", "--t2-steps", "4")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_fig_unwritable_out_path(capsys):
    code, _, err = run_cli(
        capsys, "fig3", "--t-steps", "3", "--n-steps", "2",
        "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 1
    assert "error" in err


# Flag values behind the committed reference grids (see test_sweeps.py),
# spelled as config keys; fig5 takes its thermal occupation as nth.
REFERENCE_FLAGS = {
    "fig2": {"n": 8.0, "t1_steps": 7, "t2_steps": 6},
    "fig3": {"t_steps": 7, "n_steps": 5},
    "fig4": {"n": 10.0, "t_steps": 6, "nth_steps": 7},
    "fig5": {"nth": 0.05, "t_steps": 7, "n_steps": 5},
}


@pytest.mark.parametrize("figure", sorted(REFERENCE_FLAGS))
def test_fig_flags_and_config_match_reference(capsys, tmp_path, figure):
    values = REFERENCE_FLAGS[figure]
    flags = [arg for key, value in values.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    want = (DATA / f"{figure}_ref.csv").read_bytes()
    for name, args in (("flags", flags), ("config", ["--config", str(cfg)])):
        out = tmp_path / f"{name}.csv"
        code, _, err = run_cli(capsys, figure, *args, "--out", str(out))
        assert code == 0, err
        assert out.read_bytes() == want, name


# Flags behind the committed signal/sensitivity reference curves.  Nine
# angles put exact multiples of pi/8 on the grid, so the sensitivity files
# hold the divergent (inf) rows at 0, pi/2 and, for r2, the quarter turn.
REFERENCE_VARIANT_FLAGS = {
    "lossless": ["--variant", "lossless", "--n", "10"],
    "r1": ["--variant", "r1", "--n", "10", "--t1", "0.3", "--t2", "0.9"],
    "r2": ["--variant", "r2", "--n", "10", "--t", "0.9", "--nth", "0.01"],
}


@pytest.mark.parametrize("variant", sorted(REFERENCE_VARIANT_FLAGS))
@pytest.mark.parametrize("command", ["signal", "sensitivity"])
def test_curve_command_matches_reference(capsys, command, variant):
    code, out, err = run_cli(capsys, command, *REFERENCE_VARIANT_FLAGS[variant], "--theta-steps", "9")
    assert code == 0, err
    assert out.encode() == (DATA / f"{command}_{variant}_ref.csv").read_bytes()


def test_fig5_config_takes_nth_not_n_th(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_th": 0.1}))
    code, _, err = run_cli(capsys, "fig5", "--config", str(cfg))
    assert code == 1
    assert "unknown config keys" in err


# -- config files -------------------------------------------------------------


def test_config_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_steps": 5, "n": 2.0}))
    code, out, _ = run_cli(capsys, "signal", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert rows[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cli_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_steps": 5}))
    code, out, _ = run_cli(capsys, "signal", "--config", str(cfg), "--theta-steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_step": 5}))
    code, _, err = run_cli(capsys, "signal", "--config", str(cfg))
    assert code == 1
    assert "unknown config keys" in err


def test_config_rejects_malformed_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "signal", "--config", str(cfg))
    assert code == 1


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "signal", "--config", "/no/such/file.json")
    assert code == 1


# -- usage errors -------------------------------------------------------------


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["signal", "--bogus"])
    assert err.value.code == 1


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_missing_command_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


# -- number-basis validation command ------------------------------------------


def test_fock_validate_single_point(capsys):
    code, out, _ = run_cli(capsys, "fock-validate", "--n", "1", "--theta", "0")
    assert code == 0
    assert "fock=0.500000000" in out
    assert "pipeline=0.500000000" in out
    assert "all 10 cases pass" in out


def test_fock_validate_restricted_case(capsys):
    code, out, _ = run_cli(
        capsys, "fock-validate", "--n", "0.5", "--t1", "0.5", "--t2", "0.8",
        "--theta", "pi/8",
    )
    assert code == 0
    assert "all 1 cases pass" in out
    assert "t1=0.5 t2=0.8" in out


def test_fock_validate_insufficient_cutoff(capsys):
    code, _, err = run_cli(capsys, "fock-validate", "--n", "2", "--cutoff", "2")
    assert code == 2
    assert "33" in err


def test_fock_validate_huge_n_names_required_cutoff(capsys):
    code, _, err = run_cli(capsys, "fock-validate", "--n", "1e17", "--cutoff", "40")
    assert code == 2
    assert f"cutoff >= {required_cutoff(1e17)}" in err


def test_fock_validate_n_above_two_uses_the_required_cutoff(capsys):
    code, out, _ = run_cli(capsys, "fock-validate", "--n", "3", "--t1", "0.8", "--t2", "0.5", "--theta", "pi/8")
    assert code == 0
    assert f"cutoff={required_cutoff(3.0)} " in out
    assert "all 1 cases pass" in out


def test_fock_validate_partial_loss_pair(capsys):
    code, _, err = run_cli(capsys, "fock-validate", "--n", "1", "--t1", "0.5")
    assert code == 1
    assert "both" in err


# -- console script -----------------------------------------------------------


def _cli_process(tmp_path, *argv):
    """Run the CLI as its own process, on the polrot package imported here.

    ``python -m polrot`` calls the same ``entry`` as the installed script, so
    the tests need no install; the package's parent directory goes first on
    the child's PYTHONPATH so that it runs the code under test.
    """
    env = dict(os.environ)
    package_root = str(Path(polrot.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polrot", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )


def test_console_script_roundtrip(tmp_path):
    out = tmp_path / "s.csv"
    proc = _cli_process(tmp_path, "signal", "--theta-steps", "5", "--out", str(out))
    assert proc.returncode == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["theta_rad", "signal", "p_even", "p_odd"]
    assert len(rows) == 5
    want = pipeline_signal(PipelineSpec.lossless(theta=np.pi / 8, n=10.0))
    assert rows[1][1] == pytest.approx(want, abs=1e-15)


def test_console_script_usage_error(tmp_path):
    proc = _cli_process(tmp_path, "--bad-flag")
    assert proc.returncode == 1
    assert "usage: polrot" in proc.stderr


def test_console_script_entry_point(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["polrot"]
    assert target == "polrot.cli:entry"
    module_name, func_name = target.split(":")
    func = getattr(importlib.import_module(module_name), func_name)
    monkeypatch.setattr(sys, "argv", ["polrot", "--bad-flag"])
    with pytest.raises(SystemExit) as err:
        func()
    assert err.value.code == 1
