"""Command-line interface: exit codes, output lines, flag handling."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rfpe_lab
from rfpe_lab import scenarios
from rfpe_lab.cli import main


def _tiny(tmp_path, **over):
    cfg = {"schema": "rfpe-lab/1", "kind": "convergence", "label": "tiny",
           "ensemble": 3, "rng_seed": 5,
           "noise": {"shots": 30},
           "rfpe": {"n_steps": 5, "n_particles": 100},
           "ipea": {"n_bits": 4, "repetitions": 1}}
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def test_run_success(tmp_path, capsys):
    cfg = _tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == ("tiny: wrote tiny_rfpe.csv, tiny_ipea.csv, "
                    "tiny_manifest.json")
    assert (out / "tiny_manifest.json").exists()
    assert not (out / "tiny.svg").exists()


def test_run_plot_flag(tmp_path, capsys):
    cfg = _tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out), "--plot"]) == 0
    assert "tiny.svg" in capsys.readouterr().out
    assert (out / "tiny.svg").exists()


def test_run_rejects_bad_config_with_anchored_message(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{\n "schema": "rfpe-lab/1",\n "kind": "convergence",\n'
                    ' "ensemble": 0\n}\n')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:4: ensemble:" in err


def test_anchor_follows_the_key_not_a_string_value(tmp_path, capsys):
    path = tmp_path / "anchor.json"
    path.write_text('{\n "schema": "rfpe-lab/1",\n "kind": "convergence",\n'
                    ' "label": "shots",\n "noise": {\n  "shots": 0\n }\n}\n')
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:6: noise.shots: must be >= 1, got 0\n")
    assert not out.exists()


def test_run_rejects_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{\n "schema": "rfpe-lab/1",\n "kind": "convergence",\n'
                    ' "ensemble": 5,\n "ensemble": 7\n}\n')
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"{path}:4: ensemble: repeated key\n"
    assert not out.exists()


def test_run_rejects_a_field_the_kind_sweeps(tmp_path, capsys):
    path = _tiny(tmp_path, kind="phase_noise_sweep",
                 noise={"strategy": "single_shot"})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:8: noise.strategy: unknown key\n")
    assert not out.exists()


def test_run_rejects_missing_file_and_bad_json(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read configuration" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("kind,key", [("calibration_fit", "data"),
                                      ("molecular_scan", "table")])
def test_run_rejects_an_unreadable_input_file(tmp_path, capsys, kind, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": "rfpe-lab/1", "kind": kind,
                                key: "missing.csv"}, indent=1) + "\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_mid_run_failure_exits_one(tmp_path, capsys, monkeypatch):
    run = scenarios.rfpe_run

    def fail_at_second_point(oracle, initial, config, truth=None):
        if oracle.noise.t2 == 1.0:
            raise ValueError("injected failure at t2 = 1")
        return run(oracle, initial, config, truth=truth)

    monkeypatch.setattr(scenarios, "rfpe_run", fail_at_second_point)
    cfg = _tiny(tmp_path, kind="t2_sweep", algorithm="rfpe", ensemble=2,
                t2_grid=[2.0, 1.0])
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:")


def test_seed_override_changes_bytes(tmp_path, capsys):
    cfg = _tiny(tmp_path)
    a, b, c = (tmp_path / n for n in "abc")
    assert main(["run", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(b), "--seed", "5"]) == 0
    assert main(["run", str(cfg), "--out-dir", str(c), "--seed", "6"]) == 0
    ref = (a / "tiny_rfpe.csv").read_bytes()
    assert (b / "tiny_rfpe.csv").read_bytes() == ref
    assert (c / "tiny_rfpe.csv").read_bytes() != ref
    capsys.readouterr()


def test_kind_subcommand_runs_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["chernoff_curve", "--out-dir", str(out),
                 "--label", "bits"]) == 0
    assert "bits: wrote bits_chernoff.csv" in capsys.readouterr().out
    manifest = json.loads((out / "bits_manifest.json").read_text())
    assert manifest["kind"] == "chernoff_curve"
    assert manifest["config"]["n"] == 500


def test_molecular_scan_requires_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["molecular_scan"])
    assert exc.value.code == 2
    assert "--table" in capsys.readouterr().err


def _help_ok(proc):
    assert proc.returncode == 0, proc.stderr
    assert "run" in proc.stdout
    assert "chernoff_curve" in proc.stdout


def test_console_script_is_installed():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rfpe-lab"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    # what the generated wrapper does, against the copy under test
    pkg_root = str(Path(rfpe_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rfpe_lab.cli import main; sys.exit(main())",
         "--help"],
        capture_output=True, text=True, env=env)
    _help_ok(proc)


@pytest.mark.skipif(shutil.which("rfpe-lab") is None,
                    reason="rfpe-lab executable not on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(["rfpe-lab", "--help"], capture_output=True,
                          text=True)
    _help_ok(proc)
