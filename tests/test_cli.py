import csv
import json

import numpy as np
import pytest

from critsys import acceptance
from critsys import shooting as sh
from critsys.bubble import eval_bubble_radial, make_bubble
from critsys.cli import EXIT_ASSERTION, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, run
from critsys.core import ExponentConfig


def test_unknown_flag_is_usage_error(capsys):
    assert run(["--definitely-not-a-flag"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["bubble", "residual", "--threads", "2"],
    *[[*cmd, "--seed", "1"] for cmd in
      (["bubble", "residual"], ["shoot", "--u0", "1", "--v0", "1"], ["sweep"],
       ["identity"], ["potential"], ["picard"], ["hls"], ["mp", "scan"])],
    *[[*cmd, "--tol", "1e-3"] for cmd in
      (["bubble", "residual"], ["potential"], ["hls"], ["mp", "scan"],
       ["verify-all"])],
    *[[*cmd, "--out", "x.txt"] for cmd in (["identity"], ["picard"], ["hls"])],
    ["verify-all", "--config", "cfg.json"],
], ids=" ".join)
def test_removed_flag_is_usage_error(argv):
    assert run(argv) == EXIT_USAGE


def test_verify_all_seed_reaches_property_suite(monkeypatch):
    seen = []

    def recorder(seed=acceptance.DEFAULT_SEED):
        seen.append(seed)
        return True, "recorded"

    monkeypatch.setattr(acceptance, "check_property_suites", recorder)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [("property suites", recorder)])
    assert run(["verify-all", "--seed", "7"]) == EXIT_OK
    assert seen == [7]


def test_sweep_tol_reaches_the_solver(monkeypatch):
    seen = []

    def recorder(cfg, ratios, base, grid, atol, rtol):
        seen.append((atol, rtol))
        return []

    monkeypatch.setattr(sh, "uniqueness_sweep", recorder)
    assert run(["sweep", "--ratios", "1", "--tol", "1e-8"]) == EXIT_OK
    assert seen == [(1e-8, 1e-8)]


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_bubble_eval_stdout(capsys):
    assert run(["bubble", "eval", "--t", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "phi(0.0)" in out


def test_bubble_residual(capsys):
    assert run(["bubble", "residual"]) == EXIT_OK
    res = float(capsys.readouterr().out.split()[-1])
    assert res <= 1e-6


def test_shoot_csv_matches_bubble(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = run(["shoot", "--u0", "1", "--v0", "1", "--rmax", "50",
                "--out", str(out)])
    assert code == EXIT_OK
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    r, u = data[:, 0], data[:, 1]
    cfg = ExponentConfig(3, 2.0, 3.0)
    t = (make_bubble(cfg).c / 1.0) ** 2
    phi = eval_bubble_radial(make_bubble(cfg, t=t), r)
    assert np.max(np.abs(u - phi) / phi) < 1e-6
    # manifest emitted alongside the CSV
    manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "shoot"


def test_shoot_reproducible(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run(["shoot", "--u0", "1.2", "--v0", "0.8", "--rmax", "30",
             "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_assertion_exit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--ratios", "0.9,1,1.1", "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "ratio,kind,R0,diagnostics"
    assert len(rows) == 4


def test_config_file_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 3, "alpha": 2.0, "beta": 3.0,
        "grid": {"r0": 1e-6, "rmax": 100.0, "nodes": 1500},
    }))
    assert run(["bubble", "residual", "--config", str(cfg_path)]) == EXIT_OK


def test_shoot_and_sweep_use_config_grid(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 3, "alpha": 2.0, "beta": 3.0,
        "grid": {"r0": 1e-6, "rmax": 100.0, "nodes": 1500},
    }))
    shot = tmp_path / "shoot.csv"
    run(["shoot", "--u0", "1", "--v0", "1", "--config", str(cfg_path),
         "--out", str(shot)])
    data = np.loadtxt(shot, delimiter=",", skiprows=1)
    assert len(data) == 1500 and data[-1, 0] == 100.0
    # the exit code is not checked: at rmax = 100 the plateau test may
    # classify rows differently
    sweep = tmp_path / "sweep.csv"
    run(["sweep", "--ratios", "0.9,1,1.1", "--config", str(cfg_path),
         "--out", str(sweep)])
    with open(sweep, newline="") as fh:
        rows = {row["ratio"]: row for row in csv.DictReader(fh)}
    assert json.loads(rows["1.0"]["diagnostics"])["r_reached"] == 100.0
    # --rmax replaces the config's rmax
    run(["shoot", "--u0", "1", "--v0", "1", "--config", str(cfg_path),
         "--rmax", "50", "--out", str(shot)])
    data = np.loadtxt(shot, delimiter=",", skiprows=1)
    assert len(data) == 1500 and data[-1, 0] == 50.0


def test_bad_config_is_numerical_failure(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 3, "alpha": 2.0, "beta": 2.0}))
    assert run(["bubble", "residual", "--config", str(cfg_path)]) == EXIT_NUMERICAL


def test_identity_subcommand(capsys):
    assert run(["identity", "--radii", "0.1,1,10"]) == EXIT_OK
    assert "max_abs_gap" in capsys.readouterr().out


def test_potential_demo(capsys):
    assert run(["potential"]) == EXIT_OK


def test_hls_subcommand(capsys):
    assert run(["hls", "--lam", "1.0"]) == EXIT_OK
    val = float(capsys.readouterr().out.split()[-1])
    assert 2.0 < val < 2.5


def test_mp_scan(capsys):
    assert run(["mp", "scan", "--center", "1.0", "--m", "32"]) == EXIT_OK
    lam0 = float(capsys.readouterr().out.split()[-1])
    assert abs(lam0 - 1.0) <= 0.7


def test_mp_identity(capsys):
    assert run(["mp", "identity", "--center", "1.0", "--lam", "0",
                "--x", "-1.0"]) == EXIT_OK
    assert "rel" in capsys.readouterr().out


def test_picard_stream(capsys):
    assert run(["picard", "--steps", "2"]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["step"] == 1 and "residual" in lines[0]
