import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from critsys import acceptance
from critsys import shooting as sh
from critsys.bubble import eval_bubble_radial, make_bubble
from critsys.cli import EXIT_ASSERTION, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, run
from critsys.core import ExponentConfig, RadialGrid
from critsys.potential import KernelSpec, hls_functional

REPO = Path(__file__).resolve().parent.parent


def readme_cli_lines():
    """The critsys invocations of the README's CLI block, comments stripped."""
    block = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(line[0] == "critsys" for line in lines)
    return lines


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
    ["hls", "--sexp", "1.2"],
    # each mp action takes only the flags it reads
    *[["mp", action, flag, "1"] for action, flags in (
        ("scan", ("--lam", "--x")),
        ("check", ("--x", "--lmin", "--lmax", "--lnum")),
        ("identity", ("--v-center", "--L", "--m", "--lmin", "--lmax", "--lnum")))
      for flag in flags],
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

    def recorder(cfg, ratios, base, grid, tol):
        seen.append(tol)
        return []

    monkeypatch.setattr(sh, "uniqueness_sweep", recorder)
    assert run(["sweep", "--ratios", "1", "--tol", "1e-8"]) == EXIT_OK
    assert seen == [1e-8]


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


@pytest.mark.parametrize("argv, name, text", [
    (["bubble", "residual", "--config"], "cfg.json", '{"alpha": 2.0, "beta": 3.0}'),
    (["bubble", "residual", "--config"], "cfg.json", "[3, 2.0, 3.0]"),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"nodes": 1500.0}}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": []}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"r0": "x"}}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"rmax": null}}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"nodes": true}}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "tol": 1e-3}'),
    (["bubble", "residual", "--config"], "cfg.json",
     '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"num": 100}}'),
    (["potential", "--input"], "f.csv", "r,value\n0.5,1.0\n"),
], ids=["missing key", "json list", "float nodes", "grid list", "string r0", "null rmax",
        "bool nodes", "unknown key", "unknown grid key", "one-row csv"])
def test_malformed_input_is_usage_error(argv, name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert run(argv + [str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


_NONFINITE_FILES = {
    "nan.json": '{"n": 3, "alpha": NaN, "beta": NaN}',
    "r0.json": '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"r0": NaN}}',
    "rmax.json": '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"rmax": Infinity}}',
    "huge.json": '{"n": 3, "alpha": 2.0, "beta": 3.0, "grid": {"rmax": 1e400}}',
    "nan.csv": "r,value\n1e-6,1.0\n1e-3,nan\n1.0,0.0\n",
}


@pytest.mark.parametrize("argv", [
    ["shoot", "--u0", "1", "--v0", "1", "--rmax", "nan"],
    ["identity", "--radii", "nan"],
    ["potential", "--input", "nan.csv"],
    ["picard", "--t", "nan"],
    ["mp", "identity", "--x", "nan"],
    ["bubble", "eval", "--t", "inf"],
    ["hls", "--config", "nan.json"],
    ["bubble", "residual", "--config", "r0.json"],
    ["bubble", "residual", "--config", "rmax.json"],
    ["bubble", "residual", "--config", "huge.json"],
    ["mp", "scan", "--L", "0"],
    ["mp", "check", "--L", "-1"],
], ids=" ".join)
def test_nonfinite_number_or_empty_box_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in _NONFINITE_FILES.items():
        (tmp_path / name).write_text(text)
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(("usage: ", "error: "))


def test_infinite_rmax_is_rejected_by_the_parser():
    # checked at the parser: a shot to r = inf would never return
    with pytest.raises(SystemExit):
        build_parser().parse_args(["shoot", "--u0", "1", "--v0", "1", "--rmax", "inf"])


def test_identity_subcommand(capsys):
    assert run(["identity", "--radii", "0.1,1,10"]) == EXIT_OK
    assert "max_abs_gap" in capsys.readouterr().out


def test_potential_demo(capsys):
    assert run(["potential"]) == EXIT_OK


def test_hls_subcommand(capsys):
    assert run(["hls", "--lam", "1.0"]) == EXIT_OK
    val = float(capsys.readouterr().out.split()[-1])
    assert 2.0 < val < 2.5


@pytest.mark.parametrize("argv, lam, r_exp, s_exp", [
    (["hls"], 1.0, 1.2, 1.2),
    (["hls", "--lam", "1.5"], 1.5, 4 / 3, 4 / 3),
    (["hls", "--lam", "1.5", "--rexp", "1.2"], 1.5, 1.2, 1.5),
], ids=["default", "lam 1.5", "lam 1.5 rexp 1.2"])
def test_hls_derives_s_from_the_exponent_relation(argv, lam, r_exp, s_exp, capsys):
    cfg, grid = ExponentConfig(3, 2.0, 3.0), RadialGrid.default()
    f = eval_bubble_radial(make_bubble(cfg), grid.nodes) ** cfg.critical_sum
    expected = hls_functional(f, f, grid, KernelSpec(3, lam), r_exp, s_exp)
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == f"hls ratio {expected:.12g}\n"


@pytest.mark.parametrize("rexp", ["0", "1", "2"])
def test_hls_rexp_without_s_above_one_is_usage_error(rexp, capsys):
    # at n = 3, lambda = 1.5 the relation gives s > 1 only for 1 < r < 2
    assert run(["hls", "--lam", "1.5", "--rexp", rexp]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: need 1 < --rexp")


def test_mp_scan(capsys):
    assert run(["mp", "scan", "--center", "1.0", "--m", "32"]) == EXIT_OK
    lam0 = float(capsys.readouterr().out.split()[-1])
    assert abs(lam0 - 1.0) <= 0.7


def test_mp_scan_v_center(capsys):
    # u at 0, v at 1: the two-component scan stops at v's centre
    assert run(["mp", "scan", "--center", "0", "--v-center", "1"]) == EXIT_OK
    lam0 = float(capsys.readouterr().out.split()[-1])
    assert abs(lam0 - 1.0) <= 20.0 / 64


def test_mp_check_v_center(capsys):
    assert run(["mp", "check", "--center", "1", "--v-center", "0",
                "--lam", "0.5"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["Bu_measure"] != rep["Bv_measure"]


def test_mp_v_center_defaults_to_center(tmp_path, capsys):
    outs = []
    for extra in ([], ["--v-center", "1.0"]):
        path = tmp_path / f"check{len(outs)}.json"
        assert run(["mp", "check", "--center", "1.0", "--lam", "0.5", "--out", str(path),
                    *extra]) == EXIT_OK
        outs.append(capsys.readouterr().out)
        manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
        assert manifest["parameters"]["v_center"] == 1.0
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["Bu_measure"] == json.loads(outs[0])["Bv_measure"]


def test_verify_all_prints_seconds(capsys):
    assert run(["verify-all"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(acceptance.ALL_CRITERIA) == 12
    for line, (name, _) in zip(lines, acceptance.ALL_CRITERIA):
        assert re.match(rf"\[PASS\] {re.escape(name)} \(\d+\.\d\d s\): ", line), line


def test_mp_identity_manifest_holds_only_its_flags(tmp_path, capsys):
    out = tmp_path / "identity.txt"
    assert run(["mp", "identity", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "identity.txt.manifest.json").read_text())
    assert manifest["parameters"].keys() == {"subcommand", "action", "center", "t", "lam", "x",
                                             "config", "out"}


def test_mp_identity(capsys):
    assert run(["mp", "identity", "--center", "1.0", "--lam", "0",
                "--x", "-1.0"]) == EXIT_OK
    assert "rel" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bubble", "residual"],
    ["mp", "scan", "--center", "1.0", "--m", "32"],
    ["mp", "check", "--center", "1.0", "--lam", "0.5", "--m", "32"],
    ["mp", "identity", "--center", "1.0", "--lam", "0", "--x", "-1.0"],
], ids=" ".join)
def test_out_file_holds_stdout(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == capsys.readouterr().out
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert manifest["subcommand"] == argv[0]
    assert manifest["outputs"] == [str(out)]


def test_picard_stream(capsys):
    assert run(["picard", "--steps", "2"]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["step"] == 1 and "residual" in lines[0]
    # a run that ends in IterateBlowup has already printed every step before it
    assert run(["picard", "--steps", "12"]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert [json.loads(l)["step"] for l in out.splitlines()] == list(range(1, 10))
    assert err.startswith("numerical failure: IterateBlowup: ")


def test_picard_stops_after_the_first_step_below_tol(capsys):
    # the bubble's first residual is about 8e-6
    assert run(["picard", "--tol", "1e-5"]) == EXIT_OK
    assert [json.loads(l)["step"] for l in capsys.readouterr().out.splitlines()] == [1]


@pytest.mark.parametrize("perturb", ["-1", "-1.5"])
def test_picard_nonpositive_amplitude_is_numerical_failure(perturb, capsys):
    # the zero pair (or a negative one) is not a positive bound state
    assert run(["picard", f"--perturb={perturb}", "--steps", "2"]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: NonpositiveScale: ")


def test_solver_failure_is_numerical_failure(monkeypatch, capsys):
    failed = SimpleNamespace(status=-1, success=False,
                             message="Required step size is less than spacing between numbers.")
    monkeypatch.setattr(sh, "solve_ivp", lambda *args, **kwargs: failed)
    assert run(["shoot", "--u0", "1", "--v0", "1"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: StepSizeUnderflow: ")


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the README writes its --out files to the working directory
    assert run(argv[1:]) == EXIT_OK


def test_main_passes_the_exit_code_through():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "critsys.cli", "hls", "--lam", "4"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "QuadratureDivergence" in proc.stderr
