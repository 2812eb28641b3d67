import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from critsys import acceptance
from critsys import moving_plane as mp
from critsys import shooting as sh
from critsys.bubble import eval_bubble_radial, make_bubble
from critsys.cli import (
    EXIT_ASSERTION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _save,
    build_parser,
    load_config,
    run,
)
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


def test_verify_all_negative_seed_is_usage_error(monkeypatch, capsys):
    # refused by the parser, before any criterion runs
    ran = []
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [("recorder", lambda **kwargs: ran.append(1) or (True, ""))])
    assert run(["verify-all", "--seed", "-1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert ran == [] and out == "" and "--seed" in err


def test_identity_negative_radius_is_usage_error(capsys):
    assert run(["identity", "--radii", "1,-1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: radii must be finite and nonnegative")


def test_sweep_tol_reaches_the_solver(monkeypatch):
    seen = []
    sweep = sh.uniqueness_sweep

    def recorder(cfg, ratios, base, grid, tol):
        seen.append(tol)
        return sweep(cfg, ratios, base=base, grid=grid, tol=tol)

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


def saved_both_ways(tmp_path, header, columns):
    """The CSV bytes _save writes from columns and from the per-row csv.writer path."""
    written = []
    for name, data in (("columns.csv", dict(columns=columns)),
                       ("rows.csv", dict(rows=zip(*columns)))):
        path = tmp_path / name
        _save(SimpleNamespace(out=str(path), subcommand="test"), header=header, **data)
        written.append(path.read_bytes())
    return written


def test_csv_columns_are_csv_writer_bytes(tmp_path):
    special = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, 1.0, np.nan, np.inf,
                        -np.inf, 0.1, -2.5e-300])
    columns = (special, special[::-1], np.arange(len(special), dtype=float))
    from_columns, from_rows = saved_both_ways(tmp_path, ["a", "b", "c"], columns)
    assert from_columns == from_rows
    assert from_columns.startswith(
        b"a,b,c\r\n0,-2.5e-300,0\r\n-0,0.10000000000000001,1\r\n4.9406564584124654e-324,-inf,2\r\n")
    assert b"\r\n1,nan,4\r\nnan,1,5\r\n" in from_columns


def test_shoot_csv_is_the_profile_bitwise(tmp_path):
    # a positivity failure, so the profile's tail is zero-filled
    out = tmp_path / "shoot.csv"
    assert run(["shoot", "--u0", "1", "--v0", "2", "--rmax", "10", "--out", str(out)]) == EXIT_OK
    cfg, grid = load_config(None)
    grid = RadialGrid.geometric(grid.r0, 10.0, len(grid))
    prof = sh.classify(sh.ShootInput(cfg, 1.0, 2.0, r_max=10.0), grid).profile
    assert prof.u[-1] == prof.du[-1] == 0.0
    columns = (grid.nodes, prof.u, prof.v, prof.du, prof.dv)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    for got, want in zip(data.T, columns):
        assert got.tobytes() == want.tobytes()
    from_columns, from_rows = saved_both_ways(tmp_path, ["r", "u", "v", "du", "dv"], columns)
    assert from_columns == from_rows == out.read_bytes()


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


def test_non_integer_dimension_is_usage_error(tmp_path, capsys):
    # refused, not truncated to n = 3, a config that the file did not ask for
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 3.7, "alpha": 2.0, "beta": 3.0}))
    assert run(["bubble", "residual", "--config", str(cfg_path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need an integer n, got n = 3.7\n"


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


@pytest.mark.parametrize("argv", [["shoot", "--u0", "1", "--v0", "1"], ["bubble", "residual"]],
                         ids=" ".join)
@pytest.mark.parametrize("grid, radii", [
    ({"rmax": 1e-7}, "r0 = 1e-06 and rmax = 1e-07"),
    ({"r0": -1}, "r0 = -1 and rmax = 10000.0"),
], ids=["rmax below r0", "negative r0"])
def test_config_grid_radii_out_of_order_are_usage_error(argv, grid, radii, tmp_path, capsys):
    # refused by load_config, naming the file and both radii, before numpy sees them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "alpha": 2.0, "beta": 3.0, "grid": grid}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--config", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: grid needs 0 < r0 < rmax, got {radii}\n"


def test_shoot_on_a_config_grid_below_the_default_r0(tmp_path, capsys):
    # a grid that starts nearer the origin than 1e-6 shoots to an rmax below 1e-6
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "alpha": 2.0, "beta": 3.0,
                                "grid": {"r0": 1e-8, "rmax": 5e-7, "nodes": 400}}))
    assert run(["shoot", "--u0", "1", "--v0", "1", "--config", str(path)]) == EXIT_OK
    # r u grows tenfold over [rmax / 10, rmax] this near the origin
    assert capsys.readouterr().out == "kind NoDecay\n"


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
    ["mp", "scan", "--L", "1e300"],  # finite, but the cell volumes overflow
    ["mp", "check", "--L", "1e300"],
], ids=" ".join)
def test_nonfinite_number_or_empty_box_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in _NONFINITE_FILES.items():
        (tmp_path / name).write_text(text)
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(("usage: ", "error: "))


@pytest.mark.parametrize("argv", [
    ["shoot", "--u0", "1", "--v0", "1", "--tol", "0"],
    ["shoot", "--u0", "1", "--v0", "1", "--tol", "-1"],
    ["sweep", "--tol", "0"],
], ids=" ".join)
def test_nonpositive_tol_is_usage_error(argv, capsys):
    # rejected before the solver, which would warn about rtol or name its atol
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == EXIT_USAGE
    assert caught == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: need tol > 0")


def test_infinite_rmax_is_rejected_by_the_parser():
    # checked at the parser: a shot to r = inf would never return
    with pytest.raises(SystemExit):
        build_parser().parse_args(["shoot", "--u0", "1", "--v0", "1", "--rmax", "inf"])


@pytest.mark.parametrize("argv, reason", [
    (["shoot", "--u0", "1", "--v0", "1", "--rmax", "inf"], "not a finite number: inf"),
    (["shoot", "--v0", "1", "--u0", "abc"], "not a number: 'abc'"),
    (["verify-all", "--seed", "-1"], "need a nonnegative seed, got -1"),
    (["verify-all", "--seed", "x"], "not an integer: 'x'"),
], ids=["rmax inf", "u0 abc", "seed -1", "seed x"])
def test_flag_type_error_names_the_rule(argv, reason, capsys):
    # the parser prints the reason, not "invalid <type function> value"
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"error: argument {argv[-2]}: {reason}\n" in err
    assert "invalid" not in err


@pytest.mark.parametrize("line", [
    "picard --perturb=-1e-3 --steps 1",
    "mp scan --lmin=-2e0",
    "mp scan --center=-5e-1 --lmin=-3",
    "mp identity --x=-1e0",
    "mp identity --center 1 --lam 0.5 --x=-5E-1",
    "mp check --center=-.5e1 --lam=-5e+0 --m 16",
])
def test_negative_number_with_an_exponent_is_a_value(line, capsys):
    # argparse's own negative-number pattern has no exponent, so "--x -1e0" read as --x
    # without its value, a usage error; the spaced form now reads as the "=" form
    assert run(line.split()) == EXIT_OK
    want = capsys.readouterr()
    assert run(line.replace("=", " ").split()) == EXIT_OK
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv, code, err", [
    (["identity", "--radii", "-1,1"], EXIT_USAGE,
     "error: radii must be finite and nonnegative, got [-1.0, 1.0]\n"),
    (["sweep", "--ratios", "-0.5,1"], EXIT_NUMERICAL,
     "numerical failure: NonpositiveInput: ratios must be positive, got -0.5\n"),
], ids=["radii", "ratios"])
def test_list_that_starts_negative_reaches_its_rule(argv, code, err, capsys):
    # argparse's own pattern takes no list, so "--radii -1,1" read as --radii without
    # its value; the spaced form now reaches the rule that the "=" form reaches
    for line in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
        assert run(line) == code
        assert capsys.readouterr() == ("", err)


def test_scan_from_a_negative_centre_written_with_an_exponent(capsys):
    assert run(["mp", "scan", "--center", "-5e-1", "--lmin", "-3"]) == EXIT_OK
    assert capsys.readouterr() == ("lambda0 -0.45\n", "")
    # a dash and a letter is still an option, so --lmin has no value
    assert run(["mp", "scan", "--lmin", "-x"]) == EXIT_USAGE
    assert "argument --lmin: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bubble", "residual"], ["bubble", "eval"], ["identity"],
                                  ["hls"], ["picard"], ["mp", "scan"], ["mp", "check"],
                                  ["mp", "identity"]], ids=" ".join)
def test_scale_whose_square_overflows_is_usage_error(argv, capsys):
    # every bubble forms t^2, which overflowed to an uncaught OverflowError at 1e155
    assert run([*argv, "--t", "1e155"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: need a finite t whose square is finite, got t = 1e+155\n")


@pytest.mark.parametrize("argv", [["identity", "--radii", "nan"],
                                  ["sweep", "--ratios", "1,nan"]], ids=" ".join)
def test_nonfinite_list_entry_is_usage_error(argv, capsys):
    # the same rule outside the parser: a usage error, not a traceback
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: not a finite number: nan\n")


@pytest.mark.parametrize("argv", [["shoot", "--u0", "1", "--v0", "1", "--rmax", "1e-6"],
                                  ["shoot", "--u0", "1", "--v0", "1", "--rmax", "-3"],
                                  ["sweep", "--rmax", "5e-7"]], ids=" ".join)
def test_rmax_at_or_below_r0_is_usage_error(argv, capsys):
    # refused naming both radii, before the grid is built
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --rmax {float(argv[-1]):g} must exceed the grid's r0 = 1e-06\n"


@pytest.mark.parametrize("argv", [["shoot", "--u0", "1", "--v0", "1", "--rmax", "1.000001e-6"],
                                  ["shoot", "--u0", "1", "--v0", "1", "--rmax", "2e-6"],
                                  ["sweep", "--rmax", "5e-6"]], ids=" ".join)
def test_rmax_below_ten_r0_is_usage_error(argv, capsys):
    # the bound-state test reads the last decade [rmax / 10, rmax], which a grid from
    # r0 = 1e-6 covers only from rmax = 1e-5 on: refused naming both radii
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: the grid starts at r0 = 1e-06, above r_max / 10 for "
                          f"r_max = {float(argv[-1])}: ")
    assert run(["shoot", "--u0", "1", "--v0", "1", "--rmax", "1e-5"]) == EXIT_OK
    assert capsys.readouterr().out == "kind NoDecay\n"


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


@pytest.mark.parametrize("argv, same", [
    (["mp", "scan", "--center", "1", "--m", "32"], True),
    (["mp", "check", "--center", "1", "--m", "32"], True),
    (["mp", "scan", "--center", "1", "--v-center", "1", "--m", "32"], True),
    (["mp", "scan", "--center", "1", "--v-center", "0", "--m", "32"], False),
    (["mp", "check", "--center", "1", "--v-center", "0", "--m", "32"], False),
], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_mp_fields_are_one_callable_per_centre(argv, same, monkeypatch):
    seen = []

    def recording(func):
        def f(u_field, v_field, *args):
            seen.append(u_field is v_field)
            return func(u_field, v_field, *args)
        return f

    for name in ("critical_plane_scan", "reflection_inequality_check"):
        monkeypatch.setattr(mp, name, recording(getattr(mp, name)))
    assert run(argv) == EXIT_OK
    assert seen == [same]


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


@pytest.mark.parametrize("argv", [
    ["picard", "--steps", "0"],
    ["picard", "--steps", "-3"],
    ["sweep", "--ratios", ","],
    ["identity", "--radii", ","],
    ["identity", "--radii", " , "],
], ids=" ".join)
def test_empty_run_is_usage_error(argv, tmp_path, capsys):
    # no step, ratio or radius to compute: an error naming the flag, and no output file
    out = tmp_path / "out.csv"
    assert run(argv + (["--out", str(out)] if argv[0] == "sweep" else [])) == EXIT_USAGE
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: {argv[1]} ")
    assert not out.exists()


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


def fresh_python(*argv, timeout=120, cwd=None):
    """python3 argv in a new interpreter that imports critsys from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=cwd)


def test_run_builds_one_parser_per_process(monkeypatch, capsys):
    run(["--version"])  # builds the parser, unless an earlier test has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["--version"], ["bubble", "residual"], ["shoot", "--u0", "x", "--v0", "1"],
                 ["mp", "identity"], ["sweep", "--help"]):
        run(argv)
    assert built == []


# (first, second, manifest parameters of the second): the second writes b.*
_RUN_PAIRS = [
    (["mp", "scan", "--center", "1", "--v-center", "2", "--out", "a.txt"],
     ["mp", "scan", "--center", "1", "--out", "b.txt"], {"v_center": 1.0}),
    (["shoot", "--u0", "1", "--v0", "2", "--rmax", "50", "--out", "a.csv"],
     ["shoot", "--u0", "1.3", "--v0", "1.3", "--out", "b.csv"], {"rmax": 1e4}),
    (["shoot", "--u0", "x", "--v0", "1"],
     ["shoot", "--u0", "1.3", "--v0", "1.3", "--out", "b.csv"], {"rmax": 1e4}),
    (["--version"], ["--version"], None),
]


@pytest.mark.parametrize("first, second, params", _RUN_PAIRS,
                         ids=[" ".join(a) + " then " + " ".join(b) for a, b, _ in _RUN_PAIRS])
def test_a_run_leaves_nothing_to_the_next(first, second, params, tmp_path, monkeypatch,
                                          capsys):
    # the second run gives the exit code, stdout and files of the same command run
    # alone, in a new process, though both runs share this process's parser
    pair, alone = tmp_path / "pair", tmp_path / "alone"
    pair.mkdir()
    alone.mkdir()
    monkeypatch.chdir(pair)
    run(first)
    capsys.readouterr()
    code = run(second)
    out = capsys.readouterr().out
    proc = fresh_python("-m", "critsys.cli", *second, cwd=alone, timeout=60)
    assert (code, out) == (proc.returncode, proc.stdout)
    written = {p.name: p.read_bytes() for p in pair.glob("b.*")}
    assert written == {p.name: p.read_bytes() for p in alone.iterdir()}
    if params is not None:
        manifest = json.loads(written[second[-1] + ".manifest.json"])
        assert params.items() <= manifest["parameters"].items()


def test_scipy_is_never_imported():
    # a shot, a sweep, HLS off lambda = n-2 (the log form of 2F1 at n = 4) and the hls command
    code = """if True:
        import sys
        import numpy as np
        from critsys import cli, potential as pot, shooting as sh
        from critsys.core import ExponentConfig, RadialGrid
        cfg = ExponentConfig(3, 2.0, 3.0)
        sh.classify(sh.ShootInput(cfg, 1.0, 2.0))
        sh.uniqueness_sweep(cfg, (0.5, 1.0, 2.0))
        grid = RadialGrid.geometric(num=1000)
        f = (1.0 + grid.nodes ** 2) ** -2.25
        pot.hls_functional(f, f, grid, pot.KernelSpec(3, 1.5), 4 / 3, 4 / 3)
        f = (1.0 + grid.nodes ** 2) ** -3.5
        pot.hls_functional(f, f, grid, pot.KernelSpec(4, 1.0), 8 / 7, 8 / 7)
        assert cli.run(["hls"]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        sys.exit(f"loaded {loaded}" if loaded else 0)
    """
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_commands_import_nothing_after_the_package():
    # every module a command needs is loaded by import critsys.cli, none by its first run
    code = """if True:
        import contextlib, io, sys
        import critsys.cli
        from critsys import acceptance, cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["mp", "identity"]) == 0
            assert cli.run(["hls", "--lam", "1.5"]) == 0
        assert acceptance.check_property_suites()[0]
        new = sorted(set(sys.modules) - before)
        sys.exit(f"imported {new}" if new else 0)
    """
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["shoot", "--u0", "1e200", "--v0", "1"],
                                  ["sweep", "--base", "1e200"]], ids=" ".join)
def test_overflowing_start_is_usage_error(argv):
    # u0^alpha overflows the Taylor start to inf; the solver must refuse it, not loop
    proc = fresh_python("-m", "critsys.cli", *argv, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("argv", [["shoot", "--u0", "1e4", "--v0", "1e4"],
                                  ["sweep", "--base", "1e4"],
                                  ["shoot", "--u0", "1500", "--v0", "1500"],
                                  ["sweep", "--base", "1500"]], ids=" ".join)
def test_nonpositive_series_start_is_numerical_failure(argv, capsys):
    # the series start at the default first node is already negative (1e4), so no zero
    # to bracket, or still positive but too steep for a regular origin (1500)
    assert run(argv) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: GridTooCoarse: ")
    assert "r0 = 1e-06" in err


@pytest.mark.parametrize("argv, code, err", [
    (["mp", "scan", "--lnum", "0"], EXIT_USAGE, "error: need a nonempty sequence of finite planes"),
    (["mp", "scan", "--lmin", "-60", "--lmax", "-50", "--lnum", "3"], EXIT_NUMERICAL,
     "numerical failure: ScanInconclusive: no swept plane holds a sampler node in H_lam: "
     "planes -60, -55, -50 "),
    (["mp", "scan", "--lmin", "50", "--lmax", "60", "--lnum", "3"], EXIT_NUMERICAL,
     "numerical failure: ScanInconclusive: the first swept plane 50 "),
], ids=["no-plane", "left-of-box", "right-of-centre"])
def test_scan_needs_planes_that_bracket_lambda0(argv, code, err, capsys):
    # no plane at all; every plane left of the box (no sampler node in H_lam);
    # every plane right of the centre (only an upper bound on lambda0)
    assert run(argv) == code
    out, got = capsys.readouterr()
    assert out == "" and got.startswith(err)


@pytest.mark.parametrize("argv, out", [
    (["mp", "scan", "--lmin", "-10"], "lambda0 0.075\n"),
    (["mp", "scan", "--lmin", "-10", "--lmax", "0", "--lnum", "21"], "lambda0 0\n"),
], ids=["lmin-10", "lmin-10-to-0"])
def test_scan_skips_planes_without_nodes(argv, out, capsys):
    # the plane at -10 lies left of the first node column (-9.84375), so its H_lam
    # holds no node; it is left out, and the bubble at 0 is found as from -2
    assert run(argv) == EXIT_OK
    assert capsys.readouterr() == (out, "")


def test_main_passes_the_exit_code_through():
    proc = fresh_python("-m", "critsys.cli", "hls", "--lam", "4")
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "QuadratureDivergence" in proc.stderr
