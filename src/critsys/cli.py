"""Command-line interface: one executable exposing every operation.

Subcommands: bubble (eval, residual), shoot, sweep, identity, potential,
picard, hls, mp (scan, check, identity), verify-all.  Each (sub)command and
action is declared once, in _COMMANDS, with exactly the flags its function
reads.  Exit codes: 0 success, 1 usage error, 2 assertion failure,
3 numerical failure.

Every run that writes an output file also writes a JSON manifest next to it;
re-running with the same manifest parameters reproduces the outputs byte for
byte.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
# argparse's gettext imports locale for its first message; importing it with
# the package keeps that import out of the first command run
import locale  # noqa: F401
import math
import re
import sys

import numpy as np

from . import __version__, acceptance
from . import bubble as bb
from . import moving_plane as mp
from . import potential as pot
from . import shooting as sh
from .core import DEFAULT_NODES, DEFAULT_R0, DEFAULT_RMAX, ExponentConfig, RadialGrid
from .errors import CritsysError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NUMERICAL = 3

_FLOAT_FMT = "%.17g"  # lossless double round-trip


def load_config(path: str | None) -> tuple[ExponentConfig, RadialGrid]:
    """Config JSON: {"n", "alpha", "beta", "grid": {"r0", "rmax", "nodes"}}, no other keys."""
    if path is None:
        return ExponentConfig(3, 2.0, 3.0), RadialGrid.default()
    with open(path) as fh:
        # json reads NaN and Infinity as constants, and 1e400 as inf
        raw = json.load(fh, parse_constant=_finite, parse_float=_finite)
    if not isinstance(raw, dict) or not {"n", "alpha", "beta"} <= raw.keys():
        raise ValueError(f"{path}: config must be an object with keys n, alpha and beta")
    g = raw.get("grid", {})
    if not isinstance(g, dict):
        raise ValueError(f"{path}: grid must be an object")
    unknown = sorted(raw.keys() - {"n", "alpha", "beta", "grid"}) + sorted(
        "grid." + k for k in g.keys() - {"r0", "rmax", "nodes"})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
    cfg = ExponentConfig(raw["n"], raw["alpha"], raw["beta"])
    r0, rmax, nodes = (g.get("r0", DEFAULT_R0), g.get("rmax", DEFAULT_RMAX),
                       g.get("nodes", DEFAULT_NODES))
    # type(), not isinstance(): true is an int, but neither a radius nor a node count
    if type(r0) not in (int, float) or type(rmax) not in (int, float) or type(nodes) is not int:
        raise ValueError(f"{path}: grid r0 and rmax must be numbers and nodes an integer")
    if not 0 < r0 < rmax:
        raise ValueError(f"{path}: grid needs 0 < r0 < rmax, got r0 = {r0} and rmax = {rmax}")
    return cfg, RadialGrid.geometric(r0, rmax, nodes)


def _finite(text: str) -> float:
    """float(text), raising ArgumentTypeError (a usage error) unless it is a finite number.

    argparse prints the reason; run() reports it as a usage error outside argparse.
    """
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return x


def _seed(text: str) -> int:
    """int(text), raising ArgumentTypeError (a usage error) unless it is nonnegative."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a nonnegative seed, got {seed}")
    return seed


def _parse_floats(text: str, flag: str) -> list[float]:
    """The finite numbers of a comma-separated list; ValueError naming flag if there are none."""
    values = [_finite(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"{flag} needs at least one number, got {text!r}")
    return values


def _save(args, text: str | None = None, header=None, rows=None, columns=None) -> str | None:
    """Write --out, if given, and its manifest; return text.

    The file holds the text, or a CSV of the header and then either the
    equal-length float ``columns``, formatted %.17g in one string operation,
    or csv.writer's ``rows``, whose floats are formatted %.17g.  A %.17g
    field never needs quoting, so both give csv.writer's bytes.
    """
    if args.out:
        with open(args.out, "w", newline="") as fh:
            if text is not None:
                fh.write(text + "\n")
            else:
                w = csv.writer(fh)
                w.writerow(header)
                if columns is not None:
                    row = ",".join([_FLOAT_FMT] * len(columns)) + w.dialect.lineterminator
                    fh.write(row * len(columns[0])
                             % tuple(np.column_stack(columns).ravel().tolist()))
                else:
                    w.writerows([_FLOAT_FMT % x if isinstance(x, float) else x for x in row]
                                for row in rows)
        manifest = {"subcommand": args.subcommand, "outputs": [args.out],
                    "version": __version__, "config_path": getattr(args, "config", None),
                    "parameters": {k: v for k, v in vars(args).items() if not callable(v)}}
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return text


def cmd_bubble(args) -> int:
    cfg, grid = load_config(args.config)
    params = bb.make_bubble(cfg, t=args.t)
    if args.action == "residual":
        print(_save(args, f"residual {bb.bubble_residual(params, cfg, grid):.6e}"))
    elif args.out:
        _save(args, header=["r", "phi"],
              columns=(grid.nodes, bb.eval_bubble_radial(params, grid.nodes)))
        print(f"wrote {args.out}")
    else:
        for r in (0.0, 0.1, 1.0, 10.0):
            print(f"phi({r}) = {bb.eval_bubble_radial(params, np.array([r]))[0]:.12g}")
    return EXIT_OK


def _shooting_config(args) -> tuple[ExponentConfig, RadialGrid]:
    """The config and its grid, stretched to --rmax when that is given."""
    cfg, grid = load_config(args.config)
    args.rmax = grid.rmax if args.rmax is None else args.rmax  # for the manifest
    if not args.rmax > grid.r0:
        raise ValueError(f"--rmax {args.rmax:g} must exceed the grid's r0 = {grid.r0:g}")
    return cfg, RadialGrid.geometric(grid.r0, args.rmax, len(grid))


def cmd_shoot(args) -> int:
    cfg, grid = _shooting_config(args)
    inp = sh.ShootInput(cfg, args.u0, args.v0, r_max=grid.rmax, tol=args.tol)
    out = sh.classify(inp, grid)
    print(f"kind {out.kind.value}"
          + (f" which {out.which} at_r {out.at_r:.6g}" if out.which else "")
          + (f" crossing_r {out.crossing_r:.6g}" if out.crossing_r else ""))
    p = out.profile
    _save(args, header=["r", "u", "v", "du", "dv"],
          columns=(p.grid.nodes, p.u, p.v, p.du, p.dv))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, grid = _shooting_config(args)
    ratios = _parse_floats(args.ratios, "--ratios")
    outcomes = sh.uniqueness_sweep(cfg, ratios, base=args.base, grid=grid, tol=args.tol)
    for rho, out in zip(ratios, outcomes):
        print(f"ratio {rho:g}: {out.kind.value}")
    # the ratio as parsed (str, not %.17g); a missing R0 is an empty cell
    _save(args, header=["ratio", "kind", "R0", "diagnostics"],
          rows=[(str(rho), out.kind.value, out.crossing_r,
                 json.dumps(out.diagnostics, sort_keys=True, default=str))
                for rho, out in zip(ratios, outcomes)])
    if not sh.sweep_consistent(ratios, outcomes):
        print("sweep assertion FAILED: bound state pattern inconsistent", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_identity(args) -> int:
    cfg, grid = load_config(args.config)
    prof = bb.bubble_profile(bb.make_bubble(cfg, t=args.t), grid)
    rep = sh.check_integral_identity(prof, cfg, _parse_floats(args.radii, "--radii"))
    for i, rr in enumerate(rep.r_checked):
        print(f"r {rr:.6g}: lhs {rep.lhs_u[i]:.10g} rhs {rep.rhs_u[i]:.10g}")
    print(f"max_abs_gap {rep.max_abs_gap:.6e}")
    return EXIT_OK if rep.max_abs_gap <= args.tol else EXIT_ASSERTION


def cmd_potential(args) -> int:
    cfg, grid = load_config(args.config)
    if args.input:
        data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] < 3 or data.shape[1] < 2 or not np.isfinite(data).all():
            raise ValueError(f"{args.input}: need finite columns r,value and at least 3 rows")
        grid = RadialGrid(data[:, 0])
        f = data[:, 1]
    else:
        f = (grid.nodes <= 1.0).astype(float)  # unit-ball demo source
    u, _ = pot.newton_potential_radial(f, grid, cfg.n)
    if args.out:
        _save(args, header=["r", "value"], columns=(grid.nodes, u))
        print(f"wrote {args.out}")
    else:
        print(f"u(r0) = {u[0]:.12g}, u(rmax) = {u[-1]:.12g}")
    return EXIT_OK


def cmd_picard(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    cfg, grid = load_config(args.config)
    params = bb.make_bubble(cfg, t=args.t)
    amplitude = params.c * (1.0 + args.perturb)  # NonpositiveScale unless positive
    prof = bb.bubble_profile(dataclasses.replace(params, c=amplitude), grid)
    steps = pot.picard_iterate(prof, cfg, residual_tol=args.tol, max_steps=args.steps)
    for step, (_, residual) in enumerate(steps, 1):
        print(json.dumps({"step": step, "residual": residual}), flush=True)
    return EXIT_OK


def cmd_hls(args) -> int:
    cfg, grid = load_config(args.config)
    n, lam = cfg.n, args.lam
    kernel = pot.KernelSpec(n, lam)  # checks 0 < lam < n before the exponents use lam
    r_exp = 2.0 * n / (2.0 * n - lam) if args.rexp is None else args.rexp
    if not 1.0 < r_exp < n / (n - lam):  # so that s > 1 as well
        raise ValueError(f"need 1 < --rexp < n/(n-lambda) = {n / (n - lam):.6g}, got {r_exp}")
    s_exp = 1.0 / (2.0 - lam / n - 1.0 / r_exp)  # 1/r + 1/s + lam/n = 2
    f = bb.eval_bubble_radial(bb.make_bubble(cfg, t=args.t), grid.nodes) ** cfg.critical_sum
    print(f"hls ratio {pot.hls_functional(f, f, grid, kernel, r_exp, s_exp):.12g}")
    return EXIT_OK


def _on_axis(x1: float, n: int) -> np.ndarray:
    """The point (x1, 0, ..., 0) of R^n."""
    return np.r_[x1, np.zeros(n - 1)]


def _mp_fields(args):
    """The config, the u and v bubble fields at x1 = --center, --v-center, and the sampler.

    One field per distinct centre, so equal centres give the scans one callable.
    """
    cfg, _ = load_config(args.config)
    if args.v_center is None:
        args.v_center = args.center  # for the manifest
    fields = {x1: bb.bubble_field(bb.make_bubble(cfg, center=_on_axis(x1, cfg.n), t=args.t))
              for x1 in {args.center, args.v_center}}
    return (cfg, fields[args.center], fields[args.v_center],
            mp.CartesianSampler(L=args.L, m=args.m, n=cfg.n))


def cmd_mp_scan(args) -> int:
    _, u_fld, v_fld, sampler = _mp_fields(args)
    res = mp.critical_plane_scan(u_fld, v_fld, sampler,
                                 np.linspace(args.lmin, args.lmax, args.lnum))
    print(_save(args, f"lambda0 {res.lambda0:.6g}" + (" (degenerate)" if res.degenerate else "")))
    return EXIT_OK


def cmd_mp_check(args) -> int:
    cfg, u_fld, v_fld, sampler = _mp_fields(args)
    rep = mp.reflection_inequality_check(u_fld, v_fld, mp.PlaneParam(args.lam, n=cfg.n),
                                         cfg, sampler)
    report = {"lambda": rep.lam, "Bu_measure": rep.Bu_measure, "Bv_measure": rep.Bv_measure,
              "norms": rep.norms, "inequality_margins": rep.inequality_margins}
    print(_save(args, json.dumps(report, indent=2, sort_keys=True)))
    return EXIT_OK


def cmd_mp_identity(args) -> int:
    cfg, _ = load_config(args.config)
    params = bb.make_bubble(cfg, center=_on_axis(args.center, cfg.n), t=args.t)
    lhs, rhs = mp.greens_reflection_identity(params, mp.PlaneParam(args.lam, n=cfg.n),
                                             _on_axis(args.x, cfg.n), cfg)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    print(_save(args, f"lhs {lhs:.10g} rhs {rhs:.10g} rel {rel:.3e}"))
    return EXIT_OK


def cmd_verify_all(args) -> int:
    lines = []

    def sink(msg):
        lines.append(msg)
        print(msg)

    ok = acceptance.run_all(printer=sink, seed=args.seed)
    _save(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_ASSERTION


# Every flag a command reads: dest -> (type, help)
_FLAGS = {
    "config": (str, "JSON config: n, alpha, beta and grid {r0, rmax, nodes}"),
    "out": (str, "output file; the manifest goes to OUT.manifest.json"),
    "tol": (_finite, "solver atol = rtol, gap bound or residual target"),
    "t": (_finite, "bubble scale t"), "u0": (_finite, "u(0)"), "v0": (_finite, "v(0)"),
    "rmax": (_finite, "outer radius (default: the grid's rmax)"),
    "ratios": (str, "comma-separated v0/u0 ratios"), "base": (_finite, "u0 of every shot"),
    "radii": (str, "comma-separated radii"),
    "input": (str, "CSV with columns r,value (default: the unit ball)"),
    "perturb": (_finite, "relative amplitude perturbation"), "steps": (int, "maximum steps"),
    "lam": (_finite, "kernel exponent lambda (hls); plane x1 = lambda (mp)"),
    "rexp": (_finite, "r of ||f||_r (default 2n/(2n-lambda)); 1/r + 1/s + lambda/n = 2 gives s"),
    "center": (_finite, "x1 of the u bubble"),
    "v_center": (_finite, "x1 of the v bubble (default: --center)"),
    "L": (_finite, "sampler box [-L, L] x [0, L]"), "m": (int, "sampler nodes per axis"),
    "lmin": (_finite, "first plane"), "lmax": (_finite, "last plane"), "lnum": (int, "planes"),
    "x": (_finite, "x1 of the point x"), "seed": (_seed, "property-suite seed"),
}
_IO = dict(config=None, out=None)
_MP = dict(center=0.0, t=1.0, **_IO)
_SAMPLER = dict(v_center=None, L=10.0, m=64, **_MP)
# (command, function, help, {flag: default}); a default of ... makes the flag required
_COMMANDS = [
    ("bubble eval", cmd_bubble, "phi on the grid (CSV) or at 4 radii", dict(t=1.0, **_IO)),
    ("bubble residual", cmd_bubble, "max discrete PDE residual", dict(t=1.0, **_IO)),
    ("shoot", cmd_shoot, "integrate and classify one trajectory",
     dict(u0=..., v0=..., rmax=None, tol=1e-10, **_IO)),
    ("sweep", cmd_sweep, "uniqueness sweep over initial ratios",
     dict(ratios="0.5,0.8,0.9,0.95,1,1.05,1.1,1.25,2", base=1.0, rmax=None, tol=1e-10, **_IO)),
    ("identity", cmd_identity, "nested integral identity check",
     dict(radii="0.1,1,10", t=1.0, tol=1e-5, config=None)),
    ("potential", cmd_potential, "apply the radial inverse Laplacian", dict(input=None, **_IO)),
    ("picard", cmd_picard, "fixed-point iteration from a bubble",
     dict(t=1.0, perturb=0.0, steps=200, tol=1e-8, config=None)),
    ("hls", cmd_hls, "HLS functional ratio", dict(lam=1.0, rexp=None, t=1.0, config=None)),
    ("mp scan", cmd_mp_scan, "critical plane position (u and v)",
     dict(lmin=-2.0, lmax=3.0, lnum=41, **_SAMPLER)),
    ("mp check", cmd_mp_check, "reflection report at the plane --lam", dict(lam=0.0, **_SAMPLER)),
    ("mp identity", cmd_mp_identity, "Green's reflection identity", dict(lam=0.0, x=-1.0, **_MP)),
    ("verify-all", cmd_verify_all, "run the full acceptance suite",
     dict(seed=acceptance.DEFAULT_SEED, out=None)),
]
_GROUPS = {"bubble": "the exact solution family", "mp": "moving-plane scans and checks"}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads -1e-3 and -1,1 as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own negative-number pattern has no exponent and no list: "--x -1e-3"
        # and "--radii -1,1" read as two options
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,-?{number})*$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    Each parse_args call returns a new Namespace and every default is
    immutable, so what a run writes to its args never reaches the next run.
    """
    parser = _Parser(
        prog="critsys", description="Solve and verify the critical-exponent elliptic system")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    actions = {}
    for command, func, help_text, flags in _COMMANDS:
        name, _, action = command.partition(" ")
        if action and name not in actions:
            actions[name] = sub.add_parser(name, help=_GROUPS[name]).add_subparsers(
                dest="action", required=True)
        p = (actions[name] if action else sub).add_parser(action or name, help=help_text)
        for dest, default in flags.items():
            kind, text = _FLAGS[dest]
            required = dict(required=True) if default is ... else dict(default=default)
            p.add_argument("--" + dest.replace("_", "-"), type=kind, help=text, **required)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except CritsysError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
