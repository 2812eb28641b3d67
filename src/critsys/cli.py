"""Command-line interface: one executable exposing every operation.

Subcommands: bubble, shoot, sweep, identity, potential, picard, hls, mp,
verify-all.  Exit codes: 0 success, 1 usage error, 2 assertion failure,
3 numerical failure.

Every run that writes an output file also writes a JSON manifest next to it;
re-running with the same manifest parameters reproduces the outputs byte for
byte.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, acceptance
from . import bubble as bb
from . import moving_plane as mp
from . import potential as pot
from . import shooting as sh
from .core import ExponentConfig, RadialGrid, RadialProfilePair, validate_config
from .errors import CritsysError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NUMERICAL = 3

_FLOAT_FMT = "%.17g"  # lossless double round-trip


@dataclass
class RunManifest:
    """Reproducibility record emitted alongside every file output."""

    subcommand: str
    parameters: dict
    outputs: list
    version: str
    config_path: str | None = None

    def write(self, out_path: str) -> None:
        path = out_path + ".manifest.json"
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_config(path: str | None) -> tuple[ExponentConfig, RadialGrid]:
    """Config JSON: {"n", "alpha", "beta", "grid": {"r0", "rmax", "nodes"}}."""
    if path is None:
        return ExponentConfig(3, 2.0, 3.0), RadialGrid.default()
    with open(path) as fh:
        raw = json.load(fh)
    cfg = validate_config(raw["n"], raw["alpha"], raw["beta"])
    g = raw.get("grid", {})
    grid = RadialGrid.geometric(g.get("r0", 1e-6), g.get("rmax", 1e4),
                                g.get("nodes", 4000))
    return cfg, grid


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([_FLOAT_FMT % x if isinstance(x, float) else x
                        for x in row])


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _manifest(args, outputs: list[str]) -> None:
    if not outputs:
        return
    params = {k: v for k, v in vars(args).items() if not callable(v)}
    RunManifest(subcommand=args.subcommand, parameters=params,
                outputs=outputs, version=__version__,
                config_path=getattr(args, "config", None)).write(outputs[0])


def cmd_bubble(args) -> int:
    cfg, grid = load_config(args.config)
    params = bb.make_bubble(cfg, t=args.t)
    if args.action == "residual":
        res = bb.bubble_residual(params, cfg, grid)
        print(f"residual {res:.6e}")
        return EXIT_OK
    phi = bb.eval_bubble_radial(params, grid.nodes)
    if args.out:
        _write_csv(args.out, ["r", "phi"], [grid.nodes, phi])
        _manifest(args, [args.out])
        print(f"wrote {args.out}")
    else:
        for r in (0.0, 0.1, 1.0, 10.0):
            print(f"phi({r}) = {bb.eval_bubble_radial(params, np.array([r]))[0]:.12g}")
    return EXIT_OK


def _shooting_config(args) -> tuple[ExponentConfig, RadialGrid]:
    """The config and its grid, stretched to --rmax when that is given."""
    cfg, grid = load_config(args.config)
    args.rmax = grid.rmax if args.rmax is None else args.rmax  # for the manifest
    return cfg, RadialGrid.geometric(grid.r0, args.rmax, len(grid))


def cmd_shoot(args) -> int:
    cfg, grid = _shooting_config(args)
    inp = sh.ShootInput(cfg, args.u0, args.v0, r_max=grid.rmax,
                        atol=args.tol, rtol=args.tol)
    out = sh.classify(inp, grid)
    print(f"kind {out.kind.value}"
          + (f" which {out.which} at_r {out.at_r:.6g}" if out.which else "")
          + (f" crossing_r {out.crossing_r:.6g}" if out.crossing_r else ""))
    if args.out:
        p = out.profile
        _write_csv(args.out, ["r", "u", "v", "du", "dv"], [p.grid.nodes, p.u, p.v, p.du, p.dv])
        _manifest(args, [args.out])
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, grid = _shooting_config(args)
    ratios = _parse_floats(args.ratios)
    rows = sh.uniqueness_sweep(cfg, ratios, base=args.base, grid=grid,
                               atol=args.tol, rtol=args.tol)
    records = []
    for row in rows:
        records.append((row.ratio, row.kind.value,
                        "" if row.crossing_r is None else _FLOAT_FMT % row.crossing_r,
                        json.dumps(row.diagnostics, sort_keys=True, default=str)))
        print(f"ratio {row.ratio:g}: {row.kind.value}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ratio", "kind", "R0", "diagnostics"])
            w.writerows(records)
        _manifest(args, [args.out])
    if not sh.sweep_consistent(rows):
        print("sweep assertion FAILED: bound state pattern inconsistent",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_identity(args) -> int:
    cfg, grid = load_config(args.config)
    prof = bb.bubble_profile(bb.make_bubble(cfg, t=args.t), grid)
    rep = sh.check_integral_identity(prof, cfg, _parse_floats(args.radii))
    for i, rr in enumerate(rep.r_checked):
        print(f"r {rr:.6g}: lhs {rep.lhs_u[i]:.10g} rhs {rep.rhs_u[i]:.10g}")
    print(f"max_abs_gap {rep.max_abs_gap:.6e}")
    return EXIT_OK if rep.max_abs_gap <= args.tol else EXIT_ASSERTION


def cmd_potential(args) -> int:
    cfg, grid = load_config(args.config)
    if args.input:
        data = np.loadtxt(args.input, delimiter=",", skiprows=1)
        grid = RadialGrid(data[:, 0])
        f = data[:, 1]
    else:
        f = (grid.nodes <= 1.0).astype(float)  # unit-ball demo source
    u = pot.newton_potential_radial(f, grid, cfg.n)
    if args.out:
        _write_csv(args.out, ["r", "value"], [grid.nodes, u])
        _manifest(args, [args.out])
        print(f"wrote {args.out}")
    else:
        print(f"u(r0) = {u[0]:.12g}, u(rmax) = {u[-1]:.12g}")
    return EXIT_OK


def cmd_picard(args) -> int:
    cfg, grid = load_config(args.config)
    prof = bb.bubble_profile(bb.make_bubble(cfg, t=args.t), grid)
    scale = 1.0 + args.perturb
    state = pot.PicardState(
        RadialProfilePair(grid, prof.u * scale, prof.v * scale,
                          prof.du * scale, prof.dv * scale),
        residual=float("inf"), step=0)
    history = []
    state = pot.picard_iterate(
        state, cfg, residual_tol=args.tol, max_steps=args.steps,
        callback=lambda s: history.append({"step": s.step, "residual": s.residual}))
    for rec in history:
        print(json.dumps(rec))
    return EXIT_OK


def cmd_hls(args) -> int:
    cfg, grid = load_config(args.config)
    kernel = pot.KernelSpec(cfg.n, args.lam)
    params = bb.make_bubble(cfg, t=args.t)
    f = bb.eval_bubble_radial(params, grid.nodes) ** cfg.critical_sum
    ratio = pot.hls_functional(f, f, grid, kernel, args.rexp, args.sexp)
    print(f"hls ratio {ratio:.12g}")
    return EXIT_OK


def cmd_mp(args) -> int:
    cfg, grid = load_config(args.config)
    center = np.zeros(cfg.n)
    center[0] = args.center
    params = bb.make_bubble(cfg, center=center, t=args.t)
    fld = bb.bubble_field(params)
    sampler = mp.CartesianSampler(L=args.L, m=args.m, n=cfg.n)

    if args.action == "scan":
        lams = np.linspace(args.lmin, args.lmax, args.lnum)
        res = mp.critical_plane_scan(fld, fld, sampler, lams)
        print(f"lambda0 {res.lambda0:.6g}" + (" (degenerate)" if res.degenerate else ""))
        return EXIT_OK
    if args.action == "check":
        rep = mp.reflection_inequality_check(fld, fld, mp.PlaneParam(args.lam, n=cfg.n),
                                             cfg, sampler)
        report = {"lambda": rep.lam, "Bu_measure": rep.Bu_measure,
                  "Bv_measure": rep.Bv_measure, "norms": rep.norms,
                  "inequality_margins": rep.inequality_margins}
        text = json.dumps(report, indent=2, sort_keys=True)
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            _manifest(args, [args.out])
        return EXIT_OK
    # identity
    x = np.zeros(cfg.n)
    x[0] = args.x
    lhs, rhs = mp.greens_reflection_identity(params, mp.PlaneParam(args.lam, n=cfg.n),
                                             x, cfg)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    print(f"lhs {lhs:.10g} rhs {rhs:.10g} rel {rel:.4f}")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    lines = []

    def sink(msg):
        lines.append(msg)
        print(msg)

    ok = acceptance.run_all(printer=sink, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _manifest(args, [args.out])
    return EXIT_OK if ok else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critsys",
        description="Solve and verify the critical-exponent elliptic system")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    flags = {"config": dict(help="JSON config path"), "out": dict(help="output file path"),
             "tol": dict(type=float, default=1e-10)}

    def add_flags(p, *names):  # each subcommand takes only the flags it reads
        for name in names:
            p.add_argument("--" + name, **flags[name])

    p = sub.add_parser("bubble", help="evaluate the exact solution family")
    p.add_argument("action", choices=["eval", "residual"])
    p.add_argument("--t", type=float, default=1.0)
    add_flags(p, "config", "out")
    p.set_defaults(func=cmd_bubble)

    p = sub.add_parser("shoot", help="integrate and classify one trajectory")
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--rmax", type=float, help="default: the grid's rmax")
    add_flags(p, "config", "out", "tol")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("sweep", help="uniqueness sweep over initial ratios")
    p.add_argument("--ratios", default="0.5,0.8,0.9,0.95,1,1.05,1.1,1.25,2")
    p.add_argument("--base", type=float, default=1.0)
    p.add_argument("--rmax", type=float, help="default: the grid's rmax")
    add_flags(p, "config", "out", "tol")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("identity", help="nested integral identity check")
    p.add_argument("--radii", default="0.1,1,10")
    p.add_argument("--t", type=float, default=1.0)
    add_flags(p, "config", "tol")
    p.set_defaults(func=cmd_identity, tol=1e-5)

    p = sub.add_parser("potential", help="apply the radial inverse Laplacian")
    p.add_argument("--input", help="CSV with columns r,value")
    add_flags(p, "config", "out")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("picard", help="fixed-point iteration from a bubble")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=200)
    add_flags(p, "config", "tol")
    p.set_defaults(func=cmd_picard, tol=1e-8)

    p = sub.add_parser("hls", help="HLS bilinear functional ratio")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--rexp", type=float, default=6.0 / 5.0)
    p.add_argument("--sexp", type=float, default=6.0 / 5.0)
    p.add_argument("--t", type=float, default=1.0)
    add_flags(p, "config")
    p.set_defaults(func=cmd_hls)

    p = sub.add_parser("mp", help="moving-plane scans and checks")
    p.add_argument("action", choices=["scan", "check", "identity"])
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--x", type=float, default=-1.0)
    p.add_argument("--lmin", type=float, default=-2.0)
    p.add_argument("--lmax", type=float, default=3.0)
    p.add_argument("--lnum", type=int, default=41)
    add_flags(p, "config", "out")
    p.set_defaults(func=cmd_mp)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    add_flags(p, "out")
    p.set_defaults(func=cmd_verify_all)

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
