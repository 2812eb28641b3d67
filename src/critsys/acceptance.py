"""Desk-scale verification suite exercising every module.

Each check returns (passed, detail).  The pytest acceptance module and the
CLI ``verify-all`` subcommand both run this list.
"""
from __future__ import annotations

import time

import numpy as np

from . import bubble as bb
from . import moving_plane as mp
from . import potential as pot
from . import shooting as sh
from .core import ExponentConfig, RadialGrid

DEFAULT_SEED = 1234
_CFG = ExponentConfig(3, 2.0, 3.0)  # the (n, alpha, beta) of every single-config criterion


def check_bubble_residual() -> tuple[bool, str]:
    """Amplitude constant certified by the FD residual for all (n, t)."""
    grid = RadialGrid.default()
    worst = 0.0
    for n in (3, 4, 5):
        crit = (n + 2.0) / (n - 2.0)
        cfg = ExponentConfig(n, crit / 2.0, crit / 2.0)
        for t in (0.5, 1.0, 2.0):
            res = bb.bubble_residual(bb.make_bubble(cfg, t=t), cfg, grid)
            worst = max(worst, res)
    return worst <= 1e-6, f"max residual {worst:.3e} (tol 1e-6)"


def check_system_closure() -> tuple[bool, str]:
    """(phi, phi) satisfies both coupled equations at three configs."""
    grid = RadialGrid.default()
    worst = 0.0
    for n, alpha, beta in [(3, 2.0, 3.0), (4, 1.0, 2.0), (5, 1.0, 4.0 / 3.0)]:
        cfg = ExponentConfig(n, alpha, beta)
        ru, rv = bb.pair_residual(bb.make_bubble(cfg, t=1.0), cfg, grid)
        worst = max(worst, ru, rv)
    return worst <= 1e-6, f"max pair residual {worst:.3e} (tol 1e-6)"


def check_shooting_oracle() -> tuple[bool, str]:
    """Diagonal shots reproduce phi_{0,t} to relative 1e-6 on [0, 50]."""
    c = bb.amplitude_constant(3)
    ts = (0.5, 1.0, 2.0)
    profiles = sh.integrate_radial_batch(
        [sh.ShootInput(_CFG, c * t ** -0.5, c * t ** -0.5, r_max=50.0) for t in ts])
    worst = 0.0
    for t, prof in zip(ts, profiles):
        phi = bb.eval_bubble_radial(bb.make_bubble(_CFG, t=t), prof.grid.nodes)
        worst = max(worst, float(np.max(np.abs(prof.u - phi) / phi)))
    return worst <= 1e-6, f"max relative error {worst:.3e} (tol 1e-6)"


_SWEEP_RATIOS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 2.0)
_sweep_cache: list | None = None


def _sweep_rows() -> list:
    global _sweep_cache
    if _sweep_cache is None:
        _sweep_cache = sh.uniqueness_sweep(_CFG, _SWEEP_RATIOS, base=1.0)
    return _sweep_cache


def check_uniqueness_witness() -> tuple[bool, str]:
    """BoundState occurs exactly at ratio 1 across the sweep."""
    rows = _sweep_rows()
    ok = sh.sweep_consistent(rows)
    table = ", ".join(f"{r.ratio}:{r.kind.value}" for r in rows)
    return ok, table


def check_sign_lemma() -> tuple[bool, str]:
    """u^a v^b > u^b v^a at every swept node with 0 < u < v."""
    violations = 0
    checked = 0
    for row in _sweep_rows():
        u, v = row.profile.u, row.profile.v
        mask = (u > 0.0) & (v > 0.0) & (u < v)
        checked += int(np.sum(mask))
        violations += int(np.sum(sh.ordering_term(u[mask], v[mask], _CFG) <= 0.0))
    return violations == 0, f"{checked} ordered nodes, {violations} violations"


def check_integral_identity() -> tuple[bool, str]:
    """Nested-integral identity gap and its second-order convergence."""
    params = bb.make_bubble(_CFG, t=1.0)
    radii = (0.1, 1.0, 10.0)
    gaps = []
    for num in (4000, 8000):
        grid = RadialGrid.geometric(num=num)
        rep = sh.check_integral_identity(bb.bubble_profile(params, grid), _CFG, radii)
        gaps.append(rep.max_abs_gap)
    factor = gaps[0] / gaps[1]
    ok = gaps[0] <= 1e-5 and factor >= 3.5
    return ok, f"gap {gaps[0]:.3e} (tol 1e-5), refinement factor {factor:.2f} (>= 3.5)"


def check_newton_potential() -> tuple[bool, str]:
    """Unit-ball source: interior value 1/2 and the exterior 1/r law."""
    base = np.geomspace(1e-6, 1e4, 9000)
    grid = RadialGrid(np.unique(np.concatenate([base, [1.0, 1.0 + 1e-9]])))
    f = (grid.nodes <= 1.0).astype(float)
    u, _ = pot.newton_potential_radial(f, grid, 3)
    err0 = abs(u[0] - 0.5)
    mass = 1.0 / 3.0
    ext = grid.nodes > 1.0
    err_ext = float(np.max(np.abs(u[ext] - mass / grid.nodes[ext])))
    ok = err0 <= 1e-6 and err_ext <= 1e-6
    return ok, f"u(0) error {err0:.3e}, exterior error {err_ext:.3e} (tol 1e-6)"


def check_picard_fixed_point() -> tuple[bool, str]:
    """The bubble pair is a fixed point of the integral map."""
    grid = RadialGrid.default()
    prof = bb.bubble_profile(bb.make_bubble(_CFG, t=1.0), grid)
    _, residual = pot.picard_step(prof, _CFG)
    return residual <= 1e-4, f"residual {residual:.3e} (tol 1e-4)"


def check_moving_plane_symmetry() -> tuple[bool, str]:
    """Critical plane position recovers the bubble center within one cell."""
    sampler = mp.CartesianSampler(L=10.0, m=64)
    lambdas = np.linspace(-2.0, 3.0, 41)
    details = []
    ok = True
    for center_x1 in (0.0, 1.0):
        params = bb.make_bubble(_CFG, center=(center_x1, 0.0, 0.0), t=1.0)
        field = bb.bubble_field(params)
        res = mp.critical_plane_scan(field, field, sampler, lambdas)
        # the scan itself raises ScanInconclusive unless every plane >= lambda0
        # has empty exceedance sets
        ok &= abs(res.lambda0 - center_x1) <= sampler.cell
        details.append(f"center {center_x1}: lambda0 {res.lambda0:+.4f}")
    return ok, "; ".join(details) + f" (cell {sampler.cell})"


def check_greens_identity() -> tuple[bool, str]:
    """Reflection identity: closed form vs half-space quadrature within 1e-10."""
    params = bb.make_bubble(_CFG, center=(1.0, 0.0, 0.0), t=1.0)
    worst = 0.0
    for lam, x1 in [(0.0, -1.0), (0.5, -0.5), (1.5, 0.0)]:
        lhs, rhs = mp.greens_reflection_identity(
            params, mp.PlaneParam(lam), np.array([x1, 0.0, 0.0]), _CFG)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst <= 1e-10, f"max relative disagreement {worst:.3e} (tol 1e-10)"


def check_hls_invariance() -> tuple[bool, str]:
    """Conformal invariance in t and exact homogeneity of the HLS ratio."""
    grid = RadialGrid.default()
    kernel = pot.KernelSpec(3, 1.0)
    fs = [bb.eval_bubble_radial(bb.make_bubble(_CFG, t=t), grid.nodes) ** 5
          for t in (0.5, 1.0, 2.0)]
    vals = [pot.hls_functional(f, f, grid, kernel, 6.0 / 5.0, 6.0 / 5.0) for f in fs]
    spread = (max(vals) - min(vals)) / np.mean(vals)
    f, base = fs[1], vals[1]  # t = 1
    hom = max(abs(pot.hls_functional(c1 * f, c2 * f, grid, kernel,
                                     6.0 / 5.0, 6.0 / 5.0) - base)
              for c1 in (2.0, 10.0) for c2 in (2.0, 10.0))
    ok = spread <= 1e-4 and hom <= 1e-12
    return ok, f"t-spread {spread:.3e} (tol 1e-4), homogeneity {hom:.3e} (tol 1e-12)"


def check_property_suites(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Randomized involution, swap, equal-start, and kernel positivity runs."""
    rng = np.random.default_rng(seed)
    cases = 100
    fails = []

    # reflect is an exact involution
    x = rng.normal(size=(cases, 3)) * 5.0
    for i in range(cases):
        d = rng.normal(size=3)
        plane = mp.PlaneParam(float(rng.normal() * 3.0), d / np.linalg.norm(d))
        if not np.allclose(mp.reflect(mp.reflect(x[i], plane), plane), x[i],
                           atol=1e-12):
            fails.append("involution")
            break

    # kernel-difference positivity on H_lam x H_lam
    for _ in range(cases):
        lam = float(rng.normal())
        plane = mp.PlaneParam(lam, n=3)
        p, q = rng.normal(size=3), rng.normal(size=3)
        p[0] = lam - abs(p[0]) - 1e-6
        q[0] = lam - abs(q[0]) - 1e-6
        if np.allclose(p, q):
            continue
        ql = mp.reflect(q, plane)
        diff = np.linalg.norm(p - q) ** -1.0 - np.linalg.norm(p - ql) ** -1.0
        if diff <= 0.0:
            fails.append("kernel-positivity")
            break

    # swap antisymmetry and equal-start collapse of the shooting map; each
    # family of shots is one stacked solve, so a and b are solved apart
    draws = rng.uniform(0.5, 2.0, size=(cases, 2))  # rows (u0, v0)

    def shots(pairs):
        return sh.integrate_radial_batch(
            [sh.ShootInput(_CFG, float(u0), float(v0), r_max=50.0) for u0, v0 in pairs])

    a, b = shots(draws), shots(draws[:, ::-1])
    if any(np.max(np.abs(p.u - q.v)) > 1e-7 or np.max(np.abs(p.v - q.u)) > 1e-7
           for p, q in zip(a, b)):
        fails.append("swap-antisymmetry")
    del a, b  # at most two batches alive at once
    # equal-start from the same draws
    if any(np.max(np.abs(c.u - c.v)) > 1e-10 for c in shots(draws[:, [0, 0]])):
        fails.append("equal-start-collapse")

    return not fails, "no violations" if not fails else f"failed: {fails}"


ALL_CRITERIA = [
    ("bubble residual", check_bubble_residual),
    ("system closure", check_system_closure),
    ("shooting-oracle agreement", check_shooting_oracle),
    ("uniqueness witness", check_uniqueness_witness),
    ("sign lemma", check_sign_lemma),
    ("integral identity", check_integral_identity),
    ("newtonian potential exactness", check_newton_potential),
    ("picard fixed point", check_picard_fixed_point),
    ("moving-plane symmetry", check_moving_plane_symmetry),
    ("greens reflection identity", check_greens_identity),
    ("hls conformal invariance", check_hls_invariance),
    ("property suites", check_property_suites),
]


def run_all(printer=print, seed: int = DEFAULT_SEED) -> bool:
    """Run every criterion, print one line each, return overall success.

    Each line carries the criterion's wall time in seconds.  ``seed`` drives
    the randomized property suites.
    """
    all_ok = True
    for name, fn in ALL_CRITERIA:
        start = time.perf_counter()
        ok, detail = fn(seed=seed) if fn is check_property_suites else fn()
        seconds = time.perf_counter() - start
        all_ok &= ok
        printer(f"[{'PASS' if ok else 'FAIL'}] {name} ({seconds:.2f} s): {detail}")
    return all_ok
