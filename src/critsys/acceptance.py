"""Desk-scale verification suite exercising every module.

Each check returns (passed, detail).  The pytest acceptance module and the
CLI ``verify-all`` subcommand both run this list.
"""
from __future__ import annotations

import operator
import random
import time

import numpy as np

from . import bubble as bb
from . import moving_plane as mp
from . import potential as pot
from . import shooting as sh
from .core import ExponentConfig, RadialGrid
from .errors import CritsysError

DEFAULT_SEED = 1234
_CFG = ExponentConfig(3, 2.0, 3.0)  # the (n, alpha, beta) of every single-config criterion
_DILATED = 20  # draws, each with its dilated twin, in the property suite's one solve


def check_bubble_residual() -> tuple[bool, str]:
    """Amplitude constant certified by the FD residual for all (n, t)."""
    grid = RadialGrid.default()
    residuals = []
    for n in (3, 4, 5):
        crit = (n + 2.0) / (n - 2.0)
        cfg = ExponentConfig(n, crit / 2.0, crit / 2.0)
        for t in (0.5, 1.0, 2.0):
            residuals.append(bb.bubble_residual(bb.make_bubble(cfg, t=t), cfg, grid))
    worst = float(np.max(residuals))  # keeps a NaN, which then fails
    return worst <= 1e-6, f"max residual {worst:.3e} (tol 1e-6)"


def check_system_closure() -> tuple[bool, str]:
    """(phi, phi) satisfies both coupled equations at three configs."""
    grid = RadialGrid.default()
    residuals = []
    for n, alpha, beta in [(3, 2.0, 3.0), (4, 1.0, 2.0), (5, 1.0, 4.0 / 3.0)]:
        cfg = ExponentConfig(n, alpha, beta)
        residuals.append(bb.bubble_residual(bb.make_bubble(cfg, t=1.0), cfg, grid))
    worst = float(np.max(residuals))  # keeps a NaN, which then fails
    return worst <= 1e-6, f"max pair residual {worst:.3e} (tol 1e-6)"


_SWEEP_RATIOS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 2.0)
_ORACLE_TS = (0.5, 1.0, 2.0)  # the bubbles phi_{0,t} of the oracle's diagonal shots
_sweep_cache: list | None = None


def _shots() -> list[sh.ShootOutcome]:
    """The outcomes of the gate's one shooting batch, solved on first use.

    One classify_batch on the default grid at _CFG: the sweep's starts
    (1, ratio) for _SWEEP_RATIOS, then the oracle's diagonal starts
    c t^(-1/2) for _ORACLE_TS.  A solve costs its steps, not its columns,
    so the three criteria that shoot share it.
    """
    global _sweep_cache
    if _sweep_cache is None:
        grid = RadialGrid.default()
        c = bb.amplitude_constant(_CFG.n)
        starts = [(1.0, rho) for rho in _SWEEP_RATIOS] + [(c * t ** -0.5,) * 2 for t in _ORACLE_TS]
        _sweep_cache = sh.classify_batch(
            [sh.ShootInput(_CFG, u0, v0, r_max=grid.rmax) for u0, v0 in starts], grid)
    return _sweep_cache


def check_shooting_oracle() -> tuple[bool, str]:
    """Diagonal shots are bound states and reproduce phi_{0,t} to relative 1e-6 on [0, 50]."""
    errors, unbound = [], []
    for t, out in zip(_ORACLE_TS, _shots()[len(_SWEEP_RATIOS):]):
        nodes = out.profile.grid.nodes
        near = nodes <= 50.0
        phi = bb.eval_bubble_radial(bb.make_bubble(_CFG, t=t), nodes[near])
        errors.append(np.max(np.abs(out.profile.u[near] - phi) / phi))
        if out.kind is not sh.Kind.BOUND_STATE:
            unbound.append(f"t = {t}: {out.kind.value}")
    worst = float(np.max(errors))  # keeps a NaN, which then fails
    detail = f"max relative error {worst:.3e} (tol 1e-6)"
    if unbound:
        return False, f"not BoundState: {', '.join(unbound)}; {detail}"
    return worst <= 1e-6, detail


def check_uniqueness_witness() -> tuple[bool, str]:
    """BoundState occurs exactly at ratio 1 across the sweep."""
    outcomes = _shots()[:len(_SWEEP_RATIOS)]
    table = ", ".join(f"{rho}:{out.kind.value}" for rho, out in zip(_SWEEP_RATIOS, outcomes))
    return sh.sweep_consistent(_SWEEP_RATIOS, outcomes), table


def check_sign_lemma() -> tuple[bool, str]:
    """The crossing argument on the off-diagonal sweep shots: v - u = (v0 - u0) + W.

    W is sh.contradiction_witness, which keeps the sign of v0 - u0 (u0 and v0
    the first samples), so |v - u| never falls and no shot crosses the
    diagonal.  Both are read on each column's positive nodes, relative to
    |v0 - u0|: the smallest step of |v - u| and the largest identity gap.
    """
    steps, gaps, count = [], [], 0
    for rho, out in zip(_SWEEP_RATIOS, _shots()):
        if abs(rho - 1.0) <= sh.DIAGONAL_WINDOW:
            continue
        prof = out.profile
        keep = ~(np.minimum(prof.u, prof.v) <= 0.0)  # a NaN node is kept, and fails
        w = (prof.v - prof.u)[keep]
        scale = abs(w[0])
        steps.append(np.min(np.diff(np.abs(w))) / scale)
        gaps.append(np.max(np.abs(w - w[0] - sh.contradiction_witness(prof, _CFG)[keep])) / scale)
        count += w.size
    step, gap = float(np.min(steps)), float(np.max(gaps))  # both keep a NaN, which then fails
    return step >= -1e-12 and gap <= 1e-5, (
        f"{count} positive nodes, step {step:.3e} (>= -1e-12), identity gap {gap:.3e} (tol 1e-5)")


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
    nodes = np.sort(np.concatenate([np.geomspace(1e-6, 1e4, 9000), [1.0, 1.0 + 1e-9]]))
    grid = RadialGrid(nodes[np.concatenate(([True], np.diff(nodes) > 0.0))])
    f = (grid.nodes <= 1.0).astype(float)
    u, _ = pot.newton_potential_radial(f, grid, 3)
    err0 = float(abs(u[0] - 0.5))
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
    gaps = []
    for lam, x1 in [(0.0, -1.0), (0.5, -0.5), (1.5, 0.0)]:
        lhs, rhs = mp.greens_reflection_identity(
            params, mp.PlaneParam(lam), np.array([x1, 0.0, 0.0]), _CFG)
        gaps.append(abs(lhs - rhs) / abs(lhs))
    worst = float(np.max(gaps))  # keeps a NaN, which then fails
    return worst <= 1e-10, f"max relative disagreement {worst:.3e} (tol 1e-10)"


def check_hls_invariance() -> tuple[bool, str]:
    """Conformal invariance in t and exact homogeneity of the HLS ratio."""
    grid = RadialGrid.default()
    kernel = pot.KernelSpec(3, 1.0)
    fs = [bb.eval_bubble_radial(bb.make_bubble(_CFG, t=t), grid.nodes) ** 5
          for t in (0.5, 1.0, 2.0)]
    vals = [pot.hls_functional(f, f, grid, kernel, 6.0 / 5.0, 6.0 / 5.0) for f in fs]
    spread = float((max(vals) - min(vals)) / np.mean(vals))
    f, base = fs[1], vals[1]  # t = 1
    hom = float(np.max([abs(pot.hls_functional(c1 * f, c2 * f, grid, kernel,
                                               6.0 / 5.0, 6.0 / 5.0) - base)
                        for c1 in (2.0, 10.0) for c2 in (2.0, 10.0)]))  # keeps a NaN
    ok = spread <= 1e-4 and hom <= 1e-12
    return ok, f"t-spread {spread:.3e} (tol 1e-4), homogeneity {hom:.3e} (tol 1e-12)"


def _node_shift_gap(base: list, twin: list, shift: np.ndarray, scale: np.ndarray) -> float:
    """Largest gap of dilated twins from their bases on a geometric grid.

    ``base`` and ``twin`` are k profiles each (anything with u and v rows),
    sampled at the nodes r_i = r0 q^i.  Twin j is predicted to be scale[j]
    times base j at node i + shift[j]: at the critical sum,
    u_lam(r) = lam^a u(lam r) with lam = q^shift[j] and scale[j] = lam^a.
    So the comparison needs no interpolation: over the N - shift[j] nodes it
    covers, each row's largest |twin - scale * shifted base|, relative to
    the largest |base| of that row.  The rows are read where they are, with
    no stacked copy.  The result keeps a NaN.
    """
    gaps = [np.abs(y[:len(y) - s] - c * x[s:]).max() / np.abs(x).max()
            for b, t, s, c in zip(base, twin, shift, scale)
            for x, y in ((b.u, t.u), (b.v, t.v))]
    return float(np.max(gaps))


def _swap_gaps(x: np.ndarray) -> tuple[float, float]:
    """Swap and collapse gaps of (4, 3m) rows (u, v, u', v') in thirds a, b, c.

    b should be a with u and v swapped, and c have u = v: the largest
    |a - swapped b| and the largest |u - v|, |u' - v'| over c.  Both keep a NaN.
    """
    a, b, c = np.split(x, 3, axis=1)
    return float(np.abs(a - b[[1, 0, 3, 2]]).max()), float(np.abs(c[[0, 2]] - c[[1, 3]]).max())


def check_property_suites(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Randomized swap, equal-start and dilation runs.

    The swap antisymmetry and equal-start collapse of the shooting map are
    properties of its two ingredients, the series start and the RHS: each
    acts on its columns alone, so they are checked on those, over the draws,
    their u<->v swaps and their equal starts.  Dilation covariance is checked
    on the solver: one solve of seeded draws and their dilated twins.

    The draws come from random.Random(seed), in this order: the 100 rows
    (u0, v0) of uniform(0.5, 2.0), then the 4 x 100 states of gauss(0, 1) row
    by row, then the _DILATED shifts of randint(50, 200).  A seed that is not
    an integer raises TypeError, and a negative one ValueError, before any draw.
    """
    seed = operator.index(seed)  # TypeError unless an integer; Random would take 1.5
    if seed < 0:  # Random(-s) would draw as Random(s)
        raise ValueError(f"need a nonnegative seed, got {seed}")
    rng = random.Random(seed)
    cases = 100
    fails = []

    # swap antisymmetry and equal-start collapse: the draws a, the swapped draws b and
    # the equal starts c, through the series start and then one RHS call, which also
    # takes seeded states whose u and v go below 0, so that the clamp is exercised
    grid = RadialGrid.geometric(rmax=50.0)  # the dilation solve's; its first node is r0
    draws = np.array([[rng.uniform(0.5, 2.0) for _ in range(2)] for _ in range(cases)])
    u0, v0 = np.concatenate((draws, draws[:, ::-1], draws[:, [0, 0]])).T
    r0 = grid.r0
    start = sh._taylor_start(_CFG, u0, v0, r0)
    noise = [[rng.gauss(0.0, 1.0) for _ in range(cases)] for _ in range(4)]
    a = np.concatenate((start[:, :cases], noise), axis=1)
    states = np.concatenate((a, a[[1, 0, 3, 2]], a[[0, 0, 2, 2]]), axis=1)
    rates = np.empty_like(states)
    sh._rhs(_CFG.n, _CFG.alpha, _CFG.beta, states.shape[1])(
        r0, states.reshape(2, 2, -1), rates.reshape(2, 2, -1))
    swap, collapse = np.maximum(_swap_gaps(start), _swap_gaps(rates))  # keeps a NaN
    if not swap <= 1e-7:
        fails.append("swap-antisymmetry")
    if not collapse <= 1e-10:
        fails.append("equal-start-collapse")

    # dilation covariance at the critical sum: the shot from lam^a (u0, v0) is
    # lam^a u(lam r).  With lam = q^k on the geometric grid of ratio q, twin node i
    # compares with base node i + k.  Base and twin take different steps, so the gap
    # measures solver error
    shift = np.array([rng.randint(50, 200) for _ in range(_DILATED)])
    scale = grid.log_step ** (shift * (_CFG.n - 2) / 2.0)
    base = draws[:_DILATED]
    starts = np.concatenate((base, base * scale[:, None]))
    profs = sh.integrate_radial_batch(
        [sh.ShootInput(_CFG, float(u), float(v), r_max=50.0) for u, v in starts], grid)
    dilation = _node_shift_gap(profs[:_DILATED], profs[_DILATED:], shift, scale)
    if not dilation <= 1e-8:
        fails.append("dilation-covariance")

    gaps = (f"swap gap {swap:.3e} (tol 1e-7), collapse gap {collapse:.3e} (tol 1e-10), "
            f"dilation gap {dilation:.3e} (tol 1e-8)")
    return not fails, gaps if not fails else f"failed: {fails}; {gaps}"


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
    the randomized property suites.  A criterion that raises a CritsysError
    fails with the error as its detail, and the rest still run.
    """
    all_ok = True
    for name, fn in ALL_CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn(seed=seed) if fn is check_property_suites else fn()
        except CritsysError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        all_ok &= ok
        printer(f"[{'PASS' if ok else 'FAIL'}] {name} ({seconds:.2f} s): {detail}")
    return all_ok
