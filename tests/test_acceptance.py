"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from critsys import acceptance, cli
from critsys import bubble as bb
from critsys import moving_plane as mp
from critsys import potential as pot
from critsys import shooting as sh
from critsys.acceptance import ALL_CRITERIA
from critsys.core import ExponentConfig, RadialGrid
from critsys.errors import IterateBlowup


@pytest.mark.parametrize("name,check", ALL_CRITERIA,
                         ids=[name for name, _ in ALL_CRITERIA])
def test_criterion(name, check, capsys):
    ok, detail = check()
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_property_suite_batches_match_single_shots(monkeypatch):
    batches, batch = [], sh.integrate_radial_batch
    solves, solve = [], sh.solve_ivp

    def recording(inputs, grid=None):
        profs = batch(inputs, grid)
        batches.append((inputs, np.array([[p.u for p in profs], [p.v for p in profs]])))
        return profs

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sh, "integrate_radial_batch", recording)
    monkeypatch.setattr(sh, "solve_ivp", counting)
    ok, detail = acceptance.check_property_suites()
    assert ok, detail
    # the seeded draws and their dilated twins (lam^a u0, lam^a v0), lam = q^k with q
    # the ratio of the solve's geometric grid and k in [50, 200]: one solve of 40 columns
    assert len(solves) == 1
    [(inputs, (us, vs))] = batches
    starts = np.array([(inp.u0, inp.v0) for inp in inputs])
    k = acceptance._DILATED
    assert len(starts) == 2 * k == 40
    assert all(inp.r_max == 50.0 for inp in inputs)
    scale = starts[k:, 0] / starts[:k, 0]
    assert np.allclose(starts[k:, 1] / starts[:k, 1], scale, rtol=1e-14, atol=0.0)
    shift = np.log(scale) / (0.5 * np.log(RadialGrid.geometric(rmax=50.0).log_step))
    assert np.allclose(shift, np.round(shift), rtol=0.0, atol=1e-9)
    assert (np.round(shift) >= 50).all() and (np.round(shift) <= 200).all()
    monkeypatch.undo()
    for j in range(0, len(inputs), 4):
        ref = sh.integrate_radial(inputs[j])
        for g, r in ((us[j], ref.u), (vs[j], ref.v)):
            assert np.max(np.abs(g - r)) <= 1e-8 * np.max(np.abs(r))
            assert np.array_equal(g == 0.0, r == 0.0)


def test_node_shift_gap_compares_node_i_with_node_i_plus_shift():
    # an exact dilation reads 0; a NaN anywhere in a base row, even before the nodes
    # that its twin is compared with, reads NaN
    u, v = np.arange(1.0, 11.0), np.arange(11.0, 21.0)
    base = [SimpleNamespace(u=u, v=v)]  # one column
    shift, scale = np.array([3]), np.array([2.0])
    twin = [SimpleNamespace(u=np.zeros(10), v=np.zeros(10))]
    twin[0].u[:7], twin[0].v[:7] = 2.0 * u[3:], 2.0 * v[3:]
    assert acceptance._node_shift_gap(base, twin, shift, scale) == 0.0
    twin[0].v[6] += 0.4  # v, relative to the v row's largest value, 20
    assert acceptance._node_shift_gap(base, twin, shift, scale) == pytest.approx(0.02)
    u[0] = np.nan
    assert np.isnan(acceptance._node_shift_gap(base, twin, shift, scale))


def test_shooting_criteria_share_one_solve(monkeypatch):
    # from a cold cache, whichever criterion runs first pays for the one solve: the
    # sweep's 7 ratios and the oracle's 3 diagonal shots, on the default grid
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    solves, solve = [], sh.solve_ivp

    def counting(*args, **kwargs):
        solves.append((kwargs["y0"].shape, kwargs["t_eval"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sh, "solve_ivp", counting)
    details = {}
    for name, check in ALL_CRITERIA:
        if name in ("shooting-oracle agreement", "uniqueness witness", "sign lemma"):
            ok, details[name] = check()
            assert ok, f"{name}: {details[name]}"
    [(shape, t_eval)] = solves
    assert shape == (2, 2, len(acceptance._SWEEP_RATIOS) + len(acceptance._ORACLE_TS)) == (2, 2, 10)
    assert np.array_equal(t_eval, RadialGrid.default().nodes)
    # the oracle's shots on the sweep's grid to 1e4, read on the nodes up to 50
    oracle = re.match(r"max relative error (\S+) ", details["shooting-oracle agreement"])
    assert float(oracle[1]) <= 1e-8


def test_shared_batch_matches_the_uniqueness_sweep(monkeypatch):
    # the batch's first len(_SWEEP_RATIOS) columns are the sweep, one start (1, ratio)
    # per ratio in order, which the uniqueness witness and the sign lemma read
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    ratios = acceptance._SWEEP_RATIOS
    outcomes = acceptance._shots()[:7]
    assert len(ratios) == 7
    assert [(out.diagnostics["u0"], out.diagnostics["v0"]) for out in outcomes] \
        == [(1.0, rho) for rho in ratios]
    ref = sh.uniqueness_sweep(acceptance._CFG, ratios)
    assert [out.kind for out in outcomes] == [out.kind for out in ref]
    for out, want in zip(outcomes, ref, strict=True):
        for got, r in ((out.profile.u, want.profile.u), (out.profile.v, want.profile.v)):
            assert np.max(np.abs(got - r)) <= 1e-8 * np.max(np.abs(r))


def test_shooting_oracle_needs_bound_states(monkeypatch):
    # no plateau is flat to 0: every diagonal shot is NoDecay, and the oracle fails by
    # kind although its profiles still match the bubble
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    monkeypatch.setattr(sh, "DECAY_PLATEAU_RTOL", 0.0)
    ok, detail = acceptance.check_shooting_oracle()
    assert not ok
    assert detail.startswith("not BoundState: t = 0.5: NoDecay, t = 1.0: NoDecay, "
                             "t = 2.0: NoDecay; max relative error ")


@pytest.mark.parametrize("check, row, column, kind, detail", [
    # u of the t = 1 diagonal shot
    (acceptance.check_shooting_oracle, 0, 8, sh.Kind.BOUND_STATE,
     "max relative error nan (tol 1e-6)"),
    # v of the ratio 1.25 shot, before it fails
    (acceptance.check_sign_lemma, 1, 5, sh.Kind.POSITIVITY_FAILURE,
     "16505 positive nodes, step nan (>= -1e-12), identity gap nan (tol 1e-5)"),
], ids=["shooting-oracle", "sign-lemma"])
def test_shooting_criterion_fails_a_nan_sample(monkeypatch, check, row, column, kind, detail):
    # NaN at r = 0.1 in one row of one column of the gate's shared batch, far from the last
    # decade that classifies it: the kind stays, so the criterion itself must fail
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    solve = sh.solve_ivp

    def planting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.y.reshape(4, 10, -1)[row, column, 2000] = np.nan
        return sol

    monkeypatch.setattr(sh, "solve_ivp", planting)
    assert check() == (False, detail)
    assert acceptance._shots()[column].kind is kind


def plant_nan(monkeypatch, module, name: str, calls, plant):
    """Replace the result r of the listed calls (counted from 0) of module.name by plant(r)."""
    fn, seen = getattr(module, name), []

    def planting(*args, **kwargs):
        result = fn(*args, **kwargs)
        seen.append(1)
        return plant(result) if len(seen) - 1 in calls else result

    monkeypatch.setattr(module, name, planting)


@pytest.mark.parametrize("check, module, name, calls, plant, detail", [
    # one of the nine bubble residuals, not the first
    (acceptance.check_bubble_residual, bb, "bubble_residual", {4}, lambda r: np.nan,
     "max residual nan (tol 1e-6)"),
    # every pair residual: a running max that starts at 0 would read 0
    (acceptance.check_system_closure, bb, "pair_residual", {0, 1, 2}, lambda r: (np.nan,) * 2,
     "max pair residual nan (tol 1e-6)"),
    # the right side at the second of the three points
    (acceptance.check_greens_identity, mp, "greens_reflection_identity", {1},
     lambda r: (r[0], np.nan), "max relative disagreement nan (tol 1e-10)"),
    # the second of the four homogeneity values (calls 0-2 are the t-spread's)
    (acceptance.check_hls_invariance, pot, "hls_functional", {4}, lambda r: np.nan,
     "homogeneity nan (tol 1e-12)"),
], ids=["bubble-residual", "system-closure", "greens-identity", "hls-homogeneity"])
def test_criterion_fails_a_planted_nan(monkeypatch, check, module, name, calls, plant, detail):
    # a NaN never compares greater, so Python's max keeps whatever came before it
    plant_nan(monkeypatch, module, name, calls, plant)
    ok, got = check()
    assert not ok and got.endswith(detail)


def test_nan_in_the_v_forcing_fails_identity_and_picard(monkeypatch):
    # NaN in u^beta v^alpha, the v equation's forcing, at node 100 of every array of grid
    # length; folded with Python's max(u side, nan), which returns the u side, both criteria
    # passed (gap 4.416e-06, residual 8.076e-06)
    forcing = ExponentConfig.forcing

    def planted(self, u, v):
        fu, fv = forcing(self, u, v)
        if np.size(fv) >= 1000:
            fv = np.array(fv)
            fv[100] = np.nan
        return fu, fv

    monkeypatch.setattr(ExponentConfig, "forcing", planted)
    assert acceptance.check_integral_identity() == (
        False, "gap nan (tol 1e-5), refinement factor nan (>= 3.5)")
    with pytest.raises(IterateBlowup, match="sup-norm nan"):
        acceptance.check_picard_fixed_point()
    lines = []
    assert not acceptance.run_all(printer=lines.append)
    assert lines[5].startswith("[FAIL] integral identity ")
    assert re.fullmatch(r"\[FAIL\] picard fixed point \([0-9.]+ s\): IterateBlowup: "
                        r"iterate sup-norm nan exceeds 1e\+06", lines[7])


def plant_trapezoid(monkeypatch, delta: float):
    """Scale every cumulative trapezoid of the potential by 1 + delta: the Newtonian
    potential, its derivative, and so the nested integrals of the integral identity.
    """
    trapezoid = pot.cumulative_trapezoid
    monkeypatch.setattr(pot, "cumulative_trapezoid", lambda y, x: trapezoid(y, x) * (1 + delta))


@pytest.mark.parametrize("check, delta, ok, detail", [
    # at 1e-6 the gap (5.6e-6) is within 1e-5, but the refinement factor falls below 3.5
    (acceptance.check_integral_identity, 1e-6, False,
     "gap 5.601e-06 (tol 1e-5), refinement factor 2.45"),
    (acceptance.check_integral_identity, 1e-7, True, "gap 4.534e-06 (tol 1e-5), "),
    (acceptance.check_newton_potential, 1e-5, False, "u(0) error 5.000e-06, exterior error "),
    (acceptance.check_newton_potential, 1e-6, True, "u(0) error 5.005e-07, exterior error "),
    # the bubble's own quadrature residual, 8.1e-6, is 12 times below the 1e-4 tolerance
    (acceptance.check_picard_fixed_point, 1e-4, False, "residual 1.389e-04 (tol 1e-4)"),
    (acceptance.check_picard_fixed_point, 1e-5, True, "residual 2.044e-05 (tol 1e-4)"),
], ids=["identity-1e-6", "identity-1e-7", "potential-1e-5", "potential-1e-6", "picard-1e-4",
        "picard-1e-5"])
def test_quadrature_criterion_resolution(monkeypatch, check, delta, ok, detail):
    # the smallest scaled quadrature each criterion catches, and the next one it misses
    plant_trapezoid(monkeypatch, delta)
    got_ok, got = check()
    assert got_ok is ok and got.startswith(detail)


def test_every_criterion_returns_a_python_bool(monkeypatch):
    # a numpy bool prints as PASS or FAIL too, but is never `ok is False`; the
    # potential's and the t-spread's comparisons read numpy floats, and when they failed
    # their `and` returned np.False_
    for name, check in ALL_CRITERIA:
        assert type(check()[0]) is bool, name
    plant_nan(monkeypatch, pot, "hls_functional", {1}, lambda r: r * 1.001)
    ok, detail = acceptance.check_hls_invariance()
    assert ok is False and detail.startswith("t-spread 9.997e-04 (tol 1e-4)")
    plant_trapezoid(monkeypatch, 1e-5)
    assert acceptance.check_newton_potential()[0] is False


def swap_exponents(make):
    return lambda n, alpha, beta, k: make(n, beta, alpha, k)


def scale_alpha(eps: float):
    return lambda make: lambda n, alpha, beta, k: make(n, alpha * (1 + eps), beta, k)


_WITNESS = ("0.5:PositivityFailure, 0.8:PositivityFailure, 0.9:PositivityFailure, 1.0:{}, "
            "1.1:PositivityFailure, 1.25:PositivityFailure, 2.0:PositivityFailure")


@pytest.mark.parametrize("plant, ok, table", [
    # alpha and beta swapped in the solver: every ratio reads BoundState
    (swap_exponents, False, ", ".join(f"{rho}:BoundState" for rho in acceptance._SWEEP_RATIOS)),
    # an off-critical alpha: the diagonal shot no longer decays like r^(2-n)
    (scale_alpha(1e-4), False, _WITNESS.format("NoDecay")),
    (scale_alpha(1e-6), True, _WITNESS.format("BoundState")),
], ids=["swap", "alpha-1e-4", "alpha-1e-6"])
def test_uniqueness_witness_resolution(monkeypatch, plant, ok, table):
    # the gate's shared batch is solved again under the plant and restored after it
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    monkeypatch.setattr(sh, "_rhs", plant(sh._rhs))
    assert acceptance.check_uniqueness_witness() == (ok, table)


def drift_alpha(eps: float):
    """alpha (1 + eps), with beta lowered by as much so that alpha + beta stays critical."""
    return lambda make: lambda n, alpha, beta, k: make(n, alpha * (1 + eps), beta - alpha * eps, k)


_SIGN_LEMMA = "{} positive nodes, step {} (>= -1e-12), identity gap {} (tol 1e-5)"


@pytest.mark.parametrize("plant, ok, detail", [
    # the six off-diagonal shots: |v - u| never falls, and v - u - (v0 - u0) is the witness
    # to the trapezoid's error
    (None, True, _SIGN_LEMMA.format(16505, "0.000e+00", "3.687e-06")),
    # alpha and beta swapped in the solver: no shot fails, |v - u| falls, and the witness
    # of the gate's exponents no longer closes the identity
    (swap_exponents, False, _SIGN_LEMMA.format(24000, "-2.216e-03", "2.000e+00")),
    # an exponent drift along the critical sum, which the uniqueness witness passes
    (drift_alpha(1e-4), False, _SIGN_LEMMA.format(16505, "0.000e+00", "6.756e-04")),
    (drift_alpha(1e-6), False, _SIGN_LEMMA.format(16505, "0.000e+00", "1.041e-05")),
    (drift_alpha(1e-7), True, _SIGN_LEMMA.format(16505, "0.000e+00", "4.359e-06")),
], ids=["none", "swap", "drift-1e-4", "drift-1e-6", "drift-1e-7"])
def test_sign_lemma_resolution(monkeypatch, plant, ok, detail):
    monkeypatch.setattr(acceptance, "_sweep_cache", None)
    if plant is not None:
        monkeypatch.setattr(sh, "_rhs", plant(sh._rhs))
    assert acceptance.check_sign_lemma() == (ok, detail)


@pytest.mark.parametrize("eps, residual, closure", [
    (1e-8, (False, "max residual 1.067e-05"), (False, "max pair residual 1.445e-06")),
    (-1e-8, (False, "max residual 1.040e-05"), (False, "max pair residual 1.444e-06")),
    (1e-9, (False, "max residual 1.190e-06"), (True, "max pair residual 1.510e-07")),
    (-1e-9, (True, "max residual 9.166e-07"), (True, "max pair residual 1.521e-07")),
], ids=["+1e-8", "-1e-8", "+1e-9", "-1e-9"])
def test_bubble_criteria_resolve_the_amplitude_constant(monkeypatch, eps, residual, closure):
    # every bubble's amplitude c(n) scaled by 1 + eps
    amplitude = bb.amplitude_constant
    monkeypatch.setattr(bb, "amplitude_constant", lambda n: amplitude(n) * (1 + eps))
    for check, (ok, detail) in ((acceptance.check_bubble_residual, residual),
                                (acceptance.check_system_closure, closure)):
        assert check() == (ok, f"{detail} (tol 1e-6)")


def plant_mirror(monkeypatch, delta: float):
    """Mirror across x1 = lam + delta wherever a plane x1 = lam is meant: every
    moving-plane pass reads the one mirror, mp._mirror.
    """
    mirror = mp._mirror
    monkeypatch.setattr(mp, "_mirror", lambda x1, lam: mirror(x1, lam + delta))


@pytest.mark.parametrize("check, delta, detail", [
    # 1e-9 off, the two sides part by 5.9e-10 relative, past the 1e-10 tolerance (1e-10 passes)
    (acceptance.check_greens_identity, 1e-9, "max relative disagreement 5.869e-10"),
    # lambda0 misses by 0.375, more than the one cell (0.3125) it may (0.2 misses by 0.125)
    (acceptance.check_moving_plane_symmetry, 0.4,
     "center 0.0: lambda0 -0.3750; center 1.0: lambda0 +0.6250"),
], ids=["greens-identity", "moving-plane-symmetry"])
def test_moving_plane_criterion_fails_a_shifted_mirror(monkeypatch, check, delta, detail):
    plant_mirror(monkeypatch, delta)
    ok, got = check()
    assert not ok and got.startswith(detail)


def test_gate_reports_a_criterion_that_raises_and_runs_the_rest(monkeypatch, capsys):
    # mirrored across lam - 0.1, the scan's emptiness is non-monotone and it raises
    plant_mirror(monkeypatch, -0.1)
    lines = []
    assert not acceptance.run_all(printer=lines.append)
    assert len(lines) == len(ALL_CRITERIA) == 12
    assert re.fullmatch(r"\[FAIL\] moving-plane symmetry \([0-9.]+ s\): ScanInconclusive: "
                        r"set emptiness is non-monotone across the sweep \(grid artifacts\)",
                        lines[8])
    assert [line[1:5] for line in lines[9:]] == ["FAIL", "PASS", "PASS"]
    assert cli.run(["verify-all"]) == cli.EXIT_ASSERTION
    assert len(capsys.readouterr().out.splitlines()) == 12


def test_gate_lets_an_error_that_is_not_numerical_through(monkeypatch):
    def broken():
        raise RuntimeError("a bug, not a numerical failure")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [("broken", broken)])
    with pytest.raises(RuntimeError, match="a bug"):
        acceptance.run_all(printer=lambda line: None)


def plant_violation(monkeypatch, target: str, third: int, offset):
    """Offset the rows (u, v, u', v') of one third (0: a, 1: b, 2: c) of the columns
    that the property suite's swap checks read: the output of its own series start
    (target "start") or of its own RHS call (target "rates").  The dilation solve's
    start and RHS, of 2 * _DILATED columns, are left alone.
    """
    offset = np.asarray(offset, dtype=float)[:, None]
    solve = 2 * acceptance._DILATED

    def offset_third(y):  # y: (4, 3m) or a (2, 2, 3m) view
        flat = y.reshape(4, -1)
        m = flat.shape[1] // 3
        flat[:, third * m:(third + 1) * m] += offset

    if target == "start":
        start = sh._taylor_start

        def planted(cfg, u0, v0, r0):
            y = start(cfg, u0, v0, r0)
            if y.shape[1] != solve:
                offset_third(y)
            return y
        monkeypatch.setattr(sh, "_taylor_start", planted)
    else:
        make = sh._rhs

        def making(n, alpha, beta, k):
            rhs = make(n, alpha, beta, k)
            if k == solve:
                return rhs

            def planted(r, y, out):
                rhs(r, y, out)
                offset_third(out)
            return planted
        monkeypatch.setattr(sh, "_rhs", making)


@pytest.mark.parametrize("target, third, offset, failed", [
    # the swapped (b) starts: v off by 1e-6
    ("start", 1, (0.0, 1e-6, 0.0, 0.0), "swap-antisymmetry"),
    # the draws (a): u off by 1e-6
    ("start", 0, (1e-6, 0.0, 0.0, 0.0), "swap-antisymmetry"),
    # the equal starts (c): u off by 1e-9, above the 1e-10 collapse tolerance and below
    # the 1e-7 swap tolerance
    ("start", 2, (1e-9, 0.0, 0.0, 0.0), "equal-start-collapse"),
    # the same on the RHS's rates, whose slope rows are the forcing terms
    ("rates", 1, (0.0, 0.0, 0.0, 1e-6), "swap-antisymmetry"),
    ("rates", 0, (0.0, 0.0, 1e-6, 0.0), "swap-antisymmetry"),
    ("rates", 2, (0.0, 0.0, 1e-9, 0.0), "equal-start-collapse"),
    # a NaN gap never compares greater than a tolerance; it must still fail the suite
    ("rates", 1, (np.nan, 0.0, 0.0, 0.0), "swap-antisymmetry"),
    ("rates", 2, (0.0, 0.0, 0.0, np.nan), "equal-start-collapse"),
], ids=["start-b", "start-a", "start-c", "rates-b", "rates-a", "rates-c", "nan-swap",
        "nan-collapse"])
def test_property_suite_swap_checks_catch_a_plant(monkeypatch, target, third, offset, failed):
    plant_violation(monkeypatch, target, third, offset)
    ok, detail = acceptance.check_property_suites()
    assert not ok and detail.startswith(f"failed: {[failed]}; ")


def test_property_suite_fails_a_nan_dilation_block(monkeypatch):
    # NaN in the dilation solve's samples, in the v row of one twin column at a node
    # before any column fails (a running max that drops NaN would pass)
    solve, planted = sh.solve_ivp, []

    def planting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        v = sol.y.reshape(4, -1, sol.y.shape[1])[1]
        if len(v) == 2 * acceptance._DILATED:
            v[-1, 1500] = np.nan
            planted.append(len(v))
        return sol

    monkeypatch.setattr(sh, "solve_ivp", planting)
    ok, detail = acceptance.check_property_suites()
    assert planted == [40]
    assert not ok and detail.startswith("failed: ['dilation-covariance']; ")
    assert "dilation gap nan" in detail


def test_property_suite_catches_an_off_critical_exponent(monkeypatch):
    # alpha (1 + 1e-6) breaks the dilation invariance of the system but keeps the RHS
    # swap-equivariant: only the dilation check can see it
    make = sh._rhs
    monkeypatch.setattr(sh, "_rhs", lambda n, alpha, beta, k: make(n, alpha * (1 + 1e-6), beta, k))
    ok, detail = acceptance.check_property_suites()
    assert not ok and detail.startswith("failed: ['dilation-covariance']; ")


@pytest.mark.parametrize("seed", [*range(41), acceptance.DEFAULT_SEED])
def test_property_suite_passes_at_every_seed(seed):
    # the gate benchmark passes its own seed: the 1e-8 dilation tolerance needs margin
    # at each (the gap reads at most 1.5e-9 over seeds 0-40)
    ok, detail = acceptance.check_property_suites(seed=seed)
    assert ok, detail


def test_property_suite_holds_under_two_sample_blocks():
    # the suite's one solve samples the 4 rows of its 40 columns, (4, 40, 4000) float64,
    # 5.1 MB, and reads their u and v where they are; the largest temporary is the first
    # step's dense output (4 x 40 rows over about 1290 nodes, 1.7 MB).  The peak reads
    # about 7.2 MB; a stacked copy of u and v, (2, 40, 4000), would add 2.6 MB
    bound = 8.5e6
    tracemalloc.start()
    try:
        ok, detail = acceptance.check_property_suites()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok, detail
    assert peak < bound, f"peak {peak / 1e6:.1f} MB"
