from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq

from critsys import acceptance, cli, shooting
from critsys.bubble import amplitude_constant, bubble_profile, eval_bubble_radial, make_bubble
from critsys.core import ExponentConfig, RadialGrid, RadialProfilePair
from critsys.errors import (
    GridTooCoarse,
    HypothesisNotApplicable,
    NonpositiveInput,
    StepSizeUnderflow,
)
from critsys.shooting import (
    IntegralIdentityReport,
    Kind,
    ShootInput,
    check_integral_identity,
    classify,
    classify_batch,
    contradiction_witness,
    integrate_radial,
    integrate_radial_batch,
    sweep_consistent,
    uniqueness_sweep,
)

CFG = ExponentConfig(3, 2.0, 3.0)
C3 = amplitude_constant(3)
UNIT = make_bubble(CFG, t=1.0)


def first_crossing_loop(nodes, u, v):
    """Reference for shooting._first_crossing: the scan node by node."""
    w = v - u
    pos = (u > 0.0) & (v > 0.0)
    sign = np.sign(w)
    for i in range(len(nodes) - 1):
        if pos[i] and pos[i + 1] and sign[i] != 0 and sign[i + 1] == -sign[i]:
            t = w[i] / (w[i] - w[i + 1])
            return float(nodes[i] + t * (nodes[i + 1] - nodes[i]))
    return None


def tap_solves(monkeypatch, on_solve):
    """Route shooting's RK45 (solve_ivp) through a tap.

    on_solve gets each solve's arguments (a dict) and its _Solution as the
    solver returns it, before a caller zero-fills the samples in place.
    """
    solve = shooting.solve_ivp

    def tapped(fun, t_span, y0, *, t_eval, rtol, atol):
        sol = solve(fun, t_span, y0, t_eval=t_eval, rtol=rtol, atol=atol)
        on_solve(dict(fun=fun, t_span=t_span, y0=y0, t_eval=t_eval, rtol=rtol, atol=atol), sol)
        return sol

    monkeypatch.setattr(shooting, "solve_ivp", tapped)


def record_solves(monkeypatch):
    """Record every solve of shooting's RK45; returns the _Solutions."""
    sols = []
    tap_solves(monkeypatch, lambda args, sol: sols.append(sol))
    return sols


def returning(fun, shape=None):
    """scipy's fun(t, y) -> f(t, y) over the flat state, from an in-place fun(t, y, out)
    over states of ``shape`` (default: the shape scipy passes)."""
    def f(t, y):
        out = np.empty(y.shape if shape is None else shape)
        fun(t, y.reshape(out.shape), out)
        return out.ravel()
    return f


class TestIntegrateRadial:
    def test_matches_unit_bubble(self):
        prof = integrate_radial(ShootInput(CFG, C3, C3, r_max=50.0))
        phi = eval_bubble_radial(make_bubble(CFG, t=1.0), prof.grid.nodes)
        assert np.max(np.abs(prof.u - phi) / phi) < 1e-6

    def test_scaling_identity(self):
        # u0 = v0 = a shoots onto phi_{0,t} with t = (c/a)^{2/(n-2)}
        a = 2.0
        t = (C3 / a) ** 2
        prof = integrate_radial(ShootInput(CFG, a, a, r_max=50.0))
        phi = eval_bubble_radial(make_bubble(CFG, t=t), prof.grid.nodes)
        assert np.max(np.abs(prof.u - phi) / phi) < 1e-6

    def test_symmetric_data_collapses(self):
        prof = integrate_radial(ShootInput(CFG, 1.0, 1.0, r_max=100.0))
        assert np.array_equal(prof.u, prof.v)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(NonpositiveInput):
            ShootInput(CFG, 0.0, 1.0)

    @pytest.mark.parametrize("u0, v0", [(np.nan, 1.0), (1.0, np.nan)])
    def test_rejects_nan_start(self, u0, v0):
        with pytest.raises(NonpositiveInput, match="u0 > 0 and v0 > 0"):
            ShootInput(CFG, u0, v0)

    def test_rejects_nan_r_max(self):
        with pytest.raises(ValueError, match="r_max"):
            ShootInput(CFG, 1.0, 1.0, r_max=np.nan)

    @pytest.mark.parametrize("r_max", [np.inf, 0.0, -1.0])
    def test_rejects_r_max_not_finite_or_positive(self, r_max):
        with pytest.raises(ValueError, match=f"need a finite r_max > 0, got {r_max}"):
            ShootInput(CFG, 1.0, 1.0, r_max=r_max)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_tol_not_finite_or_positive(self, tol):
        # an infinite tol lets a diagonal bubble shot fail positivity, with overflow
        with pytest.raises(ValueError, match=f"need tol > 0 and finite, got {tol}"):
            ShootInput(CFG, 1.0, 1.0, tol=tol)

    def test_r_max_below_default_r0_on_a_nearer_grid(self, monkeypatch):
        # ShootInput takes any finite positive r_max; a shot's grid must start at or
        # below r_max / 10, so the default grid, which starts at r0 = 1e-6, needs more,
        # and says so before any solve, naming both radii
        inp = ShootInput(CFG, 1.0, 1.0, r_max=5e-7)
        prof = integrate_radial(inp, RadialGrid.geometric(1e-8, 5e-7, 400))
        assert len(prof.grid) == 400 and prof.grid.rmax == 5e-7
        assert np.all(prof.u > 0.0) and np.all(prof.v > 0.0)
        sols = record_solves(monkeypatch)
        for shoot in (integrate_radial, classify):
            with pytest.raises(ValueError, match="r0 = 1e-06, .* r_max = 5e-07"):
                shoot(inp)
        assert sols == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ShootInput(CFG, 1.0, 1.0, tol=tol)

    def test_short_r_max_keeps_default_node_count(self):
        # the default shooting grid runs from DEFAULT_R0 to r_max even below 1
        prof = integrate_radial(ShootInput(CFG, 1.0, 1.0, r_max=0.5))
        assert len(prof.grid) == 4000
        assert prof.grid.rmax == 0.5

    def test_tol_is_both_solver_tolerances(self, monkeypatch):
        seen, solve = [], shooting.solve_ivp

        def recording(*args, **kwargs):
            seen.append((kwargs["atol"], kwargs["rtol"]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", recording)
        integrate_radial(ShootInput(CFG, 1.0, 1.0, r_max=10.0, tol=1e-8))
        assert seen == [(1e-8, 1e-8)]

    def test_solver_failure_is_step_size_underflow(self, monkeypatch):
        # RK45 fails only when its step falls below the spacing of floats
        message = "Required step size is less than spacing between numbers."
        failed = SimpleNamespace(status=-1, success=False, message=message)
        monkeypatch.setattr(shooting, "solve_ivp", lambda *args, **kwargs: failed)
        with pytest.raises(StepSizeUnderflow, match=message):
            integrate_radial(ShootInput(CFG, 1.0, 1.0, r_max=10.0))


class TestClassify:
    def test_diagonal_bound_state(self):
        out = classify(ShootInput(CFG, 1.0, 1.0))
        assert out.kind is Kind.BOUND_STATE

    def test_off_diagonal_regression(self):
        # pinned against a tol-1e-12 reference integration
        out = classify(ShootInput(CFG, 1.0, 2.0))
        assert out.kind is Kind.POSITIVITY_FAILURE
        assert out.which == "u"
        assert out.at_r == pytest.approx(1.861433885, abs=1e-6)

    def test_off_diagonal_mirror(self):
        out = classify(ShootInput(CFG, 2.0, 1.0))
        assert out.kind is Kind.POSITIVITY_FAILURE
        assert out.which == "v"
        assert out.at_r == pytest.approx(1.861433885, abs=1e-6)

    def test_short_window_reports_no_decay(self):
        # truncating before the decay plateau forms must not claim a bound
        # state
        out = classify(ShootInput(CFG, 1.0, 1.0, r_max=10.0))
        assert out.kind is Kind.NO_DECAY
        assert out.at_r == 10.0

    def test_swap_mirrors_profiles(self):
        a = integrate_radial(ShootInput(CFG, 1.0, 1.3, r_max=50.0))
        b = integrate_radial(ShootInput(CFG, 1.3, 1.0, r_max=50.0))
        assert np.max(np.abs(a.u - b.v)) < 1e-7
        assert np.max(np.abs(a.v - b.u)) < 1e-7


class TestBatch:
    def test_mixed_batch_matches_single_shots(self):
        # at r_max 10: bound state, u fails, v fails, no decay
        inputs = [ShootInput(CFG, u0, v0, r_max=10.0)
                  for u0, v0 in [(5.0, 5.0), (1.0, 2.0), (2.0, 1.0), (0.2, 0.2)]]
        batch = classify_batch(inputs)
        assert [out.kind for out in batch] == [
            Kind.BOUND_STATE, Kind.POSITIVITY_FAILURE, Kind.POSITIVITY_FAILURE,
            Kind.NO_DECAY]
        for inp, got in zip(inputs, batch):
            ref = classify(inp)
            assert (got.kind, got.which, got.crossing_r) == (ref.kind, ref.which,
                                                            ref.crossing_r)
            if ref.at_r is None:
                assert got.at_r is None
            else:
                assert got.at_r == pytest.approx(ref.at_r, rel=1e-9, abs=0.0)
            assert got.diagnostics["r_reached"] == ref.diagnostics["r_reached"]
            assert got.diagnostics["batch"] == 4 and ref.diagnostics["batch"] == 1
        assert len({out.diagnostics["nfev"] for out in batch}) == 1
        assert batch[1].which == "u" and batch[2].which == "v"

    def test_all_failing_batch_runs_to_r_max(self, monkeypatch):
        # every column fails, and the solve still ends at r_max
        sols = record_solves(monkeypatch)
        inputs = [ShootInput(CFG, 1.0, v0) for v0 in (2.0, 1.5, 0.5)]
        outs = classify_batch(inputs)
        assert all(out.kind is Kind.POSITIVITY_FAILURE for out in outs)
        assert sols[0].status == 0 and sols[0].t[-1] == inputs[0].r_max
        for inp, got in zip(inputs, outs):
            ref = classify(inp)
            assert got.which == ref.which
            assert got.at_r == pytest.approx(ref.at_r, rel=1e-9, abs=0.0)
        # mirror shots reach zero together
        u_fails, v_fails = classify_batch([ShootInput(CFG, 1.0, 2.0),
                                           ShootInput(CFG, 2.0, 1.0)])
        assert (u_fails.which, v_fails.which) == ("u", "v")
        assert u_fails.at_r == v_fails.at_r
        assert u_fails.at_r == pytest.approx(1.861433885, abs=1e-6)

    def test_rejects_mixed_settings_and_empty_batch(self):
        with pytest.raises(ValueError):
            integrate_radial_batch([ShootInput(CFG, 1.0, 1.0, r_max=10.0),
                                    ShootInput(CFG, 1.0, 1.0, r_max=20.0)])
        with pytest.raises(ValueError):
            integrate_radial_batch([ShootInput(CFG, 1.0, 1.0, r_max=10.0),
                                    ShootInput(CFG, 1.0, 1.0, r_max=10.0, tol=1e-8)])
        with pytest.raises(ValueError):
            integrate_radial_batch([])

    def test_profiles_are_views_of_the_solver_samples(self, monkeypatch):
        # _profiles zero-fills the solver's samples in place: no second copy of the batch
        sols, solve = [], shooting.solve_ivp

        def recording(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(shooting, "solve_ivp", recording)
        profiles = integrate_radial_batch([ShootInput(CFG, 1.0, v0, r_max=10.0)
                                           for v0 in (1.0, 2.0)])
        samples = sols[0].y.reshape(4, 2, -1)
        assert samples[0, 1, -1] == 0.0  # the u-failing column, zero-filled in place
        for prof in profiles:
            for arr in (prof.u, prof.v, prof.du, prof.dv):
                assert np.shares_memory(arr, sols[0].y)

    def test_nonpositive_series_start_is_grid_too_coarse(self, monkeypatch):
        # at r0 = 1e-6 the series start of (1e4, 1e4) has u ~ -1.7e7, and that of
        # (1, 1e5) has u ~ -166; before any solve, every such column is named
        sols = record_solves(monkeypatch)
        inputs = [ShootInput(CFG, u0, v0, r_max=10.0)
                  for u0, v0 in [(1.0, 1.0), (1e4, 1e4), (1.0, 2.0), (1.0, 1e5)]]
        for shoot in (integrate_radial_batch, classify_batch):
            with pytest.raises(GridTooCoarse, match=r"r0 = 1e-06 .* columns \[1, 3\]"):
                shoot(inputs)
        with pytest.raises(GridTooCoarse, match=r"columns \[0\]"):
            integrate_radial(inputs[1])
        assert sols == []
        # a first node 100 times nearer the origin gives a positive start
        prof = integrate_radial(inputs[1], RadialGrid.geometric(1e-8, 10.0))
        assert prof.u[0] > 0.0 and prof.v[0] > 0.0

    def test_steep_series_start_is_grid_too_coarse(self, monkeypatch):
        # at r0 = 1e-6 the series start of (1500, 1500) is still positive (u ~ 234),
        # but its slope fails RadialProfilePair's regular-origin guard; (1490, 1490)
        # passes it.  Before any solve, only the failing columns are named; the guard's
        # bound for (1e60, 1) overflows to -inf, with no RuntimeWarning
        sols = record_solves(monkeypatch)
        inputs = [ShootInput(CFG, u0, v0, r_max=10.0) for u0, v0 in
                  [(1.0, 1.0), (1500.0, 1500.0), (1490.0, 1490.0), (1.0, 2.0), (1e60, 1.0)]]
        start = shooting._taylor_start(CFG, np.array([inp.u0 for inp in inputs]),
                                       np.array([inp.v0 for inp in inputs]), 1e-6)  # u, v, u', v'
        assert start[0, 1] > 0.0 and start[1, 1] > 0.0
        for shoot in (integrate_radial_batch, classify_batch):
            with pytest.raises(GridTooCoarse, match=r"r0 = 1e-06 .* columns \[1, 4\]"):
                shoot(inputs)
        assert sols == []
        # the same guard, as the profile applies it, refuses that start and takes 1490's
        grid = RadialGrid.geometric(1e-6, 10.0)

        def constant_profile(j):  # column j's (u, v, u', v') start at every node
            return RadialProfilePair(grid, *np.repeat(start[:, j, None], len(grid), 1))

        constant_profile(2)
        with pytest.raises(ValueError, match="regular origin"):
            constant_profile(1)
        assert classify(inputs[2]).kind is Kind.POSITIVITY_FAILURE
        # a first node 100 times nearer the origin takes the 1500 start
        prof = integrate_radial(inputs[1], RadialGrid.geometric(1e-8, 10.0))
        assert prof.u[0] > 0.0 and prof.v[0] > 0.0

    def test_sweep_is_one_solve(self, monkeypatch):
        sols = record_solves(monkeypatch)
        outcomes = uniqueness_sweep(CFG, [0.5, 0.9, 1.0, 1.1, 2.0])
        assert len(sols) == 1
        assert all(out.diagnostics["batch"] == 5 for out in outcomes)

    def test_zero_fill_is_the_node_by_node_rule(self):
        # a column fails at its first node with min(u, v) <= 0, even where u and v are
        # positive again later, or at 12 (no node) if it has none; NaN never fails a node
        rng = np.random.default_rng(5)
        for _ in range(50):
            uv = rng.choice([-1.0, 0.0, 1.0, 2.0, np.nan], size=(2, 6, 12),
                            p=[0.05, 0.05, 0.4, 0.4, 0.1])
            index = shooting._failed(uv)
            assert index.shape == (6,)
            for j in range(6):
                m = np.minimum(uv[0, j], uv[1, j]) <= 0.0
                assert index[j] == (int(np.argmax(m)) if m.any() else 12)

    @pytest.mark.parametrize("r_max, grid, match", [
        (1e4, RadialGrid.geometric(rmax=100.0), "rmax = 100, not at r_max = 10000"),
        (1e4, RadialGrid.geometric(rmax=5000.0), "rmax = 5000, not at r_max = 10000"),
        # r_max before the first node, and r_max after it but before the second
        (5e-5, RadialGrid.geometric(1e-4, 10.0, 100), "rmax = 10, not at r_max = 5e-05"),
        (1.05e-4, RadialGrid.geometric(1e-4, 10.0, 100), "rmax = 10, not at r_max = 0.000105"),
    ], ids=["rmax-100", "rmax-5000", "before-r0", "one-node"])
    def test_grid_ending_before_r_max_refused(self, r_max, grid, match, monkeypatch):
        # refused before any solve, naming both radii
        sols = record_solves(monkeypatch)
        inp = ShootInput(CFG, 1.0, 1.0, r_max=r_max)
        for shoot in (classify, integrate_radial):
            with pytest.raises(ValueError, match=match):
                shoot(inp, grid)
        assert sols == []

    def test_grid_running_past_r_max_refused(self, monkeypatch):
        # a shot samples its whole grid: the default grid, which ends at 1e4, does not
        # serve r_max = 50; refused before any solve, naming both radii
        sols = record_solves(monkeypatch)
        inp = ShootInput(CFG, 1.0, 2.0, r_max=50.0)
        for shoot in (classify, integrate_radial):
            with pytest.raises(ValueError, match="rmax = 10000, not at r_max = 50"):
                shoot(inp, RadialGrid.default())
        assert sols == []
        # the grid that ends at 50 serves it, and every profile shares that grid object
        grid = RadialGrid.geometric(rmax=50.0)
        assert classify(inp, grid).profile.grid is grid
        assert integrate_radial(inp, grid).grid is grid

    @pytest.mark.parametrize("r_max", [1.000001e-6, 2e-6, 9.999e-6])
    def test_classify_needs_the_last_decade(self, r_max, monkeypatch):
        # the bound-state test reads [r_max / 10, r_max]: a grid from r0 = 1e-6 covers it
        # only from r_max = 1e-5 on; every shot, classified or not, holds that decade, and
        # one without it is refused before any solve, naming both radii
        sols = record_solves(monkeypatch)
        inputs = [ShootInput(CFG, 1.0, v0, r_max=r_max) for v0 in (1.0, 2.0)]
        for shoot in (classify_batch, lambda inputs: classify(inputs[0]),
                      integrate_radial_batch, lambda inputs: integrate_radial(inputs[0])):
            with pytest.raises(ValueError, match=rf"r0 = 1e-06, above r_max / 10 for "
                                                 rf"r_max = {r_max}: "):
                shoot(inputs)
        assert sols == []
        # r^(n-2) u grows tenfold over that decade: a short window is NoDecay
        assert classify(ShootInput(CFG, 1.0, 1.0, r_max=1e-5)).kind is Kind.NO_DECAY


class TestFirstCrossing:
    def test_matches_loop_on_random_arrays(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(300):
            size = int(rng.integers(1, 40))
            nodes = np.cumsum(rng.uniform(0.1, 1.0, size))
            # small integers make zeros, ties (w = 0) and nonpositive entries
            u = rng.integers(-1, 4, size).astype(float)
            v = rng.integers(-1, 4, size).astype(float)
            got = shooting._first_crossing(nodes, u, v)
            assert got == first_crossing_loop(nodes, u, v)
            found += got is not None
        assert 0 < found < 300

    def test_matches_loop_on_default_sweep(self, monkeypatch):
        pairs = []
        fast = shooting._first_crossing

        def both(nodes, u, v):
            pairs.append((fast(nodes, u, v), first_crossing_loop(nodes, u, v)))
            return pairs[-1][0]

        monkeypatch.setattr(shooting, "_first_crossing", both)
        ratios = [0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0]
        outcomes = uniqueness_sweep(CFG, ratios)
        assert len(pairs) == len(ratios)
        assert all(a == b for a, b in pairs)
        assert [out.crossing_r for out in outcomes] == [a for a, _ in pairs]


class TestUniquenessSweep:
    def test_bound_state_only_on_diagonal(self):
        ratios = [0.5, 0.9, 1.0, 1.1, 2.0]
        outcomes = uniqueness_sweep(CFG, ratios, base=1.0)
        kinds = {rho: out.kind for rho, out in zip(ratios, outcomes, strict=True)}
        assert kinds[1.0] is Kind.BOUND_STATE
        assert all(k is not Kind.BOUND_STATE
                   for rho, k in kinds.items() if rho != 1.0)
        assert sweep_consistent(ratios, outcomes)
        # one (base, ratio * base) start per ratio, in order
        assert [(out.diagnostics["u0"], out.diagnostics["v0"]) for out in outcomes] \
            == [(1.0, rho) for rho in ratios]

    def test_empty_sweep_refused(self):
        with pytest.raises(ValueError, match="at least one shot"):
            uniqueness_sweep(CFG, [])

    def test_empty_sweep_is_not_consistent(self):
        assert sweep_consistent([], []) is False

    def test_ratios_and_outcomes_must_pair_up(self):
        # a ratio without its outcome, or an outcome without its ratio, is refused
        # rather than dropped, even where the pairs that exist are consistent
        outcomes = uniqueness_sweep(CFG, [0.5, 1.0])
        for ratios, outs in (([0.5, 1.0, 2.0], outcomes), ([0.5], outcomes),
                             ([1.0], []), ([], outcomes)):
            with pytest.raises(ValueError, match="zip"):
                sweep_consistent(ratios, outs)

    def test_single_ratio_one(self):
        [out] = uniqueness_sweep(CFG, [1.0], base=0.7)
        assert out.kind is Kind.BOUND_STATE

    def test_equal_exponents_rejected(self):
        cfg = ExponentConfig(3, 2.5, 2.5)
        with pytest.raises(HypothesisNotApplicable):
            uniqueness_sweep(cfg, [1.0])

    @pytest.mark.parametrize("ratios", [[np.nan], [1.0, np.nan]])
    def test_rejects_nan_ratio(self, ratios):
        with pytest.raises(NonpositiveInput, match="ratios must be positive"):
            uniqueness_sweep(CFG, ratios)

    @pytest.mark.parametrize("base", [np.nan, 0.0])
    def test_rejects_nonpositive_base(self, base):
        with pytest.raises(NonpositiveInput, match="base must be positive"):
            uniqueness_sweep(CFG, [1.0], base=base)

    def test_sign_lemma_on_swept_trajectories(self):
        for out in uniqueness_sweep(CFG, [0.8, 1.25], base=1.0):
            u, v = out.profile.u, out.profile.v
            mask = (u > 0) & (v > 0) & (u < v)
            term = (u[mask] ** CFG.alpha * v[mask] ** CFG.beta
                    - u[mask] ** CFG.beta * v[mask] ** CFG.alpha)
            assert np.all(term > 0.0)

    @pytest.mark.parametrize("u0, v0", [(1.0, 1.5), (1.5, 1.0)])
    def test_contradiction_witness_monotone(self, u0, v0):
        # the nested ordering integral has the sign of v0 - u0, for either order, and
        # grows in size while both components are positive
        prof = integrate_radial(ShootInput(CFG, u0, v0, r_max=50.0))
        wit = np.sign(v0 - u0) * contradiction_witness(prof, CFG)
        last = np.max(np.nonzero((prof.u > 0) & (prof.v > 0)))
        assert np.all(wit[1:last] > 0.0)
        assert np.all(np.diff(wit[:last]) >= 0.0)


class TestIntegralIdentity:
    def test_bubble_gap_small(self):
        rep = check_integral_identity(
            bubble_profile(UNIT, RadialGrid.default()), CFG, [0.1, 1.0, 10.0])
        assert rep.max_abs_gap <= 1e-5

    def test_second_order_convergence(self):
        gaps = []
        for num in (4000, 8000):
            rep = check_integral_identity(
                bubble_profile(UNIT, RadialGrid.geometric(num=num)),
                CFG, [0.1, 1.0, 10.0])
            gaps.append(rep.max_abs_gap)
        assert gaps[0] / gaps[1] >= 3.5

    def test_constant_profile_fails_identity(self):
        grid = RadialGrid.geometric(num=4000)
        ones = np.ones(len(grid))
        zeros = np.zeros(len(grid))
        prof = RadialProfilePair(grid, ones, ones, zeros, zeros)
        rep = check_integral_identity(prof, CFG, [1.0])
        # lhs = 0 but the nested integral of 1 is r^2/(2n) > 0
        assert rep.max_abs_gap == pytest.approx(1.0 / 6.0, rel=1e-2)

    @pytest.mark.parametrize("side", ["lhs_u", "rhs_v"])
    def test_a_nan_on_either_side_is_the_gap(self, side):
        # Python's max(u gap, nan) returns the u gap: a NaN only in v read 0.0
        arrays = {name: np.zeros(3) for name in ("r_checked", "lhs_u", "rhs_u", "lhs_v", "rhs_v")}
        arrays["lhs_v"][2] = 0.5
        assert IntegralIdentityReport(**arrays).max_abs_gap == 0.5
        arrays[side][1] = np.nan
        assert np.isnan(IntegralIdentityReport(**arrays).max_abs_gap)

    def test_empty_radii_refused(self):
        prof = bubble_profile(UNIT, RadialGrid.geometric(num=1000))
        with pytest.raises(ValueError, match="radii"):
            check_integral_identity(prof, CFG, [])

    @pytest.mark.parametrize("radii", [[np.nan], [np.inf], [-np.inf], [-1.0], [1.0, -1.0],
                                       [-1e-300]])
    def test_invalid_radii_refused(self, radii):
        # neither snapped to a node nor reported as r 0
        prof = bubble_profile(UNIT, RadialGrid.geometric(num=1000))
        with pytest.raises(ValueError, match="radii must be finite and nonnegative"):
            check_integral_identity(prof, CFG, radii)

    def test_zero_radius_both_sides_zero(self):
        grid = RadialGrid.geometric(num=1000)
        rep = check_integral_identity(bubble_profile(UNIT, grid), CFG, [0.0, 1e-7, 1.0])
        for side in (rep.r_checked, rep.lhs_u, rep.rhs_u, rep.lhs_v, rep.rhs_v):
            assert side[0] == side[1] == 0.0 and side[2] > 0.0
        assert rep.r_checked[2] == grid.nodes[np.argmin(np.abs(grid.nodes - 1.0))]


@pytest.mark.parametrize("k", [1, 7, 100])
@pytest.mark.parametrize("n, alpha, beta", [(3, 2.0, 3.0), (4, 1.0, 2.0), (5, 1.0, 4.0 / 3.0)])
def test_rhs_is_bitwise_the_concatenated_form(n, alpha, beta, k):
    # both solvers of TestSolverMatchesScipy call the same RHS, so only a
    # direct comparison catches a change in its arithmetic
    rng = np.random.default_rng(k)
    rhs = shooting._rhs(n, alpha, beta, k)
    for i, r in enumerate((1e-6, 0.37, 1e4)):
        # signed states (u, v, u', v') of mixed magnitude: negative u and v exercise the clamp
        y = rng.normal(size=(4, k)) * 10.0 ** rng.integers(-3, 4, size=(4, k))
        if i < 2:
            y[i, 0] = -abs(y[i, 0])  # u, then v, below zero in the first column
        u, v, du, dv = y
        fu, fv = ExponentConfig(n, alpha, beta).forcing(np.maximum(u, 0.0), np.maximum(v, 0.0))
        c = (n - 1) / r
        ref = np.concatenate((du, dv, -c * du - fu, -c * dv - fv))
        state = y.reshape(2, 2, k)
        before = state.tobytes()
        # NaN-filled, so an entry left unwritten fails; the second call reuses the buffers
        first, second = np.full((2, 2, k), np.nan), np.full((2, 2, k), np.nan)
        rhs(r, state, first)
        rhs(r, state, second)
        assert first.tobytes() == second.tobytes() == ref.tobytes()
        assert state.tobytes() == before


def test_rhs_writes_only_the_stage_rows(monkeypatch):
    # over the property suite's dilation solve, every RHS call writes one of the
    # solver's 7 stage rows, all views of one array, and leaves its input as it was;
    # the suite's one direct call, on its 600 swap-check states, is not in the solve
    sols, calls, make = record_solves(monkeypatch), {}, shooting._rhs

    def recording(n, alpha, beta, k):
        rhs, made = make(n, alpha, beta, k), calls.setdefault(k, [])

        def recorded(r, y, out):
            before = y.tobytes()
            rhs(r, y, out)
            made.append((out, np.shares_memory(y, out), y.tobytes() == before))
        return recorded

    monkeypatch.setattr(shooting, "_rhs", recording)
    ok, detail = acceptance.check_property_suites()
    assert ok, detail
    [sol] = sols
    assert sorted(calls) == [2 * acceptance._DILATED, 600] and len(calls[600]) == 1
    solve = calls[2 * acceptance._DILATED]
    assert len(solve) == sol.nfev
    assert not any(shared for _, shared, _ in solve)
    assert all(unchanged for _, _, unchanged in solve + calls[600])
    outs = [out for out, _, _ in solve]
    assert outs[0].shape == (2, 2, 40)
    assert len({out.__array_interface__["data"][0] for out in outs}) == 7
    owner = outs[0].base
    assert owner.size == 7 * outs[0].size
    assert all(out.base is owner for out in outs)


def compare_with_scipy(monkeypatch):
    """Route shooting's RK45 through a bitwise comparison with scipy's RK45.

    Returns one (status, scipy status, same message, same t, same y, nfev,
    scipy nfev) record per solve.
    """
    records = []

    def compared(args, got):
        # scipy takes a flat y0 and a fun that returns its value
        y0 = np.asarray(args["y0"])
        args.update(fun=returning(args["fun"], y0.shape), y0=y0.ravel())
        ref = scipy_solve_ivp(method="RK45", **args)
        records.append((got.status, ref.status, got.message == ref.message,
                        np.array_equal(got.t, ref.t), np.array_equal(got.y, ref.y),
                        got.nfev, ref.nfev))

    tap_solves(monkeypatch, compared)
    return records


class TestSolverMatchesScipy:
    """shooting's RK45 (solve_ivp) is bitwise scipy.integrate.solve_ivp(method="RK45")."""

    @pytest.mark.parametrize("run, solves", [
        # the property suite's one dilation solve of 40 columns at r_max 50, all 160
        # rows sampled
        (lambda: acceptance.check_property_suites(), 1),
        # the gate's 7-ratio sweep out to 1e4
        (lambda: uniqueness_sweep(CFG, (0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 2.0)), 1),
        (lambda: classify_batch([ShootInput(CFG, a, a) for a in (0.01, 1.0, 100.0)]), 1),
        (lambda: classify_batch([ShootInput(ExponentConfig(5, 1.0, 4.0 / 3.0), a, a)
                                 for a in (0.01, 1.0, 100.0)]), 1),
        (lambda: classify_batch([ShootInput(ExponentConfig(4, 1.0, 2.0), u0, v0, tol=1e-8)
                                 for u0, v0 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0))]), 1),
        # the CLI's single shot (k = 1) at its default grid out to 1e4
        (lambda: cli.run(["shoot", "--u0", repr(C3), "--v0", repr(C3)]), 1),
    ], ids=["property-suites", "sweep", "diagonal-n3", "diagonal-n5", "n4-tol-1e-8",
            "cli-shot"])
    def test_batches(self, run, solves, monkeypatch):
        records = compare_with_scipy(monkeypatch)
        run()
        assert len(records) == solves
        for status, ref_status, message, t, y, nfev, ref_nfev in records:
            assert status == ref_status == 0 and message and t and y
            assert nfev == ref_nfev

    def test_step_counters(self, monkeypatch):
        # the off-diagonal shot (1, 2) rejects 7 of its 273 attempted steps; scipy's RK45
        # stepper, run on the same system, takes one accepted step per step() call
        solves = []
        tap_solves(monkeypatch, lambda args, sol: solves.append((args, sol)))
        out = classify(ShootInput(CFG, 1.0, 2.0))
        [(args, sol)] = solves
        d = out.diagnostics
        assert (d["nfev"], d["accepted"], d["rejected"]) == (sol.nfev, sol.accepted, sol.rejected)
        assert sol.rejected >= 1 and sol.nfev == 2 + 6 * (sol.accepted + sol.rejected)
        y0, (t0, t_bound) = np.asarray(args["y0"]), args["t_span"]
        ref = RK45(returning(args["fun"], y0.shape), t0, y0.ravel(), t_bound,
                   rtol=args["rtol"], atol=args["atol"])
        steps = 0
        while ref.status == "running":
            ref.step()
            steps += 1
        assert (sol.accepted, sol.nfev) == (steps, ref.nfev)

    def test_step_size_underflow(self):
        # y = 1/(1-t) blows up at t = 1: the step falls below ten float spacings
        t_eval = np.linspace(0.0, 2.0, 41)

        def square(t, y, out):
            np.multiply(y, y, out=out)

        for tol in (1e-6, 1e-10):
            got = shooting.solve_ivp(square, (0.0, 2.0), np.array([1.0]),
                                     t_eval=t_eval, rtol=tol, atol=tol)
            ref = scipy_solve_ivp(returning(square), (0.0, 2.0), np.array([1.0]),
                                  method="RK45", t_eval=t_eval, rtol=tol, atol=tol)
            assert got.status == ref.status == -1
            assert got.message == ref.message == shooting.TOO_SMALL_STEP
            assert np.array_equal(got.t, ref.t) and np.array_equal(got.y, ref.y)
            assert got.nfev == ref.nfev

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_y0_is_rejected(self, bad):
        # a non-finite start makes every step size NaN; the RHS cap stops a solver that loops on
        calls = []

        def fun(t, y, out):
            calls.append(t)
            if len(calls) > 1000:
                raise RuntimeError("the solver kept stepping from a non-finite y0")
            np.negative(y, out=out)

        args = ((0.0, 1.0), np.array([1.0, bad]))
        kwargs = dict(t_eval=np.linspace(0.0, 1.0, 11), rtol=1e-6, atol=1e-6)
        with pytest.raises(ValueError) as ref:
            scipy_solve_ivp(returning(fun), *args, method="RK45", **kwargs)
        with pytest.raises(ValueError) as got:
            shooting.solve_ivp(fun, *args, **kwargs)
        assert str(got.value) == str(ref.value)

    def test_rtol_floor(self):
        # scipy raises rtol to 100 machine epsilons, with a warning
        def fun(t, y, out):
            np.negative(y, out=out)

        args = ((0.0, 1.0), np.array([1.0, 2.0]))
        kwargs = dict(t_eval=np.linspace(0.0, 1.0, 11), rtol=1e-20, atol=1e-12)
        with pytest.warns(UserWarning, match="rtol"):
            got = shooting.solve_ivp(fun, *args, **kwargs)
        with pytest.warns(UserWarning, match="rtol"):
            ref = scipy_solve_ivp(returning(fun), *args, method="RK45", **kwargs)
        assert np.array_equal(got.y, ref.y) and got.nfev == ref.nfev


# Outcomes recorded with the state in (u, u', v, v') rows.  The (u, v, u', v')
# blocks sum the RMS error norm in another order, which may move a sample in
# its last bits but no kind, RHS count or zero radius beyond 1e-12 relative.
PINNED = {
    # the gate's 7-ratio sweep: (kind, which, nfev, at_r, crossing_r) per ratio
    "sweep": [
        (Kind.POSITIVITY_FAILURE, "v", 1676, 7.445735540225229, None),
        (Kind.POSITIVITY_FAILURE, "v", 1676, 9.922231469306578, None),
        (Kind.POSITIVITY_FAILURE, "v", 1676, 15.42404986339711, None),
        (Kind.BOUND_STATE, None, 1676, None, None),
        (Kind.POSITIVITY_FAILURE, "u", 1676, 13.660184661969232, None),
        (Kind.POSITIVITY_FAILURE, "u", 1676, 6.3502281434373185, None),
        (Kind.POSITIVITY_FAILURE, "u", 1676, 1.8614338853202859, None),
    ],
    "diagonal-n5": [(Kind.NO_DECAY, None, 3074, 1e4, None)] * 3,
    "n4-tol-1e-8": [
        (Kind.NO_DECAY, None, 746, 1e4, None),
        (Kind.POSITIVITY_FAILURE, "u", 746, 2.139547561593474, None),
        (Kind.POSITIVITY_FAILURE, "v", 746, 2.139547561593474, None),
    ],
}


@pytest.mark.parametrize("run, case", [
    (lambda: uniqueness_sweep(CFG, acceptance._SWEEP_RATIOS), "sweep"),
    (lambda: shooting.classify_batch([ShootInput(ExponentConfig(5, 1.0, 4.0 / 3.0), a, a)
                                      for a in (0.01, 1.0, 100.0)]), "diagonal-n5"),
    (lambda: shooting.classify_batch([ShootInput(ExponentConfig(4, 1.0, 2.0), u0, v0, tol=1e-8)
                                      for u0, v0 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0))]),
     "n4-tol-1e-8"),
], ids=["sweep", "diagonal-n5", "n4-tol-1e-8"])
def test_outcomes_pinned(run, case, monkeypatch):
    outcomes, batch = [], shooting.classify_batch

    def recording(*args):  # the sweep's rows carry no at_r: record the batch they come from
        outs = batch(*args)
        outcomes.extend(outs)
        return outs

    monkeypatch.setattr(shooting, "classify_batch", recording)
    run()
    assert len(outcomes) == len(PINNED[case])
    for out, (kind, which, nfev, at_r, crossing_r) in zip(outcomes, PINNED[case]):
        assert (out.kind, out.which, out.diagnostics["nfev"]) == (kind, which, nfev)
        for got, want in ((out.at_r, at_r), (out.crossing_r, crossing_r)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hermite_zero_bisects_to_adjacent_floats():
    # slopes inside the Fritsch-Carlson box keep the cubic monotone, so the
    # root on [0, 1] is unique; h = 1 makes at_r the root s itself
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for i in range(200):
        f0 = rng.uniform(1e-3, 1.0)
        f1 = -rng.uniform(0.0, 1.0) if i % 10 else 0.0  # a zero exactly at s = 1 too
        d0, d1 = -(f0 - f1) * rng.uniform(0.0, 3.0, size=2)
        fail, hold = np.array([f0, d0]), np.array([1.0, 0.0])
        i_fail = i % 2  # alternate the failing component between u and v
        ya, yb = np.empty(4), np.empty(4)  # (u, v, u', v')
        ya[i_fail::2], yb[i_fail::2] = fail, (f1, d1)
        ya[1 - i_fail::2] = yb[1 - i_fail::2] = hold
        which, s = shooting._hermite_zero(0.0, 1.0, ya, yb)

        def cubic(s):
            return ((2 * s - 3) * s * s + 1) * f0 + (s - 1) ** 2 * s * d0 \
                + (3 - 2 * s) * s * s * f1 + (s - 1) * s * s * d1

        assert which == ("u", "v")[i % 2]
        # the bracket closed to adjacent floats, and within scipy's own stopping bound
        assert cubic(s) <= 0.0 < cubic(np.nextafter(s, 0.0))
        assert abs(s - brentq(cubic, 0.0, 1.0, xtol=1e-15)) <= 1e-15 + 4 * eps * s


def test_hermite_zero_takes_the_smaller_root():
    # linear u and v on [1, 1.5] (slope = jump / h): u reaches 0 at r = 1.25 and v
    # at r = 1.125, so v wins; swapping u and v swaps the answer
    ya, yb = np.array([1.0, 1.0, -4.0, -8.0]), np.array([-1.0, -3.0, -4.0, -8.0])
    for (which, at_r), want in ((shooting._hermite_zero(1.0, 1.5, ya, yb), "v"),
                                (shooting._hermite_zero(1.0, 1.5, ya[[1, 0, 3, 2]],
                                                        yb[[1, 0, 3, 2]]), "u")):
        assert which == want
        assert at_r == pytest.approx(1.125, rel=4 * np.finfo(float).eps, abs=0.0)


def test_hermite_zero_at_the_right_node_returns_it():
    # u falls linearly from 1 to exactly 0 at rb while v holds at 1
    ya, yb = np.array([1.0, 1.0, -2.0, 0.0]), np.array([0.0, 1.0, -2.0, 0.0])
    assert shooting._hermite_zero(1.0, 1.5, ya, yb) == ("u", 1.5)
