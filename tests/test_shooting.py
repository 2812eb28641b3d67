import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critsys import shooting
from critsys.bubble import amplitude_constant, eval_bubble_radial, make_bubble
from critsys.core import ExponentConfig, RadialGrid, RadialProfilePair
from critsys.errors import HypothesisNotApplicable, NonpositiveInput
from critsys.shooting import (
    Kind,
    ShootInput,
    check_integral_identity,
    classify,
    contradiction_witness,
    integrate_radial,
    ordering_term,
    sweep_consistent,
    uniqueness_sweep,
)

CFG = ExponentConfig(3, 2.0, 3.0)
C3 = amplitude_constant(3)


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


def bubble_profile(t, grid):
    b = make_bubble(CFG, t=t)
    phi = eval_bubble_radial(b, grid.nodes)
    dphi = -phi * grid.nodes / (t ** 2 + grid.nodes ** 2)
    return RadialProfilePair(grid, phi, phi, dphi, dphi)


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
        rows = uniqueness_sweep(CFG, ratios)
        assert len(pairs) == len(ratios)
        assert all(a == b for a, b in pairs)
        assert [row.crossing_r for row in rows] == [a for a, _ in pairs]


class TestUniquenessSweep:
    def test_bound_state_only_on_diagonal(self):
        rows = uniqueness_sweep(CFG, [0.5, 0.9, 1.0, 1.1, 2.0], base=1.0)
        kinds = {row.ratio: row.kind for row in rows}
        assert kinds[1.0] is Kind.BOUND_STATE
        assert all(k is not Kind.BOUND_STATE
                   for rho, k in kinds.items() if rho != 1.0)
        assert sweep_consistent(rows)

    def test_single_ratio_one(self):
        rows = uniqueness_sweep(CFG, [1.0], base=0.7)
        assert rows[0].kind is Kind.BOUND_STATE

    def test_equal_exponents_rejected(self):
        cfg = ExponentConfig(3, 2.5, 2.5)
        with pytest.raises(HypothesisNotApplicable):
            uniqueness_sweep(cfg, [1.0])

    def test_sign_lemma_on_swept_trajectories(self):
        rows = uniqueness_sweep(CFG, [0.8, 1.25], base=1.0)
        for row in rows:
            u, v = row.profile.u, row.profile.v
            mask = (u > 0) & (v > 0) & (u < v)
            term = (u[mask] ** CFG.alpha * v[mask] ** CFG.beta
                    - u[mask] ** CFG.beta * v[mask] ** CFG.alpha)
            assert np.all(term > 0.0)

    def test_contradiction_witness_monotone(self):
        # with u0 < v0 the nested ordering integral is positive and
        # increasing while the ordering holds
        prof = integrate_radial(ShootInput(CFG, 1.0, 1.5, r_max=50.0))
        wit = contradiction_witness(prof, CFG)
        ordered = (prof.u > 0) & (prof.v > 0) & (prof.u < prof.v)
        last = np.max(np.nonzero(ordered))
        assert np.all(wit[1:last] > 0.0)
        assert np.all(np.diff(wit[:last]) >= 0.0)


class TestIntegralIdentity:
    def test_bubble_gap_small(self):
        rep = check_integral_identity(
            bubble_profile(1.0, RadialGrid.default()), CFG, [0.1, 1.0, 10.0])
        assert rep.max_abs_gap <= 1e-5

    def test_second_order_convergence(self):
        gaps = []
        for num in (4000, 8000):
            rep = check_integral_identity(
                bubble_profile(1.0, RadialGrid.geometric(num=num)),
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

    def test_zero_radius_both_sides_zero(self):
        rep = check_integral_identity(
            bubble_profile(1.0, RadialGrid.geometric(num=1000)), CFG, [0.0])
        assert rep.lhs_u[0] == 0.0 and rep.rhs_u[0] == 0.0


class TestOrderingTerm:
    def test_ordered_positive(self):
        assert ordering_term(1.0, 2.0, CFG) == pytest.approx(4.0)

    def test_equal_zero(self):
        assert ordering_term(5.0, 5.0, CFG) == 0.0

    def test_swap_negative(self):
        assert ordering_term(2.0, 1.0, CFG) == pytest.approx(-4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveInput):
            ordering_term(0.0, 1.0, CFG)

    @given(u=st.floats(0.01, 10.0), v=st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_sign_contract(self, u, v):
        # strict sign is only resolvable when u and v differ beyond roundoff
        assume(u == v or abs(u - v) > 1e-12 * max(u, v))
        term = ordering_term(u, v, CFG)
        if u < v:
            assert term > 0.0
        elif u > v:
            assert term < 0.0
        else:
            assert term == 0.0
