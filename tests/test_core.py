import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from critsys.core import (
    FD_STENCIL,
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    cumulative_trapezoid,
    lp_norm_radial,
    radial_derivatives,
)
from critsys.errors import (
    CriticalityViolated,
    DimensionTooSmall,
    ExponentOutOfRange,
    GridTooCoarse,
    InfeasibleHypothesis,
)


class TestValidateConfig:
    def test_paper_case(self):
        cfg = ExponentConfig(3, 2, 3)
        assert cfg.uniqueness_applicable

    def test_equal_exponents_boundary(self):
        cfg = ExponentConfig(3, 2.5, 2.5)
        assert not cfg.uniqueness_applicable

    def test_n6_equal_exponents_warns(self):
        # at n = 6 criticality forces alpha = beta = 1
        with pytest.warns(UserWarning):
            cfg = ExponentConfig(6, 1, 1)
        assert not cfg.uniqueness_applicable

    def test_n6_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning) as record:
            ExponentConfig(6, 1, 1)
        assert record[0].filename == __file__

    def test_n6_ordered_infeasible(self):
        with pytest.raises(InfeasibleHypothesis):
            ExponentConfig(6, 1.0, 1.2)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            ExponentConfig(2, 2, 3)

    def test_criticality_violated(self):
        with pytest.raises(CriticalityViolated):
            ExponentConfig(3, 2, 2)

    def test_exponent_out_of_range(self):
        with pytest.raises(ExponentOutOfRange):
            ExponentConfig(3, 0.5, 4.5)

    def test_nan_exponents_rejected(self):
        with pytest.raises(ExponentOutOfRange):
            ExponentConfig(3, math.nan, math.nan)

    def test_coerces_types(self):
        cfg = ExponentConfig(3.0, 2, 3)
        assert (type(cfg.n), type(cfg.alpha), type(cfg.beta)) == (int, float, float)

    @pytest.mark.parametrize("n", [3.7, 2.5, math.nan, math.inf])
    def test_non_integer_dimension_rejected(self, n):
        # truncated, n = 3.7 would run n = 3, a config that no caller asked for
        with pytest.raises(ValueError, match=f"need an integer n, got n = {n}"):
            ExponentConfig(n, 2, 3)

    @pytest.mark.parametrize("n,alpha,beta", [
        (3, 1, 4), (3, 2, 3), (4, 1, 2), (5, 1, 4 / 3), (4, 1.5, 1.5),
    ])
    def test_totality_valid(self, n, alpha, beta):
        cfg = ExponentConfig(n, alpha, beta)
        assert math.isclose(cfg.alpha + cfg.beta, cfg.critical_sum)


class TestForcing:
    @pytest.mark.parametrize("n, alpha, beta", [(3, 2.0, 3.0), (4, 1.0, 2.0),
                                                (5, 1.0, 4.0 / 3.0)])
    def test_bitwise_the_written_out_pair(self, n, alpha, beta):
        # the pair as its callers form it: on floats (a one-shot series start), on arrays,
        # and at u = v (bubble_residual); a float in gives a float out
        rng = np.random.default_rng(n)
        u, v = 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 50))
        cfg = ExponentConfig(n, alpha, beta)
        for x, y in ((float(u[0]), float(v[0])), (u, v), (u, u)):
            fu, fv = cfg.forcing(x, y)
            assert np.array(fu).tobytes() == np.array(x ** alpha * y ** beta).tobytes()
            assert np.array(fv).tobytes() == np.array(x ** beta * y ** alpha).tobytes()
        assert isinstance(cfg.forcing(1.5, 2.5)[0], float)

    @given(u=st.floats(0.01, 10.0), v=st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_sign_contract(self, u, v):
        # for alpha < beta, u^a v^b - u^b v^a has the sign of v - u: the sign lemma;
        # the strict sign is only resolvable when u and v differ beyond roundoff
        assume(u == v or abs(u - v) > 1e-12 * max(u, v))
        fu, fv = ExponentConfig(3, 2.0, 3.0).forcing(u, v)
        if u < v:
            assert fu - fv > 0.0
        elif u > v:
            assert fu - fv < 0.0
        else:
            assert fu - fv == 0.0


class TestRadialGrid:
    def test_default_shape(self):
        g = RadialGrid.default()
        assert len(g) == 4000
        assert g.r0 == pytest.approx(1e-6)
        assert g.rmax == pytest.approx(1e4)

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([1e-6, 1e-5, 1e-5]))

    @pytest.mark.parametrize("nodes", [[math.nan, 1.0, 2.0], [1e-6, 1.0, math.inf]])
    def test_rejects_nonfinite_nodes(self, nodes):
        with pytest.raises(ValueError):
            RadialGrid(np.array(nodes))

    def test_rejects_large_first_node(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.1, 1.0, 10.0]))

    def test_refined_interleaves(self):
        g = RadialGrid.geometric(num=100)
        r = g.refined()
        assert len(r) == 199
        assert set(g.nodes).issubset(set(r.nodes))


class TestLpNormRadial:
    def test_unit_ball_indicator(self):
        g = RadialGrid.default()
        f = (g.nodes <= 1.0).astype(float)
        # L^2 norm of the indicator = sqrt(volume of the unit ball)
        assert lp_norm_radial(f, g, 2.0, 3) == pytest.approx(
            math.sqrt(4 * math.pi / 3), rel=5e-3)

    def test_zero(self):
        g = RadialGrid.default()
        assert lp_norm_radial(np.zeros(len(g)), g, 2.0, 3) == 0.0

    def test_bubble_p6_vs_adaptive_quadrature(self):
        # independent oracle: adaptive quadrature on the closed form
        from scipy.integrate import quad
        from critsys.bubble import eval_bubble_radial, make_bubble

        cfg = ExponentConfig(3, 2.0, 3.0)
        b = make_bubble(cfg, t=1.0)
        g = RadialGrid.default()
        val = lp_norm_radial(eval_bubble_radial(b, g.nodes), g, 6.0, 3)
        integral, _ = quad(
            lambda r: (b.c * (1.0 / (1.0 + r * r)) ** 0.5) ** 6
            * 4 * math.pi * r * r, 0, np.inf, limit=200)
        assert val == pytest.approx(integral ** (1 / 6), rel=1e-5)

    def test_monotone_in_abs(self):
        g = RadialGrid.geometric(num=500)
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 1, len(g)) * np.exp(-g.nodes)
        gbig = f + rng.uniform(0, 1, len(g)) * np.exp(-g.nodes)
        assert (lp_norm_radial(f, g, 3.0, 3)
                <= lp_norm_radial(gbig, g, 3.0, 3))

    def test_exact_scaling(self):
        g = RadialGrid.geometric(num=500)
        f = np.exp(-g.nodes)
        base = lp_norm_radial(f, g, 2.5, 3)
        assert lp_norm_radial(-3.0 * f, g, 2.5, 3) == pytest.approx(
            3.0 * base, rel=1e-13)

    def test_p_must_exceed_one(self):
        g = RadialGrid.geometric(num=100)
        with pytest.raises(ValueError):
            lp_norm_radial(np.ones(len(g)), g, 1.0, 3)


class TestRadialDerivatives:
    def test_matches_analytic(self):
        g = RadialGrid.geometric(1e-6, 100.0, 2000)
        f = np.exp(-g.nodes)
        d1, d2 = radial_derivatives(f, g)
        interior = (g.nodes > 0.01) & (g.nodes < 50.0)
        assert np.max(np.abs(d1[interior] + f[interior])) < 1e-8
        assert np.max(np.abs(d2[interior] - f[interior])) < 1e-5

    @pytest.mark.parametrize("degree", range(FD_STENCIL))
    def test_exact_on_polynomials_of_jittered_grid(self, degree):
        # non-geometric nodes, so every stencil (centred and both one-sided
        # ends) has its own offsets
        rng = np.random.default_rng(11)
        g = RadialGrid(1e-4 + np.cumsum(np.r_[0.0, rng.uniform(0.02, 0.06, 30)]))
        coef = rng.uniform(-1.0, 1.0, degree + 1)
        p = np.polynomial.Polynomial(coef)
        d1, d2 = radial_derivatives(p(g.nodes), g)
        scale = np.max(np.abs(coef))
        assert np.max(np.abs(d1 - p.deriv(1)(g.nodes))) < 1e-12 * scale
        assert np.max(np.abs(d2 - p.deriv(2)(g.nodes))) < 1e-10 * scale

    def test_four_nodes_too_coarse(self):
        g = RadialGrid(np.array([1e-5, 1e-4, 1e-3, 1e-2]))
        with pytest.raises(GridTooCoarse):
            radial_derivatives(np.ones(4), g)

    def test_one_hot_gives_lagrange_weights(self):
        import mpmath  # the test extra; not skipped when missing

        g = RadialGrid.default()
        r, k = g.nodes, len(g)
        for i in (0, 1, 2, 1000, 2500, k - 3, k - 2, k - 1):
            lo = min(max(i - FD_STENCIL // 2, 0), k - FD_STENCIL)
            stencil = range(lo, lo + FD_STENCIL)
            got = np.empty((FD_STENCIL, 2))
            want = np.empty((FD_STENCIL, 2))
            with mpmath.workdps(40):
                x = [mpmath.mpf(float(r[m])) - mpmath.mpf(float(r[i])) for m in stencil]
                for j, m in enumerate(stencil):
                    one_hot = np.zeros(k)
                    one_hot[m] = 1.0
                    d1, d2 = radial_derivatives(one_hot, g)
                    got[j] = d1[i], d2[i]
                    # Taylor coefficients at the node of the Lagrange basis polynomial L_j
                    _, w1, half_w2 = mpmath.taylor(lambda z: mpmath.fprod(
                        (z - xq) / (x[j] - xq) for q, xq in enumerate(x) if q != j), 0, 2)
                    want[j] = float(w1), float(2 * half_w2)
            assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))


class TestRadialProfilePair:
    def test_rejects_mismatched_lengths(self):
        g = RadialGrid.geometric(num=100)
        z = np.zeros(len(g))
        with pytest.raises(ValueError):
            RadialProfilePair(g, z[:-1], z, z, z)

    def test_rejects_negative_samples(self):
        g = RadialGrid.geometric(num=100)
        z = np.zeros(len(g))
        with pytest.raises(ValueError):
            RadialProfilePair(g, z - 1.0, z, z, z)

    def test_rejects_steep_origin_slope(self):
        g = RadialGrid.geometric(num=100)
        z = np.ones(len(g))
        bad = np.zeros(len(g))
        bad[0] = 1.0  # u'(0) = 0 demands O(r0) slope at the first node
        with pytest.raises(ValueError):
            RadialProfilePair(g, z, z, bad, np.zeros(len(g)))


@pytest.mark.parametrize("num", [3, 500, 32000])
def test_cumulative_trapezoid_matches_scipy(num):
    # forward as in the inner integrals, reversed as in the potential's outer one
    r = RadialGrid.geometric(num=num).nodes
    y = np.random.default_rng(num).random(num) * r ** 2
    for x, f in ((r, y), (r[::-1], (r * y)[::-1])):
        assert np.array_equal(cumulative_trapezoid(f, x),
                              integrate.cumulative_trapezoid(f, x, initial=0.0))
