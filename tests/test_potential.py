import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import gamma, zeta

from critsys import potential
from critsys.bubble import bubble_profile, eval_bubble_radial, make_bubble
from critsys.core import (
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    lp_norm_radial,
    radial_laplacian,
    unit_sphere_area,
)
from critsys.errors import (
    ExponentRelationViolated,
    IterateBlowup,
    NonGeometricGrid,
    NonintegrableInput,
    QuadratureDivergence,
)
from critsys.potential import (
    KernelSpec,
    _angular_factor,
    hls_functional,
    newton_potential_derivative,
    newton_potential_radial,
    picard_iterate,
    picard_step,
)

CFG = ExponentConfig(3, 2.0, 3.0)


def indicator_grid(num=9000):
    base = np.geomspace(1e-6, 1e4, num)
    return RadialGrid(np.unique(np.concatenate([base, [1.0, 1.0 + 1e-9]])))


def lieb_constant(n, lam):
    """Lieb's sharp HLS constant for p = r = 2n/(2n - lam) (Ann. Math. 1983)."""
    g = math.gamma
    return (math.pi ** (lam / 2) * g(n / 2 - lam / 2) / g(n - lam / 2)
            * (g(n / 2) / g(n)) ** (-1 + lam / n))


def lieb_rel_error(n, lam, num):
    """Relative error of the functional at Lieb's extremal (1+r^2)^(-(2n-lam)/2)."""
    grid = RadialGrid.geometric(num=num)
    f = (1.0 + grid.nodes ** 2) ** (-(2 * n - lam) / 2.0)
    p = 2.0 * n / (2.0 * n - lam)
    val = hls_functional(f, f, grid, KernelSpec(n, lam), p, p)
    return abs(val / lieb_constant(n, lam) - 1.0)


def dense_hls(f, grid, kernel, p):
    """hls_functional(f, f, ...) with the N x N sphere-average matrix."""
    n, lam = kernel.n, kernel.lam
    r = grid.nodes
    w = np.zeros_like(r)
    w[:-1] += 0.5 * np.diff(r)
    w[1:] += 0.5 * np.diff(r)
    wf = w * r ** (n - 1) * f
    total = wf @ _angular_factor(r[:, None], r[None, :], kernel) @ wf
    gam = n - 1.0 - lam
    if gam < 1.0:  # the Navot cusp correction, as in hls_functional
        K = (gamma(n / 2.0) * gamma(-gam)
             / (gamma(lam / 2.0) * gamma((lam - n + 2.0) / 2.0)))
        total -= 2.0 * zeta(-gam) * K * 2.0 ** gam * (wf @ (np.gradient(r) ** (1.0 + gam) * f))
    return float(unit_sphere_area(n) ** 2 * total / lp_norm_radial(f, grid, p, n) ** 2)


class TestNewtonPotential:
    def test_unit_ball_center_value(self):
        # -Lap u = 1 in the unit ball with harmonic matching: u(0) = 1/2
        grid = indicator_grid()
        f = (grid.nodes <= 1.0).astype(float)
        u, _ = newton_potential_radial(f, grid, 3)
        assert u[0] == pytest.approx(0.5, abs=1e-6)

    def test_exterior_newtons_theorem(self):
        grid = indicator_grid()
        f = (grid.nodes <= 1.0).astype(float)
        u, _ = newton_potential_radial(f, grid, 3)
        ext = grid.nodes > 1.0
        assert np.max(np.abs(u[ext] - (1.0 / 3.0) / grid.nodes[ext])) < 1e-6

    def test_zero_maps_to_zero(self):
        grid = RadialGrid.geometric(num=500)
        u, du = newton_potential_radial(np.zeros(len(grid)), grid, 3)
        assert np.all(u == 0.0) and np.all(du == 0.0)

    def test_bubble_nonlinearity_recovers_bubble(self):
        grid = RadialGrid.default()
        b = make_bubble(CFG, t=1.0)
        phi = eval_bubble_radial(b, grid.nodes)
        u, _ = newton_potential_radial(phi ** 5, grid, 3)
        assert np.max(np.abs(u - phi)) < 1e-4

    def test_inverse_property_second_order(self):
        # -Lap applied to the potential recovers f, converging at 2nd order
        errs = []
        for num in (2000, 4000):
            grid = RadialGrid.geometric(1e-6, 1e3, num)
            f = np.exp(-grid.nodes ** 2)
            u, _ = newton_potential_radial(f, grid, 3)
            lap = radial_laplacian(u, grid, 3)
            window = (grid.nodes > 0.05) & (grid.nodes < 5.0)
            errs.append(np.max(np.abs(-lap[window] - f[window])))
        assert errs[0] / errs[1] > 3.0

    def test_derivative_consistency(self):
        grid = RadialGrid.geometric(num=2000)
        f = np.exp(-grid.nodes ** 2)
        du = newton_potential_derivative(f, grid, 3)
        u, du_pot = newton_potential_radial(f, grid, 3)
        assert np.array_equal(du_pot, du)  # the potential's u' is this one integral
        window = (grid.nodes > 0.1) & (grid.nodes < 5.0)
        fd = np.gradient(u, grid.nodes)
        assert np.max(np.abs(du[window] - fd[window])) < 1e-3

    def test_rejects_negative_input(self):
        grid = RadialGrid.geometric(num=500)
        with pytest.raises(NonintegrableInput):
            newton_potential_radial(-np.ones(len(grid)), grid, 3)

    def test_rejects_nondecaying_tail(self):
        grid = RadialGrid.geometric(num=500)
        with pytest.raises(NonintegrableInput):
            newton_potential_radial(np.ones(len(grid)), grid, 3)


class TestPicard:
    def test_bubble_pair_is_fixed_point(self):
        grid = RadialGrid.default()
        _, residual = picard_step(bubble_profile(make_bubble(CFG, t=1.0), grid), CFG)
        assert residual <= 1e-4

    @pytest.mark.parametrize("eps", [1e-3, -1e-3])
    def test_perturbed_bubble_first_order_response(self, eps):
        # a uniform amplitude perturbation maps (1+e)phi -> (1+e)^5 phi, so
        # the first residual is |(1+e)^5 - (1+e)| * phi(0); the subsequent
        # ratio is diagnostic only (the amplitude mode is not contracting)
        grid = RadialGrid.default()
        prof = bubble_profile(make_bubble(CFG, t=1.0), grid)
        scaled = RadialProfilePair(grid, prof.u * (1 + eps), prof.v * (1 + eps),
                                   prof.du * (1 + eps), prof.dv * (1 + eps))
        p1, r1 = picard_step(scaled, CFG)
        expected = abs((1 + eps) ** 5 - (1 + eps)) * prof.u[0]
        assert r1 == pytest.approx(expected, rel=1e-2)
        _, r2 = picard_step(p1, CFG)
        assert np.isfinite(r2)

    def test_zero_iterate_maps_to_zero(self):
        grid = RadialGrid.geometric(num=500)
        zeros = np.zeros(len(grid))
        _, residual = picard_step(RadialProfilePair(grid, zeros, zeros, zeros, zeros), CFG)
        assert residual == 0.0

    def test_step_integrates_each_component_once(self, monkeypatch):
        # one inner and one outer cumulative integral per component
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cumulative_trapezoid(*args, **kwargs)

        monkeypatch.setattr(potential, "cumulative_trapezoid", counting)
        prof = bubble_profile(make_bubble(CFG, t=1.0), RadialGrid.default())
        picard_step(prof, CFG)
        assert len(calls) == 4

    def test_blowup_detected(self):
        grid = RadialGrid.geometric(1e-6, 1e4, 500)
        big = 500.0 * np.exp(-grid.nodes)
        prof = RadialProfilePair(grid, big, big, np.zeros(len(grid)), np.zeros(len(grid)))
        with pytest.raises(IterateBlowup):
            list(picard_iterate(prof, CFG, max_steps=10))


class TestLogStep:
    @pytest.mark.parametrize("grid, q", [
        (RadialGrid.geometric(1e-5, 10.0, 301), 10.0 ** (6 / 300)),
        (RadialGrid.default(), 1e10 ** (1 / 3999)),
        (RadialGrid.default().refined(), 1e10 ** (1 / 7998)),
        (RadialGrid.default().refined().refined().refined(), 1e10 ** (1 / 31992)),
    ], ids=["geometric", "default", "refined", "refined x3"])
    def test_geometric_grids(self, grid, q):
        assert grid.log_step == pytest.approx(q, rel=1e-14)

    def test_indicator_grid_is_not_geometric(self):
        assert indicator_grid().log_step is None


class TestHlsFunctional:
    def test_indicator_against_analytic_oracle(self):
        # n=3, lambda=1: kernel average is exactly 1/max(r,s), so
        # J = (4 pi)^2 * 2/15 for the unit-ball pair (brute-force integral)
        grid = RadialGrid.default()
        f = (grid.nodes <= 1.0).astype(float)
        val = hls_functional(f, f, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5)
        j_exact = (4 * math.pi) ** 2 * 2.0 / 15.0
        norm = (4 * math.pi / 3.0) ** (5.0 / 6.0)
        assert val == pytest.approx(j_exact / norm ** 2, rel=1e-3)

    def test_zero_input(self):
        grid = RadialGrid.geometric(num=500)
        z = np.zeros(len(grid))
        assert hls_functional(z, z, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5) == 0.0

    def test_conformal_invariance_on_extremal_family(self):
        grid = RadialGrid.default()
        vals = []
        for t in (0.5, 1.0, 2.0):
            f = eval_bubble_radial(make_bubble(CFG, t=t), grid.nodes) ** 5
            vals.append(hls_functional(f, f, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5))
        assert max(vals) - min(vals) < 1e-4 * np.mean(vals)

    def test_homogeneity_exact(self):
        grid = RadialGrid.default()
        f = eval_bubble_radial(make_bubble(CFG, t=1.0), grid.nodes) ** 5
        kern = KernelSpec(3, 1.0)
        base = hls_functional(f, f, grid, kern, 6 / 5, 6 / 5)
        for c1, c2 in [(2.0, 2.0), (2.0, 10.0), (10.0, 10.0)]:
            assert abs(hls_functional(c1 * f, c2 * f, grid, kern, 6 / 5, 6 / 5)
                       - base) <= 1e-12

    def test_angular_rule_against_closed_form(self):
        # at n = 3 the sphere average has the closed form
        # ((r+s)^{2-lam} - |r-s|^{2-lam}) / ((2-lam) 2 r s); the general-n
        # hypergeometric form must reproduce it for lam != n-2
        lam = 0.9
        r = np.array([[0.3], [1.7], [5.0]])
        s = np.array([[0.4, 2.0, 6.0]])
        got = _angular_factor(r, s, KernelSpec(3, lam))
        want = (((r + s) ** (2 - lam) - np.abs(r - s) ** (2 - lam))
                / ((2 - lam) * 2 * r * s))
        assert np.allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("n,lam", [(3, 0.5), (3, 1.5), (3, 1.8), (4, 2.5), (5, 3.5)])
    def test_lieb_sharp_constant(self, n, lam):
        assert lieb_rel_error(n, lam, 1000) <= 1e-4

    @pytest.mark.parametrize("n,lam", [(3, 0.5), (3, 1.5), (3, 1.8), (4, 2.5), (5, 3.5)])
    def test_toeplitz_matches_dense_kernel(self, n, lam):
        grid = RadialGrid.geometric(num=500)
        f = (1.0 + grid.nodes ** 2) ** (-(2 * n - lam) / 2.0)
        p = 2.0 * n / (2.0 * n - lam)
        kernel = KernelSpec(n, lam)
        assert hls_functional(f, f, grid, kernel, p, p) == pytest.approx(
            dense_hls(f, grid, kernel, p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,lam", [(3, 1.0), (4, 2.0), (5, 3.0)])
    def test_newton_path_matches_dense_kernel(self, n, lam):
        # at lam = n-2 the functional goes through the Newton potential, whose
        # analytic tail beyond rmax is the only difference from the double sum
        grid = RadialGrid.geometric(num=500)
        f = (1.0 + grid.nodes ** 2) ** (-(2 * n - lam) / 2.0)
        p = 2.0 * n / (2.0 * n - lam)
        kernel = KernelSpec(n, lam)
        assert hls_functional(f, f, grid, kernel, p, p) == pytest.approx(
            dense_hls(f, grid, kernel, p), rel=1e-11, abs=0.0)

    def test_nondecaying_input_refused_at_harmonic(self):
        # 1/(1+r) is not in L^(6/5)(R^3); the truncated grid would hide that
        grid = RadialGrid.default()
        f = 1.0 / (1.0 + grid.nodes)
        with pytest.raises(NonintegrableInput):
            hls_functional(f, f, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5)

    def test_non_geometric_grid_refused_off_harmonic(self):
        grid = indicator_grid(num=500)
        f = np.exp(-grid.nodes)
        with pytest.raises(NonGeometricGrid):
            hls_functional(f, f, grid, KernelSpec(3, 1.5), 12 / 9, 12 / 9)
        # the harmonic exponent lam = n-2 goes through the Newton potential on any grid
        assert hls_functional(f, f, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5) > 0.0

    def test_lieb_error_second_order(self):
        # the diagonal cusp correction restores O(h^2) near lam = n-1
        assert lieb_rel_error(3, 1.8, 1000) / lieb_rel_error(3, 1.8, 2000) >= 3.5

    def test_diagonal_divergence_refused(self):
        grid = RadialGrid.geometric(num=500)
        f = (1.0 + grid.nodes ** 2) ** -2.75
        with pytest.raises(QuadratureDivergence):
            hls_functional(f, f, grid, KernelSpec(3, 2.5), 12 / 7, 12 / 7)

    def test_exponent_relation_enforced(self):
        grid = RadialGrid.geometric(num=500)
        f = np.exp(-grid.nodes)
        with pytest.raises(ExponentRelationViolated):
            hls_functional(f, f, grid, KernelSpec(3, 1.0), 2.0, 2.0)

    def test_kernel_spec_range_checked(self):
        with pytest.raises(QuadratureDivergence):
            KernelSpec(3, 3.5)

