import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import matmul_toeplitz
from scipy.special import gamma, zeta

from critsys import potential
from critsys.bubble import bubble_profile, eval_bubble_radial, make_bubble
from critsys.core import (
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    cumulative_trapezoid,
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
    _hyp2f1,
    _toeplitz_product,
    _zeta,
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
    r, h = grid.nodes, math.log(grid.log_step)
    w = h * r
    w[[0, -1]] /= 2.0
    wf = w * r ** (n - 1) * f
    total = wf @ _angular_factor(r[:, None], r[None, :], kernel) @ wf
    gam = n - 1.0 - lam
    if gam % 2.0 != 0.0:  # the Navot cusp correction, as in hls_functional
        K = -(gamma(n / 2.0) * gamma((1.0 + gam) / 2.0)
              / (2.0 * np.sin(np.pi * gam / 2.0) * gamma(1.0 + gam) * gamma(lam / 2.0)))
        total -= 2.0 * zeta(-gam) * K * 2.0 ** gam * (wf @ ((h * r) ** (1.0 + gam) * f))
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

    @pytest.mark.parametrize("num", [2001, 4001, 8001])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_commutes_with_kelvin_node_reversal(self, n, num):
        # on a grid symmetric in ln r about 1, the Kelvin transform r -> 1/r reverses the
        # nodes, and the rule commutes with it to roundoff: G[r^(-n-2) f(1/r)] at node i
        # is r^(2-n) G[f] at node N-1-i (3.5e-13 at n = 3, at most 9e-15 at n = 4, 5).
        # A structural identity of the rule, not an accuracy oracle.  The end node
        # r = 1e5 reads 3.5e-11 from the truncated head, so it is left out
        grid = RadialGrid(np.geomspace(1e-5, 1e5, num))
        r = grid.nodes

        def f(s):
            return np.exp(-s ** 2) * (1.0 + s)

        u, _ = newton_potential_radial(f(r), grid, n)
        kelvin, _ = newton_potential_radial(r ** (-n - 2.0) * f(1.0 / r), grid, n)
        want = r ** (2.0 - n) * u[::-1]
        inner = (r >= 1e-3) & (r <= 1e3)
        assert np.max(np.abs(kelvin - want)[inner] / want[inner]) <= 1e-12

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

    def test_nan_iterate_is_a_blowup(self):
        # a NaN never compares greater than BLOWUP_SUP, and Python's max can drop it
        grid = RadialGrid.default()
        prof = bubble_profile(make_bubble(CFG, t=1.0), grid)
        v = prof.v.copy()
        v[100] = np.nan
        with pytest.raises(IterateBlowup, match="sup-norm nan"):
            picard_step(RadialProfilePair(grid, prof.u, v, prof.du, prof.dv), CFG)


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


def dense_toeplitz_product(col, row, x, rows=500):
    """T x in long double, summed row block by row block."""
    col, row, x = (np.asarray(a, dtype=np.longdouble) for a in (col, row, x))
    j = np.arange(len(x))
    out = np.empty(len(x), dtype=np.longdouble)
    for start in range(0, len(x), rows):
        d = np.arange(start, min(start + rows, len(x)))[:, None] - j  # T[i, j] is col[d] or row[-d]
        out[start:start + rows] = np.where(d >= 0, col[d.clip(0)], row[(-d).clip(0)]) @ x
    return out


@pytest.mark.parametrize("num", [1000, 4000])
@pytest.mark.parametrize("n, lam", [(3, 1.5), (5, 2.2)])
def test_toeplitz_product_matches_scipy(num, n, lam):
    # hls_functional's product on Lieb's extremal, against the long-double
    # dense product and scipy's matmul_toeplitz (whose FFT size is 2N-1, so
    # its rounding differs from the power-of-two embedding)
    grid = RadialGrid.geometric(num=num)
    r, kernel = grid.nodes, KernelSpec(n, lam)
    t = grid.log_step ** np.arange(num)
    col, row = _angular_factor(1.0, 1.0 / t, kernel), _angular_factor(1.0, t, kernel)
    x = r ** n * (1.0 + r ** 2) ** (-(2 * n - lam) / 2.0)
    exact = dense_toeplitz_product(col, row, x)
    bound = 2e-15 * float(np.max(np.abs(exact)))
    got = _toeplitz_product(col, row, x)
    assert float(np.max(np.abs(got - exact))) <= bound
    assert np.max(np.abs(got - matmul_toeplitz((col, row), x))) <= bound


class TestSpecialFunctions:
    """The kernel's 2F1 and zeta against mpmath at 30 digits."""

    # (4, 1.0), (5, 2.0) and (6, 1.0) have integer c-a-b (the log form);
    # (5, 1.0) has b = -1 (a polynomial); (3, 1.95) has c-a-b = 0.05
    @pytest.mark.parametrize("n,lam", [(3, 0.5), (3, 1.5), (3, 1.95), (4, 1.0), (4, 2.5),
                                       (5, 1.0), (5, 2.0), (5, 3.5), (6, 1.0)])
    def test_hyp2f1_against_mpmath(self, n, lam):
        grid = RadialGrid.default()
        z = np.concatenate([(1.0 / grid.log_step ** np.arange(len(grid))) ** 2,
                            [0.5 - 1e-7, 0.5 + 1e-7, 0.9, 0.99, 1.0]])
        a, b, c = lam / 2.0, (lam - n + 2.0) / 2.0, n / 2.0
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyp2f1(a, b, c, x)) for x in z])
        assert np.max(np.abs(_hyp2f1(a, b, c, z) / want - 1.0)) <= 5e-14

    def test_zeta_against_mpmath(self):
        # every gam = n-1-lambda of the Navot term: (0, 5) without the even
        # integers, where zeta(-gam) = 0; tighter on (0, 1)
        unit = np.linspace(0.01, 0.99, 99)
        beyond = np.linspace(1.0, 4.99, 400)
        for gam, rel in [(g, 1e-14) for g in unit] + [(g, 1e-13) for g in beyond
                                                        if g not in (2.0, 4.0)]:
            with mpmath.workdps(30):
                want = float(mpmath.zeta(-gam))
            assert _zeta(-gam) == pytest.approx(want, rel=rel, abs=0.0)


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
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    # (3, 1.0), (4, 2.0) and (5, 3.0) are harmonic, lam = n-2 (gam = 1);
    # (5, 1.0) has gam = 3, (4, 1.0) and (5, 2.0) even gam = 2 (no Navot term)
    HLS_CASES = [(3, 0.5), (3, 1.0), (3, 1.5), (3, 1.8), (4, 1.0), (4, 2.0), (4, 2.5),
                 (5, 1.0), (5, 2.0), (5, 3.0), (5, 3.5)]

    @pytest.mark.parametrize("n,lam", HLS_CASES)
    def test_lieb_sharp_constant(self, n, lam):
        assert lieb_rel_error(n, lam, 1000) <= 1e-6

    @pytest.mark.parametrize("n,lam", HLS_CASES)
    def test_toeplitz_matches_dense_kernel(self, n, lam):
        grid = RadialGrid.geometric(num=500)
        f = (1.0 + grid.nodes ** 2) ** (-(2 * n - lam) / 2.0)
        p = 2.0 * n / (2.0 * n - lam)
        kernel = KernelSpec(n, lam)
        assert hls_functional(f, f, grid, kernel, p, p) == pytest.approx(
            dense_hls(f, grid, kernel, p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_nondecaying_input_refused(self, lam):
        # 1/(1+r) is in no L^p(R^3) with p <= 3, and p = 6/(6-lam) < 2 is;
        # the truncated grid would hide that
        grid = RadialGrid.default()
        f = 1.0 / (1.0 + grid.nodes)
        p = 6.0 / (6.0 - lam)
        with pytest.raises(NonintegrableInput):
            hls_functional(f, f, grid, KernelSpec(3, lam), p, p)

    def test_non_geometric_grid_refused_off_harmonic(self):
        # and at the harmonic exponent lam = n-2 as well: one path at every lam; and for
        # all-zero f and g, whose zero norms returned 0.0 before the grid was read
        grid = indicator_grid(num=500)
        f = np.exp(-grid.nodes)
        with pytest.raises(NonGeometricGrid):
            hls_functional(f, f, grid, KernelSpec(3, 1.5), 12 / 9, 12 / 9)
        with pytest.raises(NonGeometricGrid):
            hls_functional(f, f, grid, KernelSpec(3, 1.0), 6 / 5, 6 / 5)
        with pytest.raises(NonGeometricGrid):
            hls_functional(0 * f, 0 * f, grid, KernelSpec(3, 1.5), 12 / 9, 12 / 9)

    def test_lieb_error_third_order(self):
        # the trapezoid in ln r with the diagonal cusp correction is
        # O(h^(3+gam)) near lam = n-1, i.e. more than O(h^3)
        assert lieb_rel_error(3, 1.8, 1000) / lieb_rel_error(3, 1.8, 2000) >= 7.0

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

