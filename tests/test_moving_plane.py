import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critsys.bubble import bubble_field, make_bubble
from critsys.core import ExponentConfig
from critsys.errors import BudgetExceeded, QuadratureBudgetExceeded
from critsys.moving_plane import (
    CartesianSampler,
    PlaneParam,
    critical_plane_scan,
    exceedance_sets,
    greens_reflection_identity,
    reflect,
    reflection_inequality_check,
)

CFG = ExponentConfig(3, 2.0, 3.0)


@pytest.fixture(scope="module")
def sampler():
    return CartesianSampler(L=10.0, m=64)


class TestReflect:
    def test_simple_point(self):
        assert np.allclose(reflect(np.zeros(3), PlaneParam(1.0)), [2.0, 0.0, 0.0])

    def test_plane_points_fixed(self):
        x = np.array([0.7, 3.0, -1.0])
        assert np.allclose(reflect(x, PlaneParam(0.7)), x)

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, coords, lam):
        x = np.array(coords)
        plane = PlaneParam(lam)
        assert np.allclose(reflect(reflect(x, plane), plane), x, atol=1e-12)

    def test_oblique_direction(self):
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        plane = PlaneParam(0.0, d)
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(reflect(reflect(x, plane), plane), x)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            PlaneParam(0.0, np.array([1.0, 1.0, 0.0]))


class TestExceedanceSets:
    def test_centered_bubble_empty_right_of_center(self, sampler):
        field = bubble_field(make_bubble(CFG, t=1.0))
        measure, nodes = exceedance_sets(field, PlaneParam(0.5), sampler)
        assert measure == 0.0 and len(nodes) == 0

    def test_offset_bubble_nonempty(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        measure, nodes = exceedance_sets(field, PlaneParam(0.0), sampler)
        assert measure > 0.0 and len(nodes) > 0

    def test_far_plane_empty(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        measure, _ = exceedance_sets(field, PlaneParam(35.0), sampler)
        assert measure == 0.0

    def test_symmetry_detection_random_centers(self, sampler):
        # radial field about P, plane through P: empty set, for 5 draws
        rng = np.random.default_rng(42)
        for _ in range(5):
            c1 = float(rng.uniform(-2.0, 2.0))
            field = bubble_field(make_bubble(CFG, center=(c1, 0, 0),
                                             t=float(rng.uniform(0.5, 2.0))))
            measure, _ = exceedance_sets(field, PlaneParam(c1), sampler)
            assert measure == 0.0

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            CartesianSampler(L=10.0, m=4000, budget=1_000_000)


class TestCriticalPlaneScan:
    def test_centered_bubble(self, sampler):
        field = bubble_field(make_bubble(CFG, t=1.0))
        res = critical_plane_scan(field, field, sampler, np.linspace(-2, 3, 41))
        assert abs(res.lambda0) <= sampler.cell

    def test_offset_bubble(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        res = critical_plane_scan(field, field, sampler, np.linspace(-2, 3, 41))
        assert abs(res.lambda0 - 1.0) <= sampler.cell

    def test_translation_equivariance(self, sampler):
        lams = np.linspace(-2, 3, 41)
        f0 = bubble_field(make_bubble(CFG, center=(0.5, 0, 0), t=1.0))
        f1 = bubble_field(make_bubble(CFG, center=(1.5, 0, 0), t=1.0))
        r0 = critical_plane_scan(f0, f0, sampler, lams)
        r1 = critical_plane_scan(f1, f1, sampler, lams - 1.0 + 1.0)
        assert abs((r1.lambda0 - r0.lambda0) - 1.0) <= sampler.cell

    def test_both_components_scanned(self, sampler):
        # u is symmetric about 0, v only about 1: the planes in [0, 1) have an
        # empty B_u but a nonempty B_v
        lams = np.linspace(-2, 3, 41)
        u = bubble_field(make_bubble(CFG, t=1.0))
        v = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        res = critical_plane_scan(u, v, sampler, lams)
        assert abs(res.lambda0 - 1.0) <= sampler.cell
        assert critical_plane_scan(v, u, sampler, lams).lambda0 == res.lambda0

    def test_one_zero_field_not_degenerate(self, sampler):
        zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        v = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        res = critical_plane_scan(zero, v, sampler, np.linspace(-2, 3, 41))
        assert not res.degenerate
        assert abs(res.lambda0 - 1.0) <= sampler.cell

    def test_each_field_evaluated_once_per_plane(self, sampler, monkeypatch):
        calls = {"nodes": 0, "u": 0, "v": 0}
        nodes = CartesianSampler.nodes

        def counted_nodes(self):
            calls["nodes"] += 1
            return nodes(self)

        def counted(key, field):
            def f(pts):
                calls[key] += 1
                return field(pts)
            return f

        monkeypatch.setattr(CartesianSampler, "nodes", counted_nodes)
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        lams = np.linspace(-2, 3, 41)
        critical_plane_scan(counted("u", field), counted("v", field), sampler, lams)
        assert calls == {"nodes": 1, "u": len(lams) + 1, "v": len(lams) + 1}

        calls.update(nodes=0, u=0, v=0)
        reflection_inequality_check(counted("u", field), counted("v", field),
                                    PlaneParam(0.0), CFG, sampler)
        assert calls == {"nodes": 1, "u": 2, "v": 2}

    def test_zero_field_degenerate(self, sampler):
        zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        with pytest.warns(UserWarning):
            res = critical_plane_scan(zero, zero, sampler, np.linspace(-2, 3, 11))
        assert res.degenerate
        assert res.lambda0 == -2.0


class TestReflectionInequalityCheck:
    def test_centered_bubble_vacuous(self, sampler):
        field = bubble_field(make_bubble(CFG, t=1.0))
        rep = reflection_inequality_check(field, field, PlaneParam(1.0), CFG, sampler)
        assert rep.Bu_measure == 0.0 and rep.Bv_measure == 0.0
        for key in ("u_lam-u_p_Bu", "v_lam-v_p_Bv", "u_lam_p_Bu", "v_lam_p_Bv"):
            assert rep.norms[key] == 0.0

    def test_far_plane_smallness(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        rep = reflection_inequality_check(field, field, PlaneParam(5.0), CFG, sampler)
        assert rep.norms["u_lam_p_Bu"] <= 0.1 * rep.norms["u_p_global"]
        assert rep.norms["v_lam_p_Bv"] <= 0.1 * rep.norms["v_p_global"]

    def test_zero_fields_all_zero(self, sampler):
        zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        rep = reflection_inequality_check(zero, zero, PlaneParam(0.0), CFG, sampler)
        assert all(v == 0.0 for v in rep.norms.values())

    def test_nonempty_set_has_positive_norms(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        rep = reflection_inequality_check(field, field, PlaneParam(0.0), CFG, sampler)
        assert rep.Bu_measure > 0.0
        assert rep.norms["u_lam-u_p_Bu"] > 0.0
        assert rep.inequality_margins["factor_u"] > 0.0


class TestGreensReflectionIdentity:
    def test_symmetric_plane_both_zero(self):
        params = make_bubble(CFG, t=1.0)
        lhs, rhs = greens_reflection_identity(
            params, PlaneParam(0.0), np.array([-1.0, 0, 0]), CFG)
        assert lhs == 0.0
        assert abs(rhs) < 1e-12

    def test_offset_bubble_agreement(self):
        params = make_bubble(CFG, center=(1.0, 0, 0), t=1.0)
        lhs, rhs = greens_reflection_identity(
            params, PlaneParam(0.0), np.array([-1.0, 0, 0]), CFG)
        assert rhs == pytest.approx(lhs, rel=0.02)

    def test_kernel_difference_positive(self):
        # 1/|x-y|^{n-2} > 1/|x_lam-y|^{n-2} for x, y in the half space
        rng = np.random.default_rng(3)
        plane = PlaneParam(0.5)
        for _ in range(100):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            x[0] = plane.lam - abs(x[0]) - 1e-9
            y[0] = plane.lam - abs(y[0]) - 1e-9
            if np.allclose(x, y):
                continue
            xl = reflect(x, plane)
            assert (np.linalg.norm(x - y) ** -1.0
                    > np.linalg.norm(xl - y) ** -1.0)

    def test_budget_enforced(self):
        params = make_bubble(CFG, center=(1.0, 0, 0), t=1.0)
        with pytest.raises(QuadratureBudgetExceeded):
            greens_reflection_identity(params, PlaneParam(0.0),
                                       np.array([-1.0, 0, 0]), CFG,
                                       ny=3000, nrho=3000)

    def test_requires_axis_point(self):
        params = make_bubble(CFG, center=(1.0, 0, 0), t=1.0)
        with pytest.raises(ValueError):
            greens_reflection_identity(params, PlaneParam(0.0),
                                       np.array([-1.0, 0.5, 0]), CFG)
