import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critsys.bubble import bubble_field, make_bubble
from critsys.core import ExponentConfig
from critsys.errors import BudgetExceeded, ScanInconclusive
from critsys.moving_plane import (
    CartesianSampler,
    PlaneParam,
    ScanResult,
    critical_plane_scan,
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
    """B_u = {x in H_lam : u(x_lam) > u(x)} through its grid measure."""

    @staticmethod
    def measure(field, lam, sampler):
        return reflection_inequality_check(field, field, PlaneParam(lam), CFG,
                                           sampler).Bu_measure

    def test_centered_bubble_empty_right_of_center(self, sampler):
        field = bubble_field(make_bubble(CFG, t=1.0))
        assert self.measure(field, 0.5, sampler) == 0.0

    def test_offset_bubble_nonempty(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        assert self.measure(field, 0.0, sampler) > 0.0

    def test_far_plane_empty(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        assert self.measure(field, 35.0, sampler) == 0.0

    def test_symmetry_detection_random_centers(self, sampler):
        # radial field about P, plane through P: empty set, for 5 draws
        rng = np.random.default_rng(42)
        for _ in range(5):
            c1 = float(rng.uniform(-2.0, 2.0))
            field = bubble_field(make_bubble(CFG, center=(c1, 0, 0),
                                             t=float(rng.uniform(0.5, 2.0))))
            assert self.measure(field, c1, sampler) == 0.0

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            CartesianSampler(L=10.0, m=4000)

    @pytest.mark.parametrize("L", [0.0, -1.0, np.nan])
    def test_box_must_be_nonempty(self, L):
        with pytest.raises(ValueError):
            CartesianSampler(L=L, m=64)


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
        sizes = {"u": [], "v": []}
        nodes = CartesianSampler.nodes
        x1 = nodes(sampler)[0][:, 0]

        def counted_nodes(self):
            calls["nodes"] += 1
            return nodes(self)

        def counted(key, field):
            def f(pts):
                calls[key] += 1
                sizes[key].append(len(pts))
                return field(pts)
            return f

        monkeypatch.setattr(CartesianSampler, "nodes", counted_nodes)
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        lams = np.linspace(-2, 3, 41)
        res = critical_plane_scan(counted("u", field), counted("v", field), sampler, lams)
        assert calls["nodes"] == 1
        half_spaces = np.array([np.count_nonzero(x1 < lam) for lam in lams])
        empty = lams >= res.lambda0
        for key in ("u", "v"):
            # all nodes once, a probe of at most one node column (m points)
            # per plane, and the whole half-space only on the empty planes
            assert sizes[key][0] == len(x1)
            whole = [k for k in sizes[key][1:] if k > sampler.m]
            assert sorted(whole) == sorted(half_spaces[empty])
            assert sum(sizes[key]) <= len(x1) + len(lams) * sampler.m + sum(whole)
            # without the probe every plane evaluated its whole half-space
            assert sum(sizes[key]) < len(x1) + sum(half_spaces)

        calls.update(nodes=0, u=0, v=0)
        reflection_inequality_check(counted("u", field), counted("v", field),
                                    PlaneParam(0.0), CFG, sampler)
        assert calls == {"nodes": 1, "u": 2, "v": 2}

    def test_no_empty_plane_inconclusive(self, sampler):
        field = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        with pytest.raises(ScanInconclusive, match="no swept plane"):
            critical_plane_scan(field, field, sampler, [-2.0, -1.0])

    def test_non_monotone_emptiness_inconclusive(self, sampler):
        # equal bubbles at x1 = -3 and 3: empty at the symmetry plane 0,
        # nonempty at 1 (the right bubble mirrors onto the left one), empty at 5
        left = bubble_field(make_bubble(CFG, center=(-3.0, 0, 0), t=1.0))
        right = bubble_field(make_bubble(CFG, center=(3.0, 0, 0), t=1.0))
        field = lambda pts: left(pts) + right(pts)
        with pytest.raises(ScanInconclusive, match="non-monotone"):
            critical_plane_scan(field, field, sampler, [0.0, 1.0, 5.0])

    def test_zero_field_degenerate(self, sampler):
        zero = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        with pytest.warns(UserWarning):
            res = critical_plane_scan(zero, zero, sampler, np.linspace(-2, 3, 11))
        assert res.degenerate
        assert res.lambda0 == -2.0


def full_scan(u_field, v_field, sampler, lambdas):
    """critical_plane_scan without the probe: each plane evaluates all of H_lam."""
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    pts, _ = sampler.nodes()
    u_all, v_all = u_field(pts), v_field(pts)
    if not (np.any(u_all) or np.any(v_all)):
        return ScanResult(float(lambdas[0]), degenerate=True)
    empty = []
    for lam in lambdas:
        half = pts[:, 0] < lam
        refl = reflect(pts[half], PlaneParam(lam, n=sampler.n))
        empty.append(not np.any((u_field(refl) > u_all[half]) | (v_field(refl) > v_all[half])))
    if not any(empty):
        raise ScanInconclusive("no swept plane has an empty exceedance set")
    first = empty.index(True)
    if not all(empty[first:]):
        raise ScanInconclusive(
            "set emptiness is non-monotone across the sweep (grid artifacts)")
    return ScanResult(float(lambdas[first]))


def scan_outcome(scan, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-zero case warns
        try:
            return scan(*args)
        except ScanInconclusive as exc:
            return str(exc)


def _bubble_at(c1):
    return bubble_field(make_bubble(CFG, center=(c1, 0, 0), t=1.0))


def _two_bubbles(pts):
    return _bubble_at(-3.0)(pts) + _bubble_at(3.0)(pts)


def _bubble_and_far_bump(pts):
    # the unit ball about (5, 0, 0) lifts H_0's nodes near x1 = -5 onto it,
    # far from the plane's node column, where the bubble at 0 is symmetric
    pts = np.atleast_2d(pts)
    return _bubble_at(0.0)(pts) + (np.hypot(pts[:, 0] - 5.0, pts[:, 1]) < 1.0)


def _zero(pts):
    return np.zeros(len(np.atleast_2d(pts)))


SWEEP = np.linspace(-2, 3, 41)


@pytest.mark.parametrize("u, v, lams", [
    *[(_bubble_at(c), _bubble_at(c), SWEEP) for c in (0.0, 0.5, 1.0, 1.375, 2.0)],
    (_bubble_at(0.0), _bubble_at(1.0), SWEEP),
    (_bubble_at(1.0), _bubble_at(0.0), SWEEP),
    (_bubble_at(2.0), _bubble_at(-0.5), SWEEP),
    (_zero, _bubble_at(1.0), SWEEP),
    (_zero, _zero, SWEEP),
    (_bubble_at(1.0), _bubble_at(1.0), [-2.0, -1.0]),  # no empty plane
    (_two_bubbles, _two_bubbles, [0.0, 1.0, 5.0]),  # non-monotone
    (_bubble_at(1.0), _bubble_at(1.0), np.linspace(-10, 3, 41)),  # prefixes below m rows
    (_bubble_and_far_bump, _bubble_and_far_bump, [-2.0, 0.0, 2.5, 4.0, 6.0]),  # clean probes
], ids=["c0", "c0.5", "c1", "c1.375", "c2", "u0-v1", "u1-v0", "u2-v-0.5", "zero-u",
        "zero", "no-empty", "non-monotone", "short-prefix", "far-exceedance"])
@pytest.mark.parametrize("m", [32, 64])
def test_probe_scan_matches_full_evaluation(u, v, lams, m):
    sampler = CartesianSampler(L=10.0, m=m)
    assert (scan_outcome(critical_plane_scan, u, v, sampler, lams)
            == scan_outcome(full_scan, u, v, sampler, lams))


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
        assert rhs == pytest.approx(lhs, rel=1e-10)

    @pytest.mark.parametrize("t, bound", [(1.0, 1e-10), (5.0, 1e-9), (20.0, 1e-8),
                                          (0.2, 1e-3)])
    def test_polar_rule_accuracy(self, t, bound):
        # narrow bubbles far from x are the rule's weak case (t = 0.2)
        cfgs = [CFG, ExponentConfig(4, 1.0, 2.0), ExponentConfig(5, 1.0, 4.0 / 3.0)]
        planes = [(0.0, -1.0), (0.5, -0.5), (1.5, 0.0), (0.0, -0.01), (0.0, -1e-4),
                  (0.0, -3.0), (0.0, -10.0), (2.0, 1.9)]
        worst = 0.0
        for cfg in cfgs:
            e1 = np.eye(cfg.n)[0]
            for c1 in (0.5, 1.0, 2.0, -1.5):
                params = make_bubble(cfg, center=c1 * e1, t=t)
                for lam, x1 in planes:
                    lhs, rhs = greens_reflection_identity(
                        params, PlaneParam(lam, n=cfg.n), x1 * e1, cfg)
                    # a bubble centered on the plane has lhs = 0 and no source
                    worst = max(worst, abs(rhs - lhs) / abs(lhs) if lhs else abs(rhs))
        assert worst <= bound

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

    def test_requires_axis_point(self):
        params = make_bubble(CFG, center=(1.0, 0, 0), t=1.0)
        with pytest.raises(ValueError):
            greens_reflection_identity(params, PlaneParam(0.0),
                                       np.array([-1.0, 0.5, 0]), CFG)
