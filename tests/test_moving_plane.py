import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critsys.bubble import bubble_field, make_bubble
from critsys.core import ExponentConfig, unit_sphere_area
from critsys.errors import BudgetExceeded, DimensionTooSmall, ScanInconclusive
from critsys.moving_plane import (
    CartesianSampler,
    PlaneParam,
    ReflectionReport,
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

    def test_points_must_have_n_coordinates(self):
        with pytest.raises(ValueError, match=r"points of shape \(3,\), but the plane's n = 4"):
            reflect(np.zeros(3), PlaneParam(0.0, n=4))
        x = np.zeros((2, 4))
        assert reflect(x, PlaneParam(1.0, n=4)).tolist() == [[2.0, 0.0, 0.0, 0.0]] * 2
        assert not x.any()  # a copy: the points passed in are left as they were

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_nonfinite_plane_rejected(self, lam):
        # the check would report empty sets and zero norms: holding vacuously at no plane
        with pytest.raises(ValueError, match="need a finite plane"):
            PlaneParam(lam)

    def test_dimension_is_an_integer(self):
        # as ExponentConfig refuses it
        with pytest.raises(ValueError, match="need an integer n, got n = 3.5"):
            PlaneParam(0.0, n=3.5)
        assert PlaneParam(0.0).n == 3
        plane = PlaneParam(0.0, n=4.0)
        assert plane.n == 4 and type(plane.n) is int

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_dimension_below_three_rejected(self, n):
        # as ExponentConfig refuses it; n = 0 raised a bare IndexError, and n = 1 or 2
        # built a plane that no check accepts
        with pytest.raises(DimensionTooSmall, match=f"need n >= 3, got n = {n}"):
            PlaneParam(0.0, n=n)


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

    @pytest.mark.parametrize("L, n", [(1e300, 3), (1e70, 5), (np.inf, 3)])
    def test_cell_volumes_must_be_finite(self, L, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check itself neither warns nor overflows
            with pytest.raises(ValueError, match="overflows"):
                CartesianSampler(L=L, m=64, n=n)

    @pytest.mark.parametrize("L, n", [(1e100, 3), (1e60, 5)])
    def test_large_box_has_finite_weights(self, L, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w = CartesianSampler(L=L, m=64, n=n).nodes()
        assert np.all(np.isfinite(w))

    @pytest.mark.parametrize("kw, error, match", [
        ({"n": 3.5}, ValueError, "need an integer n, got n = 3.5"),
        ({"n": 2}, DimensionTooSmall, "need n >= 3, got n = 2"),
        ({"m": 64.5}, ValueError, "need an integer m, got m = 64.5"),
        ({"m": np.nan}, ValueError, "need an integer m, got m = nan"),
    ], ids=["n-fraction", "n-two", "m-fraction", "m-nan"])
    def test_dimension_and_count_refused_unless_integers(self, kw, error, match):
        # the integer-dimension rule of ExponentConfig and PlaneParam; these were built
        # and failed later in nodes() with numpy's TypeError (n = 2 built a 2-D sampler)
        with pytest.raises(error, match=match):
            CartesianSampler(**{"L": 10.0, "m": 64, **kw})

    def test_integral_floats_stored_as_ints(self, sampler):
        s = CartesianSampler(L=10.0, m=64.0, n=3.0)
        assert (s.m, s.n) == (64, 3) and type(s.m) is int and type(s.n) is int
        for got, want in zip(s.nodes(), sampler.nodes()):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("m", [8, 64])
def test_nodes_match_meshgrid_reference(n, m):
    sampler = CartesianSampler(L=10.0, m=m, n=n)
    dx, drho = 20.0 / m, 10.0 / m
    X1, RHO = np.meshgrid(-10.0 + (np.arange(m) + 0.5) * dx, (np.arange(m) + 0.5) * drho,
                          indexing="ij")
    ref = np.zeros((m * m, n))
    ref[:, 0] = X1.ravel()
    ref[:, 1] = RHO.ravel()
    ref_w = unit_sphere_area(n - 1) * RHO.ravel() ** (n - 2) * dx * drho
    pts, ring = sampler.nodes()
    w = np.tile(ring, m)  # node column by node column
    assert pts.shape == ref.shape and w.shape == ref_w.shape
    assert pts.tobytes(order="C") == ref.tobytes() and w.tobytes() == ref_w.tobytes()
    # column-contiguous: each coordinate is one contiguous run
    assert pts.T.flags.c_contiguous


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

        # one callable as both u and v makes exactly the u side's calls
        u_side, sizes["u"], one = sizes["u"], [], counted("u", field)
        assert critical_plane_scan(one, one, sampler, lams) == res
        assert sizes["u"] == u_side

        calls.update(nodes=0, u=0, v=0)
        reflection_inequality_check(counted("u", field), counted("v", field),
                                    PlaneParam(0.0), CFG, sampler)
        assert calls == {"nodes": 1, "u": 2, "v": 2}
        calls.update(nodes=0, u=0, v=0)
        reflection_inequality_check(one, one, PlaneParam(0.0), CFG, sampler)
        assert calls == {"nodes": 1, "u": 2, "v": 0}

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

    @pytest.mark.parametrize("lams", [[], [np.nan], [np.inf], [0.0, np.nan, 1.0],
                                      [-np.inf, 1.0], [[0.0, 1.0]]], ids=str)
    def test_empty_or_nonfinite_planes_rejected(self, lams, sampler):
        calls = []

        def field(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        with pytest.raises(ValueError, match="nonempty sequence of finite planes"):
            critical_plane_scan(field, field, sampler, lams)
        assert calls == []  # raised before any field evaluation

    @pytest.mark.parametrize("lams, err", [
        # left of the box H_lam holds no node: each plane is empty vacuously, so
        # the sweep is no evidence, and the scan names its planes
        pytest.param([-60.0, -55.0, -50.0],
                     r"no swept plane holds a sampler node in H_lam: planes -60, -55, -50 "
                     r"lie at or left of the first node column x1 = -9.84375$",
                     id="[-60.0, -55.0, -50.0]"),
        # at or right of the centre every swept plane is empty, an upper bound only
        pytest.param([50.0, 55.0, 60.0], r"first swept plane 50 .* lies at or below it",
                     id="[50.0, 55.0, 60.0]"),
        pytest.param([0.0, 1.0, 2.0], r"first swept plane 0 .* lies at or below it",
                     id="[0.0, 1.0, 2.0]"),
        # the vacuous plane -10 is skipped, and the next one is already empty
        pytest.param([-10.0, 3.0], r"first swept plane 3 that holds a sampler node .* "
                                   r"lies at or below it", id="[-10.0, 3.0]"),
    ])
    def test_sweep_must_bracket_lambda0(self, lams, err, sampler):
        calls = []
        bubble = bubble_field(make_bubble(CFG, t=1.0))

        def field(pts):
            calls.append(len(pts))
            return bubble(pts)

        with pytest.raises(ScanInconclusive, match=err):
            critical_plane_scan(field, field, sampler, lams)
        # a sweep of vacuous planes is refused before any field evaluation
        assert (calls == []) == (lams[-1] < -9.84375)

    @pytest.mark.parametrize("lams", [np.linspace(-10, 3, 41), [-12.0, -10.0, -0.5, 0.5]],
                             ids=["cli-lmin-10", "two-vacuous"])
    def test_vacuous_planes_are_skipped(self, lams, sampler):
        # planes at or left of the first node column x1 = -9.84375 hold no node;
        # counted as empty, they would make the sweep look non-monotone
        field = bubble_field(make_bubble(CFG, t=1.0))
        held = [lam for lam in lams if lam > -9.84375]
        want = critical_plane_scan(field, field, sampler, held)
        assert critical_plane_scan(field, field, sampler, lams) == want
        assert want.lambda0 == held[np.searchsorted(held, 0.0)]  # the first plane right of 0

    @pytest.mark.parametrize("L, m, lams", [(10.0, 64, np.linspace(-2, 3, 41)),
                                            (10.0, 64, np.linspace(-9.6, 3, 22)),
                                            (7.3, 48, np.linspace(-7.0, 2.9, 34)),
                                            (10.0, 64, [-2.0, 0.15625, 3.0])],
                             ids=["sweep", "short-prefix", "inexact", "on-node-column"])
    def test_field_sees_each_planes_mirror_images(self, L, m, lams):
        # the field keeps copies: the scan and the check rewrite the nodes' x1 row
        # between evaluations, one mirrored x1 per node column; off the dyadic grid,
        # 2 lam - x1 would differ from reflect's x1 + 2 (lam - x1) in the last bit;
        # 0.15625 is the x1 of node column 32, which H_lam = {x1 < lam} leaves out
        sampler = CartesianSampler(L=L, m=m)
        pts, _ = sampler.nodes()
        bubble = bubble_field(make_bubble(CFG, center=(1.0, 0, 0), t=1.0))
        seen = []

        def field(x):
            seen.append(np.array(x))
            return bubble(x)

        def assert_mirror_images(got, lam, start, end):
            want = reflect(pts, PlaneParam(lam))[start:end, 0]
            assert got.shape == (end - start, sampler.n)
            assert got[:, 0].tobytes() == want.tobytes()
            assert got[:, 1:].tobytes() == pts[start:end, 1:].tobytes()

        critical_plane_scan(field, field, sampler, lams)
        assert seen[0].tobytes() == pts.tobytes()
        calls = iter(seen[1:])
        for lam in np.sort(lams):
            end = np.count_nonzero(pts[:, 0] < lam)
            for start in (max(end - sampler.m, 0), 0):  # the probe, then all of H_lam
                assert_mirror_images(next(calls), lam, start, end)
                if np.any(bubble(reflect(pts[start:end], PlaneParam(lam)))
                          > bubble(pts[start:end])):
                    break
        assert next(calls, None) is None

        for lam in lams:  # the check: the nodes, then all of H_lam
            seen.clear()
            reflection_inequality_check(field, field, PlaneParam(lam), CFG, sampler)
            assert len(seen) == 2 and seen[0].tobytes() == pts.tobytes()
            assert_mirror_images(seen[1], lam, 0, np.count_nonzero(pts[:, 0] < lam))


def full_scan(u_field, v_field, sampler, lambdas):
    """critical_plane_scan without the probe: each plane evaluates all of H_lam.

    Planes whose H_lam holds no node are dropped, plane by plane.
    """
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    pts, _ = sampler.nodes()
    held = np.array([np.any(pts[:, 0] < lam) for lam in lambdas])
    if not np.any(held):  # no plane's H_lam holds a node: no evidence at all
        raise ScanInconclusive(
            f"no swept plane holds a sampler node in H_lam: planes "
            f"{', '.join(f'{lam:g}' for lam in lambdas)} lie at or left of the first "
            f"node column x1 = {np.min(pts[:, 0]):g}")
    lambdas = lambdas[held]
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
    if first == 0:  # the sweep does not bracket lambda0
        raise ScanInconclusive(
            f"the first swept plane {lambdas[0]:g} that holds a sampler node already has "
            "empty exceedance sets, so lambda0 lies at or below it")
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
_SAME = {c: _bubble_at(c) for c in (0.0, 1.0, 2.0)}  # one callable passed as u and v


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
    *[(f, f, SWEEP) for f in _SAME.values()],
    (_SAME[1.0], _SAME[1.0], [-2.0, -1.0]),
    (_SAME[1.0], _SAME[1.0], np.linspace(-10, 3, 41)),
    (_SAME[0.0], _SAME[0.0], [-60.0, -55.0, -50.0]),  # no node in any H_lam
    (_SAME[0.0], _SAME[0.0], [0.0, 1.0, 2.0]),  # starts at lambda0
    (_bubble_at(0.0), _bubble_at(1.0), [1.0, 2.0, 3.0]),
    # planes on the x1 of node column 32 (m = 64) and of node column 16 (m = 32)
    (_bubble_at(0.15625), _bubble_at(0.15625), [-2.0, 0.15625, 0.3125, 3.0]),
], ids=["c0", "c0.5", "c1", "c1.375", "c2", "u0-v1", "u1-v0", "u2-v-0.5", "zero-u",
        "zero", "no-empty", "non-monotone", "short-prefix", "far-exceedance",
        "same-c0", "same-c1", "same-c2", "same-no-empty", "same-short-prefix",
        "left-of-box", "from-lambda0", "u0-v1-from-lambda0", "on-node-column"])
@pytest.mark.parametrize("m", [32, 64])
def test_probe_scan_matches_full_evaluation(u, v, lams, m):
    sampler = CartesianSampler(L=10.0, m=m)
    assert (scan_outcome(critical_plane_scan, u, v, sampler, lams)
            == scan_outcome(full_scan, u, v, sampler, lams))


def test_scan_peak_under_two_node_buffers():
    # the mirror images are written into the sampler's own (n, m^2) node buffer; a
    # second mirror buffer with copies of the other rows takes the peak past two
    sampler = CartesianSampler(L=10.0, m=512)
    field = _bubble_at(0.5)
    buffers = 2 * sampler.n * sampler.m ** 2 * 8
    tracemalloc.start()
    try:
        res = critical_plane_scan(field, field, sampler, SWEEP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == ScanResult(0.5)
    assert peak < buffers, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_check_peak_under_two_node_buffers(lam):
    # the mirror images are written into the node buffer, and the weights are the m
    # ring volumes of one node column: a per-node weight array takes the peak past two
    sampler = CartesianSampler(L=10.0, m=512)
    field = _bubble_at(0.5)
    buffers = 2 * sampler.n * sampler.m ** 2 * 8
    tracemalloc.start()
    try:
        rep = reflection_inequality_check(field, field, PlaneParam(lam), CFG, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.Bu_measure > 0.0) == (lam < 0.5)
    assert peak < buffers, f"peak {peak / 1e6:.1f} MB"


def reference_report(u_field, v_field, lam, config, sampler):
    """reflection_inequality_check with each norm formed on its own set, field by field."""
    p = 2.0 * config.n / (config.n - 2.0)
    pts, ring = sampler.nodes()
    w = np.tile(ring, sampler.m)  # node column by node column
    half = pts[:, 0] < lam
    refl = reflect(pts[half], PlaneParam(lam, n=sampler.n))
    u_all, v_all = u_field(pts), v_field(pts)
    u, v, ul, vl, w_h = u_all[half], v_all[half], u_field(refl), v_field(refl), w[half]
    bu, bv = ul > u, vl > v

    def lp(values, weights):
        return float(np.sum(weights * np.abs(values) ** p) ** (1.0 / p))

    norms = {
        "u_lam-u_p_Bu": lp((ul - u)[bu], w_h[bu]),
        "v_lam-v_p_Bv": lp((vl - v)[bv], w_h[bv]),
        "u_lam_p_Bu": lp(ul[bu], w_h[bu]),
        "v_lam_p_Bu": lp(vl[bu], w_h[bu]),
        "u_lam_p_Bv": lp(ul[bv], w_h[bv]),
        "v_lam_p_Bv": lp(vl[bv], w_h[bv]),
        "u_p_global": lp(u_all, w),
        "v_p_global": lp(v_all, w),
    }
    margins = {
        "factor_u": norms["u_lam_p_Bu"] ** (config.alpha - 1.0)
        * norms["v_lam_p_Bu"] ** config.beta,
        "factor_v": norms["v_lam_p_Bv"] ** (config.alpha - 1.0)
        * norms["u_lam_p_Bv"] ** config.beta,
    }
    return ReflectionReport(lam, float(np.sum(w_h[bu])), float(np.sum(w_h[bv])),
                            norms, margins)


def _x1_view(pts):
    return pts[:, 0]


@pytest.mark.parametrize("u, v", [(_x1_view, _x1_view), (_x1_view, _bubble_at(1.0)),
                                  (_bubble_at(1.0), _x1_view)], ids=["one", "u", "v"])
def test_field_returning_a_view_of_its_points(u, v):
    # x1 read as a view of the points: the nodes' x1 row is overwritten by the
    # mirror images, so values kept as that view would turn into u_lam
    sampler = CartesianSampler(L=10.0, m=32)
    assert (scan_outcome(critical_plane_scan, u, v, sampler, SWEEP)
            == scan_outcome(full_scan, u, v, sampler, SWEEP))
    for lam in (-3.3, 0.0, 1.0):
        got = reflection_inequality_check(u, v, PlaneParam(lam), CFG, sampler)
        assert repr(got) == repr(reference_report(u, v, lam, CFG, sampler))


class TestReflectionInequalityCheck:
    @pytest.mark.parametrize("lam", [-12.0, -10.0, -3.3, 0.0, 0.3125, 0.7, 1.0, 10.0, 12.0])
    @pytest.mark.parametrize("cfg", [CFG, ExponentConfig(5, 1.0, 4.0 / 3.0)], ids=["n3", "n5"])
    @pytest.mark.parametrize("pair", ["one", "two", "swapped"])
    def test_bitwise_equal_to_per_set_reference(self, pair, cfg, lam):
        # planes beyond the box, on its edges and inside it; 0.3125 is the x1 of node
        # column 16, which H_lam = {x1 < lam} leaves out
        sampler = CartesianSampler(L=10.0, m=32, n=cfg.n)
        e1 = np.eye(cfg.n)[0]
        f = bubble_field(make_bubble(cfg, t=1.0))
        g = bubble_field(make_bubble(cfg, center=e1, t=0.6))
        u, v = {"one": (f, f), "two": (f, g), "swapped": (g, f)}[pair]
        got = reflection_inequality_check(u, v, PlaneParam(lam, n=cfg.n), cfg, sampler)
        # repr tells -0.0 from 0.0 and prints each float exactly
        assert repr(got) == repr(reference_report(u, v, lam, cfg, sampler))

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

    @pytest.mark.parametrize("c1, lam", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.0, 3.0)])
    def test_one_callable_matches_two(self, c1, lam, sampler):
        f = _bubble_at(c1)
        one = reflection_inequality_check(f, f, PlaneParam(lam), CFG, sampler)
        two = reflection_inequality_check(f, _bubble_at(c1), PlaneParam(lam), CFG, sampler)
        assert one == two

    @pytest.mark.parametrize("cfg_n, plane_n, sampler_n", [(3, 4, 4), (4, 3, 4), (4, 4, 3)])
    def test_dimensions_must_agree(self, cfg_n, plane_n, sampler_n):
        configs = {3: CFG, 4: ExponentConfig(4, 1.0, 2.0)}
        calls = []

        def field(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        with pytest.raises(ValueError, match=f"config.n = {cfg_n}, plane.n = {plane_n}, "
                                             f"sampler.n = {sampler_n}"):
            reflection_inequality_check(field, field, PlaneParam(0.0, n=plane_n),
                                        configs[cfg_n], CartesianSampler(L=5.0, m=16, n=sampler_n))
        assert calls == []  # raised before any field evaluation

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
