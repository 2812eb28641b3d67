import re

import numpy as np
import pytest

from critsys.bubble import (
    BubbleParams,
    amplitude_constant,
    bubble_residual,
    eval_bubble,
    eval_bubble_radial,
    make_bubble,
    pair_residual,
)
from critsys.core import ExponentConfig, RadialGrid
from critsys.errors import NonpositiveScale


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.default()


def cfg_for(n):
    crit = (n + 2.0) / (n - 2.0)
    return ExponentConfig(n, crit / 2.0, crit / 2.0)


class TestMakeBubble:
    def test_amplitude_n3(self):
        b = make_bubble(cfg_for(3), t=1.0)
        assert b.c == pytest.approx(3 ** 0.25)  # certified by residual below

    def test_amplitude_n4(self):
        b = make_bubble(cfg_for(4), t=2.0)
        assert b.c == pytest.approx(8 ** 0.5)

    def test_zero_scale_rejected(self):
        with pytest.raises(NonpositiveScale):
            make_bubble(cfg_for(3), t=0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(NonpositiveScale):
            BubbleParams(center=np.zeros(3), t=1.0, c=-1.0)

    @pytest.mark.parametrize("t", [1e155, 1e200, np.inf])
    def test_scale_whose_square_is_not_finite_rejected(self, t):
        # t ** 2 raised OverflowError at 1e155, and t = inf evaluated to NaN
        with pytest.raises(ValueError, match=re.escape(f"got t = {t}")):
            make_bubble(cfg_for(3), t=t)
        assert make_bubble(cfg_for(3), t=1e150).t == 1e150

    def test_infinite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="need a finite c, got inf"):
            BubbleParams(center=np.zeros(3), t=1.0, c=np.inf)


class TestEvalBubble:
    def test_center_value(self):
        b = make_bubble(cfg_for(3), t=1.0)
        assert eval_bubble(b, np.zeros(3)) == pytest.approx(3 ** 0.25)

    def test_unit_distance(self):
        b = make_bubble(cfg_for(3), t=1.0)
        assert eval_bubble(b, np.array([1.0, 0, 0])) == pytest.approx(
            3 ** 0.25 * 0.5 ** 0.5)

    @pytest.mark.parametrize("lead", [(), (7,), (150,), (4, 9)], ids=str)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bitwise_equal_to_axis_sum(self, n, lead):
        # random nonzero entries in every column, so a change of summation
        # order would show (sampler points have x3 = 0 and cannot tell)
        rng = np.random.default_rng(n)
        b = make_bubble(cfg_for(n), center=rng.normal(size=n), t=0.7)
        x = rng.normal(size=(*lead, n)) * 10.0 ** rng.uniform(-3, 3, size=(*lead, n))
        d2 = np.sum((np.atleast_2d(x) - b.center) ** 2, axis=-1)
        want = b.c * (b.t / (b.t ** 2 + d2)) ** ((n - 2) / 2.0)
        x0 = x.copy()
        got = eval_bubble(b, x)
        assert np.array_equal(got, want[0] if lead == () else want)
        assert x.tobytes() == x0.tobytes()  # evaluated in place, but not in x

    def test_decay_monotone(self):
        b = make_bubble(cfg_for(3), t=1.0)
        r = np.geomspace(0.01, 1e6, 200)
        vals = eval_bubble_radial(b, r)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-5

    def test_scaling_family_closure(self):
        # phi_{0,t}(x) = s^{(n-2)/2} phi_{0,st}(sx), exact algebraically
        b1 = make_bubble(cfg_for(3), t=1.0)
        for s in (0.25, 2.0, 10.0):
            bs = make_bubble(cfg_for(3), t=s * b1.t)
            x = np.array([0.3, -1.2, 0.7])
            lhs = eval_bubble(b1, x)
            rhs = s ** 0.5 * eval_bubble(bs, s * x)
            assert lhs == pytest.approx(rhs, rel=1e-15)


class TestBubbleResidual:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 10.0])
    def test_correct_constant_small_residual(self, n, t, grid):
        cfg = cfg_for(n)
        assert bubble_residual(make_bubble(cfg, t=t), cfg, grid) <= 1e-6

    def test_doubled_constant_detected(self, grid):
        cfg = cfg_for(3)
        good = make_bubble(cfg, t=1.0)
        bad = BubbleParams(center=good.center, t=good.t, c=2.0 * good.c)
        assert bubble_residual(bad, cfg, grid) >= 0.1

    def test_requires_origin_center(self, grid):
        cfg = cfg_for(3)
        b = make_bubble(cfg, center=(1.0, 0, 0), t=1.0)
        with pytest.raises(ValueError):
            bubble_residual(b, cfg, grid)


class TestPairProperty:
    @pytest.mark.parametrize("n,alpha,beta", [(3, 2, 3), (4, 1, 2), (5, 1, 4 / 3)])
    def test_pair_solves_both_equations(self, n, alpha, beta, grid):
        cfg = ExponentConfig(n, alpha, beta)
        ru, rv = pair_residual(make_bubble(cfg, t=1.0), cfg, grid)
        assert ru <= 1e-6 and rv <= 1e-6
