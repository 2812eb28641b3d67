"""Shooting's zero radius against mpmath reference shots (tests/mp_reference.py)."""
from fractions import Fraction

import mpmath
import pytest

from critsys.core import ExponentConfig
from critsys.shooting import Kind, ShootInput, classify
from mp_reference import DPS, R0, zero_radius

# (config, start): (failing component, zero radius, bound on the relative error of at_r),
# from mp_reference.py at dps 25, r0 1e-8; each bound is about twice the relative error
# that the default grid's cubic-Hermite at_r reads, given after it
PINNED = {
    ((3, 2, 3), (1.0, 2.0)): ("u", "1.8614338852992259053", 1e-10),  # 5.0e-11
    ((3, 2, 3), (1.0, 1.1)): ("u", "13.6601846585672618", 1.0e-9),  # 4.9e-10
    ((4, 1, 2), (1.0, 2.0)): ("u", "2.1395475408917340639", 2.5e-8),  # 1.2e-8
    ((4, 1, 2), (1.0, 1.1)): ("u", "6.9227355738406095896", 8.0e-9),  # 4.0e-9
    ((5, 1, Fraction(4, 3)), (1.0, 2.0)): ("u", "3.3458725644860148218", 4.0e-9),  # 1.9e-9
    ((5, 1, Fraction(4, 3)), (1.0, 1.1)): ("u", "8.4120298766747132512", 6.0e-9),  # 3.0e-9
}


def exponents(config) -> ExponentConfig:
    n, alpha, beta = config
    return ExponentConfig(n, float(alpha), float(beta))


def test_the_pin_comes_from_the_method():
    # one live recompute, about 2 s: the same digits from odefun and findroot; the
    # (5, 1, 4/3) shots take 40-50 s each, so they are pinned only
    (config, start), (which, pin, _) = next(iter(PINNED.items()))
    near = classify(ShootInput(exponents(config), *start)).at_r
    got_which, got = zero_radius(config, start, near)
    assert (DPS, R0) == (25, "1e-8")
    assert got_which == which
    assert mpmath.nstr(got, 20) == pin


@pytest.mark.parametrize("config, start", list(PINNED), ids=str)
def test_at_r_matches_the_reference(config, start):
    which, pin, rtol = PINNED[config, start]
    cfg = exponents(config)
    pin = float(pin)
    for (u0, v0), failing in ((start, which), (start[::-1], {"u": "v", "v": "u"}[which])):
        # the swapped start solves the same system with u and v exchanged: it fails in
        # the other component, at the same radius
        out = classify(ShootInput(cfg, u0, v0))
        assert out.kind is Kind.POSITIVITY_FAILURE and out.which == failing
        assert abs(out.at_r - pin) <= rtol * pin
