"""Shooting's zero radius against mpmath reference shots (tests/mp_reference.py)."""
import mpmath
import pytest

from critsys.core import ExponentConfig
from critsys.shooting import Kind, ShootInput, classify
from mp_reference import DPS, R0, zero_radius

# (config, start): (failing component, zero radius), from mp_reference.py at dps 25, r0 1e-8
PINNED = {((3, 2, 3), (1.0, 2.0)): ("u", "1.8614338852992259053")}
AT_R_RTOL = 1e-10  # the default grid's cubic-Hermite at_r reads 5.0e-11 here


def exponents(config) -> ExponentConfig:
    n, alpha, beta = config
    return ExponentConfig(n, float(alpha), float(beta))


def test_the_pin_comes_from_the_method():
    # one live recompute, about 2 s: the same digits from odefun and findroot
    (config, start), (which, pin) = next(iter(PINNED.items()))
    near = classify(ShootInput(exponents(config), *start)).at_r
    got_which, got = zero_radius(config, start, near)
    assert (DPS, R0) == (25, "1e-8")
    assert got_which == which
    assert mpmath.nstr(got, 20) == pin


@pytest.mark.parametrize("config, start", list(PINNED), ids=str)
def test_at_r_matches_the_reference(config, start):
    which, pin = PINNED[config, start]
    cfg = exponents(config)
    pin = float(pin)
    for (u0, v0), failing in ((start, which), (start[::-1], {"u": "v", "v": "u"}[which])):
        # the swapped start solves the same system with u and v exchanged: it fails in
        # the other component, at the same radius
        out = classify(ShootInput(cfg, u0, v0))
        assert out.kind is Kind.POSITIVITY_FAILURE and out.which == failing
        assert abs(out.at_r - pin) <= AT_R_RTOL * pin
