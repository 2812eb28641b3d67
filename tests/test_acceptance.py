"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import tracemalloc

import numpy as np
import pytest

from critsys import acceptance
from critsys import shooting as sh
from critsys.acceptance import ALL_CRITERIA
from critsys.core import RadialProfilePair


@pytest.mark.parametrize("name,check", ALL_CRITERIA,
                         ids=[name for name, _ in ALL_CRITERIA])
def test_criterion(name, check, capsys):
    ok, detail = check()
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_property_suite_batches_match_single_shots(monkeypatch):
    batches = []
    solves = []
    batch, solve = sh.integrate_radial_batch, sh.solve_ivp

    def recording(inputs, grid=None):
        batches.append((inputs, batch(inputs, grid)))
        return batches[-1][1]

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sh, "integrate_radial_batch", recording)
    monkeypatch.setattr(sh, "solve_ivp", counting)
    assert acceptance.check_property_suites() == (True, "no violations")
    # a, b (swapped) and c (equal start): three solves of 100 columns each
    assert len(solves) == 3
    assert [len(inputs) for inputs, _ in batches] == [100, 100, 100]
    monkeypatch.undo()
    for inputs, profiles in batches:
        for j in range(0, 100, 10):
            ref = sh.integrate_radial(inputs[j])
            got = profiles[j]
            for g, r in ((got.u, ref.u), (got.v, ref.v)):
                assert np.max(np.abs(g - r)) <= 1e-8 * np.max(np.abs(r))
                assert np.array_equal(g == 0.0, r == 0.0)


def plant_swap_violation(monkeypatch, which: int, du: float, dv: float):
    """Offset u and v of the which-th shooting batch of the property suite."""
    batch, calls = sh.integrate_radial_batch, []

    def planted(inputs, grid=None):
        calls.append(inputs)
        profiles = batch(inputs, grid)
        if len(calls) != which:
            return profiles
        return [RadialProfilePair(p.grid, p.u + du, p.v + dv, p.du, p.dv) for p in profiles]

    monkeypatch.setattr(sh, "integrate_radial_batch", planted)


def test_property_suite_catches_planted_swap_violation(monkeypatch):
    # the second, swapped (b) batch: v off by 1e-6
    plant_swap_violation(monkeypatch, 2, 0.0, 1e-6)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_compares_the_kept_first_batch(monkeypatch):
    # the first (a) batch: u off by 1e-6, seen only through the copies the suite keeps
    plant_swap_violation(monkeypatch, 1, 1e-6, 0.0)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_holds_under_two_sample_blocks():
    # one (4, 100, 4000) float64 block of samples is 12.8 MB; the suite keeps a's u
    # and v (6.4 MB) while b is solved, so two whole blocks must never be alive
    block = 4 * 100 * 4000 * 8
    tracemalloc.start()
    try:
        assert acceptance.check_property_suites() == (True, "no violations")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block, f"peak {peak / 1e6:.1f} MB"
