"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import tracemalloc

import numpy as np
import pytest

from critsys import acceptance
from critsys import shooting as sh
from critsys.acceptance import ALL_CRITERIA


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
    batch, solve = sh.values_batch, sh.solve_ivp

    def recording(inputs, grid=None):
        nodes, uv = batch(inputs, grid)
        batches.append((inputs, uv))
        return nodes, uv

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sh, "values_batch", recording)
    monkeypatch.setattr(sh, "solve_ivp", counting)
    assert acceptance.check_property_suites() == (True, "no violations")
    # a with the equal starts c (200 columns), then the swapped b (100): two solves
    assert len(solves) == 2
    assert [len(inputs) for inputs, _ in batches] == [200, 100]
    monkeypatch.undo()
    for inputs, (us, vs) in batches:
        for j in range(0, len(inputs), 10):
            ref = sh.integrate_radial(inputs[j])
            for g, r in ((us[j], ref.u), (vs[j], ref.v)):
                assert np.max(np.abs(g - r)) <= 1e-8 * np.max(np.abs(r))
                assert np.array_equal(g == 0.0, r == 0.0)


def plant_violation(monkeypatch, which: int, columns: slice, du: float, dv: float):
    """Offset u and v in some columns of the which-th shooting batch of the property suite."""
    batch, calls = sh.values_batch, []

    def planted(inputs, grid=None):
        calls.append(inputs)
        nodes, uv = batch(inputs, grid)
        if len(calls) == which:
            uv[0, columns] += du
            uv[1, columns] += dv
        return nodes, uv

    monkeypatch.setattr(sh, "values_batch", planted)


def test_property_suite_catches_planted_swap_violation(monkeypatch):
    # the second, swapped (b) batch: v off by 1e-6
    plant_violation(monkeypatch, 2, slice(None), 0.0, 1e-6)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_compares_the_kept_first_batch(monkeypatch):
    # the a columns of the first batch: u off by 1e-6, seen only through the copies
    # the suite keeps
    plant_violation(monkeypatch, 1, slice(None, 100), 1e-6, 0.0)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_catches_planted_equal_start_violation(monkeypatch):
    # the equal-start columns of the first batch: u off by 1e-9, above the 1e-10
    # collapse tolerance and below the 1e-7 swap tolerance
    plant_violation(monkeypatch, 1, slice(100, None), 1e-9, 0.0)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "equal-start-collapse" in detail
    assert "swap-antisymmetry" not in detail


def test_property_suite_holds_under_two_sample_blocks():
    # one (4, 100, 4000) float64 block of samples is 12.8 MB.  The suite's first
    # solve samples u and v of 200 columns (12.8 MB) and keeps copies of a's u and
    # v (6.4 MB) while b's u and v (6.4 MB) are solved, so two such blocks must
    # never be alive
    block = 4 * 100 * 4000 * 8
    tracemalloc.start()
    try:
        assert acceptance.check_property_suites() == (True, "no violations")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block, f"peak {peak / 1e6:.1f} MB"
