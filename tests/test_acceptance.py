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


def record_stream(monkeypatch):
    """Route shooting's values_stream through a recorder; returns (inputs, collected u and v)."""
    streams, stream = [], sh.values_stream

    def recording(inputs, grid=None):
        blocks = []
        for r, uv in stream(inputs, grid):
            blocks.append(uv.copy())
            yield r, uv
        streams.append((inputs, np.concatenate(blocks, axis=2)))

    monkeypatch.setattr(sh, "values_stream", recording)
    return streams


def test_property_suite_batches_match_single_shots(monkeypatch):
    streams = record_stream(monkeypatch)
    solves, steps = [], sh._steps

    def counting(*args, **kwargs):
        solves.append(1)
        return steps(*args, **kwargs)

    monkeypatch.setattr(sh, "_steps", counting)
    assert acceptance.check_property_suites() == (True, "no violations")
    # the draws a, the swapped draws b and the equal starts c: one solve of 300 columns
    assert len(solves) == 1
    [(inputs, (us, vs))] = streams
    starts = [(inp.u0, inp.v0) for inp in inputs]
    assert len(starts) == 300
    assert starts[100:200] == [(v0, u0) for u0, v0 in starts[:100]]
    assert starts[200:] == [(u0, u0) for u0, _ in starts[:100]]
    # in one solve, a and b take the same steps: the swap gap is exactly zero
    assert us[:100].tobytes() == vs[100:200].tobytes()
    assert vs[:100].tobytes() == us[100:200].tobytes()
    monkeypatch.undo()
    for j in range(0, len(inputs), 10):
        ref = sh.integrate_radial(inputs[j])
        for g, r in ((us[j], ref.u), (vs[j], ref.v)):
            assert np.max(np.abs(g - r)) <= 1e-8 * np.max(np.abs(r))
            assert np.array_equal(g == 0.0, r == 0.0)


def plant_violation(monkeypatch, columns: slice, du: float, dv: float, block=None):
    """Offset u and v in some columns of every block (or of one) of the property suite's stream.

    Returns the list of planted block indices, filled in as the stream runs.
    """
    stream = sh.values_stream
    planted_blocks = []

    def planted(inputs, grid=None):
        for i, (r, uv) in enumerate(stream(inputs, grid)):
            if block is None or i == block:
                uv[0, columns] += du
                uv[1, columns] += dv
                planted_blocks.append(i)
            yield r, uv

    monkeypatch.setattr(sh, "values_stream", planted)
    return planted_blocks


def test_property_suite_catches_planted_swap_violation(monkeypatch):
    # the swapped (b) columns: v off by 1e-6
    plant_violation(monkeypatch, slice(100, 200), 0.0, 1e-6)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_compares_the_draw_columns(monkeypatch):
    # the draws (a): u off by 1e-6
    plant_violation(monkeypatch, slice(None, 100), 1e-6, 0.0)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "swap-antisymmetry" in detail
    assert "equal-start-collapse" not in detail


def test_property_suite_catches_planted_equal_start_violation(monkeypatch):
    # the equal-start (c) columns: u off by 1e-9, above the 1e-10 collapse tolerance
    # and below the 1e-7 swap tolerance
    plant_violation(monkeypatch, slice(200, None), 1e-9, 0.0)
    ok, detail = acceptance.check_property_suites()
    assert not ok and "equal-start-collapse" in detail
    assert "swap-antisymmetry" not in detail


@pytest.mark.parametrize("columns, dv, failed", [
    (slice(100, 200), np.nan, "swap-antisymmetry"),  # one block of the swapped (b) columns
    (slice(200, None), 0.0, "equal-start-collapse"),  # the equal-start (c) columns
], ids=["swap", "collapse"])
def test_property_suite_fails_a_nan_sample(monkeypatch, columns, dv, failed):
    # a NaN gap never compares greater than a tolerance; it must still fail the suite,
    # planted in one block only (a running max that drops NaN would pass)
    planted = plant_violation(monkeypatch, columns, np.nan, dv, block=1)
    ok, detail = acceptance.check_property_suites()
    assert planted == [1]
    assert not ok and detail == f"failed: {[failed]}"


def test_property_suite_holds_under_two_sample_blocks():
    # one (4, 100, 4000) float64 block of samples is 12.8 MB.  The suite streams its
    # one solve of 300 columns and keeps only each column's largest gaps, so its peak,
    # the first step's dense output (2 x 300 rows over about 1450 nodes) and the
    # zero fill of that block, stays under one such block
    block = 4 * 100 * 4000 * 8
    tracemalloc.start()
    try:
        assert acceptance.check_property_suites() == (True, "no violations")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block, f"peak {peak / 1e6:.1f} MB"
