"""Numerical knobs that no caller set are module constants, not parameters."""
import numpy as np
import pytest

import critsys
from critsys import acceptance, core, errors, moving_plane, potential, shooting
from critsys.bubble import make_bubble
from critsys.core import ExponentConfig, RadialGrid, radial_laplacian
from critsys.moving_plane import CartesianSampler, PlaneParam, greens_reflection_identity
from critsys.potential import newton_potential_radial, picard_iterate
from critsys.shooting import ShootInput, sweep_consistent

CFG = ExponentConfig(3, 2.0, 3.0)
GRID = RadialGrid.geometric(num=200)
F = np.exp(-GRID.nodes)


@pytest.mark.parametrize("call", [
    lambda: radial_laplacian(F, GRID, 3, stencil=5),
    lambda: newton_potential_radial(F, GRID, 3, tail_power=4.0),
    lambda: sweep_consistent([], [], window=0.1),
    lambda: CartesianSampler(L=10.0, m=64, budget=10),
    lambda: greens_reflection_identity(make_bubble(CFG, center=(1.0, 0, 0)), PlaneParam(0.0),
                                       np.array([-1.0, 0, 0]), CFG, ny=10),
    lambda: ShootInput(CFG, 1.0, 1.0, atol=1e-8),
    lambda: core.lp_norm_radial(F, GRID, 2.0, 3, check_tol=1e-8),
    lambda: picard_iterate(None, CFG, callback=print),
    lambda: shooting.solve_ivp(lambda t, y, out: np.negative(y, out=out), (0.0, 1.0),
                               np.ones(2), t_eval=[0.0, 1.0], rtol=1e-6, atol=1e-6,
                               sample_rows=1),
    lambda: PlaneParam(0.0, np.eye(3)[0]),
], ids=["stencil", "tail_power", "window", "budget", "ny", "atol", "check_tol", "callback",
        "sample_rows", "direction"])
def test_removed_parameter_is_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_removed_names_are_gone():
    assert not hasattr(core, "LpNorm")
    assert not hasattr(critsys, "LpNorm")
    assert not hasattr(errors, "QuadratureBudgetExceeded")
    assert not hasattr(errors, "ToleranceNotMet")
    assert not hasattr(RadialGrid, "coarsened")
    assert not hasattr(PlaneParam, "is_axis_aligned")
    assert isinstance(core.lp_norm_radial(F, GRID, 2.0, 3), float)


@pytest.mark.parametrize("module, name", [
    (moving_plane, "exceedance_sets"),
    (potential, "apply_hls_operator"),
    (potential, "verify_hls_operator_bound"),
    (potential, "PicardState"),
    (core, "validate_config"),
    (shooting, "values_stream"),
    (shooting, "_brentq"),
    (shooting, "ordering_term"),
    (shooting, "SweepRow"),
    (acceptance, "_sweep_rows"),
    (moving_plane, "_e1"),
])
def test_deleted_function_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(critsys, name)
