"""The exact bubble family phi_{x0,t}: ground truth for every other module.

phi_{x0,t}(x) = c * (t / (t^2 + |x - x0|^2))^((n-2)/2) with
c = [n(n-2)]^((n-2)/4) solves -Laplace(u) = u^((n+2)/(n-2)) on R^n, and the
pair (phi, phi) solves the coupled system for any critical (alpha, beta).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExponentConfig, RadialGrid, RadialProfilePair, radial_laplacian
from .errors import GridTooCoarse, NonpositiveScale

# residual nodes where FD roundoff could exceed this are excluded
_ROUNDOFF_BUDGET = 5e-8
_EPS = np.finfo(float).eps


def amplitude_constant(n: int) -> float:
    """Normalization making -Laplace(phi) = phi^((n+2)/(n-2)) exact."""
    return (n * (n - 2.0)) ** ((n - 2.0) / 4.0)


@dataclass(frozen=True)
class BubbleParams:
    """Center, scale and amplitude of one member of the bubble family."""

    center: np.ndarray
    t: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if not self.t > 0.0:
            raise NonpositiveScale(f"need t > 0, got {self.t}")
        if not self.c > 0.0:
            raise NonpositiveScale(f"need c > 0, got {self.c}")

    @property
    def n(self) -> int:
        return len(self.center)


def make_bubble(config: ExponentConfig, center=None, t: float = 1.0) -> BubbleParams:
    """Bubble parameters at the given center and scale."""
    if center is None:
        center = np.zeros(config.n)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if len(center) != config.n:
        raise ValueError(f"center must have {config.n} components")
    return BubbleParams(center=center, t=float(t), c=amplitude_constant(config.n))


def eval_bubble(params: BubbleParams, x) -> np.ndarray | float:
    """phi_{x0,t} at one point or an array of points of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    # a left fold over the columns: bitwise np.sum(..., axis=-1) for n < 8, 4x faster
    d2 = sum((x[..., i] - c) ** 2 for i, c in enumerate(params.center))
    val = params.c * (params.t / (params.t ** 2 + d2)) ** ((params.n - 2) / 2.0)
    return float(val) if x.ndim == 1 else val


def eval_bubble_radial(params: BubbleParams, r) -> np.ndarray:
    """phi as a function of the distance r from its center."""
    r = np.asarray(r, dtype=float)
    n = params.n
    return params.c * (params.t / (params.t ** 2 + r ** 2)) ** ((n - 2) / 2.0)


def bubble_profile(params: BubbleParams, grid: RadialGrid) -> RadialProfilePair:
    """The pair (u, v) = (phi, phi) with its exact derivative on the grid."""
    r = grid.nodes
    phi = eval_bubble_radial(params, r)
    dphi = -(params.n - 2.0) * phi * r / (params.t ** 2 + r ** 2)
    return RadialProfilePair(grid, phi, phi, dphi, dphi)


def bubble_field(params: BubbleParams):
    """Vectorized callable point -> phi(point), for the moving-plane scans."""
    return lambda pts: eval_bubble(params, np.atleast_2d(pts))


def _trusted_residual(phi: np.ndarray, lap: np.ndarray, rhs: np.ndarray,
                      grid: RadialGrid) -> float:
    """Max |(-lap) - rhs| on nodes where the FD Laplacian ``lap`` of phi is trustworthy.

    Near the origin the geometric spacing shrinks so fast that second
    differences of phi are pure cancellation noise; nodes whose estimated
    roundoff eps*|phi|/h^2 exceeds the budget are excluded.
    """
    residual = np.abs(-lap - rhs)
    h = np.gradient(grid.nodes)
    roundoff = 16.0 * _EPS * np.abs(phi) / h ** 2
    trusted = roundoff < _ROUNDOFF_BUDGET
    trusted[:3] = trusted[-3:] = False  # one-sided stencils excluded
    if np.count_nonzero(trusted) < 50:
        raise GridTooCoarse("too few trustworthy nodes for the residual check")
    return float(np.max(residual[trusted]))


def bubble_residual(params: BubbleParams, config: ExponentConfig,
                    grid: RadialGrid) -> float:
    """Finite-difference residual of -Laplace(phi) = phi^((n+2)/(n-2)).

    Requires a bubble centered at the origin; a small value certifies the
    amplitude constant.
    """
    if np.any(params.center != 0.0):
        raise ValueError("residual check requires an origin-centered bubble")
    phi = eval_bubble_radial(params, grid.nodes)
    lap = radial_laplacian(phi, grid, config.n)
    return _trusted_residual(phi, lap, phi ** config.critical_sum, grid)


def pair_residual(params: BubbleParams, config: ExponentConfig,
                  grid: RadialGrid) -> tuple[float, float]:
    """Residuals of both system equations for the pair (u, v) = (phi, phi).

    Since phi^alpha * phi^beta = phi^((n+2)/(n-2)), both must be small.
    """
    if np.any(params.center != 0.0):
        raise ValueError("residual check requires an origin-centered bubble")
    phi = eval_bubble_radial(params, grid.nodes)
    lap = radial_laplacian(phi, grid, config.n)  # shared by both equations
    rhs_u = phi ** config.alpha * phi ** config.beta
    rhs_v = phi ** config.beta * phi ** config.alpha
    return (_trusted_residual(phi, lap, rhs_u, grid),
            _trusted_residual(phi, lap, rhs_v, grid))
