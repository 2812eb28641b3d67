"""The exact bubble family phi_{x0,t}: ground truth for every other module.

phi_{x0,t}(x) = c * (t / (t^2 + |x - x0|^2))^((n-2)/2) with
c = [n(n-2)]^((n-2)/4) solves -Laplace(u) = u^((n+2)/(n-2)) on R^n, and the
pair (phi, phi) solves the coupled system for any critical (alpha, beta).
"""
from __future__ import annotations

import math
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
        # every evaluation forms t^2; t * t overflows to inf where t ** 2 would raise
        if not math.isfinite(self.t * self.t):
            raise ValueError(f"need a finite t whose square is finite, got t = {self.t}")
        if not math.isfinite(self.c):
            raise ValueError(f"need a finite c, got {self.c}")

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
    # a left fold over the columns, bitwise np.sum(..., axis=-1) for n < 8, in
    # one output array and one temporary (out= keeps a single point a 0-d array)
    val = np.subtract(x[..., 0], params.center[0], out=np.empty(x.shape[:-1]))
    np.square(val, out=val)
    tmp = np.empty_like(val)
    for i in range(1, params.n):
        np.subtract(x[..., i], params.center[i], out=tmp)
        np.square(tmp, out=tmp)
        val += tmp
    val += params.t ** 2
    np.divide(params.t, val, out=val)
    val **= (params.n - 2) / 2.0  # ** keeps numpy's sqrt path at n = 3
    val *= params.c
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


def bubble_residual(params: BubbleParams, config: ExponentConfig,
                    grid: RadialGrid) -> float:
    """Max FD residual |-Laplace(phi) - phi^alpha phi^beta| of the pair (phi, phi).

    Both equations read alike at u = v = phi, so one residual checks the
    pair; a small value certifies the amplitude constant.  Needs an
    origin-centered bubble, and r0 <= t/10, 10 t <= rmax (GridTooCoarse).
    Nodes whose FD roundoff eps*|phi|/h^2 exceeds the budget (near the
    origin, where geometric spacing shrinks fast) are excluded.
    """
    if np.any(params.center != 0.0):
        raise ValueError("residual check requires an origin-centered bubble")
    if not (grid.r0 <= params.t / 10.0 and 10.0 * params.t <= grid.rmax):
        raise GridTooCoarse(
            f"grid [{grid.r0:g}, {grid.rmax:g}] does not span the bubble's transition "
            f"[t/10, 10t] for t = {params.t:g}")
    phi = eval_bubble_radial(params, grid.nodes)
    residual = np.abs(-radial_laplacian(phi, grid, config.n) - config.forcing(phi, phi)[0])
    trusted = 16.0 * _EPS * np.abs(phi) / np.gradient(grid.nodes) ** 2 < _ROUNDOFF_BUDGET
    trusted[:3] = trusted[-3:] = False  # one-sided stencils excluded
    if np.count_nonzero(trusted) < 50:
        raise GridTooCoarse("too few trustworthy nodes for the residual check")
    return float(np.max(residual[trusted]))
