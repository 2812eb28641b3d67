"""Domain types checked on construction, radial grids, and norm utilities.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across workers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalityViolated,
    DimensionTooSmall,
    ExponentOutOfRange,
    GridTooCoarse,
    InfeasibleHypothesis,
)

CRITICALITY_TOL = 1e-12

# default geometric grid (decades of scale are needed because bound states
# decay like r^-(n-2))
DEFAULT_R0 = 1e-6
DEFAULT_RMAX = 1e4
DEFAULT_NODES = 4000

FD_STENCIL = 5  # nodes per finite-difference stencil


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class ExponentConfig:
    """Dimension and nonlinearity exponents, constrained to the critical sum.

    ``uniqueness_applicable`` is true exactly when alpha < beta, the regime
    in which the off-diagonal shooting sweep is meaningful.
    """

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        """Raise DimensionTooSmall, ExponentOutOfRange, InfeasibleHypothesis or
        CriticalityViolated (each check fails on NaN); warn for n >= 6, where
        criticality leaves only alpha = beta.
        """
        n, alpha, beta = int(self.n), float(self.alpha), float(self.beta)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if n < 3:
            raise DimensionTooSmall(f"need n >= 3, got n = {n}")
        if not (alpha >= 1.0 and beta >= 1.0):
            raise ExponentOutOfRange(f"need alpha, beta >= 1, got ({alpha}, {beta})")
        crit = self.critical_sum
        if alpha < beta and 2.0 * alpha >= crit - CRITICALITY_TOL:
            # alpha < beta forces alpha + beta > 2*alpha >= critical sum
            raise InfeasibleHypothesis(f"alpha < beta is impossible at n = {n}: 2*alpha = "
                                       f"{2 * alpha} >= (n+2)/(n-2) = {crit}")
        if not abs(alpha + beta - crit) <= CRITICALITY_TOL:
            raise CriticalityViolated(
                f"alpha + beta = {alpha + beta} must equal (n+2)/(n-2) = {crit}")
        if n >= 6:  # stacklevel 3: past __post_init__ and __init__, at the caller
            warnings.warn(f"n = {n} admits only alpha = beta = {crit / 2}; the ordered "
                          "uniqueness experiments do not apply", stacklevel=3)

    @property
    def critical_sum(self) -> float:
        return (self.n + 2.0) / (self.n - 2.0)

    @property
    def uniqueness_applicable(self) -> bool:
        return self.alpha < self.beta


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive finite radii."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise GridTooCoarse("grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)) or nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be finite, positive and strictly increasing")
        if nodes[0] > 1e-4:
            raise ValueError(f"first node must be <= 1e-4, got {nodes[0]}")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def r0(self) -> float:
        return float(self.nodes[0])

    @property
    def rmax(self) -> float:
        return float(self.nodes[-1])

    @property
    def log_step(self) -> float | None:
        """The ratio q of r_i = r0 q^i, or None when a node ratio is off q by 1e-12 relative."""
        q = (self.rmax / self.r0) ** (1.0 / (len(self) - 1))
        return q if np.max(np.abs(self.nodes[1:] / self.nodes[:-1] / q - 1.0)) <= 1e-12 else None

    @classmethod
    def geometric(cls, r0: float = DEFAULT_R0, rmax: float = DEFAULT_RMAX,
                  num: int = DEFAULT_NODES) -> "RadialGrid":
        return cls(np.geomspace(r0, rmax, num))

    @classmethod
    def default(cls) -> "RadialGrid":
        return cls.geometric()

    def refined(self) -> "RadialGrid":
        """Geometric midpoints inserted between all node pairs."""
        mids = np.sqrt(self.nodes[:-1] * self.nodes[1:])
        merged = np.sort(np.concatenate([self.nodes, mids]))
        return RadialGrid(merged)


@dataclass(frozen=True)
class RadialProfilePair:
    """Sampled (u, v) pair on a radial grid with derivative data."""

    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        for name in ("u", "v", "du", "dv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.grid.nodes.shape:
                raise ValueError(f"{name} must match grid length {len(self.grid)}")
        if np.any(self.u < -1e-12) or np.any(self.v < -1e-12):
            raise ValueError("profile samples must be nonnegative")
        # loose guard for u'(0) = v'(0) = 0: the slope at r0 must be O(r0).
        # alpha + beta = (n+2)/(n-2) <= 5 for n >= 3, so (1+u0+v0)^5 bounds
        # the forcing u0^alpha v0^beta that sets the slope
        r0 = self.grid.r0
        scale = (1.0 + self.u[0] + self.v[0]) ** 5
        bound = 100.0 * r0 * scale
        if abs(self.du[0]) > bound or abs(self.dv[0]) > bound:
            raise ValueError(
                "derivative at first node inconsistent with a regular origin"
            )


def lp_norm_radial(profile: np.ndarray, grid: RadialGrid, p: float, n: int) -> float:
    """L^p norm of a radial function sampled on the grid.

    Composite trapezoid of |f|^p * omega_{n-1} * r^{n-1}.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    f = np.abs(np.asarray(profile, dtype=float))
    integrand = f ** p * grid.nodes ** (n - 1)
    integral = unit_sphere_area(n) * float(np.trapezoid(integrand, grid.nodes))
    return integral ** (1.0 / p)


def radial_derivatives(samples: np.ndarray,
                       grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of grid samples via local FD stencils.

    Interior nodes get centered stencils of FD_STENCIL nodes; stencils are
    shifted one-sidedly near the boundaries.  The weights are the closed-form
    Lagrange weights of each node's own offsets x_j = r_j - r_i (Fornberg,
    Math. Comp. 1988), exact for local polynomials of degree < FD_STENCIL.
    They act on the differences f_j - f_i, so the node's own weight (minus
    the sum of the others) is never formed.
    """
    r = grid.nodes
    samples = np.asarray(samples, dtype=float)
    k = len(r)
    if k < FD_STENCIL:
        raise GridTooCoarse(f"grid has {k} nodes, stencil needs {FD_STENCIL}")
    half = FD_STENCIL // 2
    lo = np.clip(np.arange(k) - half, 0, k - FD_STENCIL)
    # nb[j, i] is the j-th of the FD_STENCIL - 1 stencil neighbours of node i
    slots = np.array([[m for m in range(FD_STENCIL) if m != p] for p in range(FD_STENCIL)])
    nb = lo + slots[np.arange(k) - lo].T
    x = r[nb] - r
    df = samples[nb] - samples
    d1 = np.zeros(k)
    d2 = np.zeros(k)
    for j in range(FD_STENCIL - 1):
        # the other offsets of the stencil are 0 (the node itself) and a, b, c:
        # L_j(x) = x (x-a)(x-b)(x-c) / den, L_j'(0) = -abc / den,
        # L_j''(0) = 2 (ab + ac + bc) / den
        a, b, c = (x[m] for m in range(FD_STENCIL - 1) if m != j)
        xj = x[j]
        den = xj * (xj - a) * (xj - b) * (xj - c)
        ab = a * b
        d1 -= ab * c / den * df[j]
        d2 += 2.0 * (ab + (a + b) * c) / den * df[j]
    return d1, d2


def radial_laplacian(samples: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """u'' + (n-1) u'/r computed by finite differences on the grid."""
    d1, d2 = radial_derivatives(samples, grid)
    return d2 + (n - 1) * d1 / grid.nodes
