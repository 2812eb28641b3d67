"""Reflections, exceedance sets, and L^p estimates for plane scans.

Verifies the symmetry apparatus on known solutions: for a field radial about
a point P and a plane through P the exceedance set is empty, and the critical
plane position recovered by a scan sits at the center coordinate.

All test fields are radial about a point on the x1 axis, so the full scan
runs on an exact axisymmetric 2D reduction in coordinates (x1, rho).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bubble import eval_bubble, eval_bubble_radial
from .core import ExponentConfig, unit_sphere_area
from .errors import BudgetExceeded, ScanInconclusive

SAMPLER_BUDGET = 4_000_000  # most sampler nodes m^2 (the CLI's --m is external input)


def _e1(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


@dataclass(frozen=True)
class PlaneParam:
    """Hyperplane x . direction = lam (default direction e1)."""

    lam: float
    direction: np.ndarray | None = None
    n: int = 3

    def __post_init__(self):
        d = _e1(self.n) if self.direction is None else np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(d)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "n", len(d))

    @property
    def is_axis_aligned(self) -> bool:
        return bool(np.allclose(self.direction, _e1(self.n)))


def reflect(x, plane: PlaneParam) -> np.ndarray:
    """Mirror image across the hyperplane; an exact involution."""
    x = np.asarray(x, dtype=float)
    proj = x @ plane.direction
    return x + np.multiply.outer(2.0 * (plane.lam - proj), plane.direction)


@dataclass(frozen=True)
class CartesianSampler:
    """Axisymmetric midpoint sampler on [-L, L] x [0, L] in (x1, rho).

    Each node carries the volume of its cell of revolution, so sums of
    weights are grid measures in R^n.
    """

    L: float
    m: int
    n: int = 3

    def __post_init__(self):
        if self.m < 8:
            raise ValueError("need m >= 8 nodes per axis")
        if self.m * self.m > SAMPLER_BUDGET:
            raise BudgetExceeded(
                f"m^2 = {self.m * self.m} exceeds node budget {SAMPLER_BUDGET}")

    @property
    def cell(self) -> float:
        return 2.0 * self.L / self.m

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(points (N, n), weights (N,)) for the axisymmetric slice."""
        dx = 2.0 * self.L / self.m
        drho = self.L / self.m
        x1 = -self.L + (np.arange(self.m) + 0.5) * dx
        rho = (np.arange(self.m) + 0.5) * drho
        X1, RHO = np.meshgrid(x1, rho, indexing="ij")
        pts = np.zeros((self.m * self.m, self.n))
        pts[:, 0] = X1.ravel()
        pts[:, 1] = RHO.ravel()
        # ring volume: omega_{n-2} rho^{n-2} drho dx1
        ring = unit_sphere_area(self.n - 1) * RHO.ravel() ** (self.n - 2)
        return pts, ring * dx * drho


def _half_space(pts: np.ndarray, plane: PlaneParam) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the sampler nodes in H_lam = {x1 < lam} and their mirror images."""
    if not plane.is_axis_aligned:
        raise ValueError("the sampler fast path requires direction e1")
    half = pts[:, 0] < plane.lam
    return half, reflect(pts[half], plane)


def exceedance_sets(field, plane: PlaneParam, sampler: CartesianSampler):
    """Grid measure and member nodes of {x in H_lam : field(x_lam) > field(x)}.

    Membership uses the strict inequality; ties are excluded.
    """
    pts, w = sampler.nodes()
    half, refl = _half_space(pts, plane)
    pts_h = pts[half]
    exceeds = field(refl) > field(pts_h)
    measure = float(np.sum(w[half][exceeds]))
    return measure, pts_h[exceeds]


@dataclass(frozen=True)
class ReflectionReport:
    """Exceedance-set measures, L^p norms, and estimate margins at one plane."""

    lam: float
    Bu_measure: float
    Bv_measure: float
    norms: dict
    inequality_margins: dict


def _lp_on_set(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.sum(weights * np.abs(values) ** p) ** (1.0 / p))


def reflection_inequality_check(u_field, v_field, plane: PlaneParam,
                                config: ExponentConfig,
                                sampler: CartesianSampler) -> ReflectionReport:
    """Every norm in the two-set L^p estimates, by grid quadrature.

    Reports |u_lam - u|_{p,Bu}, |v_lam - v|_{p,Bv} and the smallness factors
    |u_lam|, |v_lam| restricted to both sets, with p = 2n/(n-2).  Empty sets
    give exactly zero norms (the estimates hold vacuously).
    """
    n = config.n
    p = 2.0 * n / (n - 2.0)
    pts, w = sampler.nodes()
    half, refl = _half_space(pts, plane)
    w_h = w[half]

    u_all, v_all = u_field(pts), v_field(pts)
    u, v = u_all[half], v_all[half]
    ul, vl = u_field(refl), v_field(refl)
    bu = ul > u
    bv = vl > v

    norms = {
        "u_lam-u_p_Bu": _lp_on_set((ul - u)[bu], w_h[bu], p),
        "v_lam-v_p_Bv": _lp_on_set((vl - v)[bv], w_h[bv], p),
        "u_lam_p_Bu": _lp_on_set(ul[bu], w_h[bu], p),
        "v_lam_p_Bu": _lp_on_set(vl[bu], w_h[bu], p),
        "u_lam_p_Bv": _lp_on_set(ul[bv], w_h[bv], p),
        "v_lam_p_Bv": _lp_on_set(vl[bv], w_h[bv], p),
        "u_p_global": _lp_on_set(u_all, w, p),
        "v_p_global": _lp_on_set(v_all, w, p),
    }
    # smallness factors multiplying the difference norms in the estimates
    margins = {
        "factor_u": norms["u_lam_p_Bu"] ** (config.alpha - 1.0)
        * norms["v_lam_p_Bu"] ** config.beta,
        "factor_v": norms["v_lam_p_Bv"] ** (config.alpha - 1.0)
        * norms["u_lam_p_Bv"] ** config.beta,
    }
    return ReflectionReport(
        lam=plane.lam,
        Bu_measure=float(np.sum(w_h[bu])),
        Bv_measure=float(np.sum(w_h[bv])),
        norms=norms,
        inequality_margins=margins,
    )


@dataclass(frozen=True)
class ScanResult:
    lambda0: float
    degenerate: bool = False


def critical_plane_scan(u_field, v_field, sampler: CartesianSampler,
                        lambdas) -> ScanResult:
    """Smallest swept lam with empty B_u and B_v at every lam' >= lam.

    For bubbles centered at c1*e1 the answer is the larger c1 up to one grid
    cell.  Non-monotone emptiness across the sweep raises ScanInconclusive.
    """
    lambdas = np.sort(np.asarray(lambdas, dtype=float))
    pts, _ = sampler.nodes()
    u_all, v_all = u_field(pts), v_field(pts)
    if np.max(np.abs(u_all)) == 0.0 and np.max(np.abs(v_all)) == 0.0:
        warnings.warn("both fields are identically zero; every set is empty",
                      stacklevel=2)
        return ScanResult(float(lambdas[0]), degenerate=True)
    empty = np.empty(len(lambdas), dtype=bool)
    for i, lam in enumerate(lambdas):
        half, refl = _half_space(pts, PlaneParam(lam, n=sampler.n))
        exceeds = (u_field(refl) > u_all[half]) | (v_field(refl) > v_all[half])
        empty[i] = not exceeds.any()
    if not np.any(empty):
        raise ScanInconclusive("no swept plane has an empty exceedance set")
    # emptiness must be an up-set of the sweep
    first_empty = int(np.argmax(empty))
    if not np.all(empty[first_empty:]):
        raise ScanInconclusive(
            "set emptiness is non-monotone across the sweep (grid artifacts)")
    return ScanResult(float(lambdas[first_empty]))


def greens_reflection_identity(params, plane: PlaneParam, x,
                               config: ExponentConfig) -> tuple[float, float]:
    """Both sides of u_lam(x) - u(x) = int_{H_lam} (source diff)(kernel diff).

    The field is the bubble pair u = v = phi (closed form), so the left side
    is exact while the right side is a tensor midpoint quadrature over the
    half-space (axisymmetric reduction; x and the bubble center must lie on
    the x1 axis), ny x nrho cells on [-box, lam] x [0, box].  Kernel
    normalized as the inverse Laplacian.
    """
    if not plane.is_axis_aligned:
        raise ValueError("the quadrature fast path requires direction e1")
    x = np.asarray(x, dtype=float)
    n = config.n
    if np.max(np.abs(x[1:])) > 1e-14 or np.max(np.abs(params.center[1:])) > 1e-14:
        raise ValueError("x and the bubble center must lie on the x1 axis")
    if x[0] >= plane.lam:
        raise ValueError("x must lie in the half-space x1 < lambda")

    x_l = reflect(x, plane)
    lhs = float(eval_bubble(params, x_l) - eval_bubble(params, x))

    crit = config.critical_sum
    lam = plane.lam
    ny, nrho, box = 1200, 600, 40.0
    dy = (lam + box) / ny
    drho = box / nrho
    y1 = -box + (np.arange(ny) + 0.5) * dy
    rho = (np.arange(nrho) + 0.5) * drho
    Y1, RHO = np.meshgrid(y1, rho, indexing="ij")

    c1 = params.center[0]
    phi = eval_bubble_radial(params, np.sqrt((Y1 - c1) ** 2 + RHO ** 2))
    phi_l = eval_bubble_radial(params, np.sqrt((Y1 - (2 * lam - c1)) ** 2 + RHO ** 2))
    source = phi_l ** crit - phi ** crit

    d_x = np.sqrt((Y1 - x[0]) ** 2 + RHO ** 2)
    d_xl = np.sqrt((Y1 - x_l[0]) ** 2 + RHO ** 2)
    kernel = d_x ** (2.0 - n) - d_xl ** (2.0 - n)

    ring = unit_sphere_area(n - 1) * RHO ** (n - 2)
    norm = 1.0 / ((n - 2.0) * unit_sphere_area(n))
    rhs = norm * float(np.sum(source * kernel * ring) * dy * drho)
    return lhs, rhs
