"""Reflections, exceedance sets, L^p estimates and the Green's reflection identity.

Verifies the symmetry apparatus on known solutions: for a field radial about
a point P and a plane through P the exceedance set is empty, and the critical
plane position recovered by a scan sits at the center coordinate.

All test fields are radial about a point on the x1 axis, so scans and
reflection reports run on an exact axisymmetric 2D reduction in coordinates
(x1, rho), and the Green's identity on a Gauss rule in polar coordinates.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bubble import eval_bubble, eval_bubble_radial
from .core import ExponentConfig, unit_sphere_area
from .errors import BudgetExceeded, ScanInconclusive

SAMPLER_BUDGET = 4_000_000  # most sampler nodes m^2 (the CLI's --m is external input)
GREENS_NODES = 64  # Gauss-Legendre nodes per variable on each panel of the Green's rule
_GREENS_RULE = np.polynomial.legendre.leggauss(GREENS_NODES)


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
        if not self.L > 0.0:
            raise ValueError(f"need L > 0, got {self.L}")
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


def _half_space(pts: np.ndarray, plane: PlaneParam,
                last: int | None = None) -> tuple[slice, np.ndarray]:
    """Slice of the sampler nodes in H_lam = {x1 < lam} (or its ``last`` rows), mirror images.

    The sampler's nodes are x1-major, so H_lam is a prefix; a mirror image
    differs from its node only in x1, where it takes reflect's expression.
    """
    if not plane.is_axis_aligned:
        raise ValueError("the sampler fast path requires direction e1")
    end = int(np.searchsorted(pts[:, 0], plane.lam))
    half = slice(0 if last is None else max(end - last, 0), end)
    x1 = pts[half, 0]
    refl = pts[half].copy()
    refl[:, 0] = x1 + 2.0 * (plane.lam - x1)
    return half, refl


@dataclass(frozen=True)
class ReflectionReport:
    """Exceedance-set measures, L^p norms, and estimate margins at one plane."""

    lam: float
    Bu_measure: float
    Bv_measure: float
    norms: dict
    inequality_margins: dict


def _lp_on_set(values: np.ndarray, weights: np.ndarray, p: float) -> float:
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
    empty = np.zeros(len(lambdas), dtype=bool)
    for i, lam in enumerate(lambdas):
        plane = PlaneParam(lam, n=sampler.n)
        for last in (sampler.m, None):  # the node column next to the plane first
            half, refl = _half_space(pts, plane, last)
            if np.any(u_field(refl) > u_all[half]) or np.any(v_field(refl) > v_all[half]):
                break
        else:
            empty[i] = True
    if not np.any(empty):
        raise ScanInconclusive("no swept plane has an empty exceedance set")
    # emptiness must be an up-set of the sweep
    first_empty = int(np.argmax(empty))
    if not np.all(empty[first_empty:]):
        raise ScanInconclusive(
            "set emptiness is non-monotone across the sweep (grid artifacts)")
    return ScanResult(float(lambdas[first_empty]))


def _gauss(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (a, b); a may be a column of bounds."""
    s, w = _GREENS_RULE
    return 0.5 * (b - a) * s + 0.5 * (b + a), 0.5 * (b - a) * w


def greens_reflection_identity(params, plane: PlaneParam, x,
                               config: ExponentConfig) -> tuple[float, float]:
    """Both sides of u_lam(x) - u(x) = int_{H_lam} (source diff)(kernel diff).

    The field is the bubble pair u = v = phi (closed form), so the left side
    is exact.  The right side is a Gauss-Legendre rule in polar coordinates
    (R, theta) about x, theta measured from e1 (x and the bubble center must
    lie on the x1 axis).  With D = lam - x1, H_lam is every theta for R < D
    and theta > arccos(D/R) beyond.  The volume element R^(n-1) sin^(n-2)
    theta cancels the kernel's R^(2-n), so each panel is smooth: the ball
    R < D, log R beyond, and R = b/tau past the last breakpoint b.  The
    distances from x to the bubble center and to its mirror image are
    breakpoints too.  Both factors of the integrand vanish on the plane, so
    the square-root edge of arccos(D/R) at R = D enters only at order
    (R - D)^((n+3)/2) and needs no panel of its own.  Kernel normalized as
    the inverse Laplacian.
    """
    if not plane.is_axis_aligned:
        raise ValueError("the quadrature fast path requires direction e1")
    x = np.asarray(x, dtype=float)
    n = config.n
    if np.max(np.abs(x[1:])) > 1e-14 or np.max(np.abs(params.center[1:])) > 1e-14:
        raise ValueError("x and the bubble center must lie on the x1 axis")
    if x[0] >= plane.lam:
        raise ValueError("x must lie in the half-space x1 < lambda")

    lhs = float(eval_bubble(params, reflect(x, plane)) - eval_bubble(params, x))

    lam, x1, c1 = plane.lam, x[0], params.center[0]
    D = lam - x1
    mirror_c1 = 2.0 * lam - c1
    centers = [d for d in (abs(c1 - x1), abs(mirror_c1 - x1)) if d > 0.0]
    knots = np.unique([0.0, D, *centers])
    radii, weights = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= D:
            r, w = _gauss(a, b)
        else:
            s, w = _gauss(np.log(a), np.log(b))
            r, w = np.exp(s), w * np.exp(s)
        radii.append(r)
        weights.append(w)
    tau, w = _gauss(0.0, 1.0)
    radii.append(knots[-1] / tau)
    weights.append(w * knots[-1] / tau ** 2)
    R = np.concatenate(radii)[:, None]
    theta, w_theta = _gauss(np.arccos(np.minimum(D / R, 1.0)), np.pi)

    y1, rho = x1 + R * np.cos(theta), R * np.sin(theta)
    crit = config.critical_sum
    source = (eval_bubble_radial(params, np.hypot(y1 - mirror_c1, rho)) ** crit
              - eval_bubble_radial(params, np.hypot(y1 - c1, rho)) ** crit)
    # R^(n-1) (R^(2-n) - |x_lam - y|^(2-n)) with |x_lam - y|^2 = R^2 (1 + q)
    q = 4.0 * D * (lam - y1) / R ** 2
    kernel = -R * np.expm1((2.0 - n) / 2.0 * np.log1p(q))
    ring = unit_sphere_area(n - 1) * np.sin(theta) ** (n - 2)
    total = np.sum(np.concatenate(weights)[:, None] * w_theta * source * kernel * ring)
    return lhs, float(total) / ((n - 2.0) * unit_sphere_area(n))
