"""Reflections, exceedance sets, L^p estimates and the Green's reflection identity.

Verifies the symmetry apparatus on known solutions: for a field radial about
a point P and a plane through P the exceedance set is empty, and the critical
plane position recovered by a scan sits at the center coordinate.

All test fields are radial about a point on the x1 axis, so scans and
reflection reports run on an exact axisymmetric 2D reduction in coordinates
(x1, rho), and the Green's identity on a Gauss rule in polar coordinates.
The sampler's points are an (n, N) buffer viewed as (N, n), so a field reads
each coordinate as one contiguous column, and x1-major: each of the m node
columns has one x1, so H_lam is whole columns.  Fields must be pure functions
of the points: when one callable is passed as both u and v, it is evaluated
once per point set (the sampler, each probe, each half-space) and its values
serve for v too.  Once u and v are known on the nodes, the scan and the
reflection check write the mirror images into the nodes' x1 row, one x1 per
column (_NodeColumns), so a field must not keep, or return a view of, the
points it is given, the sampler nodes included.  (A returned view is copied
before the row is rewritten.)
"""
from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .bubble import eval_bubble, eval_bubble_radial
from .core import ExponentConfig, as_dimension, unit_sphere_area
from .errors import BudgetExceeded, QuadratureUnresolved, ScanInconclusive

SAMPLER_BUDGET = 4_000_000  # most sampler nodes m^2 (the CLI's --m is external input)
GREENS_NODES = 64  # Gauss-Legendre nodes per variable on each panel of the Green's rule
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class PlaneParam:
    """The hyperplane x1 = lam of R^n, lam finite, n >= 3 an integer; rotations give the rest."""

    lam: float
    _: KW_ONLY
    n: int = 3

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"need a finite plane, got lam = {self.lam}")
        object.__setattr__(self, "n", as_dimension(self.n))


def _mirror(x1, lam):
    """x1 mirrored across x1 = lam: the one mirror of every moving-plane pass."""
    return x1 + 2.0 * (lam - x1)


def reflect(x, plane: PlaneParam) -> np.ndarray:
    """A copy of the points x (..., n), mirrored across the plane; an involution."""
    x = np.array(x, dtype=float)
    if x.shape[-1:] != (plane.n,):
        raise ValueError(f"points of shape {x.shape}, but the plane's n = {plane.n}")
    x[..., 0] = _mirror(x[..., 0], plane.lam)
    return x


@dataclass(frozen=True)
class CartesianSampler:
    """Axisymmetric midpoint sampler on [-L, L] x [0, L] in (x1, rho).

    Each node carries the volume of its cell of revolution, so sums of
    weights are grid measures in R^n.  n >= 3 and m >= 8 are integers.
    """

    L: float
    m: int
    n: int = 3

    def __post_init__(self):
        if not self.L > 0.0:
            raise ValueError(f"need L > 0, got {self.L}")
        object.__setattr__(self, "n", as_dimension(self.n))
        if not float(self.m).is_integer():
            raise ValueError(f"need an integer m, got m = {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if self.m < 8:
            raise ValueError("need m >= 8 nodes per axis")
        if self.m * self.m > SAMPLER_BUDGET:
            raise BudgetExceeded(
                f"m^2 = {self.m * self.m} exceeds node budget {SAMPLER_BUDGET}")
        # largest ring volume omega_{n-2} L^{n-2} (2L/m) (L/m), in log space
        log_ring = (math.log(unit_sphere_area(self.n - 1) * 2.0)
                    + self.n * math.log(self.L) - 2.0 * math.log(self.m))
        if not log_ring < _LOG_MAX:
            raise ValueError(f"L = {self.L} overflows the sampler's cell volumes")

    @property
    def cell(self) -> float:
        return 2.0 * self.L / self.m

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(points (N, n), ring volumes (m,)) for the axisymmetric slice.

        The nodes are x1-major: node column j is the m nodes j*m ... j*m + m - 1,
        which share one x1, and node i of each column carries the i-th ring
        volume, so the weights of the N = m^2 nodes are the m ring volumes once
        per column.  The points are a fresh (n, N) buffer viewed as (N, n), so
        each coordinate is a contiguous column.
        """
        dx = 2.0 * self.L / self.m
        drho = self.L / self.m
        x1 = -self.L + (np.arange(self.m) + 0.5) * dx
        rho = (np.arange(self.m) + 0.5) * drho
        cols = np.zeros((self.n, self.m * self.m))
        grid = cols[:2].reshape(2, self.m, self.m)  # (coordinate, node column, node)
        grid[0] = x1[:, None]
        grid[1] = rho
        # ring volume: omega_{n-2} rho^{n-2} drho dx1
        ring = unit_sphere_area(self.n - 1) * rho ** (self.n - 2)
        return cols.T, ring * dx * drho


class _NodeColumns:
    """The sampler's points as m node columns, mirrored in place across x1 = lam.

    Keeps each column's x1 apart, since the mirror images overwrite the x1 row.
    """

    def __init__(self, pts: np.ndarray, m: int):
        self.pts, self.m = pts, m
        self.x1_row = pts[:, 0].reshape(m, m)  # (node column, node)
        self.x1 = self.x1_row[:, 0].copy()

    def count(self, lam):
        """The node columns in H_lam = {x1 < lam}, for one plane or an array of them."""
        return np.searchsorted(self.x1, lam)

    def mirrored(self, lam, lo, hi) -> tuple[slice, np.ndarray]:
        """(node rows, points) of columns [lo, hi), each x1 mirrored across lam."""
        self.x1_row[lo:hi] = _mirror(self.x1[lo:hi], lam)[:, None]
        rows = slice(lo * self.m, hi * self.m)
        return rows, self.pts[rows]


def _own(values, pts):
    """values, copied if they share memory with pts: the scans rewrite the points."""
    return values.copy() if np.may_share_memory(values, pts) else values


def _pair(u_field, v_field, pts) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) at pts; one evaluation when u and v are one callable.

    A field that returns a view of its points has its values copied, so that
    rewriting the points leaves them intact.
    """
    u = _own(u_field(pts), pts)
    return u, (u if v_field is u_field else _own(v_field(pts), pts))


@dataclass(frozen=True)
class ReflectionReport:
    """Exceedance-set measures, L^p norms, and estimate margins at one plane."""

    lam: float
    Bu_measure: float
    Bv_measure: float
    norms: dict
    inequality_margins: dict


def reflection_inequality_check(u_field, v_field, plane: PlaneParam,
                                config: ExponentConfig,
                                sampler: CartesianSampler) -> ReflectionReport:
    """Every norm in the two-set L^p estimates, by grid quadrature.

    Reports |u_lam - u|_{p,Bu}, |v_lam - v|_{p,Bv} and the smallness factors
    |u_lam|, |v_lam| restricted to both sets, with p = 2n/(n-2).  Empty sets
    give exactly zero norms (the estimates hold vacuously).  Raises
    ValueError unless config, plane and sampler share one dimension n.  Each
    node's weight is the ring volume of its place in its node column.  When
    u and v are one callable, each v norm and Bv_measure is its u twin and
    is computed once.
    """
    n = config.n
    if not n == plane.n == sampler.n:
        raise ValueError(f"dimensions disagree: config.n = {n}, plane.n = {plane.n}, "
                         f"sampler.n = {sampler.n}")
    p = 2.0 * n / (n - 2.0)
    m = sampler.m
    pts, ring = sampler.nodes()
    cols = _NodeColumns(pts, m)
    u_all, v_all = _pair(u_field, v_field, pts)
    half, refl = cols.mirrored(plane.lam, 0, cols.count(plane.lam))
    ul, vl = _pair(u_field, v_field, refl)
    del pts, cols, refl  # hold no point set past its evaluation
    u, v = u_all[half], v_all[half]
    same = ul is vl and u_all is v_all  # one callable: each v term is its u term
    bu = ul > u
    bv = bu if same else vl > v

    def terms(values):  # w |values|^p, formed once per array in one buffer
        t = np.abs(values).reshape(-1, m)  # (node column, node)
        t **= p
        t *= ring
        return t.ravel()

    def norm(t, on=None):  # summed over the set `on` in node order
        return float(np.sum(t if on is None else t[on]) ** (1.0 / p))

    def measure(on):  # the ring volumes of the set's nodes, summed in node order
        on = on.reshape(-1, m)
        return float(np.sum(np.broadcast_to(ring, on.shape)[on]))

    du, t_ul, t_u = terms(ul - u), terms(ul), terms(u_all)
    if same:  # B_v is B_u, so each v norm is its u twin
        diff, small, glob = norm(du, bu), norm(t_ul, bu), norm(t_u)
        values = (diff, diff, small, small, small, small, glob, glob)
    else:
        dv, t_vl, t_v = terms(vl - v), terms(vl), terms(v_all)
        values = (norm(du, bu), norm(dv, bv), norm(t_ul, bu), norm(t_vl, bu),
                  norm(t_ul, bv), norm(t_vl, bv), norm(t_u), norm(t_v))
    norms = dict(zip(("u_lam-u_p_Bu", "v_lam-v_p_Bv", "u_lam_p_Bu", "v_lam_p_Bu",
                      "u_lam_p_Bv", "v_lam_p_Bv", "u_p_global", "v_p_global"), values))
    # smallness factors multiplying the difference norms in the estimates
    margins = {
        "factor_u": norms["u_lam_p_Bu"] ** (config.alpha - 1.0)
        * norms["v_lam_p_Bu"] ** config.beta,
        "factor_v": norms["v_lam_p_Bv"] ** (config.alpha - 1.0)
        * norms["u_lam_p_Bv"] ** config.beta,
    }
    bu_measure = measure(bu)
    return ReflectionReport(
        lam=plane.lam,
        Bu_measure=bu_measure,
        Bv_measure=bu_measure if same else measure(bv),
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
    cell.  A plane whose H_lam holds no sampler node (at or left of the first
    node column) is empty vacuously and no evidence: it is left out of the
    sweep, and a sweep of such planes only raises ScanInconclusive naming
    them.  The rest must bracket lam0: a first plane that is already empty
    only bounds lam0 from above and raises ScanInconclusive, as does
    non-monotone emptiness.  Raises ValueError unless lambdas is a nonempty
    sequence of finite numbers.  Per plane, the mirror images of the node
    column next to the plane are probed first, and only a clean probe
    evaluates all of H_lam.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0 or not np.all(np.isfinite(lambdas)):
        raise ValueError(f"need a nonempty sequence of finite planes, got {lambdas}")
    lambdas = np.sort(lambdas)
    pts = sampler.nodes()[0]
    cols = _NodeColumns(pts, sampler.m)
    counts = cols.count(lambdas)
    held = counts > 0
    if not np.any(held):
        raise ScanInconclusive(
            f"no swept plane holds a sampler node in H_lam: planes "
            f"{', '.join(f'{lam:g}' for lam in lambdas)} lie at or left of the first "
            f"node column x1 = {cols.x1[0]:g}")
    lambdas, counts = lambdas[held], counts[held]
    u_all, v_all = _pair(u_field, v_field, pts)
    if not np.any(u_all) and not np.any(v_all):
        warnings.warn("both fields are identically zero; every set is empty",
                      stacklevel=2)
        return ScanResult(float(lambdas[0]), degenerate=True)
    empty = np.zeros(len(lambdas), dtype=bool)
    for i, (lam, count) in enumerate(zip(lambdas, counts)):
        for lo in (count - 1, 0):  # the node column next to the plane first
            rows, refl = cols.mirrored(lam, lo, count)
            if np.any(u_field(refl) > u_all[rows]) or (
                    v_field is not u_field and np.any(v_field(refl) > v_all[rows])):
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
    if first_empty == 0:
        raise ScanInconclusive(
            f"the first swept plane {lambdas[0]:g} that holds a sampler node already has "
            "empty exceedance sets, so lambda0 lies at or below it")
    return ScanResult(float(lambdas[first_empty]))


def _legendre(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_k(x) and P_k'(x), k >= 1, from the three-term recurrence; |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, k):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, k * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-node Gauss-Legendre rule on (-1, 1): ascending nodes and their weights.

    Newton's method on P_k from Tricomi's initial guesses, until an update is
    below 1e-16 (four updates at k = 64); the weights are
    2 / ((1 - x^2) P_k'(x)^2).  Nodes and weights are symmetrised as numpy's
    leggauss does, so x == -x[::-1] and w == w[::-1] exactly.  No eigenvalue
    solve, so no LAPACK call; the weights are about ten times closer to
    mpmath's than leggauss's at k = 64 (Hale-Townsend, SIAM J. Sci. Comput. 2013).
    """
    i = np.arange(1, k + 1)
    x = (1.0 - (k - 1) / (8.0 * k ** 3)) * np.cos(np.pi * (4 * i - 1) / (4 * k + 2))
    while True:
        p, dp = _legendre(k, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    _, dp = _legendre(k, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x[::-1] - x) / 2.0, (w + w[::-1]) / 2.0  # Tricomi's guesses descend


_GREENS_RULE = _gauss_legendre(GREENS_NODES)


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
    the inverse Laplacian.  A non-finite side raises QuadratureUnresolved.
    """
    x = np.asarray(x, dtype=float)
    n = config.n
    if np.max(np.abs(x[1:])) > 1e-14 or np.max(np.abs(params.center[1:])) > 1e-14:
        raise ValueError("x and the bubble center must lie on the x1 axis")
    if x[0] >= plane.lam:
        raise ValueError("x must lie in the half-space x1 < lambda")

    lhs = float(eval_bubble(params, reflect(x, plane)) - eval_bubble(params, x))

    lam, x1, c1 = plane.lam, x[0], params.center[0]
    D = lam - x1
    mirror_c1 = _mirror(c1, lam)
    centers = [d for d in (abs(c1 - x1), abs(mirror_c1 - x1)) if d > 0.0]
    knots = sorted({0.0, D, *centers})
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
    with np.errstate(divide="ignore", invalid="ignore"):  # R^2 underflows below D ~ 1e-154
        q = 4.0 * D * (lam - y1) / R ** 2
    kernel = -R * np.expm1((2.0 - n) / 2.0 * np.log1p(q))
    ring = unit_sphere_area(n - 1) * np.sin(theta) ** (n - 2)
    total = np.sum(np.concatenate(weights)[:, None] * w_theta * source * kernel * ring)
    rhs = float(total) / ((n - 2.0) * unit_sphere_area(n))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise QuadratureUnresolved(f"Green's rule reads lhs {lhs} rhs {rhs} at x1 = {x1:g}")
    return lhs, rhs
