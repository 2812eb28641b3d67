"""Radial Newtonian potential, Picard iteration, and the HLS functional.

The normalized inverse Laplacian on radial functions reduces exactly to the
one-dimensional kernel max(r,s)^(2-n)/(n-2): the average of |x-y|^(2-n) over
the sphere |y| = s equals max(r,s)^(2-n) by harmonicity.  Its one
implementation, newton_potential_radial, returns (u, u') in one pass; the
Picard map and the HLS functional at lambda = n-2 both go through it.

picard_step maps a profile pair to (pair, residual); picard_iterate yields
each (pair, residual) as it is computed and does no work until consumed.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import matmul_toeplitz
from scipy.special import gamma, hyp2f1, zeta

from .core import ExponentConfig, RadialGrid, RadialProfilePair, lp_norm_radial, unit_sphere_area
from .errors import (
    ExponentRelationViolated,
    IterateBlowup,
    NonGeometricGrid,
    NonintegrableInput,
    QuadratureDivergence,
)

BLOWUP_SUP = 1e6
EXPONENT_RELATION_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Riesz kernel |x-y|^(-lam) in R^n."""

    n: int
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < self.n:
            raise QuadratureDivergence(f"need 0 < lambda < n, got {self.lam}")


def _check_integrable_tail(f: np.ndarray, grid: RadialGrid) -> None:
    """The radial potential needs s*f(s) decaying at the outer boundary."""
    r = grid.nodes
    tail = r * f
    i = np.searchsorted(r, grid.rmax / 10.0)
    if tail[-1] > 0.0 and tail[-1] >= tail[i] > 0.0 and tail[-1] > 1e-300:
        raise NonintegrableInput(
            "s^(n-1) f(s) s^(2-n) shows no decay over the last decade")


def newton_potential_radial(f: np.ndarray, grid: RadialGrid,
                            n: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') with -Laplace(u) = f for radial data f >= 0.

    u(r) = (1/(n-2)) [ r^(2-n) * int_0^r s^(n-1) f ds + int_r^inf s f ds ],
    where the first term is -r u'(r).  Beyond the grid, f is extrapolated as
    C * s^-(n+2), the decay of the critical nonlinearity, and the tail added
    analytically.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0):
        raise NonintegrableInput("f must be nonnegative")
    _check_integrable_tail(f, grid)
    r = grid.nodes
    du = newton_potential_derivative(f, grid, n)
    outer_rev = -cumulative_trapezoid((r * f)[::-1], r[::-1], initial=0.0)[::-1]
    # analytic tail: int_rmax^inf s * C s^-(n+2) ds = C rmax^-n / n
    c_tail = f[-1] * grid.rmax ** (n + 2.0)
    outer_rev = outer_rev + c_tail * grid.rmax ** -float(n) / n
    return (outer_rev - r * du) / (n - 2.0), du


def newton_potential_derivative(f: np.ndarray, grid: RadialGrid,
                                n: int) -> np.ndarray:
    """Exact radial derivative of the potential: u'(r) = -r^(1-n) int_0^r s^(n-1) f."""
    r = grid.nodes
    inner = cumulative_trapezoid(r ** (n - 1) * np.asarray(f, dtype=float), r,
                                 initial=0.0)
    return -inner / r ** (n - 1)


def picard_step(profile: RadialProfilePair,
                config: ExponentConfig) -> tuple[RadialProfilePair, float]:
    """u <- (-Lap)^-1(u^a v^b), v <- (-Lap)^-1(u^b v^a), and the sup-norm change."""
    new_u, du = newton_potential_radial(profile.u ** config.alpha * profile.v ** config.beta,
                                        profile.grid, config.n)
    new_v, dv = newton_potential_radial(profile.u ** config.beta * profile.v ** config.alpha,
                                        profile.grid, config.n)
    sup = max(np.max(new_u), np.max(new_v))
    if sup > BLOWUP_SUP:
        raise IterateBlowup(f"iterate sup-norm {sup:.3e} exceeds {BLOWUP_SUP:.0e}")
    residual = max(float(np.max(np.abs(new_u - profile.u))),
                   float(np.max(np.abs(new_v - profile.v))))
    return RadialProfilePair(profile.grid, new_u, new_v, du, dv), residual


def picard_iterate(profile: RadialProfilePair, config: ExponentConfig,
                   residual_tol: float = 1e-8,
                   max_steps: int = 200) -> Iterator[tuple[RadialProfilePair, float]]:
    """Yield (iterate, residual) after each picard_step, at most max_steps times.

    Stops after the first step whose residual is below residual_tol.  Steps
    run only as the generator is consumed.
    """
    for _ in range(max_steps):
        profile, residual = picard_step(profile, config)
        yield profile, residual
        if residual < residual_tol:
            return


def _angular_factor(r: np.ndarray, s: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Sphere average of |r e1 - s omega|^(-lam) over unit directions omega.

    Closed form max^(-lam) 2F1(lam/2, (lam-n+2)/2; n/2; (min/max)^2), which
    is max(r,s)^(2-n) at lam = n-2.  On the diagonal r = s the series is
    finite only for lam < n-1.
    """
    n, lam = kernel.n, kernel.lam
    if lam >= n - 1.0:
        raise QuadratureDivergence(
            f"lambda = {lam} >= n-1 = {n - 1}: the sphere average diverges at r = s")
    hi = np.maximum(r, s)
    rho = np.minimum(r, s) / hi
    return hi ** -lam * hyp2f1(lam / 2.0, (lam - n + 2.0) / 2.0, n / 2.0, rho ** 2)


def hls_functional(f: np.ndarray, g: np.ndarray, grid: RadialGrid,
                   kernel: KernelSpec, r_exp: float, s_exp: float) -> float:
    """J(f, g) / (||f||_r ||g||_s) for nonnegative radial f, g.

    J is the bilinear Riesz functional, with 1/r + 1/s + lambda/n = 2.  At
    lambda = n-2 it is (n-2) <f, N g> with N the Newton potential (which
    raises NonintegrableInput for non-decaying g); off it the grid must be
    geometric (NonGeometricGrid otherwise).
    """
    n, lam = kernel.n, kernel.lam
    if abs(1.0 / r_exp + 1.0 / s_exp + lam / n - 2.0) > EXPONENT_RELATION_TOL:
        raise ExponentRelationViolated(
            f"1/{r_exp} + 1/{s_exp} + {lam}/{n} != 2")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(f < 0.0) or np.any(g < 0.0):
        raise NonintegrableInput("f and g must be nonnegative")
    nf = lp_norm_radial(f, grid, r_exp, n)
    ng = lp_norm_radial(g, grid, s_exp, n)
    if nf == 0.0 or ng == 0.0:
        return 0.0

    r = grid.nodes
    h = np.diff(r)
    w = np.zeros_like(r)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    wf = w * r ** (n - 1) * f

    if abs(lam - (n - 2.0)) < 1e-14:
        # the average max(r,s)^(2-n) is (n-2) times the Newton kernel
        total = (n - 2.0) * (wf @ newton_potential_radial(g, grid, n)[0])
    else:
        if (q := grid.log_step) is None:
            raise NonGeometricGrid("HLS off lambda = n-2 needs a geometric grid")
        # on r_i = r0 q^i the average is r_i^-lam k(q^(j-i)), a Toeplitz matrix
        t = q ** np.arange(len(r))
        toeplitz = (_angular_factor(1.0, 1.0 / t, kernel), _angular_factor(1.0, t, kernel))
        total = (wf * r ** -lam) @ matmul_toeplitz(toeplitz, w * r ** (n - 1) * g)
        gam = n - 1.0 - lam
        if gam < 1.0:
            # near s = r the average carries a cusp r^-lam K (2|r-s|/r)^gam,
            # for which the trapezoid over s pays 2 zeta(-gam) h^(1+gam) times
            # the cusp's coefficient (generalized Euler-Maclaurin, Navot 1961);
            # with the weight s^(n-1) g(s) the powers of r cancel
            K = (gamma(n / 2.0) * gamma(-gam)
                 / (gamma(lam / 2.0) * gamma((lam - n + 2.0) / 2.0)))
            hr = np.gradient(r)
            total -= 2.0 * zeta(-gam) * K * 2.0 ** gam * (wf @ (hr ** (1.0 + gam) * g))
    return float(unit_sphere_area(n) ** 2 * total / (nf * ng))

