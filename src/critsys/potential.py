"""Radial Newtonian potential, Picard iteration, and the HLS functional.

The normalized inverse Laplacian on radial functions reduces exactly to the
one-dimensional kernel max(r,s)^(2-n)/(n-2): the average of |x-y|^(2-n) over
the sphere |y| = s equals max(r,s)^(2-n) by harmonicity.  Its one
implementation, newton_potential_radial, returns (u, u') in one pass, and
the Picard map goes through it.

picard_step maps a profile pair to (pair, residual); picard_iterate yields
each (pair, residual) as it is computed and does no work until consumed.

The radial integrals use core.cumulative_trapezoid.  The HLS functional is
independent of the potential: a trapezoid in ln r at every lambda, whose
double sum is one Toeplitz product, a circulant embedding under numpy.fft,
with Navot's correction for the kernel's cusp.  The HLS kernel's special
functions are numpy/math code here: _hyp2f1 sums the Gauss
series for z <= 1/2 and the 1-z connection formulas (A&S 15.3.6, and 15.3.11
at integer c-a-b) above it, _zeta continues Euler-Maclaurin zeta(1+g) to
zeta(-g) by the functional equation, and gamma is math.gamma.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from math import gamma

import numpy as np
from numpy.fft import irfft, rfft

from .core import (
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    cumulative_trapezoid,
    lp_norm_radial,
    unit_sphere_area,
)
from .errors import (
    ExponentRelationViolated,
    IterateBlowup,
    NonGeometricGrid,
    NonintegrableInput,
    QuadratureDivergence,
)

BLOWUP_SUP = 1e6
EXPONENT_RELATION_TOL = 1e-12
EULER_GAMMA = 0.57721566490153286
SERIES_TERMS = 60  # 2^-60 < eps/100: each power series is summed at |x| <= 1/2
BERNOULLI_2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@dataclass(frozen=True)
class KernelSpec:
    """Riesz kernel |x-y|^(-lam) in R^n."""

    n: int
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < self.n:
            raise QuadratureDivergence(f"need 0 < lambda < n, got {self.lam}")


def _check_integrable_tail(f: np.ndarray, grid: RadialGrid) -> None:
    """int f ds to infinity needs s*f(s) decaying at the outer boundary."""
    r = grid.nodes
    tail = r * f
    i = np.searchsorted(r, grid.rmax / 10.0)
    if tail[-1] > 0.0 and tail[-1] >= tail[i] > 0.0 and tail[-1] > 1e-300:
        raise NonintegrableInput(
            "s*f(s) shows no decay over the last decade: int f ds diverges")


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
    outer_rev = -cumulative_trapezoid((r * f)[::-1], r[::-1])[::-1]
    # analytic tail: int_rmax^inf s * C s^-(n+2) ds = C rmax^-n / n
    c_tail = f[-1] * grid.rmax ** (n + 2.0)
    outer_rev = outer_rev + c_tail * grid.rmax ** -float(n) / n
    return (outer_rev - r * du) / (n - 2.0), du


def newton_potential_derivative(f: np.ndarray, grid: RadialGrid,
                                n: int) -> np.ndarray:
    """Exact radial derivative of the potential: u'(r) = -r^(1-n) int_0^r s^(n-1) f."""
    r = grid.nodes
    inner = cumulative_trapezoid(r ** (n - 1) * np.asarray(f, dtype=float), r)
    return -inner / r ** (n - 1)


def picard_step(profile: RadialProfilePair,
                config: ExponentConfig) -> tuple[RadialProfilePair, float]:
    """u <- (-Lap)^-1(u^a v^b), v <- (-Lap)^-1(u^b v^a), and the sup-norm change."""
    fu, fv = config.forcing(profile.u, profile.v)
    new_u, du = newton_potential_radial(fu, profile.grid, config.n)
    new_v, dv = newton_potential_radial(fv, profile.grid, config.n)
    sup = np.max([new_u, new_v])  # one np.max over u and v keeps a NaN, which fails too
    if not sup <= BLOWUP_SUP:
        raise IterateBlowup(f"iterate sup-norm {sup:.3e} exceeds {BLOWUP_SUP:.0e}")
    residual = float(np.max(np.abs([new_u - profile.u, new_v - profile.v])))
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


def _gauss_coefficients(a: float, b: float, c: float, terms: int) -> np.ndarray:
    """(a)_k (b)_k / ((c)_k k!) for k < terms."""
    coef = [1.0]
    for k in range(1, terms):
        coef.append(coef[-1] * (a + k - 1) * (b + k - 1) / ((c + k - 1) * k))
    return np.array(coef)


def _gauss_series(a: float, b: float, c: float, x: np.ndarray,
                  terms: int = SERIES_TERMS) -> np.ndarray:
    """The Gauss series of 2F1(a, b; c; x) to x^(terms-1), by Horner's rule."""
    return np.polyval(_gauss_coefficients(a, b, c, terms)[::-1], x)


def _psi_run(x: float, count: int) -> np.ndarray:
    """psi(x + k) for k < count, x a positive integer or half-integer.

    From psi(1) = -EULER_GAMMA, psi(1/2) = psi(1) - 2 ln 2 and
    psi(y + 1) = psi(y) + 1/y.
    """
    base = 1.0 if x == round(x) else 0.5
    skip = round(x - base)
    psi0 = -EULER_GAMMA - (0.0 if base == 1.0 else 2.0 * math.log(2.0))
    steps = np.cumsum(1.0 / (base + np.arange(skip + count - 1)))
    return psi0 + np.concatenate(([0.0], steps))[skip:]


def _hyp2f1(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Gauss's 2F1(a, b; c; z) for z in [0, 1], a > 0 and c - a - b > 0.

    A nonpositive integer b ends the series; otherwise the Gauss series
    serves z <= 1/2 and a connection formula in w = 1 - z the rest: A&S
    15.3.6, or its limit 15.3.11 when c - a - b is an integer m, where the
    kernel's a and b + m are integers or half-integers, so psi is closed
    form.  Both give Gauss's value Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    at z = 1.  The error grows like eps / |c-a-b - m| as c-a-b nears m.
    """
    z = np.asarray(z, dtype=float)
    if b <= 0.0 and b == round(b):
        return _gauss_series(a, b, c, z, round(-b) + 1)
    out = np.empty_like(z)
    low = z <= 0.5
    out[low] = _gauss_series(a, b, c, z[low])
    w = 1.0 - z[~low]
    gam = c - a - b
    if gam != (m := round(gam)):
        out[~low] = (gamma(c) * gamma(gam) / (gamma(c - a) * gamma(c - b))
                     * _gauss_series(a, b, 1.0 - gam, w)
                     + gamma(c) * gamma(-gam) / (gamma(a) * gamma(b)) * w ** gam
                     * _gauss_series(c - a, c - b, 1.0 + gam, w))
        return out
    # 15.3.11: a head of m terms, minus (-w)^m Gamma(c) / (Gamma(a) Gamma(b)) times
    # sum_k d_k w^k (log w + e_k), with e_k = psi(a+m+k) + psi(b+m+k) - psi(1+k) - psi(m+1+k)
    d = _gauss_coefficients(a + m, b + m, m + 1.0, SERIES_TERMS) / math.factorial(m)
    e = (_psi_run(a + m, SERIES_TERMS) + _psi_run(b + m, SERIES_TERMS)
         - _psi_run(1.0, SERIES_TERMS) - _psi_run(m + 1.0, SERIES_TERMS))
    log_w = np.log(w, out=np.zeros_like(w), where=w > 0.0)  # w^m log w -> 0 at w = 0
    out[~low] = (gamma(m) * gamma(c) / (gamma(a + m) * gamma(b + m))
                 * _gauss_series(a, b, 1.0 - m, w, m)
                 - (-w) ** m * gamma(c) / (gamma(a) * gamma(b))
                 * (log_w * np.polyval(d[::-1], w) + np.polyval((d * e)[::-1], w)))
    return out


def _zeta(s: float) -> float:
    """Riemann zeta(s) for s < 0 not an even integer (those are its zeros).

    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), with zeta(1-s)
    summed by Euler-Maclaurin from the tenth term on; the seven Bernoulli
    corrections leave a remainder below 1e-16 for 1-s <= 6.
    """
    sigma, tail = 1.0 - s, 10
    total = (sum(k ** -sigma for k in range(1, tail)) + tail ** (1.0 - sigma) / (sigma - 1.0)
             + 0.5 * tail ** -sigma)
    rising, factorial = sigma, 2.0  # sigma (sigma+1) ... (sigma+2j-2) and (2j)!
    for j, b2j in enumerate(BERNOULLI_2J, 1):
        total += b2j / factorial * rising * tail ** (1.0 - sigma - 2 * j)
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    return 2.0 ** s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0) * gamma(sigma) * total


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
    return hi ** -lam * _hyp2f1(lam / 2.0, (lam - n + 2.0) / 2.0, n / 2.0, rho ** 2)


def _toeplitz_product(col: np.ndarray, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the Toeplitz T with first column col and first row row.

    T embeds in a circulant whose size is the next power of two >= 2N-1
    (column, zeros, reversed row), which the real FFT diagonalises; at
    N = 1000 and 4000 the sizes 1999 and 7999 would leave numpy's FFT on
    slow prime-factor paths.
    """
    num = len(x)
    m = 1 << (2 * num - 2).bit_length()
    circulant = rfft(np.concatenate((col, np.zeros(m - 2 * num + 1), row[:0:-1])))
    return irfft(circulant * rfft(x, n=m), n=m)[:num]


def hls_functional(f: np.ndarray, g: np.ndarray, grid: RadialGrid,
                   kernel: KernelSpec, r_exp: float, s_exp: float) -> float:
    """J(f, g) / (||f||_r ||g||_s) for nonnegative radial f, g.

    J is the bilinear Riesz functional, with 1/r + 1/s + lambda/n = 2.  The
    grid must be geometric (NonGeometricGrid otherwise): both integrals are
    trapezoids in ln r, and the double sum is one Toeplitz product at every
    lambda.  f^r and g^s must decay in r^(n-1) dr (NonintegrableInput).
    """
    n, lam = kernel.n, kernel.lam
    if abs(1.0 / r_exp + 1.0 / s_exp + lam / n - 2.0) > EXPONENT_RELATION_TOL:
        raise ExponentRelationViolated(
            f"1/{r_exp} + 1/{s_exp} + {lam}/{n} != 2")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(f < 0.0) or np.any(g < 0.0):
        raise NonintegrableInput("f and g must be nonnegative")
    if (q := grid.log_step) is None:
        raise NonGeometricGrid("HLS needs a geometric grid")
    r = grid.nodes
    _check_integrable_tail(r ** (n - 1) * f ** r_exp, grid)
    _check_integrable_tail(r ** (n - 1) * g ** s_exp, grid)
    nf = lp_norm_radial(f, grid, r_exp, n)
    ng = lp_norm_radial(g, grid, s_exp, n)
    if nf == 0.0 or ng == 0.0:
        return 0.0

    # trapezoid in ln r: dr = r d(ln r), weights h r_i with halved ends
    h = math.log(q)
    w = h * r
    w[[0, -1]] *= 0.5
    wf = w * r ** (n - 1) * f
    # on r_i = r0 q^i the average is r_i^-lam k(q^(j-i)), a Toeplitz matrix;
    # k(1/t) = 2F1(t^-2) and k(t) = t^-lam 2F1(t^-2) share one 2F1
    t = q ** np.arange(len(r))
    col = _angular_factor(1.0, 1.0 / t, kernel)
    total = (wf * r ** -lam) @ _toeplitz_product(col, t ** -lam * col,
                                                 w * r ** (n - 1) * g)
    gam = n - 1.0 - lam
    if gam % 2.0 != 0.0:
        # near s = r the average carries a cusp r^-lam K (2|ln s - ln r|)^gam,
        # for which the trapezoid in ln s pays 2 zeta(-gam) h^(1+gam) times
        # the cusp's coefficient (generalized Euler-Maclaurin, Navot 1961);
        # K is Gamma(n/2) Gamma(-gam) / (Gamma(lam/2) Gamma((1-gam)/2)) with
        # its poles at odd gam cancelled.  At even gam the cusp is smooth.
        K = -(gamma(n / 2.0) * gamma((1.0 + gam) / 2.0)
              / (2.0 * math.sin(math.pi * gam / 2.0) * gamma(1.0 + gam) * gamma(lam / 2.0)))
        total -= 2.0 * _zeta(-gam) * K * 2.0 ** gam * (wf @ ((h * r) ** (1.0 + gam) * g))
    return float(unit_sphere_area(n) ** 2 * total / (nf * ng))
