"""Arbitrary-precision zero radii of off-diagonal shots: the reference for shooting's at_r.

Independent of critsys's RK45.  mpmath.odefun (a Taylor-series method) solves

    u'' + (n-1)/r u' = -u^alpha v^beta,   v'' + (n-1)/r v' = -u^beta v^alpha

from r0 = 1e-8 with the two-term series start, whose error is O(r0^4).  As
critsys does, the right-hand side clamps u and v at zero; without the clamp,
root finding at fractional exponents goes complex.  mpmath.findroot (the
anderson solver) then finds the zero of the failing component on a +-1e-6
bracket around critsys's own at_r, which only places the bracket.

Print the reference table (config, start, failing component, zero radius,
dps, r0) with

    PYTHONPATH=src python tests/mp_reference.py

A shot with integer exponents takes about 2 s at dps 25; fractional powers go
through exp and log, so a (5, 1, 4/3) shot takes 40-50 s.
"""
from fractions import Fraction

import mpmath

DPS = 25
R0 = "1e-8"
CONFIGS = [(3, 2, 3), (4, 1, 2), (5, 1, Fraction(4, 3))]
STARTS = [(1.0, 2.0), (2.0, 1.0), (1.0, 1.1), (1.1, 1.0)]  # the doubles critsys shoots


def _mpf(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def zero_radius(config, start, near: float, dps: int = DPS, r0: str = R0):
    """(which, r): the component, "u" or "v", that reaches zero first, and where.

    ``config`` is (n, alpha, beta) and ``start`` is (u0, v0); each number is
    taken exactly, a float as its double and a Fraction as itself.  The root
    is sought within 1e-6 of ``near``; r is an mpf at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        n, alpha, beta = map(_mpf, config)
        u0, v0 = map(_mpf, start)
        r0 = mpmath.mpf(r0)
        fu, fv = u0 ** alpha * v0 ** beta, u0 ** beta * v0 ** alpha
        y0 = [u0 - fu * r0 ** 2 / (2 * n), v0 - fv * r0 ** 2 / (2 * n), -fu * r0 / n, -fv * r0 / n]

        def rhs(r, y):
            u, v = max(y[0], 0), max(y[1], 0)
            return [y[2], y[3], -(n - 1) / r * y[2] - u ** alpha * v ** beta,
                    -(n - 1) / r * y[3] - u ** beta * v ** alpha]

        solution = mpmath.odefun(rhs, r0, y0)
        lo, hi = mpmath.mpf(near) - mpmath.mpf("1e-6"), mpmath.mpf(near) + mpmath.mpf("1e-6")
        y_hi = solution(hi)
        i = 0 if y_hi[0] < y_hi[1] else 1  # the component below zero at hi
        r = mpmath.findroot(lambda r: solution(r)[i], (lo, hi), solver="anderson")
        return "uv"[i], +r


def main() -> None:
    from critsys.core import ExponentConfig
    from critsys.shooting import ShootInput, classify

    print("config, start, which, zero radius, dps, r0")
    for config in CONFIGS:
        cfg = ExponentConfig(config[0], float(config[1]), float(config[2]))
        for start in STARTS:
            near = classify(ShootInput(cfg, *start)).at_r
            which, r = zero_radius(config, start, near)
            print(f"({', '.join(map(str, config))}), ({', '.join(map(str, start))}), {which}, "
                  f"{mpmath.nstr(r, 20)}, {DPS}, {R0}", flush=True)


if __name__ == "__main__":
    main()
