"""Radial shooting for the coupled system and the uniqueness experiments.

Integrates u'' + (n-1)u'/r = -u^alpha v^beta, v'' + (n-1)v'/r = -u^beta v^alpha
from near the origin, classifies trajectories (bound state / positivity
failure / no decay), and checks the nested integral identity that drives the
crossing argument.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .core import DEFAULT_NODES, DEFAULT_R0, ExponentConfig, RadialGrid, RadialProfilePair
from .errors import (
    HypothesisNotApplicable,
    NonpositiveInput,
    StepSizeUnderflow,
    ToleranceNotMet,
)

DECAY_PLATEAU_RTOL = 0.01  # relative variation of r^(n-2)u over the last decade


@dataclass(frozen=True)
class ShootInput:
    """Initial data and integration controls for one shot."""

    config: ExponentConfig
    u0: float
    v0: float
    r_max: float = 1e4
    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self):
        if self.u0 <= 0.0 or self.v0 <= 0.0:
            raise NonpositiveInput("need u0 > 0 and v0 > 0")
        if self.r_max <= DEFAULT_R0:
            raise ValueError(f"need r_max > {DEFAULT_R0}")


class Kind(enum.Enum):
    BOUND_STATE = "BoundState"
    POSITIVITY_FAILURE = "PositivityFailure"
    NO_DECAY = "NoDecay"


@dataclass(frozen=True)
class ShootOutcome:
    """Classification of one shooting trajectory.

    ``crossing_r`` records the first sign change of v - u with both
    components positive (the paper's R0); it is attached to any kind.
    """

    kind: Kind
    profile: RadialProfilePair
    which: str | None = None       # failing component for POSITIVITY_FAILURE
    at_r: float | None = None
    crossing_r: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IntegralIdentityReport:
    """Both sides of the nested-integral identities at selected radii."""

    r_checked: np.ndarray
    lhs_u: np.ndarray
    rhs_u: np.ndarray
    lhs_v: np.ndarray
    rhs_v: np.ndarray

    @property
    def max_abs_gap(self) -> float:
        return float(max(np.max(np.abs(self.lhs_u - self.rhs_u)),
                         np.max(np.abs(self.lhs_v - self.rhs_v))))


def _rhs(n: int, alpha: float, beta: float):
    def rhs(r, y):
        u, du, v, dv = y
        uu = u if u > 0.0 else 0.0
        vv = v if v > 0.0 else 0.0
        fu = uu ** alpha * vv ** beta
        fv = uu ** beta * vv ** alpha
        c = (n - 1) / r
        return (du, -c * du - fu, dv, -c * dv - fv)
    return rhs


def _taylor_start(inp: ShootInput, r0: float):
    """Second-order series data at r0 consistent with u'(0) = v'(0) = 0."""
    n = inp.config.n
    fu = inp.u0 ** inp.config.alpha * inp.v0 ** inp.config.beta
    fv = inp.u0 ** inp.config.beta * inp.v0 ** inp.config.alpha
    return np.array([
        inp.u0 - fu * r0 ** 2 / (2 * n), -fu * r0 / n,
        inp.v0 - fv * r0 ** 2 / (2 * n), -fv * r0 / n,
    ])


def _solve(inp: ShootInput, grid: RadialGrid | None):
    cfg = inp.config
    if grid is None:
        # the Taylor handoff sits at DEFAULT_R0: (n-1)/r is singular at 0
        grid = RadialGrid.geometric(DEFAULT_R0, max(inp.r_max, 1.0 + DEFAULT_R0),
                                    DEFAULT_NODES)
    nodes = grid.nodes[grid.nodes <= inp.r_max]

    def u_zero(r, y):
        return y[0]

    def v_zero(r, y):
        return y[2]

    u_zero.terminal = v_zero.terminal = True
    u_zero.direction = v_zero.direction = -1.0

    sol = solve_ivp(
        _rhs(cfg.n, cfg.alpha, cfg.beta), (nodes[0], inp.r_max),
        _taylor_start(inp, nodes[0]), method="RK45",
        t_eval=nodes, events=(u_zero, v_zero),
        rtol=inp.rtol, atol=inp.atol,
    )
    if sol.status == -1:
        if "step size" in sol.message.lower():
            raise StepSizeUnderflow(sol.message)
        raise ToleranceNotMet(sol.message)
    return sol, _profile_from_sol(sol, nodes)


def _profile_from_sol(sol, nodes: np.ndarray) -> RadialProfilePair:
    y = np.zeros((4, len(nodes)))
    y[:, :len(sol.t)] = sol.y
    u, du, v, dv = y
    # tiny negatives from the terminal-event root are clipped
    np.clip(u, 0.0, None, out=u)
    np.clip(v, 0.0, None, out=v)
    return RadialProfilePair(RadialGrid(nodes), u, v, du, dv)


def integrate_radial(inp: ShootInput, grid: RadialGrid | None = None) -> RadialProfilePair:
    """Solve the coupled radial system from the origin out to r_max.

    If u or v hits zero the trajectory terminates there and the remaining
    nodes are filled with zeros (flag available through classify()).
    """
    return _solve(inp, grid)[1]


def _first_crossing(nodes, u, v):
    """First radius where v - u changes sign with both components positive."""
    w = v - u
    pos = (u > 0.0) & (v > 0.0)
    sign = np.sign(w)
    hit = pos[:-1] & pos[1:] & (sign[:-1] != 0) & (sign[1:] == -sign[:-1])
    if not hit.any():
        return None
    i = int(np.argmax(hit))
    # linear interpolation of the sign change
    t = w[i] / (w[i] - w[i + 1])
    return float(nodes[i] + t * (nodes[i + 1] - nodes[i]))


def classify(inp: ShootInput, grid: RadialGrid | None = None) -> ShootOutcome:
    """Integrate and classify the trajectory.

    Priority: PositivityFailure if a component reaches zero, else BoundState
    if r^(n-2)u and r^(n-2)v both plateau over the last decade, else NoDecay.
    """
    sol, profile = _solve(inp, grid)
    n = inp.config.n

    crossing = _first_crossing(sol.t, sol.y[0], sol.y[2])
    diagnostics = {"u0": inp.u0, "v0": inp.v0, "r_reached": float(sol.t[-1])}

    if sol.status == 1:  # terminated by a positivity event
        hit_u = len(sol.t_events[0]) > 0
        at_r = float((sol.t_events[0] if hit_u else sol.t_events[1])[0])
        return ShootOutcome(Kind.POSITIVITY_FAILURE, profile,
                            which="u" if hit_u else "v", at_r=at_r,
                            crossing_r=crossing, diagnostics=diagnostics)

    last_decade = sol.t >= inp.r_max / 10.0
    plateau = True
    for comp in (sol.y[0], sol.y[2]):
        w = sol.t[last_decade] ** (n - 2) * comp[last_decade]
        spread = (np.max(w) - np.min(w)) / max(np.mean(np.abs(w)), 1e-300)
        diagnostics.setdefault("plateau_spread", []).append(float(spread))
        plateau &= spread < DECAY_PLATEAU_RTOL
    kind = Kind.BOUND_STATE if plateau else Kind.NO_DECAY
    return ShootOutcome(kind, profile,
                        at_r=None if plateau else float(inp.r_max),
                        crossing_r=crossing, diagnostics=diagnostics)


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    kind: Kind
    crossing_r: float | None
    diagnostics: dict
    profile: RadialProfilePair


def uniqueness_sweep(config: ExponentConfig, ratios, base: float = 1.0,
                     grid: RadialGrid | None = None, atol: float = 1e-10,
                     rtol: float = 1e-10) -> list[SweepRow]:
    """Classify (u0, v0) = (base, ratio*base) for each ratio, out to grid.rmax.

    Only meaningful in the ordered regime alpha < beta, where a bound state
    should occur exactly at ratio 1.
    """
    if not config.uniqueness_applicable:
        raise HypothesisNotApplicable(
            f"need alpha < beta, got ({config.alpha}, {config.beta})")
    grid = RadialGrid.default() if grid is None else grid
    rows = []
    for rho in ratios:
        if rho <= 0.0:
            raise NonpositiveInput(f"ratios must be positive, got {rho}")
        out = classify(ShootInput(config, base, rho * base, r_max=grid.rmax,
                                  atol=atol, rtol=rtol), grid)
        rows.append(SweepRow(float(rho), out.kind, out.crossing_r,
                             out.diagnostics, out.profile))
    return rows


def sweep_consistent(rows: list[SweepRow], window: float = 1e-3) -> bool:
    """True iff BoundState occurs exactly at ratio 1 within the sweep.

    Ratios within ``window`` of 1 are exempt from the no-bound-state check:
    shooting cannot resolve the diagonal that finely.
    """
    for row in rows:
        on_diagonal = abs(row.ratio - 1.0) <= window
        if on_diagonal and row.kind is not Kind.BOUND_STATE:
            return False
        if not on_diagonal and row.kind is Kind.BOUND_STATE:
            return False
    return True


def ordering_term(u: float, v: float, config: ExponentConfig) -> float:
    """u^alpha v^beta - u^beta v^alpha; positive iff v > u when alpha < beta."""
    if u <= 0.0 or v <= 0.0:
        raise NonpositiveInput(f"need u, v > 0, got ({u}, {v})")
    return u ** config.alpha * v ** config.beta - u ** config.beta * v ** config.alpha


def _cumulative_nested(profile: RadialProfilePair, forcing: np.ndarray,
                       n: int) -> np.ndarray:
    """Cumulative value of int_0^r tau^(1-n) int_0^tau s^(n-1) f ds dtau.

    Trapezoid both levels; the [0, r0] head contributes O(r0^2) and is
    dropped.
    """
    r = profile.grid.nodes
    inner = cumulative_trapezoid(r ** (n - 1) * forcing, r, initial=0.0)
    return cumulative_trapezoid(inner / r ** (n - 1), r, initial=0.0)


def check_integral_identity(profile: RadialProfilePair, config: ExponentConfig,
                            radii) -> IntegralIdentityReport:
    """Verify u(r) = u(0) - nested integral (and the v analogue) at radii.

    Radii are snapped to the nearest grid node so the comparison isolates the
    quadrature error; r = 0 is allowed and both sides vanish there exactly.
    """
    r = profile.grid.nodes
    u, v = profile.u, profile.v
    # u(0), v(0) from the first sample: the offset is O(r0^2)
    u0, v0 = float(u[0]), float(v[0])
    fu = u ** config.alpha * v ** config.beta
    fv = u ** config.beta * v ** config.alpha
    nested_u = _cumulative_nested(profile, fu, config.n)
    nested_v = _cumulative_nested(profile, fv, config.n)

    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    lhs_u, rhs_u, lhs_v, rhs_v, checked = [], [], [], [], []
    for rad in radii:
        if rad <= r[0]:
            checked.append(0.0)
            lhs_u.append(0.0); rhs_u.append(0.0)
            lhs_v.append(0.0); rhs_v.append(0.0)
            continue
        i = int(np.argmin(np.abs(r - rad)))
        checked.append(float(r[i]))
        lhs_u.append(u0 - float(u[i])); rhs_u.append(float(nested_u[i]))
        lhs_v.append(v0 - float(v[i])); rhs_v.append(float(nested_v[i]))
    return IntegralIdentityReport(
        np.array(checked), np.array(lhs_u), np.array(rhs_u),
        np.array(lhs_v), np.array(rhs_v))


def contradiction_witness(profile: RadialProfilePair,
                          config: ExponentConfig) -> np.ndarray:
    """Accumulated int_0^r tau^(1-n) int_0^tau s^(n-1)(u^a v^b - u^b v^a).

    While 0 < u < v and alpha < beta this is positive and increasing: the
    numeric form of the crossing contradiction.
    """
    f = (profile.u ** config.alpha * profile.v ** config.beta
         - profile.u ** config.beta * profile.v ** config.alpha)
    return _cumulative_nested(profile, f, config.n)
