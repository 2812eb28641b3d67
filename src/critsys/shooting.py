"""Radial shooting for the coupled system and the uniqueness experiments.

Integrates u'' + (n-1)u'/r = -u^alpha v^beta, v'' + (n-1)v'/r = -u^beta v^alpha
from near the origin, classifies trajectories (bound state / positivity
failure / no decay), and checks the nested integral identity that drives the
crossing argument.

The integrator is the package's own RK45, one step loop (solve_ivp):
Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980) with the step control
and dense output of scipy's RK45, whose samples and RHS counts it reproduces
bitwise.  Every shot, single or batched, is one call of it.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_R0,
    DEFAULT_RMAX,
    ExponentConfig,
    RadialGrid,
    RadialProfilePair,
    cumulative_trapezoid,
    steep_at_origin,
)
from .errors import GridTooCoarse, HypothesisNotApplicable, NonpositiveInput, StepSizeUnderflow
from .potential import newton_potential_derivative

DECAY_PLATEAU_RTOL = 0.01  # relative variation of r^(n-2)u over the last decade
DIAGONAL_WINDOW = 1e-3  # |ratio - 1| below which shooting cannot tell off-diagonal


@dataclass(frozen=True)
class ShootInput:
    """Initial data and integration controls for one shot.

    ``tol`` is the solver's absolute and relative tolerance.
    """

    config: ExponentConfig
    u0: float
    v0: float
    r_max: float = DEFAULT_RMAX
    tol: float = 1e-10

    def __post_init__(self):
        # written as "not x > bound" so that NaN fails too
        if not (self.u0 > 0.0 and self.v0 > 0.0):
            raise NonpositiveInput(f"need u0 > 0 and v0 > 0, got ({self.u0}, {self.v0})")
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"need a finite r_max > 0, got {self.r_max}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"need tol > 0 and finite, got {self.tol}")


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
        """The largest |lhs - rhs| of u and v; NaN if either side holds one."""
        return float(np.max(np.abs([self.lhs_u - self.rhs_u, self.lhs_v - self.rhs_v])))


# Dormand-Prince 5(4) tableau, error weights and dense-output matrix as scipy's RK45 has them
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class _Solution:
    """t_eval samples (t, y of shape (len(y0), len(t))) and solver counters.

    nfev = 2 + 6 (accepted + rejected): the start's two evaluations, then six
    per attempted step.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    accepted: int
    rejected: int
    status: int  # 0: reached t_span[1]; -1: step size underflow
    message: str


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5  # np.linalg.norm's expression for a real vector


def solve_ivp(fun, t_span, y0, *, t_eval, rtol: float, atol: float) -> _Solution:
    """Integrate y' = f(t, y) forward over t_span with RK45, sampled at t_eval.

    ``fun(t, y, out)`` writes f(t, y) into ``out`` and must not write ``y``;
    both are views in the shape of ``y0``, which may have any shape.  Each
    accepted step writes its dense output at the t_eval nodes it passed into
    one preallocated (y0.size, len(t_eval)) array, so samples and nfev are
    bitwise those of scipy.integrate.solve_ivp(method="RK45") with a fun that
    returns the same values.  status is 0 when it reached t_span[1], -1 with
    scipy's message when the step size fell below its floor, and the result
    then holds the samples reached; nfev counts as scipy does, 2 for the
    start and 6 per attempted step, which the result also counts as accepted
    and rejected.

    A port of scipy 1.17's solve_ivp(method="RK45") for forward runs with
    t_eval and scalar tolerances: the initial step of Hairer-Norsett-Wanner
    (I, Sec. II.4), the RMS error norm (sqrt(x.x), as np.linalg.norm has it),
    step factors 0.9 err^(-1/5) within [0.2, 10] (at most 1 right after a
    rejection), a floor of ten float spacings at t, and the quartic dense
    output at the t_eval nodes of each step.  The stage inputs, the stage
    rows K, |y|, the error scale and the error estimate are allocated once
    per solve: each stage sum and y_new is formed in its buffer (the product
    scaled by h, then y added), fun writes its stage row of K, and an
    accepted step copies y_new into y and its last stage row into the
    first; the IEEE operations and BLAS calls are scipy's.  Like scipy, it
    rejects a y0 that is not finite.
    """
    t, t_bound = map(float, t_span)
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    t_eval = np.asarray(t_eval)
    if rtol < (floor := 100 * np.finfo(float).eps):  # scipy's floor on rtol, and its warning
        warnings.warn(f"rtol = {rtol} is below 100 machine epsilons; using rtol = {floor}",
                      stacklevel=2)
        rtol = floor
    shape, done = y0.shape, 0
    out = np.empty((y0.size, len(t_eval)))
    # flat buffers, and the views in y0's shape that fun gets: the state, the inputs
    # of stages 1-5 and y_new (the input of stage 6), and the stage rows
    y = y0.flatten()
    Z = np.empty((len(_C), y.size))
    K = np.empty((len(_C) + 1, y.size))
    y_view, K_views = y.reshape(shape), [k.reshape(shape) for k in K]
    y_new, y_new_view = Z[-1], Z[-1].reshape(shape)
    abs_y = np.abs(y)  # carried from step to step: each step forms |y_new| once
    abs_new, err = np.empty_like(y), np.empty_like(y)

    f = K[0]  # f(t, y), the first stage row of every step
    fun(t, y_view, K_views[0])
    # initial step from the size of y, y' and a finite-difference y''
    interval = abs(t_bound - t)
    scale = atol + abs_y * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    fun(t + h0, (y + h0 * f).reshape(shape), K_views[1])
    d2 = _rms((K[1] - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval)
    nfev, accepted, rejected = 2, 0, 0

    # stage s: (its input, its view, its row's view, the rows before it, its row of _A, its node)
    stages = [(Z[s - 1], Z[s - 1].reshape(shape), K_views[s], K[:s].T, _A[s, :s], float(_C[s]))
              for s in range(1, len(_C))]
    KT, KT_rk = K.T, K[:-1].T
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                return _Solution(t_eval[:done], out[:, :done], nfev, accepted, rejected, -1,
                                 TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            nfev += 6
            for z, z_view, K_view, KsT, a, c in stages:
                np.dot(KsT, a, out=z)
                z *= h
                z += y
                fun(t + c * h, z_view, K_view)
            np.dot(KT_rk, _B, out=y_new)
            y_new *= h
            y_new += y
            fun(t + h, y_new_view, K_views[-1])
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            np.dot(KT, _E, out=err)
            err *= h
            err /= scale
            error_norm = _rms(err)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if step_rejected else factor
                accepted += 1
                break
            h_abs *= max(0.2, 0.9 * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        end = t_eval.searchsorted(t_new, side="right")
        if end > done:
            x = (t_eval[done:end] - t) / h
            p = np.empty((_P.shape[1], x.size))  # x, x^2, x^3, x^4 as np.cumprod multiplies
            p[:] = x
            np.multiply.accumulate(p, axis=0, out=p)
            # formed whole, then copied: np.dot(out=) takes no strided column slice
            q = np.dot(KT.dot(_P), p)
            q *= h
            q += y[:, None]
            out[:, done:end] = q
            done = end
        t = t_new
        y[:] = y_new
        f[:] = K[-1]
        abs_y, abs_new = abs_new, abs_y
    return _Solution(t_eval[:done], out[:, :done], nfev, accepted, rejected, 0,
                     "The solver successfully reached the end of the integration interval.")


def _rhs(n: int, alpha: float, beta: float, k: int):
    """Right-hand side fun(r, y, out) of k stacked shots, y and out of shape (2, 2, k).

    The in-place form of ExponentConfig.forcing, at u and v clamped at zero:
    out gets (u', v') and (-(n-1)/r u' - u^alpha v^beta, -(n-1)/r v' - v^alpha u^beta).
    The axes are (values, slopes) x (u, v) x k, so (u, v) and (u', v') are
    contiguous halves: one clamp, one power per exponent and one product
    cover both equations.  The clamp and the powers go to buffers allocated
    once, with the function, so a call allocates nothing.
    """
    w, wa, wb = np.empty((3, 2, k))

    def rhs(r, y, out):
        np.maximum(y[0], 0.0, out=w)  # u and v, clamped at zero
        np.power(w, alpha, out=wa)
        np.power(w, beta, out=wb)
        # u^alpha v^beta and v^alpha u^beta (IEEE products commute)
        np.multiply(wa, wb[::-1], out=wa)
        out[0] = y[1]
        np.multiply(y[1], -(n - 1) / r, out=out[1])
        out[1] -= wa
    return rhs


def _taylor_start(cfg: ExponentConfig, u0: np.ndarray, v0: np.ndarray, r0: float) -> np.ndarray:
    """Second-order series data at r0 consistent with u'(0) = v'(0) = 0.

    Returns the (4, k) state (u, v, u', v') of the k shots from u0 and v0.
    """
    fu, fv = cfg.forcing(u0, v0)
    return np.array([u0 - fu * r0 ** 2 / (2 * cfg.n), v0 - fv * r0 ** 2 / (2 * cfg.n),
                     -fu * r0 / cfg.n, -fv * r0 / cfg.n])


def _solve(inputs: list[ShootInput], grid: RadialGrid | None):
    """Solve k shots sharing config, r_max and tol as one RK45 system out to r_max.

    The state (u, v, u', v') has shape (2, 2, k) (see _rhs), so error control
    is the RMS over the whole stack.  A column that fails (u or v reaches
    zero) keeps being integrated with the clamped RHS, so every solve samples
    every node.  Returns the grid, which ends at r_max, the (4, k, N) samples
    of u, v, u' and v', their _failed index and the solver's counters nfev,
    accepted and rejected (steps), by name.

    Raises before any solve: ValueError unless the shots share config, r_max
    and tol, if a given grid does not end at r_max, or if the grid (from
    DEFAULT_R0 when none is given) starts above r_max / 10, so that it misses
    the last decade; GridTooCoarse if a column's series start at the first
    node has u or v <= 0 (no zero to bracket) or a slope too steep for a
    regular origin (no profile): u0, v0 too large for that node.
    """
    if not inputs:
        raise ValueError("need at least one shot")
    first = inputs[0]
    cfg, r_max, tol = first.config, first.r_max, first.tol
    if any((inp.config, inp.r_max, inp.tol) != (cfg, r_max, tol) for inp in inputs):
        raise ValueError("shots of a batch must share config, r_max and tol")
    if grid is not None and grid.rmax != r_max:
        raise ValueError(f"the grid ends at rmax = {grid.rmax:g}, not at r_max = "
                         f"{r_max:g}: a shot samples its whole grid")
    # the Taylor handoff sits at the first node: (n-1)/r is singular at 0
    r0 = DEFAULT_R0 if grid is None else grid.r0
    if not r0 <= r_max / 10.0:
        raise ValueError(f"the grid starts at r0 = {r0}, above r_max / 10 for r_max = {r_max}: "
                         f"a shot's decay is read over its last decade [r_max / 10, r_max], "
                         f"so r_max must be at least 10 r0")
    grid = RadialGrid.geometric(rmax=r_max) if grid is None else grid
    start = _taylor_start(cfg, np.array([inp.u0 for inp in inputs]),
                          np.array([inp.v0 for inp in inputs]), grid.r0)
    u, v, du, dv = start
    with np.errstate(over="ignore"):  # a bound that overflows to +-inf compares the right way
        unfit = (np.minimum(u, v) <= 0.0) | steep_at_origin(grid.r0, u, v, du, dv)
    # a non-finite start is left to the solver, which refuses it
    bad = np.flatnonzero(unfit & np.isfinite(start).all(axis=0))
    if bad.size:
        raise GridTooCoarse(
            f"the series start at r0 = {grid.r0:g} has u or v <= 0 or too steep a slope "
            f"in columns {bad.tolist()}: u0, v0 this large need a smaller first node")
    sol = solve_ivp(_rhs(cfg.n, cfg.alpha, cfg.beta, len(inputs)), (grid.r0, grid.rmax),
                    y0=start.reshape(2, 2, -1), t_eval=grid.nodes, rtol=tol, atol=tol)
    if sol.status == -1:  # RK45's only failure: the step size fell below its floor
        raise StepSizeUnderflow(sol.message)
    samples = sol.y.reshape(4, len(inputs), -1)
    counters = {"nfev": sol.nfev, "accepted": sol.accepted, "rejected": sol.rejected}
    return grid, samples, _failed(samples), counters


def _failed(uv: np.ndarray) -> np.ndarray:
    """Each column's first node with min(u, v) <= 0, or N if it has none.

    ``uv`` holds the u and v rows of the k columns first, each of N nodes.
    Returns a (k,) index; NaN never fails a node.  A column is zero from
    its index on.
    """
    failed = np.minimum(uv[0], uv[1]) <= 0.0
    return np.where(failed.any(axis=1), failed.argmax(axis=1), failed.shape[1])


def _profiles(grid: RadialGrid, samples: np.ndarray,
              failed: np.ndarray) -> list[RadialProfilePair]:
    """One profile on ``grid`` per column of the (4, k, N) samples, zero from its _failed index.

    Zero-fills the solver's samples in place (no second copy of the batch).
    """
    for j, m in enumerate(failed):
        samples[:, j, m:] = 0.0
    u, v, du, dv = samples
    return [RadialProfilePair(grid, u[j], v[j], du[j], dv[j]) for j in range(len(failed))]


def integrate_radial_batch(inputs: list[ShootInput],
                           grid: RadialGrid | None = None) -> list[RadialProfilePair]:
    """Solve k shots sharing config, r_max and tol as one system out to r_max.

    A given grid must end at r_max and start at or below r_max / 10 (see
    _solve).  A trajectory whose u or v hits zero is zero from its first
    nonpositive node on (flag available through classify_batch()).
    """
    grid, samples, failed, _ = _solve(inputs, grid)
    return _profiles(grid, samples, failed)


def integrate_radial(inp: ShootInput, grid: RadialGrid | None = None) -> RadialProfilePair:
    """Solve the coupled radial system from the origin out to r_max."""
    return integrate_radial_batch([inp], grid)[0]


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


def _hermite_zero(ra: float, rb: float, ya: np.ndarray, yb: np.ndarray):
    """First zero of u or v on [ra, rb] from the cubic Hermite interpolant.

    ``ya``, ``yb`` are the states (u, v, u', v') at the ends; u and v are
    positive at ra and at least one of them is nonpositive at rb.  Each
    failing component's cubic in s = (r - ra) / h is bisected on [0, 1],
    > 0 at lo and <= 0 at hi, until lo and hi are adjacent floats.
    """
    h = float(rb - ra)
    roots = {}
    for which, i in (("u", 0), ("v", 1)):
        f0, d0, f1, d1 = map(float, (ya[i], ya[i + 2], yb[i], yb[i + 2]))
        if f1 > 0.0:
            continue
        lo, hi = 0.0, 1.0
        while lo < (s := (lo + hi) / 2) < hi:
            cubic = ((2 * s - 3) * s * s + 1) * f0 + (s - 1) ** 2 * s * h * d0 \
                + (3 - 2 * s) * s * s * f1 + (s - 1) * s * s * h * d1
            if cubic > 0.0:
                lo = s
            else:
                hi = s
        roots[which] = ra + h * hi
    which = min(roots, key=roots.get)
    return which, float(roots[which])


def classify_batch(inputs: list[ShootInput],
                   grid: RadialGrid | None = None) -> list[ShootOutcome]:
    """Integrate k shots as one system and classify each trajectory.

    Priority: PositivityFailure if a component reaches zero, else BoundState
    if r^(n-2)u and r^(n-2)v both plateau over the last decade, else NoDecay.
    The zero radius ``at_r`` is the cubic-Hermite root on the two nodes that
    bracket the column's first nonpositive sample.  The grid is checked as in
    integrate_radial_batch.
    """
    grid, samples, failed, counters = _solve(inputs, grid)
    nodes, r_max = grid.nodes, grid.rmax
    last_decade = nodes >= r_max / 10.0
    decade_weight = nodes[last_decade] ** (inputs[0].config.n - 2)  # r^(n-2) there
    zeros = {j: _hermite_zero(nodes[m - 1], nodes[m], samples[:, j, m - 1], samples[:, j, m])
             for j, m in enumerate(failed) if m < len(nodes)}  # before _profiles zero-fills
    outcomes = []
    for j, (inp, prof) in enumerate(zip(inputs, _profiles(grid, samples, failed))):
        crossing = _first_crossing(nodes, prof.u, prof.v)
        diagnostics = {"u0": inp.u0, "v0": inp.v0, "r_reached": float(nodes[failed[j] - 1]),
                       **counters, "batch": len(inputs)}
        if j in zeros:  # a component reached zero
            which, at_r = zeros[j]
            outcomes.append(ShootOutcome(Kind.POSITIVITY_FAILURE, prof, which=which, at_r=at_r,
                                         crossing_r=crossing, diagnostics=diagnostics))
            continue

        plateau = True
        for comp in (prof.u, prof.v):
            w = decade_weight * comp[last_decade]
            spread = (np.max(w) - np.min(w)) / max(np.mean(np.abs(w)), 1e-300)
            diagnostics.setdefault("plateau_spread", []).append(float(spread))
            plateau &= spread < DECAY_PLATEAU_RTOL
        kind = Kind.BOUND_STATE if plateau else Kind.NO_DECAY
        outcomes.append(ShootOutcome(kind, prof, at_r=None if plateau else r_max,
                                     crossing_r=crossing, diagnostics=diagnostics))
    return outcomes


def classify(inp: ShootInput, grid: RadialGrid | None = None) -> ShootOutcome:
    """Integrate and classify one trajectory (see classify_batch)."""
    return classify_batch([inp], grid)[0]


def uniqueness_sweep(config: ExponentConfig, ratios, base: float = 1.0,
                     grid: RadialGrid | None = None, tol: float = 1e-10) -> list[ShootOutcome]:
    """Classify (u0, v0) = (base, ratio*base) for each ratio, out to grid.rmax.

    One outcome per ratio, in order, from one stacked solve (see classify_batch).

    Only meaningful in the ordered regime alpha < beta, where a bound state
    should occur exactly at ratio 1.
    """
    if not config.uniqueness_applicable:
        raise HypothesisNotApplicable(
            f"need alpha < beta, got ({config.alpha}, {config.beta})")
    grid = RadialGrid.default() if grid is None else grid
    ratios = list(ratios)
    if not base > 0.0:
        raise NonpositiveInput(f"base must be positive, got {base}")
    for rho in ratios:
        if not rho > 0.0:
            raise NonpositiveInput(f"ratios must be positive, got {rho}")
    return classify_batch([ShootInput(config, base, rho * base, r_max=grid.rmax, tol=tol)
                           for rho in ratios], grid)


def sweep_consistent(ratios, outcomes: list[ShootOutcome]) -> bool:
    """True iff the sweep has outcomes and BoundState occurs exactly at ratio 1.

    ``outcomes`` are the sweep's, one per ratio; lists of different lengths
    raise ValueError.  Ratios within DIAGONAL_WINDOW of 1 count as the
    diagonal: shooting cannot resolve it more finely.
    """
    pairs = list(zip(ratios, outcomes, strict=True))
    return bool(pairs) and all((abs(rho - 1.0) <= DIAGONAL_WINDOW)
                               == (out.kind is Kind.BOUND_STATE) for rho, out in pairs)


def _cumulative_nested(forcing: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Cumulative value of int_0^r tau^(1-n) int_0^tau s^(n-1) f ds dtau.

    Trapezoid both levels (the inner one is the potential's derivative,
    -u', which unlike the potential accepts a signed forcing); the [0, r0]
    head contributes O(r0^2) and is dropped.
    """
    return cumulative_trapezoid(-newton_potential_derivative(forcing, grid, n), grid.nodes)


def check_integral_identity(profile: RadialProfilePair, config: ExponentConfig,
                            radii) -> IntegralIdentityReport:
    """Verify u(r) = u(0) - nested integral (and the v analogue) at radii.

    Radii are snapped to the nearest grid node so the comparison isolates the
    quadrature error; r = 0 is allowed and both sides vanish there exactly.
    Empty radii, or a radius that is negative or not finite, raise ValueError.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise ValueError("radii is empty: need at least one radius to check")
    if not (np.isfinite(radii) & (radii >= 0.0)).all():
        raise ValueError(f"radii must be finite and nonnegative, got {radii.tolist()}")
    r = profile.grid.nodes
    u, v = profile.u, profile.v
    # u(0), v(0) from the first sample: the offset is O(r0^2)
    u0, v0 = float(u[0]), float(v[0])
    fu, fv = config.forcing(u, v)
    nested_u = _cumulative_nested(fu, profile.grid, config.n)
    nested_v = _cumulative_nested(fv, profile.grid, config.n)

    i = np.argmin(np.abs(r[:, None] - radii), axis=0)
    inside = radii > r[0]

    def at(values):  # snapped samples; zero at radii <= r0
        return np.where(inside, values[i], 0.0)

    return IntegralIdentityReport(at(r), at(u0 - u), at(nested_u), at(v0 - v), at(nested_v))


def contradiction_witness(profile: RadialProfilePair,
                          config: ExponentConfig) -> np.ndarray:
    """W(r) = int_0^r tau^(1-n) int_0^tau s^(n-1)(u^a v^b - u^b v^a), accumulated.

    v - u = (v0 - u0) + W.  For alpha < beta and positive u, v, the integrand
    has the sign of v - u, so W has the sign of v0 - u0, for either order,
    and grows in size: |v - u| never falls and the shot never crosses the
    diagonal (the crossing argument).
    """
    fu, fv = config.forcing(profile.u, profile.v)
    return _cumulative_nested(fu - fv, profile.grid, config.n)
