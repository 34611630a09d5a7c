"""Critical constants for the two-stage selection procedures.

Both critical-constant equations are functionals of one integral,

    P_k(h) = integral of G_nu(t + h)^k * g_nu(t) dt,

where G_nu / g_nu are the t CDF / PDF with nu degrees of freedom and k is
the number of competitor populations: the Dudewicz-Dalal constant h solves
P_k(h) = p, the Rinott constant P_1(h)^k = p.  Both left-hand sides are
smooth and strictly increasing in h, so a safeguarded Newton iteration on
top of the graded quadrature engine solves them to a p-space residual
below 1e-8.  Each quadrature pass returns the h-derivative beside the
value, from the same t CDF evaluations, so every step costs one integral.

The Rinott equation is solved in the power-free restatement

    qbar(h) = -expm1(log(p) / k),   qbar(h) = P(T2 - T1 > h) = P_1(-h),

the last step by the symmetry of g_nu.  It works on the (small,
fully-precise) pairwise tail probability and avoids raising a near-one
number to the k-th power.  A negative root (p^(1/k) < 1/2) solves the
mirrored form qbar(-h) = p^(1/k), again on a tail below 1/2.

Both equations are exact at h = 0 (the DD left-hand side is 1/(k+1), qbar
is 1/2), which gives the sign of the root before any integral.  The solver
then works on the tail beyond the root as a decreasing function of |h|.
From the second integral on, the next |h| solves the cubic Hermite
interpolant of the log tail against log |h| through the last two
evaluated points, from their values and slopes.  Where that step is
undefined or leaves the bracket, a Newton step from the latest point is
taken instead: far from the root in log |h| on the log tail, which is
close to linear for t tails, near the root on the tail itself.  A Newton
step that leaves the bracket of evaluated points doubles (bracket open on
one side) or bisects.  Only the Newton step at the latest point, or the
bracket width, ends a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.special import stdtrit

from ranksel.distributions import (
    ScheduleSpec, _check_choice, _check_count, _t_logpdf, t_logcdf, t_quantile,
)
from ranksel.quadrature import QuadratureError, geometric_edges, panel_quadrature

__all__ = [
    "DD",
    "RINOTT",
    "HEquationSpec",
    "HConstant",
    "HTableRow",
    "SolverError",
    "dd_prob",
    "dd_prob_with_slope",
    "solve_h",
    "h_table",
]

DD = "dd"
RINOTT = "rinott"
VARIANTS = (DD, RINOTT)

P_RESIDUAL_TOL = 1e-8
H_INTERVAL_TOL = 1e-10
_TAIL_MASS = 1e-12
_MAX_SOLVER_STEPS = 200
# Newton steps go on the log tail while the tail is more than this factor
# away from its target, on the tail itself nearer the root
_LOG_STEP_RATIO = 1.01
# A step changes |h| by at most this factor: from a tail near its h = 0
# value a Newton line aims far past the root, where the quadrature may fail
_MAX_STEP_FACTOR = 1024.0
# Newton iterations on the Hermite interpolant before its step is abandoned
_HERMITE_ITERATIONS = 30
# Largest |h| the solver evaluates; beyond it the panel edges overflow
_H_LIMIT = 1e300
# Integrals kept per process.  A solve takes its residual from the same
# evaluation as its last Newton step, so hits come only from a spec solved
# again by a later call in the same process (a second command on the same
# k, nu and p); the bounded cache returns those without changing a bit of
# any result.
_INTEGRAL_CACHE_SIZE = 4096


class SolverError(RuntimeError):
    """The critical-constant solver could not meet its residual contract."""


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {p}")
    return p


@dataclass(frozen=True)
class HEquationSpec:
    """One critical-constant equation: k competitors, nu dof, target p."""

    k: int
    nu: int
    p: float
    variant: str

    def __post_init__(self):
        # an integer, as dd_prob reads it: k = 2.5 would solve G^2.5 here
        object.__setattr__(self, "k", _check_count(self.k, "k"))
        object.__setattr__(self, "nu", _check_count(self.nu, "degrees of freedom"))
        _check_probability(self.p)
        _check_choice(self.variant, VARIANTS, "variant")


@dataclass(frozen=True)
class HConstant:
    """Solved critical constant with solver diagnostics."""

    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    quadrature_nodes: int


@dataclass(frozen=True)
class HTableRow:
    k: int
    nu: int
    p: float
    dd: HConstant
    rinott: HConstant
    ratio: float


@lru_cache(maxsize=None)
def _tail_cutoff(nu: int) -> float:
    return t_quantile(1.0 - _TAIL_MASS, nu)


@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _dd_integral(h: float, k: int, nu: int) -> tuple[float, int, float]:
    """integral of exp(k * log G(t+h) + log g(t)), its node count and h-derivative.

    Log-domain for large k; the derivative integrand is
    k * G(t+h)^(k-1) * g(t+h) * g(t), from the same log G values.  At k = 1
    and h = -u it is the pairwise tail P(T2 - T1 > u), fully precise when
    small: the Rinott equation's left-hand side.
    """
    T = _tail_cutoff(nu)

    def integrand(t: np.ndarray) -> np.ndarray:
        n = t.size
        shifted = t + h
        log_cdf = t_logcdf(shifted, nu)
        # log g(t) in the first half, log g(t + h) in the second
        log_pdf = _t_logpdf(np.concatenate((t, shifted)), nu)
        log_slope = log_pdf[n:] + log_pdf[:n]
        if k > 1:  # at k = 1, G^0 = 1 also where log G is -inf
            log_slope += (k - 1) * log_cdf
        out = np.empty((2, n))
        np.exp(k * log_cdf + log_pdf[:n], out=out[0])
        np.exp(log_slope, out=out[1])
        out[1] *= k
        return out

    edges = geometric_edges(min(-T, -T + h), max(T, T + h), (0.0, -h))
    res = panel_quadrature(integrand, edges)
    return res.value, res.nodes, res.companion


def dd_prob(h: float, k: int, nu: int) -> float:
    """P(max of k independent t_nu minus one more t_nu <= h).

    Evaluates the Dudewicz-Dalal left-hand side.  The k-th CDF power is
    accumulated as k*log(G) per node, so k up to 1e5 and beyond stays in
    range.
    """
    return dd_prob_with_slope(h, k, nu)[0]


def dd_prob_with_slope(h: float, k: int, nu: int) -> tuple[float, float]:
    """dd_prob(h, k, nu) and its derivative in h, both from one integral.

    The derivative is the integral of k * G(t+h)^(k-1) * g(t+h) * g(t), summed
    on the value's nodes: the quadrature refines on the value (row 0) alone,
    so only the value meets the 1e-11 relative tolerance.  The slope's own
    error, measured at k = 1 and nu = 1 against the closed form
    2 / (pi (4 + x^2)) at h = -x, is 1.9e-13 relative at x = 1e6, 6e-11 at
    1e8 and 1.5e-8 at 5e10: its integrand peaks within a unit of t = x,
    where t + h rounds at ulp(x).
    """
    k = _check_count(k, "k")
    nu = _check_count(nu, "degrees of freedom")
    value, _, slope = _dd_integral(float(h), k, nu)
    return min(max(value, 0.0), 1.0), slope


def _first_guess(nu: int, tail: float) -> float:
    """|h| at which P(T2 - T1 > |h|) is about ``tail`` (< 1/2), from t quantiles.

    The larger of the near-normal answer (T2 - T1 about sqrt(2) times a t
    variable) and the heavy-tail one (twice the single-variable tail).
    """
    guess = -float(min(math.sqrt(2.0) * stdtrit(nu, tail), stdtrit(nu, 0.5 * tail)))
    return guess if 0.0 < guess < math.inf else 1.0


def solve_h(spec: HEquationSpec) -> HConstant:
    """Solve `spec`'s equation for h to a p-space residual below 1e-8.

    The iteration runs on u = |h| and on the tail beyond the root, which
    falls from its exact h = 0 value towards 0 as u grows: 1 - P (DD) or
    qbar(h) (Rinott) for a positive root, P or qbar(|h|) = 1 - qbar(h)
    for a negative one.  From the second integral on, each step goes to
    the root of the cubic Hermite interpolant of (log u, log tail) through
    the last two points or, where that is undefined or outside the bracket,
    is the Newton step at the latest point.  The solve stops when that
    Newton step is below H_INTERVAL_TOL + 8.9e-16 * |h|, or the bracket is
    that narrow, never on the Hermite step alone, and returns the last
    point it evaluated, with the residual of that point's integral.
    ``iterations`` counts integrals asked for, ``bracket`` holds
    the nearest evaluated h on each side of the root (the root itself on a
    side where none was evaluated).
    """
    k, nu, p = spec.k, spec.nu, spec.p
    if spec.variant == DD:
        value_at_0 = 1.0 / (k + 1)
        sign = (p > value_at_0) - (p < value_at_0)
        goal = p if sign < 0 else 1.0 - p
        # a positive DD root starts from the Rinott one's pairwise tail
        guess_tail = p if sign < 0 else -math.expm1(math.log(p) / k)

        def evaluate(u: float) -> tuple[float, float, float, int, float]:
            value, nodes, slope = _dd_integral(sign * u, k, nu)
            residual = abs(value - p)
            if sign < 0:
                return value, value - p, -slope, nodes, residual
            # the gap from the value, not the tail: 1 - value drops the
            # digits of a small DD value
            return 1.0 - value, p - value, -slope, nodes, residual
    else:
        log_root = math.log(p) / k
        target = -math.expm1(log_root)  # qbar at the root
        sign = (target < 0.5) - (target > 0.5)
        # the tail beyond a root h = -u is 1 - qbar(-u) = qbar(u), which the
        # integral gives to full precision, and p^(1/k) is its goal
        goal = target if sign >= 0 else math.exp(log_root)
        guess_tail = goal

        def evaluate(u: float) -> tuple[float, float, float, int, float]:
            # qbar(u) = P(T2 - T1 > u) = P_1(-u) by the symmetry of g
            tail, nodes, slope = _dd_integral(-u, 1, nu)
            if sign >= 0:
                implied_p = math.exp(k * math.log1p(-tail))
            else:
                implied_p = math.exp(k * math.log(tail)) if tail > 0.0 else 0.0
            return tail, tail - goal, -slope, nodes, abs(implied_p - p)

    # h = 0 solves the equation exactly when sign is 0; one integral there
    # gives the residual
    u = _first_guess(nu, guess_tail) if sign else 0.0
    lo, hi = 0.0, math.inf  # u with the tail above / below its goal
    last_step = step_before = math.inf
    nodes_max = 0
    previous = None  # (u, tail, slope) of the evaluation before the latest
    try:
        for iterations in range(1, _MAX_SOLVER_STEPS + 1):
            if not u <= _H_LIMIT:
                raise SolverError(f"no root below |h| = {_H_LIMIT:g} for {spec}")
            tail, gap, slope, nodes, residual = evaluate(u)
            nodes_max = max(nodes_max, nodes)
            if sign == 0:
                break
            if gap > 0.0:
                lo = u
            elif gap < 0.0:
                hi = u
            else:
                break
            step = _newton_step(u, tail, goal, gap, slope)
            tol = H_INTERVAL_TOL + 8.9e-16 * u
            if abs(step) <= tol or hi - lo <= tol:
                break
            new = _hermite_point(previous, (u, tail, slope), goal) if previous else math.nan
            if not lo < new < hi:
                new = min(max(u + step, u / _MAX_STEP_FACTOR), u * _MAX_STEP_FACTOR)
                if not lo < new < hi or (hi < math.inf and abs(step) > 0.5 * step_before):
                    new = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
            previous = (u, tail, slope)
            step_before, last_step = last_step, abs(new - u)
            u = new
        else:
            raise SolverError(f"no convergence after {_MAX_SOLVER_STEPS} steps for {spec}")
    except QuadratureError as err:
        raise SolverError(f"quadrature failed for {spec}: {err}") from err
    if not residual < P_RESIDUAL_TOL:
        raise SolverError(
            f"residual {residual:.3e} above {P_RESIDUAL_TOL} for {spec}"
        )
    if hi == math.inf:  # no point evaluated beyond the root
        hi = u
    bracket = (lo, hi) if sign >= 0 else (-hi, -lo)
    return HConstant(float(sign * u), residual, bracket, iterations, nodes_max)


def _newton_step(u: float, tail: float, goal: float, gap: float, slope: float) -> float:
    """Newton step in u towards tail = goal, given gap = tail - goal and d tail / du = slope < 0.

    Far from the goal the step is taken on log tail against log u; NaN when
    the slope is unusable, which the caller's bracket test turns into a
    doubling or a bisection.
    """
    if not slope < 0.0:
        return math.nan
    ratio = tail / goal if tail > 0.0 and goal > 0.0 else 1.0
    if not 1.0 / _LOG_STEP_RATIO < ratio < _LOG_STEP_RATIO:
        log_slope = u * slope / tail
        if log_slope < 0.0:
            return u * math.expm1(min(-math.log(ratio) / log_slope, 700.0))
    return -gap / slope


def _hermite_point(first: tuple, second: tuple, goal: float) -> float:
    """u where the cubic Hermite interpolant of log tail against log u meets log goal.

    ``first`` and ``second`` are (u, tail, d tail / du) at two evaluated
    points, ``second`` the latest.  The interpolant matches both values and
    slopes; Newton's method on it starts at the latest point.  NaN when the
    data are degenerate (a point that is not positive, a slope that is not
    negative, the same u twice), when the interpolant is not decreasing
    along the way, or when the root lies more than _MAX_STEP_FACTOR away in u.
    """
    (u0, tail0, slope0), (u1, tail1, slope1) = first, second
    if not (u0 > 0.0 and u1 > 0.0 and tail0 > 0.0 and tail1 > 0.0
            and slope0 < 0.0 and slope1 < 0.0):
        return math.nan
    y0, y1 = math.log(tail0), math.log(tail1)
    d = math.log(u1 / u0)
    if d == 0.0:
        return math.nan
    # y(x0 + s d) = y0 + s (c1 + s (c2 + s c3)); s = 1 is the latest point
    c1 = d * u0 * slope0 / tail0
    m1 = d * u1 * slope1 / tail1
    c2 = 3.0 * (y1 - y0) - 2.0 * c1 - m1
    c3 = 2.0 * (y0 - y1) + c1 + m1
    offset = y0 - math.log(goal)
    limit = math.log(_MAX_STEP_FACTOR) / abs(d)
    s = 1.0
    for _ in range(_HERMITE_ITERATIONS):
        derivative = c1 + s * (2.0 * c2 + 3.0 * s * c3)
        if not derivative / d < 0.0:
            return math.nan
        delta = (offset + s * (c1 + s * (c2 + s * c3))) / derivative
        s -= delta
        if not abs(s - 1.0) <= limit:
            return math.nan
        if abs(delta) <= 1e-15 * max(1.0, abs(s)):
            return u1 * math.exp((s - 1.0) * d)
    return math.nan


def h_table(ks: Iterable[int], schedule: ScheduleSpec, p: float) -> list[HTableRow]:
    """Solve both variants at each (k, nu) of ``schedule.grid(ks)`` and tabulate the h ratio.

    The ratio column is h_rinott / h_dd; it is NaN when the DD constant is
    numerically zero (|h_dd| <= 1e-10, p at the symmetry point), since the
    ratio is then a 0/0 form.  A SolverError names the k it failed at.
    """
    grid = schedule.grid(ks)
    _check_probability(p)

    def row(k: int, nu: int) -> HTableRow:
        try:
            dd = solve_h(HEquationSpec(k, nu, p, DD))
            rinott = solve_h(HEquationSpec(k, nu, p, RINOTT))
        except SolverError as err:
            raise SolverError(f"k={k}: {err}") from err
        ratio = rinott.value / dd.value if abs(dd.value) > 1e-10 else float("nan")
        return HTableRow(k, nu, p, dd, rinott, ratio)

    return [row(k, nu) for k, nu in grid]
