"""Critical constants for the two-stage selection procedures.

The Dudewicz-Dalal constant h solves

    p = integral of G_nu(t + h)^k * g_nu(t) dt,

the Rinott constant solves

    p = [ integral of G_nu(t + h) * g_nu(t) dt ]^k,

where G_nu / g_nu are the t CDF / PDF with nu degrees of freedom and k is
the number of competitor populations.  Both left-hand sides are smooth and
strictly increasing in h, so a bracketed Brent search on top of the graded
quadrature engine solves them to a p-space residual below 1e-8.

The Rinott equation is solved in the power-free restatement

    qbar(h) = -expm1(log(p) / k),   qbar(h) = integral of G_nu(-(t+h)) g_nu(t) dt,

which works on the (small, fully-precise) pairwise tail probability and
avoids raising a near-one number to the k-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from ranksel.distributions import RandomStream, _t_logpdf, _check_nu, map_blocks, t_logcdf, t_quantile
from ranksel.quadrature import QuadratureError, geometric_edges, panel_quadrature

__all__ = [
    "DD",
    "RINOTT",
    "HEquationSpec",
    "HConstant",
    "MCEstimate",
    "HTableRow",
    "SolverError",
    "BracketExpansionError",
    "pairwise_prob",
    "dd_prob",
    "solve_h",
    "mc_oracle",
    "h_table",
]

DD = "dd"
RINOTT = "rinott"
VARIANTS = (DD, RINOTT)

P_RESIDUAL_TOL = 1e-8
H_INTERVAL_TOL = 1e-10
_TAIL_MASS = 1e-12
_MAX_BRACKET_EXPANSIONS = 200
_ORACLE_CHUNK_ELEMENTS = 4_000_000
# Integrals kept per process.  A solve asks for its bracket ends and its
# root twice (bracket search and brentq; brentq and the residual), and the
# Rinott bracket points do not depend on k, so a bounded cache removes those
# repeats without changing a bit of any result.
_INTEGRAL_CACHE_SIZE = 4096


class SolverError(RuntimeError):
    """The critical-constant solver could not meet its residual contract."""


class BracketExpansionError(SolverError):
    """Geometric bracket expansion hit its retry limit (pathological spec)."""


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {p}")
    return p


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


@dataclass(frozen=True)
class HEquationSpec:
    """One critical-constant equation: k competitors, nu dof, target p."""

    k: int
    nu: int
    p: float
    variant: str

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        _check_nu(self.nu)
        _check_probability(self.p)
        _check_variant(self.variant)


@dataclass(frozen=True)
class HConstant:
    """Solved critical constant with solver diagnostics."""

    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    quadrature_nodes: int


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    replications: int


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


def _integral_domain(nu: int, h: float) -> tuple[float, float, tuple[float, float]]:
    T = _tail_cutoff(nu)
    lo = min(-T, -T + h)
    hi = max(T, T + h)
    return lo, hi, (0.0, -h)


@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _dd_integral(h: float, k: int, nu: int) -> tuple[float, int]:
    """integral of exp(k * log G(t+h) + log g(t)); log-domain for large k."""
    lo, hi, anchors = _integral_domain(nu, h)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(k * t_logcdf(t + h, nu) + _t_logpdf(t, nu))

    res = panel_quadrature(integrand, geometric_edges(lo, hi, anchors))
    return res.value, res.nodes


@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _pairwise_tail(h: float, nu: int) -> tuple[float, int]:
    """integral of G(-(t+h)) g(t) dt = P(T2 - T1 > h), fully precise when small."""
    lo, hi, anchors = _integral_domain(nu, h)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(t_logcdf(-(t + h), nu) + _t_logpdf(t, nu))

    res = panel_quadrature(integrand, geometric_edges(lo, hi, anchors))
    return res.value, res.nodes


def dd_prob(h: float, k: int, nu: int) -> float:
    """P(max of k independent t_nu minus one more t_nu <= h).

    Evaluates the Dudewicz-Dalal left-hand side.  The k-th CDF power is
    accumulated as k*log(G) per node, so k up to 1e5 and beyond stays in
    range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nu = _check_nu(nu)
    value, _ = _dd_integral(float(h), int(k), nu)
    return min(max(value, 0.0), 1.0)


def pairwise_prob(h: float, nu: int) -> float:
    """P(T2 - T1 <= h) for independent t_nu variables; equals dd_prob at k=1."""
    return dd_prob(h, 1, nu)


def _expand_bracket(fn: Callable[[float], float]) -> tuple[float, float, float, float, int]:
    """Bracket the root of an increasing fn, expanding geometrically.

    Starts from [0, 1]; mirrors below zero when fn(0) is already positive.
    Returns (lo, hi, f_lo, f_hi, expansions).
    """
    f0 = fn(0.0)
    expansions = 0
    if f0 == 0.0:
        return 0.0, 0.0, 0.0, 0.0, 0
    if f0 > 0.0:
        hi, f_hi = 0.0, f0
        lo = -1.0
        f_lo = fn(lo)
        while f_lo > 0.0:
            expansions += 1
            if expansions > _MAX_BRACKET_EXPANSIONS:
                raise BracketExpansionError(
                    f"no sign change after {_MAX_BRACKET_EXPANSIONS} downward expansions"
                )
            hi, f_hi = lo, f_lo
            lo *= 2.0
            f_lo = fn(lo)
        return lo, hi, f_lo, f_hi, expansions
    lo, f_lo = 0.0, f0
    hi = 1.0
    f_hi = fn(hi)
    while f_hi < 0.0:
        expansions += 1
        if expansions > _MAX_BRACKET_EXPANSIONS:
            raise BracketExpansionError(
                f"no sign change after {_MAX_BRACKET_EXPANSIONS} upward expansions"
            )
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = fn(hi)
    return lo, hi, f_lo, f_hi, expansions


def solve_h(spec: HEquationSpec) -> HConstant:
    """Solve `spec`'s equation for h to a p-space residual below 1e-8."""
    nodes_seen = [0]

    if spec.variant == DD:
        def fn(h: float) -> float:
            value, nodes = _dd_integral(h, spec.k, spec.nu)
            nodes_seen[0] = max(nodes_seen[0], nodes)
            return value - spec.p

        def residual_at(h: float) -> float:
            value, _ = _dd_integral(h, spec.k, spec.nu)
            return abs(value - spec.p)
    else:
        target_q = -math.expm1(math.log(spec.p) / spec.k)

        def fn(h: float) -> float:
            value, nodes = _pairwise_tail(h, spec.nu)
            nodes_seen[0] = max(nodes_seen[0], nodes)
            return target_q - value

        def residual_at(h: float) -> float:
            value, _ = _pairwise_tail(h, spec.nu)
            implied_p = math.exp(spec.k * math.log1p(-min(value, 1.0 - 1e-300)))
            return abs(implied_p - spec.p)

    try:
        lo, hi, f_lo, f_hi, expansions = _expand_bracket(fn)
        if lo == hi:
            root, iterations = 0.0, expansions
        elif f_lo == 0.0:
            root, iterations = lo, expansions
        elif f_hi == 0.0:
            root, iterations = hi, expansions
        else:
            root, results = brentq(
                fn, lo, hi, xtol=H_INTERVAL_TOL, rtol=8.9e-16, full_output=True
            )
            iterations = results.iterations + expansions
        residual = residual_at(root)
    except QuadratureError as err:
        raise SolverError(f"quadrature failed for {spec}: {err}") from err
    if not residual < P_RESIDUAL_TOL:
        raise SolverError(
            f"residual {residual:.3e} above {P_RESIDUAL_TOL} for {spec}"
        )
    return HConstant(float(root), residual, (lo, hi), iterations, nodes_seen[0])


def mc_oracle(
    spec: HEquationSpec, h: float, replications: int, rng: RandomStream
) -> MCEstimate:
    """Brute-force Monte Carlo estimate of `spec`'s selection probability at h.

    Kept independent of the quadrature/CDF path: the DD event draws k
    competitors plus a reference and compares the max, the Rinott event
    draws k independent pairs and requires every difference under h.
    Replications run in blocks of about _ORACLE_CHUNK_ELEMENTS variates,
    block b from ``rng.substream(b)`` (see map_blocks), so the estimate does
    not depend on the CPU count.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    k, nu = spec.k, spec.nu
    per_rep = (k + 1) if spec.variant == DD else 2 * k

    def block(stream: RandomStream, n: int) -> int:
        gen = stream.generator
        if spec.variant == DD:
            draws = gen.standard_t(nu, size=(n, k + 1))
            return int(np.count_nonzero(draws[:, :k].max(axis=1) <= draws[:, k] + h))
        draws = gen.standard_t(nu, size=(n, k, 2))
        diffs = draws[:, :, 0] - draws[:, :, 1]
        return int(np.count_nonzero(diffs.max(axis=1) <= h))

    hits = sum(map_blocks(block, replications, per_rep, _ORACLE_CHUNK_ELEMENTS, rng))
    value = hits / replications
    std_error = math.sqrt(value * (1.0 - value) / replications)
    return MCEstimate(value, std_error, replications)


def _resolve_nu(nu_for: int | Callable[[int], int], k: int) -> int:
    if callable(nu_for):
        return _check_nu(nu_for(k))
    return _check_nu(nu_for)


def h_table(
    ks: Sequence[int],
    nu_for: int | Callable[[int], int],
    p: float,
) -> list[HTableRow]:
    """Solve both variants over ascending ks and tabulate the h ratio.

    nu_for is one degrees-of-freedom value for every row, or a function
    giving nu for each k.

    The ratio column is h_rinott / h_dd; it is NaN when the DD constant is
    numerically zero (p at the symmetry point), since the ratio is then a
    0/0 form.
    """
    ks = list(ks)
    if not ks:
        raise ValueError("ks must be non-empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly ascending")
    _check_probability(p)

    def row(k: int) -> HTableRow:
        nu = _resolve_nu(nu_for, k)
        try:
            dd = solve_h(HEquationSpec(k, nu, p, DD))
            rinott = solve_h(HEquationSpec(k, nu, p, RINOTT))
        except SolverError as err:
            raise SolverError(f"k={k}: {err}") from err
        ratio = rinott.value / dd.value if abs(dd.value) > 1e-10 else float("nan")
        return HTableRow(k, nu, p, dd, rinott, ratio)

    return [row(k) for k in ks]
