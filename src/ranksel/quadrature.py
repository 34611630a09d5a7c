"""Composite Gauss-Kronrod (G10, K21) quadrature on graded panels with local refinement.

The critical-constant integrands mix a heavy-tailed density (support out to
t-quantiles near 1e-12 tail mass, i.e. |t| up to ~1e6 for two degrees of
freedom) with a sigmoid whose transition zone scales roughly like |t|.
Uniform panels are hopeless on such domains, so panels are laid out
geometrically around caller-supplied anchor points: each anchor spaces edges
in octaves (1, 2, 4, ... away) up to the next anchor on each side, or to the
domain end where there is none.  Octaves that ran on past a neighbouring
anchor would fall |a - b| beside the neighbour's own and cut the far field
into slivers of that width.  Each pass applies
QUADPACK's 21-point Kronrod rule to its panels (Piessens et al. 1983,
qk21) and takes |K21 - G10| as each panel's error estimate, from the same
integrand values.  While the summed estimate is above tolerance, the panels
with the smallest estimates are kept as long as their sum stays within half
the tolerance, and only the rest are halved: the next pass evaluates just
the new halves (QUADPACK's adaptive idea, one numpy pass at a time).

An integrand may also return two stacked rows, shape ``(2, n)``: row 0 is
the integral being computed and alone decides refinement, row 1 is summed
on the same nodes (the root solver gets its derivative this way, from the
same CDF evaluations as the value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Panel refinement did not reach the requested error estimate."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    nodes: int
    refinements: int
    # sum of |K21 - G10| over the final panels: the kept ones and the last pass's
    error_estimate: float
    # integral of row 1 of a stacked (2, n) integrand; None for one row
    companion: float | None = None


# Kronrod nodes on [-1, 1] in descending order: the 10 Gauss nodes sit at the
# odd positions (QUADPACK qk21, as in scipy.integrate._quad_vec)
_XK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WK_CENTER = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
KRONROD_NODES = np.concatenate((_XK, [0.0], -_XK[::-1]))
KRONROD_WEIGHTS = np.concatenate((_WK, [_WK_CENTER], _WK[::-1]))
# the G10 rule on the same 21 nodes: zero weight on the Kronrod-only ones
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1::2] = np.concatenate((_WG, _WG[::-1]))
_ERROR_WEIGHTS = KRONROD_WEIGHTS - GAUSS_WEIGHTS
# panel_quadrature's stopping rule and its cap on refinement passes
ABS_TOL = 1e-13
REL_TOL = 1e-11
MAX_REFINEMENTS = 8


def geometric_edges(lo: float, hi: float, anchors: tuple[float, ...]) -> np.ndarray:
    """Panel edges on [lo, hi] spaced in octaves away from each anchor.

    An anchor a lays edges at a - 1, a - 2, a - 4, ... while they stay above
    the next anchor below it (or lo), and at a + 1, a + 2, ... while they stay
    below the next anchor above it (or hi); the anchors themselves, clamped to
    [lo, hi], are edges too.  Outside the anchors' hull every panel but the
    one at the domain end is an octave of the nearer anchor, s to 2s from it.
    ``lo``, ``hi``, the width hi - lo and every anchor must be finite
    (ValueError).
    """
    if not all(map(math.isfinite, (lo, hi, hi - lo, *anchors))):
        raise ValueError(f"interval [{lo}, {hi}], its width and anchors {anchors} must be finite")
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    span = hi - lo
    anchors = sorted(anchors)
    edges = [lo, hi]
    for i, a in enumerate(anchors):
        edges.append(min(max(a, lo), hi))
        left = max(lo, anchors[i - 1]) if i else lo
        right = min(hi, anchors[i + 1]) if i + 1 < len(anchors) else hi
        for direction, limit in ((-1.0, left), (1.0, right)):
            step = 1.0
            while step < span and direction * (limit - a) > step:
                e = a + direction * step
                if lo < e < hi:
                    edges.append(e)
                step *= 2.0
    edges.sort()
    # drop repeated edges and panels negligibly thin relative to the domain;
    # each edge is compared with its sorted predecessor, kept or not
    thin = 1e-12 * span
    return np.array(edges[:1] + [b for a, b in zip(edges, edges[1:]) if b - a > thin])


def panel_quadrature(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> QuadratureResult:
    """Integrate a vectorized f over the panels defined by ``edges``.

    ``edges`` must be a 1-D, strictly increasing array of at least two
    finite values (ValueError, before f is called).  Each pass calls f once
    on the 21 Kronrod nodes of its panels and stops when the sum of
    |K21 - G10| over all panels is within ``max(ABS_TOL, REL_TOL * |K21|)``.
    Otherwise the panels with the smallest estimates are kept while their
    sum stays within half that tolerance, and the rest are halved for the
    next pass; ``refinements`` counts the passes after the first.  When f
    returns a ``(2, n)`` stack, row 0 is that total and row 1 comes back as
    ``companion``.  Refinement reads row 0 only: the companion has no error
    estimate or tolerance of its own, and is as accurate as row 0's nodes
    make it (see hconst.dd_prob_with_slope for the h-slope's).
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.isfinite(edges).all()
            and (edges[1:] > edges[:-1]).all()):
        raise ValueError(
            f"panel edges must be a 1-D strictly increasing array of at least two "
            f"finite values, got {edges!r}"
        )
    lefts, rights = edges[:-1], edges[1:]
    # K21 sums (value row, companion row) and error sum of the panels kept so far
    kept = np.zeros(2)
    kept_error = 0.0
    nodes_used = 0
    for refinement in range(MAX_REFINEMENTS + 1):
        mids = 0.5 * (rights + lefts)
        halfs = 0.5 * (rights - lefts)
        xs = (mids[:, None] + halfs[:, None] * KRONROD_NODES[None, :]).ravel()
        fx = f(xs)
        nodes_used += xs.size
        per_panel = fx.reshape(-1, mids.size, 21)  # (rows, panels, nodes)
        kronrod = (per_panel @ KRONROD_WEIGHTS) * halfs
        errors = np.abs(per_panel[0] @ _ERROR_WEIGHTS) * halfs
        value = float(kept[0] + kronrod[0].sum())
        error = float(kept_error + errors.sum())
        tol = max(ABS_TOL, REL_TOL * abs(value))
        if error <= tol:
            companion = float(kept[1] + kronrod[1].sum()) if fx.ndim == 2 else None
            return QuadratureResult(value, nodes_used, refinement, error, companion)
        # keep the most accurate panels while their errors sum to at most
        # half the tolerance, halve the rest
        order = np.argsort(errors, kind="stable")
        summed = kept_error + np.cumsum(errors[order])
        n_kept = int(np.searchsorted(summed, 0.5 * tol, side="right"))
        if n_kept:
            kept[:kronrod.shape[0]] += kronrod[:, order[:n_kept]].sum(axis=1)
            kept_error = float(summed[n_kept - 1])
        halve = np.sort(order[n_kept:])
        lefts, mids, rights = lefts[halve], mids[halve], rights[halve]
        lefts, rights = (np.column_stack((lefts, mids)).ravel(),
                         np.column_stack((mids, rights)).ravel())
    raise QuadratureError(
        f"no convergence after {MAX_REFINEMENTS} refinements ({lefts.size} panels still to refine)"
    )
