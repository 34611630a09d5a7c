"""Composite Gauss-Legendre quadrature on graded panels with global refinement.

The critical-constant integrands mix a heavy-tailed density (support out to
t-quantiles near 1e-12 tail mass, i.e. |t| up to ~1e6 for two degrees of
freedom) with a sigmoid whose transition zone scales roughly like |t|.
Uniform panels are hopeless on such domains, so panels are laid out
geometrically around caller-supplied anchor points and every refinement
pass halves all panels until two successive totals agree.

An integrand may also return two stacked rows, shape ``(2, n)``: row 0 is
the integral being computed and alone decides refinement, row 1 is summed
on the same nodes (the root solver gets its derivative this way, from the
same CDF evaluations as the value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Panel refinement did not reach the requested agreement."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    nodes: int
    refinements: int
    last_change: float
    # integral of row 1 of a stacked (2, n) integrand; None for one row
    companion: float | None = None


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def geometric_edges(lo: float, hi: float, anchors: tuple[float, ...]) -> np.ndarray:
    """Panel edges on [lo, hi] spaced in octaves away from each anchor."""
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    span = hi - lo
    edges = [lo, hi]
    for a in anchors:
        edges.append(min(max(a, lo), hi))
        step = 1.0
        while step < span:
            for e in (a - step, a + step):
                if lo < e < hi:
                    edges.append(e)
            step *= 2.0
    edges = np.unique(np.asarray(edges, dtype=float))
    # collapse panels that are negligibly thin relative to the domain
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * span))
    return edges[keep]


def panel_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    order: int = 20,
    abs_tol: float = 1e-13,
    rel_tol: float = 1e-11,
    max_refinements: int = 8,
) -> QuadratureResult:
    """Integrate a vectorized f over the panels defined by ``edges``.

    Refinement halves every panel; stops when two successive totals agree
    to ``max(abs_tol, rel_tol * |I|)``.  When f returns a ``(2, n)`` stack,
    row 0 is that total and row 1 comes back as ``companion``.
    """
    gx, gw = _gl_rule(order)
    edges = np.asarray(edges, dtype=float)
    prev = None
    nodes_used = 0
    for refinement in range(max_refinements + 1):
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + halfs[:, None] * gx[None, :]).ravel()
        ws = (halfs[:, None] * gw[None, :]).ravel()
        fx = f(xs)
        value = float(np.dot(fx[0] if fx.ndim == 2 else fx, ws))
        nodes_used += xs.size
        if prev is not None:
            change = abs(value - prev)
            if change <= max(abs_tol, rel_tol * abs(value)):
                companion = float(np.dot(fx[1], ws)) if fx.ndim == 2 else None
                return QuadratureResult(value, nodes_used, refinement, change, companion)
        prev = value
        # halve all panels for the next pass
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureError(
        f"no convergence after {max_refinements} refinements ({edges.size - 1} panels)"
    )
