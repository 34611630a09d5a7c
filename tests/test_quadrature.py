"""Graded-panel Gauss-Kronrod (G10, K21) engine tests."""

import math

import numpy as np
import pytest

from ranksel.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    QuadratureError,
    geometric_edges,
    panel_quadrature,
)


def test_edges_cover_domain_and_anchors():
    edges = geometric_edges(-10.0, 25.0, (0.0, 3.0))
    assert edges[0] == -10.0 and edges[-1] == 25.0
    assert np.all(np.diff(edges) > 0)
    for anchor in (0.0, 3.0):
        assert np.min(np.abs(edges - anchor)) < 1e-12


def test_edges_grade_toward_anchor():
    edges = geometric_edges(0.0, 1024.0, (0.0,))
    widths = np.diff(edges)
    # panel widths grow moving away from the anchor
    assert np.all(widths[1:] >= widths[:-1])


def test_edges_reject_bad_interval():
    with pytest.raises(ValueError):
        geometric_edges(1.0, 1.0, (0.0,))


@pytest.mark.parametrize("weights, degree", [(KRONROD_WEIGHTS, 31), (GAUSS_WEIGHTS, 19)])
def test_rules_exact_to_their_degree(weights, degree):
    # K21 is exact for degree 31, G10 for 19; a mistyped node or weight
    # breaks that below the rule's degree
    def error(j):
        exact = 0.0 if j % 2 else 2.0 / (j + 1)
        return abs(np.dot(weights, KRONROD_NODES**j) - exact)

    assert max(error(j) for j in range(degree + 1)) < 1e-15
    assert error(degree + 1) > 1e-15


@pytest.mark.parametrize("f, lo, hi, anchor, exact", [
    (lambda x: x**3, 0.0, 1.0, 0.0, 0.25),
    (lambda x: np.exp(-x * x / 2.0), -8.0, 8.0, 0.0,
     math.sqrt(2.0 * math.pi) * math.erf(8.0 / math.sqrt(2.0))),
    (lambda x: np.exp(-1000.0 * (x - 0.3) ** 2), -600.0, 600.0, 0.3, math.sqrt(math.pi / 1000.0)),
])
def test_error_estimate_bounds_true_error(f, lo, hi, anchor, exact):
    # the estimate covers the rule's error; rounding adds a few ulp on top
    res = panel_quadrature(f, geometric_edges(lo, hi, (anchor,)))
    assert abs(res.value - exact) <= res.error_estimate + 4.0 * math.ulp(exact)


def test_polynomial_exact():
    edges = geometric_edges(0.0, 1.0, (0.0,))
    res = panel_quadrature(lambda x: x**3, edges)
    assert res.value == pytest.approx(0.25, abs=1e-14)


def test_gaussian_mass():
    edges = geometric_edges(-8.0, 8.0, (0.0,))
    res = panel_quadrature(lambda x: np.exp(-x * x / 2.0), edges)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_sharp_peak_needs_refinement():
    # peak much narrower than the initial unit panels around its anchor
    edges = geometric_edges(-600.0, 600.0, (0.3,))
    res = panel_quadrature(lambda x: np.exp(-1000.0 * (x - 0.3) ** 2), edges)
    assert res.value == pytest.approx(math.sqrt(math.pi / 1000.0), rel=1e-9)
    assert res.refinements >= 1


def test_result_metadata():
    edges = geometric_edges(0.0, 2.0, (0.0,))
    res = panel_quadrature(lambda x: np.ones_like(x), edges)
    assert res.value == pytest.approx(2.0, abs=1e-13)
    assert res.nodes > 0
    assert res.error_estimate >= 0.0


def test_nonconvergent_integrand_raises():
    # integrable singularity interior to a panel defeats the refinement cap
    edges = geometric_edges(0.0, 1.0, (0.5,))
    with pytest.raises(QuadratureError):
        panel_quadrature(lambda x: np.abs(x - 1.0 / math.pi) ** -0.9, edges)


def test_vectorized_integrand_contract():
    # the engine hands the integrand whole node arrays, never scalars
    seen = []

    def f(x):
        seen.append(np.asarray(x).ndim)
        return np.exp(-np.abs(x))

    edges = geometric_edges(-30.0, 30.0, (0.0,))
    res = panel_quadrature(f, edges)
    assert res.value == pytest.approx(2.0, rel=1e-10)
    assert all(ndim == 1 for ndim in seen)


def test_stacked_integrand_row0_matches_scalar_bits():
    # row 0 of a (2, n) integrand decides refinement and sums exactly as a
    # one-row integrand; row 1 is integrated on the same nodes
    edges = geometric_edges(-600.0, 600.0, (0.3,))

    def peak(x):
        return np.exp(-1000.0 * (x - 0.3) ** 2)

    alone = panel_quadrature(peak, edges)
    stacked = panel_quadrature(lambda x: np.stack((peak(x), x * peak(x))), edges)
    assert stacked.value == alone.value
    assert (stacked.nodes, stacked.refinements, stacked.error_estimate) == (
        alone.nodes, alone.refinements, alone.error_estimate)
    assert alone.companion is None
    assert stacked.companion == pytest.approx(0.3 * alone.value, rel=1e-12)
