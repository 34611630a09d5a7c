"""Graded-panel Gauss-Legendre engine tests."""

import math

import numpy as np
import pytest

from ranksel.quadrature import (
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
    assert res.last_change >= 0.0


def test_nonconvergent_integrand_raises():
    # integrable singularity interior to a panel defeats the refinement cap
    edges = geometric_edges(0.0, 1.0, (0.5,))
    with pytest.raises(QuadratureError):
        panel_quadrature(
            lambda x: np.abs(x - 1.0 / math.pi) ** -0.9, edges, max_refinements=2
        )


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
    assert (stacked.nodes, stacked.refinements, stacked.last_change) == (
        alone.nodes, alone.refinements, alone.last_change)
    assert alone.companion is None
    assert stacked.companion == pytest.approx(0.3 * alone.value, rel=1e-12)
