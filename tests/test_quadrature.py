"""Graded-panel Gauss-Kronrod (G10, K21) engine tests."""

import math

import numpy as np
import pytest

import ranksel.hconst as hconst
from ranksel.quadrature import (
    ABS_TOL,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    MAX_REFINEMENTS,
    REL_TOL,
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


def _global_halving(f, edges):
    """The rule before local refinement: every panel re-evaluated and halved
    while the summed |K21 - G10| is above tolerance (kept as the reference)."""
    nodes_used = 0
    for refinement in range(MAX_REFINEMENTS + 1):
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + halfs[:, None] * KRONROD_NODES[None, :]).ravel()
        per_panel = f(xs).reshape(mids.size, 21)
        nodes_used += xs.size
        value = float((per_panel @ KRONROD_WEIGHTS) @ halfs)
        error = float(np.abs(per_panel @ (KRONROD_WEIGHTS - GAUSS_WEIGHTS)) @ halfs)
        if error <= max(ABS_TOL, REL_TOL * abs(value)):
            return value, nodes_used
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureError("reference rule did not converge")


def _panels(xs):
    """(left, right) of each panel whose 21 Kronrod nodes make up xs."""
    per_panel = xs.reshape(-1, 21)
    centre = per_panel[:, 10]
    half = (per_panel[:, 0] - centre) / KRONROD_NODES[0]
    return np.column_stack((centre - half, centre + half))


def test_refinement_evaluates_only_the_halved_panels():
    # one sharp peak among smooth octave panels: after the first pass each
    # pass evaluates the two halves of some of the previous pass's panels
    # and nothing else, so it takes fewer nodes than halving every panel
    def peak(x):
        return np.exp(-1000.0 * (x - 0.3) ** 2)

    calls = []

    def recording(x):
        calls.append(x.copy())
        return peak(x)

    edges = geometric_edges(-600.0, 600.0, (0.3,))
    res = panel_quadrature(recording, edges)
    assert res.refinements == len(calls) - 1 >= 2
    for before, after in zip(calls, calls[1:]):
        parents, halves = _panels(before), _panels(after)
        left, right = halves[0::2], halves[1::2]
        assert len(left) == len(right)
        np.testing.assert_allclose(left[:, 1], right[:, 0], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(left[:, 1], 0.5 * (left[:, 0] + right[:, 1]), rtol=1e-13)
        halved = np.column_stack((left[:, 0], right[:, 1]))
        for panel in halved:
            assert np.isclose(parents, panel, rtol=1e-13, atol=1e-13).all(axis=1).any(), panel
        assert len(halved) < len(parents)
    exact = math.sqrt(math.pi / 1000.0)
    assert abs(res.value - exact) <= max(ABS_TOL, REL_TOL * exact)
    reference_value, reference_nodes = _global_halving(peak, edges)
    assert res.nodes == sum(x.size for x in calls) < reference_nodes
    assert abs(res.value - reference_value) <= 2.0 * max(ABS_TOL, REL_TOL * exact)


def _refusing(x):
    raise AssertionError("the integrand must not be called")


@pytest.mark.parametrize("edges", [
    [2.0, 1.0], [0.0, 1.0, 1.0], [1.0], [], [[0.0, 1.0]], [0.0, math.inf], [-math.inf, 0.0],
    [0.0, math.nan, 1.0],
], ids=["decreasing", "repeated", "one-edge", "empty", "2-D", "inf", "-inf", "nan"])
def test_malformed_edges_are_refused(edges):
    with pytest.raises(ValueError, match="panel edges"):
        panel_quadrature(_refusing, edges)


@pytest.mark.parametrize("lo, hi, anchors", [
    (0.0, math.inf, (0.0,)), (-math.inf, 0.0, (0.0,)), (math.nan, 1.0, (0.0,)),
    (0.0, 1.0, (math.nan,)), (0.0, 1.0, (0.5, math.inf)), (-1e308, 1e308, (0.0,)),
])
def test_edges_refuse_a_nonfinite_domain_or_anchor(lo, hi, anchors):
    with pytest.raises(ValueError, match="finite"):
        geometric_edges(lo, hi, anchors)


def _numpy_edges(lo, hi, anchors):
    """geometric_edges with numpy's unique and diff for the collapse (kept as the reference)."""
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
    edges = np.unique(np.asarray(edges, dtype=float))
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * span))
    return edges[keep]


def test_edges_collapse_as_numpy_unique_and_diff():
    # edges closer than 1e-12 of the span to their sorted predecessor go,
    # repeated ones too, on domains from 1e-14 to 1e8 wide
    rng = np.random.default_rng(7)
    for _ in range(2000):
        scale = 10 ** rng.uniform(-14, 8)
        lo = float(rng.uniform(-1.0, 0.0) * scale)
        hi = lo + float(10 ** rng.uniform(-14, 8))
        if not hi > lo:  # a width below the ulp of lo
            continue
        pool = (lo, hi, 0.0, float(rng.uniform(lo, hi)), lo + 1e-13 * (hi - lo))
        anchors = tuple(float(pool[rng.integers(len(pool))]) if rng.random() < 0.5
                        else float(rng.normal() * scale) for _ in range(rng.integers(0, 4)))
        expected = _numpy_edges(lo, hi, anchors)
        edges = geometric_edges(lo, hi, anchors)
        assert edges.dtype == expected.dtype and np.array_equal(edges, expected), (lo, hi, anchors)


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


def _all_domain_edges(lo, hi, anchors):
    """The layout before octaves stopped at the neighbouring anchor: every
    anchor laid octaves across the whole domain (kept as the reference)."""
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
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * span))
    return edges[keep]


def _dd_domain(nu, h):
    """_dd_integral's interval and anchors at (h, nu)."""
    T = hconst._tail_cutoff(nu)
    return min(-T, -T + h), max(T, T + h), (0.0, -h)


def _is_octave(distance):
    # a power of two, up to the rounding of anchor + step
    return distance > 0 and distance == pytest.approx(2.0 ** round(math.log2(distance)), rel=1e-12)


@pytest.mark.parametrize("lo, hi, anchors", [
    _dd_domain(2, 30.0),
    _dd_domain(2, -30.0),
    (-1000.0, 1000.0, (100.0, -5.5)),
    (-50.0, 60.0, (0.0, 0.3)),
])
def test_octaves_stop_at_the_neighbouring_anchor(lo, hi, anchors):
    # left of the lower anchor only its own octaves, right of the upper one
    # only its own, between them one of the two
    a, b = sorted(anchors)
    edges = geometric_edges(lo, hi, anchors)
    assert a in edges and b in edges
    for e in edges[(edges > lo) & (edges < hi)]:
        if e < a:
            assert _is_octave(a - e), e
        elif e > b:
            assert _is_octave(e - b), e
        elif a < e < b:
            assert _is_octave(e - a) or _is_octave(b - e), e


@pytest.mark.parametrize("nu", [1, 2, 9, 500])
@pytest.mark.parametrize("h", [0.5, -0.5, 5.0, -5.0, 30.0, -30.0, 1000.0])
def test_panels_outside_the_anchor_hull_are_not_slivers(nu, h):
    # every panel outside the anchors' hull, but the remainder at the domain
    # end, is at least half as wide as its distance to the nearer anchor
    lo, hi, anchors = _dd_domain(nu, h)
    a, b = sorted(anchors)
    edges = geometric_edges(lo, hi, anchors)
    for left, right in zip(edges[:-1], edges[1:]):
        if left == lo or right == hi:
            continue
        if right <= a:
            assert right - left >= 0.5 * (a - right), (left, right)
        elif left >= b:
            assert right - left >= 0.5 * (left - b), (left, right)


def test_two_anchor_layout_drops_the_far_field_slivers():
    # nu = 2, h = 30: the all-domain layout pairs every far octave of 0 with
    # one of -30, 28 panels 30 wide; octaves that stop at the
    # neighbouring anchor leave 53 panels
    lo, hi, anchors = _dd_domain(2, 30.0)
    old = _all_domain_edges(lo, hi, anchors)
    assert old.size - 1 == 81
    assert np.count_nonzero(np.diff(old) == 30.0) == 28
    assert geometric_edges(lo, hi, anchors).size - 1 == 53


@pytest.mark.parametrize("nu", [1, 2, 9, 500])
@pytest.mark.parametrize("k", [1, 10, 100_000])
@pytest.mark.parametrize("h_of_T", [
    lambda T: 0.5, lambda T: -0.5, lambda T: 5.0, lambda T: -5.0,
    lambda T: 0.5 * T, lambda T: -0.5 * T, lambda T: 2.0 * T, lambda T: -2.0 * T,
], ids=["0.5", "-0.5", "5", "-5", "T/2", "-T/2", "2T", "-2T"])
def test_dd_integral_matches_the_all_domain_layout(monkeypatch, nu, k, h_of_T):
    # the same integral to 1e-13 relative.  Where REL_TOL * |value| is below
    # ABS_TOL the stopping rule is absolute, and there the layouts may differ
    # by 1e-8 ABS_TOL (nu = 9, k = 1e5, h = -T/2: a value of 3.7e-11, 3.1e-22 apart)
    h = h_of_T(hconst._tail_cutoff(nu))
    value = hconst._dd_integral.__wrapped__(h, k, nu)[0]
    monkeypatch.setattr(hconst, "geometric_edges", _all_domain_edges)
    reference = hconst._dd_integral.__wrapped__(h, k, nu)[0]
    assert abs(value - reference) <= 1e-13 * abs(reference) + 1e-8 * ABS_TOL
