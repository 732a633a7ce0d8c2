import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csgraph

from specmeasure import (
    Ball,
    ConfigurationError,
    Cylinder,
    GradeSpec,
    H2Violation,
    H3Violation,
    Interval,
    Segment,
    TooLargeError,
    build_grid,
)
from specmeasure import model
from specmeasure.model import (
    Problem,
    build_problem,
    check_recip_integrability,
    constant_coefficient,
    constant_kernel,
    coordinate_linear,
    custom_coefficient,
    custom_kernel,
    detect_argmax_set,
    gaussian_kernel,
    radial_power,
)


def test_constant_kernel_values():
    k = constant_kernel(0.3)
    x = np.zeros((2, 3))
    y = np.ones((5, 3))
    block = k.evaluate(x, y)
    assert block.shape == (2, 5)
    np.testing.assert_allclose(block, 0.3)
    with pytest.raises(ConfigurationError):
        constant_kernel(0.0)


def test_gaussian_kernel_symmetric_and_witness():
    k = gaussian_kernel(amplitude=2.0, width=0.5)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(6, 3))
    b = k.evaluate(x, x)
    np.testing.assert_allclose(b, b.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(b), 2.0)
    c0, eps0 = k.positivity_witness
    # bound holds with equality at distance eps0
    d = np.linalg.norm(x[None] - x[:, None], axis=-1)
    assert np.all(b[d <= eps0] >= c0 * (1 - 1e-9))


def test_coefficient_families():
    a = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0, 0.0, 0.0))
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.4]])
    np.testing.assert_allclose(a.evaluate(pts), [0.75, 0.75])

    tube = radial_power(top=1.0, scale=1.0, power=1.0,
                        center=(0.0, 0.0, 0.0), axes=(0, 1))
    np.testing.assert_allclose(tube.evaluate(pts), [0.5, 0.7])

    lin = coordinate_linear((2.0, -1.0), offset=0.5)
    np.testing.assert_allclose(
        lin.evaluate(np.array([[1.0, 1.0], [0.0, 2.0]])), [1.5, -1.5]
    )

    const = constant_coefficient(3.0)
    np.testing.assert_allclose(const.evaluate(pts[:, :2]), 3.0)


def test_detect_point_argmax_ball():
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    grid = build_grid(dom, 6)
    coeff = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0, 0.0, 0.0))
    amax = detect_argmax_set(coeff, grid)
    assert len(amax.components) == 1
    comp = amax.components[0]
    assert comp.kind == "point"
    np.testing.assert_allclose(comp.representative, (0.0, 0.0, 0.0), atol=1e-6)
    assert amax.sup_value == pytest.approx(1.0, abs=1e-10)


def test_detect_segment_argmax_cylinder():
    dom = Cylinder(radius=1.0, height=1.0)
    grid = build_grid(dom, 6)
    coeff = radial_power(top=1.0, scale=1.0, power=1.0,
                         center=(0.0, 0.0, 0.0), axes=(0, 1))
    amax = detect_argmax_set(coeff, grid)
    assert len(amax.components) == 1
    comp = amax.components[0]
    assert comp.kind == "segment"
    seg = comp.representative
    assert isinstance(seg, Segment)
    ends = sorted([seg.start, seg.end], key=lambda p: p[2])
    np.testing.assert_allclose(ends[0], (0.0, 0.0, 0.0), atol=1e-6)
    np.testing.assert_allclose(ends[1], (0.0, 0.0, 1.0), atol=1e-6)
    assert amax.sup_value == pytest.approx(1.0, abs=1e-10)


def test_detect_two_point_argmax():
    coeff = custom_coefficient(
        lambda x: 1.0 - np.minimum(np.abs(np.atleast_2d(x)[:, 0] - 0.3),
                                   np.abs(np.atleast_2d(x)[:, 0] - 0.7))
    )
    grid = build_grid(Interval(0.0, 1.0), 10)
    amax = detect_argmax_set(coeff, grid)
    assert len(amax.components) == 2
    assert all(c.kind == "point" for c in amax.components)
    locs = sorted(c.representative[0] for c in amax.components)
    np.testing.assert_allclose(locs, [0.3, 0.7], atol=1e-6)


def plateaus(*spans):
    """a = 1 - distance to the union of the intervals ``spans``."""
    def ev(x):
        t = np.atleast_2d(x)[:, 0]
        return 1.0 - np.min([np.clip(np.maximum(lo - t, t - hi), 0.0, None)
                             for lo, hi in spans], axis=0)
    return custom_coefficient(ev)


@pytest.mark.parametrize("spans, counts", [
    (((0.1, 0.2), (0.5, 0.8)), (12, 4)),   # the larger cluster comes first
    (((0.1, 0.2), (0.6, 0.7)), (4, 4)),    # ties keep the order of the nodes
])
def test_detect_orders_clusters(spans, counts):
    grid = build_grid(Interval(0.0, 1.0), 40)
    amax = detect_argmax_set(plateaus(*spans), grid)
    assert tuple(c.node_count for c in amax.components) == counts
    expected = sorted(spans, key=lambda s: -(s[1] - s[0]))
    for comp, (lo, hi) in zip(amax.components, expected):
        assert comp.kind == "segment"
        ends = sorted([comp.representative.start[0], comp.representative.end[0]])
        np.testing.assert_allclose(ends, [lo, hi], atol=1e-6)


def test_detect_rejects_constant_coefficient():
    grid = build_grid(Interval(0.0, 1.0), 8)
    with pytest.raises(ConfigurationError):
        detect_argmax_set(constant_coefficient(1.0), grid)


def test_recip_integrability_interval_divergent():
    # 1 / x^2 near an interior maximum is not integrable in one dimension
    coeff = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0,))
    res = check_recip_integrability(coeff, Interval(-1.0, 1.0), depth=8)
    assert res.status == "non_integrable"
    assert res.value is None
    assert res.ratios[-1] > 1.5


def test_recip_integrability_interval_convergent():
    # 1 / |x|^(1/2) integrates to 4 over [-1, 1]
    coeff = radial_power(top=1.0, scale=1.0, power=0.5, center=(0.0,))
    res = check_recip_integrability(coeff, Interval(-1.0, 1.0), depth=12,
                                    resolution=8)
    assert res.status == "integrable"
    assert res.value == pytest.approx(4.0, rel=0.05)
    assert res.value < 4.0
    assert all(r < 0.9 for r in res.ratios[-3:])


def test_recip_integrability_ball_exact_shells():
    coeff = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0, 0.0, 0.0))
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    res = check_recip_integrability(coeff, dom, depth=8, resolution=6)
    assert res.status == "integrable"
    assert res.value == pytest.approx(4 * math.pi * (1 - 0.5**9), rel=1e-9)
    # each shell increment halves: 1 / |x|^2 against the r^2 Jacobian
    np.testing.assert_allclose(res.ratios, 0.5, rtol=1e-9)


def test_recip_integrability_needs_depth():
    coeff = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0,))
    with pytest.raises(ConfigurationError):
        check_recip_integrability(coeff, Interval(-1.0, 1.0), depth=3)


def test_problem_validates_kernel_sign():
    dom = Interval(0.0, 1.0)
    bad = custom_kernel(lambda x, y: np.full((x.shape[0], y.shape[0]), -1.0))
    with pytest.raises(H2Violation):
        build_problem(dom, bad, constant_coefficient(0.0), resolution=6)


def test_problem_validates_kernel_witness():
    dom = Interval(0.0, 1.0)
    # claims c0 = 1 within radius 0.5 but actually decays below it
    lying = custom_kernel(
        lambda x, y: np.exp(-20.0 * np.abs(x[:, :1] - y[:, :1].T)),
        positivity_witness=(1.0, 0.5),
    )
    with pytest.raises(H2Violation):
        build_problem(dom, lying, constant_coefficient(0.0), resolution=8)


def test_problem_accepts_skew_kernel():
    # K need not be symmetric, and nothing checks that it is
    dom = Interval(0.0, 1.0)

    def skew(x, y):
        return np.exp(x[:, :1] - 0.5 * y[:, :1].T)

    build_problem(dom, custom_kernel(skew), constant_coefficient(0.0), resolution=8)


def test_positive_definite_claim_is_not_a_constructor_argument():
    # validation cannot detect an indefinite kernel, so only the built-in
    # families claim positive definiteness, and replacing a field drops it
    assert constant_kernel(0.1).positive_definite
    assert gaussian_kernel(1.0, 0.5).positive_definite
    assert not custom_kernel(constant_kernel(0.1).evaluate).positive_definite
    with pytest.raises(TypeError):
        model.Kernel("custom", constant_kernel(0.1).evaluate, positive_definite=True)
    g = gaussian_kernel(1.0, 0.5)
    assert not dataclasses.replace(g, evaluate=lambda x, y: -g.evaluate(x, y)).positive_definite



def test_structured_apply_is_set_only_by_constant_kernel():
    # the structured apply stands for evaluate, so nothing else may carry it:
    # no constructor argument, dropped with a replaced field, and a custom
    # kernel that takes the constant family's name has none
    k = constant_kernel(0.1)
    assert k.structured_apply is not None
    assert gaussian_kernel(1.0, 0.5).structured_apply is None
    assert dataclasses.replace(k, evaluate=lambda x, y: 2 * k.evaluate(x, y)
                               ).structured_apply is None
    assert custom_kernel(k.evaluate, name="constant",
                         params={"rho": 0.1}).structured_apply is None
    with pytest.raises(TypeError):
        model.Kernel("constant", k.evaluate, structured_apply=k.structured_apply)


def test_infinite_positivity_radius_takes_no_distance_slab(monkeypatch):
    # every pair is within an infinite radius; a finite one needs distances
    calls = []
    sq = model._sq_distances
    monkeypatch.setattr(model, "_sq_distances",
                        lambda *args: calls.append(1) or sq(*args))
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    coeff = constant_coefficient(0.0)
    flat = constant_kernel(0.1).evaluate
    build_problem(ball, constant_kernel(0.1), coeff, resolution=4)
    assert calls == []
    build_problem(ball, custom_kernel(flat, positivity_witness=(0.05, 0.5)),
                  coeff, resolution=4)
    assert len(calls) == 1
    lying = custom_kernel(flat, positivity_witness=(0.2, math.inf))
    with pytest.raises(H2Violation, match="claimed bound"):
        build_problem(ball, lying, coeff, resolution=4)

def test_argmax_adjacency_checked_before_it_allocates(monkeypatch):
    # the near-maximal nodes get a dense m x m adjacency of 17 m^2 bytes;
    # the budget is lowered below it, so nothing of that size is built
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    grid = build_grid(ball, 6)
    coeff = radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0))
    m = sum(c.node_count for c in detect_argmax_set(coeff, grid).components)
    assert m > 1
    monkeypatch.setattr(model, "_memory_budget", lambda: 17 * m * m)
    detect_argmax_set(coeff, grid)
    monkeypatch.setattr(model, "_memory_budget", lambda: 17 * m * m - 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=f"adjacency of {m} near-maximal"):
            detect_argmax_set(coeff, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m


def test_problem_rejects_grid_beyond_memory(monkeypatch):
    # a kernel without the positive-definite claim takes the dense K W, so
    # its 8 N^2 bytes are checked on construction; a factored kernel's
    # storage is checked as the factor grows
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    coeff = radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0))
    n = build_grid(dom, 4).size
    dense = custom_kernel(constant_kernel(0.1).evaluate, positivity_witness=(0.05, math.inf))
    monkeypatch.setattr(model, "_memory_budget", lambda: 8 * n * n)
    build_problem(dom, dense, coeff, resolution=4)
    monkeypatch.setattr(model, "_memory_budget", lambda: 8 * n * n - 1)
    with pytest.raises(TooLargeError, match="physical memory"):
        build_problem(dom, dense, coeff, resolution=4)
    build_problem(dom, constant_kernel(0.1), coeff, resolution=4)


def test_problem_validates_near_diagonal_positivity():
    dom = Interval(0.0, 1.0)
    vanishing = custom_kernel(
        lambda x, y: np.zeros((x.shape[0], y.shape[0]))
    )
    with pytest.raises(H2Violation):
        build_problem(dom, vanishing, constant_coefficient(0.0), resolution=6)


def test_problem_validates_coefficient_finite():
    dom = Interval(0.0, 1.0)

    def bad_a(x):
        v = np.atleast_2d(x)[:, 0].copy()
        v[v > 0.5] = np.nan
        return v

    with pytest.raises(H3Violation):
        build_problem(dom, constant_kernel(1.0), custom_coefficient(bad_a),
                      resolution=6)


def test_problem_caches_coefficient():
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    prob = build_problem(dom, constant_kernel(0.1),
                         radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0)),
                         resolution=4)
    assert prob.a_at_nodes.shape == (prob.grid.size,)
    assert prob.sup_a_grid < 1.0
    with pytest.raises(ValueError):
        prob.a_at_nodes[0] = 2.0


def test_problem_grid_domain_mismatch():
    g = build_grid(Interval(0.0, 1.0), 4)
    with pytest.raises(ConfigurationError):
        Problem(Interval(0.0, 2.0), constant_kernel(1.0),
                constant_coefficient(0.0), g)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), m=st.integers(1, 60),
       data=st.data(), radius=st.floats(0.05, 1.0))
def test_proximity_components_match_csgraph(dim, m, data, radius):
    # the numpy clustering against scipy's connected components of the dense
    # "at most radius apart" graph, labels in first-point order
    pts = data.draw(arrays(np.float64, (m, dim),
                           elements=st.floats(-2.0, 2.0, width=32)))
    diff = pts[:, None, :] - pts[None, :, :]
    link = np.sum(diff * diff, axis=2) <= radius * radius
    expected = csgraph.connected_components(link, directed=False)
    count, labels = model._proximity_components(pts, radius)
    assert count == expected[0]
    np.testing.assert_array_equal(labels, expected[1])


@pytest.mark.parametrize("center, width", [((10.0, 10.0, 10.0), 0.1),
                                           ((100.0, 100.0, 100.0), 1.0)])
def test_gaussian_kernel_off_origin_is_exact(center, width):
    # far from the origin the slab stays exactly symmetric and as accurate
    # as the coordinate-difference formula, so validation accepts the kernel
    dom = Ball(center=center, radius=1.0)
    prob = Problem(dom, gaussian_kernel(0.7, width),
                   radial_power(1.0, 1.0, 2.0, center), build_grid(dom, 4))
    x = prob.grid.nodes
    k = prob.kernel.evaluate(x, x)
    np.testing.assert_array_equal(k, k.T)
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    np.testing.assert_allclose(k, 0.7 * np.exp(-d2 / (2.0 * width * width)),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("domain, coeff, start, expected", [
    (Ball(center=(0.0, 0.0, 0.0), radius=1.0),
     radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0)),
     (1e-3, -2e-3, 5e-4), (0.0, 0.0, 0.0)),
    (Cylinder(radius=1.0, height=1.0),
     radial_power(2.0, 1.0, 1.0, (0.0, 0.0), axes=(0, 1)),
     (1e-3, 2e-3, 0.3), (0.0, 0.0, 0.3)),
])
def test_refine_radial_power_is_closed_form(domain, coeff, start, expected):
    point, value = model._refine_point(coeff, domain, np.asarray(start))
    assert tuple(point) == expected
    assert value == coeff.params["top"]


def test_refined_ladder():
    # one level moves resolution and grading depth together; targets and
    # ratio stay, an ungraded grid stays ungraded, step 0 is the problem
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    kernel = constant_kernel(0.05)
    coeff = radial_power(top=1.0, scale=1.0, power=2.0, center=(0.0, 0.0, 0.0))
    spec = GradeSpec(targets=((0.0, 0.0, 0.0),), ratio=0.4, depth=3)
    prob = build_problem(ball, kernel, coeff, 4, spec)
    assert model._refined(prob, 0) is prob
    finer = model._refined(prob, 2)
    assert (finer.kernel, finer.coeff) == (kernel, coeff)
    assert finer.grid.resolution == 6
    assert finer.grid.grading == GradeSpec(spec.targets, ratio=0.4, depth=5)
    assert finer.grid.same_nodes(build_grid(ball, 6, finer.grid.grading))
    coarse = model._refined(prob, -3).grid
    assert (coarse.resolution, coarse.grading.depth) == (2, 1)
    flat = build_problem(ball, kernel, coeff, 3)
    assert model._refined(flat, 1).grid.grading is None
    assert model._refined(flat, -1).grid.resolution == 2
    # a coarser level that gives back the problem's own grid is refused
    for bottom in (build_problem(ball, kernel, coeff, 2),
                   build_problem(ball, kernel, coeff, 2, GradeSpec(spec.targets, depth=1))):
        with pytest.raises(ConfigurationError, match="options.confirm"):
            model._refined(bottom, -1)
    assert model._refined(build_problem(ball, kernel, coeff, 2,
                                        GradeSpec(spec.targets, depth=2)), -1
                          ).grid.grading.depth == 1
