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
    Box,
    ConfigurationError,
    Cylinder,
    GradeSpec,
    H2Violation,
    H3Violation,
    Interval,
    Product,
    Segment,
    TooLargeError,
    build_grid,
)
from specmeasure import geometry, model
from specmeasure.geometry import contains, distance_to_target
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

    # a negative axis counts from the end of the center, which may be
    # shorter than the points
    short = radial_power(1.0, 1.0, 2.0, center=(0.0, 0.5), axes=(-1,))
    np.testing.assert_allclose(short.evaluate(np.array([[0.0, 0.5, 0.0],
                                                        [0.0, 0.0, 0.5]])), [1.0, 0.75])

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


BALL = (Ball((0.0, 0.0, 0.0), 1.0), (0.0, 0.0, 0.0), None)
TUBE = (Cylinder(1.0, 1.0), (0.0, 0.0), (0, 1))


@pytest.mark.parametrize("domain, center, axes, power, integrable", [
    *[(*BALL, p, True) for p in (2.5, 2.8, 2.9)],
    *[(*BALL, p, False) for p in (3.0, 3.5)],
    (*TUBE, 1.9, True),
    (*TUBE, 2.0, False),
])
def test_radial_power_integrability_is_closed_form(domain, center, axes, power,
                                                   integrable):
    # 1 / dist^p about a set of codimension k (3 about the ball's center, 2
    # about the tube's axis) is integrable iff p < k.  The shell ratio
    # 0.5^(k - p) reads p = 2.9 in 3-D and p = 1.9 on the tube as divergent,
    # and it still decides a custom copy of the coefficient
    coeff = radial_power(1.0, 1.0, power, center, axes)
    res = check_recip_integrability(coeff, domain, depth=8)
    assert res.status == ("integrable" if integrable else "non_integrable")
    assert (res.value is None) == (not integrable)
    codim = len(center)
    np.testing.assert_allclose(res.ratios[-1], 0.5 ** (codim - power), rtol=1e-6)
    shells = check_recip_integrability(detected(coeff), domain, depth=8)
    np.testing.assert_allclose(shells.ratios, res.ratios, rtol=1e-9)
    assert shells.status == ("integrable" if res.ratios[-1] < 0.9 else "non_integrable")


def negative_then_nan(x, y):
    # -1 on rows below 0.1 (the first slab of 96 sampled rows), NaN on rows
    # above 0.9 (the last slab), 1 elsewhere
    rows = np.where(x[:, :1] < 0.1, -1.0, np.where(x[:, :1] > 0.9, np.nan, 1.0))
    return rows * np.ones(y.shape[0])


@pytest.mark.parametrize("fn, resolution, message", [
    (lambda x, y: np.full((x.shape[0], y.shape[0]), -1.0), 6, "negative values"),
    # faults are collected over the slabs: a non-finite value is reported
    # first even when a negative one comes in an earlier slab
    (negative_then_nan, 200, "non-finite values"),
], ids=["negative", "negative-then-nan"])
def test_problem_validates_kernel_sign(fn, resolution, message):
    dom = Interval(0.0, 1.0)
    with pytest.raises(H2Violation, match=message):
        build_problem(dom, custom_kernel(fn), constant_coefficient(0.0),
                      resolution=resolution)


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



def test_isotropic_claim_is_set_only_by_gaussian_kernel():
    # the ring blocks take K(x, y) to depend on |x - y| alone, so only the
    # Gaussian family claims it: no constructor argument, dropped with a
    # replaced field, and kept apart from the positive-definite claim
    g = gaussian_kernel(1.0, 0.5)
    assert g.isotropic
    assert not constant_kernel(0.1).isotropic
    assert not custom_kernel(g.evaluate, name="gaussian", params=g.params).isotropic
    assert not dataclasses.replace(g).isotropic
    assert not model._positive_definite(dataclasses.replace(g)).isotropic
    with pytest.raises(TypeError):
        model.Kernel("gaussian", g.evaluate, isotropic=True)


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
    # one slab per _CHUNK rows of the 96 sampled rows
    assert len(calls) == math.ceil(96 / model._CHUNK)
    lying = custom_kernel(flat, positivity_witness=(0.2, math.inf))
    with pytest.raises(H2Violation, match="claimed bound"):
        build_problem(ball, lying, coeff, resolution=4)

def test_argmax_adjacency_checked_before_it_allocates(monkeypatch):
    # two dense runs of points 0.9 apart, too far apart for their cells to
    # link whole, get their distances in chunks of _PAIR_CHUNK pairs; with
    # the budget one byte below a chunk nothing of that size is built, and a
    # whole run stays within one chunk
    pts = np.zeros((1200, 3))
    pts[:600, 2] = np.linspace(0.0, 0.3, 600)
    pts[600:, 2] = np.linspace(1.2, 1.5, 600)
    # the runs fill three whole cells; the first chunk of distances links
    # the first run's cell to the second run's two cells, and every later
    # chunk is skipped: one chunk of distances, not all 600 x 600
    rows = []
    sum_squares = model._sum_squares
    monkeypatch.setattr(model, "_sum_squares",
                        lambda diff: rows.append(len(diff)) or sum_squares(diff))
    assert model._proximity_components(pts, 1.0)[0] == 1
    assert rows == [3, 3, 3, model._PAIR_CHUNK]
    monkeypatch.setattr(model, "_sum_squares", sum_squares)
    chunk = model._PAIR_BYTES * model._PAIR_CHUNK
    monkeypatch.setattr(geometry, "_memory_budget", lambda: chunk)
    tracemalloc.start()
    try:
        assert model._proximity_components(pts, 1.0)[0] == 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monkeypatch.setattr(geometry, "_memory_budget", lambda: chunk - 1)
        with pytest.raises(TooLargeError, match="distances among 1200 near-maximal"):
            model._proximity_components(pts, 1.0)
        _, refused = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < chunk
    assert refused < chunk / 8


def test_problem_rejects_grid_beyond_memory(monkeypatch):
    # a kernel without the positive-definite claim takes the dense K W, so
    # its 8 N^2 bytes are checked on construction; a factored kernel's
    # storage is checked as the factor grows
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    coeff = radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0))
    n = build_grid(dom, 4).size
    dense = custom_kernel(constant_kernel(0.1).evaluate, positivity_witness=(0.05, math.inf))
    monkeypatch.setattr(geometry, "_memory_budget", lambda: 8 * n * n)
    build_problem(dom, dense, coeff, resolution=4)
    monkeypatch.setattr(geometry, "_memory_budget", lambda: 8 * n * n - 1)
    with pytest.raises(TooLargeError, match="physical memory"):
        build_problem(dom, dense, coeff, resolution=4)
    build_problem(dom, constant_kernel(0.1), coeff, resolution=4)


@pytest.mark.parametrize("rows, cols", [(8, 1920), (8, 864), (1, 112)])
def test_sq_distances_take_two_slabs(rows, cols):
    # rows shorter than numpy's buffer: the output and one slab of
    # coordinate differences, plus 1 KiB for the views and scalars of the
    # row loop; a broadcast difference made numpy buffer up to another slab
    # (3.0, 4.0 and 3.8 slabs on these shapes)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (rows, 3))
    y = np.asfortranarray(rng.uniform(-1.0, 1.0, (cols, 3)))
    slab = rows * cols * 8
    expected = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    tracemalloc.start()
    try:
        out = model._sq_distances(x, y, np.empty((rows, cols)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * slab + 1024
    np.testing.assert_array_equal(out, expected)


def test_kernel_check_takes_a_few_slabs_of_memory():
    # the 96 sampled kernel rows are checked _CHUNK rows at a time, so one
    # construction on 3,600 nodes stays below the 96 x N block of values
    # that a check in one piece would hold
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    coeff = radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0))
    grid = build_grid(ball, 10, GradeSpec(targets=((0.0, 0.0, 0.0),), depth=12))
    assert grid.size == 3600
    for kernel in (constant_kernel(0.1), gaussian_kernel(0.15, 1.0)):
        tracemalloc.start()
        try:
            Problem(ball, kernel, coeff, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * grid.size * 8, kernel.family


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


def draw_clumps(data, dim, radius):
    """Dense clumps, some narrower than a cell and some straddling cell
    boundaries, so whole cells, whole cell pairs and point distances all
    decide links."""
    centres = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)), dim),
                               elements=st.floats(-2.0, 2.0, width=32)))
    clumps = []
    for centre in centres:
        size = data.draw(st.integers(1, 40))
        spread = radius * data.draw(st.sampled_from([1e-3, 0.1, 0.5, 1.5]))
        offsets = data.draw(arrays(np.float64, (size, dim),
                                   elements=st.floats(-1.0, 1.0, width=32)))
        clumps.append(centre + spread * offsets)
    return np.concatenate(clumps)


def assert_csgraph_components(pts, radius):
    diff = pts[:, None, :] - pts[None, :, :]
    link = np.sum(diff * diff, axis=2) <= radius * radius
    expected = csgraph.connected_components(link, directed=False)
    count, labels = model._proximity_components(pts, radius)
    assert count == expected[0]
    np.testing.assert_array_equal(labels, expected[1])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data(), radius=st.floats(0.05, 1.0))
def test_proximity_components_match_csgraph_on_clumps(dim, data, radius):
    assert_csgraph_components(draw_clumps(data, dim, radius), radius)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), chunk=st.integers(1, 40), data=st.data(),
       radius=st.floats(0.05, 1.0))
def test_proximity_components_match_csgraph_in_small_chunks(dim, chunk, data, radius):
    # chunks far smaller than the cell pairs, so that chunks end inside a
    # pair and skip the pairs a chunk has linked
    pts = draw_clumps(data, dim, radius)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_PAIR_CHUNK", chunk)
        assert_csgraph_components(pts, radius)


def test_proximity_components_far_apart_double_the_cell_side():
    # clumps 1e4 apart at radius 1e-8 give raw cell coordinates of 2.4e12,
    # past 2^40: the cells double until the coordinates round to the right
    # cell, and the components still match the dense graph's
    radius = 1e-8
    pts = np.array([[0.0, 0.0, 0.0], [6e-9, 0.0, 0.0], [1.2e-8, 5e-9, 0.0],
                    [3e-8, 0.0, 0.0], [1e4, 0.0, 0.0], [1e4, 9e-9, 0.0],
                    [1e4, 0.0, 1e4], [1e4 + 2e-8, 0.0, 1e4]])
    assert model._cell_keys(pts, radius)[1] < math.floor(math.sqrt(6)) + 1
    diff = pts[:, None, :] - pts[None, :, :]
    expected = csgraph.connected_components(
        np.sum(diff * diff, axis=2) <= radius * radius, directed=False)
    count, labels = model._proximity_components(pts, radius)
    assert count == expected[0] == 5
    np.testing.assert_array_equal(labels, expected[1])


def ball_near_max(resolution, depth):
    """The ball example's coefficient, grid and near-maximal nodes."""
    grid = build_grid(Ball(center=(0.0, 0.0, 0.0), radius=1.0), resolution,
                      GradeSpec(targets=((0.0, 0.0, 0.0),), ratio=0.5, depth=depth))
    coeff = radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0))
    a = coeff.evaluate(grid.nodes)
    return coeff, grid, grid.nodes[a >= a.max() - model._TOL_MAXSET * np.ptp(a)]


def test_clustering_memory_is_linear_in_the_nodes():
    # about 5,000 near-maximal nodes of the ball at resolution 18 / depth 20
    # lie in one cell: no m x m array, and far below its 8 m^2 bytes
    _, grid, pts = ball_near_max(18, 20)
    m = pts.shape[0]
    assert m > 5000
    tracemalloc.start()
    try:
        count, labels = model._proximity_components(pts, 2.0 * grid.mesh_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1 and not labels.any()
    assert peak < 0.01 * 8 * m * m


def scalar_march(coeff, domain, origin, direction, sup_value, tol, scale):
    """One end of the argmax set by step-by-step bisection: double from
    scale until outside, then 80 bisection steps."""
    def good(t):
        p = origin + t * direction
        if not bool(contains(domain, p[None, :], tol=1e-12 * (1 + scale))[0]):
            return False
        return float(coeff.evaluate(p[None, :])[0]) >= sup_value - tol

    if not good(0.0):
        return origin
    t_lo, t_hi = 0.0, scale
    while good(t_hi):
        t_lo, t_hi = t_hi, 2.0 * t_hi
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if good(mid):
            t_lo = mid
        else:
            t_hi = mid
    return origin + t_lo * direction


@pytest.mark.parametrize("domain, coeff, resolution", [
    (Cylinder(radius=1.0, height=1.0),
     radial_power(1.0, 1.0, 1.0, (0.0, 0.0), axes=(0, 1)), 8),
    (Box(lo=(0.0, -1.0, 0.0), hi=(2.0, 1.0, 0.5)),
     coordinate_linear((0.0, 1.0, 3.0), offset=1.0), 6),   # an edge
    (Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), coordinate_linear((1.0, 0.0)), 9),
])
def test_segment_march_is_bisection_bit_for_bit(domain, coeff, resolution):
    # the batched march gives the very ends of two scalar bisections from
    # the detected cluster's maximizer along its principal axis
    grid = build_grid(domain, resolution)
    amax = detect_argmax_set(coeff, grid)
    a_max, a_rng, (cluster,) = model._near_max_clusters(coeff, grid)
    centroid = cluster.mean(axis=0)
    origin, sup_value = model._refine_point(coeff, domain, centroid)
    direction = model._principal_axis(cluster, centroid)[0]
    tol = max(model._TOL_MAXSET * a_rng, 8.0 * np.finfo(float).eps * max(1.0, abs(sup_value)))
    expected = [scalar_march(coeff, domain, origin, sign * direction, sup_value,
                             tol, grid.mesh_size) for sign in (-1.0, 1.0)]
    ends, length = model._extend_along(coeff, domain, origin, direction,
                                       sup_value, tol, grid.mesh_size, 0.0)
    np.testing.assert_array_equal(ends, expected)
    assert length == float(np.linalg.norm(expected[1] - expected[0]))
    (comp,) = amax.components
    assert comp.kind == "segment"
    assert comp.representative == Segment(tuple(expected[0]), tuple(expected[1]))


def test_point_detection_stops_its_march_early():
    # the ball's near-maximal nodes form one cluster about 1e-3 wide; its
    # march stops once the brackets prove the extension shorter than the
    # point test, where bisecting both sides to the end took 166 calls
    coeff, grid, _ = ball_near_max(8, 10)
    calls = []
    counting = dataclasses.replace(
        coeff, evaluate=lambda x: calls.append(1) or coeff.evaluate(x))
    # replace drops the closed-form maximizer; this copy counts the calls
    # of the same function, so it keeps it
    object.__setattr__(counting, "maximizer", coeff.maximizer)
    amax = detect_argmax_set(counting, grid)
    assert amax == detect_argmax_set(coeff, grid)
    assert [c.kind for c in amax.components] == ["point"]
    assert amax.components[0].representative == (0.0, 0.0, 0.0)
    assert len(calls) <= 20


LINEAR_CASES = [
    (Box(lo=(0.0, 0.0), hi=(1.0, 2.0)), (1.0, -0.5), 8),          # corner
    (Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)), (1.0, 0.0, 0.0), 5),   # face
    (Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), (0.0, 1.0), 8),           # edge
    (Ball(center=(0.5, 0.0, 0.0), radius=1.0), (1.0, 2.0, -0.5), 6),
    (Cylinder(radius=1.0, height=1.0), (1.0, 1.0, 0.0), 6),
    (Cylinder(radius=1.0, height=1.0), (0.0, 0.0, -1.0), 5),
    (Product(Interval(0.0, 1.0), Ball(center=(0.0, 0.0), radius=1.0)),
     (-1.0, 0.0, 1.0), 5),
]


@pytest.mark.parametrize("domain, coeffs, resolution", LINEAR_CASES)
def test_coordinate_linear_closed_form_keeps_every_kind(domain, coeffs, resolution):
    # the closed-form maximizer against Nelder-Mead on the same values: the
    # same components, kinds and node counts, and maximizers that agree to
    # Nelder-Mead's tolerance
    grid = build_grid(domain, resolution)
    linear = coordinate_linear(coeffs, offset=0.25)
    closed = detect_argmax_set(linear, grid)
    searched = detect_argmax_set(custom_coefficient(linear.evaluate), grid)
    assert [(c.kind, c.node_count) for c in closed.components] == \
           [(c.kind, c.node_count) for c in searched.components]
    assert closed.sup_value == pytest.approx(searched.sup_value, abs=1e-9)
    for mine, theirs in zip(closed.components, searched.components):
        if mine.kind == "cluster":
            # a face maximizes a anywhere on it
            assert linear.evaluate(np.asarray(mine.representative)) == \
                pytest.approx(closed.sup_value, abs=1e-12)
            continue
        ends = (lambda c: (c.representative.start, c.representative.end)
                if c.kind == "segment" else c.representative)
        np.testing.assert_allclose(ends(mine), ends(theirs), atol=1e-5)


@pytest.mark.parametrize("name", ["coordinate_linear", "radial_power"])
def test_custom_coefficient_named_like_a_family_is_searched(name):
    # a name claims no closed form: only the built-in constructors set one,
    # and dataclasses.replace drops it with the evaluate it stood for
    grid = build_grid(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 5)

    def bump(x):
        return 1.0 - np.sum((np.atleast_2d(x) - (0.2, 0.0, 0.0)) ** 2, axis=1)

    named = custom_coefficient(bump, name=name)
    assert named.family == name and named.maximizer is None
    assert detect_argmax_set(named, grid) == detect_argmax_set(custom_coefficient(bump), grid)
    built_in = {"coordinate_linear": coordinate_linear((1.0, 0.0, 0.0)),
                "radial_power": radial_power(1.0, 1.0, 2.0, (0.2, 0.0, 0.0))}[name]
    assert built_in.maximizer is not None
    assert dataclasses.replace(built_in, evaluate=bump).maximizer is None


def test_coordinate_linear_maximizer_in_closed_form():
    c = np.array([3.0, -4.0, 0.0])
    start = np.array([0.2, 0.1, 0.7])
    ball = Ball(center=(1.0, 0.0, 0.0), radius=2.0)
    np.testing.assert_allclose(geometry._linear_maximizer(ball, c, start),
                               [1.0 + 1.2, -1.6, 0.0], rtol=0, atol=1e-15)
    box = Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.5))
    assert tuple(geometry._linear_maximizer(box, c, start)) == (1.0, 0.0, 0.5)
    cyl = Cylinder(radius=2.0, height=1.0)
    assert tuple(geometry._linear_maximizer(cyl, c, start)) == (1.2, -1.6, 0.7)
    prod = Product(Interval(-1.0, 1.0), Ball(center=(0.0, 0.0), radius=1.0))
    assert tuple(geometry._linear_maximizer(prod, c, start)) == (1.0, -1.0, 0.0)


def two_peaks(x):
    t = np.atleast_2d(x)[:, 0]
    return 1.0 - np.minimum(np.abs(t - 0.3), np.abs(t - 0.7))


def test_reuse_needs_clusters_that_match_in_count_and_kind():
    grid = build_grid(Interval(0.0, 1.0), 100)
    two = custom_coefficient(two_peaks)
    root = detect_argmax_set(two, grid)
    assert model._reuse(root, two, grid) == root
    # clusters wider than the point test: a march would have to decide
    coarse = build_grid(Interval(0.0, 1.0), 10)
    assert [c.kind for c in detect_argmax_set(two, coarse).components] == ["point"] * 2
    assert model._reuse(root, two, coarse) is None
    # one cluster against two components
    assert model._reuse(root, radial_power(1.0, 1.0, 1.0, (0.3,)), grid) is None
    # plateaus where the root has points: same count, another kind
    assert model._reuse(root, plateaus((0.1, 0.4), (0.6, 0.9)),
                        build_grid(Interval(0.0, 1.0), 40)) is None
    # a general cluster is never reused
    face = coordinate_linear((1.0, 0.0, 0.0))
    cube = build_grid(Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)), 5)
    assert [c.kind for c in detect_argmax_set(face, cube).components] == ["cluster"]
    assert model._reuse(detect_argmax_set(face, cube), face, cube) is None
    # two clusters, nowhere near the root's representatives
    apart = custom_coefficient(lambda x: two_peaks(0.5 + 2.0 * (np.atleast_2d(x) - 0.5)))
    assert len(detect_argmax_set(apart, grid).components) == 2
    assert model._reuse(root, apart, grid) is None


def detected(coeff):
    """A custom copy of a coefficient: the same values, no closed form."""
    return custom_coefficient(coeff.evaluate, coeff.family, coeff.params)


LADDER_ROOTS = [
    build_problem(Ball(center=(0.0, 0.0, 0.0), radius=1.0), constant_kernel(0.05),
                  radial_power(1.0, 1.0, 2.0, (0.0, 0.0, 0.0)), 5,
                  GradeSpec(targets=((0.0, 0.0, 0.0),), depth=6)),
    build_problem(Cylinder(radius=1.0, height=1.0), constant_kernel(0.05),
                  radial_power(1.0, 1.0, 1.0, (0.0, 0.0), axes=(0, 1)), 5,
                  GradeSpec(targets=(Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),),
                            depth=6)),
]


@pytest.mark.parametrize("problem", [dataclasses.replace(p, coeff=detected(p.coeff))
                                     for p in LADDER_ROOTS])
def test_refined_problem_reuses_its_roots_argmax_set(problem):
    # a finer level takes the root's representatives with its own node
    # counts: what a full detection finds there, up to the round-off of
    # the marched segment ends
    root = model._argmax_set(problem)
    assert root == detect_argmax_set(problem.coeff, problem.grid)
    assert model._argmax_set(problem) is root
    for step in (1, 2):
        finer = model._refined(problem, step)
        reused = model._argmax_set(finer)
        full = detect_argmax_set(finer.coeff, finer.grid)
        assert reused.targets == root.targets
        assert reused.sup_value == full.sup_value
        assert [(c.kind, c.node_count) for c in reused.components] == \
               [(c.kind, c.node_count) for c in full.components]
        for mine, theirs in zip(reused.targets, full.targets):
            ends = (lambda t: sorted([t.start, t.end], key=lambda p: p[-1])
                    if isinstance(t, Segment) else t)
            np.testing.assert_allclose(ends(mine), ends(theirs), rtol=0, atol=1e-11)


@pytest.mark.parametrize("problem, target", [
    (LADDER_ROOTS[0], (0.0, 0.0, 0.0)),
    (LADDER_ROOTS[1], Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))),
], ids=["ball", "cylinder"])
def test_refined_problem_takes_radial_power_argmax_set_in_closed_form(monkeypatch,
                                                                      problem, target):
    # every level of a radial_power ladder takes the exact closed-form set,
    # with the kind, node count and sup detection finds, and no level detects
    detect = model.detect_argmax_set
    expected = [detect(problem.coeff, model._refined(problem, step).grid)
                for step in (0, 1, 2)]
    detections = []
    monkeypatch.setattr(model, "detect_argmax_set",
                        lambda *a, **k: detections.append(1) or detect(*a, **k))
    problem = dataclasses.replace(problem)      # a ladder root with no set yet
    for step, full in enumerate(expected):
        amax = model._argmax_set(model._refined(problem, step))
        assert amax.targets == (target,)
        assert amax.sup_value == full.sup_value
        assert [(c.kind, c.node_count) for c in amax.components] == \
               [(c.kind, c.node_count) for c in full.components]
    assert detections == []


def inner_point(domain, u):
    """A point of the domain from ``u`` in [-1, 1]^dim, at most 0.9 of the
    way from the middle to the boundary along each radius or edge, per
    factor of a product."""
    u = np.asarray(u)
    if isinstance(domain, Interval):
        return 0.5 * (domain.lo + domain.hi) + 0.45 * u * (domain.hi - domain.lo)
    if isinstance(domain, Ball):
        return np.asarray(domain.center) + 0.9 * domain.radius * u / max(1.0, np.linalg.norm(u))
    k = domain.first.dim
    return np.concatenate([inner_point(domain.first, u[:k]),
                           inner_point(domain.second, u[k:])])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), resolution=st.integers(3, 7), power=st.floats(1.0, 4.0),
       scale=st.floats(0.2, 3.0), top=st.floats(-2.0, 2.0))
def test_radial_power_closed_form_matches_detection(data, resolution, power, scale, top):
    # the closed-form argmax set against detection, which never consults
    # it, on ungraded ball, box and cylinder grids, the center at most 0.9 of
    # the way to the boundary so that no chord is near a tangent, where the
    # march's inflated domain moves its ends by more than 1e-11, and the
    # power at least 1: below it, a march along a principal axis tilted by
    # round-off e leaves the set where (e t)^power passes its tolerance.
    # The same sup and near-maximal node count, and where detection finds
    # one component of the same kind, representatives within 1e-11
    real = st.floats(-1.0, 1.0)
    domain = data.draw(st.one_of(
        st.builds(lambda c, r: Ball(tuple(c), r),
                  st.lists(real, min_size=2, max_size=3), st.floats(0.5, 2.0)),
        st.builds(lambda lo, w: Box(tuple(lo), tuple(a + b for a, b in zip(lo, w))),
                  st.lists(real, min_size=1, max_size=3),
                  st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3)),
        st.builds(Cylinder, st.floats(0.5, 2.0), st.floats(0.5, 2.0))))
    dim = domain.dim
    center = inner_point(domain, data.draw(st.lists(real, min_size=dim, max_size=dim)))
    free = data.draw(st.sampled_from([1, 0])) if dim > 1 else 0
    axes = None if not free else tuple(sorted(data.draw(st.permutations(range(dim)))[free:]))
    coeff = radial_power(top, scale, power, tuple(center), axes)
    grid = build_grid(domain, resolution)
    closed = model._closed_form_argmax(coeff, grid)
    full = detect_argmax_set(coeff, grid)
    assert closed.sup_value == full.sup_value
    (comp,) = closed.components
    assert comp.node_count == sum(c.node_count for c in full.components)
    if [c.kind for c in full.components] != [comp.kind]:
        # detection splits a chord into the points of clusters farther
        # apart than its link radius, calls a one-node cluster a point, and
        # a cluster spread across its segment a general one; every
        # representative it finds lies on the chord
        assert comp.kind == "segment"
        for c in full.components:
            assert c.kind != "segment"
            assert distance_to_target(c.representative, comp.representative)[0] <= 1e-11
        return
    mine, theirs = comp.representative, full.components[0].representative
    if isinstance(mine, Segment):
        mine, theirs = [mine.start, mine.end], [theirs.start, theirs.end]
        if math.dist(mine[0], theirs[0]) > math.dist(mine[0], theirs[1]):
            theirs.reverse()
    np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-11)


def test_radial_power_short_chord_is_detections_point():
    # a chord shorter than the point share of the grid's diameter is the
    # point detection's maximizer finds, exactly
    slab = Box((0.0, 0.0, 0.0), (1.0, 1.0, 0.01))
    coeff = radial_power(1.0, 1.0, 2.0, (0.3, 0.6), axes=(0, 1))
    for grid in (build_grid(slab, 5), build_grid(slab, 4, GradeSpec(((0.3, 0.6, 0.002),)))):
        closed = model._closed_form_argmax(coeff, grid)
        assert closed == detect_argmax_set(coeff, grid)
        assert closed.components[0].kind == "point"


def test_radial_power_closed_form_declines():
    # two free axes, a center outside the closed domain
    cube = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert radial_power(1.0, 1.0, 2.0, (0.5,)).argmax(cube) is None
    assert radial_power(1.0, 1.0, 2.0, (0.5, 0.5, 1.5)).argmax(cube) is None
    assert radial_power(1.0, 1.0, 2.0, (0.5, 1.5), axes=(0, 1)).argmax(cube) is None
    assert radial_power(1.0, 1.0, 2.0, (0.0, 0.0), axes=(0, 1)).argmax(
        Ball((1.0, 1.0, 0.0), 1.0)) is None
    # a product's chord lies in the factor that holds the free axis
    prod = Product(Interval(0.0, 1.0), Interval(0.0, 1.0))
    assert radial_power(1.0, 1.0, 2.0, (0.5,)).argmax(prod) == (
        Segment((0.5, 0.0), (0.5, 1.0)), False)
    assert radial_power(1.0, 1.0, 2.0, (1.5,)).argmax(prod) is None
    assert radial_power(1.0, 1.0, 1.5, (0.5, 0.5)).argmax(prod) == ((0.5, 0.5), True)
    # a closed form dies with the evaluate it stands for
    assert dataclasses.replace(radial_power(1.0, 1.0, 2.0, (0.5,))).argmax is None


SLAB = Product(Box((0.0, 0.0), (1.0, 2.0)), Interval(0.0, 3.0))


@pytest.mark.parametrize("domain, center, axis, segment", [
    (Box((0.0, -1.0), (2.0, 1.0)), (0.5, 7.0), 1, Segment((0.5, -1.0), (0.5, 1.0))),
    (Ball((1.0, 0.0, 0.0), 2.0), (1.0, 7.0, 0.0), 1,
     Segment((1.0, -2.0, 0.0), (1.0, 2.0, 0.0))),
    (Ball((0.0, 0.0), 5.0), (3.0, 7.0), 1, Segment((3.0, -4.0), (3.0, 4.0))),
    (Cylinder(1.0, 3.0), (0.5, 0.0, 7.0), 2, Segment((0.5, 0.0, 0.0), (0.5, 0.0, 3.0))),
    (Cylinder(5.0, 3.0), (7.0, 4.0, 1.0), 0, Segment((-3.0, 4.0, 1.0), (3.0, 4.0, 1.0))),
    (Cylinder(1.0, 3.0), (0.5, 7.0, 4.0), 1, None),
    (SLAB, (0.5, 7.0, 1.0), 1, Segment((0.5, 0.0, 1.0), (0.5, 2.0, 1.0))),
    (SLAB, (0.5, 1.0, 7.0), 2, Segment((0.5, 1.0, 0.0), (0.5, 1.0, 3.0))),
    (SLAB, (0.5, 7.0, 4.0), 1, None),
    (SLAB, (5.0, 1.0, 7.0), 2, None),
])
def test_chord_runs_lower_to_upper_end(domain, center, axis, segment):
    assert geometry._chord(domain, np.array(center), axis) == segment


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scale=st.floats(1e-3, 0.5), point_len=st.floats(0.0, 0.5))
def test_march_is_bisection_for_any_predicate(data, scale, point_len):
    # the set need not be convex along the line: a union of random intervals
    # in the unit square's first coordinate; each end is the scalar
    # bisection's, and a march stopped early bounds the full one's length
    cuts = np.sort(data.draw(arrays(np.float64, data.draw(st.integers(1, 4)) * 2,
                                    elements=st.floats(0.0, 1.0))))

    def inside(x):
        t = np.atleast_2d(x)[:, 0]
        return np.any((t[:, None] >= cuts[0::2]) & (t[:, None] <= cuts[1::2]), axis=1)

    coeff = custom_coefficient(lambda x: inside(x).astype(float))
    square = Box(lo=(0.0, 0.0), hi=(1.0, 1.0))
    origin = np.array(data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    angle = data.draw(st.floats(0.0, 2.0 * math.pi))
    direction = np.array([math.cos(angle), math.sin(angle)])
    expected = [scalar_march(coeff, square, origin, sign * direction, 1.0, 0.5, scale)
                for sign in (-1.0, 1.0)]
    ends, length = model._extend_along(coeff, square, origin, direction, 1.0, 0.5,
                                       scale, 0.0)
    np.testing.assert_array_equal(ends, expected)
    stopped, bound = model._extend_along(coeff, square, origin, direction, 1.0, 0.5,
                                         scale, point_len)
    if stopped is None:
        assert bound < point_len and length <= bound * (1 + 1e-12)
    else:
        np.testing.assert_array_equal(stopped, ends)
