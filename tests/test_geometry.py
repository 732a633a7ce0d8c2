import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeasure import (
    Ball,
    Box,
    ConfigurationError,
    Cylinder,
    GradeSpec,
    H1Violation,
    Interval,
    Product,
    Segment,
    build_grid,
    distance_to_target,
    volume,
)


def test_interval_uniform_nodes():
    g = build_grid(Interval(0.0, 1.0), 4)
    assert g.nodes.shape == (4, 1)
    np.testing.assert_allclose(g.nodes[:, 0], [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(g.weights, 0.25)
    assert g.mesh_size == pytest.approx(0.25)


def test_volumes_exact():
    assert volume(Interval(-1.0, 2.0)) == pytest.approx(3.0)
    assert volume(Box(lo=(0.0, 0.0), hi=(2.0, 3.0))) == pytest.approx(6.0)
    assert volume(Ball(center=(0.0, 0.0), radius=2.0)) == pytest.approx(4 * math.pi)
    assert volume(Ball(center=(0.0, 0.0, 0.0), radius=1.0)) == pytest.approx(4 * math.pi / 3)
    assert volume(Cylinder(radius=1.0, height=2.0)) == pytest.approx(2 * math.pi)
    prod = Product(Interval(0.0, 1.0), Interval(0.0, 2.0))
    assert volume(prod) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "domain",
    [
        Interval(0.0, 1.0),
        Box(lo=(0.0, -1.0), hi=(1.0, 1.0)),
        Ball(center=(0.0, 0.0), radius=1.5),
        Ball(center=(0.5, 0.0, 0.0), radius=1.0),
        Cylinder(radius=1.0, height=1.0),
    ],
)
def test_weights_sum_to_volume(domain):
    g = build_grid(domain, 8)
    rel = abs(float(np.sum(g.weights)) - volume(domain)) / volume(domain)
    assert rel < 10 * g.mesh_size**2
    assert np.all(g.weights > 0)


def test_quadrature_converges_quadratically():
    # integral of |x|^2 over the unit 3-ball is 4pi/5
    exact = 4 * math.pi / 5
    errs = []
    for res in (4, 8, 16):
        g = build_grid(Ball(center=(0.0, 0.0, 0.0), radius=1.0), res)
        val = float(np.sum(g.weights * np.sum(g.nodes**2, axis=1)))
        errs.append(abs(val - exact))
    assert errs[0] / errs[1] > 2.0
    assert errs[1] / errs[2] > 2.0


def test_ball_angular_weights_exact():
    # sum of angular weights (u = cos theta midpoint rule) is exactly 4pi,
    # so integrating f(|x|) = 1/|x|^2 reduces to the covered radial length
    g = build_grid(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 6)
    r2 = np.sum(g.nodes**2, axis=1)
    val = float(np.sum(g.weights / r2))
    assert val == pytest.approx(4 * math.pi, rel=1e-12)


def test_graded_ball_truncates_geometrically():
    # with grading, nodes keep off the center and the covered radial length
    # is R - (R/2) q^depth
    dom = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    vals = []
    for depth in (4, 6, 8):
        g = build_grid(dom, 6, GradeSpec(targets=((0.0, 0.0, 0.0),), depth=depth))
        r2 = np.sum(g.nodes**2, axis=1)
        assert np.all(r2 > 0)
        vals.append(float(np.sum(g.weights / r2)))
    expected = [4 * math.pi * (1 - 0.5**(d + 1)) for d in (4, 6, 8)]
    np.testing.assert_allclose(vals, expected, rtol=1e-12)
    assert vals[0] < vals[1] < vals[2] < 4 * math.pi


def test_graded_cylinder_axis():
    axis = Segment(start=(0.0, 0.0, 0.0), end=(0.0, 0.0, 1.0))
    g = build_grid(Cylinder(radius=1.0, height=1.0), 6,
                   GradeSpec(targets=(axis,), depth=6))
    r = np.hypot(g.nodes[:, 0], g.nodes[:, 1])
    assert np.all(r > 0)
    val = float(np.sum(g.weights / r))
    assert val == pytest.approx(2 * math.pi * (1 - 0.5**7), rel=1e-12)


def test_graded_interval_cell_widths_monotone():
    g = build_grid(Interval(-1.0, 1.0), 8, GradeSpec(targets=((0.0,),), depth=6))
    x = np.sort(g.nodes[:, 0])
    assert np.all(np.abs(g.nodes[:, 0]) > 0)
    # cell widths shrink monotonically approaching the target from the left
    left = x[x < 0]
    widths = np.diff(left)
    assert np.all(np.diff(widths) <= 1e-12)


def test_grading_leaves_gap_scaling_with_depth():
    dists = []
    for depth in (3, 5, 7):
        g = build_grid(Interval(-1.0, 1.0), 4, GradeSpec(targets=((0.0,),), depth=depth))
        dists.append(float(np.min(np.abs(g.nodes[:, 0]))))
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] / dists[1] == pytest.approx(4.0, rel=0.5)


def test_distance_to_target_point_and_segment():
    pts = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 2.0]])
    seg = Segment(start=(0.0, 0.0, 0.0), end=(0.0, 0.0, 1.0))
    d = distance_to_target(pts, seg)
    np.testing.assert_allclose(d, [0.0, 1.0, math.sqrt(2.0)])
    d2 = distance_to_target(pts, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(d2, [0.5, math.sqrt(1.25), math.sqrt(5.0)])


def test_invalid_domains_rejected():
    with pytest.raises(H1Violation):
        Interval(1.0, 1.0)
    with pytest.raises(H1Violation):
        Ball(center=(0.0, 0.0), radius=-1.0)
    with pytest.raises(ConfigurationError):
        Ball(center=(0.0,) * 4, radius=1.0)
    with pytest.raises(H1Violation):
        Box(lo=(0.0, 0.0), hi=(1.0,))
    with pytest.raises(H1Violation):
        Cylinder(radius=1.0, height=0.0)
    with pytest.raises(H1Violation):
        Interval(0.0, math.inf)
    with pytest.raises(H1Violation):
        Cylinder(radius=math.nan, height=1.0)
    with pytest.raises(H1Violation):
        Cylinder(radius=1.0, height=math.inf)
    with pytest.raises(ConfigurationError):
        Segment((0.0, 0.0), (math.nan, 1.0))
    with pytest.raises(ConfigurationError):
        Segment((-math.inf, 0.0), (0.0, 1.0))


def test_invalid_grading_rejected():
    with pytest.raises(ConfigurationError):
        GradeSpec(targets=((0.0,),), ratio=1.5)
    with pytest.raises(ConfigurationError):
        GradeSpec(targets=())
    with pytest.raises(ConfigurationError):
        build_grid(Interval(0.0, 1.0), 4, GradeSpec(targets=((2.0,),)))
    with pytest.raises(ConfigurationError):
        build_grid(Ball(center=(0.0, 0.0), radius=1.0), 4,
                   GradeSpec(targets=((0.5, 0.0),)))
    with pytest.raises(ConfigurationError):
        build_grid(Product(Interval(0.0, 1.0), Interval(0.0, 1.0)), 4,
                   GradeSpec(targets=((0.5, 0.5),)))
    with pytest.raises(ConfigurationError):
        build_grid(Interval(0.0, 1.0), 1)


def test_nodes_read_only():
    g = build_grid(Interval(0.0, 1.0), 4)
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 5.0


def test_product_grid_tensor_structure():
    prod = Product(Interval(0.0, 1.0), Interval(0.0, 2.0))
    g = build_grid(prod, 3)
    assert g.nodes.shape == (9, 2)
    assert float(np.sum(g.weights)) == pytest.approx(2.0)


coords = st.floats(-5.0, 5.0)
lengths = st.floats(0.2, 5.0)


@st.composite
def random_domains(draw):
    kind = draw(st.sampled_from(["box", "ball", "cylinder"]))
    if kind == "box":
        lo = draw(st.lists(coords, min_size=1, max_size=3))
        return Box(lo=tuple(lo), hi=tuple(x + draw(lengths) for x in lo))
    if kind == "ball":
        center = draw(st.lists(coords, min_size=2, max_size=3))
        return Ball(center=tuple(center), radius=draw(lengths))
    return Cylinder(radius=draw(lengths), height=draw(lengths))


@settings(max_examples=60, deadline=None)
@given(domain=random_domains(), resolution=st.integers(3, 8))
def test_random_domain_weights_sum_to_volume(domain, resolution):
    g = build_grid(domain, resolution)
    rel = abs(float(np.sum(g.weights)) - volume(domain)) / volume(domain)
    assert rel < 10 * g.mesh_size**2
    assert np.all(g.weights > 0)
