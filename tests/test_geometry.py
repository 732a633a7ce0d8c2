import math
import tracemalloc

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
    TooLargeError,
    build_grid,
    distance_to_target,
    geometry,
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


@pytest.mark.parametrize("resolution, targets, ratio, depth", [
    (5, (), 0.5, 0), (6, ((0.3,),), 0.5, 5), (6, ((-1.0,),), 0.5, 4),
    (7, ((-0.4,), (0.6,)), 0.4, 6),
], ids=["ungraded", "interior", "endpoint", "two-targets"])
def test_interval_grid_matches_line_cells(resolution, targets, ratio, depth):
    # an interval grid is the one-axis tensor grid: midpoints and widths of
    # the graded line cells, mesh the widest cell, and each target's span
    # half its distance to the nearer end (the whole interval at an end)
    lo, hi = -1.0, 1.0
    grading = GradeSpec(targets=targets, ratio=ratio, depth=depth) if targets else None
    g = build_grid(Interval(lo, hi), resolution, grading)
    cells = geometry._line_cells(lo, hi, resolution, tuple(t[0] for t in targets),
                                 ratio, depth)
    mids, widths = geometry._midpoints_widths(cells)
    assert np.array_equal(g.nodes, mids[:, None])
    assert np.array_equal(g.weights, widths)
    assert g.mesh_size == float(np.max(widths))
    assert g.grade_spans == tuple(
        min(d for d in (t[0] - lo, hi - t[0], hi - lo) if d > 0) / 2 for t in targets)
    assert g.grading is grading
    with pytest.raises(ConfigurationError, match="interval grading targets"):
        build_grid(Interval(lo, hi), resolution,
                   GradeSpec(targets=(Segment((lo,), (hi,)),)))
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        build_grid(Interval(lo, hi), resolution, GradeSpec(targets=((0.5, 0.2),)))


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
    with pytest.raises(ConfigurationError):
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


@pytest.mark.parametrize("domain, grading", [
    (Interval(0.0, 1.0), GradeSpec(targets=((0.3,),), depth=4)),
    (Box(lo=(0.0, 0.0), hi=(1.0, 2.0)), GradeSpec(targets=((1.0, 2.0),), depth=3)),
    (Ball(center=(0.0, 0.0), radius=1.0), GradeSpec(targets=((0.0, 0.0),), depth=5)),
    (Ball(center=(0.0, 0.0, 0.0), radius=1.0), GradeSpec(targets=((0.0, 0.0, 0.0),), depth=5)),
    (Cylinder(radius=1.0, height=1.0),
     GradeSpec(targets=(Segment(start=(0.0, 0.0, 0.0), end=(0.0, 0.0, 1.0)),), depth=4)),
    (Product(Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), Interval(0.0, 1.0)), None),
], ids=["interval", "box", "disk", "ball", "cylinder", "product"])
def test_grid_refused_at_its_exact_node_count(monkeypatch, domain, grading):
    # the node count taken from the 1-D cell lists is the grid's size: one
    # byte below the budget for it refuses the grid, the budget itself builds it
    size = build_grid(domain, 5, grading).size
    monkeypatch.setattr(geometry, "_memory_budget", lambda: geometry._NODE_BYTES * size - 1)
    with pytest.raises(TooLargeError, match=f"^a grid of {size} nodes needs "):
        build_grid(domain, 5, grading)
    monkeypatch.setattr(geometry, "_memory_budget", lambda: geometry._NODE_BYTES * size)
    assert build_grid(domain, 5, grading).size == size


@pytest.mark.parametrize("domain, resolution, grading", [
    (Interval(0.0, 1.0), 200_000, None),
    (Ball(center=(0.0, 0.0, 0.0), radius=1.0), 200_000,
     GradeSpec(targets=((0.0, 0.0, 0.0),), depth=8)),
    (Ball(center=(0.0, 0.0, 0.0), radius=1.0), 6,
     GradeSpec(targets=((0.0, 0.0, 0.0),), depth=200_000)),
], ids=["interval", "graded-ball-resolution", "ball-depth"])
def test_oversized_grid_refused_before_its_cells_exist(monkeypatch, domain, resolution,
                                                       grading):
    # the 1-D cell lists were once built before the node count was checked,
    # a peak of 23-31 MB under this 1 MiB budget; now each piece's cell
    # count, and a graded line's depth, is refused before the piece exists
    budget = 1 << 20
    monkeypatch.setattr(geometry, "_memory_budget", lambda: budget)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="^a grid of at least "):
            build_grid(domain, resolution, grading)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


@pytest.mark.parametrize("domain, target", [
    (Ball(center=(0.0, 0.0, 0.0), radius=1.0), (0.0, 0.0)),
    (Ball(center=(0.0, 0.0), radius=1.0), (0.0, 0.0, 0.0)),
    (Cylinder(radius=1.0, height=1.0), Segment((0.0, 0.0), (0.0, 0.0))),
    (Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), Segment((0.5, 0.0, 0.0), (0.5, 1.0, 0.0))),
], ids=["ball", "disk", "cylinder", "box-segment"])
def test_target_of_another_dimension_refused(domain, target):
    # the ball's and the cylinder's were a ValueError or a grid built anyway
    with pytest.raises(ConfigurationError, match="^grading target dimension mismatch"):
        build_grid(domain, 4, GradeSpec(targets=(target,), depth=3))
