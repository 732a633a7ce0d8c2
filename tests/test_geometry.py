import ast
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


coords = st.floats(-5.0, 5.0)
lengths = st.floats(0.2, 5.0)


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


def test_one_dimensional_box_refuses_segment_targets():
    # an interval is the 1-D box; the box once dropped a segment target and
    # built an ungraded grid whose node 0.375 lay on the segment
    with pytest.raises(ConfigurationError, match="^interval grading targets must be points"):
        build_grid(Box((0.0,), (1.0,)), 4,
                   GradeSpec((Segment((0.2,), (0.5,)),), depth=4))


@settings(max_examples=60, deadline=None)
@given(lo=coords, length=lengths, resolution=st.integers(2, 12),
       target=st.none() | st.tuples(st.floats(0.0, 1.0), st.integers(1, 8)),
       xs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=8))
def test_interval_is_the_one_dimensional_box(lo, length, resolution, target, xs):
    hi = lo + length
    grading = None if target is None else GradeSpec(
        targets=((lo + target[0] * length,),), depth=target[1])
    interval, box = Interval(lo, hi), Box((lo,), (hi,))
    gi, gb = build_grid(interval, resolution, grading), build_grid(box, resolution, grading)
    assert np.array_equal(gi.nodes, gb.nodes)
    assert np.array_equal(gi.weights, gb.weights)
    assert gi.mesh_size == gb.mesh_size
    assert gi.grade_spans == gb.grade_spans
    assert volume(interval) == volume(box)
    pts = np.asarray(xs)[:, None]
    assert np.array_equal(geometry.contains(interval, pts), geometry.contains(box, pts))
    assert np.array_equal(geometry.project_to_closure(interval, pts),
                          geometry.project_to_closure(box, pts))


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
    # a product grades each factor toward the projections of a point or of
    # a segment along one factor, and refuses an oblique segment
    square = Product(Interval(0.0, 1.0), Interval(0.0, 1.0))
    for target in ((0.5, 0.5), Segment((0.5, 0.0), (0.5, 1.0)),
                   Segment((0.0, 0.5), (1.0, 0.5))):
        assert build_grid(square, 4, GradeSpec(targets=(target,))).grading.targets == (target,)
    with pytest.raises(ConfigurationError, match="^product grids support grading "
                       "toward segments along one factor only$"):
        build_grid(square, 4, GradeSpec(targets=(Segment((0.5, 0.0), (0.6, 1.0)),)))
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


@st.composite
def random_boxes(draw, min_dim=1, max_dim=3):
    lo = draw(st.lists(coords, min_size=min_dim, max_size=max_dim))
    return Box(lo=tuple(lo), hi=tuple(x + draw(lengths) for x in lo))


@st.composite
def random_domains(draw):
    kind = draw(st.sampled_from(["box", "ball", "cylinder", "disk-interval",
                                 "box-interval"]))
    if kind == "box":
        return draw(random_boxes())
    if kind == "ball":
        center = draw(st.lists(coords, min_size=2, max_size=3))
        return Ball(center=tuple(center), radius=draw(lengths))
    if kind == "cylinder":
        return Cylinder(radius=draw(lengths), height=draw(lengths))
    first = (Ball(center=(draw(coords), draw(coords)), radius=draw(lengths))
             if kind == "disk-interval" else draw(random_boxes(2, 2)))
    return Product(first, draw(random_boxes(1, 1)))


@settings(max_examples=60, deadline=None)
@given(domain=random_domains(), resolution=st.integers(3, 8))
def test_random_domain_weights_sum_to_volume(domain, resolution):
    g = build_grid(domain, resolution)
    rel = abs(float(np.sum(g.weights)) - volume(domain)) / volume(domain)
    assert rel < 10 * g.mesh_size**2
    assert np.all(g.weights > 0)


@settings(max_examples=40, deadline=None)
@given(radius=st.floats(0.3, 3.0), height=st.floats(0.3, 3.0),
       resolution=st.integers(3, 12), depth=st.integers(1, 14),
       ratio=st.floats(0.2, 0.8))
def test_cylinder_is_the_graded_disk_times_the_interval(radius, height, resolution,
                                                       depth, ratio):
    # the disk's nodes tiled beside the interval's repeated, the disk graded
    # toward its center when the cylinder is graded toward its axis
    spec = GradeSpec((Segment((0.0, 0.0, 0.0), (0.0, 0.0, height)),), ratio, depth)
    grid = build_grid(Cylinder(radius, height), resolution, spec)
    disk = build_grid(Ball((0.0, 0.0), radius), resolution,
                      GradeSpec(((0.0, 0.0),), ratio, depth))
    line = build_grid(Interval(0.0, height), resolution)
    nd, nz = disk.size, line.size
    nodes = np.concatenate([np.tile(disk.nodes, (nz, 1)),
                            np.repeat(line.nodes, nd, axis=0)], axis=1)
    assert np.array_equal(grid.nodes, nodes)
    assert np.array_equal(grid.weights, np.tile(disk.weights, nz) * np.repeat(line.weights, nd))
    assert grid.grading == spec
    assert grid.grade_spans == disk.grade_spans
    mesh = math.sqrt(disk.mesh_size**2 + line.mesh_size**2)
    assert abs(grid.mesh_size - mesh) <= 2 * math.ulp(mesh)


@settings(max_examples=40, deadline=None)
@given(domain=random_domains(), resolution=st.integers(2, 8), graded=st.booleans())
def test_ring_grids_rotate_each_ring_first_node(domain, resolution, graded):
    # a ball's grid, and a product's whose first factor is a ball, is built
    # from rings: runs of Grid.ring nodes of one weight, node k the ring's
    # first node rotated by 2 pi k / ring about the center in the plane of
    # the first two coordinates, every first node at the azimuth pi / ring.
    # A box's grid has none
    first = domain.first if isinstance(domain, Product) else domain
    spec = None
    if graded and isinstance(domain, Ball):
        spec = GradeSpec((domain.center,), depth=3)
    grid = build_grid(domain, resolution, spec)
    if not isinstance(first, Ball):
        assert grid.ring == 0
        return
    n = grid.ring
    assert n == max(6, 2 * resolution) and grid.size % n == 0
    weights = grid.weights.reshape(-1, n)
    assert np.all(weights == weights[:, :1])
    rings = grid.nodes.reshape(-1, n, domain.dim)
    np.testing.assert_array_equal(rings[:, :, 2:], np.broadcast_to(rings[:, :1, 2:],
                                                                   rings[:, :, 2:].shape))
    off = rings[:, :, :2] - np.asarray(first.center[:2])
    x0, y0 = off[:, :1, 0], off[:, :1, 1]
    turn = 2 * math.pi * np.arange(n) / n
    rotated = np.stack([np.cos(turn) * x0 - np.sin(turn) * y0,
                        np.sin(turn) * x0 + np.cos(turn) * y0], axis=2)
    tol = 1e-13 * (first.radius + max(abs(c) for c in first.center))
    assert np.max(np.abs(off - rotated)) <= tol
    np.testing.assert_allclose(np.arctan2(y0, x0), math.pi / n, rtol=1e-12)


def test_ball_grades_toward_its_center_to_an_absolute_tolerance():
    # the tolerance once grew with the center's coordinates: a target 9e-4
    # off the center (100, 0, 0) graded the unit ball toward its center
    ball = Ball((100.0, 0.0, 0.0), 1.0)
    with pytest.raises(ConfigurationError,
                       match="^ball grids support grading toward the center only$"):
        build_grid(ball, 4, GradeSpec(((100.0009, 0.0, 0.0),), depth=14))
    assert build_grid(ball, 4, GradeSpec(((100.0 + 1e-10, 0.0, 0.0),), depth=14)).grade_spans


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


@st.composite
def graded_boxes(draw):
    """Corners of a 1-3-D box and a spec: none, or toward a point or (in 2-D
    and 3-D) a segment along one axis, each drawn in the closed box."""
    lo = draw(st.lists(coords, min_size=1, max_size=3))
    hi = [a + draw(lengths) for a in lo]
    kind = draw(st.sampled_from(["none", "point", "segment"][:2 + (len(lo) > 1)]))
    if kind == "none":
        return lo, hi, None
    unit = st.floats(0.0, 1.0)
    point = [a + draw(unit) * (b - a) for a, b in zip(lo, hi)]
    target = tuple(point)
    if kind == "segment":
        axis = draw(st.integers(0, len(lo) - 1))
        ends = sorted(lo[axis] + draw(unit) * (hi[axis] - lo[axis]) for _ in range(2))
        assume(ends[0] < ends[1])
        start, end = list(point), list(point)
        start[axis], end[axis] = ends
        target = Segment(tuple(start), tuple(end))
    return lo, hi, GradeSpec((target,), draw(st.floats(0.2, 0.8)), draw(st.integers(1, 8)))


@settings(max_examples=80, deadline=None)
@given(box=graded_boxes(), resolution=st.integers(2, 6))
def test_box_is_the_tensor_product_of_its_graded_edges(box, resolution):
    # each edge graded toward the target's projection onto it, or ungraded
    # along the segment's own axis; the first edge varies fastest
    lo, hi, spec = box
    grid = build_grid(Box(tuple(lo), tuple(hi)), resolution, spec)
    edges = []
    for k, edge in enumerate(map(Interval, lo, hi)):
        target = None if spec is None else spec.targets[0]
        if isinstance(target, Segment):
            target = None if target.start[k] != target.end[k] else (target.start[k],)
        elif target is not None:
            target = (target[k],)
        edges.append(build_grid(edge, resolution, target and GradeSpec(
            (target,), spec.ratio, spec.depth)))
    mids = np.meshgrid(*(e.nodes[:, 0] for e in reversed(edges)), indexing="ij")
    nodes = np.stack([m.ravel() for m in reversed(mids)], axis=1)
    weights = functools.reduce(lambda acc, e: np.multiply.outer(e.weights, acc),
                               edges[1:], edges[0].weights).ravel()
    assert np.array_equal(grid.nodes, nodes)
    assert np.array_equal(grid.weights, weights)
    assert grid.grade_spans == sum((e.grade_spans for e in edges), ())
    assert grid.mesh_size == pytest.approx(math.hypot(*(e.mesh_size for e in edges)),
                                           rel=1e-15)
    assert grid.grading is spec
    if len(lo) > 1:
        # a segment moving along two edges
        oblique = GradeSpec((Segment(tuple(lo), tuple(hi)),))
        for domain in (Box(tuple(lo), tuple(hi)),
                       Product(Interval(lo[0], hi[0]), Box(tuple(lo[1:]), tuple(hi[1:])))):
            with pytest.raises(ConfigurationError, match="^product grids support grading "
                               "toward segments along one factor only$"):
                build_grid(domain, resolution, oblique)


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


DOMAIN_CLASSES = {"Interval", "Ball", "Product"}
# domains built by a function, which no ``case`` or ``isinstance`` can name
DOMAIN_FUNCTIONS = {"Box", "Cylinder"}


def _names(node):
    """The names a class pattern or an isinstance class argument holds."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def test_domain_dispatch_lives_in_geometry():
    # a ``case`` or an isinstance or issubclass test on a domain class
    # outside geometry.py would be a second place to teach a new kind of
    # domain
    assert {cls.__name__ for cls in geometry.Domain.__args__} == DOMAIN_CLASSES
    for path in Path(geometry.__file__).parent.glob("*.py"):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.MatchClass):
                names = _names(node.cls)
            elif (isinstance(node, ast.Call) and len(node.args) == 2
                  and _names(node.func) in (["isinstance"], ["issubclass"])):
                names = _names(node.args[1])
            else:
                continue
            for name in names:
                assert name not in DOMAIN_CLASSES | DOMAIN_FUNCTIONS, \
                    f"{path.name}:{node.lineno} dispatches on {name}"
