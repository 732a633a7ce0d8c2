"""Domains, graded grids, and quadrature.

The domains are ``Interval``, ``Ball`` and ``Product``; ``Box(lo, hi)`` is
the product of its edges and ``Cylinder(radius, height)`` the product of a
disk and an interval.  Every dispatch on the kind of a domain lives in this
module.

Grids are midpoint tensor rules.  Balls are discretized in adapted
coordinates (radial x angular), so radial weights carry the Jacobian factor
r^(d-1); a product's grid is the tensor grid of its factors' grids, each
graded toward the targets' projections onto it.
Grading places a geometric cascade of cells toward each target (ratio q per
level) and truncates at the innermost cascade radius, so no node ever lands
on a target and integrable singularities of the form dist(x, target)^(-p),
p < d, are captured with an error that is geometric in the grading depth.
A grid keeps the ``GradeSpec`` it was built with as ``Grid.grading`` (None
when ungraded), so coarser and finer grids follow from it.

Ball grids, and products whose first factor is a ball, are built from
rings: ``Grid.ring`` consecutive nodes of equal weight, each the one before
rotated by 2 pi / ring about the center, in the plane of the first two
coordinates; every ring's first node lies at the azimuth pi / ring, on a
mirror plane of all the rings.  Other grids have no rings (``ring`` 0).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, H1Violation, TooLargeError

__all__ = [
    "Interval",
    "Box",
    "Ball",
    "Cylinder",
    "Product",
    "Segment",
    "GradeSpec",
    "Grid",
    "volume",
    "build_grid",
    "distance_to_target",
]


@dataclass(frozen=True)
class Interval:
    """The interval [lo, hi]."""

    lo: float
    hi: float
    dim = 1

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise H1Violation("interval endpoints must be finite")
        if self.hi <= self.lo:
            raise H1Violation(f"empty interval: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if len(self.center) not in (2, 3):
            raise ConfigurationError("ball domains support dimension 2 or 3")
        if not math.isfinite(self.radius) or self.radius <= 0:
            raise H1Violation(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Product:
    first: "Domain"
    second: "Domain"

    @property
    def dim(self) -> int:
        return self.first.dim + self.second.dim


Domain = Interval | Ball | Product


def Box(lo: tuple[float, ...], hi: tuple[float, ...]) -> Domain:
    """The box with corners ``lo`` and ``hi``: the product of its edges
    [lo_k, hi_k], the first edge innermost; a 1-D box is its interval."""
    if len(lo) != len(hi) or not lo:
        raise ConfigurationError("box bounds must be nonempty and of equal length")
    for a, b in zip(lo, hi):
        if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
            raise H1Violation(f"degenerate box edge: [{a}, {b}]")
    return functools.reduce(Product, (Interval(a, b) for a, b in zip(lo, hi)))


def Cylinder(radius: float, height: float) -> Product:
    """The cylinder {x1^2 + x2^2 < radius^2, 0 < x3 < height} in R^3: the
    disk of ``radius`` about the origin times the interval [0, height]."""
    if not (math.isfinite(radius) and math.isfinite(height)):
        raise H1Violation("cylinder radius and height must be finite")
    if radius <= 0 or height <= 0:
        raise H1Violation("cylinder radius and height must be positive")
    return Product(Ball((0.0, 0.0), radius), Interval(0.0, height))


@dataclass(frozen=True)
class Segment:
    """Closed line segment between two points of R^d."""

    start: tuple[float, ...]
    end: tuple[float, ...]

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ConfigurationError("segment endpoints must share a dimension")
        if not all(math.isfinite(v) for v in (*self.start, *self.end)):
            raise ConfigurationError("segment endpoints must be finite")


Target = tuple[float, ...] | Segment


@dataclass(frozen=True)
class GradeSpec:
    """Geometric grading toward one or more targets.

    ``ratio`` is the cell-size ratio per cascade level, ``depth`` the number
    of levels.  The cascade spans half the distance from the target to the
    nearest obstruction (boundary or neighboring target).
    """

    targets: tuple[Target, ...]
    ratio: float = 0.5
    depth: int = 6

    def __post_init__(self):
        if not self.targets:
            raise ConfigurationError("grading requires at least one target")
        if not 0 < self.ratio < 1:
            raise ConfigurationError(f"grading ratio must be in (0, 1), got {self.ratio}")
        if self.depth < 1:
            raise ConfigurationError(f"grading depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class Grid:
    nodes: np.ndarray            # (N, dim)
    weights: np.ndarray          # (N,)
    mesh_size: float
    domain: Domain
    resolution: int = 0
    grading: GradeSpec | None = None      # the spec the grid was built with
    grade_spans: tuple[float, ...] = ()   # cascade span per target
    ring: int = 0                # nodes per ring, 0 without rings

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def same_nodes(self, other: "Grid") -> bool:
        return self.nodes.shape == other.nodes.shape and np.array_equal(
            self.nodes, other.nodes
        )


def volume(domain: Domain) -> float:
    """Lebesgue measure of the domain."""
    match domain:
        case Interval(lo=lo, hi=hi):
            return hi - lo
        case Ball(center=c, radius=r):
            return math.pi * r * r if len(c) == 2 else 4.0 / 3.0 * math.pi * r**3
        case Product(first=f, second=s):
            return volume(f) * volume(s)
    raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")


def distance_to_target(points: np.ndarray, target: Target) -> np.ndarray:
    """Euclidean distance from each point to a point or segment target."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(target, Segment):
        a = np.asarray(target.start, dtype=float)
        b = np.asarray(target.end, dtype=float)
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            return np.linalg.norm(pts - a, axis=1)
        t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        return np.linalg.norm(pts - proj, axis=1)
    t = np.asarray(target, dtype=float)
    return np.linalg.norm(pts - t, axis=1)


def contains(domain: Domain, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Membership in the closure of the domain, inflated by ``tol``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    match domain:
        case Interval(lo=lo, hi=hi):
            return (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
        case Ball(center=c, radius=r):
            d = np.linalg.norm(pts - np.asarray(c), axis=1)
            return d <= r + tol
        case Product(first=f, second=s):
            k = f.dim
            return contains(f, pts[:, :k], tol) & contains(s, pts[:, k:], tol)
    raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")


def project_to_closure(domain: Domain, points: np.ndarray) -> np.ndarray:
    """Nearest point of the closed domain, per row."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    match domain:
        case Interval(lo=lo, hi=hi):
            np.clip(pts[:, 0], lo, hi, out=pts[:, 0])
        case Ball(center=c, radius=r):
            cc = np.asarray(c, dtype=float)
            off = pts - cc
            d = np.linalg.norm(off, axis=1)
            far = d > r
            pts[far] = cc + off[far] * (r / d[far])[:, None]
        case Product(first=f, second=s):
            k = f.dim
            pts = np.concatenate(
                [project_to_closure(f, pts[:, :k]),
                 project_to_closure(s, pts[:, k:])], axis=1
            )
        case _:
            raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")
    return pts


def _linear_maximizer(domain: Domain, c: np.ndarray,
                      start: np.ndarray) -> np.ndarray:
    """A maximizer of x -> c . x over the closed domain: an end of an
    interval, center + r c / |c| on a ball, the same per factor of a product.
    Directions that c leaves free keep ``start``, projected."""
    if isinstance(domain, Product):
        k = domain.first.dim
        return np.concatenate([_linear_maximizer(domain.first, c[:k], start[:k]),
                               _linear_maximizer(domain.second, c[k:], start[k:])])
    best = project_to_closure(domain, start[None, :])[0]
    match domain:
        case Interval(lo=lo, hi=hi):
            best = np.where(c > 0, hi, np.where(c < 0, lo, best))
        case Ball(center=center, radius=r):
            norm = float(np.linalg.norm(c))
            if norm > 0:
                best = np.asarray(center, dtype=float) + r * (c / norm)
    return best


def _chord(domain: Domain, point: np.ndarray, axis: int) -> Segment | None:
    """The chord of the closed domain along ``axis`` through ``point``, from
    its lower to its upper end; ``point``'s own coordinate along ``axis`` is
    ignored.  None where the line misses the closure.  On a product it is
    the chord in the factor that holds ``axis``, where the other factor
    holds the point's remaining coordinates."""
    mid = np.array(point, dtype=float)
    match domain:
        case Product(first=f, second=s):
            # the membership test below checks the other factor at the
            # middle of this factor's chord
            factor, lead = (f, 0) if axis < f.dim else (s, f.dim)
            chord = _chord(factor, mid[lead:lead + factor.dim], axis - lead)
            if chord is None:
                return None
            ends = (chord.start[axis - lead], chord.end[axis - lead])
            mid[axis] = (ends[0] + ends[1]) / 2
        case Interval(lo=lo, hi=hi):
            mid[0] = lo
            ends = (lo, hi)
        case Ball(center=c, radius=r):
            mid[axis] = c[axis]
            off = mid - np.asarray(c, dtype=float)
            half = math.sqrt(max(r * r - float(off @ off), 0.0))
            ends = (c[axis] - half, c[axis] + half)
        case _:
            return None
    if not contains(domain, mid[None, :])[0]:
        return None
    start, end = mid.copy(), mid.copy()
    start[axis], end[axis] = ends
    return Segment(tuple(float(v) for v in start), tuple(float(v) for v in end))


# -- memory ---------------------------------------------------------------

# bytes per node that building a grid and validating a Problem on it peak at
# (tracemalloc, N = 10,240-61,200): 616 with a Gaussian kernel, whose 96
# sampled rows are checked 16 at a time, 312 with the constant kernel
_NODE_BYTES = 640


def _memory_budget() -> int:
    """Physical memory in bytes, the ceiling for any one allocation."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(nbytes: int, what: str,
                  advice: str = "lower the resolution or grading depth") -> None:
    """Refuse to allocate ``what``, ``nbytes`` bytes, beyond physical memory;
    the error ends with ``advice``."""
    budget = _memory_budget()
    if nbytes > budget:
        raise TooLargeError(
            f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
            f"{budget / 2**30:.3g} GiB of physical memory; {advice}"
        )


def _check_nodes(size: int) -> None:
    """Refuse a grid of ``size`` nodes before any of its arrays exists."""
    _check_memory(_NODE_BYTES * size, f"a grid of {size} nodes")


def _check_cells(count: int) -> None:
    """Refuse a piece of ``count`` 1-D cells before it is built: a grid has
    at least as many nodes as any line of cells it is built from."""
    _check_memory(_NODE_BYTES * count, f"a grid of at least {count} nodes")


# -- 1-D cell machinery -------------------------------------------------

def _cascade_cells(anchor: float, span: float, ratio: float, depth: int,
                   h_adjacent: float, toward_left: bool) -> list[tuple[float, float]]:
    """Geometric cascade of cells accumulating toward ``anchor``.

    Annulus k covers [anchor + span*q^(k+1), anchor + span*q^k] (mirrored when
    ``toward_left`` is False, i.e. the target sits at the right end).  Each
    annulus is subdivided so cell widths never exceed the adjacent uniform
    width; the region inside span*q^depth is left uncovered.
    """
    annuli = [(span * ratio ** (k + 1), span * ratio**k) for k in range(depth)]
    counts = [max(1, round((outer - inner) / h_adjacent)) if h_adjacent > 0 else 1
              for inner, outer in annuli]
    _check_cells(sum(counts))
    cells: list[tuple[float, float]] = []
    for (inner, outer), m in zip(annuli, counts):
        edges = np.linspace(inner, outer, m + 1)
        for j in range(m):
            if toward_left:
                cells.append((anchor + edges[j], anchor + edges[j + 1]))
            else:
                cells.append((anchor - edges[j + 1], anchor - edges[j]))
    cells.sort()
    return cells


def _line_cells(lo: float, hi: float, resolution: int,
                targets: tuple[float, ...] = (),
                ratio: float = 0.5, depth: int = 0) -> list[tuple[float, float]]:
    """Partition [lo, hi] into cells, graded toward interior/endpoint targets.

    Each piece, the uniform cells and each cascade, is checked against
    physical memory by its cell count before it is built, and a graded line
    by ``depth`` first, since each target's cascade holds that many cells
    at least."""
    if resolution < 1:
        raise ConfigurationError(f"resolution must be >= 1, got {resolution}")
    length = hi - lo
    h_goal = length / resolution
    ts = sorted(set(targets))
    for t in ts:
        if not lo <= t <= hi:
            raise ConfigurationError(f"grading target {t} outside [{lo}, {hi}]")

    if not ts or depth == 0:
        _check_cells(resolution)
        edges = np.linspace(lo, hi, resolution + 1)
        return [(edges[i], edges[i + 1]) for i in range(resolution)]

    _check_cells(depth)
    # Split at targets; each target side gets a cascade spanning half the gap.
    bounds = [lo] + ts + [hi]
    cells: list[tuple[float, float]] = []
    for i in range(len(bounds) - 1):
        p, q = bounds[i], bounds[i + 1]
        seg_len = q - p
        if seg_len <= 0:
            continue
        tgt_left = p in ts
        tgt_right = q in ts
        span_l = seg_len / 2 if tgt_left else 0.0
        span_r = seg_len / 2 if tgt_right else 0.0
        u_lo, u_hi = p + span_l, q - span_r
        m = max(1, round((u_hi - u_lo) / h_goal)) if u_hi > u_lo else 0
        h_adj = (u_hi - u_lo) / m if m else min(span_l, span_r) * (1 - ratio)
        if m:
            _check_cells(m)
            edges = np.linspace(u_lo, u_hi, m + 1)
            cells.extend((edges[j], edges[j + 1]) for j in range(m))
        if tgt_left:
            cells.extend(_cascade_cells(p, span_l, ratio, depth, h_adj, toward_left=True))
        if tgt_right:
            cells.extend(_cascade_cells(q, span_r, ratio, depth, h_adj, toward_left=False))
    cells.sort()
    return cells


def _midpoints_widths(cells: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(cells, dtype=float)
    return (arr[:, 0] + arr[:, 1]) / 2.0, arr[:, 1] - arr[:, 0]


# -- shape-specific builders --------------------------------------------

def _angular_ring(n_phi: int) -> tuple[np.ndarray, float]:
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    return phi, 2 * math.pi / n_phi


def _polar_sphere(n_u: int) -> tuple[np.ndarray, float, float]:
    """Midpoint rule in u = cos(theta); exact for constants on the sphere."""
    du = 2.0 / n_u
    u = -1.0 + (np.arange(n_u) + 0.5) * du
    theta = np.arccos(u)
    max_dtheta = float(np.max(np.diff(np.arccos(np.linspace(1.0, -1.0, n_u + 1)))))
    return theta, du, max_dtheta


def _build_ball(domain: Ball, resolution: int, grading: GradeSpec | None) -> Grid:
    if grading is not None:
        # each coordinate within 1e-9 radius of the center's, whatever the
        # center's size
        tol = 1e-9 * domain.radius
        for t in grading.targets:
            if isinstance(t, Segment) or not all(
                    abs(a - b) <= tol for a, b in zip(t, domain.center)):
                raise ConfigurationError(
                    "ball grids support grading toward the center only"
                )
    ratio, depth = (grading.ratio, grading.depth) if grading else (0.5, 0)
    cells = _line_cells(0.0, domain.radius, resolution, (0.0,), ratio, depth)
    n_phi = max(6, 2 * resolution)
    n_u = max(4, resolution)
    _check_nodes(len(cells) * n_phi * (n_u if domain.dim == 3 else 1))
    r_mid, r_w = _midpoints_widths(cells)
    center = np.asarray(domain.center, dtype=float)

    phi, dphi = _angular_ring(n_phi)
    if domain.dim == 2:
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        ang_w = np.full(n_phi, dphi)
        radial_w = r_mid * r_w
        max_arc = domain.radius * dphi
        mesh = math.hypot(float(np.max(r_w)), max_arc)
    else:
        theta, du, max_dtheta = _polar_sphere(n_u)
        st, ct = np.sin(theta), np.cos(theta)
        dirs = np.stack(
            [np.outer(st, np.cos(phi)).ravel(),
             np.outer(st, np.sin(phi)).ravel(),
             np.repeat(ct, n_phi)],
            axis=1,
        )
        ang_w = np.full(dirs.shape[0], du * dphi)
        radial_w = r_mid**2 * r_w
        max_arc = domain.radius * max(max_dtheta, dphi)
        mesh = math.hypot(float(np.max(r_w)), max_arc)

    nodes = center[None, :] + r_mid[:, None, None] * dirs[None, :, :]
    nodes = nodes.reshape(-1, domain.dim)
    weights = (radial_w[:, None] * ang_w[None, :]).ravel()
    spans = (domain.radius / 2,) if grading else ()
    return Grid(nodes, weights, mesh, domain, resolution=resolution,
                grading=grading, grade_spans=spans, ring=n_phi)


def _build_interval(domain: Interval, resolution: int,
                    grading: GradeSpec | None) -> Grid:
    lo, hi = domain.lo, domain.hi
    targets: tuple[float, ...] = ()
    if grading is not None:
        if any(isinstance(t, Segment) for t in grading.targets):
            raise ConfigurationError("interval grading targets must be points")
        targets = tuple(t[0] for t in grading.targets)
    ratio, depth = (grading.ratio, grading.depth) if grading else (0.5, 0)
    mids, widths = _midpoints_widths(_line_cells(lo, hi, resolution, targets, ratio, depth))
    _check_nodes(mids.size)
    spans = []
    for t in targets:
        gaps = [g for g in (t - lo, hi - t) if g > 0]
        spans.append(min(gaps) / 2 if gaps else 0.0)
    return Grid(mids[:, None], widths, float(np.max(widths)), domain,
                resolution=resolution, grading=grading, grade_spans=tuple(spans))


def _build_product(domain: Product, resolution: int,
                   grading: GradeSpec | None) -> Grid:
    """The tensor grid of the factors' grids, second factor outermost: the
    first factor's nodes tiled, the second's repeated, so the first
    factor's rings stay rings, and a box's first edge varies fastest.

    Each grading target is projected onto each factor, which is graded
    toward the projections with the spec's ratio and depth.  A point
    projects to a point.  A segment must move within one factor only: that
    factor receives the segment, or runs along it ungraded if it is an
    interval, and the other factor the segment's projected point.  The
    grid's cascade spans are the first factor's, then the second's."""
    factors, k = (domain.first, domain.second), domain.first.dim
    projected: tuple[list[Target], list[Target]] = ([], [])
    for t in grading.targets if grading else ():
        if not isinstance(t, Segment):
            projected[0].append(t[:k])
            projected[1].append(t[k:])
            continue
        ends = ((t.start[:k], t.end[:k]), (t.start[k:], t.end[k:]))
        tol = 1e-9 * math.dist(t.start, t.end)
        along = 0 if math.dist(*ends[0]) > tol else 1
        if along == 0 and math.dist(*ends[1]) > tol:
            raise ConfigurationError("product grids support grading toward "
                                     "segments along one factor only")
        if not isinstance(factors[along], Interval):
            projected[along].append(Segment(*ends[along]))
        projected[1 - along].append(ends[1 - along][0])
    gf, gs = (build_grid(factor, resolution,
                         GradeSpec(tuple(ts), grading.ratio, grading.depth) if ts else None)
              for factor, ts in zip(factors, projected))
    nf, ns = gf.size, gs.size
    _check_nodes(nf * ns)
    nodes = np.empty((ns, nf, domain.dim))
    nodes[:, :, :k] = gf.nodes
    nodes[:, :, k:] = gs.nodes[:, None, :]
    weights = np.multiply.outer(gs.weights, gf.weights).ravel()
    return Grid(nodes.reshape(-1, domain.dim), weights,
                math.hypot(gf.mesh_size, gs.mesh_size), domain,
                resolution=resolution, grading=grading,
                grade_spans=gf.grade_spans + gs.grade_spans, ring=gf.ring)


def build_grid(domain: Domain, resolution: int, grading: GradeSpec | None = None) -> Grid:
    """Build a midpoint quadrature grid over the domain.

    ``resolution`` controls the number of cells per coordinate direction
    before grading.  With a ``GradeSpec``, cells accumulate geometrically
    toward each target; no node is placed on a target and the cell touching
    it is dropped, so every node keeps a positive distance to the target.
    A target of another dimension than the domain's is refused.  The node
    count, the product of the 1-D cell counts, is checked against physical
    memory before any array of the grid is built (a product's after its
    factors' grids), and each 1-D piece's cell count, a lower bound on it,
    before that piece is built.
    """
    if resolution < 2:
        raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
    for t in grading.targets if grading else ():
        if len(t.start if isinstance(t, Segment) else t) != domain.dim:
            raise ConfigurationError(f"grading target dimension mismatch: {t} in a "
                                     f"domain of dimension {domain.dim}")
    match domain:
        case Interval():
            return _build_interval(domain, resolution, grading)
        case Ball():
            return _build_ball(domain, resolution, grading)
        case Product():
            return _build_product(domain, resolution, grading)
    raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")
