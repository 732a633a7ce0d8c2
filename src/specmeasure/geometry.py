"""Domains, graded grids, and quadrature.

Grids are midpoint tensor rules.  Balls and cylinders are discretized in
adapted coordinates (radial x angular), so radial weights carry the Jacobian
factor r^(d-1).  Grading places a geometric cascade of cells toward each
target (ratio q per level) and truncates at the innermost cascade radius, so
no node ever lands on a target and integrable singularities of the form
dist(x, target)^(-p), p < d, are captured with an error that is geometric in
the grading depth.  A grid keeps the ``GradeSpec`` it was built with as
``Grid.grading`` (None when ungraded), so coarser and finer grids follow from it.
"""

from __future__ import annotations

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
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise H1Violation("interval endpoints must be finite")
        if self.hi <= self.lo:
            raise H1Violation(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ConfigurationError("box bounds must be nonempty and of equal length")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
                raise H1Violation(f"degenerate box edge: [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)


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
class Cylinder:
    """Open cylinder {x1^2 + x2^2 < radius^2, 0 < x3 < height} in R^3."""

    radius: float
    height: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and math.isfinite(self.height)):
            raise H1Violation("cylinder radius and height must be finite")
        if self.radius <= 0 or self.height <= 0:
            raise H1Violation("cylinder radius and height must be positive")

    @property
    def dim(self) -> int:
        return 3


@dataclass(frozen=True)
class Product:
    first: "Domain"
    second: "Domain"

    @property
    def dim(self) -> int:
        return self.first.dim + self.second.dim


Domain = Interval | Box | Ball | Cylinder | Product


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
        case Interval(lo=a, hi=b):
            return b - a
        case Box(lo=lo, hi=hi):
            v = 1.0
            for a, b in zip(lo, hi):
                v *= b - a
            return v
        case Ball(center=c, radius=r):
            return math.pi * r * r if len(c) == 2 else 4.0 / 3.0 * math.pi * r**3
        case Cylinder(radius=r, height=h):
            return math.pi * r * r * h
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
        case Interval(lo=a, hi=b):
            x = pts[:, 0]
            return (x >= a - tol) & (x <= b + tol)
        case Box(lo=lo, hi=hi):
            ok = np.ones(pts.shape[0], dtype=bool)
            for ax, (a, b) in enumerate(zip(lo, hi)):
                ok &= (pts[:, ax] >= a - tol) & (pts[:, ax] <= b + tol)
            return ok
        case Ball(center=c, radius=r):
            d = np.linalg.norm(pts - np.asarray(c), axis=1)
            return d <= r + tol
        case Cylinder(radius=r, height=h):
            rad = np.hypot(pts[:, 0], pts[:, 1])
            return (rad <= r + tol) & (pts[:, 2] >= -tol) & (pts[:, 2] <= h + tol)
        case Product(first=f, second=s):
            k = f.dim
            return contains(f, pts[:, :k], tol) & contains(s, pts[:, k:], tol)
    raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")


def project_to_closure(domain: Domain, points: np.ndarray) -> np.ndarray:
    """Nearest point of the closed domain, per row."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    match domain:
        case Interval(lo=a, hi=b):
            np.clip(pts[:, 0], a, b, out=pts[:, 0])
        case Box(lo=lo, hi=hi):
            for ax, (a, b) in enumerate(zip(lo, hi)):
                np.clip(pts[:, ax], a, b, out=pts[:, ax])
        case Ball(center=c, radius=r):
            cc = np.asarray(c, dtype=float)
            off = pts - cc
            d = np.linalg.norm(off, axis=1)
            far = d > r
            pts[far] = cc + off[far] * (r / d[far])[:, None]
        case Cylinder(radius=r, height=h):
            rad = np.hypot(pts[:, 0], pts[:, 1])
            far = rad > r
            scale = r / rad[far]
            pts[far, 0] *= scale
            pts[far, 1] *= scale
            np.clip(pts[:, 2], 0.0, h, out=pts[:, 2])
        case Product(first=f, second=s):
            k = f.dim
            pts = np.concatenate(
                [project_to_closure(f, pts[:, :k]),
                 project_to_closure(s, pts[:, k:])], axis=1
            )
        case _:
            raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")
    return pts


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


def _radial_cells(radius: float, resolution: int,
                  grading: GradeSpec | None) -> list[tuple[float, float]]:
    if grading is None:
        return _line_cells(0.0, radius, resolution)
    return _line_cells(0.0, radius, resolution, (0.0,), grading.ratio, grading.depth)


def _build_ball(domain: Ball, resolution: int, grading: GradeSpec | None) -> Grid:
    if grading is not None:
        for t in grading.targets:
            if isinstance(t, Segment) or not np.allclose(
                t, domain.center, atol=1e-9 * domain.radius
            ):
                raise ConfigurationError(
                    "ball grids support grading toward the center only"
                )
    cells = _radial_cells(domain.radius, resolution, grading)
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
                grading=grading, grade_spans=spans)


def _build_cylinder(domain: Cylinder, resolution: int, grading: GradeSpec | None) -> Grid:
    if grading is not None:
        for t in grading.targets:
            if not isinstance(t, Segment):
                raise ConfigurationError(
                    "cylinder grids support grading toward an axis segment only"
                )
            sx, sy = t.start[0], t.start[1]
            ex, ey = t.end[0], t.end[1]
            if max(abs(sx), abs(sy), abs(ex), abs(ey)) > 1e-9 * domain.radius:
                raise ConfigurationError(
                    "cylinder grading target must lie on the axis"
                )
    cells = _radial_cells(domain.radius, resolution, grading)
    n_phi = max(6, 2 * resolution)
    z_cells = _line_cells(0.0, domain.height, resolution)
    _check_nodes(len(cells) * n_phi * len(z_cells))
    r_mid, r_w = _midpoints_widths(cells)
    phi, dphi = _angular_ring(n_phi)
    z_mid, z_w = _midpoints_widths(z_cells)

    # tensor product: radial x angular x axial
    nr, nz = r_mid.size, z_mid.size
    x = np.outer(r_mid, np.cos(phi))
    y = np.outer(r_mid, np.sin(phi))
    ring = np.stack([x.ravel(), y.ravel()], axis=1)          # (nr*n_phi, 2)
    ring_w = (r_mid * r_w)[:, None].repeat(n_phi, axis=1).ravel() * dphi
    nodes = np.concatenate(
        [np.tile(ring, (nz, 1)), np.repeat(z_mid, ring.shape[0])[:, None]], axis=1
    )
    weights = np.tile(ring_w, nz) * np.repeat(z_w, ring.shape[0])
    mesh = math.sqrt(
        float(np.max(r_w)) ** 2 + (domain.radius * dphi) ** 2 + float(np.max(z_w)) ** 2
    )
    spans = tuple(domain.radius / 2 for _ in grading.targets) if grading else ()
    return Grid(nodes, weights, mesh, domain, resolution=resolution,
                grading=grading, grade_spans=spans)


def _axis_targets(grading: GradeSpec | None, dim: int) -> list[tuple[float, ...]]:
    """Per-axis 1-D target coordinates for tensor (interval/box) grids."""
    per_axis: list[tuple[float, ...]] = [() for _ in range(dim)]
    if grading is None:
        return per_axis
    for t in grading.targets:
        if isinstance(t, Segment):
            axis_dirs = [abs(a - b) > 1e-14 for a, b in zip(t.start, t.end)]
            if sum(axis_dirs) != 1:
                raise ConfigurationError(
                    "box grading supports axis-aligned segment targets only"
                )
            for ax in range(dim):
                if not axis_dirs[ax]:
                    per_axis[ax] = per_axis[ax] + (t.start[ax],)
        else:
            for ax in range(dim):
                per_axis[ax] = per_axis[ax] + (t[ax],)
    return per_axis


def _build_tensor(lo: tuple[float, ...], hi: tuple[float, ...], domain: Domain,
                  resolution: int, grading: GradeSpec | None) -> Grid:
    dim = len(lo)
    per_axis = _axis_targets(grading, dim)
    ratio = grading.ratio if grading else 0.5
    depth = grading.depth if grading else 0
    mids, ws = [], []
    spans: list[float] = []
    for ax in range(dim):
        cells = _line_cells(lo[ax], hi[ax], resolution, per_axis[ax], ratio, depth)
        m, w = _midpoints_widths(cells)
        mids.append(m)
        ws.append(w)
        for t in per_axis[ax]:
            gaps = [g for g in (t - lo[ax], hi[ax] - t) if g > 0]
            spans.append(min(gaps) / 2 if gaps else 0.0)
    _check_nodes(math.prod(m.size for m in mids))
    grids = np.meshgrid(*mids, indexing="ij")
    wgrids = np.meshgrid(*ws, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    mesh = math.sqrt(sum(float(np.max(w)) ** 2 for w in ws))
    return Grid(nodes, weights, mesh, domain, resolution=resolution,
                grading=grading, grade_spans=tuple(spans))


def build_grid(domain: Domain, resolution: int, grading: GradeSpec | None = None) -> Grid:
    """Build a midpoint quadrature grid over the domain.

    ``resolution`` controls the number of cells per coordinate direction
    before grading.  With a ``GradeSpec``, cells accumulate geometrically
    toward each target; no node is placed on a target and the cell touching
    it is dropped, so every node keeps a positive distance to the target.
    A target of another dimension than the domain's is refused.  The node
    count, the product of the 1-D cell counts, is checked against physical
    memory before any array of the grid is built, and each 1-D piece's cell
    count, a lower bound on it, before that piece is built.
    """
    if resolution < 2:
        raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
    for t in grading.targets if grading else ():
        if len(t.start if isinstance(t, Segment) else t) != domain.dim:
            raise ConfigurationError(f"grading target dimension mismatch: {t} in a "
                                     f"domain of dimension {domain.dim}")
    match domain:
        case Interval(lo=a, hi=b):
            if grading is not None and any(isinstance(t, Segment)
                                           for t in grading.targets):
                raise ConfigurationError("interval grading targets must be points")
            return _build_tensor((a,), (b,), domain, resolution, grading)
        case Box(lo=lo, hi=hi):
            return _build_tensor(lo, hi, domain, resolution, grading)
        case Ball():
            return _build_ball(domain, resolution, grading)
        case Cylinder():
            return _build_cylinder(domain, resolution, grading)
        case Product(first=f, second=s):
            if grading is not None:
                raise ConfigurationError(
                    "grading is not supported on product domains; grade the factors"
                )
            gf = build_grid(f, resolution)
            gs = build_grid(s, resolution)
            nf, ns = gf.size, gs.size
            _check_nodes(nf * ns)
            nodes = np.concatenate(
                [np.repeat(gf.nodes, ns, axis=0), np.tile(gs.nodes, (nf, 1))], axis=1
            )
            weights = np.repeat(gf.weights, ns) * np.tile(gs.weights, nf)
            return Grid(nodes, weights,
                        math.hypot(gf.mesh_size, gs.mesh_size), domain,
                        resolution=resolution)
    raise ConfigurationError(f"unknown domain type: {type(domain).__name__}")
