"""Kernels, coefficient fields, and validated problem instances.

A problem couples a bounded domain, a continuous nonnegative kernel K that is
bounded below near the diagonal, and a bounded continuous coefficient a.  The
structural hypotheses are checked on construction; numeric routines can then
assume they hold.

The argmax set of a ``radial_power`` coefficient is known in closed form:
its center, or the chord of the domain through it along its one free axis.
Any other argmax set is detected from grid values: near-maximal nodes are
clustered into the components of the graph linking nodes at most two mesh
widths apart, binned into cells so the clustering is linear in the nodes.
Each cluster is refined to a maximizer, in closed form for ``radial_power``
and ``coordinate_linear`` and by Nelder-Mead otherwise (the one use of scipy
in the package), and marched along its principal axis to tell a point from
a segment; the march stops as soon as it proves a point.  A refinement
ladder detects once: its finer grids reuse the set when their own clusters
match it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    H2Violation,
    H3Violation,
)
from .geometry import (
    Domain,
    GradeSpec,
    Grid,
    Segment,
    Target,
    _check_memory,
    _chord,
    _linear_maximizer,
    build_grid,
    contains,
    distance_to_target,
    project_to_closure,
)

log = logging.getLogger(__name__)

__all__ = [
    "Kernel",
    "constant_kernel",
    "gaussian_kernel",
    "custom_kernel",
    "CoefficientField",
    "constant_coefficient",
    "coordinate_linear",
    "radial_power",
    "custom_coefficient",
    "ArgmaxComponent",
    "ArgmaxSet",
    "detect_argmax_set",
    "IntegrabilityResult",
    "check_recip_integrability",
    "Problem",
    "build_problem",
]


@dataclass(frozen=True)
class Kernel:
    """Dispersal kernel K(x, y) evaluated in (rows, cols) blocks.

    ``positivity_witness`` is an optional pair (c0, eps0): K is claimed to be
    at least c0 whenever |x - y| <= eps0.  K(x, y) and K(y, x) may differ:
    the eigensolver and its certificate take any nonnegative kernel.
    ``positive_definite`` claims K(x, y) = phi(x - y) with phi a
    positive-definite function, so every Gram matrix K(X, X) is positive
    semidefinite with the constant diagonal phi(0); K W is then applied
    through a pivoted-Cholesky factor.
    Validation cannot detect an indefinite kernel, so the claim is no
    constructor argument: only ``constant_kernel`` and ``gaussian_kernel``
    make it (Bochner), and ``dataclasses.replace`` drops it.  Validation
    checks the claims on grid node pairs.
    ``isotropic`` claims more: K(x, y) depends on |x - y| alone, so K W is
    block-circulant over a grid's rings and is applied exactly through a
    real DFT along them.  Only ``gaussian_kernel`` makes it, in the same
    way; the operator's build checks it.

    ``structured_apply``, when set, computes K(rows, cols) @ x from the
    kernel's structure, without forming the len(rows) x len(cols) block;
    every product off the grid's own operator goes through it.  Like the
    positive-definite claim it is no constructor argument and
    ``dataclasses.replace`` drops it, so it never outlives the ``evaluate``
    it stands for: only ``constant_kernel`` sets it, to rho * sum(x) on
    every row.  Validation still checks ``evaluate``.
    """

    family: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    positivity_witness: tuple[float, float] | None = None
    positive_definite: bool = field(default=False, init=False)
    isotropic: bool = field(default=False, init=False)
    structured_apply: Callable[[np.ndarray, np.ndarray, np.ndarray],
                               np.ndarray] | None = field(default=None, init=False)


def _positive_definite(kernel: Kernel) -> Kernel:
    """``kernel`` with the positive-definite claim of a built-in family."""
    object.__setattr__(kernel, "positive_definite", True)
    return kernel


def constant_kernel(rho: float) -> Kernel:
    if not math.isfinite(rho) or rho <= 0:
        raise ConfigurationError(f"constant kernel needs rho > 0, got {rho}")

    def ev(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full((x.shape[0], y.shape[0]), rho)

    def apply(x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        # every row of the block is rho: one sum, rounded once
        return np.full(x.shape[0], rho * np.sum(v))

    kernel = _positive_definite(Kernel("constant", ev, {"rho": rho},
                                       positivity_witness=(rho / 2, math.inf)))
    object.__setattr__(kernel, "structured_apply", apply)
    return kernel


# rows of a kernel slab evaluated at once, so every pass stays in cache
_CHUNK = 16


def _sq_distances(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 into ``out``, summed coordinate by coordinate: exactly
    symmetric and translation-invariant.  ``out`` and one slab of
    differences are all the memory: numpy buffers a broadcast difference
    x[:, k] - y[:, k], up to another slab, when a row is shorter than its
    buffer over the three operands, so such short rows each take the
    scalar x_ik against the column y[:, k]."""
    by_row = 3 * y.shape[0] < np.getbufsize()
    diff = out
    for k in range(x.shape[1]):
        if by_row:
            for i in range(x.shape[0]):
                np.subtract(x[i, k], y[:, k], out=diff[i])
        else:
            np.subtract.outer(x[:, k], y[:, k], out=diff)
        np.square(diff, out=diff)
        if k:
            out += diff
        elif x.shape[1] > 1:
            diff = np.empty_like(out)
    return out


def gaussian_kernel(amplitude: float, width: float) -> Kernel:
    """K(x, y) = amplitude * exp(-|x - y|^2 / (2 width^2))."""
    if amplitude <= 0 or width <= 0:
        raise ConfigurationError("gaussian kernel needs amplitude > 0 and width > 0")

    def ev(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # in place: one slab-sized array per call
        out = np.empty((x.shape[0], y.shape[0]))
        y = np.asfortranarray(y)   # contiguous coordinate columns
        for start in range(0, x.shape[0], _CHUNK):
            d2 = _sq_distances(x[start:start + _CHUNK], y,
                               out[start:start + _CHUNK])
            np.divide(d2, -2.0 * width * width, out=d2)
            np.exp(d2, out=d2)
            np.multiply(amplitude, d2, out=d2)
        return out

    c0 = amplitude * math.exp(-0.5) * (1.0 - 1e-12)
    kernel = _positive_definite(Kernel("gaussian", ev,
                                       {"amplitude": amplitude, "width": width},
                                       positivity_witness=(c0, width)))
    object.__setattr__(kernel, "isotropic", True)
    return kernel


def custom_kernel(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  positivity_witness: tuple[float, float] | None = None,
                  name: str = "custom", params: dict | None = None) -> Kernel:
    return Kernel(name, fn, dict(params or {}), positivity_witness)


@dataclass(frozen=True)
class CoefficientField:
    """Continuous coefficient a(x), vectorized over rows of points.

    ``maximizer``, when set, is a closed form for a maximizer of a over a
    closed domain: ``maximizer(domain, start)`` gives a point of the closure
    near ``start``, or None where the closed form does not apply.
    ``argmax``, when set, is a closed form for the whole argmax set:
    ``argmax(domain)`` gives its one component over the closed domain, a
    point or a segment, and whether 1 / (sup a - a) is integrable near it,
    or None where the closed form does not apply; the argmax set is then
    taken from it instead of detected (``_closed_form_argmax``).  Like a
    kernel's ``structured_apply`` neither is a constructor argument and
    ``dataclasses.replace`` drops both, so they never outlive the
    ``evaluate`` they stand for: ``coordinate_linear`` sets ``maximizer``,
    ``radial_power`` sets both, and a custom coefficient is detected and
    searched whatever its name.
    """

    family: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    maximizer: Callable[[Domain, np.ndarray], np.ndarray | None] | None = field(
        default=None, init=False)
    argmax: Callable[[Domain], tuple[Target, bool] | None] | None = field(
        default=None, init=False)


def constant_coefficient(value: float) -> CoefficientField:
    return CoefficientField(
        "constant", lambda x: np.full(np.atleast_2d(x).shape[0], float(value)),
        {"value": value},
    )


def coordinate_linear(coeffs: tuple[float, ...], offset: float = 0.0) -> CoefficientField:
    c = np.asarray(coeffs, dtype=float)

    def ev(x: np.ndarray) -> np.ndarray:
        return offset + np.atleast_2d(x) @ c

    coeff = CoefficientField("coordinate_linear", ev,
                             {"coeffs": tuple(coeffs), "offset": offset})
    object.__setattr__(coeff, "maximizer",
                       lambda domain, start: _linear_maximizer(domain, c, start))
    return coeff


def radial_power(top: float, scale: float, power: float,
                 center: tuple[float, ...],
                 axes: tuple[int, ...] | None = None) -> CoefficientField:
    """a(x) = top - scale * dist(x)^power, dist over the selected axes.

    With ``axes=(0, 1)`` in R^3 the level sets are tubes around the line
    through ``center`` parallel to the third axis.

    The argmax set is where the selected coordinates equal the center's:
    the center itself when every axis of the domain is selected, the chord
    of the closed domain through it along the one free axis, and no closed
    form for more free axes or a center outside the closure.  Near it
    1 / (top - a) = dist^-power / scale, integrable iff ``power`` is below
    the number of selected axes.
    """
    if scale <= 0 or power <= 0:
        raise ConfigurationError("radial_power needs scale > 0 and power > 0")
    c = np.asarray(center, dtype=float)
    # an axis indexes the center, so a negative one counts from the
    # center's end, not the domain's
    sel = list(range(c.size)) if axes is None else [
        ax + c.size if -c.size <= ax < 0 else ax for ax in axes]
    integrable = power < len(set(sel))

    def ev(x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(x)
        d = np.linalg.norm(pts[:, sel] - c[sel], axis=1)
        return top - scale * d**power

    def maximizer(domain: Domain, start: np.ndarray) -> np.ndarray | None:
        # a attains its sup ``top`` where the selected coordinates equal
        # the center's, if the closed domain holds that point
        best = np.array(start, dtype=float)
        best[sel] = c[sel]
        return best if bool(contains(domain, best[None, :])[0]) else None

    def argmax(domain: Domain) -> tuple[Target, bool] | None:
        point = np.zeros(domain.dim)
        point[sel] = c[sel]
        free = [ax for ax in range(domain.dim) if ax not in sel]
        if not free:
            target = tuple(point) if bool(contains(domain, point[None, :])[0]) else None
        else:
            target = _chord(domain, point, free[0]) if len(free) == 1 else None
        return None if target is None else (target, integrable)

    coeff = CoefficientField(
        "radial_power", ev,
        {"top": top, "scale": scale, "power": power,
         "center": tuple(center), "axes": None if axes is None else tuple(axes)},
    )
    object.__setattr__(coeff, "maximizer", maximizer)
    object.__setattr__(coeff, "argmax", argmax)
    return coeff


def custom_coefficient(fn: Callable[[np.ndarray], np.ndarray],
                       name: str = "custom",
                       params: dict | None = None) -> CoefficientField:
    return CoefficientField(name, fn, dict(params or {}))


# -- argmax set detection -----------------------------------------------

# a node or an atom is on the argmax set when a is within this share of the
# range of a below its maximum
_TOL_MAXSET = 1e-8


@dataclass(frozen=True)
class ArgmaxComponent:
    kind: str                         # "point" | "segment" | "cluster"
    representative: tuple[float, ...] | Segment
    node_count: int


@dataclass(frozen=True)
class ArgmaxSet:
    sup_value: float
    components: tuple[ArgmaxComponent, ...]

    @property
    def targets(self) -> tuple[tuple[float, ...] | Segment, ...]:
        return tuple(c.representative for c in self.components)


def _refine_point(coeff: CoefficientField, domain: Domain,
                  start: np.ndarray) -> tuple[np.ndarray, float]:
    """Local maximization of a from ``start``, constrained to the closure.

    The coefficient's closed-form ``maximizer`` serves when it has one and
    it applies: a radial_power coefficient attains its sup ``top`` where the
    selected coordinates equal ``center``, and a coordinate_linear one on
    the face, corner or boundary point of ``_linear_maximizer``.  Otherwise
    Nelder-Mead runs, the one use of scipy in the package.
    """
    if coeff.maximizer is not None:
        best = coeff.maximizer(domain, np.asarray(start, dtype=float))
        if best is not None:
            return best, float(coeff.evaluate(best[None, :])[0])
    from scipy import optimize

    def neg_a(x: np.ndarray) -> float:
        p = project_to_closure(domain, x[None, :])
        return -float(coeff.evaluate(p)[0])

    res = optimize.minimize(neg_a, start, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-13,
                                     "maxiter": 2000})
    best = project_to_closure(domain, res.x[None, :])[0]
    return best, float(coeff.evaluate(best[None, :])[0])


# a march doubles its first step at most this often: 2^20 is the first power
# of two past the 1e6 steps at which an extension is refused
_MARCH_DOUBLINGS = 20
# bisection steps per end of a march, and the steps one coefficient call
# evaluates: all 2^10 - 1 midpoints of ten levels of the bisection tree
_MARCH_STEPS = 80
_TREE_LEVELS = 10


def _bisection_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every bracket end of ``_TREE_LEVELS`` bisection steps of the brackets
    [lo[i], hi[i]], along every path: row i cuts [lo[i], hi[i]] into
    2^L brackets, the midpoints of step l at the odd multiples of
    2^(L - l - 1).  Each midpoint is 0.5 * (lo + hi) of the bracket it
    halves, as a bisection step computes it."""
    n = 2 ** _TREE_LEVELS
    pts = np.empty((lo.size, n + 1))
    pts[:, 0], pts[:, n] = lo, hi
    step = n
    while step > 1:
        half = step // 2
        np.multiply(0.5, pts[:, :-1:step] + pts[:, step::step], out=pts[:, half::step])
        step = half
    return pts


def _walk(points: np.ndarray, inside: np.ndarray) -> tuple[int, list[float]]:
    """One bracket's ``_TREE_LEVELS`` bisection steps through its row of
    ``_bisection_points``, given which of ``points[1:-1]`` lie in the set:
    where the final bracket starts, and the upper end after each step."""
    at, his = 0, []
    half = 2 ** _TREE_LEVELS
    while half > 1:
        half //= 2
        if inside[at + half - 1]:
            at += half
        his.append(points[at + half])
    return at, his


def _extend_along(coeff: CoefficientField, domain: Domain, origin: np.ndarray,
                  direction: np.ndarray, sup_value: float, tol: float,
                  scale: float, point_len: float
                  ) -> tuple[np.ndarray | None, float]:
    """March from ``origin`` along -direction and +direction while staying
    in the argmax set: in the closed domain, a at most ``tol`` below
    ``sup_value``.

    Each side doubles its step from ``scale`` until it leaves the set, then
    bisects that bracket ``_MARCH_STEPS`` times.  The two sides share every
    coefficient call: one for the doubling, then one per ``_TREE_LEVELS``
    bisection steps, at every point those steps could visit
    (``_bisection_points``), so the ends are those of step-by-step
    bisection, bit for bit, in 9 calls instead of about 85 per side.

    Returns the ends (the -direction end first) and their distance.  Once
    the two brackets' upper ends sum to less than ``point_len`` the
    extension is proved shorter than that: the march stops and returns
    None with that sum.
    """
    sides = np.stack([-direction, direction])

    def inside(t: np.ndarray) -> np.ndarray:
        """Whether origin + t[i, j] * sides[i] lies in the argmax set."""
        pts = (origin + t[:, :, None] * sides[:, None, :]).reshape(-1, origin.size)
        ok = contains(domain, pts, tol=1e-12 * (1 + scale))
        if ok.any():
            ok[ok] = np.asarray(coeff.evaluate(pts[ok]), dtype=float) >= sup_value - tol
        return ok.reshape(t.shape)

    steps = scale * 2.0 ** np.arange(_MARCH_DOUBLINGS)
    ok = inside(np.tile(np.concatenate(([0.0], steps)), (2, 1)))
    live = ok[:, 0]             # a side whose origin is outside stays there
    out = ~ok[:, 1:]
    if np.any(live & ~out.any(axis=1)):
        raise ConfigurationError("argmax segment extension does not terminate")
    k = out.argmax(axis=1)
    hi = np.where(live, steps[k], 0.0)
    lo = np.where(live & (k > 0), steps[k - 1], 0.0)
    if hi[0] + hi[1] < point_len:
        return None, float(hi[0] + hi[1])
    for _ in range(_MARCH_STEPS // _TREE_LEVELS):
        points = _bisection_points(lo, hi)
        ok = inside(points[:, 1:-1])
        (at_a, his_a), (at_b, his_b) = map(_walk, points, ok)
        for hi_a, hi_b in zip(his_a, his_b):
            if hi_a + hi_b < point_len:
                return None, float(hi_a + hi_b)
        lo = np.array([points[0, at_a], points[1, at_b]])
        hi = np.array([points[0, at_a + 1], points[1, at_b + 1]])
    ends = np.where(live[:, None], origin + lo[:, None] * sides, origin)
    return ends, float(np.linalg.norm(ends[1] - ends[0]))


# point pairs whose distances one chunk of the clustering computes, and the
# bytes each pair takes there: indices, coordinates and the distance
_PAIR_CHUNK = 1 << 15
_PAIR_BYTES = 160


def _sum_squares(diff: np.ndarray) -> np.ndarray:
    """Squared row norms, summed coordinate by coordinate as
    ``_sq_distances`` sums them."""
    out = np.square(diff[:, 0])
    for k in range(1, diff.shape[1]):
        out += np.square(diff[:, k])
    return out


def _cell_keys(pts: np.ndarray, radius: float) -> tuple[np.ndarray, int, np.ndarray]:
    """Each point's cell as one int64 key, the reach, and the key strides.

    Cells have side radius / sqrt(d + 3): the points of one cell, and of
    two cells adjacent along an axis, span a box of diagonal at most
    ``radius``, so a run of occupied cells links whole.  Two points at most
    ``radius`` apart lie at most ``reach`` = floor(radius / side) + 1 cells
    apart along every axis, rounding included.  Along each axis, gaps wider
    than the reach between occupied cells close to reach + 1, which keeps
    every neighbour relation and bounds each coordinate by (reach + 1)
    times the point count.  When the keys still do not fit in int64, or
    the cell coordinates grow too large to round to the right cell, the
    side doubles.
    """
    d = pts.shape[1]
    side = radius / math.sqrt(d + 3)
    while True:
        reach = math.floor(radius / side) + 1
        coords = np.floor((pts - pts.min(axis=0)) / side)
        packed = np.empty(coords.shape, dtype=np.int64)
        for k in range(d):
            order = np.argsort(coords[:, k], kind="stable")
            steps = np.minimum(np.diff(coords[order, k]), reach + 1)
            packed[order, k] = np.concatenate(([0.0], np.cumsum(steps)))
        spans = [int(s) + 2 * reach + 1 for s in packed.max(axis=0)]
        if float(coords.max()) <= 2.0 ** 40 and math.prod(spans) < 2 ** 62:
            break
        side *= 2.0
    strides = np.array([math.prod(spans[k + 1:]) for k in range(d)], dtype=np.int64)
    return (packed + reach) @ strides, reach, strides


def _link(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the components of u[k] and v[k] in place.  Each label is the
    smallest point of its component found so far: each round hooks every
    root onto the smallest root it is linked to, then follows labels
    until every point holds its root again."""
    while u.size:
        ru, rv = labels[u], labels[v]
        apart = ru != rv
        if not apart.any():
            return
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(labels, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels[:] = up


def _proximity_components(pts: np.ndarray, radius: float) -> tuple[int, np.ndarray]:
    """Connected components of the graph linking points at most ``radius``
    apart (squared distance, summed coordinate by coordinate, at most
    radius^2), numbered in the order of their first point.

    The points are binned into cells (``_cell_keys``).  A cell, or a pair
    of cells at most the reach apart, whose points' bounding box has a
    diagonal of at most ``radius`` is linked whole, at no cost; a pair
    whose boxes lie farther apart cannot link, and a pair of whole cells
    already linked needs nothing more.  Only the remaining pairs get point
    distances, in chunks of ``_PAIR_CHUNK`` pairs, checked against
    physical memory first.  A pair of whole cells stops at its first link:
    later chunks skip it once a chunk has linked its cells.  Rounding is
    monotone, so the box tests decide exactly as the distances would.  Time
    and memory are linear in the points unless many of them sit in cells
    that are near each other but not linked whole.
    """
    m, d = pts.shape
    r2 = radius * radius
    keys, reach, strides = _cell_keys(pts, radius)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    cells = sorted_keys[first]
    count = np.diff(np.append(first, m))
    sorted_pts = pts[order]
    lo = np.minimum.reduceat(sorted_pts, first, axis=0)
    hi = np.maximum.reduceat(sorted_pts, first, axis=0)
    whole = _sum_squares(hi - lo) <= r2
    # every point of a whole cell starts at the cell's first (smallest) point
    rep = order[first]
    cell_of = np.repeat(np.arange(cells.size), count)
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.where(whole[cell_of], rep[cell_of], order)

    def linked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether the cells a and b are both whole and linked already."""
        return whole[a] & whole[b] & (labels[rep[a]] == labels[rep[b]])

    def unlinked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell pairs (a, b) not ``linked``."""
        keep = ~linked(a, b)
        return a[keep], b[keep]

    offsets = np.indices((2 * reach + 1,) * d).reshape(d, -1).T - reach
    deltas = offsets[offsets.shape[0] // 2 + 1:] @ strides   # one of +-o
    rows = max(1, _PAIR_CHUNK // deltas.size)
    near_a, near_b = [np.flatnonzero(~whole)], [np.flatnonzero(~whole)]
    for start in range(0, cells.size, rows):
        wanted = cells[start:start + rows, None] + deltas
        pos = np.minimum(np.searchsorted(cells, wanted), cells.size - 1)
        hit = cells[pos] == wanted
        a, b = unlinked(np.nonzero(hit)[0] + start, pos[hit])
        joined = _sum_squares(np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])) <= r2
        _link(labels, rep[a[joined]], rep[b[joined]])
        gap = np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
        near = ~joined & (_sum_squares(gap) <= r2)
        near_a.append(a[near])
        near_b.append(b[near])

    a, b = unlinked(np.concatenate(near_a), np.concatenate(near_b))
    size = count[a] * count[b]
    ends = np.cumsum(size)
    total = int(ends[-1]) if ends.size else 0
    if total:
        _check_memory(_PAIR_BYTES * min(total, _PAIR_CHUNK),
                      f"a chunk of the distances among {m} near-maximal grid nodes")
    start = 0
    while start < total:
        flat = np.arange(start, min(start + _PAIR_CHUNK, total))
        q = np.searchsorted(ends, flat, side="right")
        flat -= ends[q] - size[q]           # the pair's place in its block
        todo = ~linked(a[q], b[q])
        q, flat = q[todo], flat[todo]
        cols = count[b[q]]
        i = first[a[q]] + flat // cols
        j = first[b[q]] + flat % cols
        del flat, q, cols, todo
        near = _sum_squares(sorted_pts[i] - sorted_pts[j]) <= r2
        _link(labels, order[i[near]], order[j[near]])
        # past the cell pairs a link of whole cells has joined since
        start += _PAIR_CHUNK
        k = int(np.searchsorted(ends, start, side="right"))
        done = linked(a[k:k + _PAIR_CHUNK], b[k:k + _PAIR_CHUNK])
        skip = done.size if done.all() else int(np.argmin(done))
        if skip:
            start = max(start, int(ends[k + skip - 1]))

    roots = labels == np.arange(m)
    return int(roots.sum()), (np.cumsum(roots) - 1)[labels]


def _near_max(a_vals: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The grid maximum and range of a, and which nodes are near-maximal:
    within ``_TOL_MAXSET`` of the range below the maximum."""
    a_max = float(np.max(a_vals))
    a_rng = a_max - float(np.min(a_vals))
    if a_rng <= 1e-14 * max(1.0, abs(a_max)):
        raise ConfigurationError(
            "coefficient is constant on the grid; its argmax set is the whole domain"
        )
    tau = max(_TOL_MAXSET * a_rng, 4.0 * np.finfo(float).eps * max(1.0, abs(a_max)))
    return a_max, a_rng, a_vals >= a_max - tau


def _near_max_clusters(coeff: CoefficientField, grid: Grid
                       ) -> tuple[float, float, list[np.ndarray]]:
    """The grid maximum and range of a, and the near-maximal nodes
    (``_near_max``) clustered by proximity: each cluster's nodes in grid
    order, clusters in the order of their first node."""
    a_max, a_rng, near = _near_max(np.asarray(coeff.evaluate(grid.nodes), dtype=float))
    pts = grid.nodes[near]
    count, labels = _proximity_components(pts, 2.0 * grid.mesh_size)
    sizes = np.bincount(labels, minlength=count)
    clusters = np.split(pts[np.argsort(labels, kind="stable")], np.cumsum(sizes)[:-1])
    return a_max, a_rng, clusters


def _principal_axis(cluster: np.ndarray, centroid: np.ndarray
                    ) -> tuple[np.ndarray, float, float]:
    """The cluster's principal direction, its extent along it, and the
    largest distance of a node from the line through the centroid."""
    centered = cluster - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    t = centered @ direction
    extent = float(t.max() - t.min())
    resid = float(np.max(np.linalg.norm(centered - np.outer(t, direction), axis=1)))
    return direction, extent, resid


# a cluster is a point when the argmax set extends along its principal axis
# less than this share of the grid's diameter
_POINT_SHARE = 0.02


def _kind(extension: float, extent: float, resid: float, dscale: float) -> str:
    """A multi-node cluster's kind.  A point argmax can mask a whole shell of
    nodes; what makes a segment is that the level set itself extends along
    the fitted line."""
    if extension < _POINT_SHARE * dscale:
        return "point"
    if resid <= 0.25 * max(extent, extension):
        return "segment"
    return "cluster"


def _diameter(grid: Grid) -> float:
    return float(np.linalg.norm(np.ptp(grid.nodes, axis=0)))


def detect_argmax_set(coeff: CoefficientField, grid: Grid) -> ArgmaxSet:
    """Locate the argmax set of the coefficient from its grid values.

    Nodes within ``_TOL_MAXSET`` of the range of a below the grid maximum
    are clustered by proximity; each cluster is refined to a maximizer and
    marched along its principal axis (``_extend_along``), then classified
    as a point, a line segment, or a general cluster.  A march stops as
    soon as it proves the cluster a point.
    """
    a_max, a_rng, clusters = _near_max_clusters(coeff, grid)
    dscale = _diameter(grid)
    components = []
    sup_value = a_max
    for cluster in clusters:
        centroid = cluster.mean(axis=0)
        ref_pt, ref_val = _refine_point(coeff, grid.domain, centroid)
        sup_value = max(sup_value, ref_val)
        if cluster.shape[0] == 1:
            components.append(ArgmaxComponent("point", tuple(ref_pt), 1))
            continue
        direction, extent, resid = _principal_axis(cluster, centroid)
        tol_ref = max(_TOL_MAXSET * a_rng,
                      8.0 * np.finfo(float).eps * max(1.0, abs(ref_val)))
        ends, extension = _extend_along(coeff, grid.domain, ref_pt, direction,
                                        ref_val, tol_ref, grid.mesh_size,
                                        _POINT_SHARE * dscale)
        kind = _kind(extension, extent, resid, dscale)
        rep = (Segment(tuple(ends[0]), tuple(ends[1])) if kind == "segment"
               else tuple(ref_pt))
        components.append(ArgmaxComponent(kind, rep, cluster.shape[0]))
    components.sort(key=lambda c: -c.node_count)
    return ArgmaxSet(sup_value, tuple(components))


def _same_kind(comp: ArgmaxComponent, cluster: np.ndarray, radius: float,
               dscale: float) -> bool:
    """Whether detection would give ``cluster`` the kind of ``comp``, judged
    without a march: a point's cluster is one node or narrower than the
    point test; a segment's lies within ``radius`` of it and passes the
    segment test with the segment's length for the extension.  A general
    cluster is never judged."""
    if comp.kind == "point":
        return (cluster.shape[0] == 1
                or _principal_axis(cluster, cluster.mean(axis=0))[1] < _POINT_SHARE * dscale)
    if comp.kind != "segment" or cluster.shape[0] == 1:
        return False
    seg = comp.representative
    if np.max(distance_to_target(cluster, seg)) > radius:
        return False
    _, extent, resid = _principal_axis(cluster, cluster.mean(axis=0))
    return _kind(math.dist(seg.start, seg.end), extent, resid, dscale) == "segment"


def _reuse(root: ArgmaxSet, coeff: CoefficientField, grid: Grid) -> ArgmaxSet | None:
    """``root``'s components with this grid's node counts, or None.

    The grid's near-maximal clusters must match the components one to one:
    each lies within the link radius of its nearest component's
    representative, no two share one, and each has that component's kind
    (``_same_kind``).  The sup is the larger of the root's and this grid's
    maximum.
    """
    a_max, _, clusters = _near_max_clusters(coeff, grid)
    if len(clusters) != len(root.components):
        return None
    radius, dscale = 2.0 * grid.mesh_size, _diameter(grid)
    components, taken = [], set()
    for cluster in clusters:
        dist = [float(np.min(distance_to_target(cluster, t))) for t in root.targets]
        k = int(np.argmin(dist))
        comp = root.components[k]
        if k in taken or dist[k] > radius or not _same_kind(comp, cluster, radius, dscale):
            return None
        taken.add(k)
        components.append(ArgmaxComponent(comp.kind, comp.representative,
                                          cluster.shape[0]))
    components.sort(key=lambda c: -c.node_count)
    return ArgmaxSet(max(root.sup_value, a_max), tuple(components))


def _closed_form_argmax(coeff: CoefficientField, grid: Grid,
                        a_vals: np.ndarray | None = None) -> ArgmaxSet | None:
    """The argmax set from the coefficient's ``argmax`` closed form, or None
    where it has none, reported as detection reports it on ``grid``.

    The node count is the near-maximal count (``_near_max``), and the sup
    the larger of the grid maximum and a on the set.  A segment shorter
    than ``_POINT_SHARE`` of the grid's diameter is a point, its point
    nearest the near-maximal nodes' centroid, where detection's maximizer
    lands.  Where detection splits a segment into the points of several
    clusters, or calls it a general cluster because its near-maximal nodes
    spread across it, the closed form still reports the segment.
    ``a_vals``, the values of a at the nodes, are evaluated when not given.
    """
    closed = None if coeff.argmax is None else coeff.argmax(grid.domain)
    if closed is None:
        return None
    if a_vals is None:
        a_vals = np.asarray(coeff.evaluate(grid.nodes), dtype=float)
    a_max, _, near = _near_max(a_vals)
    rep, kind = closed[0], "point"
    if isinstance(rep, Segment):
        start, end = np.asarray(rep.start), np.asarray(rep.end)
        if np.linalg.norm(end - start) >= _POINT_SHARE * _diameter(grid):
            kind = "segment"
        else:
            rep = tuple(np.clip(grid.nodes[near].mean(axis=0), start, end))
    return ArgmaxSet(max(a_max, _value_on(coeff, rep)),
                     (ArgmaxComponent(kind, rep, int(np.count_nonzero(near))),))


def _find_argmax(coeff: CoefficientField, grid: Grid) -> ArgmaxSet:
    """The argmax set on ``grid``: from the closed form where the
    coefficient has one, detected otherwise."""
    return _closed_form_argmax(coeff, grid) or detect_argmax_set(coeff, grid)


def _value_on(coeff: CoefficientField, target: Target) -> float:
    """a at a point target, or at a segment's start."""
    point = target.start if isinstance(target, Segment) else target
    return float(coeff.evaluate(np.asarray(point, dtype=float)[None, :])[0])


def _argmax_set(problem: Problem) -> ArgmaxSet:
    """The argmax set of a on the problem's grid: from the coefficient's
    closed form where it has one (``_closed_form_argmax``), and otherwise
    detected once per refinement ladder: a problem from ``_refined`` takes
    its ladder root's set when the two match (``_reuse``), and is detected
    in full otherwise, as is a problem with no root."""
    if problem._argmax is None:
        amax = _closed_form_argmax(problem.coeff, problem.grid, problem.a_at_nodes)
        root = problem._root
        if amax is None and root is not None:
            amax = _reuse(_argmax_set(root), problem.coeff, problem.grid)
        if amax is None:
            amax = detect_argmax_set(problem.coeff, problem.grid)
        object.__setattr__(problem, "_argmax", amax)
    return problem._argmax


def argmax_point(amax: ArgmaxSet, domain: Domain,
                 t: float | None = None) -> tuple[float, ...]:
    """One point of the largest component of a detected argmax set.

    On a segment the point sits at fraction ``t`` from start to end (default:
    the midpoint); a point component takes no selector.  Segment ends are
    located only to a tolerance, so the point is projected onto the closed
    domain, which leaves interior points unchanged.
    """
    comp = amax.components[0]
    if comp.kind == "segment":
        t = 0.5 if t is None else float(t)
        if not 0.0 <= t <= 1.0:
            raise ConfigurationError(f"x0 selector must lie in [0, 1], got {t}")
        seg = comp.representative
        point = [(1.0 - t) * s + t * e for s, e in zip(seg.start, seg.end)]
    elif t is not None:
        raise ConfigurationError(
            "the x0 selector places an atom along a segment; this problem's "
            "argmax set is a single point"
        )
    else:
        point = comp.representative
    closed = project_to_closure(domain, np.asarray(point, dtype=float)[None, :])
    return tuple(float(v) for v in closed[0])


# -- reciprocal integrability -------------------------------------------

@dataclass(frozen=True)
class IntegrabilityResult:
    status: str                      # "integrable" | "non_integrable"
    value: float | None              # shell-sum estimate when integrable
    shell_sums: tuple[float, ...]    # cumulative sums, one per exclusion level
    increments: tuple[float, ...]
    ratios: tuple[float, ...]


def check_recip_integrability(coeff: CoefficientField, domain: Domain,
                              depth: int, *, resolution: int = 6,
                              ratio: float = 0.5) -> IntegrabilityResult:
    """Decide whether 1 / (sup a - a) is integrable near the argmax set.

    Integrates over nested shells excluding a geometrically shrinking
    neighborhood of the argmax set.  Decaying increments mean the integral
    converges; non-decaying increments mean it diverges, unless the
    coefficient's ``argmax`` closed form decides (``_recip_integrability``).
    The argmax set is taken on an ungraded grid at ``resolution``, from the
    closed form or detected, and the shells are summed on that grid graded
    toward it.
    """
    _check_shell_depth(depth)
    amax = _find_argmax(coeff, build_grid(domain, resolution))
    grade = GradeSpec(targets=amax.targets, ratio=ratio, depth=depth)
    return _recip_integrability(coeff, build_grid(domain, resolution, grade),
                                amax.sup_value)


def _check_shell_depth(depth: int) -> None:
    if depth < 4:
        raise ConfigurationError(
            f"integrability check needs grading depth >= 4, got {depth}"
        )


def _recip_integrability(coeff: CoefficientField, grid: Grid,
                         sup_value: float | None = None) -> IntegrabilityResult:
    """The shell sums of 1 / (sup_value - a) on ``grid``, one per level of
    its grading cascade, excluding ever smaller neighborhoods of its
    grading targets.  ``sup_value`` defaults to the largest value of a at
    the targets, a segment taken at its ends.

    The status comes from the coefficient's ``argmax`` closed form when it
    applies on the grid's domain and ``sup_value`` is a on its set; the
    shell ratios decide otherwise: integrable when the last three are all
    below 0.9."""
    spec = grid.grading
    _check_shell_depth(0 if spec is None else spec.depth)
    depth, ratio = spec.depth, spec.ratio
    if sup_value is None:
        ends = [p for t in spec.targets
                for p in ((t.start, t.end) if isinstance(t, Segment) else (t,))]
        sup_value = float(np.max(coeff.evaluate(np.asarray(ends, dtype=float))))
    a_vals = np.asarray(coeff.evaluate(grid.nodes), dtype=float)
    denom = sup_value - a_vals
    if np.any(denom <= 0):
        bad = int(np.sum(denom <= 0))
        raise ConfigurationError(
            f"{bad} graded nodes reach the coefficient sup"
        )
    dist = np.min(
        np.stack([distance_to_target(grid.nodes, t) for t in spec.targets]),
        axis=0,
    )
    span = min(grid.grade_spans) if grid.grade_spans else grid.mesh_size

    sums = []
    for k in range(1, depth + 1):
        e_k = span * ratio**k
        inc = grid.weights[dist > e_k] / denom[dist > e_k]
        sums.append(float(np.sum(inc)))
    increments = tuple(sums[i + 1] - sums[i] for i in range(len(sums) - 1))
    ratios = tuple(
        increments[i + 1] / increments[i] if increments[i] > 0 else math.inf
        for i in range(len(increments) - 1)
    )
    closed = None if coeff.argmax is None else coeff.argmax(grid.domain)
    if closed is not None and sup_value == _value_on(coeff, closed[0]):
        integrable = closed[1]
    else:
        integrable = all(r < 0.9 for r in ratios[-3:])
    if integrable:
        return IntegrabilityResult("integrable", sums[-1], tuple(sums),
                                   increments, ratios)
    return IntegrabilityResult("non_integrable", None, tuple(sums),
                               increments, ratios)


# -- validated problem instances ----------------------------------------

def _check_dense(size: int) -> None:
    """Refuse a dense K W on ``size`` nodes that would not fit in memory."""
    _check_memory(8 * size ** 2, f"a dense operator on {size} grid nodes")


@dataclass(frozen=True)
class Problem:
    domain: Domain
    kernel: Kernel
    coeff: CoefficientField
    grid: Grid

    def __post_init__(self):
        if self.grid.domain != self.domain:
            raise ConfigurationError("grid was built for a different domain")
        if not self.kernel.positive_definite:
            # the kernel takes the dense K W; a factored one checks as it grows
            _check_dense(self.grid.size)
        a_vals = np.asarray(self.coeff.evaluate(self.grid.nodes), dtype=float)
        if a_vals.shape != (self.grid.size,):
            raise ConfigurationError(
                "coefficient evaluation must return one value per node"
            )
        if not np.all(np.isfinite(a_vals)):
            raise H3Violation("coefficient takes non-finite values on the grid")
        a_vals.setflags(write=False)
        object.__setattr__(self, "_a_at_nodes", a_vals)
        # the argmax set, taken on first use (_argmax_set), and the
        # problem whose ladder this one's grid belongs to (_refined)
        object.__setattr__(self, "_argmax", None)
        object.__setattr__(self, "_root", None)
        self._check_kernel()

    def _check_kernel(self):
        """Sample evenly spaced kernel rows against every node, ``_CHUNK``
        rows at a time.  A wrong shape raises at once; the other faults are
        collected over the slabs and the first in this order raises:
        non-finite values, negative values, a non-constant diagonal under the
        positive-definite claim, then the witness bound (or, without a
        witness, a value <= 0) failing at a pair within its radius."""
        nodes = self.grid.nodes
        n = nodes.shape[0]
        # evenly spaced distinct rows, in integer arithmetic: np.unique would
        # import numpy.ma (about 15 ms) on every cold run
        k = min(n, 96)
        sample = np.arange(k) * (n - 1) // max(k - 1, 1)
        witness = self.kernel.positivity_witness
        if witness is None:
            radius, floor = 2.0 * self.grid.mesh_size, 0.0
        else:
            radius, floor = witness[1], witness[0] * (1 - 1e-9)
        # an infinite radius takes every pair without distances
        near = radius != math.inf
        if near:
            cols, dist = np.asfortranarray(nodes), np.empty((_CHUNK, n))
        nonfinite = negative = uneven = low = False
        diag0 = None
        for start in range(0, k, _CHUNK):
            rows = sample[start:start + _CHUNK]
            block = np.asarray(self.kernel.evaluate(nodes[rows], nodes), dtype=float)
            if block.shape != (rows.size, n):
                raise ConfigurationError("kernel evaluation returned a wrong shape")
            nonfinite |= not np.all(np.isfinite(block))
            negative |= bool(np.any(block < 0))
            if self.kernel.positive_definite:
                diag = block[np.arange(rows.size), rows]
                diag0 = diag[0] if diag0 is None else diag0
                uneven |= not np.all(diag == diag0)
            if not low:
                bad = block < floor if witness is not None else block <= floor
                if near:
                    d = _sq_distances(nodes[rows], cols, dist[:rows.size])
                    bad &= np.sqrt(d, out=d) <= radius
                low = bool(np.any(bad))
        if nonfinite:
            raise H2Violation("kernel takes non-finite values")
        if negative:
            raise H2Violation("kernel takes negative values")
        if uneven:
            raise H2Violation("kernel is marked positive definite but "
                              "K(x, x) is not constant")
        if low and witness is None:
            raise H2Violation("kernel vanishes near the diagonal")
        if low:
            raise H2Violation(f"kernel drops below its claimed bound {witness[0]} "
                              f"within radius {radius}")
        if witness is not None and math.isfinite(radius) and self.grid.mesh_size >= radius:
            log.warning(
                "mesh size %.3g does not resolve the kernel positivity radius %.3g",
                self.grid.mesh_size, radius,
            )

    @property
    def a_at_nodes(self) -> np.ndarray:
        return self._a_at_nodes

    @property
    def sup_a_grid(self) -> float:
        return float(np.max(self._a_at_nodes))


def build_problem(domain: Domain, kernel: Kernel, coeff: CoefficientField,
                  resolution: int, grading: GradeSpec | None = None) -> Problem:
    grid = build_grid(domain, resolution, grading)
    return Problem(domain, kernel, coeff, grid)


def _refined_grid(grid: Grid, step: int) -> Grid:
    """The grid ``step`` levels finer (coarser when negative): a level adds
    one to the resolution and to the grading depth, at least 2 and 1;
    targets and ratio stay, and an ungraded grid stays ungraded.  A coarser
    level that gives back the grid itself is refused."""
    spec = None if grid.grading is None else replace(
        grid.grading, depth=max(1, grid.grading.depth + step))
    resolution = max(2, grid.resolution + step)
    if resolution == grid.resolution and spec == grid.grading:
        depth = "" if spec is None else f" and grading depth {spec.depth}"
        raise ConfigurationError(
            f"the grid at resolution {resolution}{depth} has no coarser grid "
            "to confirm its regime on; refine it or set options.confirm to false"
        )
    return build_grid(grid.domain, resolution, spec)


def _refined(problem: Problem, step: int) -> Problem:
    """The problem on ``_refined_grid(problem.grid, step)``, the problem
    itself at step 0.  The refined problem belongs to the ladder of
    ``problem``'s root, whose argmax set it reuses when it matches
    (``_argmax_set``)."""
    if step == 0:
        return problem
    refined = Problem(problem.domain, problem.kernel, problem.coeff,
                      _refined_grid(problem.grid, step))
    object.__setattr__(refined, "_root",
                       problem if problem._root is None else problem._root)
    return refined
