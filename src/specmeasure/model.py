"""Kernels, coefficient fields, and validated problem instances.

A problem couples a bounded domain, a continuous nonnegative kernel K that is
bounded below near the diagonal, and a bounded continuous coefficient a.  The
structural hypotheses are checked on construction; numeric routines can then
assume they hold.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize
from scipy.spatial import cKDTree, distance

from .errors import (
    ConfigurationError,
    H2Violation,
    H3Violation,
    TooLargeError,
)
from .geometry import (
    Domain,
    GradeSpec,
    Grid,
    Segment,
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
    "argmax_point",
    "IntegrabilityResult",
    "check_recip_integrability",
    "Problem",
    "build_problem",
]


@dataclass(frozen=True)
class Kernel:
    """Dispersal kernel K(x, y) evaluated in (rows, cols) blocks.

    ``positivity_witness`` is an optional pair (c0, eps0): K is claimed to be
    at least c0 whenever |x - y| <= eps0.  ``symmetric`` claims
    K(x, y) = K(y, x); the full operator is then similar to a symmetric
    matrix and its top eigenpair is found by Lanczos.  Validation checks
    both claims on grid node pairs.
    """

    family: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    positivity_witness: tuple[float, float] | None = None
    symmetric: bool = False


def constant_kernel(rho: float) -> Kernel:
    if not math.isfinite(rho) or rho <= 0:
        raise ConfigurationError(f"constant kernel needs rho > 0, got {rho}")

    def ev(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full((x.shape[0], y.shape[0]), rho)

    return Kernel("constant", ev, {"rho": rho},
                  positivity_witness=(rho / 2, math.inf), symmetric=True)


def gaussian_kernel(amplitude: float, width: float) -> Kernel:
    """K(x, y) = amplitude * exp(-|x - y|^2 / (2 width^2))."""
    if amplitude <= 0 or width <= 0:
        raise ConfigurationError("gaussian kernel needs amplitude > 0 and width > 0")

    def ev(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # in place: one slab-sized array per call, the same operations
        d2 = distance.cdist(x, y, "sqeuclidean")
        np.divide(d2, -2.0 * width * width, out=d2)
        np.exp(d2, out=d2)
        return np.multiply(amplitude, d2, out=d2)

    c0 = amplitude * math.exp(-0.5) * (1.0 - 1e-12)
    return Kernel("gaussian", ev, {"amplitude": amplitude, "width": width},
                  positivity_witness=(c0, width), symmetric=True)


def custom_kernel(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  positivity_witness: tuple[float, float] | None = None,
                  name: str = "custom", params: dict | None = None) -> Kernel:
    return Kernel(name, fn, dict(params or {}), positivity_witness)


@dataclass(frozen=True)
class CoefficientField:
    """Continuous coefficient a(x), vectorized over rows of points."""

    family: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)


def constant_coefficient(value: float) -> CoefficientField:
    return CoefficientField(
        "constant", lambda x: np.full(np.atleast_2d(x).shape[0], float(value)),
        {"value": value},
    )


def coordinate_linear(coeffs: tuple[float, ...], offset: float = 0.0) -> CoefficientField:
    c = np.asarray(coeffs, dtype=float)

    def ev(x: np.ndarray) -> np.ndarray:
        return offset + np.atleast_2d(x) @ c

    return CoefficientField("coordinate_linear", ev,
                            {"coeffs": tuple(coeffs), "offset": offset})


def radial_power(top: float, scale: float, power: float,
                 center: tuple[float, ...],
                 axes: tuple[int, ...] | None = None) -> CoefficientField:
    """a(x) = top - scale * dist(x)^power, dist over the selected axes.

    With ``axes=(0, 1)`` in R^3 the level sets are tubes around the line
    through ``center`` parallel to the third axis.
    """
    if scale <= 0 or power <= 0:
        raise ConfigurationError("radial_power needs scale > 0 and power > 0")
    c = np.asarray(center, dtype=float)
    ax = tuple(range(c.size)) if axes is None else tuple(axes)

    sel = list(ax)

    def ev(x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(x)
        d = np.linalg.norm(pts[:, sel] - c[sel], axis=1)
        return top - scale * d**power

    return CoefficientField(
        "radial_power", ev,
        {"top": top, "scale": scale, "power": power,
         "center": tuple(center), "axes": None if axes is None else tuple(axes)},
    )


def custom_coefficient(fn: Callable[[np.ndarray], np.ndarray],
                       name: str = "custom",
                       params: dict | None = None) -> CoefficientField:
    return CoefficientField(name, fn, dict(params or {}))


# -- argmax set detection -----------------------------------------------

@dataclass(frozen=True)
class ArgmaxComponent:
    kind: str                         # "point" | "segment" | "cluster"
    representative: tuple[float, ...] | Segment
    value: float
    node_count: int


@dataclass(frozen=True)
class ArgmaxSet:
    sup_value: float
    components: tuple[ArgmaxComponent, ...]
    tol_used: float

    @property
    def targets(self) -> tuple[tuple[float, ...] | Segment, ...]:
        return tuple(c.representative for c in self.components)


def _refine_point(coeff: CoefficientField, domain: Domain,
                  start: np.ndarray) -> tuple[np.ndarray, float]:
    """Local maximization of a from ``start``, constrained to the closure."""

    def neg_a(x: np.ndarray) -> float:
        p = project_to_closure(domain, x[None, :])
        return -float(coeff.evaluate(p)[0])

    res = optimize.minimize(neg_a, start, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-13,
                                     "maxiter": 2000})
    best = project_to_closure(domain, res.x[None, :])[0]
    return best, float(coeff.evaluate(best[None, :])[0])


def _extend_along(coeff: CoefficientField, domain: Domain, origin: np.ndarray,
                  direction: np.ndarray, sup_value: float, tol: float,
                  scale: float) -> np.ndarray:
    """March from origin along direction while staying in the argmax set."""

    def good(t: float) -> bool:
        p = origin + t * direction
        if not bool(contains(domain, p[None, :], tol=1e-12 * (1 + scale))[0]):
            return False
        return float(coeff.evaluate(p[None, :])[0]) >= sup_value - tol

    if not good(0.0):
        return origin
    t_lo, t_hi = 0.0, scale
    while good(t_hi):
        t_lo, t_hi = t_hi, 2.0 * t_hi
        if t_hi > 1e6 * scale:
            raise ConfigurationError("argmax segment extension does not terminate")
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if good(mid):
            t_lo = mid
        else:
            t_hi = mid
    return origin + t_lo * direction


def detect_argmax_set(coeff: CoefficientField, grid: Grid,
                      tol_maxset: float = 1e-8) -> ArgmaxSet:
    """Locate the argmax set of the coefficient from its grid values.

    Nodes within a relative tolerance of the grid maximum are clustered by
    proximity; each cluster is classified by its extent as a point, a line
    segment, or a general cluster, and refined by local optimization.
    """
    a_vals = np.asarray(coeff.evaluate(grid.nodes), dtype=float)
    a_max = float(np.max(a_vals))
    a_rng = a_max - float(np.min(a_vals))
    if a_rng <= 1e-14 * max(1.0, abs(a_max)):
        raise ConfigurationError(
            "coefficient is constant on the grid; its argmax set is the whole domain"
        )
    tau = max(tol_maxset * a_rng, 4.0 * np.finfo(float).eps * max(1.0, abs(a_max)))
    mask = a_vals >= a_max - tau
    pts = grid.nodes[mask]

    # proximity clustering: union-find over node pairs within two mesh widths
    link = 2.0 * grid.mesh_size
    parent = list(range(pts.shape[0]))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tree = cKDTree(pts)
    for i, j in tree.query_pairs(link):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(pts.shape[0]):
        groups.setdefault(find(i), []).append(i)

    scale = grid.mesh_size
    dscale = float(np.linalg.norm(np.ptp(grid.nodes, axis=0)))
    components = []
    sup_value = a_max
    for idx in groups.values():
        cluster = pts[idx]
        centroid = cluster.mean(axis=0)
        ref_pt, ref_val = _refine_point(coeff, grid.domain, centroid)
        sup_value = max(sup_value, ref_val)
        if cluster.shape[0] == 1:
            components.append(ArgmaxComponent("point", tuple(ref_pt), ref_val, 1))
            continue
        centered = cluster - centroid
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        direction = vt[0]
        t = centered @ direction
        extent = float(t.max() - t.min())
        resid = float(np.max(np.linalg.norm(centered - np.outer(t, direction), axis=1)))
        # a point argmax can mask a whole shell of nodes; what distinguishes a
        # segment is that the level set itself extends along the fitted line
        tol_ref = max(tol_maxset * a_rng,
                      8.0 * np.finfo(float).eps * max(1.0, abs(ref_val)))
        end_a = _extend_along(coeff, grid.domain, ref_pt, -direction,
                              ref_val, tol_ref, scale)
        end_b = _extend_along(coeff, grid.domain, ref_pt, direction,
                              ref_val, tol_ref, scale)
        ext_len = float(np.linalg.norm(end_b - end_a))
        if ext_len < 0.02 * dscale:
            components.append(
                ArgmaxComponent("point", tuple(ref_pt), ref_val, cluster.shape[0])
            )
        elif resid <= 0.25 * max(extent, ext_len):
            components.append(
                ArgmaxComponent("segment", Segment(tuple(end_a), tuple(end_b)),
                                ref_val, cluster.shape[0])
            )
        else:
            components.append(
                ArgmaxComponent("cluster", tuple(ref_pt), ref_val, cluster.shape[0])
            )
    components.sort(key=lambda c: -c.node_count)
    return ArgmaxSet(sup_value, tuple(components), tau)


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
                              ratio: float = 0.5,
                              tol_maxset: float = 1e-8) -> IntegrabilityResult:
    """Decide whether 1 / (sup a - a) is integrable near the argmax set.

    Integrates over nested shells excluding a geometrically shrinking
    neighborhood of the argmax set.  Decaying increments mean the integral
    converges; non-decaying increments mean it diverges.
    """
    if depth < 4:
        raise ConfigurationError(
            f"integrability check needs grading depth >= 4, got {depth}"
        )
    probe = build_grid(domain, resolution)
    amax = detect_argmax_set(coeff, probe, tol_maxset)
    grade = GradeSpec(targets=amax.targets, ratio=ratio, depth=depth)
    grid = build_grid(domain, resolution, grade)
    a_vals = np.asarray(coeff.evaluate(grid.nodes), dtype=float)
    denom = amax.sup_value - a_vals
    if np.any(denom <= 0):
        bad = int(np.sum(denom <= 0))
        raise ConfigurationError(
            f"{bad} graded nodes reach the coefficient sup; increase tol_maxset"
        )
    dist = np.min(
        np.stack([distance_to_target(grid.nodes, t) for t in amax.targets]),
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
    tail = ratios[-3:]
    if all(r < 0.9 for r in tail):
        return IntegrabilityResult("integrable", sums[-1], tuple(sums),
                                   increments, ratios)
    return IntegrabilityResult("non_integrable", None, tuple(sums),
                               increments, ratios)


# -- validated problem instances ----------------------------------------

def _memory_budget() -> int:
    """Physical memory in bytes, the ceiling for one dense N x N operator."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class Problem:
    domain: Domain
    kernel: Kernel
    coeff: CoefficientField
    grid: Grid

    def __post_init__(self):
        if self.grid.domain != self.domain:
            raise ConfigurationError("grid was built for a different domain")
        dense = 8 * self.grid.size ** 2
        budget = _memory_budget()
        if dense > budget:
            raise TooLargeError(
                f"{self.grid.size} grid nodes need {dense / 2**30:.3g} GiB per "
                f"dense operator, more than the {budget / 2**30:.3g} GiB of "
                "physical memory; lower the resolution or grading depth"
            )
        a_vals = np.asarray(self.coeff.evaluate(self.grid.nodes), dtype=float)
        if a_vals.shape != (self.grid.size,):
            raise ConfigurationError(
                "coefficient evaluation must return one value per node"
            )
        if not np.all(np.isfinite(a_vals)):
            raise H3Violation("coefficient takes non-finite values on the grid")
        a_vals.setflags(write=False)
        object.__setattr__(self, "_a_at_nodes", a_vals)
        self._check_kernel()

    def _check_kernel(self):
        nodes = self.grid.nodes
        n = nodes.shape[0]
        sample = np.unique(np.linspace(0, n - 1, min(n, 96)).astype(int))
        block = np.asarray(self.kernel.evaluate(nodes[sample], nodes), dtype=float)
        if block.shape != (sample.size, n):
            raise ConfigurationError("kernel evaluation returned a wrong shape")
        if not np.all(np.isfinite(block)):
            raise H2Violation("kernel takes non-finite values")
        if np.any(block < 0):
            raise H2Violation("kernel takes negative values")
        if self.kernel.symmetric:
            among = block[:, sample]
            if not np.allclose(among, among.T, rtol=1e-12, atol=0.0):
                raise H2Violation("kernel is marked symmetric but K(x, y) != K(y, x)")
        d = distance.cdist(nodes[sample], nodes)
        witness = self.kernel.positivity_witness
        if witness is not None:
            c0, eps0 = witness
            near = d <= eps0
            if np.any(block[near] < c0 * (1 - 1e-9)):
                raise H2Violation(
                    f"kernel drops below its claimed bound {c0} within radius {eps0}"
                )
            if math.isfinite(eps0) and self.grid.mesh_size >= eps0:
                log.warning(
                    "mesh size %.3g does not resolve the kernel positivity radius %.3g",
                    self.grid.mesh_size, eps0,
                )
        else:
            near = d <= 2.0 * self.grid.mesh_size
            if np.any(block[near] <= 0):
                raise H2Violation("kernel vanishes near the diagonal")

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
