"""Measure-valued eigensolutions in the singular regime.

When the normalized operator's radius sits below one, the eigenproblem at
lambda = -sup a is solved by a measure with a singular part mu0 on the argmax
set of a plus an absolutely continuous density f.  Writing g = (a0 - a) f,
the density solves the linear system

    (I - Kt) g = rhs,      rhs(x) = integral K(x, y) dmu0(y),

with mu0 = sum alpha_i delta_{x_i}, the atoms on the argmax set.
``build_singular_solution`` is the one constructor of that measure, for one
atom, several, or a pure-atom measure such as a Cantor approximant.  It
solves the system by restarted GMRES (numpy, modified Gram-Schmidt Arnoldi)
with Kt v = K W (v / (a0 - a)): for a radius of Kt below one, I - Kt is
the identity minus a compact operator, so the Krylov iteration converges in
a few matvecs however fine the grid, and it logs one ``fredholm:`` line
with the matvecs and the residual.  K W is the grid's one kernel operator
(``spectral.KernelWeights``): exact ring blocks for a Gaussian on a ball
or cylinder grid with a coefficient constant on its rings, a
pivoted-Cholesky factor for the constant kernel and for the Gaussian
elsewhere, so the solve holds no N x N array, and a dense array otherwise.

A solution is its data: atoms, grid and density values.  Off the grid the
eigen-equation itself fixes the density, f(x) = integral K(x, y) dmu(y) /
(a0 - a(x)) with a0 the value of a at the atoms (``density_at``); on the
construction nodes that reproduces the solved values to the solver's
residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    NearSingularSystemError,
    NormalizationError,
    PositivityViolationError,
    UnsupportedMeasureError,
)
from .geometry import Grid, Segment, _check_memory, contains
from .model import _TOL_MAXSET, Problem
from .spectral import (_BLOCK, _TOL_CLASSIFY, KernelWeights, RegimeReport, _gap,
                       _kernel_apply, _kernel_operator, _ktilde_pair, _regime)

log = logging.getLogger(__name__)

__all__ = [
    "DiscreteMeasure",
    "build_singular_solution",
    "span_combination",
    "cantor_approximant",
    "kernel_moment",
    "density_at",
    "normalize",
]

Atom = tuple[tuple[float, ...], float]

# GMRES on I - Kt starts from zero, so reruns are byte-identical.  It stops
# at the round-off floor of the residual relative to the data, about
# eps |g| / |rhs| <= eps / (1 - lambda1) for positive data, and at least
# _GMRES_RTOL; a target below that floor would only spend restart cycles.
_GMRES_RTOL = 1e-14
_GMRES_RESTART = 50
_GMRES_CYCLES = 10
# the result must pass |(I - Kt) g - rhs|_inf <= _TOL_LINEAR |rhs|_inf, far
# above that floor (at most 3.4e-13 on the benchmarks and at lambda1 = 0.9985)
_TOL_LINEAR = 1e-10

# a Cantor atom is a pair of Python tuples (about 250 bytes), and a kernel
# without a structured apply evaluates a _BLOCK-row slab of 8-byte values
# against the atoms
_ATOM_BYTES = 256 + 8 * _BLOCK


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms plus an optional density sampled on a grid; ``density_at``
    evaluates the density off the grid."""

    atoms: tuple[Atom, ...] = ()
    grid: Grid | None = None
    density_values: np.ndarray | None = None

    def __post_init__(self):
        if (self.grid is None) != (self.density_values is None):
            raise ConfigurationError(
                "density values and their grid must be given together"
            )
        if self.density_values is not None:
            vals = np.asarray(self.density_values, dtype=float)
            if vals.shape != (self.grid.size,):
                raise ConfigurationError(
                    "density values must match the grid size"
                )
            vals.setflags(write=False)
            object.__setattr__(self, "density_values", vals)
        if not self.atoms and self.density_values is None:
            raise ConfigurationError("measure must carry atoms or a density")

    @property
    def signed(self) -> bool:
        """True when some atom weight or density value is negative."""
        return any(w < 0 for _, w in self.atoms) or (
            self.density_values is not None and bool(np.any(self.density_values < 0))
        )

    def atom_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def density_mass(self) -> float:
        if self.density_values is None:
            return 0.0
        return float(np.sum(self.grid.weights * self.density_values))

    def total_mass(self) -> float:
        return self.atom_mass() + self.density_mass()

    def total_variation(self) -> float:
        tv = float(sum(abs(w) for _, w in self.atoms))
        if self.density_values is not None:
            tv += float(np.sum(self.grid.weights * np.abs(self.density_values)))
        return tv

    def atom_fraction(self) -> float:
        tv = self.total_variation()
        if tv == 0:
            raise NormalizationError("measure has zero total variation")
        return float(sum(abs(w) for _, w in self.atoms)) / tv


def _atom_arrays(atoms: tuple[Atom, ...], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Atom points and weights as arrays; the points must be ``dim``-D."""
    if len({len(p) for p, _ in atoms}) > 1:
        raise UnsupportedMeasureError("atoms must all have the same dimension")
    if len(atoms[0][0]) != dim:
        raise UnsupportedMeasureError("atom dimension does not match the domain")
    pts = np.asarray([p for p, _ in atoms], dtype=float)
    wts = np.asarray([w for _, w in atoms], dtype=float)
    return pts, wts


def _gmres(apply, b: np.ndarray, rtol: float) -> np.ndarray:
    """Restarted GMRES (Saad-Schultz 1986) for apply(x) = b from x = 0.

    Each cycle builds an Arnoldi basis of up to ``_GMRES_RESTART`` vectors
    by modified Gram-Schmidt and minimizes the residual over it through
    Givens rotations; it stops once the residual norm is at most
    ``rtol`` |b|, after ``_GMRES_CYCLES`` cycles, or when the Krylov space
    is invariant.  The caller checks the result's residual explicitly.
    """
    n = b.size
    m = min(n, _GMRES_RESTART)
    target = rtol * float(np.linalg.norm(b))
    x = np.zeros(n)
    r = b.copy()
    for cycle in range(_GMRES_CYCLES):
        if cycle:
            r = b - apply(x)
        beta = float(np.linalg.norm(r))
        if beta <= target:
            break
        basis = np.empty((m + 1, n))
        basis[0] = r / beta
        h = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        res = np.zeros(m + 1)
        res[0] = beta
        for j in range(m):
            w = apply(basis[j])
            for i in range(j + 1):
                h[i, j] = basis[i] @ w
                w -= h[i, j] * basis[i]
            h[j + 1, j] = float(np.linalg.norm(w))
            breakdown = h[j + 1, j] == 0.0
            if not breakdown:
                basis[j + 1] = w / h[j + 1, j]
            for i in range(j):
                h[i, j], h[i + 1, j] = (cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                                        cs[i] * h[i + 1, j] - sn[i] * h[i, j])
            d = float(np.hypot(h[j, j], h[j + 1, j]))
            cs[j], sn[j] = h[j, j] / d, h[j + 1, j] / d
            h[j, j], h[j + 1, j] = d, 0.0
            res[j], res[j + 1] = cs[j] * res[j], -sn[j] * res[j]
            if abs(res[j + 1]) <= target or breakdown:
                break
        k = j + 1
        x += basis[:k].T @ np.linalg.solve(h[:k, :k], res[:k])
        if abs(res[k]) <= target or breakdown:
            break
    return x


def _check_support(problem: Problem, pts: np.ndarray) -> float:
    inside = contains(problem.domain, pts, tol=1e-12)
    if not bool(np.all(inside)):
        raise UnsupportedMeasureError("an atom lies outside the closed domain")
    a_atoms = np.asarray(problem.coeff.evaluate(pts), dtype=float)
    a0 = float(np.max(a_atoms))
    rng = a0 - float(np.min(problem.a_at_nodes))
    if np.any(a_atoms < a0 - max(_TOL_MAXSET * rng, 1e-13)):
        raise UnsupportedMeasureError(
            "atoms must sit on the argmax set of the coefficient"
        )
    if a0 < problem.sup_a_grid:
        raise UnsupportedMeasureError(
            "atoms sit below the coefficient values attained on the grid"
        )
    return a0


def build_singular_solution(problem: Problem, atoms) -> DiscreteMeasure:
    """Singular eigensolution with the given atoms on the argmax set.

    ``atoms`` is a sequence of (point, weight) pairs, or a pure-atom
    DiscreteMeasure (a Cantor approximant, for instance).
    """
    return _singular_solution(problem, atoms)


def _singular_solution(problem: Problem, atoms,
                       classified: tuple[RegimeReport, KernelWeights] | None = None
                       ) -> DiscreteMeasure:
    """``build_singular_solution``: solve (I - Kt) g = rhs for the atoms and
    return them with the density g / (a0 - a).

    Atom weights must be finite and not all zero; that is checked before
    any assembly.  Only the singular regime has a solution.  Regime and
    lambda1 are those of ``classified``, the grid's report and K W from
    ``spectral._classify``; without it, lambda1 is the certified Kt Perron
    root, classified at ``classify_regime``'s default tolerance.  GMRES runs
    on v -> v - Kt v; its result is accepted on the explicit check
    |(I - Kt) g - rhs|_inf <= ``_TOL_LINEAR`` |rhs|_inf, where the residual
    of a factored K W carries its remainder bound.
    """
    if isinstance(atoms, DiscreteMeasure):
        if atoms.density_values is not None:
            raise UnsupportedMeasureError(
                "the prescribed singular part must be purely atomic"
            )
        atoms = atoms.atoms
    else:
        atoms = tuple((tuple(float(v) for v in p), float(w)) for p, w in atoms)
    if not atoms:
        raise UnsupportedMeasureError("at least one atom is required")
    pts, wts = _atom_arrays(atoms, problem.grid.nodes.shape[1])
    if not (np.all(np.isfinite(wts)) and np.any(wts != 0)):
        raise ConfigurationError(
            "atom weights must be finite and not all zero, got "
            + np.array2string(wts, threshold=6)
        )
    a0 = _check_support(problem, pts)
    rhs_values = _kernel_apply(problem.kernel, problem.grid.nodes, pts, wts)
    gap = _gap(problem, a0)
    if classified is None:
        kw = _kernel_operator(problem)
        lam1 = _ktilde_pair(kw, gap)[0].value
        regime = _regime(lam1, _TOL_CLASSIFY)
    else:
        report, kw = classified
        lam1, regime = report.lambda1, report.regime
    if regime == "continuous":
        raise ConfigurationError(
            f"normalized operator radius {lam1:.6g} exceeds one; the problem "
            "is in the continuous regime and has no singular solution"
        )
    if regime == "l1":
        raise NearSingularSystemError(
            f"normalized operator radius {lam1:.6g} is within the classification "
            "tolerance of one; the resolvent is too close to singular"
        )
    matvecs = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return v - kw @ (v / gap)

    g = _gmres(apply, rhs_values,
               max(_GMRES_RTOL, 4.0 * np.finfo(float).eps / (1.0 - lam1)))
    scale = float(np.max(np.abs(rhs_values)))
    resid = float(np.max(np.abs(g - kw @ (g / gap) - rhs_values)
                         + kw.slack(g / gap)))
    log.info("fredholm: n=%d lambda1=%.12g gmres matvecs=%d residual=%.3g "
             "(tol_linear %.3g); kernel %s", gap.size, lam1, matvecs,
             resid / scale if scale > 0 else resid, _TOL_LINEAR, kw.describe())
    if scale > 0 and resid > _TOL_LINEAR * scale:
        raise NearSingularSystemError(
            f"linear solve residual {resid:.3e} exceeds {_TOL_LINEAR:.1e} "
            "relative to the data"
        )
    if np.all(wts > 0) and np.any(g <= 0):
        raise PositivityViolationError(
            "solved density factor is not strictly positive"
        )
    return DiscreteMeasure(atoms=atoms, grid=problem.grid, density_values=g / gap)


def cantor_approximant(segment: Segment, level: int) -> DiscreteMeasure:
    """Uniform measure on the level-k Cantor set carried by a segment.

    2^k atoms of weight 2^-k at the midpoints of the surviving middle-third
    intervals, parameterized along the segment.
    """
    if level < 0:
        raise ConfigurationError(f"level must be >= 0, got {level}")
    _check_memory(_ATOM_BYTES << level,
                  f"a level-{level} Cantor approximant has 2^{level} atoms "
                  f"of about {_ATOM_BYTES} bytes each and",
                  "lower the Cantor level")
    start = np.asarray(segment.start, dtype=float)
    end = np.asarray(segment.end, dtype=float)
    ts = [(0.0, 1.0)]
    for _ in range(level):
        ts = [piece
              for lo, hi in ts
              for piece in ((lo, lo + (hi - lo) / 3.0), (hi - (hi - lo) / 3.0, hi))]
    weight = 0.5**level
    atoms = tuple(
        (tuple(start + 0.5 * (lo + hi) * (end - start)), weight)
        for lo, hi in ts
    )
    return DiscreteMeasure(atoms=atoms)


def span_combination(measures, coefficients) -> DiscreteMeasure:
    """Linear combination of measures sharing one construction grid."""
    measures = list(measures)
    coefficients = [float(c) for c in coefficients]
    if len(measures) != len(coefficients) or not measures:
        raise ConfigurationError(
            "need equally many measures and coefficients, at least one each"
        )
    grids = [m.grid for m in measures if m.grid is not None]
    for g in grids[1:]:
        if not grids[0].same_nodes(g):
            raise ConfigurationError(
                "span combination requires measures on identical grids"
            )
    merged: dict[tuple[float, ...], float] = {}
    for m, c in zip(measures, coefficients):
        for p, w in m.atoms:
            merged[p] = merged.get(p, 0.0) + c * w
    atoms = tuple((p, w) for p, w in merged.items() if w != 0.0)

    grid = grids[0] if grids else None
    density = None
    if grid is not None:
        density = sum(c * m.density_values
                      for m, c in zip(measures, coefficients)
                      if m.density_values is not None)
    return DiscreteMeasure(atoms=atoms, grid=grid, density_values=density)


def _points(problem: Problem, points) -> np.ndarray:
    """points as rows of the domain's dimension, else ConfigurationError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = problem.grid.nodes.shape[1]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigurationError(
            f"points must be rows of {dim} coordinates, got shape {pts.shape}"
        )
    return pts


def kernel_moment(problem: Problem, mu: DiscreteMeasure,
                  points: np.ndarray) -> np.ndarray:
    """integral K(x, y) dmu(y) evaluated at each row of points; atoms of
    another dimension than the domain's raise UnsupportedMeasureError."""
    pts = _points(problem, points)
    cols, masses = [], []
    if mu.atoms:
        apts, awts = _atom_arrays(mu.atoms, pts.shape[1])
        cols.append(apts)
        masses.append(awts)
    if mu.density_values is not None:
        cols.append(mu.grid.nodes)
        masses.append(mu.grid.weights * mu.density_values)
    return _kernel_apply(problem.kernel, pts, np.vstack(cols),
                         np.concatenate(masses))


def density_at(problem: Problem, mu: DiscreteMeasure,
               points: np.ndarray) -> np.ndarray:
    """The density of mu at each row of points, from the eigen-equation at
    lambda = -a0: integral K(x, y) dmu(y) / (a0 - a(x)), with a0 the largest
    value of a at mu's atoms.

    A measure without atoms has no such eigenvalue, and a point on the
    argmax set of a has no finite value; both raise ConfigurationError, as
    do points of another dimension than the domain's.  Atoms of another
    dimension raise UnsupportedMeasureError, as in ``kernel_moment``.
    """
    if not mu.atoms:
        raise ConfigurationError(
            "a measure without atoms has no eigenvalue to extend its density at"
        )
    pts = _points(problem, points)
    apts, _ = _atom_arrays(mu.atoms, pts.shape[1])
    a0 = float(np.max(problem.coeff.evaluate(apts)))
    denom = a0 - np.asarray(problem.coeff.evaluate(pts), dtype=float)
    if np.any(denom <= 0):
        raise ConfigurationError(
            "density evaluation point touches the argmax set of the coefficient"
        )
    return kernel_moment(problem, mu, pts) / denom


def normalize(mu: DiscreteMeasure, target: float = 1.0) -> DiscreteMeasure:
    """Scale a measure so its total (signed) mass equals target."""
    mass = mu.total_mass()
    tv = mu.total_variation()
    if tv == 0 or abs(mass) <= 1e-14 * tv:
        raise NormalizationError(
            "measure has (numerically) zero mass; it cannot be normalized"
        )
    scale = target / mass
    if scale == 1.0:
        return mu
    atoms = tuple((p, scale * w) for p, w in mu.atoms)
    density = None if mu.density_values is None else scale * mu.density_values
    return DiscreteMeasure(atoms=atoms, grid=mu.grid, density_values=density)
