"""Measure-valued eigensolutions in the singular regime.

When the normalized operator's radius sits below one, the eigenproblem at
lambda = -sup a is solved by a measure with a singular part mu0 on the argmax
set of a plus an absolutely continuous density f.  Writing g = (a0 - a) f,
the density solves the linear system

    (I - Kt) g = rhs,      rhs(x) = integral K(x, y) dmu0(y),

which this module solves by GMRES with Kt v = K W (v / (a0 - a)): for a
radius of Kt below one, I - Kt is the identity minus a compact operator, so
the Krylov iteration converges in a few matvecs however fine the grid, and
K W is the only N x N array the solve holds.  Solutions carry a Nystrom extension so
their densities can be evaluated off the construction grid; on the
construction nodes the extension reproduces the solved values exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import model as _model
from .errors import (
    ConfigurationError,
    NearSingularSystemError,
    NormalizationError,
    PositivityViolationError,
    TooLargeError,
    UnsupportedMeasureError,
)
from .geometry import Grid, Segment, contains
from .model import Problem
from .spectral import _BLOCK, _gap, _kernel_apply, _kernel_weights, _ktilde_perron

log = logging.getLogger(__name__)

__all__ = [
    "DiscreteMeasure",
    "FredholmSolution",
    "NystromDensity",
    "CombinedDensity",
    "solve_fredholm",
    "build_atom_solution",
    "build_singular_solution",
    "span_combination",
    "cantor_approximant",
    "kernel_moment",
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

# a Cantor atom is a pair of Python tuples (about 250 bytes), and every
# kernel apply against the atoms evaluates a _BLOCK-row slab of 8-byte values
_ATOM_BYTES = 256 + 8 * _BLOCK


@dataclass(frozen=True)
class NystromDensity:
    """Natural extension of a solved density beyond its grid.

    g extends through the same identity the grid values satisfy, and the
    density is g / (a0 - a); at construction nodes both reproduce the solved
    values to roundoff.
    """

    problem: Problem
    a0: float
    g_values: np.ndarray
    rhs: Callable[[np.ndarray], np.ndarray]

    def g_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        grid = self.problem.grid
        col = grid.weights * self.g_values / (self.a0 - self.problem.a_at_nodes)
        return (np.asarray(self.rhs(pts), dtype=float)
                + _kernel_apply(self.problem.kernel, pts, grid.nodes, col))

    def density_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        denom = self.a0 - np.asarray(self.problem.coeff.evaluate(pts), dtype=float)
        if np.any(denom <= 0):
            raise ConfigurationError(
                "density evaluation point touches the argmax set of the coefficient"
            )
        return self.g_at(pts) / denom


@dataclass(frozen=True)
class CombinedDensity:
    parts: tuple[tuple[float, "NystromDensity | CombinedDensity"], ...]

    def density_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for c, model in self.parts:
            out += c * model.density_at(pts)
        return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms plus an optional density sampled on a grid.

    ``density_model`` supports off-grid evaluation and is carried alongside
    the samples; file serialization keeps only atoms and sampled values.
    """

    atoms: tuple[Atom, ...] = ()
    grid: Grid | None = None
    density_values: np.ndarray | None = None
    signed: bool = False
    density_model: "NystromDensity | CombinedDensity | None" = field(
        default=None, compare=False
    )

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


@dataclass(frozen=True)
class FredholmSolution:
    g_values: np.ndarray
    rhs_values: np.ndarray
    lambda1: float
    solver_residual: float


def _atom_arrays(atoms: tuple[Atom, ...]) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray([p for p, _ in atoms], dtype=float)
    wts = np.asarray([w for _, w in atoms], dtype=float)
    return pts, wts


def _atom_rhs(problem: Problem, atoms: tuple[Atom, ...]) -> Callable[[np.ndarray], np.ndarray]:
    pts0, wts0 = _atom_arrays(atoms)

    def rhs(points: np.ndarray) -> np.ndarray:
        return _kernel_apply(problem.kernel, np.atleast_2d(points), pts0, wts0)

    return rhs


def _solve_linear(problem: Problem, atoms: tuple[Atom, ...], tol_linear: float,
                  tol_guard: float, tol_maxset: float, kw: np.ndarray | None = None
                  ) -> tuple[float, Callable[[np.ndarray], np.ndarray], FredholmSolution]:
    """Solve (I - Kt) g = rhs for prescribed atoms; return a0, rhs and g.

    ``kw`` is the grid's K W, built here when None.  GMRES runs on
    v -> v - Kt v; its result is accepted on the explicit
    check |(I - Kt) g - rhs|_inf <= ``tol_linear`` |rhs|_inf.  Atom weights
    must be finite and not all zero; that is checked before any assembly.
    """
    _, wts = _atom_arrays(atoms)
    if not (np.all(np.isfinite(wts)) and np.any(wts != 0)):
        raise ConfigurationError(
            "atom weights must be finite and not all zero, got "
            + np.array2string(wts, threshold=6)
        )
    a0 = _check_support(problem, atoms, tol_maxset)
    rhs_fn = _atom_rhs(problem, atoms)
    rhs_values = rhs_fn(problem.grid.nodes)
    gap = _gap(problem, a0)
    if kw is None:
        kw = _kernel_weights(problem)
    lam1 = _ktilde_perron(kw, gap, min(tol_guard / 10.0, 1e-6)).value
    if lam1 > 1.0 + tol_guard:
        raise ConfigurationError(
            f"normalized operator radius {lam1:.6f} exceeds one; the problem "
            "is in the continuous regime and has no singular solution"
        )
    if abs(lam1 - 1.0) <= tol_guard:
        raise NearSingularSystemError(
            f"normalized operator radius {lam1:.6f} is within {tol_guard} of "
            "one; the resolvent is too close to singular"
        )
    n = gap.size
    matvecs = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        v = np.ravel(v)
        return v - kw @ (v / gap)

    g, _ = gmres(LinearOperator((n, n), matvec=apply, dtype=float), rhs_values,
                 x0=np.zeros(n), atol=0.0,
                 rtol=max(_GMRES_RTOL, 4.0 * np.finfo(float).eps / (1.0 - lam1)),
                 restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES)
    scale = float(np.max(np.abs(rhs_values)))
    resid = float(np.max(np.abs(g - kw @ (g / gap) - rhs_values)))
    log.info("fredholm: n=%d lambda1=%.12g gmres matvecs=%d residual=%.3g "
             "(tol_linear %.3g)", n, lam1, matvecs,
             resid / scale if scale > 0 else resid, tol_linear)
    if scale > 0 and resid > tol_linear * scale:
        raise NearSingularSystemError(
            f"linear solve residual {resid:.3e} exceeds {tol_linear:.1e} "
            "relative to the data"
        )
    if all(w > 0 for _, w in atoms) and np.any(g <= 0):
        raise PositivityViolationError(
            "solved density factor is not strictly positive"
        )
    return a0, rhs_fn, FredholmSolution(g, rhs_values, lam1, resid)


def _check_support(problem: Problem, atoms: tuple[Atom, ...],
                   tol_maxset: float) -> float:
    pts, _ = _atom_arrays(atoms)
    if pts.shape[1] != problem.grid.nodes.shape[1]:
        raise UnsupportedMeasureError("atom dimension does not match the domain")
    inside = contains(problem.domain, pts, tol=1e-12)
    if not bool(np.all(inside)):
        raise UnsupportedMeasureError("an atom lies outside the closed domain")
    a_atoms = np.asarray(problem.coeff.evaluate(pts), dtype=float)
    a0 = float(np.max(a_atoms))
    rng = a0 - float(np.min(problem.a_at_nodes))
    if np.any(a_atoms < a0 - max(tol_maxset * rng, 1e-13)):
        raise UnsupportedMeasureError(
            "atoms must sit on the argmax set of the coefficient"
        )
    if a0 < problem.sup_a_grid:
        raise UnsupportedMeasureError(
            "atoms sit below the coefficient values attained on the grid"
        )
    return a0


def solve_fredholm(problem: Problem, x0: tuple[float, ...], alpha: float = 1.0,
                   tol_linear: float = 1e-10,
                   tol_guard: float = 1e-3) -> FredholmSolution:
    """Solve (I - Kt) g = alpha K(., x0) for the density factor g."""
    _, _, sol = _solve_linear(problem, ((tuple(x0), alpha),), tol_linear,
                              tol_guard, tol_maxset=1e-8)
    return sol


def build_singular_solution(problem: Problem, atoms, *,
                            tol_linear: float = 1e-10,
                            tol_guard: float = 1e-3,
                            tol_maxset: float = 1e-8) -> DiscreteMeasure:
    """Singular eigensolution with the given atoms on the argmax set.

    ``atoms`` is a sequence of (point, weight) pairs, or a pure-atom
    DiscreteMeasure (a Cantor approximant, for instance).
    """
    return _singular_solution(problem, atoms, None, tol_linear, tol_guard,
                              tol_maxset)


def _singular_solution(problem: Problem, atoms, kw: np.ndarray | None,
                       tol_linear: float, tol_guard: float,
                       tol_maxset: float) -> DiscreteMeasure:
    """``build_singular_solution`` reusing the problem grid's K W when given."""
    if isinstance(atoms, DiscreteMeasure):
        if atoms.density_values is not None:
            raise UnsupportedMeasureError(
                "the prescribed singular part must be purely atomic"
            )
        atom_list = atoms.atoms
    else:
        atom_list = tuple((tuple(float(v) for v in p), float(w)) for p, w in atoms)
    if not atom_list:
        raise UnsupportedMeasureError("at least one atom is required")
    a0, rhs_fn, sol = _solve_linear(problem, atom_list, tol_linear,
                                    tol_guard, tol_maxset, kw)
    positive = all(w > 0 for _, w in atom_list)
    f = sol.g_values / (a0 - problem.a_at_nodes)
    model = NystromDensity(problem, a0, sol.g_values, rhs_fn)
    signed = (not positive) or bool(np.any(f < 0))
    return DiscreteMeasure(atoms=atom_list, grid=problem.grid,
                           density_values=f, signed=signed,
                           density_model=model)


def build_atom_solution(problem: Problem, x0: tuple[float, ...],
                        alpha: float, **kwargs) -> DiscreteMeasure:
    """Single atom of weight alpha at x0 plus the induced density."""
    return build_singular_solution(problem, [(tuple(x0), alpha)], **kwargs)


def cantor_approximant(segment: Segment, level: int) -> DiscreteMeasure:
    """Uniform measure on the level-k Cantor set carried by a segment.

    2^k atoms of weight 2^-k at the midpoints of the surviving middle-third
    intervals, parameterized along the segment.
    """
    if level < 0:
        raise ConfigurationError(f"level must be >= 0, got {level}")
    budget = _model._memory_budget()
    if _ATOM_BYTES << level > budget:
        raise TooLargeError(
            f"a level-{level} Cantor approximant has 2^{level} atoms of about "
            f"{_ATOM_BYTES} bytes each, more than the {budget / 2**30:.3g} GiB "
            "of physical memory; lower the Cantor level"
        )
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
    model = None
    if grid is not None:
        density = np.zeros(grid.size)
        parts = []
        for m, c in zip(measures, coefficients):
            if m.density_values is not None:
                density = density + c * m.density_values
                if m.density_model is not None:
                    parts.append((c, m.density_model))
        model = CombinedDensity(tuple(parts)) if parts else None

    signed = any(w < 0 for _, w in atoms) or (
        density is not None and bool(np.any(density < 0))
    )
    return DiscreteMeasure(atoms=atoms, grid=grid, density_values=density,
                           signed=signed, density_model=model)


def kernel_moment(problem: Problem, mu: DiscreteMeasure,
                  points: np.ndarray) -> np.ndarray:
    """integral K(x, y) dmu(y) evaluated at each row of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cols, masses = [], []
    if mu.atoms:
        apts, awts = _atom_arrays(mu.atoms)
        cols.append(apts)
        masses.append(awts)
    if mu.density_values is not None:
        cols.append(mu.grid.nodes)
        masses.append(mu.grid.weights * mu.density_values)
    return _kernel_apply(problem.kernel, pts, np.vstack(cols),
                         np.concatenate(masses))


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
    model = mu.density_model
    if model is not None:
        model = CombinedDensity(((scale, model),))
    signed = any(w < 0 for _, w in atoms) or (
        density is not None and bool(np.any(density < 0))
    )
    return DiscreteMeasure(atoms=atoms, grid=mu.grid, density_values=density,
                           signed=signed, density_model=model)
