"""Residual checks and refinement studies.

Constructed solutions satisfy their discrete equations exactly, so residuals
evaluated on the construction grid are roundoff and prove nothing.  Honest
verification re-evaluates the solution on a finer grid, where the
eigen-equation gives its density (``measure.density_at``), and measures the
equation there; refinement studies track how that error decays as the
construction grid is refined against a fixed reference.  Every study grid
comes from the problem's own: level k adds k to its resolution and to its
grading depth (``model._refined_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InvalidEigenpairError
from .geometry import Grid
from .measure import DiscreteMeasure, _atom_arrays, density_at, kernel_moment
from .model import Problem, _argmax_set, _recip_integrability, _refined, _refined_grid
from .spectral import _gap, _kernel_operator, _ktilde_pair, estimate_lambda_p

__all__ = [
    "ResidualReport",
    "pointwise_residual",
    "weak_residual",
    "default_test_functions",
    "refinement_study",
]


@dataclass(frozen=True)
class ResidualReport:
    value: float             # normalized residual
    raw: float
    normalizer: float
    eval_size: int
    kind: str                # "pointwise" | "weak"


# atoms must carry lambda = -a to this share of max(1, |lambda|)
_TOL_ATOM = 1e-6


def _density_on(problem: Problem, mu: DiscreteMeasure, grid: Grid) -> np.ndarray:
    if mu.density_values is None:
        return np.zeros(grid.size)
    if mu.grid.same_nodes(grid):
        return mu.density_values
    return density_at(problem, mu, grid.nodes)


def _moment_on(problem: Problem, mu: DiscreteMeasure,
               grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The density of mu on ``grid`` and the kernel moment of mu at its
    nodes, the density part quadratured on ``grid`` itself."""
    f = _density_on(problem, mu, grid)
    if mu.density_values is not None and grid is not mu.grid:
        mu = DiscreteMeasure(atoms=mu.atoms, grid=grid, density_values=f)
    return f, kernel_moment(problem, mu, grid.nodes)


def pointwise_residual(problem: Problem, mu: DiscreteMeasure, lam: float,
                       eval_grid: Grid | None = None) -> ResidualReport:
    """Max norm of the eigen-equation applied to the measure's density part.

    The residual at x is integral K(x, y) dmu(y) + (a(x) + lambda) f(x),
    normalized by the sup of the kernel moment.  Atom locations must carry
    eigenvalue -a exactly; that is checked, not measured.

    With an ``eval_grid`` the density is resampled there and its integral is
    re-quadratured on that grid.  Keeping the construction grid's quadrature
    would reproduce the identity the density was solved from and report
    roundoff regardless of accuracy.
    """
    grid = eval_grid if eval_grid is not None else (mu.grid or problem.grid)
    return _verify(problem, mu, lam, grid, ("pointwise",))[0]


_Fn = Callable[[np.ndarray], np.ndarray]


def _test_functions(grid: Grid) -> tuple[_Fn, list[tuple[str, _Fn]]]:
    """The map of points to the grid box, centered and scaled to unit span,
    and the test functions of ``default_test_functions`` on mapped points."""
    lo = grid.nodes.min(axis=0)
    hi = grid.nodes.max(axis=0)
    c = 0.5 * (lo + hi)
    span = np.maximum(hi - lo, 1e-30)

    def scaled(pts: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts) - c) / span

    dim = grid.nodes.shape[1]
    fns: list[tuple[str, _Fn]] = [("one", lambda z: np.ones(z.shape[0]))]
    for i in range(dim):
        fns.append((f"lin{i}", lambda z, i=i: z[:, i]))
    for i in range(dim):
        for j in range(i, dim):
            fns.append((f"quad{i}{j}", lambda z, i=i, j=j: z[:, i] * z[:, j]))
    fns.append(("cosprod", lambda z: np.prod(np.cos(math.pi * z), axis=1)))
    return scaled, fns


def default_test_functions(grid: Grid) -> list[tuple[str, _Fn]]:
    """Polynomials to degree two plus a cosine bump, scaled to the grid box."""
    scaled, fns = _test_functions(grid)
    return [(name, lambda pts, fn=fn: fn(scaled(pts))) for name, fn in fns]


def weak_residual(problem: Problem, mu: DiscreteMeasure, lam: float,
                  eval_grid: Grid | None = None) -> ResidualReport:
    """Worst tested-against-functions residual, relative to total variation.

    Pairs the measure with L phi + lambda phi for each test function phi of
    ``default_test_functions``, quadratures on ``eval_grid`` (default: the
    problem grid).  Normalization by total variation keeps the report
    linear in the measure, including for signed combinations with zero net
    mass.

    The kernel term is summed in the other order (discrete Fubini):
    sum_y m_y sum_x w_x phi_x K(x, y) = sum_x w_x phi_x (K mu)(x), with m the
    masses of the atoms and of the density on the eval grid.  So one kernel
    moment of mu serves every test function, and K need not be symmetric.
    """
    grid = eval_grid if eval_grid is not None else problem.grid
    return _verify(problem, mu, lam, grid, ("weak",))[0]


def _verify(problem: Problem, mu: DiscreteMeasure, lam: float, grid: Grid,
            kinds: tuple[str, ...]) -> list[ResidualReport]:
    """The residual reports of ``kinds`` ("pointwise", "weak", in that
    order) on ``grid``, all from one kernel moment of mu."""
    if mu.atoms:
        apts, awts = _atom_arrays(mu.atoms, problem.grid.nodes.shape[1])
        a_atoms = np.asarray(problem.coeff.evaluate(apts), dtype=float)
        off = np.max(np.abs(a_atoms + lam))
        if "pointwise" in kinds and off > _TOL_ATOM * max(1.0, abs(lam)):
            raise InvalidEigenpairError(
                f"an atomic eigensolution requires lambda = -a at every atom; "
                f"offset is {off:.3e}"
            )
    tv = mu.total_variation()
    if "weak" in kinds and tv == 0.0:
        raise ConfigurationError("measure has zero total variation")
    f, km = _moment_on(problem, mu, grid)
    a_eval = np.asarray(problem.coeff.evaluate(grid.nodes), dtype=float)
    # the eigen-equation applied to mu at the nodes
    eq = km + (a_eval + lam) * f
    reports = []
    if "pointwise" in kinds:
        normalizer = float(np.max(np.abs(km)))
        if normalizer == 0.0:
            raise ConfigurationError(
                "kernel moment vanishes identically; pointwise normalization undefined"
            )
        raw = float(np.max(np.abs(eq)))
        reports.append(ResidualReport(raw / normalizer, raw, normalizer,
                                      grid.size, "pointwise"))
    if "weak" in kinds:
        resid = grid.weights * eq
        scaled, fns = _test_functions(grid)
        z = scaled(grid.nodes)
        z_atoms = scaled(apts) if mu.atoms else None
        worst = 0.0
        for _, fn in fns:
            phi = np.asarray(fn(z), dtype=float)
            val = float(np.sum(resid * phi))
            scale = float(np.max(np.abs(phi))) if phi.size else 0.0
            if mu.atoms:
                phi_atoms = np.asarray(fn(z_atoms), dtype=float)
                scale = max(scale, float(np.max(np.abs(phi_atoms))))
                val += float(np.sum(awts * (a_atoms + lam) * phi_atoms))
            worst = max(worst, abs(val) / (tv * max(1.0, scale)))
        reports.append(ResidualReport(worst, worst * tv, tv, grid.size, "weak"))
    return reports


_QUANTITIES = ("lambda_p", "lambda1", "recip_integral", "residual")
_RESIDUAL_KINDS = ("pointwise", "weak")


def refinement_study(problem: Problem, levels: int, quantity: str, *,
                     solution: Callable[[Problem], tuple[DiscreteMeasure, float]] | None = None,
                     residual_kind: str = "pointwise") -> list[dict]:
    """Track a quantity across grid levels 0 .. levels-1.

    Level 0 is ``problem`` itself, and level k adds k to its grid's
    resolution and grading depth; an ungraded grid stays ungraded.  The
    residual quantity is measured on the fixed reference grid of level
    ``levels``, built as a grid alone (no problem is validated on it), and
    ``solution`` maps each level's problem to the
    (measure, eigenvalue) pair under test.  The reciprocal-gap integral is
    summed on each level's own graded grid, toward its grading targets and
    down to its grading depth, which must be at least 4.

    Each row reports value, difference to the previous level, and the decay
    ratio |previous difference| / |difference| (residuals: the values
    themselves take the place of differences).

    lambda1 is a residual-converged value with a certified interval, and
    lambda_p the lower end of ``estimate_lambda_p``'s bracket, about 1e-12
    wide, so the deltas and ratios measure the grids, not a stopping rule.

    A detected argmax set is found and refined on level 0 only: the
    lambda1 study and a ``solution`` that classifies its problem reuse it
    on every finer level whose near-maximal clusters match it in count and
    kind.  A ``radial_power`` set is taken in closed form on every level.
    """
    if quantity not in _QUANTITIES:
        raise ConfigurationError(
            f"unknown study quantity {quantity!r}; pick one of {_QUANTITIES}"
        )
    if levels < 2:
        raise ConfigurationError(f"a study needs at least 2 levels, got {levels}")
    if quantity == "residual" and solution is None:
        raise ConfigurationError("the residual study needs a solution builder")
    if residual_kind not in _RESIDUAL_KINDS:
        raise ConfigurationError(f"unknown residual kind {residual_kind!r}")

    ref_grid = None
    if quantity == "residual":
        ref_grid = _refined_grid(problem.grid, levels)

    rows: list[dict] = []
    prev_value = None
    prev_delta = None
    for level in range(levels):
        prob = _refined(problem, level)
        if quantity == "lambda_p":
            value = estimate_lambda_p(prob).value
        elif quantity == "lambda1":
            gap = _gap(prob, _argmax_set(prob).sup_value)
            value = _ktilde_pair(_kernel_operator(prob), gap)[0].value
        elif quantity == "recip_integral":
            res = _recip_integrability(prob.coeff, prob.grid)
            value = res.value if res.status == "integrable" else None
        else:
            mu, lam = solution(prob)
            residual = pointwise_residual if residual_kind == "pointwise" else weak_residual
            value = residual(prob, mu, lam, eval_grid=ref_grid).value

        if quantity == "residual":
            delta = value
            ratio = (prev_value / value) if (
                prev_value is not None and value and value > 0
            ) else None
        else:
            delta = (value - prev_value) if (
                value is not None and prev_value is not None
            ) else None
            ratio = (abs(prev_delta) / abs(delta)) if (
                delta not in (None, 0.0) and prev_delta is not None
            ) else None
        rows.append({
            "level": level,
            "size": prob.grid.size,
            "value": value,
            "delta": delta,
            "ratio": ratio,
        })
        prev_value = value
        if quantity != "residual":
            prev_delta = delta
    return rows
