"""Residual checks and refinement studies.

Constructed solutions satisfy their discrete equations exactly, so residuals
evaluated on the construction grid are roundoff and prove nothing.  Honest
verification re-evaluates the solution on a finer grid through its density
model and measures the equation there; refinement studies track how that
error decays as the construction grid is refined against a fixed reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InvalidEigenpairError
from .geometry import Grid
from .measure import DiscreteMeasure, _atom_arrays, kernel_moment
from .model import Problem, check_recip_integrability, detect_argmax_set
from .spectral import _gap, _kernel_weights, _ktilde_perron, estimate_lambda_p

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


def _check_atom_eigenvalue(problem: Problem, mu: DiscreteMeasure, lam: float,
                           tol_atom: float) -> None:
    if not mu.atoms:
        return
    pts, _ = _atom_arrays(mu.atoms)
    a_atoms = np.asarray(problem.coeff.evaluate(pts), dtype=float)
    off = np.max(np.abs(a_atoms + lam))
    if off > tol_atom * max(1.0, abs(lam)):
        raise InvalidEigenpairError(
            f"an atomic eigensolution requires lambda = -a at every atom; "
            f"offset is {off:.3e}"
        )


def _density_on(mu: DiscreteMeasure, grid: Grid) -> np.ndarray:
    if mu.density_values is None:
        return np.zeros(grid.size)
    if mu.grid is not None and mu.grid.same_nodes(grid):
        return np.asarray(mu.density_values, dtype=float)
    if mu.density_model is None:
        raise ConfigurationError(
            "measure has no density model; it can only be evaluated on its own grid"
        )
    return np.asarray(mu.density_model.density_at(grid.nodes), dtype=float)


def _moment_on(problem: Problem, mu: DiscreteMeasure,
               grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The density of mu on ``grid`` and the kernel moment of mu at its
    nodes, the density part quadratured on ``grid`` itself."""
    f = _density_on(mu, grid)
    if mu.density_values is not None and grid is not mu.grid:
        mu = DiscreteMeasure(atoms=mu.atoms, grid=grid, density_values=f,
                             signed=mu.signed)
    return f, kernel_moment(problem, mu, grid.nodes)


def pointwise_residual(problem: Problem, mu: DiscreteMeasure, lam: float,
                       eval_grid: Grid | None = None,
                       tol_atom: float = 1e-6) -> ResidualReport:
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
    return _verify(problem, mu, lam, grid, ("pointwise",), tol_atom=tol_atom)[0]


def default_test_functions(grid: Grid) -> list[tuple[str, Callable[[np.ndarray], np.ndarray]]]:
    """Polynomials to degree two plus a cosine bump, scaled to the grid box."""
    lo = grid.nodes.min(axis=0)
    hi = grid.nodes.max(axis=0)
    c = 0.5 * (lo + hi)
    span = np.maximum(hi - lo, 1e-30)

    def scaled(pts: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts) - c) / span

    dim = grid.nodes.shape[1]
    fns: list[tuple[str, Callable[[np.ndarray], np.ndarray]]] = [
        ("one", lambda pts: np.ones(np.atleast_2d(pts).shape[0]))
    ]
    for i in range(dim):
        fns.append((f"lin{i}", lambda pts, i=i: scaled(pts)[:, i]))
    for i in range(dim):
        for j in range(i, dim):
            fns.append(
                (f"quad{i}{j}",
                 lambda pts, i=i, j=j: scaled(pts)[:, i] * scaled(pts)[:, j])
            )
    fns.append(
        ("cosprod",
         lambda pts: np.prod(np.cos(math.pi * scaled(pts)), axis=1))
    )
    return fns


def weak_residual(problem: Problem, mu: DiscreteMeasure, lam: float,
                  eval_grid: Grid | None = None,
                  test_functions=None) -> ResidualReport:
    """Worst tested-against-functions residual, relative to total variation.

    Pairs the measure with L phi + lambda phi for each test function phi,
    quadratures on ``eval_grid`` (default: the problem grid).  Normalization
    by total variation keeps the report linear in the measure, including for
    signed combinations with zero net mass.

    The kernel term is summed in the other order (discrete Fubini):
    sum_y m_y sum_x w_x phi_x K(x, y) = sum_x w_x phi_x (K mu)(x), with m the
    masses of the atoms and of the density on the eval grid.  So one kernel
    moment of mu serves every test function, and K need not be symmetric.
    """
    grid = eval_grid if eval_grid is not None else problem.grid
    return _verify(problem, mu, lam, grid, ("weak",),
                   test_functions=test_functions)[0]


def _verify(problem: Problem, mu: DiscreteMeasure, lam: float, grid: Grid,
            kinds: tuple[str, ...], tol_atom: float = 1e-6,
            test_functions=None) -> list[ResidualReport]:
    """The residual reports of ``kinds`` ("pointwise", "weak", in that
    order) on ``grid``, all from one kernel moment of mu."""
    if "pointwise" in kinds:
        _check_atom_eigenvalue(problem, mu, lam, tol_atom)
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
        fns = test_functions if test_functions is not None else default_test_functions(grid)
        resid = grid.weights * eq
        if mu.atoms:
            apts, awts = _atom_arrays(mu.atoms)
            a_atoms = np.asarray(problem.coeff.evaluate(apts), dtype=float)
        worst = 0.0
        for _, fn in fns:
            phi = np.asarray(fn(grid.nodes), dtype=float)
            val = float(np.sum(resid * phi))
            scale = float(np.max(np.abs(phi))) if phi.size else 0.0
            if mu.atoms:
                phi_atoms = np.asarray(fn(apts), dtype=float)
                scale = max(scale, float(np.max(np.abs(phi_atoms))))
                val += float(np.sum(awts * (a_atoms + lam) * phi_atoms))
            worst = max(worst, abs(val) / (tv * max(1.0, scale)))
        reports.append(ResidualReport(worst, worst * tv, tv, grid.size, "weak"))
    return reports


_QUANTITIES = ("lambda_p", "lambda1", "recip_integral", "residual")


def refinement_study(problem_factory: Callable[[int], Problem], levels: int,
                     quantity: str, *,
                     solution: Callable[[Problem], tuple[DiscreteMeasure, float]] | None = None,
                     residual_kind: str = "pointwise",
                     value_tol: float = 1e-4,
                     tol_maxset: float = 1e-8) -> list[dict]:
    """Track a quantity across grid levels 0 .. levels-1.

    ``problem_factory(level)`` must return successively finer problems; for
    the residual quantity it is also called with ``levels`` itself to build
    the fixed reference grid, and ``solution`` maps each problem to the
    (measure, eigenvalue) pair under test.

    Each row reports value, difference to the previous level, and the decay
    ratio |previous difference| / |difference| (residuals: the values
    themselves take the place of differences).

    ``value_tol`` is the width of the ratio interval that stops the lambda1
    study's Perron runs.  lambda_p is the residual-converged value of
    ``estimate_lambda_p``: a midpoint of a wide interval would make the
    deltas and ratios measure the stopping rule.
    """
    if quantity not in _QUANTITIES:
        raise ConfigurationError(
            f"unknown study quantity {quantity!r}; pick one of {_QUANTITIES}"
        )
    if levels < 2:
        raise ConfigurationError(f"a study needs at least 2 levels, got {levels}")
    if quantity == "residual" and solution is None:
        raise ConfigurationError("the residual study needs a solution builder")

    ref_grid = None
    if quantity == "residual":
        ref_grid = problem_factory(levels).grid

    rows: list[dict] = []
    prev_value = None
    prev_delta = None
    for level in range(levels):
        prob = problem_factory(level)
        if quantity == "lambda_p":
            value = estimate_lambda_p(prob).value
        elif quantity == "lambda1":
            amax = detect_argmax_set(prob.coeff, prob.grid, tol_maxset)
            gap = _gap(prob, amax.sup_value)
            value = _ktilde_perron(_kernel_weights(prob), gap, value_tol / 10.0).value
        elif quantity == "recip_integral":
            g = prob.grid
            res = check_recip_integrability(
                prob.coeff, prob.domain, depth=max(4, g.grade_depth),
                resolution=g.resolution, ratio=g.grade_ratio,
                tol_maxset=tol_maxset,
            )
            value = res.value if res.status == "integrable" else None
        else:
            mu, lam = solution(prob)
            if residual_kind == "pointwise":
                value = pointwise_residual(prob, mu, lam, eval_grid=ref_grid).value
            elif residual_kind == "weak":
                value = weak_residual(prob, mu, lam, eval_grid=ref_grid).value
            else:
                raise ConfigurationError(
                    f"unknown residual kind {residual_kind!r}"
                )

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
