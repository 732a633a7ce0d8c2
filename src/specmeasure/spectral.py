"""Operator assembly, Perron iteration, and regime classification.

Two matrices matter.  The full operator

    (A u)_i = sum_j K(x_i, x_j) w_j u_j + a(x_i) u_i

whose largest eigenvalue mu gives the principal eigenvalue as -mu, and the
normalized operator

    (Kt u)_i = sum_j K(x_i, x_j) w_j u_j / (a0 - a(x_j)),    a0 = sup a,

whose spectral radius decides among three regimes: above one, the principal
eigenfunction is a continuous function; at one, an L^1 density; below one,
only a measure with an atom on the argmax set of a solves the problem.

Power iteration tracks the ratio interval [min_i (Av)_i / v_i,
max_i (Av)_i / v_i], which brackets the spectral radius of a nonnegative
irreducible matrix at every iterate.  When eigenvalue clustering stalls the
residual, the interval still narrows enough to certify the value, so the
iteration stops on whichever of the two criteria is reached first.

Below one, the full operator is never assembled: with u the Perron vector
of the normalized operator, f = u / (a0 - a) is a positive test function
whose ratio interval for the full operator brackets -lambda_p at the cost
of one normalized-operator matvec, and each further matvec narrows it.

Above one, a symmetric kernel makes the full operator similar to a
symmetric matrix, so Lanczos finds its top eigenpair in a few dozen
matvecs where power iteration needs about a thousand; the returned vector
is certified on the full operator by the same residual and ratio interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
from scipy.spatial import cKDTree

from .errors import (
    ClassificationUnstableError,
    ConfigurationError,
    InconsistencyError,
    IterationLimitError,
    SingularNodeError,
)
from .geometry import GradeSpec, Grid, build_grid
from .model import Kernel, Problem, argmax_point, detect_argmax_set

log = logging.getLogger(__name__)

__all__ = [
    "OperatorMatrix",
    "PerronPair",
    "LambdaPEstimate",
    "RegimeReport",
    "assemble_full",
    "assemble_ktilde",
    "perron",
    "collatz_wielandt_bounds",
    "estimate_lambda_p",
    "classify_regime",
]

_BLOCK = 512


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    kind: str                    # "full" | "ktilde"
    grid: Grid
    shift: float = 0.0           # added to the diagonal of the full operator
    x0: tuple[float, ...] | None = None
    a0: float | None = None

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class PerronPair:
    value: float
    vector: np.ndarray           # max-normalized, strictly positive
    iterations: int
    residual: float
    interval: tuple[float, float]
    stopped_by: str              # "residual" | "interval"
    bounds_history: tuple[tuple[float, float], ...] | None = None
    # matvecs of a Lanczos run and its certification before ``iterations``
    # power steps; 0 when no Lanczos run was made
    lanczos_matvecs: int = 0


@dataclass(frozen=True)
class LambdaPEstimate:
    value: float
    interval: tuple[float, float]
    iterations: int
    grid_size: int
    level_values: tuple[float, ...]


@dataclass(frozen=True)
class RegimeReport:
    regime: str                  # "continuous" | "l1" | "singular"
    lambda1: float
    lambda1_interval: tuple[float, float]
    lambda_p: float
    lambda_p_interval: tuple[float, float] | None   # certified; None at "l1"
    sup_a: float
    x0: tuple[float, ...]
    a0: float
    eigen_density: np.ndarray | None
    density_norm: str | None     # "max" | "mass"
    confirmed: bool
    coarse_lambda1: float | None = None
    coarse_size: int | None = None


def _kernel_rows(problem: Problem, rows: np.ndarray) -> np.ndarray:
    return np.asarray(
        problem.kernel.evaluate(rows, problem.grid.nodes), dtype=float
    )


def _kernel_apply(kernel: Kernel, rows: np.ndarray, cols: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """K(rows, cols) @ x, evaluated in ``_BLOCK``-row slabs so no more than
    ``_BLOCK`` x len(cols) kernel values exist at once."""
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _BLOCK):
        stop = min(start + _BLOCK, rows.shape[0])
        out[start:stop] = np.asarray(
            kernel.evaluate(rows[start:stop], cols), dtype=float) @ x
    return out


def assemble_full(problem: Problem, shift: float | None = None) -> OperatorMatrix:
    """Dense matrix of the dispersal operator plus the coefficient.

    The diagonal shift (default: the sup norm of a on the grid) makes every
    entry nonnegative so Perron iteration applies; it is recorded and undone
    when eigenvalues are reported.
    """
    grid = problem.grid
    a = problem.a_at_nodes
    if shift is None:
        shift = float(np.max(np.abs(a)))
    if np.min(a + shift) < 0:
        raise ConfigurationError(
            f"shift {shift} leaves negative diagonal entries"
        )
    n = grid.size
    entries = np.empty((n, n))
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        entries[rows] = _kernel_rows(problem, grid.nodes[rows]) * grid.weights
    entries[np.diag_indices(n)] += a + shift
    return OperatorMatrix(entries, "full", grid, shift=shift)


def assemble_ktilde(problem: Problem, x0: tuple[float, ...],
                    a0: float | None = None) -> OperatorMatrix:
    """Matrix of the operator normalized by a0 - a(y), a0 = a(x0).

    Every node must keep a positive distance from the argmax set of a; build
    the grid with grading toward that set.  A given ``a0`` is used as is and
    x0 is only recorded.
    """
    grid = problem.grid
    x0_arr = np.asarray(x0, dtype=float)[None, :]
    if a0 is None:
        a0 = float(problem.coeff.evaluate(x0_arr)[0])
    a = problem.a_at_nodes
    denom = a0 - a
    if a0 < problem.sup_a_grid - 1e-12 * (1.0 + abs(a0)):
        raise ConfigurationError(
            f"a(x0) = {a0} is below the grid maximum {problem.sup_a_grid}; "
            "x0 does not maximize the coefficient"
        )
    if np.any(denom <= 0):
        bad = int(np.sum(denom <= 0))
        raise SingularNodeError(
            f"{bad} grid nodes touch the argmax set of the coefficient; "
            "grade the grid toward it"
        )
    n = grid.size
    entries = np.empty((n, n))
    col = grid.weights / denom
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        entries[rows] = _kernel_rows(problem, grid.nodes[rows]) * col
    return OperatorMatrix(entries, "ktilde", grid,
                          x0=tuple(float(v) for v in x0), a0=a0)


def collatz_wielandt_bounds(entries: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Ratio bounds on the spectral radius from one positive test vector."""
    w = entries @ v
    pos = v > 0
    if not np.any(pos):
        raise ConfigurationError("test vector must be nonnegative and nonzero")
    lo = float(np.min(w[pos] / v[pos]))
    hi = float(np.max(w[pos] / v[pos])) if bool(np.all(pos)) else np.inf
    return lo, hi


def _power(entries: np.ndarray, v0: np.ndarray, tol_resid: float,
           max_iter: int, value_tol: float | None = None,
           keep_history: bool = False) -> PerronPair:
    v = v0 / float(np.max(v0))
    history: list[tuple[float, float]] = []
    res = np.inf
    for it in range(1, max_iter + 1):
        w = entries @ v
        lam = float(np.max(w))
        if lam <= 0:
            raise ConfigurationError("iteration collapsed; matrix has no positive cycle")
        pos = v > 0
        ratios = w[pos] / v[pos]
        lo = float(np.min(ratios))
        hi = float(np.max(ratios)) if bool(np.all(pos)) else np.inf
        if keep_history:
            history.append((lo, hi))
        res = float(np.max(np.abs(w - lam * v))) / lam
        v = w / lam
        if res <= tol_resid:
            return PerronPair(lam, v, it, res, (lo, hi), "residual",
                              tuple(history) if keep_history else None)
        if value_tol is not None and hi - lo <= value_tol:
            return PerronPair(0.5 * (lo + hi), v, it, res, (lo, hi), "interval",
                              tuple(history) if keep_history else None)
    raise IterationLimitError(
        f"no convergence in {max_iter} iterations (residual {res:.3e})",
        residual=res,
    )


def _nonnegative_entries(matrix: OperatorMatrix | np.ndarray) -> np.ndarray:
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ConfigurationError("matrix must be square")
    if np.any(entries < 0):
        raise ConfigurationError("Perron iteration needs a nonnegative matrix")
    return entries


def perron(matrix: OperatorMatrix | np.ndarray, tol_power: float = 1e-10,
           max_iter: int = 100_000, value_tol: float | None = None,
           v0: np.ndarray | None = None, keep_history: bool = False) -> PerronPair:
    """Perron root and vector of a nonnegative matrix by power iteration.

    Stops when the eigen-residual reaches ``tol_power``, or, if ``value_tol``
    is given, as soon as the ratio interval is that narrow; the returned
    value is then the interval midpoint.
    """
    entries = _nonnegative_entries(matrix)
    n = entries.shape[0]
    if v0 is None:
        v0 = np.ones(n)
    else:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (n,) or np.any(v0 < 0) or not np.any(v0 > 0):
            raise ConfigurationError("start vector must be nonnegative and nonzero")
    return _power(entries, v0, tol_power, int(max_iter), value_tol, keep_history)


def _full_pair(problem: Problem, tol_power: float, max_iter: int,
               v0: np.ndarray | None = None) -> tuple[OperatorMatrix, PerronPair]:
    """Full operator and its residual-converged top eigenpair.

    For a symmetric kernel, A = K W + diag(a + shift) is similar to the
    symmetric M = S A S^-1, S = diag(sqrt(w)), applied matrix-free.  Lanczos
    finds M's top eigenvector y; v = y / sqrt(w) is accepted under power
    iteration's own contract: strictly positive and, with lam = max A v,
    |A v - lam v|_inf / lam <= ``tol_power``, the ratio interval of v being
    the certificate.  Otherwise, and for other kernels, power iteration
    runs, warm-started from v when v is positive.  ``v0`` starts either run.
    """
    full = assemble_full(problem)
    if not problem.kernel.symmetric:
        return full, perron(full, tol_power=tol_power, max_iter=max_iter, v0=v0)
    entries = _nonnegative_entries(full)
    n = entries.shape[0]
    s = np.sqrt(problem.grid.weights)
    matvecs = 0

    def sym_matvec(y: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return s * (entries @ (np.ravel(y) / s))

    ncv = min(n, 20)
    try:
        # a fixed start keeps reruns byte-identical; ARPACK's own is random
        _, y = eigsh(LinearOperator((n, n), matvec=sym_matvec, dtype=float),
                     k=1, which="LA", tol=0.0, ncv=ncv,
                     v0=s if v0 is None else s * v0,
                     maxiter=max(1, max_iter // ncv))
    except ArpackError:
        v = None
    else:
        v = y[:, 0] / s
        v = v / v[np.argmax(np.abs(v))]
        if not bool(np.all(v > 0)):
            v = None
    if v is not None:
        matvecs += 1
        w = entries @ v
        lam = float(np.max(w))
        res = float(np.max(np.abs(w - lam * v))) / lam
        if res <= tol_power:
            ratios = w / v
            return full, PerronPair(lam, v, 0, res,
                                    (float(np.min(ratios)), float(np.max(ratios))),
                                    "residual", lanczos_matvecs=matvecs)
    pair = perron(full, tol_power=tol_power, max_iter=max_iter, v0=v)
    return full, replace(pair, lanczos_matvecs=matvecs)


def _derive_problem(problem: Problem, resolution: int, depth: int) -> Problem:
    spec = None
    g = problem.grid
    if g.graded_toward is not None:
        spec = GradeSpec(targets=g.graded_toward, ratio=g.grade_ratio,
                         depth=max(1, depth))
    grid = build_grid(problem.domain, max(2, resolution), spec)
    return Problem(problem.domain, problem.kernel, problem.coeff, grid)


def _transfer(values: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    _, idx = cKDTree(src.nodes).query(dst.nodes)
    return values[idx]


def estimate_lambda_p(problem: Problem, levels: int = 3,
                      tol_power: float = 1e-10, max_iter: int = 100_000,
                      value_tol: float | None = 1e-4) -> LambdaPEstimate:
    """Estimate the generalized principal eigenvalue on the problem's grid.

    Runs a short coarse-to-fine chain of grids, transferring the Perron
    vector forward as a warm start.  The estimate is minus the largest
    eigenvalue of the full operator; the interval is certified by the ratio
    bounds at the final iterate.  Power iteration stops as soon as the
    ratio interval is ``value_tol`` narrow; with ``value_tol`` None each
    level is instead converged to the ``tol_power`` residual, by Lanczos
    where the kernel is symmetric.
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    g = problem.grid
    chain: list[Problem] = []
    seen = set()
    for j in range(levels - 1, 0, -1):
        res = max(2, g.resolution - 2 * j)
        dep = max(1, g.grade_depth - j)
        if (res, dep) not in seen and (res, dep) != (g.resolution, g.grade_depth):
            seen.add((res, dep))
            chain.append(_derive_problem(problem, res, dep))
    chain.append(problem)

    v = None
    total_iters = 0
    per_level = []
    pair = None
    for k, prob in enumerate(chain):
        v0 = None if v is None else _transfer(v, chain[k - 1].grid, prob.grid)
        if value_tol is None:
            matrix, pair = _full_pair(prob, tol_power, max_iter, v0)
        else:
            matrix = assemble_full(prob)
            pair = perron(matrix, tol_power=tol_power, max_iter=max_iter,
                          value_tol=value_tol, v0=v0)
        total_iters += pair.iterations + pair.lanczos_matvecs
        per_level.append(matrix.shift - pair.value)
        v = pair.vector
    lo, hi = pair.interval
    shift = matrix.shift
    return LambdaPEstimate(
        value=shift - pair.value,
        interval=(shift - hi, shift - lo),
        iterations=total_iters,
        grid_size=problem.grid.size,
        level_values=tuple(per_level),
    )


def _atom_bracket(kt: OperatorMatrix, u: np.ndarray, a: np.ndarray,
                  width_tol: float, max_iter: int) -> tuple[float, float, int]:
    """Collatz-Wielandt bracket (lo, hi, steps) on the full operator's
    largest eigenvalue mu (unshifted), starting from the test function
    f = u / (a0 - a), u > 0.

    A g = Kt((a0 - a) g) + a g, so each step costs one Kt matvec; for f the
    ratios are (Kt u)_i (a0 - a_i) / u_i + a_i.  The largest diagonal entry
    a_i + Kt_ii (a0 - a_i) of A is a lower bound from the start.  While the
    bracket is wider than ``width_tol`` the next test function is
    (A g - a g) / (hi - a), positive because hi >= mu > max a.  The test
    function that gave ``hi`` is a positive supersolution at lambda = -hi.
    """
    gap = kt.a0 - a
    lo = float(np.max(np.diagonal(kt.entries) * gap + a))
    hi = np.inf
    g = u / gap
    for step in range(1, max_iter + 1):
        h = kt.entries @ (gap * g)
        ratios = h / g + a
        lo = max(lo, float(np.min(ratios)))
        hi = min(hi, float(np.max(ratios)))
        if hi - lo <= width_tol:
            break
        g = h / (hi - a)
    return lo, hi, step


def _classify_once(problem: Problem, x0: tuple[float, ...] | None,
                   tol_classify: float, tol_power: float, max_iter: int,
                   tol_maxset: float, certify: bool
                   ) -> tuple[str, PerronPair, tuple[float, ...], float,
                              tuple[float, float, int] | None]:
    """Regime, Kt Perron pair, x0, a0, and with ``certify`` in the singular
    regime the bracket of ``_atom_bracket`` (None otherwise), computed while
    Kt is alive so it never coexists with the full operator."""
    a0 = None
    if x0 is None:
        amax = detect_argmax_set(problem.coeff, problem.grid, tol_maxset)
        x0, a0 = argmax_point(amax, problem.domain), amax.sup_value
    kt = assemble_ktilde(problem, x0, a0=a0)
    pair = perron(kt, tol_power=tol_power, max_iter=max_iter,
                  value_tol=tol_classify / 10.0)
    lam1 = pair.value
    bracket = None
    if lam1 > 1.0 + tol_classify:
        regime = "continuous"
    elif lam1 >= 1.0 - tol_classify:
        regime = "l1"
    else:
        regime = "singular"
        if certify:
            bracket = _atom_bracket(kt, pair.vector, problem.a_at_nodes,
                                    tol_classify / 10.0, max_iter)
    return regime, pair, kt.x0, kt.a0, bracket


def _fmt_run(name: str, pair: PerronPair) -> str:
    head = f"{name} n={pair.vector.size}"
    if pair.lanczos_matvecs:
        head += f" lanczos matvecs={pair.lanczos_matvecs}"
        if pair.iterations == 0:
            return f"{head} residual={pair.residual:.3g}"
        head += " fallback=power"
    return (f"{head} iterations={pair.iterations} "
            f"stopped_by={pair.stopped_by}")


def classify_regime(problem: Problem, x0: tuple[float, ...] | None = None,
                    tol_classify: float = 1e-3, tol_power: float = 1e-10,
                    max_iter: int = 100_000, tol_maxset: float = 1e-8,
                    confirm: bool = True) -> RegimeReport:
    """Decide which kind of principal eigenfunction the problem admits.

    The spectral radius of the normalized operator is compared against one
    at tolerance ``tol_classify``.  With ``confirm`` the label must agree
    with a one-step-coarser grid, otherwise the classification is reported
    unstable rather than silently trusted.

    lambda_p is certified per regime.  Singular: the Collatz-Wielandt
    bracket of the full operator from f = u / (a0 - a), u the Kt Perron
    vector, one Kt matvec per step until it is no wider than
    ``tol_classify / 10`` (on a graded grid usually after the first);
    lambda_p is its lower end, the value at which the test function is a
    positive supersolution.  Continuous: the residual-converged top
    eigenpair of the full operator (Lanczos for a symmetric kernel, power
    iteration otherwise), whose ratio interval is the bracket.
    Threshold: -a0 itself, where the discrete spectrum clusters; no
    bracket is claimed (``lambda_p_interval`` is None).
    """
    regime, pair, x0, a0, bracket = _classify_once(
        problem, x0, tol_classify, tol_power, max_iter, tol_maxset, True)
    runs = [_fmt_run("ktilde", pair)]
    coarse_lam1 = None
    coarse_size = None
    if confirm:
        g = problem.grid
        coarse = _derive_problem(problem, g.resolution - 1,
                                 max(1, g.grade_depth - 1))
        regime_c, pair_c, _, _, _ = _classify_once(
            coarse, x0, tol_classify, tol_power, max_iter, tol_maxset, False)
        runs.append(_fmt_run("ktilde-coarse", pair_c))
        coarse_lam1 = pair_c.value
        coarse_size = coarse.grid.size
        if regime_c != regime:
            raise ClassificationUnstableError(
                f"regime flips between grids: {regime_c} at resolution "
                f"{coarse.grid.resolution} vs {regime} at {g.resolution} "
                f"(lambda1 {coarse_lam1:.6f} vs {pair.value:.6f})"
            )

    slack = 10.0 * tol_classify * max(1.0, abs(a0))
    density = None
    norm = None
    interval = None
    if regime == "singular":
        mu_lo, mu_hi, steps = bracket
        runs.append(f"bracket matvecs={steps}")
        lambda_p = -mu_hi
        interval = (-mu_hi, -mu_lo)
        if mu_hi > a0 + slack:
            raise InconsistencyError(
                f"normalized radius {pair.value:.6f} is below one but the "
                f"principal eigenvalue estimate {lambda_p:.6f} sits below {-a0:.6f}"
            )
    elif regime == "continuous":
        full, fpair = _full_pair(problem, tol_power, max_iter)
        runs.append(_fmt_run("full", fpair))
        lo, hi = fpair.interval
        lambda_p = full.shift - fpair.value
        interval = (full.shift - hi, full.shift - lo)
        if -lambda_p < a0 - slack:
            raise InconsistencyError(
                f"normalized radius {pair.value:.6f} exceeds one but the "
                f"principal eigenvalue estimate {lambda_p:.6f} sits above {-a0:.6f}"
            )
        density = fpair.vector
        norm = "max"
    else:
        lambda_p = -a0
        psi = pair.vector / (a0 - problem.a_at_nodes)
        mass = float(np.sum(problem.grid.weights * psi))
        density = psi / mass
        norm = "mass"

    lo1, hi1 = pair.interval
    if interval is None:
        certificate = "threshold value, no bracket"
    else:
        certificate = (f"in [{interval[0]:.12g}, {interval[1]:.12g}] "
                       f"width {interval[1] - interval[0]:.3g}")
    log.info("classify_regime: regime=%s n=%d lambda1=%.12g in [%.12g, %.12g] "
             "lambda_p=%.12g %s; perron: %s", regime, problem.grid.size,
             pair.value, lo1, hi1, lambda_p, certificate, "; ".join(runs))

    return RegimeReport(
        regime=regime,
        lambda1=pair.value,
        lambda1_interval=pair.interval,
        lambda_p=lambda_p,
        lambda_p_interval=interval,
        sup_a=a0,
        x0=tuple(float(v) for v in x0),
        a0=a0,
        eigen_density=density,
        density_norm=norm,
        confirmed=confirm,
        coarse_lambda1=coarse_lam1,
        coarse_size=coarse_size,
    )
