"""Operator assembly, Perron iteration, and regime classification.

One matrix matters, K W with entries K(x_i, x_j) w_j; both operators are
diagonal scalings of it.  The full operator A = K W + diag(a),

    (A u)_i = sum_j K(x_i, x_j) w_j u_j + a(x_i) u_i,

has the principal eigenvalue as minus its largest eigenvalue mu.  The
normalized operator Kt = K W diag(1 / (a0 - a)),

    (Kt u)_i = sum_j K(x_i, x_j) w_j u_j / (a0 - a(x_j)),    a0 = sup a,

has the spectral radius that decides among three regimes: above one, the
principal eigenfunction is a continuous function; at one, an L^1 density;
below one, only a measure with an atom on the argmax set of a solves the
problem.  K W is the only grid x grid kernel array: Kt is applied as
K W (u / (a0 - a)), and A is K W with a added to its diagonal in place.

Power iteration tracks the ratio interval [min_i (Av)_i / v_i,
max_i (Av)_i / v_i], which brackets the spectral radius of a nonnegative
irreducible matrix at every iterate.  When eigenvalue clustering stalls the
residual, the interval still narrows enough to certify the value, so the
iteration stops on whichever of the two criteria is reached first.

Below one, the full operator is never formed: with u the Perron vector
of the normalized operator, f = u / (a0 - a) is a positive test function
whose ratio interval for the full operator brackets -lambda_p at the cost
of one K W matvec, and each further matvec narrows it.

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

from .errors import (
    ClassificationUnstableError,
    ConfigurationError,
    InconsistencyError,
    IterationLimitError,
    SingularNodeError,
)
from .geometry import GradeSpec, Grid, build_grid
from .model import ArgmaxSet, Kernel, Problem, argmax_point, detect_argmax_set

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
    # the argmax set detected on the grid; None when the caller gave x0
    argmax: ArgmaxSet | None = None


def _kernel_slabs(kernel: Kernel, rows: np.ndarray, cols: np.ndarray,
                  op, out: np.ndarray) -> np.ndarray:
    """Fill out[s] = op(K(rows[s], cols)) over ``_BLOCK``-row slabs s, so no
    more than ``_BLOCK`` x len(cols) kernel values exist at once."""
    for start in range(0, rows.shape[0], _BLOCK):
        s = slice(start, min(start + _BLOCK, rows.shape[0]))
        out[s] = op(np.asarray(kernel.evaluate(rows[s], cols), dtype=float))
    return out


def _kernel_apply(kernel: Kernel, rows: np.ndarray, cols: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """K(rows, cols) @ x, one kernel slab at a time."""
    return _kernel_slabs(kernel, rows, cols, lambda block: block @ x,
                         np.empty(rows.shape[0]))


def _kernel_weights(problem: Problem) -> np.ndarray:
    """K W, entries K(x_i, x_j) w_j: the one grid x grid kernel array, of
    which every operator on the grid is a diagonal scaling."""
    grid = problem.grid
    n = grid.size
    entries = _kernel_slabs(problem.kernel, grid.nodes, grid.nodes,
                            lambda block: block * grid.weights, np.empty((n, n)))
    if float(entries.min()) < 0:
        raise ConfigurationError("Perron iteration needs a nonnegative kernel")
    return entries


def _gap(problem: Problem, a0: float) -> np.ndarray:
    """a0 - a on the grid, checked: a0 is sup a and no node is an argmax."""
    if a0 < problem.sup_a_grid - 1e-12 * (1.0 + abs(a0)):
        raise ConfigurationError(
            f"a(x0) = {a0} is below the grid maximum {problem.sup_a_grid}; "
            "x0 does not maximize the coefficient"
        )
    gap = a0 - problem.a_at_nodes
    if np.any(gap <= 0):
        bad = int(np.sum(gap <= 0))
        raise SingularNodeError(
            f"{bad} grid nodes touch the argmax set of the coefficient; "
            "grade the grid toward it"
        )
    return gap


def assemble_full(problem: Problem, shift: float | None = None) -> OperatorMatrix:
    """Dense matrix of the dispersal operator plus the coefficient.

    The diagonal shift (default: the sup norm of a on the grid) makes every
    entry nonnegative so Perron iteration applies; it is recorded and undone
    when eigenvalues are reported.
    """
    a = problem.a_at_nodes
    if shift is None:
        shift = float(np.max(np.abs(a)))
    if np.min(a + shift) < 0:
        raise ConfigurationError(
            f"shift {shift} leaves negative diagonal entries"
        )
    entries = _kernel_weights(problem)
    entries[np.diag_indices(a.size)] += a + shift
    return OperatorMatrix(entries, problem.grid, shift=shift)


def assemble_ktilde(problem: Problem, x0: tuple[float, ...],
                    a0: float | None = None) -> OperatorMatrix:
    """Matrix of the operator normalized by a0 - a(y), a0 = a(x0).

    Every node must keep a positive distance from the argmax set of a; build
    the grid with grading toward that set.  A given ``a0`` is used as is and
    x0 is only recorded.
    """
    if a0 is None:
        a0 = float(problem.coeff.evaluate(np.asarray(x0, dtype=float)[None, :])[0])
    gap = _gap(problem, a0)
    entries = _kernel_weights(problem)
    entries /= gap
    return OperatorMatrix(entries, problem.grid,
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


def _power(matvec, v0: np.ndarray, tol_resid: float, max_iter: int,
           value_tol: float | None = None, keep_history: bool = False) -> PerronPair:
    v = v0 / float(np.max(v0))
    history: list[tuple[float, float]] = []
    res = np.inf
    for it in range(1, max_iter + 1):
        w = matvec(v)
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


def perron(matrix: OperatorMatrix | np.ndarray, tol_power: float = 1e-10,
           max_iter: int = 100_000, value_tol: float | None = None,
           v0: np.ndarray | None = None, keep_history: bool = False) -> PerronPair:
    """Perron root and vector of a nonnegative matrix by power iteration.

    Stops when the eigen-residual reaches ``tol_power``, or, if ``value_tol``
    is given, as soon as the ratio interval is that narrow; the returned
    value is then the interval midpoint.
    """
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ConfigurationError("matrix must be square")
    if np.any(entries < 0):
        raise ConfigurationError("Perron iteration needs a nonnegative matrix")
    n = entries.shape[0]
    if v0 is None:
        v0 = np.ones(n)
    else:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (n,) or np.any(v0 < 0) or not np.any(v0 > 0):
            raise ConfigurationError("start vector must be nonnegative and nonzero")
    return _power(lambda v: entries @ v, v0, tol_power, int(max_iter), value_tol,
                  keep_history)


def _ktilde_perron(kw: np.ndarray, gap: np.ndarray, value_tol: float,
                   tol_power: float = 1e-10, max_iter: int = 100_000) -> PerronPair:
    """``perron`` on Kt = K W diag(1 / gap), applied as v -> K W (v / gap)."""
    return _power(lambda v: kw @ (v / gap), np.ones(gap.size), tol_power,
                  max_iter, value_tol)


def _full_pair(problem: Problem, entries: np.ndarray, tol_power: float,
               max_iter: int) -> tuple[LambdaPEstimate, PerronPair]:
    """lambda_p and the residual-converged top eigenpair of the full
    operator, formed in place from ``entries`` = K W.

    For a symmetric kernel, A = K W + diag(a + shift) is similar to the
    symmetric M = S A S^-1, S = diag(sqrt(w)), applied matrix-free.  Lanczos
    finds M's top eigenvector y; v = y / sqrt(w) is accepted under power
    iteration's own contract: strictly positive and, with lam = max A v,
    |A v - lam v|_inf / lam <= ``tol_power``, the ratio interval of v being
    the certificate.  Otherwise, and for other kernels, power iteration
    runs, warm-started from v when v is positive.
    """
    a = problem.a_at_nodes
    shift = float(np.max(np.abs(a)))
    n = a.size
    entries[np.diag_indices(n)] += a + shift

    def certified(pair: PerronPair) -> tuple[LambdaPEstimate, PerronPair]:
        lo, hi = pair.interval
        return LambdaPEstimate(shift - pair.value, (shift - hi, shift - lo),
                               pair.iterations + pair.lanczos_matvecs, n), pair

    if not problem.kernel.symmetric:
        return certified(_power(lambda v: entries @ v, np.ones(n), tol_power, max_iter))
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
                     v0=s,
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
            return certified(PerronPair(lam, v, 0, res,
                                        (float(np.min(ratios)), float(np.max(ratios))),
                                        "residual", lanczos_matvecs=matvecs))
    pair = _power(lambda v: entries @ v, np.ones(n) if v is None else v,
                  tol_power, max_iter)
    return certified(replace(pair, lanczos_matvecs=matvecs))


def _derive_problem(problem: Problem, resolution: int, depth: int) -> Problem:
    spec = None
    g = problem.grid
    if g.graded_toward is not None:
        spec = GradeSpec(targets=g.graded_toward, ratio=g.grade_ratio,
                         depth=max(1, depth))
    grid = build_grid(problem.domain, max(2, resolution), spec)
    return Problem(problem.domain, problem.kernel, problem.coeff, grid)


def estimate_lambda_p(problem: Problem, tol_power: float = 1e-10,
                      max_iter: int = 100_000) -> LambdaPEstimate:
    """The generalized principal eigenvalue on the problem's grid.

    It is minus the largest eigenvalue of the full operator, converged to
    the ``tol_power`` residual (by Lanczos where the kernel is symmetric);
    the interval is certified by the ratio bounds of the returned vector.
    """
    return _full_pair(problem, _kernel_weights(problem), tol_power, max_iter)[0]


def _atom_bracket(kw: np.ndarray, u: np.ndarray, a: np.ndarray, gap: np.ndarray,
                  width_tol: float, max_iter: int) -> tuple[float, float, int]:
    """Collatz-Wielandt bracket (lo, hi, steps) on the full operator's
    largest eigenvalue mu (unshifted), starting from the test function
    f = u / gap, u > 0, gap = a0 - a.

    A g = K W g + a g, so each step costs one K W matvec.  The largest
    diagonal entry (K W)_ii + a_i of A is a lower bound from the start.
    While the bracket is wider than ``width_tol`` the next test function is
    (A g - a g) / (hi - a), positive because hi >= mu > max a.  The test
    function that gave ``hi`` is a positive supersolution at lambda = -hi.
    """
    lo = float(np.max(np.diagonal(kw) + a))
    hi = np.inf
    g = u / gap
    for step in range(1, max_iter + 1):
        h = kw @ g
        ratios = h / g + a
        lo = max(lo, float(np.min(ratios)))
        hi = min(hi, float(np.max(ratios)))
        if hi - lo <= width_tol:
            break
        g = h / (hi - a)
    return lo, hi, step


def _regime(lam1: float, tol_classify: float) -> str:
    if lam1 > 1.0 + tol_classify:
        return "continuous"
    if lam1 >= 1.0 - tol_classify:
        return "l1"
    return "singular"


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
    vector, one K W matvec per step until it is no wider than
    ``tol_classify / 10`` (on a graded grid usually after the first);
    lambda_p is its lower end, the value at which the test function is a
    positive supersolution.  Continuous: the residual-converged top
    eigenpair of the full operator (Lanczos for a symmetric kernel, power
    iteration otherwise), whose ratio interval is the bracket.
    Threshold: -a0 itself, where the discrete spectrum clusters; no
    bracket is claimed (``lambda_p_interval`` is None).

    Without ``x0``, the argmax set of a is detected on the grid at
    ``tol_maxset``, x0 is its ``argmax_point``, and the set is reported as
    ``argmax``.
    """
    return _classify(problem, x0, tol_classify, tol_power, max_iter,
                     tol_maxset, confirm)[0]


def _classify(problem: Problem, x0: tuple[float, ...] | None = None,
              tol_classify: float = 1e-3, tol_power: float = 1e-10,
              max_iter: int = 100_000, tol_maxset: float = 1e-8,
              confirm: bool = True) -> tuple[RegimeReport, np.ndarray | None]:
    """``classify_regime``'s report and the problem grid's K W for a solve to
    reuse (None once it is the full operator).  The coarse grid's K W is
    freed before the fine one is built, so the two never coexist."""
    amax = None
    if x0 is None:
        amax = detect_argmax_set(problem.coeff, problem.grid, tol_maxset)
        x0, a0 = argmax_point(amax, problem.domain), amax.sup_value
    else:
        a0 = float(problem.coeff.evaluate(np.asarray(x0, dtype=float)[None, :])[0])
    gap = _gap(problem, a0)
    value_tol = tol_classify / 10.0
    coarse_lam1 = coarse_size = None
    if confirm:
        g = problem.grid
        coarse = _derive_problem(problem, g.resolution - 1,
                                 max(1, g.grade_depth - 1))
        gap_c = _gap(coarse, a0)
        pair_c = _ktilde_perron(_kernel_weights(coarse), gap_c, value_tol,
                                tol_power, max_iter)
        coarse_lam1, coarse_size = pair_c.value, coarse.grid.size
    kw = _kernel_weights(problem)
    pair = _ktilde_perron(kw, gap, value_tol, tol_power, max_iter)
    regime = _regime(pair.value, tol_classify)
    runs = [_fmt_run("ktilde", pair)]
    if confirm:
        runs.append(_fmt_run("ktilde-coarse", pair_c))
        regime_c = _regime(coarse_lam1, tol_classify)
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
        mu_lo, mu_hi, steps = _atom_bracket(kw, pair.vector, problem.a_at_nodes,
                                            gap, value_tol, max_iter)
        runs.append(f"bracket matvecs={steps}")
        lambda_p = -mu_hi
        interval = (-mu_hi, -mu_lo)
        if mu_hi > a0 + slack:
            raise InconsistencyError(
                f"normalized radius {pair.value:.6f} is below one but the "
                f"principal eigenvalue estimate {lambda_p:.6f} sits below {-a0:.6f}"
            )
    elif regime == "continuous":
        est, fpair = _full_pair(problem, kw, tol_power, max_iter)
        kw = None
        runs.append(_fmt_run("full", fpair))
        lambda_p, interval = est.value, est.interval
        if -lambda_p < a0 - slack:
            raise InconsistencyError(
                f"normalized radius {pair.value:.6f} exceeds one but the "
                f"principal eigenvalue estimate {lambda_p:.6f} sits above {-a0:.6f}"
            )
        density = fpair.vector
        norm = "max"
    else:
        lambda_p = -a0
        psi = pair.vector / gap
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
        argmax=amax,
    ), kw
