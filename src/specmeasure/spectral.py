"""Operator assembly, Perron iteration, and regime classification.

One operator matters, K W with entries K(x_i, x_j) w_j; both operators
are diagonal scalings of it.  The full operator A = K W + diag(a),

    (A u)_i = sum_j K(x_i, x_j) w_j u_j + a(x_i) u_i,

has the principal eigenvalue as minus its largest eigenvalue mu.  The
normalized operator Kt = K W diag(1 / (a0 - a)),

    (Kt u)_i = sum_j K(x_i, x_j) w_j u_j / (a0 - a(x_j)),    a0 = sup a,

has the spectral radius that decides among three regimes: above one, the
principal eigenfunction is a continuous function; at one, an L^1 density;
below one, only a measure with an atom on the argmax set of a solves the
problem.  K W is the only grid x grid kernel operator: Kt is applied as
K W (u / (a0 - a)), and A as K W u + a u.

A kernel that is a positive-definite function of x - y (the constant and
Gaussian families) gives a positive semidefinite K, so K W is applied as
L (L^T (w u)) with L a pivoted-Cholesky factor of rank r (Harbrecht,
Peters and Schneider 2012): one for the constant kernel, a few hundred for
a Gaussian, whatever the grid size.  Its remainder E = K - L L^T is
positive semidefinite, so |(E W u)_i| <= sqrt(E_ii) sum_j sqrt(E_jj) w_j |u_j|,
an O(N) bound that widens every ratio interval below; it is zero for the
constant kernel.  The factor is stored as row blocks of L^T, a first block
of 64 rows and then blocks just below 4 MiB, so each matvec makes few BLAS
calls.  Its pivots come in panels of up to 8, chosen greedily among the
largest remainders; a panel's kernel rows are one kernel call, and the
stored factor is read once per panel, by gemm, not once per pivot.  The
greedy order is the one-row build's wherever rounding does not decide a
near-tie.  The fine grid's factor stops at remainder
1e-12 K(x, x); the coarse confirmation grid's, whose lambda1 only decides a
regime, at 1e-4 tol_classify.  Other kernels, and a factor that would need
more than 8 sqrt(N) rows, keep the dense N x N array.

Every top eigenpair comes from one route, whatever the kernel: restarted
Arnoldi (plain numpy: Gram-Schmidt twice, a fixed start, restarts from the
Ritz pair of largest real part until its residual reaches round-off) on the
similarity sqrt(b) K sqrt(b), b = w / (a0 - a), of Kt, which is symmetric
for a symmetric kernel; then one loop certifies it on Kt itself: power
iteration from that vector if it is strictly positive, else from ones, until
an iterate v meets the residual tolerance.  v's ratio interval
[min_i (Kt v)_i / v_i, max_i (Kt v)_i / v_i] brackets the spectral radius of
a nonnegative irreducible matrix for any positive v.  The public ``perron``
runs the same loop on a dense matrix.

The full operator is never formed.  Its top eigenvalue is the one mu > max a
at which the Perron root f(mu) of B(mu) = K W diag(1 / (mu - a)) is one
(Birman-Schwinger).  B(mu) is Kt with a0 - a replaced by mu - a, so B(a0) is
Kt; each solve's test function v / (mu - a) brackets -lambda_p at no extra
matvec, and safeguarded Newton on log f picks the next mu.  The Newton step
is taken in s = sqrt(mu - max a), because near a quadratic maximum of a in
3-D, f - f(max a) behaves like s and steps in mu creep.  The root stops at
its tolerance plus the floor 2 max_i err_i / phi_i that the factor's slack
err leaves around even an exact eigenvector phi.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as _model
from .errors import (
    ClassificationUnstableError,
    ConfigurationError,
    InconsistencyError,
    IterationLimitError,
    SingularNodeError,
)
from .model import ArgmaxSet, Kernel, Problem, _argmax_set, _refined, argmax_point

log = logging.getLogger(__name__)

__all__ = [
    "PerronPair",
    "LambdaPEstimate",
    "RegimeReport",
    "assemble_full",
    "assemble_ktilde",
    "perron",
    "estimate_lambda_p",
    "classify_regime",
]

_BLOCK = 512
# matvecs of a power loop, or of an Arnoldi run, before IterationLimitError:
# on narrow Gaussians (width 0.02-0.05) a loop that converged took at most
# 705 steps (a fourteenth of this cap) and an Arnoldi run 101 matvecs
_MAX_ITER = 10_000
# B(mu) solves the lambda_p root may run before IterationLimitError;
# bisection alone narrows a bracket by 2^-64
_ROOT_STEPS = 64
# a continuous lambda_p root stops at this width relative to max(1, |mu|)
_ROOT_RTOL = 1e-12
# Arnoldi basis size per restart cycle
_ARNOLDI_BASIS = 24
# by default classify_regime calls a lambda1 within this of one "l1"
_TOL_CLASSIFY = 1e-3
# the eigen-residual that ends every Kt and B(mu) solve; a converged Arnoldi
# vector meets it at the loop's first matvec, at round-off, so it moves no answer
_TOL_POWER = 1e-10
# a kernel factor stops once every remainder diagonal E_ii is this share of
# K(x, x): two decades below _TOL_POWER and measure._TOL_LINEAR, so the
# certificates it widens stay inside them
_FACTOR_RTOL = 1e-12
# the coarse confirmation grid only decides a regime at tol_classify, so its
# factor stops at this share of tol_classify (or at _FACTOR_RTOL if higher):
# its lambda1 interval stays two decades inside the decision tolerance
_COARSE_FACTOR_SHARE = 1e-4
# a kernel factor holds at most _FACTOR_CAP * sqrt(N) rows.  Building r
# rows takes about r^2 N multiply-adds, read from the factor once per panel,
# against N^2 kernel values for dense K W.  Measured on Gaussians with the
# panel build, a continuous classify at N = 1920-3600 runs two to three
# times faster on a factor of 8.7-10.8 sqrt(N) rows than dense, and a
# singular one at 12.6 sqrt(N) a fifth slower
_FACTOR_CAP = 8
# share of the way (in log) to the factor's tolerance that its remainder
# must have covered at half the cap; see _factor
_FACTOR_PACE = 0.4
# rows in the first block of a kernel factor, so a rank-one factor stays small
_FACTOR_BLOCK = 64
# every later block holds as many rows as fit below this size (but at least
# _FACTOR_BLOCK): each matvec makes one gemv per block, and a taller block
# pays the fixed cost of a BLAS call fewer times.  numpy asks for
# transparent huge pages from 4 MiB on, which would make a partly written
# block resident, so a block stays below that
_FACTOR_BLOCK_BYTES = 4 << 20
# pivots per panel: each of a panel's stored-block gemms reads the block
# once for all of them, and its kernel rows are one evaluate call; a taller
# panel holds more full rows in flight
_FACTOR_PANEL = 8
# a panel picks its pivots among the N / _FACTOR_CANDIDATES largest
# remainders, whose factor columns it gathers into one cache-sized array
_FACTOR_CANDIDATES = 32
# stored rows per gemm of a panel's reduction.  OpenBLAS packs 512 columns
# of every row a gemm reads, per thread, into a buffer that then stays
# resident: on the bench Gaussian (N = 3600, two threads) 145-row gemms
# raised the peak RSS by 0.9 MB over the one-row build, 32-row ones by
# 0.3-0.45 MB, at the same speed
_FACTOR_GEMM_ROWS = 32


@dataclass(frozen=True)
class PerronPair:
    value: float
    vector: np.ndarray           # max-normalized, strictly positive
    iterations: int
    residual: float
    interval: tuple[float, float]
    stopped_by: str              # "residual", the one stopping rule
    # matvecs of an Arnoldi run before the ``iterations`` of power iteration
    arnoldi_matvecs: int = 0
    start: str = "ones"          # the power loop's first vector: "arnoldi" | "ones"


@dataclass(frozen=True)
class LambdaPEstimate:
    value: float
    interval: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class RegimeReport:
    regime: str                  # "continuous" | "l1" | "singular"
    lambda1: float
    lambda1_interval: tuple[float, float]
    lambda_p: float
    lambda_p_interval: tuple[float, float] | None   # certified; None at "l1"
    sup_a: float
    x0: tuple[float, ...]
    eigen_density: np.ndarray | None
    argmax: ArgmaxSet            # detected on the grid; x0 is its argmax_point
    coarse_lambda1: float | None = None
    coarse_size: int | None = None

    @property
    def confirmed(self) -> bool:
        return self.coarse_lambda1 is not None

    @property
    def density_norm(self) -> str | None:    # "max" | "mass"
        return {"continuous": "max", "l1": "mass"}.get(self.regime)


def _kernel_slabs(kernel: Kernel, rows: np.ndarray, cols: np.ndarray,
                  op, out: np.ndarray) -> np.ndarray:
    """Call op(K(rows[s], cols), out[s]) over ``_BLOCK``-row slabs s, so no
    more than ``_BLOCK`` x len(cols) kernel values exist at once."""
    for start in range(0, rows.shape[0], _BLOCK):
        s = slice(start, min(start + _BLOCK, rows.shape[0]))
        op(np.asarray(kernel.evaluate(rows[s], cols), dtype=float), out[s])
    return out


def _kernel_apply(kernel: Kernel, rows: np.ndarray, cols: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """K(rows, cols) @ x: by the kernel's structured apply when it has one,
    else one kernel slab at a time."""
    if kernel.structured_apply is not None:
        return kernel.structured_apply(rows, cols, x)
    return _kernel_slabs(kernel, rows, cols,
                         lambda block, out: np.matmul(block, x, out=out),
                         np.empty(rows.shape[0]))


def _kernel_weights(problem: Problem) -> np.ndarray:
    """Dense K W, entries K(x_i, x_j) w_j, checked against physical memory
    before it is allocated; each kernel slab is scaled straight into it."""
    grid = problem.grid
    n = grid.size
    _model._check_dense(n)
    entries = _kernel_slabs(problem.kernel, grid.nodes, grid.nodes,
                            lambda block, out: np.multiply(block, grid.weights, out=out),
                            np.empty((n, n)))
    if float(entries.min()) < 0:
        raise ConfigurationError("Perron iteration needs a nonnegative kernel")
    return entries


@dataclass(frozen=True)
class KernelWeights:
    """K W on the grid nodes, applied with ``@``: a dense array, or
    K = L L^T + E with L the rank-r pivoted-Cholesky factor, stored as
    row blocks of L^T, and E the positive semidefinite remainder.

    ``diagonal`` is the exact (K W)_ii.  ``root_remainder`` holds
    sqrt(E_ii), or is None when the operator is exact.
    """

    weights: np.ndarray
    diagonal: np.ndarray
    dense: np.ndarray | None = None
    factor: tuple[np.ndarray, ...] = ()
    root_remainder: np.ndarray | None = None
    panels: int = 0              # pivot panels the factor was built in

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense @ v
        x = self.weights * v
        out = self.factor[0].T @ (self.factor[0] @ x)
        for rows in self.factor[1:]:
            out += rows.T @ (rows @ x)
        return out

    def slack(self, v: np.ndarray) -> np.ndarray | float:
        """A bound on |(K W v)_i - (self @ v)_i| = |(E W v)_i| at every node:
        E is positive semidefinite, so |E_ij| <= sqrt(E_ii E_jj)."""
        e = self.root_remainder
        if e is None:
            return 0.0
        return e * float((e * self.weights) @ np.abs(v))

    @property
    def rank(self) -> int:
        return sum(rows.shape[0] for rows in self.factor)

    def describe(self) -> str:
        if self.dense is not None:
            return "dense"
        bound = float(np.max(self.slack(np.ones(self.weights.size)), initial=0.0))
        return f"factor rank={self.rank} remainder={bound:.3g} panels={self.panels}"


def _kernel_operator(problem: Problem, rtol: float = _FACTOR_RTOL) -> KernelWeights:
    """K W on the problem grid, the one grid x grid kernel operator.

    A kernel that claims positive definiteness gets a pivoted-Cholesky
    factor (Harbrecht-Peters-Schneider 2012) of at most ``_FACTOR_CAP``
    sqrt(N) rows, stopped at remainder ``rtol`` K(x, x); every other kernel,
    and one whose factor would need more rows, gets the dense array.
    """
    if problem.kernel.positive_definite:
        op = _factor(problem, rtol)
        if op is not None:
            return op
    entries = _kernel_weights(problem)
    return KernelWeights(problem.grid.weights, np.diagonal(entries), dense=entries)


def _factor(problem: Problem, rtol: float = _FACTOR_RTOL) -> KernelWeights | None:
    """Pivoted Cholesky K = L L^T + E, or None past the rank cap.

    Each step takes the node of largest remainder diagonal E_pp as pivot
    (the first such node on a tie); the factor stops once every E_ii is at
    most ``rtol`` K(x, x).  The remainder diagonal is updated as
    E_ii - c_i (c_i / c_p), so a constant kernel leaves exactly zero after
    one step.  Storage grows by one block of rows at a time, each checked
    against physical memory first: ``_FACTOR_BLOCK`` rows, then blocks just
    below ``_FACTOR_BLOCK_BYTES`` (145 rows at N = 3600).

    Pivots come in panels of up to ``_FACTOR_PANEL`` (see ``_panel_pivots``).
    A panel's kernel rows are evaluated in one call, written straight into
    the current block, and reduced by one gemm per ``_FACTOR_GEMM_ROWS``
    stored rows; a triangular recurrence over the panel then finishes its
    rows, checks each pivot and updates the remainder.  A panel ends at a
    block's end, at half the cap and at the cap, so the tests there see the
    exact largest remainder.

    The largest remainder decays ever more slowly, so at half the cap it
    has covered about half its way (in log) to where it ends at the cap.
    On Gaussians measured at N = 224-6624, every factor that finished
    within the cap had covered at least 48% of its way to ``_FACTOR_RTOL``
    by half the cap, and every one that needed 1.5 times the cap at most
    39%.  A factor still above ``rtol ** _FACTOR_PACE`` K(x, x) at half the
    cap is given up there, having spent a quarter of the cap's cost.
    """
    nodes = problem.grid.nodes
    n = nodes.shape[0]
    evaluate = problem.kernel.evaluate
    cols = np.asfortranarray(nodes)     # contiguous coordinate columns, once
    cap = min(n, int(_FACTOR_CAP * n ** 0.5))
    height = max(_FACTOR_BLOCK, (_FACTOR_BLOCK_BYTES - 1) // (8 * n))
    phi0 = float(np.asarray(evaluate(nodes[:1], nodes[:1]), dtype=float)[0, 0])
    if not phi0 > 0:
        return None
    remainder = np.full(n, phi0)
    blocks: list[np.ndarray] = []
    rank = k = panels = 0               # k: rows filled in blocks[-1]
    while True:
        p = int(np.argmax(remainder))
        if rank and remainder[p] <= rtol * phi0:     # at least one row
            break
        if rank == cap or (rank == cap // 2
                           and remainder[p] > rtol ** _FACTOR_PACE * phi0):
            log.info("kernel factor: remainder %.3g K(x, x) at rank %d of cap %d "
                     "on %d nodes; dense K W", remainder[p] / phi0, rank, cap, n)
            return None
        if not blocks or k == blocks[-1].shape[0]:
            size = min(height if blocks else _FACTOR_BLOCK, cap - rank)
            _model._check_memory(8 * (rank + size) * n,
                                 f"a rank-{rank + size} kernel factor on {n} grid nodes")
            blocks.append(np.empty((size, n)))
            k = 0
        block = blocks[-1]
        stored = blocks[:-1] + [block[:k]] if k else blocks[:-1]
        room = block.shape[0] - k
        if rank < cap // 2:
            room = min(room, cap // 2 - rank)
        pivots = _panel_pivots(evaluate, nodes, stored, remainder, p,
                               min(room, _FACTOR_PANEL), rtol * phi0)
        panel = block[k:k + len(pivots)]
        panel[...] = evaluate(nodes[pivots], cols)
        if stored:
            product = np.empty_like(panel)
            for rows in stored:
                for start in range(0, rows.shape[0], _FACTOR_GEMM_ROWS):
                    part = rows[start:start + _FACTOR_GEMM_ROWS]
                    panel -= np.matmul(part[:, pivots].T, part, out=product)
            del product                 # before the next panel gathers
        for j, q in enumerate(pivots):
            c = panel[j]
            if j:
                c -= panel[:j, q] @ panel[:j]
            pivot = c[q]
            if not pivot > 0:
                log.info("kernel factor: pivot %.3g on %d nodes; dense K W", pivot, n)
                return None
            remainder -= c * (c / pivot)
            c /= np.sqrt(pivot)
        rank += len(pivots)
        k += len(pivots)
        panels += 1
    blocks[-1] = blocks[-1][:k]
    root = np.sqrt(np.maximum(remainder, 0.0))
    return KernelWeights(problem.grid.weights, phi0 * problem.grid.weights,
                         factor=tuple(blocks),
                         root_remainder=root if np.any(root > 0) else None,
                         panels=panels)


def _panel_pivots(evaluate, nodes: np.ndarray, stored: list[np.ndarray],
                  remainder: np.ndarray, p: int, size: int,
                  floor: float) -> list[int]:
    """Up to ``size`` pivots in greedy order, the first p = argmax remainder,
    each later one the first node of largest remainder once the ones before
    it are eliminated, and each above ``floor``.

    They are chosen among the candidates S, the N / ``_FACTOR_CANDIDATES``
    largest remainders (at least ``size``), sorted by node so that ties go
    as they do on the whole grid.  Each pivot updates the remainders on S
    alone, from its kernel row on S and the factor's rows gathered on S.  A
    remainder only decreases, so every node outside S stays at most the
    largest one outside S at the start; a candidate above that bound is the
    pivot the whole grid would take, up to the rounding of the gathered
    products, and the panel ends at the first that is not.  When p itself
    is not above it, the panel is p alone.
    """
    n = remainder.size
    if size == 1:
        return [p]
    m = max(size, n // _FACTOR_CANDIDATES)
    if m < n:
        part = np.argpartition(remainder, n - m - 1)
        bound = remainder[part[n - m - 1]]
        if not remainder[p] > bound:
            return [p]
        cand = np.sort(part[n - m:])    # holds every node above the bound
    else:
        cand, bound = np.arange(n), -np.inf
    rank = sum(rows.shape[0] for rows in stored)
    gathered = np.empty((rank + size - 1, cand.size))
    start = 0
    for rows in stored:
        gathered[start:start + rows.shape[0]] = rows[:, cand]
        start += rows.shape[0]
    points = np.asfortranarray(nodes[cand])
    rem = remainder[cand]
    s = int(np.searchsorted(cand, p))
    pivots = [p]
    for j in range(rank, rank + size - 1):
        c = np.asarray(evaluate(nodes[cand[s]:cand[s] + 1], points), dtype=float)[0]
        c -= gathered[:j, s] @ gathered[:j]
        pivot = c[s]
        if not pivot > 0:
            break
        rem -= c * (c / pivot)
        gathered[j] = c / np.sqrt(pivot)
        s = int(np.argmax(rem))
        if not (rem[s] > bound and rem[s] > floor):
            break
        pivots.append(int(cand[s]))
    return pivots


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


def assemble_full(problem: Problem) -> np.ndarray:
    """Dense K W + diag(a), read-only: the full operator as a matrix."""
    entries = _kernel_weights(problem)
    entries[np.diag_indices(problem.grid.size)] += problem.a_at_nodes
    entries.setflags(write=False)
    return entries


def assemble_ktilde(problem: Problem, a0: float) -> np.ndarray:
    """Dense K W diag(1 / (a0 - a)), read-only: the normalized operator as a
    matrix.  a0 must be sup a, and every node must keep a positive distance
    from the argmax set of a; build the grid with grading toward that set."""
    entries = _kernel_weights(problem)
    entries /= _gap(problem, a0)
    entries.setflags(write=False)
    return entries


def _power(matvec, v0: np.ndarray, tol_resid: float, slack=None) -> tuple[PerronPair, np.ndarray]:
    """The first power iterate v from v0 whose eigen-residual reaches
    ``tol_resid``, certified by the ratio interval of w = ``matvec(v)``
    widened by ``slack(v)``, a bound on its error at every node; and w."""
    v = v0 / float(np.max(v0))
    res = np.inf
    for it in range(1, _MAX_ITER + 1):
        w = matvec(v)
        lam = float(np.max(w))
        if lam <= 0:
            raise ConfigurationError("iteration collapsed; matrix has no positive cycle")
        res = float(np.max(np.abs(w - lam * v))) / lam
        if res <= tol_resid:
            pos = v > 0
            err = 0.0 if slack is None else slack(v)
            lo = float(np.min((w - err)[pos] / v[pos]))
            hi = float(np.max((w + err)[pos] / v[pos])) if bool(np.all(pos)) else np.inf
            return PerronPair(lam, v, it, res, (lo, hi), "residual"), w
        v = w / lam
    raise IterationLimitError(
        f"power iteration: no convergence in {_MAX_ITER} matvecs (residual {res:.3e})",
        residual=res,
    )


def perron(matrix: np.ndarray, tol_power: float = _TOL_POWER) -> PerronPair:
    """Perron root and vector of a dense nonnegative matrix by power
    iteration from the ones vector, stopped at the ``tol_power`` residual."""
    entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ConfigurationError("matrix must be square")
    if np.any(entries < 0):
        raise ConfigurationError("Perron iteration needs a nonnegative matrix")
    return _power(lambda v: entries @ v, np.ones(entries.shape[0]), tol_power)[0]


def _ktilde_pair(kw: KernelWeights, gap: np.ndarray,
                 start: np.ndarray | None = None) -> tuple[PerronPair, np.ndarray]:
    """Certified top eigenpair of Kt = K W diag(1 / gap), applied as v -> K W (v / gap),
    and the product Kt v that certified its vector.

    Arnoldi runs matrix-free on the similarity sqrt(b) K sqrt(b), b = w / gap,
    from sqrt(b) times ``start`` (ones by default), so reruns are
    byte-identical.  ``_power`` certifies its vector, in Kt's coordinates,
    at one matvec, or runs from it if it misses ``_TOL_POWER``; from ones if
    it is not strictly positive (on narrow kernels, a round-off tail).
    """
    s = np.sqrt(kw.weights / gap)
    matvecs = 0

    def similar(y: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return s * (kw @ (y / s / gap))

    y = _arnoldi(similar, s if start is None else s * start, _MAX_ITER)
    v = None if y is None else y / s
    if v is not None:
        v = v / v[np.argmax(np.abs(v))]
    positive = v is not None and bool(np.all(v > 0))
    pair, product = _power(lambda u: kw @ (u / gap), v if positive else np.ones(s.size),
                           _TOL_POWER, slack=lambda u: kw.slack(u / gap))
    return replace(pair, arnoldi_matvecs=matvecs,
                   start="arnoldi" if positive else "ones"), product


def _arnoldi(matvec, v0: np.ndarray, budget: int) -> np.ndarray | None:
    """Unit top eigenvector of an operator whose eigenvalue of largest real
    part is real and simple, as Perron-Frobenius makes it for a nonnegative
    irreducible matrix and its similarities; None when ``budget`` matvecs
    do not converge it or a step overflows.

    Arnoldi with Gram-Schmidt twice builds up to ``_ARNOLDI_BASIS`` vectors
    from v0, the coefficients of both passes forming the Hessenberg matrix,
    then restarts from the Ritz vector of the Ritz value of largest real
    part.  It stops when that Ritz value is real and its residual
    |h_{j+1,j} y_j| reaches round-off relative to it, as it does at once
    when the Krylov space is invariant.
    """
    n = v0.size
    m = min(n, _ARNOLDI_BASIS)
    tol = np.finfo(float).eps
    q = v0 / np.linalg.norm(v0)
    basis = np.empty((m, n))
    hess = np.zeros((m, m))
    used = 0
    while used < budget:
        basis[0] = q
        for j in range(min(m, budget - used)):
            w = matvec(basis[j])
            used += 1
            active = basis[:j + 1]
            coef = active @ w
            w -= active.T @ coef                # twice is enough
            again = active @ w
            w -= active.T @ again
            hess[:j + 1, j] = coef + again
            with np.errstate(over="ignore"):
                b = float(np.linalg.norm(w))
            if not math.isfinite(b):        # |A| near the overflow threshold
                return None
            theta, vecs = np.linalg.eig(hess[:j + 1, :j + 1])
            k = int(np.argmax(theta.real))
            top = vecs[:, k].real
            q = top @ active
            q /= np.linalg.norm(q)
            if theta[k].imag == 0 and b * abs(top[-1]) <= tol * abs(theta[k].real):
                return q
            if j + 1 < m:
                hess[j + 1, j] = b
                basis[j + 1] = w / b
    return None


def _newton(mu: float, gap: np.ndarray, weights: np.ndarray, pair: PerronPair) -> float:
    """Newton step on log f = 0 from ``pair``, the solve of B(mu) at
    gap = mu - a, taken in s = sqrt(mu - max a): near a quadratic maximum of
    a in 3-D, f - f(max a) behaves like s, and Newton in mu creeps.
    d log f / ds = 2 s d log f / d mu, with d log f / d mu = -sum_i y_i^2 /
    gap_i over sum_i y_i^2, y the top vector of its similarity (only a step
    rule for a nonsymmetric kernel).  A step to s <= 0 gives -inf."""
    y2 = weights / gap * pair.vector ** 2
    g = float(np.min(gap))
    s = math.sqrt(g)
    s += math.log(pair.value) * float(np.sum(y2)) / (2.0 * s * float(np.sum(y2 / gap)))
    return mu - g + s * s if s > 0 else -math.inf


def _lambda_p_root(kw: KernelWeights, a: np.ndarray, mu: float, solve: tuple | None,
                   lo: float, hi: float, tol: tuple[float, float]
                   ) -> tuple[float, float, np.ndarray, int, int]:
    """Bracket (lo, hi) on the top eigenvalue of K W + diag(a), the test
    function phi of the last step, and the B(mu) solves and matvecs run.

    Each step solves B(mu) = K W diag(1 / (mu - a)) by ``_ktilde_pair`` from
    the last step's vector v (``solve``, when given, is the first mu's
    pair and product).  K W phi, phi = v / (mu - a), is the product that
    certified v, so phi's Collatz-Wielandt interval on K W + diag(a),
    widened by the slack, narrows (lo, hi) at no matvec.  The next mu is
    ``_newton``'s, or the midpoint when that leaves (max(lo, max a), hi).
    With ``tol`` = (absolute, relative), the root stops at width absolute +
    relative max(1, |hi|) + 2 max_i err_i / phi_i, err the slack at phi:
    the width that the slack leaves even for an exact eigenvector, so
    further solves narrow it by round-off only.  It also stops where a step no longer
    narrows the bracket, at the floor the residuals set."""
    top = float(np.max(a))
    steps = matvecs = 0
    v = np.ones(a.size)             # the first solve's start, when it runs
    while True:
        gap = mu - a
        if solve is None:
            if steps == _ROOT_STEPS:
                raise IterationLimitError(f"lambda_p root: bracket [{lo:.12g}, {hi:.12g}] "
                                          f"is still {hi - lo:.3g} wide after {steps} solves")
            solve = _ktilde_pair(kw, gap, start=v)
            steps += 1
            matvecs += solve[0].arnoldi_matvecs + solve[0].iterations
        pair, product = solve
        v = pair.vector
        phi = v / gap
        err = kw.slack(phi)
        width = hi - lo
        lo = max(lo, float(np.min((product - err) / phi + a)))
        hi = min(hi, float(np.max((product + err) / phi + a)))
        floor = 2.0 * float(np.max(err / phi))
        if hi - lo <= tol[0] + tol[1] * max(1.0, abs(hi)) + floor or not hi - lo < width:
            return lo, hi, phi, steps, matvecs
        mu = _newton(mu, gap, kw.weights, pair)
        if not max(lo, top) < mu < hi:
            mu = 0.5 * (lo + hi)
        solve = None


def estimate_lambda_p(problem: Problem) -> LambdaPEstimate:
    """The generalized principal eigenvalue on the problem's grid, minus the
    top eigenvalue of K W + diag(a), by ``_lambda_p_root`` on the problem's
    own K W from the midpoint of its bracket [max_i (K W)_ii + a_i, max_i
    ((K W 1)_i + a_i)] to a width of about 1e-12; no argmax set is needed.
    ``value`` is the certified interval's lower end; ``iterations`` counts
    matvecs."""
    kw = _kernel_operator(problem)
    a = problem.a_at_nodes
    ones = np.ones(a.size)
    lo = float(np.max(kw.diagonal + a))
    hi = float(np.max(kw @ ones + kw.slack(ones) + a))
    mu_lo, mu_hi, _, _, matvecs = _lambda_p_root(kw, a, 0.5 * (lo + hi), None, lo, hi,
                                                 (0.0, _ROOT_RTOL))
    return LambdaPEstimate(-mu_hi, (-mu_hi, -mu_lo), matvecs + 1)


def _regime(lam1: float, tol_classify: float) -> str:
    if lam1 > 1.0 + tol_classify:
        return "continuous"
    if lam1 >= 1.0 - tol_classify:
        return "l1"
    return "singular"


def _fmt_run(name: str, pair: PerronPair) -> str:
    head = f"{name} n={pair.vector.size} arnoldi matvecs="
    if pair.start == "arnoldi" and pair.iterations == 1:    # accepted as it came
        return f"{head}{pair.arnoldi_matvecs + 1} residual={pair.residual:.3g}"
    return (f"{head}{pair.arnoldi_matvecs} fallback=power start={pair.start} "
            f"iterations={pair.iterations} stopped_by={pair.stopped_by}")


def classify_regime(problem: Problem, tol_classify: float = _TOL_CLASSIFY, *,
                    confirm: bool = True) -> RegimeReport:
    """Decide which kind of principal eigenfunction the problem admits.

    The spectral radius of the normalized operator (solved to the residual
    ``_TOL_POWER``) is compared against one at tolerance ``tol_classify``,
    the one tolerance a caller sets.  With ``confirm`` the label must agree
    with the grid one level coarser (resolution and grading depth one
    lower), otherwise the classification is reported unstable rather than
    silently trusted; a grid with no coarser level raises
    ``ConfigurationError``.

    Off the threshold lambda_p comes from ``_lambda_p_root``, started from
    the Kt pair, whose test function u / (a0 - a) brackets it for free, and
    narrowed to ``tol_classify / 10`` (singular) or about 1e-12
    (continuous), plus the width the factor's remainder bound leaves.  It
    is the bracket's lower end, where a positive supersolution is
    exhibited; the continuous density is the last test function, at max 1.
    Threshold: -a0 itself, where the discrete spectrum clusters; no bracket
    is claimed (``lambda_p_interval`` is None).

    The argmax set of a is detected on the grid and reported as ``argmax``;
    x0 is its ``argmax_point`` and a0 its sup.  A problem on a finer grid of
    another's refinement ladder reuses that problem's set when its own
    near-maximal clusters match it.
    """
    return _classify(problem, tol_classify, confirm)[0]


def _classify(problem: Problem, tol_classify: float,
              confirm: bool) -> tuple[RegimeReport, KernelWeights]:
    """``classify_regime``'s report and the problem grid's K W for a solve to
    reuse.  The coarse grid's K W is freed before the fine one is built, so
    the two never coexist."""
    amax = _argmax_set(problem)
    x0, a0 = argmax_point(amax, problem.domain), amax.sup_value
    gap = _gap(problem, a0)
    coarse_lam1 = coarse_size = None
    kernels = []                    # each grid's K W backend, for the log
    if confirm:
        coarse = _refined(problem, -1)
        gap_c = _gap(coarse, a0)
        kw_c = _kernel_operator(coarse, max(_FACTOR_RTOL,
                                            _COARSE_FACTOR_SHARE * tol_classify))
        pair_c = _ktilde_pair(kw_c, gap_c)[0]
        coarse_lam1, coarse_size = pair_c.value, coarse.grid.size
        kernels.append(f"kernel-coarse {kw_c.describe()}")
        del kw_c
    kw = _kernel_operator(problem)
    kernels.insert(0, f"kernel {kw.describe()}")
    solve = _ktilde_pair(kw, gap)
    pair = solve[0]
    regime = _regime(pair.value, tol_classify)
    runs = [_fmt_run("ktilde", pair)]
    if confirm:
        lo_c, hi_c = pair_c.interval
        runs.append(f"{_fmt_run('ktilde-coarse', pair_c)} lambda1={coarse_lam1:.12g} "
                    f"in [{lo_c:.12g}, {hi_c:.12g}] width {hi_c - lo_c:.3g}")
        regime_c = _regime(coarse_lam1, tol_classify)
        if regime_c != regime:
            raise ClassificationUnstableError(
                f"regime flips between grids: {regime_c} at resolution "
                f"{coarse.grid.resolution} vs {regime} at {problem.grid.resolution} "
                f"(lambda1 {coarse_lam1:.6g} vs {pair.value:.6g})"
            )

    density = interval = None
    if regime == "l1":
        lambda_p = -a0
        psi = pair.vector / gap
        density = psi / float(np.sum(problem.grid.weights * psi))
    else:
        a = problem.a_at_nodes
        tol = (tol_classify / 10.0, 0.0) if regime == "singular" else (0.0, _ROOT_RTOL)
        mu_lo, mu_hi, phi, steps, matvecs = _lambda_p_root(
            kw, a, a0, solve, float(np.max(kw.diagonal + a)), np.inf, tol)
        runs.append(f"root steps={steps} matvecs={matvecs} width={mu_hi - mu_lo:.3g}")
        lambda_p, interval = -mu_hi, (-mu_hi, -mu_lo)
        side = 1.0 if regime == "singular" else -1.0
        if side * (mu_hi - a0) > 10.0 * tol_classify * max(1.0, abs(a0)):
            raise InconsistencyError(f"lambda1 {pair.value:.6g} gives the {regime} regime "
                                     f"but lambda_p {lambda_p:.6g} lies across {-a0:.6g}")
        if regime == "continuous":
            density = phi / float(np.max(phi))

    lo1, hi1 = pair.interval
    certificate = ("threshold value, no bracket" if interval is None else
                   f"in [{-mu_hi:.12g}, {-mu_lo:.12g}] width {mu_hi - mu_lo:.3g}")
    log.info("classify_regime: regime=%s n=%d lambda1=%.12g in [%.12g, %.12g] "
             "width %.3g lambda_p=%.12g %s; perron: %s; %s", regime,
             problem.grid.size, pair.value, lo1, hi1, hi1 - lo1, lambda_p,
             certificate, "; ".join(runs), "; ".join(kernels))

    return RegimeReport(
        regime=regime,
        lambda1=pair.value,
        lambda1_interval=pair.interval,
        lambda_p=lambda_p,
        lambda_p_interval=interval,
        sup_a=a0,
        x0=tuple(float(v) for v in x0),
        eigen_density=density,
        argmax=amax,
        coarse_lambda1=coarse_lam1,
        coarse_size=coarse_size,
    ), kw
