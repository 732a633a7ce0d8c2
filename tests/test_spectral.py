import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh
from scipy.optimize import brentq

from specmeasure import (
    Ball,
    Box,
    ClassificationUnstableError,
    ConfigurationError,
    Cylinder,
    GradeSpec,
    H2Violation,
    InconsistencyError,
    Interval,
    IterationLimitError,
    Problem,
    Segment,
    SingularNodeError,
    TooLargeError,
    assemble_full,
    assemble_ktilde,
    build_problem,
    build_singular_solution,
    classify_regime,
    cli,
    constant_kernel,
    coordinate_linear,
    custom_kernel,
    detect_argmax_set,
    estimate_lambda_p,
    gaussian_kernel,
    geometry,
    model,
    perron,
    radial_power,
    spectral,
)

CENTER3 = (0.0, 0.0, 0.0)
AXIS = Segment(start=(0.0, 0.0, 0.0), end=(0.0, 0.0, 1.0))


def factor_only(kernel):
    # replace drops both claims of the built-in family; given back the
    # positive-definite one alone, K W takes the pivoted-Cholesky factor even
    # on a grid of rings
    return model._positive_definite(dataclasses.replace(kernel))


def ball_problem(rho, resolution=6, depth=6):
    return build_problem(
        Ball(center=CENTER3, radius=1.0), constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=resolution,
        grading=GradeSpec(targets=(CENTER3,), depth=depth),
    )


def cylinder_problem(rho, resolution=6, depth=8):
    return build_problem(
        Cylinder(radius=1.0, height=1.0), constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=1.0, center=CENTER3, axes=(0, 1)),
        resolution=resolution,
        grading=GradeSpec(targets=(AXIS,), depth=depth),
    )


def test_assemble_full_two_nodes():
    prob = build_problem(Interval(0.0, 1.0), constant_kernel(1.0),
                         coordinate_linear((1.0,)), resolution=2)
    m = assemble_full(prob)
    np.testing.assert_allclose(m, [[0.75, 0.5], [0.5, 1.25]])
    assert not m.flags.writeable


def test_assemble_ktilde_three_nodes():
    # nodes 1/6, 1/2, 5/6 with weight 1/3; K = 2, a(x) = x, a0 = a(1) = 1
    prob = build_problem(Interval(0.0, 1.0), constant_kernel(2.0),
                         coordinate_linear((1.0,)), resolution=3)
    m = assemble_ktilde(prob, 1.0)
    row = [0.8, 4.0 / 3.0, 4.0]
    np.testing.assert_allclose(m, [row, row, row], rtol=1e-14)
    assert not m.flags.writeable


def test_assemble_ktilde_rejects_singular_node():
    # a(x) = 1 - (x - 1/8)^2 peaks at the node 1/8
    prob = build_problem(Interval(0.0, 1.0), constant_kernel(1.0),
                         radial_power(1.0, 1.0, 2.0, (0.125,)), resolution=4)
    with pytest.raises(SingularNodeError):
        assemble_ktilde(prob, 1.0)


def test_assemble_ktilde_rejects_non_maximizer():
    # a0 = a(0.9) = 0.19 lies below the grid maximum of a(x) = 1 - x^2
    prob = build_problem(Interval(-1.0, 1.0), constant_kernel(1.0),
                         radial_power(1.0, 1.0, 2.0, (0.0,)), resolution=4)
    with pytest.raises(ConfigurationError):
        assemble_ktilde(prob, 1.0 - 0.9**2)


def test_perron_symmetric_pair():
    pair = perron(np.array([[2.0, 1.0], [1.0, 2.0]]), tol_power=1e-12)
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(pair.vector, [1.0, 1.0])
    lo, hi = pair.interval
    assert lo <= 3.0 <= hi


def test_perron_matches_dense_eig():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.05, 1.0, size=(n, n))
        pair = perron(a, tol_power=1e-13)
        eigs = np.linalg.eigvals(a)
        r = float(np.max(eigs.real))
        assert pair.value == pytest.approx(r, abs=1e-8)
        lo, hi = pair.interval
        assert lo <= r + 1e-12
        assert hi >= r - 1e-12


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_collatz_wielandt_bounds_bracket_eigvals(data):
    n = data.draw(st.integers(1, 30))
    entries = data.draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 10.0)))
    v = data.draw(arrays(np.float64, n, elements=st.floats(1e-3, 10.0)))
    # D^-1 A D, D = diag(v), has the radius of A, and its ratio interval at
    # the ones vector is that of A at v; a residual tolerance of one stops
    # perron after that first step, since 0 < (D^-1 A D 1)_i <= its max
    lo, hi = perron(entries * v[None, :] / v[:, None], tol_power=1.0).interval
    r = float(np.max(np.linalg.eigvals(entries).real))
    assert lo <= r * (1 + 1e-12)
    assert hi >= r * (1 - 1e-12)


def test_perron_iteration_limit(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITER", 40)
    # [[1, 1e-12], [1e-12, 1]] started from (1, 0.3), written as its diagonal
    # similarity by (1, 0.3) started from the ones vector
    a = np.array([[1.0, 1e-12 * 0.3], [1e-12 / 0.3, 1.0]])
    with pytest.raises(IterationLimitError) as exc:
        perron(a, tol_power=1e-14)
    assert exc.value.residual is not None
    assert exc.value.residual < 1.0


def test_perron_returns_the_iterate_it_certified():
    # a residual tolerance of one accepts the ones vector at the first
    # matvec; the interval and residual reported are the returned vector's
    # own, not those of the iterate before it
    a = np.array([[2.0, 1.0], [0.5, 1.0]])
    pair = perron(a, tol_power=1.0)
    w = a @ pair.vector
    assert pair.interval == (float(np.min(w / pair.vector)), float(np.max(w / pair.vector)))
    assert pair.residual == float(np.max(np.abs(w - pair.value * pair.vector))) / pair.value
    assert pair.interval == (1.5, 3.0) and pair.residual == 0.5
    assert pair.iterations == 1


def test_perron_rejects_negative_matrix():
    with pytest.raises(ConfigurationError):
        perron(np.array([[1.0, -0.1], [0.2, 1.0]]))


def test_lambda1_equals_rho_times_shell_sum():
    # constant kernel: the normalized operator is rank one and its radius
    # is exactly rho * sum_j w_j / (a0 - a_j)
    prob = ball_problem(0.05, resolution=6, depth=8)
    rep = classify_regime(prob, confirm=False)
    ih = float(np.sum(prob.grid.weights / (1.0 - prob.a_at_nodes)))
    assert rep.lambda1 == pytest.approx(0.05 * ih, rel=1e-13)
    assert ih == pytest.approx(4 * math.pi * (1 - 0.5**9), rel=1e-12)


def test_lambda_p_matches_secular_root():
    # for a constant kernel the largest eigenvalue of the full operator
    # solves rho * sum_j w_j / (mu - a_j) = 1 above max a_j
    for rho in (0.05, 0.1):
        prob = ball_problem(rho, resolution=4, depth=4)
        w = prob.grid.weights
        a = prob.a_at_nodes
        top = float(np.max(a))

        def secular(mu):
            return rho * float(np.sum(w / (mu - a))) - 1.0

        lo = top + 1e-13
        hi = top + 10.0
        root = brentq(secular, lo, hi, xtol=1e-14)
        est = estimate_lambda_p(prob)
        assert est.value == pytest.approx(-root, abs=5e-6)
        assert est.interval[0] <= -root <= est.interval[1]


def test_lambda_p_approaches_minus_sup_a_from_above():
    vals = []
    for depth in (4, 6, 8):
        prob = ball_problem(0.05, resolution=6, depth=depth)
        est = estimate_lambda_p(prob)
        vals.append(est.value)
    assert all(v > -1.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_classify_ball_regimes():
    singular = classify_regime(ball_problem(0.05))
    assert singular.regime == "singular"
    assert singular.eigen_density is None
    assert singular.lambda_p > -1.0

    continuous = classify_regime(ball_problem(0.1))
    assert continuous.regime == "continuous"
    assert continuous.density_norm == "max"
    assert continuous.eigen_density.max() == pytest.approx(1.0)
    assert np.all(continuous.eigen_density > 0)
    assert continuous.lambda_p < -1.0


def test_coarse_grid_is_one_level_down():
    prob = ball_problem(0.1, resolution=5, depth=6)
    report = classify_regime(prob)
    coarse = model._refined(prob, -1).grid
    assert report.confirmed
    assert report.coarse_size == coarse.size
    assert (coarse.resolution, coarse.grading.depth) == (4, 5)
    assert not classify_regime(prob, confirm=False).confirmed


def test_classify_threshold_l1():
    # at the threshold lambda_p is bracketed like anywhere else: the bracket
    # holds the secular root, and -sup a = -1 lies outside it.  On the steep
    # a = 1 - 100 r^2 (last input) the root sits 0.0124 below sup a, past
    # 10 tol_classify, yet on the side lambda1 = 0.9991 < 1 points to, so the
    # run classifies without an InconsistencyError
    rho_star = 1.0 / (2 * math.pi)
    steep = build_problem(
        Ball(center=CENTER3, radius=1.0), constant_kernel(1.0),
        radial_power(top=1.0, scale=100.0, power=2.0, center=CENTER3),
        resolution=4, grading=GradeSpec(targets=(CENTER3,), depth=2),
    )
    rho_steep = 0.9991 / float(np.sum(steep.grid.weights / (1.0 - steep.a_at_nodes)))
    for rho, prob, confirm in [
        (rho_star, cylinder_problem(rho_star, depth=12), True),
        (0.0797, ball_problem(0.0797, resolution=6, depth=8), False),
        (rho_steep, Problem(steep.domain, constant_kernel(rho_steep), steep.coeff,
                            steep.grid), False),
    ]:
        rep = classify_regime(prob, confirm=confirm)
        assert rep.regime == "l1"
        lo, hi = rep.lambda_p_interval
        assert lo - 1e-13 <= -secular_root(prob, rho) <= hi + 1e-13
        assert rep.lambda_p == rep.lambda_p_interval[0]
        assert not lo <= -1.0 <= hi
        assert rep.density_norm == "mass"
        psi = rep.eigen_density
        w = prob.grid.weights
        assert float(np.sum(w * psi)) == pytest.approx(1.0, rel=1e-12)
        exact = 1.0 / (rep.sup_a - prob.a_at_nodes)
        exact /= float(np.sum(w * exact))
        np.testing.assert_allclose(psi, exact, rtol=1e-10)
    assert -hi - rep.sup_a < -10 * spectral._TOL_CLASSIFY


def test_lambda_p_bracket_across_minus_sup_a_raises(monkeypatch, capsys):
    # a root whose bracket lies on the wrong side of -sup a for lambda1 is
    # refused in every regime, the threshold included, and the CLI names it
    real = spectral._lambda_p_root

    def across(kw, a, mu, solve, lo, hi, tol):
        _, _, phi, steps, matvecs = real(kw, a, mu, solve, lo, hi, tol)
        shift = -0.45 if solve[0].value >= 1.0 else 0.45
        return mu + shift - 0.05, mu + shift + 0.05, phi, steps, matvecs

    monkeypatch.setattr(spectral, "_lambda_p_root", across)
    for prob in (ball_problem(0.05), ball_problem(0.1),
                 ball_problem(0.0797, resolution=6, depth=8)):
        with pytest.raises(InconsistencyError, match="lies across -1"):
            classify_regime(prob, confirm=False)
    code = cli.main(["classify", "--example", "ball", "--rho", "0.05",
                     "--resolution", "4", "--depth", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error[inconsistency]: lambda1 ")


def test_classify_flip_across_threshold():
    below = classify_regime(cylinder_problem(0.13))
    above = classify_regime(cylinder_problem(0.20))
    assert below.regime == "singular"
    assert above.regime == "continuous"
    assert below.lambda1 < 1.0 < above.lambda1


def test_classify_unstable_between_levels():
    # pick rho so the radius sits inside the threshold band on the fine
    # grid but below it on the coarse one
    i_fine = 4 * math.pi * (1 - 0.5 * 0.5**8)
    rho = 0.9992 / i_fine
    prob = ball_problem(rho, resolution=6, depth=8)
    with pytest.raises(ClassificationUnstableError):
        classify_regime(prob, tol_classify=1e-3)


def test_classify_reports_detected_argmax_set():
    # the set x0 came from is the one a fresh detection finds on the grid
    prob = ball_problem(0.05)
    rep = classify_regime(prob)
    assert rep.regime == "singular"
    assert rep.argmax == detect_argmax_set(prob.coeff, prob.grid)
    assert rep.x0 == CENTER3
    assert rep.sup_a == pytest.approx(1.0)


def dense_top_eigenvalue(prob):
    # W^1/2 K W^1/2 + diag(a) is similar to the full operator
    nodes = prob.grid.nodes
    sw = np.sqrt(prob.grid.weights)
    sym = sw[:, None] * prob.kernel.evaluate(nodes, nodes) * sw[None, :]
    sym[np.diag_indices_from(sym)] += prob.a_at_nodes
    return eigh(sym, eigvals_only=True)[-1]


def shifted_full(prob):
    # the full operator plus max |a| on the diagonal, a nonnegative matrix
    shift = float(np.max(np.abs(prob.a_at_nodes)))
    return assemble_full(prob) + shift * np.eye(prob.grid.size), shift


def ratio_bounds(entries, v):
    # the Collatz-Wielandt interval of a positive vector
    ratios = (entries @ v) / v
    return float(np.min(ratios)), float(np.max(ratios))


def eigen_residual(entries, v):
    w = entries @ v
    lam = float(np.max(w))
    return float(np.max(np.abs(w - lam * v))) / lam


@pytest.mark.parametrize("kernel, cap", [
    (constant_kernel(0.1), None), (gaussian_kernel(0.15, 1.0), None),
    (factor_only(gaussian_kernel(0.15, 1.0)), None),
    (factor_only(gaussian_kernel(0.15, 1.0)), 0),
], ids=["constant", "gaussian", "gaussian-factor", "gaussian-dense"])
def test_classify_continuous_pins_full_operator_run(monkeypatch, kernel, cap):
    # lambda_p is the lower end of the lambda_p root's bracket, which
    # overlaps estimate_lambda_p's (the two roots start from different
    # brackets); the density is a top eigenvector of the full operator to
    # the power tolerance, lambda_p_interval lies inside its ratio interval
    # on the assembled operator up to round-off and twice the factor's
    # slack (the root's last step bracketed with the factor's product), and
    # lambda_p matches the oracle.  The Gaussian takes the exact ring blocks,
    # with the positive-definite claim alone the factor, and a rank cap of 0
    # sends that one to its dense fallback
    if cap is not None:
        monkeypatch.setattr(spectral, "_FACTOR_CAP", cap)
    prob = build_problem(
        Ball(center=CENTER3, radius=1.0), kernel,
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=6, grading=GradeSpec(targets=(CENTER3,), depth=6),
    )
    rep = classify_regime(prob)
    assert rep.regime == "continuous"
    assert rep.lambda_p == rep.lambda_p_interval[0]
    est = estimate_lambda_p(prob)
    assert max(rep.lambda_p_interval[0], est.interval[0]) \
        <= min(rep.lambda_p_interval[1], est.interval[1])
    v = rep.eigen_density
    assert np.all(v > 0) and v.max() == 1.0
    full, shift = shifted_full(prob)
    assert eigen_residual(full, v) <= 1e-10
    lo, hi = ratio_bounds(full, v)
    kw = spectral._kernel_operator(prob)
    assert (kw.dense is None) == (cap is None)
    margin = 16 * np.finfo(float).eps * shift + 2.0 * float(np.max(kw.slack(v) / v))
    assert shift - hi - margin <= rep.lambda_p_interval[0]
    assert rep.lambda_p_interval[1] <= shift - lo + margin
    if kernel.family == "constant":
        mu = secular_root(prob, kernel.params["rho"])
    else:
        mu = dense_top_eigenvalue(prob)
    assert rep.lambda_p == pytest.approx(-mu, abs=1e-12)
    # lambda1 is certified the same way on either backend
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    assert hi - lo <= 1e-10


def test_classify_continuous_custom_kernel_runs_arnoldi(caplog):
    # a custom kernel carries no claim beyond nonnegativity, and the B(mu)
    # solves of its lambda_p root are Arnoldi runs certified at once, as for
    # the built-in kernels: no power steps
    rho = 0.1
    kernel = custom_kernel(lambda x, y: np.full((x.shape[0], y.shape[0]), rho),
                           positivity_witness=(rho / 2, math.inf))
    base = ball_problem(rho)
    prob = Problem(base.domain, kernel, base.coeff, base.grid)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob)
    assert rep.regime == "continuous"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    n = prob.grid.size
    assert f"ktilde n={n} " in line
    matvecs = int(re.search(r"; root steps=\d+ matvecs=(\d+) width=\S+;", line).group(1))
    assert matvecs <= 100
    assert "fallback=power" not in line
    full, shift = shifted_full(prob)
    assert eigen_residual(full, rep.eigen_density) <= 1e-10
    lo, hi = rep.lambda_p_interval
    assert lo <= rep.lambda_p <= hi
    assert rep.lambda_p == pytest.approx(-secular_root(prob, rho), abs=1e-12)


@pytest.mark.parametrize("arnoldi", ["perturbed", "no-convergence"])
def test_continuous_fallback_to_power_is_certified(monkeypatch, caplog, arnoldi):
    real_arnoldi = spectral._arnoldi

    def rough_arnoldi(matvec, v0, budget):
        if arnoldi == "no-convergence":
            return real_arnoldi(matvec, v0, 0)
        y = real_arnoldi(matvec, v0, budget)
        return y * (1.0 + 1e-6 * np.cos(np.arange(v0.size)))

    monkeypatch.setattr(spectral, "_arnoldi", rough_arnoldi)
    prob = ball_problem(0.1, resolution=5, depth=5)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=False)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.spectral" and r.levelno == logging.INFO]
    assert len(lines) == 1 and "fallback=power" in lines[0]
    full, _ = shifted_full(prob)
    assert eigen_residual(full, rep.eigen_density) <= 2e-14
    lo, hi = rep.lambda_p_interval
    assert lo <= rep.lambda_p <= hi
    assert hi - lo <= 1e-12
    assert rep.lambda_p == pytest.approx(-secular_root(prob, 0.1), abs=1e-12)


def test_narrow_gaussian_fallback_to_power_is_certified(caplog):
    # nothing patched: a width-0.03 Gaussian's Arnoldi vector carries a
    # round-off tail of non-positive entries, so the power loop certifies
    # lambda1 (57 steps from the ones vector on N = 289), and the lambda_p
    # root reuses the product that certified it
    prob = build_problem(
        Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), gaussian_kernel(5.0, 0.03),
        coordinate_linear((1.0, 0.5)), resolution=12,
        grading=GradeSpec(targets=((1.0, 1.0),), depth=8),
    )
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=False)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert re.search(r"perron: ktilde n=289 arnoldi matvecs=\d+ fallback=power ", line)
    lam1 = top_real_eigenvalue(assemble_ktilde(prob, rep.sup_a))
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    lambda_p = -top_real_eigenvalue(assemble_full(prob))
    lo, hi = rep.lambda_p_interval
    assert lo - ROUND * abs(lambda_p) <= lambda_p <= hi + ROUND * abs(lambda_p)


def test_stalled_loop_from_ones_reruns_from_the_floored_arnoldi_vector(caplog):
    # a width-0.066 Gaussian on a mesh of 0.75: the zero-frequency block's
    # Arnoldi vector has a round-off tail of non-positive entries, and the
    # loop from ones stalls on the nearly coincident top of the spectrum; the
    # rerun from that vector, floored at eps, still brackets lambda1
    prob = build_problem(Cylinder(radius=1.5, height=1.75), gaussian_kernel(0.5, 0.06640625),
                         radial_power(1.0, 1.0, 1.0, (0.0, 0.0, 0.0), axes=(0, 1)), 7)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=False)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert re.search(r"perron: ktilde n=686 block=49 arnoldi matvecs=\d+ fallback=power "
                     r"start=arnoldi-floored iterations=10001 ", line)
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    lam_p = dense_lambda_p(prob)
    lo, hi = rep.lambda_p_interval
    assert lo - ROUND * abs(lam_p) <= lam_p <= hi + ROUND * abs(lam_p)


def test_full_operator_shift_invariance():
    prob = ball_problem(0.1, resolution=4, depth=4)
    est = estimate_lambda_p(prob)
    shifted = build_problem(
        prob.domain, prob.kernel,
        radial_power(top=1.5, scale=1.0, power=2.0, center=CENTER3),
        resolution=4, grading=GradeSpec(targets=(CENTER3,), depth=4),
    )
    est2 = estimate_lambda_p(shifted)
    assert est2.value == pytest.approx(est.value - 0.5, abs=1e-10)


def secular_root(prob, rho):
    # largest eigenvalue of the constant-kernel full operator: the root of
    # rho * sum_j w_j / (mu - a_j) = 1 above max a_j
    w = prob.grid.weights
    a = prob.a_at_nodes
    top = float(np.max(a))
    return brentq(lambda mu: rho * float(np.sum(w / (mu - a))) - 1.0,
                  top + 1e-15, top + 10.0, xtol=1e-15, rtol=1e-15)


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["ball", "cylinder"]),
       resolution=st.integers(3, 5), depth=st.integers(2, 8),
       fraction=st.floats(0.05, 0.95))
def test_singular_bracket_contains_secular_root(shape, resolution, depth, fraction):
    make = ball_problem if shape == "ball" else cylinder_problem
    base = make(1.0, resolution=resolution, depth=depth)
    ih = float(np.sum(base.grid.weights / (1.0 - base.a_at_nodes)))
    rho = fraction / ih
    prob = Problem(base.domain, constant_kernel(rho), base.coeff, base.grid)
    rep = classify_regime(prob, confirm=False)
    assert rep.regime == "singular"
    lo, hi = rep.lambda_p_interval
    root = secular_root(prob, rho)
    assert lo - 1e-13 <= -root <= hi + 1e-13
    assert hi - lo <= 1e-4          # refined to tol_classify / 10
    assert rep.lambda_p == lo
    assert rep.lambda_p > -rep.sup_a


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["ball", "cylinder"]),
       resolution=st.integers(3, 5), depth=st.integers(2, 8),
       fraction=st.floats(1.0 - 0.9e-3, 1.0 + 0.9e-3))
def test_threshold_bracket_contains_secular_root(shape, resolution, depth, fraction):
    # inside the l1 band the bracket is narrowed as in the singular regime
    make = ball_problem if shape == "ball" else cylinder_problem
    base = make(1.0, resolution=resolution, depth=depth)
    ih = float(np.sum(base.grid.weights / (1.0 - base.a_at_nodes)))
    rho = fraction / ih
    prob = Problem(base.domain, constant_kernel(rho), base.coeff, base.grid)
    rep = classify_regime(prob, confirm=False)
    assert rep.regime == "l1"
    lo, hi = rep.lambda_p_interval
    root = secular_root(prob, rho)
    assert lo - 1e-13 <= -root <= hi + 1e-13
    assert hi - lo <= 1e-4          # refined to tol_classify / 10
    assert rep.lambda_p == lo


def test_singular_bracket_width_is_absolute():
    # the singular bracket is narrowed to tol_classify / 10 whatever the size
    # of a: the cylinder near its threshold with a and K scaled by 100 keeps
    # its lambda1, and its bracket must not widen with |sup a|
    base = cylinder_problem(0.155)
    coeff = radial_power(top=100.0, scale=100.0, power=1.0, center=CENTER3, axes=(0, 1))
    prob = Problem(base.domain, constant_kernel(15.5), coeff, base.grid)
    rep = classify_regime(prob)
    assert rep.regime == "singular" and rep.sup_a == 100.0
    lo, hi = rep.lambda_p_interval
    assert hi - lo <= spectral._TOL_CLASSIFY / 10
    root = 100.0 * secular_root(base, 0.155)    # the unscaled root, scaled
    assert lo - 1e-11 <= -root <= hi + 1e-11
    assert rep.lambda_p == lo


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["ball", "cylinder"]),
       resolution=st.integers(3, 5), depth=st.integers(2, 8),
       fraction=st.floats(1.05, 3.0))
def test_continuous_lambda_p_matches_secular_root(shape, resolution, depth, fraction):
    make = ball_problem if shape == "ball" else cylinder_problem
    base = make(1.0, resolution=resolution, depth=depth)
    ih = float(np.sum(base.grid.weights / (1.0 - base.a_at_nodes)))
    rho = fraction / ih
    prob = Problem(base.domain, constant_kernel(rho), base.coeff, base.grid)
    rep = classify_regime(prob, confirm=False)
    assert rep.regime == "continuous"
    lo, hi = rep.lambda_p_interval
    assert lo <= rep.lambda_p <= hi
    assert hi - lo <= 1e-8
    assert rep.lambda_p == pytest.approx(-secular_root(prob, rho), abs=1e-11)


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(0.25, 4.0), power=st.floats(0.5, 3.0))
def test_regime_flips_at_grid_threshold(scale, power):
    # constant kernel: lambda1(Kt) = rho * sum_i w_i / (a0 - a_i) on the
    # grid, so the grid's own threshold rho*_h = 1 / that sum separates the
    # singular regime just below it from the continuous one just above
    coeff = radial_power(top=1.0, scale=scale, power=power, center=CENTER3)
    base = build_problem(Ball(center=CENTER3, radius=1.0), constant_kernel(1.0),
                         coeff, resolution=4,
                         grading=GradeSpec(targets=(CENTER3,), depth=4))
    rho_h = 1.0 / float(np.sum(base.grid.weights / (1.0 - base.a_at_nodes)))
    regimes = []
    for factor in (1.0 - 1e-2, 1.0 + 1e-2):
        prob = Problem(base.domain, constant_kernel(rho_h * factor), coeff, base.grid)
        rep = classify_regime(prob, confirm=False)
        assert rep.sup_a == 1.0
        assert rep.lambda1 == pytest.approx(factor, rel=1e-12)
        regimes.append(rep.regime)
    assert regimes == ["singular", "continuous"]


def test_singular_bracket_gaussian_matches_dense_eigh():
    prob = build_problem(
        Ball(center=CENTER3, radius=1.0), gaussian_kernel(0.05, 1.0),
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=6, grading=GradeSpec(targets=(CENTER3,), depth=6),
    )
    rep = classify_regime(prob)
    assert rep.regime == "singular"
    mu = dense_top_eigenvalue(prob)
    lo, hi = rep.lambda_p_interval
    assert lo - 1e-12 <= -mu <= hi + 1e-12
    assert rep.lambda_p == lo
    assert -1.0 < rep.lambda_p


def test_singular_lambda_p_decreases_with_grading_depth():
    vals = [classify_regime(ball_problem(0.05, resolution=6, depth=d)).lambda_p
            for d in (4, 6, 8)]
    assert all(v > -1.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_singular_lambda_p_below_diagonal_bound():
    # the Perron root of the full operator is at least its largest diagonal
    # entry a_i + K_ii w_i, so lambda_p can sit no higher than minus that
    prob = cylinder_problem(0.1)
    rep = classify_regime(prob)
    assert rep.regime == "singular"
    assert rep.lambda_p <= -float(np.max(prob.a_at_nodes + 0.1 * prob.grid.weights))


def test_continuous_lambda_p_in_its_interval():
    rep = classify_regime(ball_problem(0.1))
    lo, hi = rep.lambda_p_interval
    assert lo <= rep.lambda_p <= hi
    assert hi - lo < 1e-8


def assert_lambda1_width(line, rep):
    # the log line carries the width of the certified lambda1 interval
    lo, hi = rep.lambda1_interval
    assert re.search(r"lambda1=\S+ in \[\S+, \S+\] width (\S+) lambda_p=",
                     line).group(1) == f"{hi - lo:.3g}"


def test_classify_logs_one_info_line(caplog):
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(ball_problem(0.05))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.spectral" and r.levelno == logging.INFO]
    assert len(lines) == 1
    line = lines[0]
    assert "regime=singular" in line
    assert f"lambda_p={rep.lambda_p:.12g}" in line
    assert_lambda1_width(line, rep)
    assert "width" in line.split("lambda_p=")[1]
    # both Kt runs, fine then coarse, are Arnoldi runs certified at once
    assert re.findall(r"(ktilde\S*) n=\d+ arnoldi matvecs=\d+ residual=", line) \
        == ["ktilde", "ktilde-coarse"]
    assert "stopped_by=" not in line
    # the Kt pair's test function already brackets lambda_p to
    # tol_classify / 10: the root runs no B(mu) solve
    lo, hi = rep.lambda_p_interval
    assert f"; root steps=0 matvecs=0 width={hi - lo:.3g};" in line
    # each grid's K W backend: the constant kernel is an exact rank-one
    # factor, built in one panel of one row
    assert line.endswith("; kernel factor rank=1 remainder=0 panels=1; "
                         "kernel-coarse factor rank=1 remainder=0 panels=1")


def test_classify_logs_dense_backend(caplog):
    prob = ball_problem(0.05, resolution=4, depth=4)
    dense = Problem(prob.domain, custom_kernel(prob.kernel.evaluate, (0.025, math.inf)),
                    prob.coeff, prob.grid)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        classify_regime(dense)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert line.endswith("; kernel dense; kernel-coarse dense")


def gaussian_ball(resolution, depth, evaluate=None, amplitude=0.15, width=1.0,
                  isotropic=True):
    # a ball grid is built from rings, so K W takes the exact ring blocks;
    # isotropic=False keeps the positive-definite claim alone, and K W takes
    # the pivoted-Cholesky factor.  A wrapped evaluate keeps the same claims
    kernel = gaussian_kernel(amplitude, width)
    if evaluate is not None:
        # replace drops both claims of the built-in family; both come back
        kernel = model._positive_definite(
            dataclasses.replace(kernel, evaluate=evaluate(kernel.evaluate)))
        object.__setattr__(kernel, "isotropic", True)
    if not isotropic:
        kernel = factor_only(kernel)
    return build_problem(
        Ball(center=CENTER3, radius=1.0), kernel,
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=resolution, grading=GradeSpec(targets=(CENTER3,), depth=depth),
    )


def row_counter():
    # rows[n] counts the kernel rows evaluated against all n nodes
    rows = {}

    def counting(evaluate):
        def counted(x, y):
            rows[y.shape[0]] = rows.get(y.shape[0], 0) + x.shape[0]
            return evaluate(x, y)
        return counted

    return rows, counting


def test_continuous_classify_evaluates_fine_grid_once(caplog):
    # Kt and the full operator share one K W per grid: a factor evaluates
    # one row per pivot, and validation samples 96
    rows, counting = row_counter()
    prob = gaussian_ball(10, 12, counting, isotropic=False)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=True)
    assert rep.regime == "continuous"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    ranks = [int(r) for r in re.findall(r"kernel(?:-coarse)? factor rank=(\d+)", line)]
    assert_lambda1_width(line, rep)
    assert rep.lambda1_interval[1] > rep.lambda1_interval[0]
    sizes = (prob.grid.size, rep.coarse_size)
    assert len(ranks) == 2
    assert all(r <= spectral._FACTOR_CAP * math.sqrt(n) for r, n in zip(ranks, sizes))
    for rank, n in zip(ranks, sizes):
        assert rows[n] <= rank + 96


def test_continuous_classify_evaluates_ring_grid_once(caplog):
    # on a grid of rings each K W evaluates one row per ring, that of its
    # first node, and validation samples 96
    rows, counting = row_counter()
    prob = gaussian_ball(10, 12, counting)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=True)
    assert rep.regime == "continuous"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert_lambda1_width(line, rep)
    rings = [(int(m), int(n)) for m, n in
             re.findall(r"kernel(?:-coarse)? ring rings=(\d+) of (\d+)", line)]
    sizes = (prob.grid.size, rep.coarse_size)
    assert [m * n for m, n in rings] == list(sizes)
    assert rings[0] == (180, 20)
    for (m, _), n in zip(rings, sizes):
        assert rows[n] <= m + 96


def test_dense_classify_evaluates_fine_grid_once(caplog):
    # a custom kernel fills one dense K W per grid, shared by Kt and the
    # full operator; each validation samples 96 rows, fewer than a grid's worth
    rows, counting = row_counter()
    prob = dense_twin(gaussian_ball(6, 6, counting))
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=True)
    assert rep.regime == "continuous"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert line.endswith("; kernel dense; kernel-coarse dense")
    n = prob.grid.size
    assert rows[n] // n == 1


def test_continuous_classify_holds_one_kernel_array():
    # the coarse confirmation's K W is freed before the fine one is built
    prob = gaussian_ball(10, 12)
    n = prob.grid.size
    assert n == 3600
    tracemalloc.start()
    try:
        rep = classify_regime(prob, confirm=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.regime == "continuous"
    # the Gaussian's ring blocks are 11 of 180 x 180 here, 0.028 of K W
    assert peak <= 0.2 * 8 * n * n


def test_coarse_factor_only_as_accurate_as_its_regime_check(caplog):
    # the coarse grid only confirms the regime at tol_classify, so its factor
    # stops at a larger remainder than the fine one; the log line gives the
    # coarse lambda1 interval, which stays well inside the decision tolerance
    prob = gaussian_ball(10, 12, isotropic=False)
    tol = spectral._TOL_CLASSIFY
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, tol_classify=tol, confirm=True)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    lo, hi, width = re.search(r"ktilde-coarse [^;]* lambda1=\S+ "
                              r"in \[(\S+), (\S+)\] width (\S+);", line).groups()
    assert float(lo) <= rep.coarse_lambda1 <= float(hi)
    assert float(width) <= tol / 100
    coarse = model._refined(prob, -1)
    full = spectral._kernel_operator(coarse)
    rank_c = int(re.search(r"kernel-coarse factor rank=(\d+)", line).group(1))
    assert rank_c < full.rank
    # a coarse factor built to _FACTOR_RTOL confirms the same regime
    lam_c = spectral._ktilde_pair(full, spectral._gap(coarse, rep.sup_a))[0].value
    assert rep.regime == "continuous" == spectral._regime(lam_c, tol)
    assert abs(rep.coarse_lambda1 - lam_c) <= 1e-8


def test_coarse_factor_keeps_one_row_at_a_huge_tolerance(caplog):
    # tol_classify = 1e5 puts the coarse factor's stopping remainder above
    # K(x, x) itself; the factor still takes its first row
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(gaussian_ball(4, 5, isotropic=False), tol_classify=1e5)
    assert rep.regime == "l1"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert "kernel-coarse factor rank=1 " in line


@pytest.mark.parametrize("tol", [spectral._TOL_CLASSIFY, 1e5])
def test_coarse_ring_blocks_take_no_tolerance(caplog, tol):
    # the ring blocks are exact, so the coarse grid's are the ones a solve
    # there would build, whatever tol_classify, and its lambda1 interval is
    # as narrow as the fine grid's
    prob = gaussian_ball(10, 12)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, tol_classify=tol, confirm=True)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert "; kernel ring rings=180 of 20; kernel-coarse ring rings=" in line
    width = float(re.search(r"ktilde-coarse [^;]* width (\S+);", line).group(1))
    assert width <= 1e-13 * rep.coarse_lambda1
    coarse = model._refined(prob, -1)
    exact = spectral._ktilde_pair(spectral._kernel_operator(coarse),
                                  spectral._gap(coarse, rep.sup_a))[0]
    assert rep.coarse_lambda1 == exact.value


def test_ring_classify_iterates_on_the_zero_frequency_block(caplog):
    # on the ring blocks each Kt run's Arnoldi iterates on one entry per
    # ring, the zero-frequency block, and the log names that block beside
    # the grid size; the certificate is the whole operator's, and the
    # factor's runs iterate on the whole grid, with no block named
    prob = gaussian_ball(10, 12)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, confirm=True)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    runs = re.findall(r"(ktilde\S*) n=(\d+) block=(\d+) arnoldi matvecs=\d+ residual=", line)
    m_c, n_c = map(int, re.search(r"kernel-coarse ring rings=(\d+) of (\d+)$", line).groups())
    assert runs == [("ktilde", "3600", "180"), ("ktilde-coarse", str(rep.coarse_size), str(m_c))]
    assert m_c * n_c == rep.coarse_size
    kw, gap = spectral._kernel_operator(prob), spectral._gap(prob, rep.sup_a)
    pair, product = spectral._ktilde_pair(kw, gap)
    assert (pair.block, pair.start, pair.iterations) == (180, "arnoldi", 1)
    assert np.array_equal(pair.vector, np.repeat(pair.vector[::20], 20))
    assert np.array_equal(product, kw @ (pair.vector / gap))
    assert pair.interval == rep.lambda1_interval
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        classify_regime(gaussian_ball(4, 5, isotropic=False), confirm=True)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert "ktilde n=" in line and "block=" not in line


@pytest.mark.parametrize("k", [800, -800])
def test_kernel_scaled_by_a_power_of_two_scales_lambda1_exactly(caplog, k):
    # Arnoldi runs on Kt scaled by a power of two read off max diag(Kt), so
    # a kernel 2^k times larger gives the same Arnoldi vector: lambda1 and
    # its interval are 2^k times the unscaled ones, bit for bit, and the
    # vector is Arnoldi's, certified at once, even where an unscaled step
    # would overflow (2^800 ~ 7e240) or lose its digits
    base = classify_regime(gaussian_ball(6, 8), confirm=False)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(gaussian_ball(6, 8, amplitude=0.15 * 2.0**k), confirm=False)
    assert rep.lambda1 == math.ldexp(base.lambda1, k)
    assert rep.lambda1_interval == tuple(math.ldexp(x, k) for x in base.lambda1_interval)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert re.search(r"perron: ktilde n=\d+ block=\d+ arnoldi matvecs=\d+ residual=", line)
    assert "fallback=power" not in line


def test_factor_passes_the_nodes_once_in_fortran_order():
    # every panel of full factor rows is evaluated against one Fortran-order
    # copy of the nodes, so the Gaussian's np.asfortranarray copies nothing;
    # the factor has the same bits as when each panel gets C-order nodes
    seen = []

    def recording(evaluate):
        def ev(x, y):
            seen.append((x.shape[0], y))
            return evaluate(x, y)
        return ev

    def c_order(evaluate):
        return lambda x, y: evaluate(x, np.ascontiguousarray(y))

    prob = gaussian_ball(5, 6, recording)
    seen.clear()                    # drop the validation samples
    kw = spectral._factor(prob)
    full = [(k, y) for k, y in seen if y.shape[0] == prob.grid.size]
    rows = [y for _, y in full]
    assert sum(k for k, _ in full) == kw.rank > spectral._FACTOR_BLOCK
    assert len(rows) == kw.panels < kw.rank
    assert all(y is rows[0] for y in rows)
    assert np.asfortranarray(rows[0]) is rows[0]
    kw_c = spectral._factor(gaussian_ball(5, 6, c_order))
    assert [b.shape for b in kw.factor] == [b.shape for b in kw_c.factor]
    assert all(np.array_equal(a, b) for a, b in zip(kw.factor, kw_c.factor))
    assert np.array_equal(kw.root_remainder, kw_c.root_remainder)


# -- the factored K W against the dense oracle ----------------------------

def dense_twin(prob):
    # custom_kernel carries no positive-definite claim: the dense K W
    kernel = custom_kernel(prob.kernel.evaluate, prob.kernel.positivity_witness)
    return Problem(prob.domain, kernel, prob.coeff, prob.grid)


def dense_lambda1(prob, a0):
    # Kt is similar to S K S, S = sqrt(w / (a0 - a))
    nodes = prob.grid.nodes
    s = np.sqrt(prob.grid.weights / (a0 - prob.a_at_nodes))
    return np.linalg.eigh(s[:, None] * prob.kernel.evaluate(nodes, nodes) * s[None, :])[0][-1]


def lift_rank_cap(mp):
    # at resolution 4 a Gaussian narrower than width 0.6 needs more than
    # 8 sqrt(N) rows
    mp.setattr(spectral, "_FACTOR_CAP", 10**6)


# eigh and the factored matvec agree to round-off; the intervals are
# certified on the discrete operator, not on floating-point arithmetic
ROUND = 64 * np.finfo(float).eps


@pytest.mark.parametrize("make, regime, atom", [
    (lambda: ball_problem(0.1, resolution=5, depth=5), "continuous", None),
    (lambda: ball_problem(0.05, resolution=5, depth=5), "singular", CENTER3),
    (lambda: cylinder_problem(0.1, resolution=4, depth=5), "singular", (0.0, 0.0, 0.5)),
    (lambda: gaussian_ball(5, 5, amplitude=0.05, isotropic=False), "singular", CENTER3),
    (lambda: gaussian_ball(4, 5, isotropic=False), "continuous", None),
], ids=["ball-constant-continuous", "ball-constant-singular", "cylinder-constant",
        "gaussian-0.05", "gaussian-0.15"])
def test_factor_matches_dense_oracle(make, regime, atom):
    prob = make()
    dense = dense_twin(prob)
    kw = spectral._kernel_operator(prob)
    assert kw.dense is None
    assert spectral._kernel_operator(dense).dense is not None
    if prob.kernel.family == "constant":
        assert kw.rank == 1 and kw.root_remainder is None
        assert kw.slack(np.ones(prob.grid.size)) == 0.0
    rep = classify_regime(prob, confirm=False)
    rep_d = classify_regime(dense, confirm=False)
    assert rep.regime == rep_d.regime == regime
    # the factored intervals contain the dense eigenvalues, and overlap the
    # dense path's own certificates
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    assert max(lo, rep_d.lambda1_interval[0]) <= min(hi, rep_d.lambda1_interval[1]) + ROUND
    # the dense twin's Kt run applies the dense K W, not the factor
    lo, hi = rep_d.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    mu = dense_top_eigenvalue(prob)
    lo, hi = rep.lambda_p_interval
    assert lo - ROUND <= -mu <= hi + ROUND
    assert max(lo, rep_d.lambda_p_interval[0]) <= min(hi, rep_d.lambda_p_interval[1]) + ROUND
    if atom is not None:
        # the density factor g = (a0 - a) f, a0 = a(atom)
        gap = float(prob.coeff.evaluate(np.array([atom]))[0]) - prob.a_at_nodes
        g = build_singular_solution(prob, [(atom, 1.0)]).density_values * gap
        g_d = build_singular_solution(dense, [(atom, 1.0)]).density_values * gap
        assert np.max(np.abs(g - g_d)) <= 1e-10 * np.max(np.abs(g_d))


@settings(max_examples=15, deadline=None)
@given(amplitude=st.floats(0.02, 0.3), width=st.floats(0.5, 2.0))
def test_factored_lambda_p_contains_dense_eigh(amplitude, width):
    prob = build_problem(
        Ball(center=CENTER3, radius=1.0), factor_only(gaussian_kernel(amplitude, width)),
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=4, grading=GradeSpec(targets=(CENTER3,), depth=5),
    )
    with pytest.MonkeyPatch.context() as mp:
        lift_rank_cap(mp)
        assert spectral._kernel_operator(prob).dense is None
        rep = classify_regime(prob, confirm=False)
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    assert hi - lo <= 1e-10
    sw = np.sqrt(prob.grid.weights)
    nodes = prob.grid.nodes
    sym = sw[:, None] * prob.kernel.evaluate(nodes, nodes) * sw[None, :]
    sym[np.diag_indices_from(sym)] += prob.a_at_nodes
    mu = np.linalg.eigh(sym)[0][-1]
    lo, hi = rep.lambda_p_interval
    assert lo - ROUND <= -mu <= hi + ROUND
    if rep.regime == "continuous":
        assert hi - lo <= 1e-10


def top_real_eigenvalue(entries):
    # the Perron root: real, and of largest real part
    return float(np.max(np.linalg.eigvals(entries).real))


@settings(max_examples=15, deadline=None)
@given(amplitude=st.floats(0.15, 0.3), width=st.floats(1.0, 2.0),
       beta=st.floats(-0.9, 0.9))
def test_non_symmetric_kernel_intervals_contain_dense_eigvals(amplitude, width, beta):
    # Gaussian x (1 + beta y_1) is positive on the unit ball and, for
    # beta != 0, K(x, y) != K(y, x); the dense K W goes through Arnoldi
    gauss = gaussian_kernel(amplitude, width)
    kernel = custom_kernel(lambda x, y: gauss.evaluate(x, y) * (1.0 + beta * y[:, 0]))
    prob = build_problem(
        Ball(center=CENTER3, radius=1.0), kernel,
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=4, grading=GradeSpec(targets=(CENTER3,), depth=5),
    )
    rep = classify_regime(prob, confirm=False)
    assert rep.regime == "continuous"
    lam1 = top_real_eigenvalue(assemble_ktilde(prob, rep.sup_a))
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    mu = top_real_eigenvalue(assemble_full(prob))
    lo, hi = rep.lambda_p_interval
    assert lo - ROUND <= -mu <= hi + ROUND
    assert hi - lo <= 1e-10
    est = estimate_lambda_p(prob)
    lo, hi = est.interval
    assert lo - ROUND <= -mu <= hi + ROUND
    assert est.value == lo and hi - lo <= 1e-10
    # tens of Arnoldi matvecs, where power iteration takes about 1,100 steps
    assert est.iterations <= 100


# -- the lambda_p root against the dense oracle ---------------------------

def scaled_problem(family, width, beta, resolution):
    # the unit-amplitude kernel of the family on a graded ball, and a maker
    # of the same problem with the kernel scaled by an amplitude
    base = ball_problem(1.0, resolution=resolution, depth=5)
    if family == "constant":
        make = constant_kernel
    elif family == "gaussian":
        def make(amplitude):
            return gaussian_kernel(amplitude, width)
    else:
        def make(amplitude):
            gauss = gaussian_kernel(amplitude, width)
            return custom_kernel(lambda x, y: gauss.evaluate(x, y) * (1.0 + beta * y[:, 0]))
    return lambda amplitude: Problem(base.domain, make(amplitude), base.coeff, base.grid)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["constant", "gaussian", "non-symmetric"]),
       width=st.floats(0.7, 2.0), beta=st.floats(-0.9, 0.9),
       resolution=st.integers(4, 5), side=st.sampled_from([-1.0, 1.0]),
       near=st.booleans(), distance=st.floats(0.0, 1.0))
def test_lambda_p_root_contains_dense_eigvals(family, width, beta, resolution,
                                               side, near, distance):
    # lambda1 is linear in the kernel's amplitude, so the amplitude puts it
    # on either side of one: far from it, or within 1.1-3 tol_classify of it
    # and still outside the l1 band.  -max Re eigvals of the assembled full
    # operator lies in lambda_p_interval, lambda_p is its lower end, and
    # estimate_lambda_p, on its own bracket, passes the same checks
    tol = spectral._TOL_CLASSIFY
    make = scaled_problem(family, width, beta, resolution)
    unit = top_real_eigenvalue(assemble_ktilde(make(1.0), 1.0))
    offset = tol * (1.1 + 1.9 * distance) if near else 0.05 + 0.6 * distance
    prob = make((1.0 + side * offset) / unit)
    rep = classify_regime(prob, confirm=False)
    assert rep.regime == ("continuous" if side > 0 else "singular")
    mu = top_real_eigenvalue(assemble_full(prob))
    lo, hi = rep.lambda_p_interval
    assert lo - 1e-12 <= -mu <= hi + 1e-12
    assert rep.lambda_p == lo
    assert hi - lo <= (1e-10 if side > 0 else tol / 10)
    est = estimate_lambda_p(prob)
    lo, hi = est.interval
    assert lo - 1e-12 <= -mu <= hi + 1e-12
    assert est.value == lo and hi - lo <= 1e-10


def test_lambda_p_root_budget_raises(monkeypatch):
    # a root that has not reached its width after _ROOT_STEPS B(mu) solves
    # raises instead of running on; the Kt pair is step 0 and free
    prob = ball_problem(0.1, resolution=4, depth=4)
    monkeypatch.setattr(spectral, "_ROOT_STEPS", 2)
    with pytest.raises(IterationLimitError, match="after 2 solves"):
        classify_regime(prob, confirm=False)
    with pytest.raises(IterationLimitError, match="after 2 solves"):
        estimate_lambda_p(prob)


@pytest.mark.parametrize("make", [lambda: gaussian_ball(5, 6), lambda: ball_problem(0.1)],
                         ids=["gaussian", "constant"])
def test_lambda_p_root_steps_in_sqrt_gap(caplog, make):
    # near the quadratic maximum of a, f(mu) - f(max a) behaves like
    # sqrt(mu - max a), so Newton takes its step in that variable: four
    # B(mu) solves here, where steps in mu took six
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(make(), confirm=False)
    assert rep.regime == "continuous"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert int(re.search(r"; root steps=(\d+) ", line).group(1)) <= 4


@pytest.mark.parametrize("proposal", ["below-max-a", "at-max-a"])
@pytest.mark.parametrize("make", [
    lambda: cylinder_problem(0.155, resolution=4, depth=6),
    lambda: gaussian_ball(4, 5, width=0.7),
], ids=["cylinder-singular", "gaussian-continuous"])
def test_lambda_p_root_step_outside_bracket_bisects(monkeypatch, make, proposal):
    # a step rule that proposes mu <= max a, as an unguarded secant once did,
    # is replaced by bisection: every B(mu) solve keeps mu - a > 0 and finite
    # similarity weights, and the bracket still holds the dense eigenvalue
    def step(mu, gap, weights, pair):
        return mu - (2.0 * float(np.max(gap)) if proposal == "below-max-a"
                     else float(np.min(gap)))

    real = spectral._ktilde_pair
    gaps = []

    def checked(kw, gap, *args, **kwargs):
        gaps.append(float(np.min(gap)))
        assert np.all(np.isfinite(np.sqrt(kw.weights / gap)))
        return real(kw, gap, *args, **kwargs)

    monkeypatch.setattr(spectral, "_newton", step)
    monkeypatch.setattr(spectral, "_ktilde_pair", checked)
    prob = make()
    with pytest.MonkeyPatch.context() as mp:
        lift_rank_cap(mp)
        rep = classify_regime(prob, confirm=False)
    assert rep.regime in ("singular", "continuous")
    assert len(gaps) > 2 and min(gaps) > 0
    mu = top_real_eigenvalue(assemble_full(prob))
    lo, hi = rep.lambda_p_interval
    assert lo - 1e-12 <= -mu <= hi + 1e-12
    assert rep.lambda_p == lo


def test_factor_blocks_of_unequal_height_match_dense_oracle(monkeypatch):
    # later blocks of 70 rows: the rank-144 factor spans 64 + 70 + 10 rows
    prob = gaussian_ball(5, 6, isotropic=False)
    n = prob.grid.size
    monkeypatch.setattr(spectral, "_FACTOR_BLOCK_BYTES", 8 * 70 * n + 1)
    kw = spectral._kernel_operator(prob)
    heights = [rows.shape[0] for rows in kw.factor]
    assert len(heights) >= 3 and heights[:2] == [64, 70]
    assert len(set(heights)) == len(heights)
    dense = spectral._kernel_operator(dense_twin(prob))
    assert dense.dense is not None
    rng = np.random.default_rng(7)
    for v in (np.ones(n), rng.uniform(0.1, 1.0, n), rng.standard_normal(n)):
        exact = dense @ v
        err = np.abs(kw @ v - exact)
        assert np.all(err <= kw.slack(v) + ROUND * np.max(np.abs(exact)))
    # the slack's remainder diagonal is that of K - L L^T
    nodes = prob.grid.nodes
    lt = np.vstack(kw.factor)
    phi0 = prob.kernel.evaluate(nodes[:1], nodes[:1])[0, 0]
    remainder = np.diagonal(prob.kernel.evaluate(nodes, nodes) - lt.T @ lt)
    assert np.max(np.abs(kw.root_remainder ** 2 - remainder)) <= ROUND * phi0


def test_factor_storage_checked_as_it_grows(monkeypatch):
    # the budget is lowered to one 64-row block, so nothing large is built;
    # the problems are built first, since a grid's own check asks more per
    # node than one such block
    prob = gaussian_ball(5, 6, isotropic=False)
    constant = ball_problem(0.1, resolution=5, depth=6)
    n = prob.grid.size
    assert spectral._kernel_operator(prob).rank > spectral._FACTOR_BLOCK
    monkeypatch.setattr(geometry, "_memory_budget", lambda: 8 * spectral._FACTOR_BLOCK * n)
    assert spectral._kernel_operator(constant).rank == 1
    with pytest.raises(TooLargeError, match="kernel factor"):
        spectral._kernel_operator(prob)


def test_ring_blocks_checked_before_they_allocate(monkeypatch):
    # the ring blocks take 8 (ring // 2 + 1) m^2 bytes, m rings, checked
    # before any kernel row is evaluated
    rows, counting = row_counter()
    prob = gaussian_ball(5, 6, counting)
    n, ring = prob.grid.size, prob.grid.ring
    need = 8 * (ring // 2 + 1) * (n // ring) ** 2
    before = rows[n]
    monkeypatch.setattr(geometry, "_memory_budget", lambda: need - 1)
    with pytest.raises(TooLargeError, match="ring blocks"):
        spectral._kernel_operator(prob)
    assert rows[n] == before
    monkeypatch.setattr(geometry, "_memory_budget", lambda: need)
    assert spectral._kernel_operator(prob).blocks.nbytes == need


def test_hopeless_factor_given_up_at_half_the_cap():
    # a Gaussian of width 0.3 at resolution 4 needs more rows than the cap,
    # and at half the cap its remainder is still far from the tolerance:
    # the factor stops there, after cap // 2 kernel rows
    rows, counting = row_counter()
    prob = gaussian_ball(4, 5, counting, width=0.3)
    n = prob.grid.size
    cap = int(spectral._FACTOR_CAP * math.sqrt(n))
    before = rows[n]
    assert spectral._factor(prob) is None
    assert rows[n] - before == cap // 2
    # at width 1 the remainder keeps pace and the factor finishes
    assert cap // 2 < spectral._kernel_operator(gaussian_ball(4, 5, isotropic=False)).rank <= cap


def greedy_reference(prob, rtol=spectral._FACTOR_RTOL):
    # the one-row-per-pivot greedy factor: each step takes the first node of
    # largest remainder and evaluates its whole kernel row; it stops, gives
    # up at half the cap and stops at the cap as _factor does.  Returns the
    # pivots and L^T, or the pivots and None where it gives up
    nodes = prob.grid.nodes
    n = nodes.shape[0]
    cap = min(n, int(spectral._FACTOR_CAP * math.sqrt(n)))
    phi0 = prob.kernel.evaluate(nodes[:1], nodes[:1])[0, 0]
    remainder = np.full(n, phi0)
    lt = np.empty((0, n))
    pivots = []
    while True:
        p = int(np.argmax(remainder))
        if pivots and remainder[p] <= rtol * phi0:
            return pivots, lt
        if len(pivots) == cap or (len(pivots) == cap // 2 and
                                  remainder[p] > rtol ** spectral._FACTOR_PACE * phi0):
            return pivots, None
        c = prob.kernel.evaluate(nodes[p:p + 1], nodes)[0] - lt[:, p] @ lt
        remainder -= c * (c / c[p])
        lt = np.vstack([lt, c / np.sqrt(c[p])])
        pivots.append(p)


def factor_pivots(prob):
    # _factor, and its pivots in order, read off the full rows it evaluates
    nodes = prob.grid.nodes
    seen = []

    def ev(x, y):
        if y.shape[0] == nodes.shape[0]:
            seen.extend(int(np.flatnonzero((nodes == row).all(axis=1))[0]) for row in x)
        return prob.kernel.evaluate(x, y)

    # replace drops the positive-definite claim of the built-in family
    kernel = model._positive_definite(dataclasses.replace(prob.kernel, evaluate=ev))
    recorded = Problem(prob.domain, kernel, prob.coeff, prob.grid)
    seen.clear()                        # drop the validation samples
    return spectral._factor(recorded), seen


@pytest.mark.parametrize("make", [
    lambda: gaussian_ball(5, 6),
    lambda: build_problem(Ball(center=CENTER3, radius=1.0), gaussian_kernel(0.15, 1.5),
                          radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
                          resolution=6),
    lambda: ball_problem(0.1, resolution=5, depth=6),
    lambda: gaussian_ball(6, 6, width=0.8),
], ids=["graded", "ungraded", "constant", "cap"])
def test_factor_pivots_match_one_row_greedy(make):
    # panels keep the greedy order: _factor takes the pivots of the one-row
    # reference, in order, to the same rank.  The ungraded grid ties at
    # every node at the start and at two mirror nodes later, and both break
    # a tie toward the first node.  Where only rounding separates two
    # remainders, gemm and gemv may round them apart either way; these grids
    # have no such near-tie.  The width-0.8 factor stops at the cap, having
    # evaluated exactly cap rows
    prob = make()
    kw, pivots = factor_pivots(prob)
    expected, lt = greedy_reference(prob)
    assert pivots == expected
    if lt is None:
        n = prob.grid.size
        assert kw is None and len(pivots) == int(spectral._FACTOR_CAP * math.sqrt(n))
        return
    assert kw.rank == len(expected) and kw.panels <= kw.rank
    # the remainder diagonal is that of K - L L^T, K(x, x) = phi0
    rows = np.vstack(kw.factor)
    nodes = prob.grid.nodes
    phi0 = prob.kernel.evaluate(nodes[:1], nodes[:1])[0, 0]
    exact = phi0 - np.einsum("ij,ij->j", rows, rows)
    held = 0.0 if kw.root_remainder is None else kw.root_remainder ** 2
    assert np.max(np.abs(held - exact)) <= ROUND * phi0


def test_factor_holds_one_panel_beside_its_rows():
    # beyond the blocks it returns, a factor holds a panel's b kernel rows
    # in flight with the kernel's scratch (2 b N doubles), the candidates'
    # gathered columns ((r + b) m doubles) and O(N) vectors: the nodes in
    # Fortran order, the remainder and a row update's temporaries.  On the
    # bench Gaussian (N = 3600, rank 338, d = 3) that bound is 972,416
    # bytes, and the build peaks 591,824 bytes above its blocks
    prob = gaussian_ball(10, 12)
    n, d = prob.grid.nodes.shape
    tracemalloc.start()
    try:
        kw = spectral._factor(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(rows.nbytes if rows.base is None else rows.base.nbytes for rows in kw.factor)
    b, m = spectral._FACTOR_PANEL, n // spectral._FACTOR_CANDIDATES
    assert peak - held <= 8 * (2 * b * n + (kw.rank + b) * m + (d + 4) * n)


def test_dense_kernel_weights_hold_one_slab():
    # each kernel slab is scaled straight into K W, so one 512-row slab
    # (0.27 of K W at N = 1920) exists beside it, not a slab and its product
    prob = dense_twin(gaussian_ball(8, 10))
    n = prob.grid.size
    assert n == 1920
    tracemalloc.start()
    try:
        entries = spectral._kernel_weights(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 8 * n * n
    nodes = prob.grid.nodes
    assert np.array_equal(entries, prob.kernel.evaluate(nodes, nodes) * prob.grid.weights)


# -- the ring blocks against the dense oracle -------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_blocks_match_dense_kernel_weights(data):
    # disks and balls off the origin, and cylinders, graded or not: the ring
    # blocks apply K W as the dense array does, to round-off of |K W| |v|,
    # with the same diagonal bit for bit.  classify runs on them where it
    # runs on the dense twin (a narrow kernel on a coarse mesh can exhaust
    # the power loop on both), and lambda1's certified interval holds the
    # dense eigenvalue, at round-off width where the mesh resolves the
    # kernel's positivity radius; on coarser meshes the certificate's lower
    # end is loose on every backend
    kind = data.draw(st.sampled_from(["disk", "ball", "cylinder"]))
    resolution = data.draw(st.integers(2, 8))
    depth = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    kernel = gaussian_kernel(data.draw(st.floats(0.05, 2.0)),
                             data.draw(st.floats(0.05, 2.0)))
    radius = data.draw(st.floats(0.5, 2.0))
    if kind == "cylinder":
        domain = Cylinder(radius=radius, height=data.draw(st.floats(0.5, 2.0)))
        center, target = (0.0, 0.0, 0.0), AXIS
        coeff = radial_power(1.0, 1.0, 1.0, center, axes=(0, 1))
    else:
        dim = 2 if kind == "disk" else 3
        center = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                                          max_size=dim)))
        domain, target = Ball(center=center, radius=radius), center
        coeff = radial_power(1.0, 1.0, 2.0, center)
    grading = None if depth is None else GradeSpec(targets=(target,), depth=depth)
    prob = build_problem(domain, kernel, coeff, resolution, grading)
    kw = spectral._kernel_operator(prob)
    assert kw.describe().startswith("ring ")
    dense = spectral._kernel_weights(prob)
    assert np.array_equal(kw.diagonal, np.diagonal(dense))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = prob.grid.size
    for v in (np.ones(n), rng.uniform(0.1, 1.0, n), rng.standard_normal(n)):
        scale = float(np.max(dense @ np.abs(v)))
        assert np.max(np.abs(kw @ v - dense @ v)) <= 1e-13 * scale
    try:
        classify_regime(dense_twin(prob), confirm=False)
    except IterationLimitError:
        with pytest.raises(IterationLimitError):
            classify_regime(prob, confirm=False)
        return
    rep = classify_regime(prob, confirm=False)
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    if prob.grid.mesh_size < prob.kernel.positivity_witness[1]:
        assert hi - lo <= 1e-13 * lam1


def dense_lambda_p(prob):
    # minus the top eigenvalue of K W + diag(a), similar to
    # sqrt(W) K sqrt(W) + diag(a)
    nodes, r = prob.grid.nodes, np.sqrt(prob.grid.weights)
    full = r[:, None] * prob.kernel.evaluate(nodes, nodes) * r[None, :]
    full[np.diag_indices_from(full)] += prob.a_at_nodes
    n = prob.grid.size
    return -float(eigh(full, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_classify_brackets_the_dense_oracle(data):
    # random ring problems, balls anywhere and cylinders with a radial
    # coefficient: K W applies as the dense array does, and classify, whose
    # Arnoldi runs on the zero-frequency block, certifies lambda1 and
    # lambda_p intervals that hold the dense eigh values (to the oracle's
    # round-off) and a density constant on every ring
    kind = data.draw(st.sampled_from(["ball", "cylinder"]))
    resolution = data.draw(st.integers(2, 6))
    depth = data.draw(st.one_of(st.none(), st.integers(1, 3)))
    kernel = gaussian_kernel(data.draw(st.floats(0.05, 2.0)), data.draw(st.floats(0.05, 2.0)))
    top, scale = data.draw(st.floats(-1.0, 2.0)), data.draw(st.floats(0.5, 2.0))
    power = data.draw(st.floats(0.5, 3.0))
    if kind == "cylinder":
        domain, center, target = Cylinder(radius=1.0, height=1.0), CENTER3, AXIS
        coeff = radial_power(top, scale, power, center, axes=(0, 1))
    else:
        center = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
        domain, target = Ball(center=center, radius=data.draw(st.floats(0.5, 2.0))), center
        coeff = radial_power(top, scale, power, center)
    grading = None if depth is None else GradeSpec(targets=(target,), depth=depth)
    prob = build_problem(domain, kernel, coeff, resolution, grading)
    kw = spectral._kernel_operator(prob)
    assert kw.describe().startswith("ring ")
    dense = spectral._kernel_weights(prob)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for v in (rng.uniform(0.1, 1.0, prob.grid.size), rng.standard_normal(prob.grid.size)):
        assert np.max(np.abs(kw @ v - dense @ v)) <= 1e-13 * float(np.max(dense @ np.abs(v)))
    try:
        rep = classify_regime(prob, confirm=False)
    except IterationLimitError:
        # the power loop's known stall: only where the mesh does not resolve
        # the kernel's positivity radius, a narrow kernel on a coarse mesh
        assert prob.grid.mesh_size >= prob.kernel.positivity_witness[1]
        return
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    lam_p = dense_lambda_p(prob)
    lo, hi = rep.lambda_p_interval
    slack = ROUND * max(1.0, abs(lam_p))
    assert lo - slack <= lam_p <= hi + slack
    if rep.eigen_density is not None:
        rings = rep.eigen_density.reshape(-1, prob.grid.ring)
        spread = np.max(rings, axis=1) - np.min(rings, axis=1)
        assert np.all(spread <= 1e-12 * np.max(rings, axis=1))


def test_ring_blocks_only_for_a_coefficient_constant_on_rings():
    # a = x1 + x2 / 2 varies along every ring of the disk, and with a narrow
    # Gaussian the Perron vector spans 18 decades along one.  The ring blocks
    # round each entry to a share of its whole ring, which left the small
    # entries negative and the certificate infinite, so K W takes the factor
    # here; a radial coefficient on the same grid takes the ring blocks
    prob = build_problem(Ball(center=(0.0, 0.0), radius=1.0), gaussian_kernel(5.0, 0.05),
                         coordinate_linear((1.0, 0.5)), resolution=12)
    assert not spectral._ring_invariant(prob)
    assert spectral._kernel_operator(prob).blocks is None
    rep = classify_regime(prob, confirm=False)
    assert np.all(rep.eigen_density > 0)
    lam1 = dense_lambda1(prob, rep.sup_a)
    lo, hi = rep.lambda1_interval
    assert lo - ROUND * lam1 <= lam1 <= hi + ROUND * lam1
    radial = Problem(prob.domain, prob.kernel, radial_power(1.0, 1.0, 2.0, (0.0, 0.0)),
                     prob.grid)
    assert spectral._kernel_operator(radial).describe() == "ring rings=12 of 24"


def anisotropic_gaussian(scales):
    # a Gaussian in the metric diag(scales)^-2, given the isotropy claim
    scales = np.asarray(scales, dtype=float)

    def ev(x, y):
        d = (x[:, None, :] - y[None, :, :]) / scales
        return 0.15 * np.exp(-0.5 * np.sum(d * d, axis=2))

    kernel = model._positive_definite(custom_kernel(ev))
    object.__setattr__(kernel, "isotropic", True)
    return kernel


def test_ring_blocks_refuse_an_anisotropic_kernel():
    # the rows the build evaluates anyway show the claim false: their DFT
    # along the rings is neither real nor symmetric
    base = gaussian_ball(4, 5)
    prob = Problem(base.domain, anisotropic_gaussian((1.0, 0.5, 1.0)), base.coeff,
                   base.grid)
    with pytest.raises(H2Violation, match="^kernel is marked isotropic but "):
        spectral._kernel_operator(prob)
    with pytest.raises(H2Violation, match="^kernel is marked isotropic but "):
        classify_regime(prob, confirm=False)
    # equal scales make it the isotropic Gaussian it claims to be
    same = Problem(base.domain, anisotropic_gaussian((1.0, 1.0, 1.0)), base.coeff,
                   base.grid)
    assert spectral._kernel_operator(same).describe() == "ring rings=28 of 8"


def test_ring_blocks_refuse_nodes_shuffled_within_a_ring():
    # a hand-built grid that claims rings whose nodes are not in rotation
    # order: the Gaussian is isotropic, but K W is not block-circulant
    base = gaussian_ball(4, 5)
    grid = base.grid
    n = grid.ring
    rng = np.random.default_rng(3)
    order = np.concatenate([start + rng.permutation(n) for start in range(0, grid.size, n)])
    shuffled = geometry.Grid(grid.nodes[order], grid.weights[order], grid.mesh_size,
                             grid.domain, grid.resolution, grid.grading,
                             grid.grade_spans, ring=n)
    prob = Problem(base.domain, base.kernel, base.coeff, shuffled)
    with pytest.raises(H2Violation, match="^kernel is marked isotropic but "):
        spectral._kernel_operator(prob)
    # without the isotropy claim the same grid takes the factor
    plain = Problem(base.domain, factor_only(base.kernel), base.coeff, shuffled)
    assert spectral._kernel_operator(plain).rank > 0


def test_dense_fallback_checked_before_it_allocates(monkeypatch):
    # past the rank cap the Gaussian falls back to dense K W; only then are
    # 8 N^2 bytes needed, so the problem itself still builds
    prob = gaussian_ball(4, 5, width=0.3, isotropic=False)
    n = prob.grid.size
    assert spectral._factor(prob) is None
    monkeypatch.setattr(geometry, "_memory_budget", lambda: 8 * n * n - 1)
    prob = Problem(prob.domain, prob.kernel, prob.coeff, prob.grid)
    with pytest.raises(TooLargeError, match="dense operator"):
        spectral._kernel_operator(prob)
    with pytest.raises(TooLargeError):
        Problem(prob.domain, dense_twin(prob).kernel, prob.coeff, prob.grid)
    monkeypatch.setattr(geometry, "_memory_budget", lambda: 8 * n * n)
    assert spectral._kernel_operator(prob).dense is not None


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(1e-3, 1e3), rows=st.integers(1, 2 * spectral._BLOCK + 40),
       cols=st.integers(1, 300), dim=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_constant_structured_apply_matches_slab_matmul(rho, rows, cols, dim, seed):
    # rho * sum(x) is the slab product's sum rounded once, so the two agree
    # to the slab's own round-off, a few ulps of rho * sum(|x|)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (rows, dim))
    y = rng.uniform(-1.0, 1.0, (cols, dim))
    v = rng.standard_normal(cols) * 10.0 ** rng.uniform(-3.0, 3.0, cols)
    kernel = constant_kernel(rho)
    slab = spectral._kernel_slabs(kernel, x, y,
                                  lambda block, out: np.matmul(block, v, out=out),
                                  np.empty(rows))
    fast = spectral._kernel_apply(kernel, x, y, v)
    assert fast.shape == (rows,)
    tol = 8 * np.finfo(float).eps * rho * float(np.sum(np.abs(v)))
    assert np.max(np.abs(fast - slab)) <= tol


def test_kernel_apply_follows_evaluate_without_structured_apply():
    # a replaced evaluate, or a custom kernel named "constant", takes the
    # slab loop: the apply goes by the structured apply, never by family
    rho = 0.3
    doubled = dataclasses.replace(constant_kernel(rho),
                                  evaluate=lambda x, y: np.full((len(x), len(y)), 2 * rho))
    named = custom_kernel(constant_kernel(rho).evaluate, name="constant",
                          params={"rho": rho})
    x, y, v = np.zeros((3, 2)), np.ones((4, 2)), np.arange(4.0)
    np.testing.assert_allclose(spectral._kernel_apply(doubled, x, y, v), 2 * rho * 6.0)
    calls = []
    counted = custom_kernel(lambda a, b: calls.append(1) or named.evaluate(a, b),
                            name="constant", params={"rho": rho})
    np.testing.assert_allclose(spectral._kernel_apply(counted, x, y, v), rho * 6.0)
    assert calls == [1]
