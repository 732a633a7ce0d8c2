import dataclasses
import logging
import math
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
    ClassificationUnstableError,
    ConfigurationError,
    Cylinder,
    GradeSpec,
    Interval,
    IterationLimitError,
    Problem,
    Segment,
    SingularNodeError,
    assemble_full,
    assemble_ktilde,
    build_problem,
    classify_regime,
    collatz_wielandt_bounds,
    constant_kernel,
    coordinate_linear,
    custom_kernel,
    detect_argmax_set,
    estimate_lambda_p,
    gaussian_kernel,
    perron,
    radial_power,
    spectral,
)

CENTER3 = (0.0, 0.0, 0.0)
AXIS = Segment(start=(0.0, 0.0, 0.0), end=(0.0, 0.0, 1.0))


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
    m = assemble_full(prob, shift=0.0)
    np.testing.assert_allclose(m.entries, [[0.75, 0.5], [0.5, 1.25]])
    m2 = assemble_full(prob)
    assert m2.shift == pytest.approx(0.75)
    np.testing.assert_allclose(
        m2.entries, [[1.5, 0.5], [0.5, 2.0]]
    )


def test_assemble_ktilde_three_nodes():
    # nodes 1/6, 1/2, 5/6 with weight 1/3; K = 2, a(x) = x, a0 = a(1) = 1
    prob = build_problem(Interval(0.0, 1.0), constant_kernel(2.0),
                         coordinate_linear((1.0,)), resolution=3)
    m = assemble_ktilde(prob, (1.0,))
    row = [0.8, 4.0 / 3.0, 4.0]
    np.testing.assert_allclose(m.entries, [row, row, row], rtol=1e-14)
    assert m.a0 == pytest.approx(1.0)


def test_assemble_ktilde_rejects_singular_node():
    prob = build_problem(Interval(0.0, 1.0), constant_kernel(1.0),
                         radial_power(1.0, 1.0, 2.0, (0.125,)), resolution=4)
    with pytest.raises(SingularNodeError):
        assemble_ktilde(prob, (0.125,))


def test_assemble_ktilde_rejects_non_maximizer():
    prob = build_problem(Interval(-1.0, 1.0), constant_kernel(1.0),
                         radial_power(1.0, 1.0, 2.0, (0.0,)), resolution=4)
    with pytest.raises(ConfigurationError):
        assemble_ktilde(prob, (0.9,))


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
        pair = perron(a, tol_power=1e-13, max_iter=200_000, keep_history=True)
        eigs = np.linalg.eigvals(a)
        r = float(np.max(eigs.real))
        assert pair.value == pytest.approx(r, abs=1e-8)
        for lo, hi in pair.bounds_history:
            assert lo <= r + 1e-12
            assert hi >= r - 1e-12


def test_collatz_wielandt_bounds_contain_radius():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    lo, hi = collatz_wielandt_bounds(a, np.array([1.0, 2.0]))
    assert lo == pytest.approx(2.5)
    assert hi == pytest.approx(4.0)
    assert lo <= 3.0 <= hi


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_collatz_wielandt_bounds_bracket_eigvals(data):
    n = data.draw(st.integers(1, 30))
    entries = data.draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 10.0)))
    v = data.draw(arrays(np.float64, n, elements=st.floats(1e-3, 10.0)))
    lo, hi = collatz_wielandt_bounds(entries, v)
    r = float(np.max(np.linalg.eigvals(entries).real))
    assert lo <= r * (1 + 1e-12)
    assert hi >= r * (1 - 1e-12)


def test_perron_iteration_limit():
    a = np.array([[1.0, 1e-12], [1e-12, 1.0]])
    with pytest.raises(IterationLimitError) as exc:
        perron(a, tol_power=1e-14, max_iter=40, v0=np.array([1.0, 0.3]))
    assert exc.value.residual is not None
    assert exc.value.residual < 1.0


def test_perron_rejects_negative_matrix():
    with pytest.raises(ConfigurationError):
        perron(np.array([[1.0, -0.1], [0.2, 1.0]]))


def test_lambda1_equals_rho_times_shell_sum():
    # constant kernel: the normalized operator is rank one and its radius
    # is exactly rho * sum_j w_j / (a0 - a_j)
    prob = ball_problem(0.05, resolution=6, depth=8)
    kt = assemble_ktilde(prob, CENTER3)
    pair = perron(kt)
    ih = float(np.sum(prob.grid.weights / (1.0 - prob.a_at_nodes)))
    assert pair.value == pytest.approx(0.05 * ih, rel=1e-13)
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


def test_classify_threshold_l1():
    rho_star = 1.0 / (2 * math.pi)
    prob = cylinder_problem(rho_star, depth=12)
    rep = classify_regime(prob)
    assert rep.regime == "l1"
    assert rep.lambda_p == pytest.approx(-1.0)
    assert rep.density_norm == "mass"
    psi = rep.eigen_density
    w = prob.grid.weights
    assert float(np.sum(w * psi)) == pytest.approx(1.0, rel=1e-12)
    exact = 1.0 / (rep.a0 - prob.a_at_nodes)
    exact /= float(np.sum(w * exact))
    np.testing.assert_allclose(psi, exact, rtol=1e-10)


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


def test_classify_explicit_x0():
    rep = classify_regime(ball_problem(0.05), x0=CENTER3)
    assert rep.regime == "singular"
    assert rep.x0 == CENTER3
    assert rep.a0 == pytest.approx(1.0)
    assert rep.argmax is None


def test_classify_reports_detected_argmax_set():
    # the set x0 came from is the one a fresh detection finds on the grid
    prob = ball_problem(0.05)
    assert classify_regime(prob).argmax == detect_argmax_set(prob.coeff, prob.grid)


def dense_top_eigenvalue(prob):
    # W^1/2 K W^1/2 + diag(a) is similar to the full operator
    nodes = prob.grid.nodes
    sw = np.sqrt(prob.grid.weights)
    sym = sw[:, None] * prob.kernel.evaluate(nodes, nodes) * sw[None, :]
    sym[np.diag_indices_from(sym)] += prob.a_at_nodes
    return eigh(sym, eigvals_only=True)[-1]


def eigen_residual(entries, v):
    w = entries @ v
    lam = float(np.max(w))
    return float(np.max(np.abs(w - lam * v))) / lam


@pytest.mark.parametrize("kernel", [constant_kernel(0.1), gaussian_kernel(0.15, 1.0)],
                         ids=["constant", "gaussian"])
def test_classify_continuous_pins_full_operator_run(kernel):
    # lambda_p is the residual-converged full-operator estimate; the density
    # is a certified top eigenvector of the full operator whose ratio
    # interval is lambda_p_interval, and lambda_p matches the oracle
    prob = build_problem(
        Ball(center=CENTER3, radius=1.0), kernel,
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=6, grading=GradeSpec(targets=(CENTER3,), depth=6),
    )
    rep = classify_regime(prob)
    assert rep.regime == "continuous"
    assert rep.lambda_p == estimate_lambda_p(prob).value
    v = rep.eigen_density
    assert np.all(v > 0) and v.max() == 1.0
    full = assemble_full(prob)
    assert eigen_residual(full.entries, v) <= 1e-10
    lo, hi = collatz_wielandt_bounds(full.entries, v)
    assert rep.lambda_p_interval == (full.shift - hi, full.shift - lo)
    if kernel.family == "constant":
        mu = secular_root(prob, kernel.params["rho"])
    else:
        mu = dense_top_eigenvalue(prob)
    assert rep.lambda_p == pytest.approx(-mu, abs=1e-12)


def test_classify_continuous_custom_kernel_keeps_power_run():
    # a kernel not marked symmetric takes the cold-start power iteration,
    # bit for bit
    rho = 0.1
    kernel = custom_kernel(lambda x, y: np.full((x.shape[0], y.shape[0]), rho),
                           positivity_witness=(rho / 2, math.inf))
    base = ball_problem(rho)
    prob = Problem(base.domain, kernel, base.coeff, base.grid)
    rep = classify_regime(prob)
    assert rep.regime == "continuous"
    full = assemble_full(prob)
    pair = perron(full)
    assert np.array_equal(rep.eigen_density, pair.vector)
    assert rep.lambda_p == full.shift - pair.value
    assert rep.lambda_p == pytest.approx(-secular_root(prob, rho), abs=1e-9)


@pytest.mark.parametrize("lanczos", ["perturbed", "no-convergence"])
def test_continuous_fallback_to_power_is_certified(monkeypatch, caplog, lanczos):
    real_eigsh = spectral.eigsh

    def rough_eigsh(op, **kwargs):
        if lanczos == "no-convergence":
            kwargs.update(ncv=3, maxiter=1)
        vals, vecs = real_eigsh(op, **kwargs)
        return vals, vecs * (1.0 + 1e-6 * np.cos(np.arange(op.shape[0])))[:, None]

    monkeypatch.setattr(spectral, "eigsh", rough_eigsh)
    prob = ball_problem(0.1, resolution=5, depth=5)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(prob, tol_power=1e-14, confirm=False)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.spectral" and r.levelno == logging.INFO]
    assert len(lines) == 1 and "fallback=power" in lines[0]
    full = assemble_full(prob)
    assert eigen_residual(full.entries, rep.eigen_density) <= 2e-14
    lo, hi = rep.lambda_p_interval
    assert lo <= rep.lambda_p <= hi
    assert hi - lo <= 1e-12
    assert rep.lambda_p == pytest.approx(-secular_root(prob, 0.1), abs=1e-12)


def test_full_operator_shift_invariance():
    prob = ball_problem(0.1, resolution=4, depth=4)
    est = estimate_lambda_p(prob, tol_power=1e-12)
    shifted = build_problem(
        prob.domain, prob.kernel,
        radial_power(top=1.5, scale=1.0, power=2.0, center=CENTER3),
        resolution=4, grading=GradeSpec(targets=(CENTER3,), depth=4),
    )
    est2 = estimate_lambda_p(shifted, tol_power=1e-12)
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
    assert rep.lambda_p > -rep.a0


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


def test_classify_logs_one_info_line(caplog):
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        rep = classify_regime(ball_problem(0.05))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.spectral" and r.levelno == logging.INFO]
    assert len(lines) == 1
    line = lines[0]
    assert "regime=singular" in line
    assert f"lambda_p={rep.lambda_p:.12g}" in line
    assert "width" in line
    assert line.count("stopped_by=") == 2
    assert "ktilde-coarse" in line
    assert "bracket matvecs=1" in line


def gaussian_ball(resolution, depth, evaluate=None):
    kernel = gaussian_kernel(0.15, 1.0)
    if evaluate is not None:
        kernel = dataclasses.replace(kernel, evaluate=evaluate(kernel.evaluate))
    return build_problem(
        Ball(center=CENTER3, radius=1.0), kernel,
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER3),
        resolution=resolution, grading=GradeSpec(targets=(CENTER3,), depth=depth),
    )


def test_continuous_classify_evaluates_fine_grid_once():
    # Kt and the full operator are scalings of one K W; rows[n] counts the
    # rows evaluated against all n nodes (validation samples 96 of them)
    rows = {}

    def counting(evaluate):
        def counted(x, y):
            rows[y.shape[0]] = rows.get(y.shape[0], 0) + x.shape[0]
            return evaluate(x, y)
        return counted

    prob = gaussian_ball(6, 6, counting)
    rep = classify_regime(prob, confirm=True)
    assert rep.regime == "continuous"
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
    assert peak <= 1.3 * 8 * n * n
