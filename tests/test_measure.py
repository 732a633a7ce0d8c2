"""Singular-regime solution construction.

The constant-kernel ball problem has closed forms: the resolvent is rank one,
so the density factor g is constant, and with atom weight 1/rho - I the
solution has unit total mass and atom fraction 1 - rho * I, where I is the
grid value of the reciprocal-gap integral.
"""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmeasure import (
    Ball,
    ConfigurationError,
    Cylinder,
    DiscreteMeasure,
    GradeSpec,
    NearSingularSystemError,
    NormalizationError,
    Problem,
    Segment,
    TooLargeError,
    UnsupportedMeasureError,
    build_problem,
    build_singular_solution,
    cantor_approximant,
    cli,
    constant_kernel,
    custom_kernel,
    density_at,
    gaussian_kernel,
    geometry,
    kernel_moment,
    measure,
    model,
    normalize,
    radial_power,
    span_combination,
    spectral,
    verify,
)
from specmeasure.spectral import _kernel_operator, _ktilde_pair, assemble_ktilde

CENTER = (0.0, 0.0, 0.0)
AXIS = Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
DEPTH = 8
I_BALL = 4.0 * math.pi * (1.0 - 0.5 ** (DEPTH + 1))
I_CYL = 2.0 * math.pi * (1.0 - 0.5 ** (DEPTH + 1))


def ball_problem(rho, resolution=5, depth=DEPTH):
    dom = Ball(center=CENTER, radius=1.0)
    return build_problem(
        dom,
        constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER),
        resolution=resolution,
        grading=GradeSpec(targets=(CENTER,), ratio=0.5, depth=depth),
    )


def cylinder_problem(rho, resolution=5, depth=DEPTH):
    dom = Cylinder(radius=1.0, height=1.0)
    return build_problem(
        dom,
        constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=1.0, center=(0.0, 0.0), axes=(0, 1)),
        resolution=resolution,
        grading=GradeSpec(targets=(AXIS,), ratio=0.5, depth=depth),
    )


def density_factor(mu, problem):
    """g = (a0 - a) f on the grid, the unknown of (I - Kt) g = rhs, with
    a0 = 1 on the argmax sets of both test coefficients."""
    return mu.density_values * (1.0 - problem.a_at_nodes)


def log_fields(line):
    return dict(re.findall(r"(n|lambda1|matvecs|residual|tol_linear)[= ]([^ )]+)",
                           line))


def spy(monkeypatch, owner, name, modules):
    """Count the calls of owner.name and keep their results, through every
    module in ``modules`` that binds it."""
    original = getattr(owner, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return results


@pytest.fixture(scope="module")
def ball05():
    return ball_problem(0.05)


@pytest.fixture(scope="module")
def cyl05():
    return cylinder_problem(0.05)


def test_rank_one_constant_density_factor(ball05, monkeypatch):
    # constant kernel: rhs is constant, Kt has rank one, so g is constant
    rho = 0.05
    pairs = spy(monkeypatch, measure, "_ktilde_pair", (measure,))
    mu = build_singular_solution(ball05, [(CENTER, 1.0)])
    g = density_factor(mu, ball05)
    expected = rho / (1.0 - rho * I_BALL)
    assert abs(pairs[0][0].value - rho * I_BALL) <= 1e-13 * rho * I_BALL
    assert np.max(np.abs(g - expected)) <= 1e-12 * expected
    # (I - Kt) g - rhs = g - rho (density mass + alpha) for the constant kernel
    assert np.max(np.abs(g - rho * mu.total_mass())) <= 1e-12


def test_library_solve_does_no_classification_work(ball05, monkeypatch):
    # without a classification the builder assembles K W once, runs one
    # certified Kt Perron solve, and detects no argmax set
    modules = (cli, model, spectral, measure, verify)
    operators = spy(monkeypatch, spectral, "_kernel_operator", modules)
    pairs = spy(monkeypatch, spectral, "_ktilde_pair", modules)
    argmax = spy(monkeypatch, model, "detect_argmax_set", modules)
    build_singular_solution(ball05, [(CENTER, 1.0)])
    assert (len(operators), len(pairs), len(argmax)) == (1, 1, 0)


def test_unit_density_factor_at_special_weight(ball05):
    rho = 0.05
    alpha = 1.0 / rho - I_BALL
    mu = build_singular_solution(ball05, [(CENTER, alpha)])
    assert np.max(np.abs(density_factor(mu, ball05) - 1.0)) <= 1e-12


def test_atom_fraction_closed_form(ball05):
    rho = 0.05
    alpha = 1.0 / rho - I_BALL
    mu = build_singular_solution(ball05, [(CENTER, alpha)])
    assert mu.atoms == ((CENTER, alpha),)
    assert not mu.signed
    assert np.all(mu.density_values > 0)
    # integral of 1/(a0 - a) telescopes exactly on the graded grid
    assert abs(mu.total_mass() - 1.0 / rho) <= 1e-12 / rho
    assert abs(mu.atom_fraction() - (1.0 - rho * I_BALL)) <= 1e-12


def test_solution_scales_linearly_in_alpha(ball05):
    rng = np.random.default_rng(20240817)
    for _ in range(4):
        alpha = float(rng.uniform(0.2, 3.0))
        one = density_factor(build_singular_solution(ball05, [(CENTER, alpha)]),
                             ball05)
        two = density_factor(
            build_singular_solution(ball05, [(CENTER, 2.0 * alpha)]), ball05)
        scale = np.max(np.abs(one))
        assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * scale


def test_nystrom_extension_reproduces_grid_values(ball05):
    mu = build_singular_solution(ball05, [(CENTER, 1.0)])
    back = density_at(ball05, mu, ball05.grid.nodes)
    scale = np.max(np.abs(mu.density_values))
    assert np.max(np.abs(back - mu.density_values)) <= 1e-12 * scale


def test_nystrom_extension_rejects_argmax_point(ball05):
    mu = build_singular_solution(ball05, [(CENTER, 1.0)])
    with pytest.raises(ConfigurationError):
        density_at(ball05, mu, np.array([CENTER]))


def skewed_kernel():
    # K(x, y) != K(y, x)
    def ev(x, y):
        d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
        return (1.0 + 0.5 * x[:, 2:3]) * 0.2 * np.exp(-d2 / 0.72)

    return custom_kernel(ev, positivity_witness=(0.2 * math.exp(-0.5), 0.6))


@pytest.mark.parametrize("kernel",
                         [constant_kernel(0.05), gaussian_kernel(0.2, 0.6),
                          skewed_kernel()],
                         ids=["constant", "gaussian", "non-symmetric"])
def test_density_at_is_the_eigen_equation(kernel):
    # f(x) = (K(x, x0) alpha + K(x, nodes) (w g / (a0 - a))) / (a0 - a(x)),
    # with g = (a0 - a) f the Fredholm solution and a0 = a(x0) = 1 on the
    # cylinder axis
    base = cylinder_problem(0.05, resolution=4, depth=5)
    prob = Problem(base.domain, kernel, base.coeff, base.grid)
    x0, alpha = (0.0, 0.0, 0.5), 1.5
    mu = build_singular_solution(prob, [(x0, alpha)])
    g = density_factor(mu, prob)
    probe = np.array([[0.3, 0.1, 0.4], [0.0, -0.5, 0.9],
                      [0.7, 0.2, 0.05], [-0.2, -0.2, 0.5]])
    col = prob.grid.weights * g / (1.0 - prob.a_at_nodes)
    moment = (prob.kernel.evaluate(probe, np.array([x0])) @ np.array([alpha])
              + prob.kernel.evaluate(probe, prob.grid.nodes) @ col)
    oracle = moment / (1.0 - prob.coeff.evaluate(probe))
    got = density_at(prob, mu, probe)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_signed_reads_the_data():
    # a zero atom weight is not a negative one: the density here is positive
    prob = cylinder_problem(0.05, resolution=4, depth=6)
    mu = build_singular_solution(prob, [((0.0, 0.0, 0.25), 1.0),
                                        ((0.0, 0.0, 0.75), 0.0)])
    assert np.all(mu.density_values > 0)
    assert not mu.signed
    assert normalize(mu, target=-1.0).signed


def test_kernel_moment_constant_kernel(ball05):
    rho = 0.05
    alpha = 1.0 / rho - I_BALL
    mu = build_singular_solution(ball05, [(CENTER, alpha)])
    # integral K dmu = rho * total mass = 1 at the special weight
    km = kernel_moment(ball05, mu, ball05.grid.nodes[:7])
    assert np.max(np.abs(km - 1.0)) <= 1e-12
    atoms_only = DiscreteMeasure(atoms=(((0.0, 0.0, 0.0), 2.0),))
    km2 = kernel_moment(ball05, atoms_only, ball05.grid.nodes[:3])
    assert np.allclose(km2, 2.0 * rho, rtol=0, atol=1e-14)


def test_continuous_regime_has_no_singular_solution():
    # rho * I exceeds one here
    prob = ball_problem(0.1, resolution=4, depth=6)
    with pytest.raises(ConfigurationError):
        build_singular_solution(prob, [(CENTER, 1.0)])


def test_near_threshold_is_rejected():
    depth = 6
    rho = 1.0 / (4.0 * math.pi * (1.0 - 0.5 ** (depth + 1)))
    prob = ball_problem(rho, resolution=4, depth=depth)
    with pytest.raises(NearSingularSystemError):
        build_singular_solution(prob, [(CENTER, 1.0)])


def test_zero_weight_is_rejected(ball05):
    with pytest.raises(ConfigurationError):
        build_singular_solution(ball05, [(CENTER, 0.0)])


def test_atom_off_argmax_is_rejected(ball05):
    with pytest.raises(UnsupportedMeasureError):
        build_singular_solution(ball05, [((0.5, 0.0, 0.0), 1.0)])


def test_atom_outside_domain_is_rejected(ball05):
    with pytest.raises(UnsupportedMeasureError):
        build_singular_solution(ball05, [((2.0, 0.0, 0.0), 1.0)])


def test_atoms_of_mixed_dimension_are_rejected(ball05):
    with pytest.raises(UnsupportedMeasureError, match="same dimension"):
        build_singular_solution(ball05, [((0.0, 0.0), 1.0), ((0.0, 0.0, 0.0), 1.0)])


@pytest.mark.parametrize("kernel", [constant_kernel(0.05), gaussian_kernel(0.05, 1.0)],
                         ids=["constant", "gaussian"])
def test_points_of_another_dimension_are_rejected(kernel):
    base = ball_problem(0.05, resolution=4, depth=5)
    prob = Problem(base.domain, kernel, base.coeff, base.grid)
    mu = build_singular_solution(prob, [(CENTER, 1.0)])
    good = np.array([[0.5, 0.0, 0.0]])
    assert kernel_moment(prob, mu, good).shape == density_at(prob, mu, good).shape == (1,)
    for bad in ([[0.5, 0.0]], [[0.5, 0.0, 0.0, 0.0]], [0.5, 0.0], np.zeros((1, 3, 1))):
        for fn in (kernel_moment, density_at):
            with pytest.raises(ConfigurationError, match="coordinates"):
                fn(prob, mu, bad)


@pytest.mark.parametrize("kernel", [constant_kernel(0.05), gaussian_kernel(0.05, 1.0)],
                         ids=["constant", "gaussian"])
def test_atoms_of_another_dimension_are_rejected(kernel):
    # the constant kernel's rho * sum(x) never reads the atom coordinates
    base = ball_problem(0.05, resolution=4, depth=5)
    prob = Problem(base.domain, kernel, base.coeff, base.grid)
    flat = DiscreteMeasure(atoms=(((0.0, 0.0), 1.0),))
    for fn in (kernel_moment, density_at):
        with pytest.raises(UnsupportedMeasureError, match="atom dimension"):
            fn(prob, flat, prob.grid.nodes)


def test_prescribed_part_must_be_atomic(ball05):
    mu = build_singular_solution(ball05, [(CENTER, 1.0)])
    with pytest.raises(UnsupportedMeasureError):
        build_singular_solution(ball05, mu)


def test_cantor_approximant_level_one():
    mu = cantor_approximant(AXIS, level=1)
    assert len(mu.atoms) == 2
    pts = sorted(p[2] for p, _ in mu.atoms)
    assert pts == pytest.approx([1.0 / 6.0, 5.0 / 6.0], abs=1e-15)
    assert all(w == 0.5 for _, w in mu.atoms)


def test_cantor_approximant_counts_and_mass():
    for level in (0, 3, 5):
        mu = cantor_approximant(AXIS, level=level)
        assert len(mu.atoms) == 2**level
        assert abs(mu.total_mass() - 1.0) <= 1e-14
        for p, _ in mu.atoms:
            assert p[0] == 0.0 and p[1] == 0.0
            assert 0.0 <= p[2] <= 1.0
    with pytest.raises(ConfigurationError):
        cantor_approximant(AXIS, level=-1)


def test_cantor_solution_on_cylinder(cyl05):
    mu0 = cantor_approximant(AXIS, level=3)
    mu = build_singular_solution(cyl05, mu0)
    assert len(mu.atoms) == 8
    assert not mu.signed
    assert np.all(mu.density_values > 0)
    # same telescoping identity as the single atom: g constant
    rho = 0.05
    g = mu.density_values * (1.0 - cyl05.a_at_nodes)
    expected = rho / (1.0 - rho * I_CYL)
    assert np.max(np.abs(g - expected)) <= 1e-11 * expected


def test_span_combination_is_linear(cyl05):
    one = build_singular_solution(cyl05, [((0.0, 0.0, 0.25), 1.0)])
    two = build_singular_solution(cyl05, [((0.0, 0.0, 0.75), 1.0)])
    combo = span_combination([one, two], [2.0, -1.0])
    assert combo.signed
    weights = dict(combo.atoms)
    assert weights[(0.0, 0.0, 0.25)] == 2.0
    assert weights[(0.0, 0.0, 0.75)] == -1.0
    manual = 2.0 * one.density_values - 1.0 * two.density_values
    assert np.max(np.abs(combo.density_values - manual)) <= 1e-12
    probe = np.array([[0.3, 0.1, 0.4], [0.0, -0.5, 0.9]])
    direct = density_at(cyl05, combo, probe)
    manual_probe = 2.0 * density_at(cyl05, one, probe) \
        - 1.0 * density_at(cyl05, two, probe)
    assert np.max(np.abs(direct - manual_probe)) <= 1e-12


def test_span_cancellation_drops_atoms(cyl05):
    one = build_singular_solution(cyl05, [((0.0, 0.0, 0.25), 1.0)])
    combo = span_combination([one, one], [1.0, -1.0])
    assert combo.atoms == ()
    assert np.max(np.abs(combo.density_values)) <= 1e-15
    with pytest.raises(NormalizationError):
        normalize(combo)


def test_span_requires_matching_grids(cyl05, ball05):
    a = build_singular_solution(cyl05, [((0.0, 0.0, 0.25), 1.0)])
    b = build_singular_solution(ball05, [(CENTER, 1.0)])
    with pytest.raises(ConfigurationError):
        span_combination([a, b], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        span_combination([a], [1.0, 2.0])


def test_normalize_targets_mass(cyl05):
    mu = build_singular_solution(cyl05, [((0.0, 0.0, 0.5), 1.0)])
    unit = normalize(mu)
    assert abs(unit.total_mass() - 1.0) <= 1e-12
    assert abs(unit.atom_fraction() - mu.atom_fraction()) <= 1e-12
    scaled = normalize(mu, target=2.5)
    assert abs(scaled.total_mass() - 2.5) <= 1e-12
    # the off-grid density scales with the measure
    probe = np.array([[0.2, 0.0, 0.5]])
    ratio = density_at(cyl05, scaled, probe) / density_at(cyl05, mu, probe)
    assert abs(float(ratio[0]) - 2.5 / mu.total_mass()) <= 1e-12
    exact = DiscreteMeasure(atoms=(((0.0, 0.0, 0.25), 0.25), ((0.0, 0.0, 0.75), 0.75)))
    assert normalize(exact) is exact


def test_measure_validation():
    with pytest.raises(ConfigurationError):
        DiscreteMeasure()
    grid = ball_problem(0.05, resolution=3, depth=4).grid
    with pytest.raises(ConfigurationError):
        DiscreteMeasure(grid=grid, density_values=np.ones(grid.size + 1))
    with pytest.raises(ConfigurationError):
        DiscreteMeasure(density_values=np.ones(4))


def random_singular_problem(data):
    """A constant- or Gaussian-kernel ball or cylinder problem whose Kt
    radius is drawn from 5% of one up to just inside the solver's guard."""
    shape = data.draw(st.sampled_from(["ball", "cylinder"]))
    make = ball_problem if shape == "ball" else cylinder_problem
    unit = make(1.0, data.draw(st.integers(3, 5)), data.draw(st.integers(2, 6)))
    x0 = CENTER if shape == "ball" else (0.0, 0.0, data.draw(st.floats(0.0, 1.0)))
    radius = data.draw(st.floats(0.05, 0.995))
    if data.draw(st.sampled_from(["constant", "gaussian"])) == "constant":
        # Kt = rho 1 (w / (a0 - a))^T has radius rho * sum w / (a0 - a)
        scale = float(np.sum(unit.grid.weights / (1.0 - unit.a_at_nodes)))
        kernel = constant_kernel(radius / scale)
    else:
        # Kt is linear in the amplitude
        unit = Problem(unit.domain, gaussian_kernel(1.0, 0.6), unit.coeff, unit.grid)
        scale = _ktilde_pair(_kernel_operator(unit), 1.0 - unit.a_at_nodes)[0].value
        kernel = gaussian_kernel(radius / scale, 0.6)
    return Problem(unit.domain, kernel, unit.coeff, unit.grid), x0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_gmres_matches_dense_solve(data, caplog):
    prob, x0 = random_singular_problem(data)
    alpha = data.draw(st.floats(0.1, 10.0))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="specmeasure.measure"):
        mu = build_singular_solution(prob, [(x0, alpha)])
    rhs = kernel_moment(prob, DiscreteMeasure(atoms=((x0, alpha),)),
                        prob.grid.nodes)
    kt = assemble_ktilde(prob, 1.0)
    dense = np.linalg.solve(np.eye(kt.shape[0]) - kt, rhs)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(density_factor(mu, prob) - dense)) <= 1e-12 * scale
    # the logged residual is relative to |rhs|_inf
    line, = [r.getMessage() for r in caplog.records if r.name == "specmeasure.measure"]
    assert float(log_fields(line)["residual"]) <= 1e-12


@pytest.mark.parametrize("restart", [2, 3, 4])
def test_restarted_gmres_matches_one_cycle(monkeypatch, caplog, restart):
    # a restart of 2-4 vectors takes GMRES through further cycles, each
    # from its explicit residual, to the density that one cycle gives
    ball = ball_problem(1.0)
    prob = Problem(ball.domain, gaussian_kernel(0.05, 0.6), ball.coeff, ball.grid)
    whole = build_singular_solution(prob, [(CENTER, 1.0)]).density_values
    monkeypatch.setattr(measure, "_GMRES_RESTART", restart)
    with caplog.at_level(logging.INFO, logger="specmeasure.measure"):
        restarted = build_singular_solution(prob, [(CENTER, 1.0)]).density_values
    line, = [r.getMessage() for r in caplog.records if r.name == "specmeasure.measure"]
    assert float(log_fields(line)["lambda1"]) == pytest.approx(0.338, abs=1e-3)
    assert int(log_fields(line)["matvecs"]) > restart + 1
    assert np.max(np.abs(restarted - whole)) <= 2.5e-15 * np.max(np.abs(whole))


def test_fredholm_solve_logs_one_info_line(ball05, caplog):
    with caplog.at_level(logging.INFO, logger="specmeasure.measure"):
        build_singular_solution(ball05, [(CENTER, 1.0)])
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.measure" and r.levelno == logging.INFO]
    assert len(lines) == 1
    fields = log_fields(lines[0])
    assert int(fields["n"]) == ball05.grid.size
    assert float(fields["lambda1"]) == pytest.approx(0.05 * I_BALL, rel=1e-11)
    # Kt is rank one and the data is its Perron vector: one Krylov step
    assert 1 <= int(fields["matvecs"]) <= 3
    assert float(fields["residual"]) <= 1e-12
    assert float(fields["tol_linear"]) == 1e-10
    # the constant kernel is an exact rank-one factor
    assert lines[0].endswith("; kernel factor rank=1 remainder=0 panels=1")


def cylinder_peak(kernel):
    prob = cylinder_problem(0.05, resolution=10, depth=12)
    prob = Problem(prob.domain, kernel, prob.coeff, prob.grid)
    assert prob.grid.size == 3600
    tracemalloc.start()
    try:
        mu = build_singular_solution(prob, [((0.0, 0.0, 0.5), 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(mu.density_values > 0)
    return peak


def test_solve_holds_one_dense_array():
    # constant kernel: a rank-one factor of one 64-row block, and no N x N
    # array at all
    n = 3600
    assert cylinder_peak(constant_kernel(0.05)) <= 0.2 * 8 * n * n


def test_dense_solve_holds_one_kernel_array():
    # a kernel without the positive-definite claim takes the dense K W:
    # next to it, assembly holds two _BLOCK-row slabs (the kernel values and
    # their weighted copy), 2 * 512 / 3600 of K W
    n = 3600
    kernel = custom_kernel(constant_kernel(0.05).evaluate,
                           positivity_witness=(0.025, math.inf))
    assert cylinder_peak(kernel) <= 1.3 * 8 * n * n


def test_cantor_level_bounded_by_memory(monkeypatch):
    with pytest.raises(TooLargeError, match="physical memory"):
        cantor_approximant(AXIS, level=64)
    monkeypatch.setattr(geometry, "_memory_budget", lambda: measure._ATOM_BYTES << 3)
    assert len(cantor_approximant(AXIS, level=3).atoms) == 8
    with pytest.raises(TooLargeError):
        cantor_approximant(AXIS, level=4)
