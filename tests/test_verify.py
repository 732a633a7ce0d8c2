"""Residual checks and refinement studies.

Constructed solutions satisfy the construction-grid equations to roundoff, so
same-grid residuals only certify the algebra.  Genuine accuracy shows up as
two-grid residuals decaying under joint grid refinement, and as residuals
jumping far above roundoff for deliberately wrong inputs.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeasure import (
    Ball,
    ConfigurationError,
    Cylinder,
    DiscreteMeasure,
    GradeSpec,
    InvalidEigenpairError,
    Segment,
    build_grid,
    build_problem,
    build_singular_solution,
    cantor_approximant,
    classify_regime,
    constant_kernel,
    custom_kernel,
    default_test_functions,
    estimate_lambda_p,
    gaussian_kernel,
    normalize,
    pointwise_residual,
    radial_power,
    refinement_study,
    span_combination,
    weak_residual,
)
from specmeasure import model
from specmeasure.measure import _atom_arrays
from specmeasure.model import _refined
from specmeasure.spectral import _BLOCK
from specmeasure.verify import _density_on

CENTER = (0.0, 0.0, 0.0)
AXIS = Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def ball_problem(rho, resolution=5, depth=8):
    dom = Ball(center=CENTER, radius=1.0)
    return build_problem(
        dom,
        constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=2.0, center=CENTER),
        resolution=resolution,
        grading=GradeSpec(targets=(CENTER,), ratio=0.5, depth=depth),
    )


def cylinder_problem(kernel, level):
    # joint refinement: both the base resolution and the grading depth grow
    dom = Cylinder(radius=1.0, height=1.0)
    return build_problem(
        dom,
        kernel,
        radial_power(top=1.0, scale=1.0, power=1.0, center=(0.0, 0.0), axes=(0, 1)),
        resolution=4 + level,
        grading=GradeSpec(targets=(AXIS,), ratio=0.5, depth=5 + level),
    )


def cylinder_factory(level):
    return cylinder_problem(gaussian_kernel(amplitude=0.2, width=0.6), level)


def axis_atom_solution(prob):
    return build_singular_solution(prob, [((0.0, 0.0, 0.5), 1.0)]), -1.0


@pytest.fixture(scope="module")
def ball05():
    return ball_problem(0.05)


@pytest.fixture(scope="module")
def ball_solution(ball05):
    rho = 0.05
    alpha = 1.0 / rho - 4.0 * math.pi * (1.0 - 0.5**9)
    return build_singular_solution(ball05, [(CENTER, alpha)])


def test_same_grid_residuals_are_roundoff(ball05, ball_solution):
    pw = pointwise_residual(ball05, ball_solution, -1.0)
    assert pw.kind == "pointwise"
    assert pw.value <= 1e-12
    wk = weak_residual(ball05, ball_solution, -1.0)
    assert wk.kind == "weak"
    assert wk.value <= 1e-12


def test_scaled_density_fails_pointwise(ball05, ball_solution):
    bad = DiscreteMeasure(
        atoms=ball_solution.atoms,
        grid=ball_solution.grid,
        density_values=1.1 * ball_solution.density_values,
    )
    report = pointwise_residual(ball05, bad, -1.0)
    assert report.value >= 1e-2


def test_wrong_eigenvalue_fails_weak(ball05, ball_solution):
    # lambda off by 0.1 shows up as exactly 0.1 against the constant function
    report = weak_residual(ball05, ball_solution, -0.9)
    assert abs(report.value - 0.1) <= 1e-12


def test_atom_eigenvalue_gate(ball05, ball_solution):
    with pytest.raises(InvalidEigenpairError):
        pointwise_residual(ball05, ball_solution, -0.9)


def test_offgrid_density_comes_from_the_data(ball05, ball_solution):
    # a measure rebuilt from its atoms, grid and values is the solution: the
    # eigen-equation gives its off-grid density, nothing else is carried
    finer = ball_problem(0.05, resolution=6).grid
    stripped = DiscreteMeasure(
        atoms=ball_solution.atoms,
        grid=ball_solution.grid,
        density_values=ball_solution.density_values,
    )
    for residual in (pointwise_residual, weak_residual):
        assert (residual(ball05, stripped, -1.0, eval_grid=finer)
                == residual(ball05, ball_solution, -1.0, eval_grid=finer))
    # without atoms there is no eigenvalue to extend the density at
    no_atoms = DiscreteMeasure(grid=ball_solution.grid,
                               density_values=ball_solution.density_values)
    with pytest.raises(ConfigurationError):
        pointwise_residual(ball05, no_atoms, -1.0, eval_grid=finer)


def test_zero_variation_rejected(ball05, ball_solution):
    combo = span_combination([ball_solution, ball_solution], [1.0, -1.0])
    with pytest.raises(ConfigurationError):
        weak_residual(ball05, combo, -1.0)


def test_default_test_functions_cover_quadratics():
    grid = build_grid(Cylinder(radius=1.0, height=1.0), resolution=3)
    fns = default_test_functions(grid)
    names = [name for name, _ in fns]
    assert names[0] == "one"
    assert {"lin0", "lin1", "lin2"} <= set(names)
    assert {"quad00", "quad12", "quad22"} <= set(names)
    assert names[-1] == "cosprod"
    assert len(names) == 11
    ones = fns[0][1](grid.nodes)
    assert np.all(ones == 1.0)
    for _, fn in fns:
        vals = fn(grid.nodes)
        assert vals.shape == (grid.size,)
        assert np.all(np.isfinite(vals))


def test_pointwise_residual_decays_under_refinement():
    rows = refinement_study(cylinder_factory(0), 3, "residual",
                            solution=axis_atom_solution,
                            residual_kind="pointwise")
    values = [r["value"] for r in rows]
    assert values[0] >= 8e-3
    for coarse, fine in zip(values, values[1:]):
        assert fine < coarse / 1.5
    assert values[-1] <= 4e-3
    assert all(r["ratio"] is None or r["ratio"] > 1.5 for r in rows)


def test_weak_residual_decays_under_refinement():
    rows = refinement_study(cylinder_factory(0), 3, "residual",
                            solution=axis_atom_solution,
                            residual_kind="weak")
    values = [r["value"] for r in rows]
    assert values[0] >= 1.5e-3
    for coarse, fine in zip(values, values[1:]):
        assert fine < coarse / 1.5
    assert values[-1] <= 1e-3


def test_cantor_solution_residual_decays():
    mu0 = cantor_approximant(AXIS, level=3)

    def solution(prob):
        return build_singular_solution(prob, mu0), -1.0

    rows = refinement_study(cylinder_factory(0), 3, "residual",
                            solution=solution, residual_kind="weak")
    values = [r["value"] for r in rows]
    for coarse, fine in zip(values, values[1:]):
        assert fine < coarse / 1.4
    assert values[-1] <= 1e-3


def test_residual_study_builds_no_problem_for_its_reference_grid(monkeypatch):
    # the reference grid is only evaluated on, so the study's problems are
    # its three levels; the grid of level 3 is built without one
    sizes = []
    init = model.Problem.__post_init__

    def counted(self):
        sizes.append(self.grid.size)
        init(self)

    monkeypatch.setattr(model.Problem, "__post_init__", counted)
    base = cylinder_factory(0)
    rows = refinement_study(base, 3, "residual", solution=axis_atom_solution)
    assert sizes == [row["size"] for row in rows]
    assert all(r["value"] > 0 for r in rows)


def test_lambda1_study_halves_depth_error():
    # with the depth growing one step per level the value error halves
    base = ball_problem(0.05, resolution=4, depth=4)
    rows = refinement_study(base, 3, "lambda1")
    rho = 0.05
    for level, row in enumerate(rows):
        expected = rho * 4.0 * math.pi * (1.0 - 0.5 ** (5 + level))
        assert row["value"] == pytest.approx(expected, rel=1e-10)
        assert row["level"] == level
        assert row["size"] == _refined(base, level).grid.size
    assert rows[2]["ratio"] == pytest.approx(2.0, rel=1e-6)


def test_recip_integral_study_converges_to_ball_value():
    rows = refinement_study(ball_problem(0.05, resolution=4, depth=6), 3,
                            "recip_integral")
    for level, row in enumerate(rows):
        expected = 4.0 * math.pi * (1.0 - 0.5 ** (7 + level))
        assert row["value"] == pytest.approx(expected, rel=1e-9)
    assert rows[2]["ratio"] == pytest.approx(2.0, rel=1e-6)



def test_recip_integral_study_sums_on_the_level_grids(monkeypatch):
    # the sums run on each level's own graded grid and toward its targets:
    # no probe grid, no second graded grid beside it, no re-detection
    base = ball_problem(0.05, resolution=5, depth=6)
    builds, detections = [], []
    build, detect = model.build_grid, model.detect_argmax_set
    monkeypatch.setattr(model, "build_grid",
                        lambda *a, **k: builds.append(1) or build(*a, **k))
    monkeypatch.setattr(model, "detect_argmax_set",
                        lambda *a, **k: detections.append(1) or detect(*a, **k))
    rows = refinement_study(base, 3, "recip_integral")
    assert len(builds) == 2 and detections == []
    for level, row in enumerate(rows):
        assert row["value"] == pytest.approx(
            4.0 * math.pi * (1.0 - 0.5 ** (7 + level)), rel=1e-9)


@pytest.mark.parametrize("quantity", ["residual", "lambda1"])
def test_study_detects_and_refines_once_per_ladder(monkeypatch, quantity):
    # level 0 detects the argmax set, refines its maximizer and marches its
    # segment; the finer levels cluster their own near-maximal nodes and
    # reuse level 0's segment, as the classification inside the solution does
    base = cylinder_problem(constant_kernel(0.05), 0)
    counts = dict.fromkeys(("detect_argmax_set", "_refine_point", "_extend_along"), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(model, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(model, name, counted)
    targets = []

    def solution(prob):
        report = classify_regime(prob, confirm=False)
        targets.append(report.argmax.targets)
        return build_singular_solution(prob, [(report.x0, 1.0)]), -report.sup_a

    rows = refinement_study(base, 3, quantity, solution=solution)
    assert counts == dict.fromkeys(counts, 1)
    assert len(rows) == 3
    assert len(targets) == (3 if quantity == "residual" else 0)
    assert len(set(targets)) <= 1


def test_lambda_p_study_reports_converged_values():
    # each row is estimate_lambda_p's certified lambda_p, the lower end of
    # its bracket, not the midpoint of a ratio interval
    base = ball_problem(0.1, resolution=4, depth=4)
    rows = refinement_study(base, 3, "lambda_p")
    for level, row in enumerate(rows):
        exact = estimate_lambda_p(_refined(base, level)).value
        assert row["value"] == pytest.approx(exact, abs=1e-12)


def test_lambda_p_study_runs_in_continuous_regime():
    rows = refinement_study(ball_problem(0.2, resolution=4, depth=4), 2, "lambda_p")
    assert len(rows) == 2
    for row in rows:
        assert isinstance(row["value"], float)
        assert row["value"] < -1.0
    assert rows[1]["delta"] is not None


def test_study_guards():
    base = ball_problem(0.05, resolution=3, depth=4)
    with pytest.raises(ConfigurationError):
        refinement_study(base, 1, "lambda1")
    with pytest.raises(ConfigurationError):
        refinement_study(base, 3, "spectral_gap")
    with pytest.raises(ConfigurationError):
        refinement_study(base, 3, "residual")

    def center_atom(prob):
        return build_singular_solution(prob, [(CENTER, 1.0)]), -1.0

    with pytest.raises(ConfigurationError):
        refinement_study(base, 2, "residual",
                         solution=center_atom,
                         residual_kind="strong")


def weak_residual_per_test_function(problem, mu, lam, grid):
    """The weak residual as first written: for each test function phi, the
    kernel term sum_x w_x phi_x K(x, y) at every node and atom y, from one
    dense K(grid, grid) block."""
    f = _density_on(problem, mu, grid)
    a_eval = problem.coeff.evaluate(grid.nodes)
    tv = mu.total_variation()
    apts, awts = _atom_arrays(mu.atoms, grid.nodes.shape[1])
    a_atoms = problem.coeff.evaluate(apts)
    katoms = problem.kernel.evaluate(grid.nodes, apts)
    kblock = problem.kernel.evaluate(grid.nodes, grid.nodes)
    worst = 0.0
    for _, fn in default_test_functions(grid):
        phi = fn(grid.nodes)
        wphi = grid.weights * phi
        phi_atoms = fn(apts)
        scale = max(np.max(np.abs(phi)), np.max(np.abs(phi_atoms)))
        val = np.sum(grid.weights * f * (wphi @ kblock + (a_eval + lam) * phi))
        val += np.sum(awts * (wphi @ katoms + (a_atoms + lam) * phi_atoms))
        worst = max(worst, abs(val) / (tv * max(1.0, scale)))
    return worst


def skewed_kernel():
    # K(x, y) != K(y, x): the single-moment form must not rely on symmetry
    def ev(x, y):
        d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
        return (1.0 + 0.5 * x[:, 2:3]) * 0.2 * np.exp(-d2 / 0.72)

    return custom_kernel(ev, positivity_witness=(0.2 * math.exp(-0.5), 0.6))


@pytest.mark.parametrize("kernel", [gaussian_kernel(0.2, 0.6), skewed_kernel()],
                         ids=["gaussian", "non-symmetric"])
def test_weak_residual_matches_per_test_function_formula(kernel):
    prob = cylinder_problem(kernel, 0)
    fine = cylinder_factory(1).grid
    mu = build_singular_solution(prob, cantor_approximant(AXIS, level=2))
    for lam, grid in ((-1.0, fine), (-0.9, fine), (-1.0, prob.grid)):
        report = weak_residual(prob, mu, lam, eval_grid=grid)
        oracle = weak_residual_per_test_function(prob, mu, lam, grid)
        assert report.value == pytest.approx(oracle, rel=1e-12, abs=1e-15)
    assert weak_residual(prob, mu, -1.0, eval_grid=fine).value >= 1e-4


@pytest.fixture(scope="module")
def cylinder_solution():
    prob = cylinder_factory(0)
    return prob, build_singular_solution(prob, [((0.0, 0.0, 0.5), 1.0)])


@settings(max_examples=20, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_residuals_are_scale_invariant(cylinder_solution, c):
    prob, mu = cylinder_solution
    scaled = normalize(mu, target=c * mu.total_mass())
    fine = cylinder_factory(1).grid
    for residual in (pointwise_residual, weak_residual):
        for grid in (None, fine):
            before = residual(prob, mu, -1.0, eval_grid=grid).value
            after = residual(prob, scaled, -1.0, eval_grid=grid).value
            assert after == pytest.approx(before, rel=1e-10, abs=1e-13)



def test_constant_kernel_residuals_evaluate_nothing_off_the_grid():
    # both residuals on a finer grid go through the constant kernel's
    # structured apply; evaluate is swapped in place, since replacing the
    # field would drop the structured apply with it
    kernel = constant_kernel(0.05)
    calls = []
    evaluate = kernel.evaluate
    object.__setattr__(kernel, "evaluate",
                       lambda x, y: calls.append(1) or evaluate(x, y))
    prob = cylinder_problem(kernel, 2)
    mu = build_singular_solution(prob, cantor_approximant(AXIS, level=3))
    fine = cylinder_problem(constant_kernel(0.05), 3).grid
    calls.clear()
    pointwise_residual(prob, mu, -1.0, eval_grid=fine)
    weak_residual(prob, mu, -1.0, eval_grid=fine)
    assert calls == []

@pytest.mark.parametrize("kernel",
                         [constant_kernel(0.05), gaussian_kernel(0.05, 1.0)],
                         ids=["constant", "gaussian"])
def test_weak_residual_holds_no_dense_block(kernel):
    # one _BLOCK-row slab per apply; the Gaussian fills its slab in place
    prob = cylinder_problem(kernel, 2)
    mu = build_singular_solution(prob, cantor_approximant(AXIS, level=3))
    grid = cylinder_problem(kernel, 3).grid
    m = grid.size
    assert m > 2 * _BLOCK
    tracemalloc.start()
    try:
        weak_residual(prob, mu, -1.0, eval_grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m
