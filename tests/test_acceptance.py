"""Acceptance gate.

Nine criteria, each printing one PASS/FAIL line (run with ``pytest -s`` to
watch them scroll).  Expected values come from closed forms: the graded-grid
reciprocal-gap integrals are 4*pi and 2*pi up to the geometric truncation
factor, constant kernels make the normalized operator rank one, and the
special atom weight 1/rho - I gives a unit density factor.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from specmeasure import (
    Ball,
    Cylinder,
    GradeSpec,
    Segment,
    assemble_ktilde,
    build_atom_solution,
    build_problem,
    build_singular_solution,
    cantor_approximant,
    classify_regime,
    cli,
    constant_kernel,
    DiscreteMeasure,
    estimate_lambda_p,
    gaussian_kernel,
    normalize,
    perron,
    pointwise_residual,
    radial_power,
    refinement_study,
    solve_fredholm,
    span_combination,
    weak_residual,
)

CENTER = (0.0, 0.0, 0.0)
AXIS = Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def run_cli(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def ball_problem(rho, resolution, depth, top=1.0):
    return build_problem(
        Ball(center=CENTER, radius=1.0),
        constant_kernel(rho),
        radial_power(top=top, scale=1.0, power=2.0, center=CENTER),
        resolution=resolution,
        grading=GradeSpec(targets=(CENTER,), ratio=0.5, depth=depth),
    )


def cylinder_problem(rho, resolution, depth):
    return build_problem(
        Cylinder(radius=1.0, height=1.0),
        constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=1.0, center=(0.0, 0.0), axes=(0, 1)),
        resolution=resolution,
        grading=GradeSpec(targets=(AXIS,), ratio=0.5, depth=depth),
    )


def test_criterion_1_ball_threshold():
    def factory(level):
        return ball_problem(0.05, resolution=5, depth=6 + level)

    rows = refinement_study(factory, 3, "recip_integral")
    final = rows[-1]["value"]
    ok = abs(final - 4.0 * math.pi) <= 0.01 * 4.0 * math.pi

    code_c, out_c = run_cli("classify", "--example", "ball", "--rho", "0.1")
    code_s, out_s = run_cli("classify", "--example", "ball", "--rho", "0.05")
    rep_c, rep_s = json.loads(out_c), json.loads(out_s)
    ok = ok and code_c == 0 and rep_c["regime"] == "continuous_eigenfunction"
    ok = ok and code_s == 0 and rep_s["regime"] == "singular_measure"
    # two-level confirmation ran: a coarse diagnostics row is present
    ok = ok and len(rep_c["diagnostics"]) == 2 and len(rep_s["diagnostics"]) == 2
    verdict(1, ok, f"ball reciprocal-gap integral {final:.4f} is within 1% of "
                   f"4pi and classification splits across rho = 1/(4pi)")


def test_criterion_2_cylinder_threshold():
    def factory(level):
        return cylinder_problem(0.05, resolution=5, depth=6 + level)

    rows = refinement_study(factory, 3, "recip_integral")
    final = rows[-1]["value"]
    ok = abs(final - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi

    code_s, out_s = run_cli("classify", "--example", "cylinder", "--rho", "0.13")
    code_c, out_c = run_cli("classify", "--example", "cylinder", "--rho", "0.20")
    ok = ok and code_s == 0 and json.loads(out_s)["regime"] == "singular_measure"
    ok = ok and code_c == 0 and json.loads(out_c)["regime"] == "continuous_eigenfunction"
    verdict(2, ok, f"cylinder reciprocal-gap integral {final:.4f} is within 1% "
                   f"of 2pi and classification flips across rho = 1/(2pi)")


def test_criterion_3_atom_weight():
    code, out = run_cli("solve", "--example", "ball", "--rho", "0.05")
    measure = json.loads(out)["eigenobject"]
    i_h = 4.0 * math.pi * (1.0 - 0.5**9)
    weight = measure["atoms"][0]["weight"]
    ok = code == 0 and len(measure["atoms"]) == 1
    ok = ok and abs(weight - (1.0 / 0.05 - i_h)) <= 1e-10 * weight
    reference = (1.0 / 0.05 - 4.0 * math.pi) * 0.05
    fraction = measure["atom_fraction"]
    ok = ok and abs(fraction - reference) <= 0.02 * reference
    verdict(3, ok, f"atom weight {weight:.6f} equals 1/rho - I_h and the atom "
                   f"fraction {fraction:.4f} is within 2% of {reference:.4f}")


def test_criterion_4_rank_one_oracle():
    rng = np.random.default_rng(20260819)
    ok = True
    worst = 0.0
    cases = [(shape, None) for shape in ("ball", "cylinder") for _ in range(12)]
    cases += [("ball", 1.0), ("cylinder", 1.0)]
    for shape, forced_u in cases:
        resolution = int(rng.integers(3, 6))
        depth = int(rng.integers(4, 8))
        u = float(rng.uniform(0.05, 1.0)) if forced_u is None else forced_u
        if shape == "ball":
            i_exact = 4.0 * math.pi * (1.0 - 0.5 ** (depth + 1))
            prob = ball_problem(u / i_exact, resolution, depth)
            x0 = CENTER
        else:
            i_exact = 2.0 * math.pi * (1.0 - 0.5 ** (depth + 1))
            prob = cylinder_problem(u / i_exact, resolution, depth)
            x0 = (0.0, 0.0, 0.5)
        lam1 = perron(assemble_ktilde(prob, x0, a0=1.0), value_tol=None).value
        worst = max(worst, abs(lam1 - u) / u)
        ok = ok and abs(lam1 - u) <= 1e-6 * u
        ok = ok and lam1 <= 1.0 + 1e-3
    verdict(4, ok, f"lambda1 equals rho*I_h on {len(cases)} random configs "
                   f"(worst relative error {worst:.2e}) and never exceeds 1 + 1e-3")


def test_criterion_5_l1_boundary():
    rho = 1.0 / (4.0 * math.pi)
    gaps = []
    for depth in (8, 9, 10):
        prob = ball_problem(rho, resolution=5, depth=depth)
        lam1 = perron(assemble_ktilde(prob, CENTER, a0=1.0), value_tol=None).value
        gaps.append(abs(lam1 - 1.0))
    ok = gaps[0] > gaps[1] > gaps[2]

    prob = ball_problem(rho, resolution=6, depth=10)
    report = classify_regime(prob)
    ok = ok and report.regime == "l1" and report.confirmed
    ok = ok and abs(report.coarse_lambda1 - 1.0) > abs(report.lambda1 - 1.0)
    psi_theory = rho / (1.0 - prob.a_at_nodes)
    relerr = float(np.max(np.abs(report.eigen_density - psi_theory) / psi_theory))
    ok = ok and relerr <= 1e-2
    verdict(5, ok, f"rho = 1/(4pi) classifies l1 with |lambda1 - 1| shrinking "
                   f"{gaps[0]:.1e} -> {gaps[2]:.1e} and psi matching "
                   f"rho/(a(x0) - a) to {relerr:.1e}")


def test_criterion_6_positivity_and_linearity():
    rng = np.random.default_rng(20260806)
    ok = True
    for index in range(100):
        shape = "ball" if index % 2 == 0 else "cylinder"
        resolution = int(rng.integers(3, 5))
        depth = int(rng.integers(4, 6))
        u = float(rng.uniform(0.05, 0.85))
        alpha = float(rng.uniform(0.1, 4.0))
        if shape == "ball":
            i_exact = 4.0 * math.pi * (1.0 - 0.5 ** (depth + 1))
            prob = ball_problem(u / i_exact, resolution, depth)
            x0 = CENTER
        else:
            i_exact = 2.0 * math.pi * (1.0 - 0.5 ** (depth + 1))
            prob = cylinder_problem(u / i_exact, resolution, depth)
            x0 = (0.0, 0.0, float(rng.uniform(0.05, 0.95)))
        unit = solve_fredholm(prob, x0, alpha=1.0)
        scaled = solve_fredholm(prob, x0, alpha=alpha)
        ok = ok and bool(np.all(scaled.g_values > 0))
        scale = float(np.max(np.abs(scaled.g_values)))
        ok = ok and float(np.max(np.abs(
            scaled.g_values - alpha * unit.g_values))) <= 1e-12 * scale
        if index % 10 == 0:
            mu_a = normalize(build_atom_solution(prob, x0, alpha=alpha))
            mu_b = normalize(build_atom_solution(prob, x0, alpha=3.0 * alpha))
            ok = ok and abs(mu_a.atoms[0][1] - mu_b.atoms[0][1]) <= 1e-10
            dscale = float(np.max(np.abs(mu_a.density_values)))
            ok = ok and float(np.max(np.abs(
                mu_a.density_values - mu_b.density_values))) <= 1e-10 * dscale
    verdict(6, ok, "density factor is positive on 100 random configs, scales "
                   "linearly in alpha to 1e-12, and same-x0 solutions agree "
                   "after normalization to 1e-10")


def test_criterion_7_residual_decay():
    problems = {}

    def factory(level):
        if level not in problems:
            problems[level] = build_problem(
                Cylinder(radius=1.0, height=1.0),
                gaussian_kernel(amplitude=0.2, width=0.6),
                radial_power(top=1.0, scale=1.0, power=1.0,
                             center=(0.0, 0.0), axes=(0, 1)),
                resolution=4 + level,
                grading=GradeSpec(targets=(AXIS,), ratio=0.5, depth=5 + level),
            )
        return problems[level]

    solutions = {}

    def cached(name, build):
        def sol(prob):
            key = (name, id(prob))
            if key not in solutions:
                solutions[key] = build(prob)
            return solutions[key]
        return sol

    def build_atom(prob):
        return build_atom_solution(prob, (0.0, 0.0, 0.5), alpha=1.0), -1.0

    def build_span(prob):
        one = build_atom_solution(prob, (0.0, 0.0, 0.25), alpha=1.0)
        two = build_atom_solution(prob, (0.0, 0.0, 0.75), alpha=1.0)
        return span_combination([one, two], [0.5, 0.5]), -1.0

    def build_cantor(prob):
        return build_singular_solution(prob, cantor_approximant(AXIS, 8)), -1.0

    ok = True
    finest_weak = 0.0
    for name, build in (("atom", build_atom), ("span", build_span),
                        ("cantor", build_cantor)):
        sol = cached(name, build)
        for kind in ("pointwise", "weak"):
            rows = refinement_study(factory, 3, "residual",
                                    solution=sol, residual_kind=kind)
            values = [r["value"] for r in rows]
            ok = ok and all(f < c / 1.4 for c, f in zip(values, values[1:]))
            if kind == "weak":
                ok = ok and values[-1] <= 1e-3
                finest_weak = max(finest_weak, values[-1])

    finest = factory(2)
    mu, _ = cached("atom", build_atom)(finest)
    wrong_lambda = weak_residual(finest, mu, -0.9).value
    bad = DiscreteMeasure(atoms=mu.atoms, grid=mu.grid,
                          density_values=1.1 * mu.density_values)
    wrong_density = pointwise_residual(finest, bad, -1.0).value
    ok = ok and wrong_lambda >= 1e-2 and wrong_density >= 1e-2
    verdict(7, ok, f"pointwise and weak residuals of atom, span, and Cantor "
                   f"solutions decay over 3 levels (weak finest "
                   f"{finest_weak:.1e} <= 1e-3); perturbed negatives "
                   f"{wrong_lambda:.2f}/{wrong_density:.3f} exceed 1e-2")


def test_criterion_8_perron_oracle():
    rng = np.random.default_rng(20260808)
    ok = True
    worst = 0.0
    for index in range(200):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.05, 1.0, size=(n, n))
        if index % 4 == 0:
            # sparse variant; the cycle keeps it irreducible, the diagonal
            # keeps it aperiodic so the power method has a spectral gap
            a[a < 0.5] = 0.0
            for i in range(n):
                a[i, (i + 1) % n] += 0.5
                a[i, i] += 0.4
        pair = perron(a, tol_power=1e-13, max_iter=200_000, keep_history=True)
        r = float(np.max(np.abs(np.linalg.eigvals(a))))
        worst = max(worst, abs(pair.value - r))
        ok = ok and abs(pair.value - r) <= 1e-8
        for lo, hi in pair.bounds_history:
            ok = ok and lo <= r + 1e-12 and hi >= r - 1e-12
    verdict(8, ok, f"power iteration matches dense eigendecomposition on 200 "
                   f"matrices (worst gap {worst:.1e}) and the bounds bracket "
                   f"the radius at every iteration")


def test_criterion_9_shift_invariance():
    shift = 0.5
    base = ball_problem(0.2, resolution=4, depth=5)
    moved = ball_problem(0.2, resolution=4, depth=5, top=1.5)
    est_base = estimate_lambda_p(base, tol_power=1e-12)
    est_moved = estimate_lambda_p(moved, tol_power=1e-12)
    gap = abs(est_moved.value - (est_base.value - shift))
    ok = gap <= 1e-10

    rep_base = classify_regime(base)
    rep_moved = classify_regime(moved)
    ok = ok and rep_base.regime == rep_moved.regime == "continuous"
    ok = ok and float(np.max(np.abs(
        rep_base.eigen_density - rep_moved.eigen_density))) <= 1e-8

    sing_base = ball_problem(0.05, resolution=4, depth=6)
    sing_moved = ball_problem(0.05, resolution=4, depth=6, top=1.5)
    ok = ok and classify_regime(sing_base).regime == "singular"
    ok = ok and classify_regime(sing_moved).regime == "singular"
    v_base = perron(assemble_ktilde(sing_base, CENTER, a0=1.0),
                    tol_power=1e-12, value_tol=None).vector
    v_moved = perron(assemble_ktilde(sing_moved, CENTER, a0=1.5),
                     tol_power=1e-12, value_tol=None).vector
    ok = ok and float(np.max(np.abs(v_base - v_moved))) <= 1e-9
    verdict(9, ok, f"a + 0.5 shifts lambda_p by -0.5 (gap {gap:.1e}), leaves "
                   f"the regime labels and the Perron vectors unchanged")
