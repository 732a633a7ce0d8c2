"""Command line behavior: schemas, exit codes, determinism."""

import copy
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmeasure import (
    Ball,
    GradeSpec,
    build_problem,
    build_singular_solution,
    classify_regime,
    cli,
    constant_kernel,
    custom_coefficient,
    geometry,
    measure,
    model,
    radial_power,
    spectral,
    verify,
)


def readme_ball(rho, resolution=6, depth=8):
    """The README library problem, which is also the CLI's ``--example ball``
    at its default grid."""
    center = (0.0, 0.0, 0.0)
    return build_problem(
        Ball(center=center, radius=1.0),
        constant_kernel(rho),
        radial_power(top=1.0, scale=1.0, power=2.0, center=center),
        resolution=resolution,
        grading=GradeSpec(targets=(center,), ratio=0.5, depth=depth),
    )


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_report_schema(capsys):
    code, out, err = run(capsys, "classify", "--example", "ball",
                         "--rho", "0.1", "--resolution", "4", "--depth", "5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lambda_p", "lambda1_ktilde", "regime", "sup_a",
                            "eigenobject", "diagnostics"}
    assert payload["regime"] == "continuous_eigenfunction"
    assert payload["sup_a"] == 1.0
    expected = 0.1 * 4.0 * math.pi * (1.0 - 0.5**6)
    assert payload["lambda1_ktilde"] == pytest.approx(expected, rel=1e-10)
    assert payload["lambda_p"] < -1.0
    assert len(payload["diagnostics"]) == 2
    coarse, fine = payload["diagnostics"]
    assert coarse["lambda_p"] is None
    assert fine["n"] > coarse["n"]
    assert payload["eigenobject"]["kind"] == "function_values"


def test_classify_huge_kernel_runs_arnoldi_scaled(capsys, caplog):
    # at rho = 1e200 an unscaled Arnoldi step would overflow the 2-norm;
    # Arnoldi runs on Kt scaled by a power of two, so both grids' vectors
    # are Arnoldi's, certified at once, and lambda1 = rho I_h
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        code, out, err = run(capsys, "classify", "--example", "ball", "--rho", "1e200")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["regime"] == "continuous_eigenfunction"
    expected = 1e200 * 4.0 * math.pi * (1.0 - 0.5**9)
    assert payload["lambda1_ktilde"] == pytest.approx(expected, rel=1e-12)
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert re.findall(r"(ktilde\S*) n=\d+ arnoldi matvecs=\d+ residual=", line) \
        == ["ktilde", "ktilde-coarse"]
    assert "fallback=power" not in line


def test_classify_lambda_p_root_budget_exits_2(capsys, monkeypatch):
    # the lambda_p root's step budget is a named failure, not a traceback
    monkeypatch.setattr(spectral, "_ROOT_STEPS", 1)
    code, out, err = run(capsys, "classify", "--example", "ball", "--rho", "0.1")
    assert code == 2 and out == ""
    assert err.startswith("error[iteration-limit]: lambda_p root: bracket [")


def test_classify_power_budget_exits_2(capsys, monkeypatch, tmp_path):
    # the power loop's matvec cap is a named failure: a narrow Gaussian whose
    # Kt loop from ones needs 57 steps, run under a cap of 30, with no Arnoldi
    # vector to rerun from
    monkeypatch.setattr(spectral, "_MAX_ITER", 30)
    monkeypatch.setattr(spectral, "_arnoldi", lambda matvec, v0, budget: None)
    cfg = {"problem": {"domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                       "kernel": {"family": "gaussian", "amplitude": 5.0, "width": 0.03},
                       "coefficient": {"family": "coordinate_linear", "coeffs": [1.0, 0.5]}},
           "grid": {"resolution": 12, "grading_depth": 8,
                    "grading_targets": [{"point": [1.0, 1.0]}]},
           "options": {"confirm": False}}
    code, out, err = run(capsys, "classify", "--config", config_file(tmp_path, cfg))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "error[iteration-limit]: power iteration: no convergence in 30 matvecs")


def test_classify_singular_regime(capsys):
    code, out, _ = run(capsys, "classify", "--example", "ball",
                       "--rho", "0.05", "--resolution", "4", "--depth", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "singular_measure"
    assert payload["eigenobject"]["kind"] == "singular_measure"
    assert payload["lambda_p"] == pytest.approx(-1.0, abs=5e-3)


def test_solve_ball_default_weight(capsys):
    code, out, _ = run(capsys, "solve", "--example", "ball",
                       "--rho", "0.05", "--resolution", "4", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "singular_measure"
    measure = payload["eigenobject"]
    i_h = 4.0 * math.pi * (1.0 - 0.5**7)
    alpha = 1.0 / 0.05 - i_h
    assert len(measure["atoms"]) == 1
    atom = measure["atoms"][0]
    assert atom["weight"] == pytest.approx(alpha, rel=1e-12)
    assert atom["point"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-8)
    assert measure["total_mass"] == pytest.approx(1.0 / 0.05, rel=1e-10)
    assert measure["atom_fraction"] == pytest.approx(1.0 - 0.05 * i_h, rel=1e-10)
    assert measure["residuals"]["pointwise"] <= 1e-12
    assert measure["residuals"]["weak"] <= 1e-12


@pytest.mark.parametrize("t", [0.25, 0.0, 1.0])
def test_solve_cylinder_x0_selector(capsys, t):
    code, out, _ = run(capsys, "solve", "--example", "cylinder",
                       "--rho", "0.1", "--x0", repr(t),
                       "--resolution", "4", "--depth", "5")
    assert code == 0
    atom = json.loads(out)["eigenobject"]["atoms"][0]
    assert atom["point"][0] == pytest.approx(0.0, abs=1e-6)
    assert atom["point"][1] == pytest.approx(0.0, abs=1e-6)
    assert atom["point"][2] == pytest.approx(t, abs=1e-6)


def test_solve_cantor_level(capsys):
    code, out, _ = run(capsys, "solve", "--example", "cylinder",
                       "--rho", "0.1", "--cantor-level", "3",
                       "--resolution", "4", "--depth", "5")
    assert code == 0
    measure = json.loads(out)["eigenobject"]
    assert len(measure["atoms"]) == 8
    assert all(a["weight"] == pytest.approx(0.125, rel=1e-12)
               for a in measure["atoms"])
    assert measure["atom_mass"] == pytest.approx(1.0, rel=1e-12)

    code, out, _ = run(capsys, "solve", "--example", "cylinder",
                       "--rho", "0.1", "--cantor-level", "3", "--alpha", "0.5",
                       "--resolution", "4", "--depth", "5")
    assert code == 0
    measure = json.loads(out)["eigenobject"]
    assert measure["atom_mass"] == pytest.approx(0.5, rel=1e-12)


def test_solve_x0_selector_needs_segment(capsys):
    code, _, err = run(capsys, "solve", "--example", "ball",
                       "--rho", "0.05", "--x0", "0.5",
                       "--resolution", "4", "--depth", "5")
    assert code == 1
    assert "error[configuration]" in err


def test_solve_density_csv(capsys, tmp_path):
    path = tmp_path / "density.csv"
    code, out, _ = run(capsys, "solve", "--example", "ball",
                       "--rho", "0.05", "--resolution", "3", "--depth", "4",
                       "--density-csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,weight,density"
    size = json.loads(out)["eigenobject"]["density_size"]
    assert len(lines) == size + 1
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 5 and first[4] > 0


def test_library_builds_the_cli_measure(capsys, tmp_path):
    # the CLI's automatic alpha 1/rho - I_h makes the density factor one;
    # the library builder, given the same atom, writes the same density
    path = tmp_path / "density.csv"
    code, out, _ = run(capsys, "solve", "--example", "ball", "--rho", "0.05",
                       "--density-csv", str(path))
    assert code == 0
    prob = readme_ball(0.05)
    alpha = 1.0 / 0.05 - float(np.sum(prob.grid.weights / (1.0 - prob.a_at_nodes)))
    atom, = json.loads(out)["eigenobject"]["atoms"]
    assert (atom["point"], atom["weight"]) == ([0.0, 0.0, 0.0], alpha)
    mu = build_singular_solution(prob, [((0.0, 0.0, 0.0), alpha)])
    table = np.array([[float(v) for v in line.split(",")]
                      for line in path.read_text().splitlines()[1:]])
    assert np.array_equal(table[:, :3], prob.grid.nodes)
    assert np.array_equal(table[:, 4], mu.density_values)


@pytest.mark.parametrize("regime, kind, norm", [
    ("continuous", "function_values", "max"),
    ("l1", "l1_density", "mass"),
])
def test_classify_eigenobject_normalization(regime, kind, norm):
    prob = readme_ball(0.1, resolution=3, depth=4)
    report = dataclasses.replace(classify_regime(prob, confirm=False), regime=regime)
    assert cli._classify_eigenobject(report, prob) == {
        "kind": kind, "normalization": norm, "size": prob.grid.size}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> dict:
    """The config file example of the README."""
    return json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.DOTALL).group(1))


def test_readme_config_example_runs(capsys, tmp_path):
    cfg = readme_config()
    cfg["grid"].update(resolution=4, grading_depth=5)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "classify", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["regime"] == "singular_measure"


def test_readme_config_example_uses_the_schema():
    # every key of the README config is one the schema takes, at its
    # default value (grading targets aside), each problem part names a
    # family of _FAMILIES and sets exactly that family's keys, and the
    # README sentence on the tolerance keys names exactly the schema's
    readme = README.read_text()
    cfg = readme_config()
    assert set(cfg) <= set(cli._DEFAULTS)
    problem = cfg.pop("problem")
    assert list(problem) == list(cli._FAMILIES)
    for part, spec in problem.items():
        name_key, families = cli._FAMILIES[part]
        _, keys = families[spec[name_key]]
        assert set(spec) == {name_key, *keys} - set(cli._OPTIONAL), part
    for section, values in cfg.items():
        assert set(values) <= set(cli._SCHEMA[section]), section
        for key, value in values.items():
            if key != "grading_targets":
                assert value == cli._SCHEMA[section][key][0], (section, key)
    sentence = re.search(r"The `tolerances` section takes exactly ([^.;]*)",
                         " ".join(readme.split())).group(1)
    assert re.findall(r"`(\w+)`", sentence) == list(cli._SCHEMA["tolerances"])


def test_readme_library_example_runs():
    readme = README.read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    scope: dict = {}
    exec(block, scope)
    assert scope["report"].regime == "singular"
    assert scope["res"].value < 1e-10


@pytest.mark.parametrize("command", ["classify", "solve"])
def test_non_finite_report_exits_two(capsys, monkeypatch, command):
    # classify reaches spectral._classify through classify_regime; solve
    # calls it directly to keep the K W it returns
    real = spectral._classify

    def infinite(*args, **kwargs):
        report, kw = real(*args, **kwargs)
        return dataclasses.replace(report, lambda_p_interval=(math.inf, math.inf)), kw

    monkeypatch.setattr(spectral, "_classify", infinite)
    monkeypatch.setattr(cli, "_classify", infinite)
    code, out, err = run(capsys, command, "--example", "ball", "--rho", "0.05",
                         "--resolution", "4", "--depth", "5")
    assert code == 2
    assert out == ""
    assert "error[non-finite]" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
def test_solve_bad_atom_weight_exits_one(capsys, monkeypatch, alpha):
    # the weights are rejected before a grid or an operator exists
    def no_build(*args, **kwargs):
        raise AssertionError("the solve built a problem")

    monkeypatch.setattr(cli, "_build", no_build)
    code, out, err = run(capsys, "solve", "--example", "ball", "--alpha", alpha,
                         "--resolution", "4", "--depth", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error[configuration]: atom weights")


@pytest.mark.parametrize("command, source", [("convergence", "flag"),
                                             ("solve", "config"),
                                             ("convergence", "config")])
def test_bad_alpha_rejected_before_any_grid(capsys, monkeypatch, tmp_path,
                                            command, source):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "_build", no_build)
    if source == "flag":
        extra = ["--alpha", "nan"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"options": {"alpha": math.nan}}))
        extra = ["--config", str(path)]
    code, out, err = run(capsys, command, "--example", "cylinder", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error[configuration]: atom weights")


def counting_kernel(monkeypatch, dense=False):
    """Make the CLI's kernels count their evaluations: rows[n] is the number
    of rows evaluated against all n nodes of an n-node grid.  The counter
    keeps the built-in kernel's claims, or with ``dense`` is a custom kernel
    of the same values, which takes the dense K W."""
    rows: dict[int, int] = {}
    real_build = cli._part

    def build(part, spec):
        kernel = real_build(part, spec)
        if part != "kernel":
            return kernel

        def evaluate(x, y):
            rows[y.shape[0]] = rows.get(y.shape[0], 0) + x.shape[0]
            return kernel.evaluate(x, y)

        if dense:
            return model.custom_kernel(evaluate, kernel.positivity_witness)
        # replace drops the positive-definite claim of the built-in family
        return model._positive_definite(dataclasses.replace(kernel, evaluate=evaluate))

    monkeypatch.setattr(cli, "_part", build)
    return rows


def test_solve_evaluates_fine_grid_once(capsys, monkeypatch, caplog):
    # the Fredholm solve reuses the K W the classification built: a rank-r
    # factor evaluates r kernel rows against the grid and the validation
    # samples 96; the residuals apply K off the grid (against n + 1 points)
    rows = counting_kernel(monkeypatch)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        code, out, _ = run(capsys, "solve", "--example", "ball")
    assert code == 0
    n = json.loads(out)["eigenobject"]["density_size"]
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    rank = int(re.search(r"; kernel factor rank=(\d+)", line).group(1))
    assert rank == 1
    assert rows[n] <= rank + 96


def test_dense_solve_evaluates_fine_grid_once(capsys, monkeypatch, caplog):
    # a custom kernel fills one dense K W per grid, which the Fredholm solve
    # reuses; the validation samples 96 rows, fewer than one grid's worth
    rows = counting_kernel(monkeypatch, dense=True)
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        code, out, _ = run(capsys, "solve", "--example", "ball")
    assert code == 0
    n = json.loads(out)["eigenobject"]["density_size"]
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    assert line.endswith("; kernel dense; kernel-coarse dense")
    assert rows[n] // n == 1


def test_solve_holds_one_kernel_array(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "solve", "--example", "ball",
                           "--resolution", "10", "--depth", "12")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    n = json.loads(out)["eigenobject"]["density_size"]
    assert n == 3600
    # the constant kernel is a rank-one factor: the largest array is a
    # 512-row slab of the residuals' kernel moment, 0.14 of one N x N array
    assert peak <= 0.2 * 8 * n * n


def detected_radial_power(**params):
    """A custom copy of ``radial_power``: the same values, no closed form."""
    coeff = radial_power(**params)
    return custom_coefficient(coeff.evaluate, coeff.family, coeff.params)


def count_calls(monkeypatch, *owned):
    """Count the calls of each (owner, name) in ``owned``, wherever a module
    holds that function."""
    counts = {}
    for owner, name in owned:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in (cli, model, spectral, measure, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_solve_detects_argmax_and_takes_moment_once(capsys, monkeypatch):
    # a custom coefficient has no closed form, so its argmax set is detected
    families = cli._FAMILIES["coefficient"][1]
    monkeypatch.setitem(families, "radial_power",
                        (detected_radial_power, families["radial_power"][1]))
    counts = count_calls(monkeypatch, (model, "detect_argmax_set"),
                         (measure, "kernel_moment"))
    code, _, _ = run(capsys, "solve", "--example", "ball",
                     "--resolution", "4", "--depth", "5")
    assert code == 0
    assert counts == {"detect_argmax_set": 1, "kernel_moment": 1}


@pytest.mark.parametrize("example", ["ball", "cylinder"])
def test_solve_takes_radial_power_argmax_set_in_closed_form(capsys, monkeypatch,
                                                            example):
    counts = count_calls(monkeypatch, (model, "detect_argmax_set"),
                         (measure, "kernel_moment"))
    code, _, _ = run(capsys, "solve", "--example", example,
                     "--resolution", "4", "--depth", "5")
    assert code == 0
    assert counts == {"kernel_moment": 1}


def test_convergence_lambda1_csv(capsys):
    code, out, _ = run(capsys, "convergence", "--example", "ball",
                       "--rho", "0.05", "--quantity", "lambda1",
                       "--levels", "3", "--resolution", "4", "--depth", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,size,value,delta,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    sizes = [int(r[1]) for r in rows]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    for level, row in enumerate(rows):
        expected = 0.05 * 4.0 * math.pi * (1.0 - 0.5 ** (5 + level))
        assert float(row[2]) == pytest.approx(expected, rel=1e-10)
    assert rows[0][3] == "" and rows[0][4] == ""
    assert float(rows[2][4]) == pytest.approx(2.0, rel=1e-6)


def test_convergence_residual_csv(capsys):
    code, out, _ = run(capsys, "convergence", "--example", "cylinder",
                       "--rho", "0.1", "--quantity", "residual",
                       "--levels", "2", "--resolution", "3", "--depth", "4",
                       "--x0", "0.5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    values = [float(r[2]) for r in rows]
    assert len(values) == 2
    assert all(v > 0 for v in values)
    assert values[1] < values[0]


def built(*args):
    """The problem a command line builds."""
    return cli._build(cli._assemble_config(cli._parse_args(list(args))))


def test_ungraded_study_stays_ungraded(capsys, tmp_path):
    # grading depth 0 builds an ungraded ball, and every level of its study
    # stays ungraded: lambda1 = rho * 4 pi, exact on the radial midpoint rule
    args = ("convergence", "--example", "ball", "--quantity", "lambda1",
            "--levels", "3", "--config",
            config_file(tmp_path, {"grid": {"grading_depth": 0}}))
    code, out, err = run(capsys, *args)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    base = built(*args)
    levels = [model._refined(base, k) for k in range(3)]
    assert all(p.grid.grading is None for p in levels)
    assert [int(r[1]) for r in rows] == [p.grid.size for p in levels]
    for row in rows:
        assert float(row[2]) == pytest.approx(0.05 * 4.0 * math.pi, rel=1e-12)


def test_classify_needs_a_coarser_grid_to_confirm(capsys, tmp_path):
    # resolution 2 and depth 1 is the bottom of the ladder: the coarse check
    # would compare the grid with itself
    args = ("classify", "--example", "ball", "--resolution", "2", "--depth", "1")
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error[configuration]:")
    assert "options.confirm" in err
    code, out, err = run(capsys, *args, "--config",
                         config_file(tmp_path, {"options": {"confirm": False}}))
    assert code == 0, err
    assert len(json.loads(out)["diagnostics"]) == 1


def test_recip_integral_study_runs_at_each_level_depth(capsys):
    # depth 2 at level 0 is too shallow for the integrability check; the
    # study once ran every row at depth 4 and printed one value three times
    code, out, err = run(capsys, "convergence", "--example", "ball",
                         "--quantity", "recip_integral", "--levels", "3",
                         "--depth", "2")
    assert code == 1 and out == ""
    assert err.startswith("error[configuration]:")
    assert "depth >= 4, got 2" in err


def test_reruns_are_byte_identical(capsys, tmp_path):
    args = ("classify", "--example", "cylinder", "--rho", "0.1",
            "--resolution", "3", "--depth", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    path = tmp_path / "report.json"
    _, stdout, _ = run(capsys, *args, "--output", str(path))
    assert path.read_text() == stdout == first


def test_continuous_reruns_are_byte_identical(capsys):
    # the continuous regime runs ARPACK, whose default start vector differs
    # between calls in one process
    args = ("classify", "--example", "ball", "--rho", "0.1",
            "--resolution", "4", "--depth", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert json.loads(first)["regime"] == "continuous_eigenfunction"
    assert first == second


def test_solve_reruns_are_byte_identical(capsys, caplog):
    args = ("solve", "--example", "ball", "--rho", "0.05",
            "--resolution", "4", "--depth", "5")
    with caplog.at_level(logging.INFO, logger="specmeasure.measure"):
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["regime"] == "singular_measure"
    # one Fredholm solve per run, logged, never on stdout
    lines = [r.getMessage() for r in caplog.records
             if r.name == "specmeasure.measure" and r.levelno == logging.INFO]
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].startswith("fredholm: n=")
    assert "fredholm" not in first


def test_cantor_level_beyond_memory_exits_two(capsys):
    code, out, err = run(capsys, "solve", "--example", "cylinder",
                         "--cantor-level", "64", "--resolution", "4",
                         "--depth", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error[too-large]")


def test_oversized_grid_exits_two(capsys, monkeypatch):
    # the budget is lowered rather than the grid raised, so nothing large
    # is ever built
    monkeypatch.setattr("specmeasure.geometry._memory_budget", lambda: 10**5)
    code, out, err = run(capsys, "classify", "--example", "ball",
                         "--rho", "0.1", "--resolution", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error[too-large]")


def test_oversized_grid_refused_before_it_is_built(capsys, monkeypatch):
    # the node count comes from the 1-D cell lists, so a grid of 134,400
    # nodes is refused under a 1 MiB budget before any of its arrays exists
    monkeypatch.setattr("specmeasure.geometry._memory_budget", lambda: 1 << 20)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "classify", "--example", "ball",
                             "--resolution", "40", "--depth", "8")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error[too-large]: a grid of 134400 nodes needs ")
    assert peak < 2 << 20


def test_oversized_resolution_refused_before_its_cells_exist(capsys, monkeypatch):
    # resolution 1e8 is refused on the uniform piece of the radial cells, a
    # lower bound on the node count, before that piece's cell list is built
    monkeypatch.setattr("specmeasure.geometry._memory_budget", lambda: 1 << 20)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "classify", "--example", "ball",
                             "--resolution", "100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error[too-large]: a grid of at least 50000000 nodes needs ")
    assert peak < 1 << 20


def test_config_file_round_trip(capsys, tmp_path):
    cfg = {
        "problem": {
            "domain": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
            "kernel": {"family": "constant", "rho": 0.1},
            "coefficient": {"family": "radial_power", "top": 1.0,
                            "scale": 1.0, "power": 1.0,
                            "center": [0.0, 0.0], "axes": [0, 1]},
        },
        "grid": {"resolution": 3, "grading_depth": 4},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", str(path))
    assert code == 0
    from_config = json.loads(out)

    code, out, _ = run(capsys, "classify", "--example", "cylinder",
                       "--rho", "0.1", "--resolution", "3", "--depth", "4")
    by_flags = json.loads(out)
    # auto-detected grading targets carry refinement noise at the 1e-8 level
    assert from_config["regime"] == by_flags["regime"]
    assert from_config["lambda1_ktilde"] == pytest.approx(
        by_flags["lambda1_ktilde"], rel=1e-8)


def test_usage_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "classify")
    assert code == 1 and "error[configuration]" in err

    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--config", str(bad))
    assert code == 1 and "not valid JSON" in err

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "classify", "--config", str(missing))
    assert code == 1

    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({
        "problem": {
            "domain": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
            "kernel": {"family": "matern", "rho": 0.1},
            "coefficient": {"family": "radial_power", "top": 1.0,
                            "scale": 1.0, "power": 2.0, "center": [0, 0, 0]},
        },
    }))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 1 and "kernel family" in err

    code, _, err = run(capsys, "convergence", "--example", "ball",
                       "--levels", "1")
    assert code == 1

    cfg2 = tmp_path / "tol.json"
    cfg2.write_text(json.dumps({"tolerances": {"classify": 0.0}}))
    code, _, err = run(capsys, "classify", "--example", "ball",
                       "--config", str(cfg2))
    assert code == 1 and "tolerance" in err


@pytest.mark.parametrize("argv, code, message", [
    ([], 1, "the following arguments are required: command"),
    (["frobnicate", "--example", "ball"], 1,
     "argument command: invalid choice: 'frobnicate'"),
    (["classify", "--example", "ball", "--foo", "1"], 1, "unrecognized arguments: --foo"),
    (["classify", "--example", "ball", "--alpha", "2"], 1, "classify takes no --alpha"),
    (["classify", "--example", "ball", "--density-csv", "x"], 1,
     "classify takes no --density-csv"),
    (["convergence", "--example", "ball", "--density-csv=x"], 1,
     "convergence takes no --density-csv"),
    (["classify", "--example", "ball", "--resolution"], 1,
     "argument --resolution: expected one argument"),
    (["classify", "--config", "--example", "ball"], 1,
     "argument --config: expected one argument"),
    (["classify", "--example", "ball", "--resolution", "8.5"], 1,
     "argument --resolution: invalid int value: '8.5'"),
    (["solve", "--example", "ball", "--rho=x"], 1,
     "argument --rho: invalid float value: 'x'"),
    (["convergence", "--example", "ball", "--quantity", "bogus"], 1,
     "argument --quantity: invalid choice: 'bogus'"),
    (["classify", "--example", "torus"], 1, "argument --example: invalid choice: 'torus'"),
    (["classify", "--example", "ball", "extra"], 1, "unrecognized arguments: extra"),
    (["classify", "--example", "ball", "--res", "8"], 1, "unrecognized arguments: --res"),
    (["-h"], 0, None),
    (["--help"], 0, None),
    (["solve", "-h"], 0, None),
    (["convergence", "--example", "ball", "--help"], 0, None),
], ids=["no-command", "unknown-command", "unknown-flag", "not-taken", "not-taken-csv",
        "not-taken-equals", "no-value", "flag-as-value", "wrong-type", "wrong-type-equals",
        "bad-choice", "bad-example", "extra-positional", "abbreviation", "help",
        "help-long", "command-help", "command-help-late"])
def test_usage_error_exits_one_and_help_zero(capsys, monkeypatch, argv, code, message):
    refuse_build(monkeypatch)
    got, out, err = run(capsys, *argv)
    assert got == code
    if message is None:
        assert err == "" and out.startswith("usage: specmeasure ")
    else:
        assert out == "" and err.startswith("usage: specmeasure ")
        assert err.splitlines()[-1].startswith(f"specmeasure: error: {message}")
    # a command's help lists exactly the flags it takes
    if message is None and argv[0] in cli._COMMANDS:
        listed = set(re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", out, re.MULTILINE))
        assert listed == {"--help"} | {f for f in cli._FLAGS if cli._takes(argv[0], f)}


def test_flag_equals_value_and_last_value_wins(capsys):
    spaced = run(capsys, "solve", "--example", "ball", "--rho", "0.05")
    assert spaced[0] == 0
    assert run(capsys, "solve", "--example", "ball", "--rho=0.05") == spaced
    assert run(capsys, "solve", "--rho", "0.2", "--example=ball", "--rho=0.05") == spaced
    assert cli._parse_args(["convergence", "--levels=2", "--x0", "-0.5"]) == {
        "command": "convergence", "--levels": 2, "--x0": -0.5}


def test_rho_override_requires_constant_kernel(capsys, tmp_path):
    cfg = tmp_path / "gauss.json"
    cfg.write_text(json.dumps({
        "problem": {
            "domain": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
            "kernel": {"family": "gaussian", "amplitude": 0.2, "width": 0.6},
            "coefficient": {"family": "radial_power", "top": 1.0,
                            "scale": 1.0, "power": 1.0,
                            "center": [0.0, 0.0], "axes": [0, 1]},
        },
        "grid": {"resolution": 3, "grading_depth": 4},
    }))
    code, _, err = run(capsys, "classify", "--config", str(cfg),
                       "--rho", "0.1")
    assert code == 1 and "--rho" in err


def test_named_violation_exits_two(capsys):
    # at the exact grid threshold the coarse level lands in a different
    # regime, which surfaces as a named violation with exit code 2
    rho = 1.0 / (4.0 * math.pi * (1.0 - 0.5**7))
    code, _, err = run(capsys, "classify", "--example", "ball",
                       "--rho", repr(rho), "--resolution", "4", "--depth", "6")
    assert code == 2
    assert "error[classification-unstable]" in err


def test_solve_in_continuous_regime_exits_one(capsys):
    code, _, err = run(capsys, "solve", "--example", "ball", "--rho", "0.2",
                       "--resolution", "4", "--depth", "5")
    assert code == 1
    assert "error[configuration]" in err


def test_huge_radius_error_is_short(capsys):
    # lambda1 = rho * sum w / (1 - a) is about 1e301 here: the message gives
    # it to six significant digits, not as a 300-digit fixed-point number
    code, _, err = run(capsys, "solve", "--example", "ball", "--rho", "1e300")
    assert code == 1
    assert len(err.encode()) < 200
    assert "1.25418e+301" in err


def config_file(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def refuse_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "_build", no_build)


@pytest.mark.parametrize("command, cfg, key", [
    ("classify", {"tolerances": {"guard": 1e-3}}, "tolerances.guard"),
    ("solve", {"tolerances": {"maxset": 1e-8}}, "tolerances.maxset"),
    ("convergence", {"options": {"levles": 3}}, "options.levles"),
    ("solve", {"grid": {"depth": 4}}, "grid.depth"),
    ("classify", {"tolerance": {"power": 1e-10}}, "key tolerance;"),
    # the Perron and Fredholm tolerances are module constants
    ("classify", {"tolerances": {"power": "x"}}, "tolerances.power"),
    ("solve", {"tolerances": {"linear": -1e-10}}, "tolerances.linear"),
    ("solve", {"tolerances": {"linear": math.inf}}, "tolerances.linear"),
])
def test_unknown_config_key_exits_one(capsys, monkeypatch, tmp_path,
                                      command, cfg, key):
    refuse_build(monkeypatch)
    code, out, err = run(capsys, command, "--example", "cylinder",
                         "--config", config_file(tmp_path, cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error[configuration]: unknown config key")
    assert key in err


@pytest.mark.parametrize("command, cfg, key", [
    ("classify", {"tolerances": {"classify": "x"}}, "tolerances.classify"),
    ("classify", {"tolerances": {"classify": True}}, "tolerances.classify"),
    ("solve", {"tolerances": {"classify": -1e-3}}, "tolerances.classify"),
    ("solve", {"tolerances": {"classify": math.inf}}, "tolerances.classify"),
    ("convergence", {"options": {"levels": "x"}}, "options.levels"),
    ("solve", {"options": {"x0": "mid"}}, "options.x0"),
    ("solve", {"options": {"cantor_level": 2.5}}, "options.cantor_level"),
    ("solve", {"options": {"alpha": True}}, "options.alpha"),
    ("classify", {"options": {"confirm": "no"}}, "options.confirm"),
    ("convergence", {"options": {"quantity": "mass"}}, "options.quantity"),
    ("classify", {"grid": {"resolution": 4.5}}, "grid.resolution"),
    ("classify", {"grid": {"grading_targets": "axis"}}, "grid.grading_targets"),
    ("classify", {"grid": 5}, "grid"),
    ("convergence", {"options": {"levels": 1}}, "options.levels"),
])
def test_ill_typed_config_value_exits_one(capsys, monkeypatch, tmp_path,
                                          command, cfg, key):
    # every value is checked against the schema before any grid exists
    refuse_build(monkeypatch)
    code, out, err = run(capsys, command, "--example", "cylinder",
                         "--config", config_file(tmp_path, cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error[configuration]:")
    assert key in err


@pytest.mark.parametrize("targets, message", [
    ([{"point": ["x"]}], "grid.grading_targets[0].point must be a list of finite numbers"),
    ([5], "config key grid.grading_targets[0] must hold a JSON object"),
    ([{"segment": [[0.0, 0.0, 0.0]]}], "grid.grading_targets[0].segment must hold two points"),
    ([{"point": [0.0, 0.0, 0.0]}, {"segment": [[0.0, 0.0, 0.0], [0.0, "a", 1.0]]}],
     "grid.grading_targets[1].segment must be a list of finite numbers"),
    # an item holds exactly one target: the point was once taken silently
    ([{"point": [0.0, 0.0, 0.0], "segment": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}],
     "grid.grading_targets[0] must hold one of 'point' and 'segment' and nothing else"),
    ([{"point": [0.0, 0.0, 0.0], "weight": 1.0}],
     "grid.grading_targets[0] must hold one of 'point' and 'segment' and nothing else"),
    ([{"weight": 1.0}], "each grading target must carry a 'point' or a 'segment'"),
])
def test_ill_typed_grading_target_exits_one(capsys, monkeypatch, tmp_path,
                                            targets, message):
    # each target is checked before the grid is built (both were tracebacks)
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "build_problem", no_grid)
    code, out, err = run(capsys, "classify", "--example", "ball", "--config",
                         config_file(tmp_path, {"grid": {"grading_targets": targets}}))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[configuration]: {message}")


@pytest.mark.parametrize("flags, cfg, key", [
    (["--example", "ball"], {"problem": {"kernel": {"family": "constant", "rho": "x"}}},
     "problem.kernel.rho"),
    (["--rho", "0.1"], {"problem": 5}, "config key problem"),
])
def test_ill_typed_problem_section_exits_one(capsys, tmp_path, flags, cfg, key):
    code, out, err = run(capsys, "classify", *flags,
                         "--config", config_file(tmp_path, cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error[configuration]:")
    assert key in err


@pytest.mark.parametrize("part, key, takes", [
    ("coefficient", "axis", "the radial_power coefficient takes top, scale, power, "
                            "center, axes"),
    ("coefficient", "ofset", "the radial_power coefficient takes"),
    ("kernel", "widht", "the constant kernel takes rho"),
    ("domain", "radiuss", "the ball domain takes center, radius"),
])
def test_unknown_problem_key_exits_one(capsys, monkeypatch, tmp_path, part, key, takes):
    # a key no family of the part takes was once dropped without a word: on
    # the ungraded ball, "axis": [0, 1] ran as if the axes were all three
    refuse_build(monkeypatch)
    cfg = {"problem": {part: {key: [0, 1]}}, "grid": {"grading_depth": 0}}
    code, out, err = run(capsys, "classify", "--example", "ball",
                         "--config", config_file(tmp_path, cfg))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[configuration]: unknown config key "
                          f"problem.{part}.{key}; {takes}")


def test_unknown_problem_part_exits_one(capsys, monkeypatch, tmp_path):
    refuse_build(monkeypatch)
    code, out, err = run(capsys, "classify", "--example", "ball", "--config",
                         config_file(tmp_path, {"problem": {"grid": {}}}))
    assert (code, out) == (1, "")
    assert err.startswith("error[configuration]: unknown config key problem.grid; "
                          "problem takes domain, kernel, coefficient")


def test_key_of_another_family_is_ignored(tmp_path):
    # a config may switch a preset's kernel family and leave its rho behind,
    # and an offset on a radial power is the coordinate_linear family's
    cfg = {"problem": {"kernel": {"family": "gaussian", "amplitude": 0.05, "width": 0.6},
                       "coefficient": {"offset": 2.0}}}
    prob = built("classify", "--example", "ball", "--resolution", "3", "--depth", "4",
                 "--config", config_file(tmp_path, cfg))
    assert prob.kernel.params == {"amplitude": 0.05, "width": 0.6}
    assert prob.coeff.params == built("classify", "--example", "ball").coeff.params


@pytest.mark.parametrize("command, example, cfg, message", [
    ("classify", "ball", {"problem": {"coefficient": {"center": [0.0, 0.0, 0.0, 0.0]}}},
     "problem.coefficient.center has more coordinates than the domain's 3"),
    ("classify", "ball", {"problem": {"coefficient": {"axes": [0, 3]}}},
     "problem.coefficient.axes must index the coordinates of problem.coefficient.center"),
    ("classify", "ball", {"problem": {"coefficient": {"family": "coordinate_linear",
                                                      "coeffs": [1.0, 0.0]}}},
     "problem.coefficient.coeffs needs 3 entries"),
    ("classify", "ball", {"grid": {"grading_targets": [{"point": [0.0, 0.0]}]}},
     "grading target dimension mismatch: (0.0, 0.0) in a domain of dimension 3"),
    ("convergence", "cylinder",
     {"grid": {"grading_targets": [{"segment": [[0.0, 0.0], [0.0, 0.0]]}]},
      "options": {"quantity": "recip_integral", "levels": 2}},
     "grading target dimension mismatch: Segment("),
    ("classify", "ball", {"problem": {"domain": {"kind": "box", "lo": [0, 0],
                                                 "hi": [1, 1, 1]}}},
     "box bounds must be nonempty and of equal length"),
], ids=["center", "axes", "coeffs", "point-target", "segment-target", "box-bounds"])
def test_dimension_mismatch_exits_one(capsys, tmp_path, command, example, cfg, message):
    # each was a traceback (IndexError or ValueError), the segment only once
    # a study built its reference grid; the box was error[H1], exit 2
    code, out, err = run(capsys, command, "--example", example, "--resolution", "4",
                         "--depth", "4", "--config", config_file(tmp_path, cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error[configuration]: {message}")


@pytest.mark.parametrize("center, axes, message", [
    ([0.0, 0.0, 0.5], None,
     "product grids support grading toward segments along the second factor only"),
    ([0.3, 0.0, 0.5], [0, 1], "ball grids support grading toward the center only"),
], ids=["point", "off-axis-chord"])
def test_cylinder_grading_off_its_axis_exits_one(capsys, tmp_path, center, axes, message):
    # the cylinder is graded toward its axis only: the automatic target of
    # a radial power over all three axes is a point, and over the first two
    # about an off-axis center a chord the disk cannot be graded toward
    cfg = {"problem": {"coefficient": {"center": center, "axes": axes}},
           "grid": {"grading_targets": "auto"}}
    code, out, err = run(capsys, "classify", "--example", "cylinder", "--resolution", "4",
                         "--depth", "4", "--config", config_file(tmp_path, cfg))
    assert (code, out) == (1, "")
    assert err == f"error[configuration]: {message}\n"


def test_one_dimensional_box_segment_target_exits_one(capsys, tmp_path, monkeypatch):
    # the segment was dropped: the grid came out ungraded, a node lay on the
    # argmax set, and classify exited 2 with error[singular-node]
    def no_cells(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(geometry, "_line_cells", no_cells)
    cfg = {"problem": {
        "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
        "kernel": {"family": "constant", "rho": 0.05},
        "coefficient": {"family": "radial_power", "top": 1.0, "scale": 1.0,
                        "power": 1.0, "center": [0.375]},
    }, "grid": {"resolution": 4, "grading_targets": [{"segment": [[0.2], [0.5]]}]}}
    code, out, err = run(capsys, "classify", "--config", config_file(tmp_path, cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error[configuration]: interval grading targets must be points")


def problem_slots(node):
    """Every (object, key) pair of a config section, nested objects included."""
    for key, value in node.items():
        yield node, key
        if isinstance(value, dict):
            yield from problem_slots(value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_problem_section_fails_by_name(capsys, tmp_path, data):
    # the README config with its problem section mutated: every run ends in
    # a report or a named error, never a traceback
    cfg = readme_config()
    cfg["grid"].update(resolution=3, grading_depth=4)
    names = ["ball", "cylinder", "box", "constant", "gaussian", "radial_power",
             "coordinate_linear", "sphere"]
    values = st.sampled_from(["x", True, None, math.inf, -math.inf])
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(problem_slots(cfg["problem"]))
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["drop", "add", "set", "lengthen",
                                            "shorten", "rename"]))
        if action == "drop":
            del node[key]
        elif action == "add":
            node = node[key] if isinstance(node[key], dict) else node
            node[data.draw(st.sampled_from(["zzz", "axes", "offset", "rho", "height",
                                            "coeffs"]))] = data.draw(
                st.sampled_from([1.0, [0, 1], [0.0, 0.0, 0.0], "x"]))
        elif action == "set":
            node[key] = data.draw(values)
        elif isinstance(node[key], list):
            node[key] = (node[key] + [0.0] if action == "lengthen" else node[key][:-1])
        elif action == "rename" and key in ("kind", "family"):
            node[key] = data.draw(st.sampled_from(names))
    code, out, err = run(capsys, "classify", "--config", config_file(tmp_path, cfg))
    assert code in (0, 1, 2)
    assert code == 0 or (out == "" and err.startswith("error[")), err


@pytest.mark.parametrize("flags, key", [
    (["--x0", "2"], "options.x0"),
    (["--x0", "-0.5"], "options.x0"),
    (["--cantor-level", "-1"], "options.cantor_level"),
])
def test_selector_range_checked_before_any_grid(capsys, monkeypatch, flags, key):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel array was built")

    for module in (spectral, measure, verify):
        monkeypatch.setattr(module, "_kernel_operator", no_kernel)
    for command in ("solve", "convergence"):
        code, out, err = run(capsys, command, "--example", "cylinder", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error[configuration]:")
        assert key in err


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_x0_with_cantor_level_exits_one(capsys, monkeypatch, tmp_path, command):
    # x0 places the one atom, and a Cantor part has none: the selector was
    # once checked and then ignored
    refuse_build(monkeypatch)
    for extra in (["--x0", "0.5", "--cantor-level", "4"],
                  ["--config", config_file(tmp_path, {"options": {"x0": 0.1,
                                                                  "cantor_level": 2}})]):
        code, out, err = run(capsys, command, "--example", "cylinder", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error[configuration]: options.x0")
        assert "options.cantor_level" in err


@pytest.mark.parametrize("command, flags, options, key", [
    ("convergence", ["--quantity", "lambda1", "--cantor-level", "4", "--alpha", "7"], None,
     "options.alpha outside the residual study;"),
    ("classify", [], {"alpha": 2.0, "levels": 4, "quantity": "residual"}, "options.alpha;"),
    ("classify", [], {"levels": 4}, "options.levels;"),
    ("solve", [], {"residual_kind": "pointwise"}, "options.residual_kind;"),
], ids=["convergence-alpha", "classify-alpha", "classify-levels", "solve-residual-kind"])
def test_option_a_command_ignores_exits_one(capsys, monkeypatch, tmp_path,
                                             command, flags, options, key):
    # an option the command never reads was once accepted and ignored
    refuse_build(monkeypatch)
    if options is not None:
        flags = flags + ["--config", config_file(tmp_path, {"options": options})]
    code, out, err = run(capsys, command, "--example", "cylinder", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[configuration]: {command} ignores {key}")
    # an option left at its default counts as unset
    defaults = {k: cli._DEFAULTS["options"][k] for k in (options or {})}
    cli._assemble_config(cli._parse_args(
        [command, "--example", "cylinder", "--config",
         config_file(tmp_path, {"options": defaults})]))


def gaussian_cylinder():
    """The cylinder example's config, its kernel a Gaussian, at res 6/8."""
    cfg = copy.deepcopy(cli._EXAMPLES["cylinder"])
    cfg["problem"]["kernel"] = {"family": "gaussian", "amplitude": 0.4, "width": 1.0}
    cfg["grid"].update(resolution=6, grading_depth=8)
    return cfg


def test_classify_gaussian_cylinder_takes_ring_blocks(capsys, tmp_path, caplog):
    # a cylinder's grid is its disk's rings tiled along the axis, so the
    # Gaussian's K W is the ring blocks on both grids, and lambda1 is the
    # dense twin's top eigenvalue to round-off
    path = config_file(tmp_path, gaussian_cylinder())
    with caplog.at_level(logging.INFO, logger="specmeasure.spectral"):
        code, out, _ = run(capsys, "classify", "--config", path)
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "continuous_eigenfunction"
    line, = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("classify_regime:")]
    rings = re.search(r"; kernel ring rings=(\d+) of (\d+); "
                      r"kernel-coarse ring rings=(\d+) of (\d+)$", line).groups()
    m, n, m_c, n_c = map(int, rings)
    assert [m * n, m_c * n_c] == [row["n"] for row in reversed(report["diagnostics"])]
    prob = built("classify", "--config", path)
    assert prob.grid.ring == n
    s = np.sqrt(prob.grid.weights / (report["sup_a"] - prob.a_at_nodes))
    nodes = prob.grid.nodes
    dense = np.linalg.eigh(s[:, None] * prob.kernel.evaluate(nodes, nodes) * s[None, :])
    assert report["lambda1_ktilde"] == pytest.approx(dense[0][-1], rel=1e-13)


def test_cli_paths_import_no_scipy_or_argparse(tmp_path):
    # scipy is loaded only to refine the argmax of a custom coefficient, and
    # the flags are parsed without argparse, whose messages load gettext and
    # locale: every CLI path here, a usage error too, runs on numpy alone
    cfg = json.loads((Path(__file__).resolve().parents[1] / "bench"
                      / "gaussian_ball.json").read_text())
    cfg["problem"]["kernel"]["amplitude"] = 0.15
    cfg["grid"].update(resolution=4, grading_depth=6)
    # a coordinate_linear coefficient on a box: its maximizer is a corner,
    # an edge or a face in closed form
    box = {"problem": {"domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                       "kernel": {"family": "constant", "rho": 0.05},
                       "coefficient": {"family": "coordinate_linear",
                                       "coeffs": [1.0, 0.0]}},
           "grid": {"resolution": 8, "grading_depth": 6, "grading_targets": "auto"}}
    box_file = tmp_path / "box.json"
    box_file.write_text(json.dumps(box))
    commands = [
        ["classify", "--config", config_file(tmp_path, cfg)],
        ["solve", "--example", "ball"],
        ["convergence", "--example", "cylinder", "--quantity", "residual",
         "--cantor-level", "2"],
        ["solve", "--config", str(box_file)],
        ["solve", "--example", "ball", "--resolution", "x"],
    ]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        def heavy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] in
                          ("argparse", "gettext", "locale", "scipy"))
        import specmeasure.cli as cli
        loaded = [heavy_modules()]
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            loaded.append([code, heavy_modules()])
        print(json.dumps(loaded))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [0, []], [0, []], [0, []], [0, []], [1, []]]


def test_no_command_loads_numpy_fft(tmp_path):
    # numpy loads numpy.fft on first use, and nothing uses it: the ring
    # blocks take their DFT along the rings by matrix products.  The
    # import, a constant-kernel solve, a Gaussian on a ball grid (the ring
    # blocks) and a convergence study on the cylinder leave it unloaded
    cfg = json.loads((Path(__file__).resolve().parents[1] / "bench"
                      / "gaussian_ball.json").read_text())
    cfg["problem"]["kernel"]["amplitude"] = 0.15
    cfg["grid"].update(resolution=4, grading_depth=6)
    commands = [["solve", "--example", "ball", "--resolution", "4", "--depth", "5"],
                ["classify", "--config", config_file(tmp_path, cfg)],
                ["convergence", "--example", "cylinder", "--quantity", "residual",
                 "--cantor-level", "2"]]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import specmeasure.cli as cli
        loaded = ["numpy.fft" in sys.modules]
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded.append([code, "numpy.fft" in sys.modules])
        print(json.dumps(loaded))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, [0, False], [0, False], [0, False]]


def ball_rho(lambda1: float, depth: int) -> float:
    """The rho at which the ball example's Kt has radius ``lambda1``: the
    grid value of the reciprocal-gap integral is 4 pi (1 - 2^-(depth + 1))."""
    return lambda1 / (4.0 * math.pi * (1.0 - 0.5 ** (depth + 1)))


def test_solve_refuses_a_threshold_report(capsys, tmp_path):
    # lambda1 = 0.995 lies in a 1e-2 band around one, so the report says l1
    # and no measure is built; the solve once printed the l1 label next to
    # an atom-plus-density measure
    code, out, err = run(capsys, "solve", "--example", "ball",
                         "--rho", repr(ball_rho(0.995, 8)),
                         "--resolution", "4", "--depth", "8",
                         "--config", config_file(tmp_path,
                                                 {"tolerances": {"classify": 0.01}}))
    assert code == 2
    assert out == ""
    assert err.startswith("error[near-singular-system]")


def test_solve_builds_what_its_report_calls_singular(capsys, tmp_path):
    # lambda1 = 0.9995 lies outside a 1e-4 band: the report says singular
    # and the solve builds the measure
    code, out, err = run(capsys, "solve", "--example", "ball",
                         "--rho", repr(ball_rho(0.9995, 8)),
                         "--resolution", "4", "--depth", "8",
                         "--config", config_file(tmp_path,
                                                 {"tolerances": {"classify": 1e-4}}))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["regime"] == "singular_measure"
    assert payload["lambda1_ktilde"] == pytest.approx(0.9995, rel=1e-10)
    assert payload["eigenobject"]["kind"] == "measure"
    assert payload["eigenobject"]["residuals"]["pointwise"] <= 1e-10


def test_solve_runs_two_ktilde_perron_solves(capsys, monkeypatch):
    # the coarse and the fine classification; the Fredholm solve takes the
    # fine report's lambda1 instead of a third run.  The lambda_p root's
    # B(mu) solves go through the same routine and are not Kt runs
    sizes = []
    real = spectral._ktilde_pair

    def counted(kw, *args, **kwargs):
        if "start" not in kwargs:   # only the root's solves pass a start
            sizes.append(kw.weights.size)
        return real(kw, *args, **kwargs)

    monkeypatch.setattr(spectral, "_ktilde_pair", counted)
    monkeypatch.setattr(measure, "_ktilde_pair", counted)
    code, out, _ = run(capsys, "solve", "--example", "ball",
                       "--resolution", "4", "--depth", "5")
    assert code == 0
    n = json.loads(out)["eigenobject"]["density_size"]
    assert len(sizes) == 2
    assert sizes[1] == n > sizes[0]


def test_residual_study_classifies_at_the_config_tolerance(capsys, tmp_path):
    # lambda1 = 0.949 lies within the configured 0.1 band around one, so the
    # report says l1 and neither command builds a measure; the residual study
    # once classified at the default 1e-3 and printed residuals
    cfg = config_file(tmp_path, {"tolerances": {"classify": 0.1}})
    solve, study = (run(capsys, *command, "--example", "ball", "--rho", "0.0757",
                        "--config", cfg)
                    for command in (["solve"], ["convergence", "--quantity", "residual",
                                                "--levels", "2"]))
    assert study == solve
    code, out, err = solve
    assert code == 2
    assert out == ""
    assert err.startswith("error[near-singular-system]: normalized operator "
                          "radius 0.949")


def test_cli_paths_never_call_the_dense_public_api(capsys, monkeypatch):
    # the dense copies and the public perron are for inspection and tests
    # only; no command reaches them
    def refuse(*args, **kwargs):
        raise AssertionError("a CLI path called the dense public API")

    for name in ("perron", "assemble_full", "assemble_ktilde"):
        monkeypatch.setattr(spectral, name, refuse)
    small = ["--resolution", "4", "--depth", "5"]
    for args in (["classify", "--example", "ball", "--rho", "0.1"],
                 ["classify", "--example", "ball", "--rho", "0.05"],
                 ["solve", "--example", "ball"],
                 ["convergence", "--example", "ball", "--quantity", "lambda1",
                  "--levels", "2"],
                 ["convergence", "--example", "ball", "--rho", "0.1",
                  "--quantity", "lambda_p", "--levels", "2"],
                 ["convergence", "--example", "cylinder", "--quantity", "residual",
                  "--levels", "2", "--x0", "0.5"]):
        code, _, err = run(capsys, *args, *small)
        assert code == 0, (args, err)


def test_perron_and_fredholm_tolerances_are_never_reached(capsys, caplog, monkeypatch,
                                                          tmp_path):
    # the Perron residual and the Fredholm residual are module constants
    # (1e-10) because no command comes near them: every Kt and B(mu) solve
    # accepts the Arnoldi vector at the power loop's first matvec, at a
    # residual near round-off, and every Fredholm residual sits far below
    solves = []
    real = spectral._ktilde_pair

    def kept(*args, **kwargs):
        pair, product = real(*args, **kwargs)
        solves.append(pair)
        return pair, product

    monkeypatch.setattr(spectral, "_ktilde_pair", kept)
    monkeypatch.setattr(measure, "_ktilde_pair", kept)
    cfg = json.loads((Path(__file__).resolve().parents[1] / "bench"
                      / "gaussian_ball.json").read_text())
    cfg["problem"]["kernel"]["amplitude"] = 0.15
    small = ["--resolution", "5", "--depth", "6"]
    commands = [
        ["classify", "--config", config_file(tmp_path, cfg)],
        ["solve", "--example", "ball"],
        ["classify", "--example", "cylinder", "--rho", "0.155"],
        ["convergence", "--example", "cylinder", "--quantity", "residual",
         "--levels", "2", "--cantor-level", "4"],
    ]
    with caplog.at_level(logging.INFO, logger="specmeasure.measure"):
        for args in commands:
            count = len(solves)
            code, _, err = run(capsys, *args, *small)
            assert code == 0, (args, err)
            assert len(solves) > count, args
    assert [(p.start, p.iterations) for p in solves] == [("arnoldi", 1)] * len(solves)
    assert max(p.residual for p in solves) <= 1e-13
    fredholm = [float(re.search(r" residual=(\S+)", r.getMessage()).group(1))
                for r in caplog.records if r.getMessage().startswith("fredholm:")]
    assert len(fredholm) == 3           # solve, and one per convergence level
    assert max(fredholm) <= 1e-12
