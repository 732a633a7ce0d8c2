"""Command line behavior: schemas, exit codes, determinism."""

import dataclasses
import json
import logging
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from specmeasure import cli, measure, model, spectral, verify


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


def test_readme_config_example_runs(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    cfg = json.loads(block)
    cfg["grid"].update(resolution=4, grading_depth=5)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "classify", "--config", str(path))
    assert code == 0, err
    assert json.loads(out)["regime"] == "singular_measure"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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
        return dataclasses.replace(report, lambda_p=math.inf), kw

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


def counting_kernel(monkeypatch):
    """Make the CLI's kernels count their evaluations: rows[n] is the number
    of rows evaluated against all n nodes of an n-node grid."""
    rows: dict[int, int] = {}
    real_build = cli._build_kernel

    def build(spec):
        kernel = real_build(spec)

        def evaluate(x, y):
            rows[y.shape[0]] = rows.get(y.shape[0], 0) + x.shape[0]
            return kernel.evaluate(x, y)

        return dataclasses.replace(kernel, evaluate=evaluate)

    monkeypatch.setattr(cli, "_build_kernel", build)
    return rows


def test_solve_evaluates_fine_grid_once(capsys, monkeypatch):
    # the Fredholm solve reuses the K W the classification built; the
    # kernel validation samples 96 rows, fewer than one grid's worth
    rows = counting_kernel(monkeypatch)
    code, out, _ = run(capsys, "solve", "--example", "ball")
    assert code == 0
    n = json.loads(out)["eigenobject"]["density_size"]
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
    assert peak <= 1.3 * 8 * n * n


def test_solve_detects_argmax_and_takes_moment_once(capsys, monkeypatch):
    counts = {}
    for owner, name in ((model, "detect_argmax_set"), (measure, "kernel_moment")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in (cli, model, spectral, measure, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "solve", "--example", "ball",
                     "--resolution", "4", "--depth", "5")
    assert code == 0
    assert counts == {"detect_argmax_set": 1, "kernel_moment": 1}


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
    monkeypatch.setattr("specmeasure.model._memory_budget", lambda: 10**5)
    code, out, err = run(capsys, "classify", "--example", "ball",
                         "--rho", "0.1", "--resolution", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error[too-large]")


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
    cfg2.write_text(json.dumps({"tolerances": {"power": 0.0}}))
    code, _, err = run(capsys, "classify", "--example", "ball",
                       "--config", str(cfg2))
    assert code == 1 and "tolerance" in err


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
