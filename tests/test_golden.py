"""The README worked examples print exactly the committed stdout.

Each file under ``tests/golden/`` holds the stdout of one command from the
README's "Worked examples".  A change that moves any byte of it must say
why (a documented correctness fix) and replace the file.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from specmeasure import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = {
    "classify_ball_rho0.1.json": "classify --example ball --rho 0.1",
    "classify_ball_rho0.05.json": "classify --example ball --rho 0.05",
    "classify_cylinder_rho0.159155.json":
        "classify --example cylinder --rho 0.159155 --resolution 6 --depth 12",
    "solve_ball_rho0.05.json": "solve --example ball --rho 0.05",
    "solve_cylinder_cantor4.json": "solve --example cylinder --cantor-level 4",
    "convergence_ball_lambda1_levels3.csv":
        "convergence --example ball --quantity lambda1 --levels 3",
}


def test_golden_files_are_the_readme_examples():
    readme = (GOLDEN.parents[1] / "README.md").read_text()
    examples = readme.split("## Worked examples", 1)[1]
    listed = [" ".join(line.split("#")[0].split()[1:])
              for line in examples.splitlines()
              if line.strip().startswith("specmeasure ")]
    assert listed == list(EXAMPLES.values())
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(EXAMPLES)


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_worked_example_stdout_is_unchanged(capsys, name):
    code = cli.main(EXAMPLES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_stdout_is_the_same_with_one_and_two_blas_threads(tmp_path):
    # the classify goldens, a test-size bench Gaussian and a Gaussian on the
    # cylinder (continuous, both on the ring blocks: the DFT along the rings
    # and its inverse as matrix products, a batched matmul of the blocks,
    # and Arnoldi on the zero-frequency block) rerun in fresh interpreters
    # print the same bytes whatever the number of BLAS threads
    cfg = json.loads((GOLDEN.parents[1] / "bench" / "gaussian_ball.json").read_text())
    cfg["problem"]["kernel"]["amplitude"] = 0.15
    cfg["grid"].update(resolution=6, grading_depth=8)
    config = tmp_path / "gaussian.json"
    config.write_text(json.dumps(cfg))
    cylinder = tmp_path / "gaussian-cylinder.json"
    cyl = copy.deepcopy(cli._EXAMPLES["cylinder"])
    cyl["problem"]["kernel"] = {"family": "gaussian", "amplitude": 0.4, "width": 1.0}
    cyl["grid"].update(resolution=6, grading_depth=8)
    cylinder.write_text(json.dumps(cyl))
    goldens = [name for name in EXAMPLES if name.startswith("classify_")]
    commands = [EXAMPLES[name].split() for name in goldens]
    commands.append(["classify", "--config", str(config)])
    commands.append(["classify", "--config", str(cylinder)])
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import specmeasure.cli as cli
        outs = []
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            outs.append(out.getvalue() if code == 0 else f"exit {code}")
        print(json.dumps(outs))
    """)
    src = GOLDEN.parents[1] / "src"
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert all('"regime": "continuous_eigenfunction"' in out for out in runs[0][-2:])
    for name, out in zip(goldens, runs[0]):
        assert out.encode() == (GOLDEN / name).read_bytes()
