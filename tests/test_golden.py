"""The README worked examples print exactly the committed stdout.

Each file under ``tests/golden/`` holds the stdout of one command from the
README's "Worked examples".  A change that moves any byte of it must say
why (a documented correctness fix) and replace the file.
"""

from pathlib import Path

import pytest

from specmeasure import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = {
    "classify_ball_rho0.1.json": "classify --example ball --rho 0.1",
    "classify_ball_rho0.05.json": "classify --example ball --rho 0.05",
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
