"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 bench/smoke.py

Every workload runs at resolution 4 in both modes.  The test checks that
the metrics printed are exactly those BENCHMARK.json declares, with their
units, and that no run fails.  It then hands the output checker a
deliberately perturbed reference and requires it to report a problem: this
tests the checker, not the program.  Last, a copy of the benchmark without
``src/`` must exit non-zero without printing a result.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from reference import compute
from workloads import WORKLOADS

TINY = {"resolution": 4, "depth": 4}


def perturbed_references(name: str, ref: dict) -> list[dict]:
    if name == "convergence-cantor":
        return [{**ref, "sizes": [ref["sizes"][0] + 1] + ref["sizes"][1:]}]
    shift = 10 * run.TOL_CLASSIFY
    return [{**ref, "lambda_p": ref["lambda_p"] + shift},
            {**ref, "lambda1": ref["lambda1"] - shift}]


def check_workload(name: str, declared: dict) -> list[str]:
    errors = []
    tiny = dataclasses.replace(WORKLOADS[name], **TINY)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(tiny, seed=0, seconds=0, trace=trace)
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared[section]}
        if printed != wanted:
            errors.append(f"{name} {section}: printed {printed}, declared {wanted}")
        if result["failed"]:
            errors.append(f"{name} {section}: {result['failed']} runs failed: "
                          f"{[r['problems'] for r in result['runs']]}")
    stdout = result["runs"][0]["stdout"]
    ref = compute(tiny, result["parameter"])
    if run.check_output(name, stdout, ref)[0]:
        errors.append(f"{name}: checker rejects the true reference")
    for bad in perturbed_references(name, ref):
        if not run.check_output(name, stdout, bad)[0]:
            errors.append(f"{name}: checker accepts perturbed reference {bad}")
    return errors


def check_without_sources() -> list[str]:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "solve-ball",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} "
                f"and printed {proc.stdout!r}"]
    return []


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    errors = []
    for name in sorted(WORKLOADS):
        errors += check_workload(name, declared)
    errors += check_without_sources()
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
