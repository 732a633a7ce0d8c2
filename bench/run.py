"""specmeasure benchmark: CLI workloads in fresh child processes.

Usage (from the repository root):

    python3 bench/run.py --workload classify-gaussian|solve-ball|convergence-cantor|all
                         --seed N --seconds S --trace 0|1

The seed picks the workload's problem parameter (see workloads.py).  Child
processes run one after another, each a fresh interpreter on ``src/``, until
``--seconds`` have passed and at least three have finished.  Each child's
output is checked against an independent reference (reference.py); a run
fails if it exits non-zero, fails a check, or prints other bytes than the
first run of the same seed.  Failed runs are counted, never retried.

``--trace 0`` reports the end-to-end metrics: medians of ``run_s`` (wall
time of ``cli.main`` after imports), ``setup_s`` (spawn until
``specmeasure.cli`` is imported) and ``peak_rss_mb`` (the child's VmHWM).
A discarded import-only child warms the file cache first, and after every
CLI child ``SETUP_EXTRA`` import-only children add ``setup_s`` samples, so
its median rests on several times as many set-ups as ``run_s``.
``--trace 1`` alternates untraced and traced children and reports
per-layer metrics from the spans of spans.py; their counts must repeat
exactly across the traced runs of one seed.

Human-readable lines come first, including the accuracy errors and the
failure fraction; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 without a result
means the benchmark could not run at all (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"          # generated configs, span files, reference cache

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402
from workloads import WORKLOADS, Workload, cli_argv, parameter  # noqa: E402

TOL_CLASSIFY = 1e-3                 # the CLI's default ``classify`` tolerance
MIN_RUNS = 3
MIN_TRACED = 2
SETUP_EXTRA = 2                     # import-only children after each CLI child
CHILD_TIMEOUT_S = 150

EXPECTED_REGIME = {"classify-gaussian": "continuous_eigenfunction",
                   "solve-ball": "singular_measure"}
CSV_HEADER = "level,size,value,delta,ratio"

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# fields recorded per span; every field but the times is a count that must
# repeat exactly across the traced runs of one seed
LAYERS = (
    ("spectral.perron",
     ("calls", "s", "matvecs", "bytes", "stop_residual", "stop_interval")),
    ("spectral.estimate_lambda_p", ("calls", "s", "matvecs")),
    ("spectral.assemble_full", ("calls", "s", "bytes")),
    ("spectral.assemble_ktilde", ("calls", "s", "bytes")),
    ("spectral.classify_regime", ("s", "self_s")),
    ("measure.build_singular_solution", ("calls", "s", "self_s")),
    ("measure.kernel_moment", ("calls", "s")),
    ("verify.weak_residual", ("calls", "s", "eval_n")),
    ("verify.pointwise_residual", ("calls", "s", "eval_n")),
    ("verify.refinement_study", ("s",)),
    ("model.build_problem", ("calls", "s")),
    ("model.problem_init", ("calls", "s")),
    ("model.detect_argmax_set", ("calls", "s")),
    ("geometry.build_grid", ("calls", "s", "nodes")),
    ("cli.main", ("s", "self_s")),
)
TIME_FIELDS = ("s", "self_s")
UNITS = {"s": "s", "self_s": "s", "bytes": "B-computed"}
# (metric, span, field, unit); the CLI's self time is reported as cli.self_s
PER_LAYER = tuple(
    ("cli.self_s" if (span, field) == ("cli.main", "self_s") else f"{span}.{field}",
     span, field, UNITS.get(field, "count"))
    for span, fields in LAYERS for field in fields
)


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": nproc(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": nproc(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def child_env() -> dict:
    """Children see only ``src/``; BLAS gets one thread per available CPU."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(nproc())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env.pop("SPECMEASURE_LOG", None)
    return env


def spawn(argv: list[str] | None, trace_path: Path | None, env: dict) -> dict:
    """Run one child; returns its report plus ``setup_s`` and ``problems``.

    With ``argv`` None the child only imports the package.
    """
    request = json.dumps({"argv": argv,
                          "trace": None if trace_path is None else str(trace_path)})
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), request],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"child exited {proc.returncode} without a report: "
                             f"{proc.stderr.strip()[-400:]}"]}
    if "import_error" in report:
        raise BenchmarkError(f"cannot import specmeasure: {report['import_error']}")
    report["setup_s"] = report["imported"] - start
    report["problems"] = []
    if proc.returncode != 0 or report.get("code", 0) != 0:
        report["problems"].append(
            f"exit code {report['code']}: {proc.stderr.strip()[-400:]}")
    return report


def check_output(name: str, stdout: str, ref: dict) -> tuple[list[str], dict]:
    """Problems found in one run's stdout, and the accuracy errors measured."""
    if name == "convergence-cantor":
        return _check_convergence(stdout, ref)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], {}
    problems = []
    if report.get("regime") != EXPECTED_REGIME[name]:
        problems.append(f"regime {report.get('regime')!r}, "
                        f"expected {EXPECTED_REGIME[name]!r}")
    errors = {}
    for key, ref_key, metric in (("lambda_p", "lambda_p", "lambda_p_err"),
                                 ("lambda1_ktilde", "lambda1", "lambda1_err")):
        value = report.get(key)
        if not isinstance(value, float):
            problems.append(f"{key} missing")
            continue
        errors[metric] = abs(value - ref[ref_key])
        if not errors[metric] <= TOL_CLASSIFY:
            problems.append(f"{key} = {value!r} is {errors[metric]:.3e} from the "
                            f"reference {ref[ref_key]!r}")
    return problems, errors


def _check_convergence(stdout: str, ref: dict) -> tuple[list[str], dict]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["convergence CSV header missing"], {}
    try:
        rows = [line.split(",") for line in lines[1:]]
        sizes = [int(r[1]) for r in rows]
        values = [float(r[2]) for r in rows]
    except (IndexError, ValueError) as exc:
        return [f"convergence CSV does not parse: {exc}"], {}
    problems = []
    if sizes != ref["sizes"]:
        problems.append(f"grid sizes {sizes}, expected {ref['sizes']}")
    if not all(math.isfinite(v) and v > 0 for v in values):
        problems.append(f"residuals {values} are not finite and positive")
    if any(b >= a for a, b in zip(values, values[1:])):
        problems.append(f"residuals {values} do not decrease")
    errors = {"residual_fine": values[-1]} if values else {}
    return problems, errors


def layer_totals(path: Path) -> dict:
    """Per span name: calls, summed ``s``, summed ``self_s`` and counts."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = {}
    for span, child_s in zip(spans, covered):
        t = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - child_s
        for key, value in span.items():
            if key not in ("id", "name", "start", "end", "parent"):
                t[key] = t.get(key, 0) + value
    return totals


def per_layer_metrics(traced: list[dict], untraced_run_s: float) -> tuple[dict, list[str]]:
    problems = []
    metrics = {}
    for metric, span, field, unit in PER_LAYER:
        values = [t.get(span, {}).get(field, 0) for t in traced]
        if field in TIME_FIELDS:
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{metric} differs across traced runs: {values}")
        metrics[metric] = {"value": value, "unit": unit}
    traced_main = metrics["cli.main.s"]["value"]
    metrics["trace_overhead_s"] = {"value": traced_main - untraced_run_s, "unit": "s"}
    return metrics, problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    name = workload.name
    value = parameter(workload, seed)
    WORK.mkdir(exist_ok=True)
    argv = cli_argv(workload, value, WORK)
    ref = reference.cached(workload, value, WORK / "reference")
    env = child_env()

    spawn(None, None, env)
    runs, traced, setups = [], [], []
    deadline = time.monotonic() + seconds
    while (len(runs) < MIN_RUNS or (trace and len(traced) < MIN_TRACED)
           or time.monotonic() < deadline):
        trace_path = None
        if trace and len(runs) % 2 == 1:
            trace_path = WORK / f"spans-{name}-{seed}-{len(runs)}.jsonl"
        run = spawn(argv, trace_path, env)
        run["traced"] = trace_path is not None
        if "stdout" in run:
            problems, run["errors"] = check_output(name, run["stdout"], ref)
            run["problems"] += problems
            first = runs[0].get("stdout") if runs else None
            if first is not None and run["stdout"] != first:
                run["problems"].append("stdout differs from the first run of this seed")
        if trace_path is not None and trace_path.exists():
            traced.append(layer_totals(trace_path))
            trace_path.unlink()
        runs.append(run)
        if "setup_s" in run and not run["traced"]:
            setups.append(run["setup_s"])
        for _ in range(0 if trace else SETUP_EXTRA):
            extra = spawn(None, None, env)
            if extra["problems"]:
                raise BenchmarkError(f"import-only child failed: {extra['problems']}")
            setups.append(extra["setup_s"])

    finished = [r for r in runs if "run_s" in r]
    plain = [r["run_s"] for r in finished if not r["traced"]]
    if not plain or (trace and not traced):
        raise BenchmarkError(f"too few children of {name} finished: "
                             f"{[r['problems'] for r in runs]}")
    if trace:
        metrics, problems = per_layer_metrics(traced, statistics.median(plain))
        for run in runs:
            if run["traced"]:
                run["problems"] += problems
    else:
        metrics = {m: {"value": statistics.median(r[m] for r in finished), "unit": u}
                   for m, u in END_TO_END}
        metrics["setup_s"]["value"] = statistics.median(setups)
    errors = {}
    for r in finished:
        for key, err in r.get("errors", {}).items():
            errors[key] = max(errors.get(key, 0.0), err)
    return {"name": name, "seed": seed, "parameter": value, "runs": runs,
            "setups": setups,
            "attempted": len(runs),
            "failed": sum(1 for r in runs if r["problems"]),
            "metrics": metrics,
            "errors": errors}


def describe(result: dict, info: dict) -> None:
    param = "amplitude" if result["name"] == "classify-gaussian" else "rho"
    print(f"workload {result['name']}  seed {result['seed']}  "
          f"{param} {result['parameter']}  runs {result['attempted']}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for metric, m in result["metrics"].items():
        print(f"  {metric:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':42s} {result['failed'] / result['attempted']:.6g} ratio")
    for metric, err in sorted(result["errors"].items()):
        print(f"  {metric:42s} {err:.6g} abs")
    run_s = [f"{r['run_s']:.3f}" for r in result["runs"]
             if "run_s" in r and not r["traced"]]
    print(f"  run_s samples, untraced: {' '.join(run_s)}")
    setup_s = [f"{s:.3f}" for s in result["setups"]]
    print(f"  setup_s samples, untraced: {' '.join(setup_s)}")
    for i, run in enumerate(result["runs"]):
        for problem in run["problems"]:
            print(f"  run {i} FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specmeasure" / "cli.py").is_file():
        print(f"bench: no specmeasure sources under {SRC}", file=sys.stderr)
        return 2
    info = machine()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            describe(result, info)
            print(json.dumps({"correct": result["failed"] == 0,
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": result["metrics"]}))
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
