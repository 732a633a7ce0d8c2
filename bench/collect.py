"""Repeat run.py over seeds and summarize the spread of each metric.

Run from the repository root:

    python3 bench/collect.py --workloads solve-ball,classify-gaussian \
        --seeds 1-10 [--trace 0|1] [--out FILE]

Each (workload, seed) is one ``run.py`` invocation with the run length from
BENCHMARK.json.  For every metric the summary gives the ten values, their
median and quartiles (``statistics.quantiles(n=4)``), and the spread: the
distance between the quartiles as a share of the median.  The end-to-end
spreads must stay below the bounds in BENCHMARK.json.  ``--out`` merges the
summary into a JSON file (bench/baseline.json holds the committed
baseline) under ``end_to_end`` or ``per_layer`` by workload, together with
the machine description; otherwise it is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from run import machine  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        results = [one_run(workload, s, bench["run_seconds"], args.trace)
                   for s in args.seeds]
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            if name in bounds:
                print(f"{workload:20s} {name:14s} median {m['median']:.4g} "
                      f"{m['unit']}  spread {m['spread']:.3f}  bound "
                      f"{bounds[name]}", flush=True)
    if not args.out:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc["run_seconds"] = bench["run_seconds"]
    doc.setdefault("per_layer" if args.trace else "end_to_end", {}).update(summary)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
