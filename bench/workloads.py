"""The three benchmark workloads and the inputs a seed generates for them.

Each workload is one CLI invocation; README.md says why each was chosen.
The seed picks the problem parameter (the Gaussian amplitude or the
constant kernel value rho) uniformly from a band that sits well inside the
workload's regime, so a claim made on one seed can be re-checked on
another.  The bands are narrow because Perron's iteration count moves with
the parameter: across amplitude 0.14-0.16 it doubles.  The program only
ever sees the generated config file or flags.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GAUSSIAN_CONFIG = BENCH_DIR / "gaussian_ball.json"


@dataclass(frozen=True)
class Workload:
    name: str
    band: tuple[float, float]    # seed band of the problem parameter
    resolution: int
    depth: int


WORKLOADS = {
    w.name: w for w in (
        Workload("classify-gaussian", (0.149, 0.151), 10, 12),
        Workload("solve-ball", (0.048, 0.052), 8, 10),
        Workload("convergence-cantor", (0.04, 0.06), 8, 10),
    )
}

CONVERGENCE_LEVELS = 3
CANTOR_LEVEL = 4


def parameter(workload: Workload, seed: int) -> float:
    """Problem parameter for a seed, rounded so argv and config stay short."""
    lo, hi = workload.band
    u = random.Random(f"{workload.name}:{seed}").random()
    return round(lo + (hi - lo) * u, 6)


def gaussian_config(amplitude: float, resolution: int, depth: int) -> dict:
    """The base config of gaussian_ball.json with the seed's amplitude and
    the workload's grid size, which only WORKLOADS defines."""
    cfg = json.loads(GAUSSIAN_CONFIG.read_text())
    cfg["problem"]["kernel"]["amplitude"] = amplitude
    cfg["grid"]["resolution"] = resolution
    cfg["grid"]["grading_depth"] = depth
    return cfg


def cli_argv(workload: Workload, value: float, workdir: Path) -> list[str]:
    """Arguments for ``specmeasure.cli.main``; may write a config into workdir."""
    res, dep = str(workload.resolution), str(workload.depth)
    if workload.name == "classify-gaussian":
        path = workdir / f"gaussian-{value:.6f}-{res}-{dep}.json"
        cfg = gaussian_config(value, workload.resolution, workload.depth)
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        return ["classify", "--config", str(path)]
    if workload.name == "solve-ball":
        return ["solve", "--example", "ball", "--rho", f"{value:.6f}",
                "--resolution", res, "--depth", dep]
    if workload.name == "convergence-cantor":
        return ["convergence", "--example", "cylinder", "--quantity", "residual",
                "--levels", str(CONVERGENCE_LEVELS),
                "--cantor-level", str(CANTOR_LEVEL),
                "--rho", f"{value:.6f}", "--resolution", res, "--depth", dep]
    raise KeyError(workload.name)
