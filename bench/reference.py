"""Independent references for the benchmark's correctness checks.

Nothing here goes through ``specmeasure.spectral``: only the quadrature grid
comes from ``specmeasure.geometry``, because the reference must describe the
same discrete problem the program solves.  The coefficient a = 1 - r^2 and
the kernels are evaluated here from their formulas.

Constant kernel rho (rank one):
    lambda1(Kt) = rho * sum w / (a0 - a)
    lambda_p    = -mu, mu the root above max a of rho * sum w / (mu - a) = 1
Gaussian kernel: the top eigenvalue of the symmetric matrices
    W^1/2 K W^1/2 + diag(a)   (gives -lambda_p)
    D^1/2 K D^1/2, D = w / (a0 - a)   (gives lambda1)
by dense LAPACK ``eigh``; at N = 3600 that takes seconds, so results are
cached per parameter in a directory the caller names.  The cache key holds
a digest of ``geometry.py``, whose grid the reference is computed on, so a
reference made for other geometry code is never reused.

``cached`` computes in a separate process, so the dense N x N matrices of
the Gaussian reference are gone before the first timed CLI child starts.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

from workloads import CONVERGENCE_LEVELS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"

A0 = 1.0                      # sup of a = 1 - r^2, attained on the argmax set
GAUSSIAN_WIDTH = 1.0


def _ball_grid(resolution: int, depth: int):
    from specmeasure.geometry import Ball, GradeSpec, build_grid
    spec = GradeSpec(targets=((0.0, 0.0, 0.0),), ratio=0.5, depth=depth)
    return build_grid(Ball(center=(0.0, 0.0, 0.0), radius=1.0), resolution, spec)


def _cylinder_size(resolution: int, depth: int) -> int:
    from specmeasure.geometry import Cylinder, GradeSpec, Segment, build_grid
    axis = Segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    spec = GradeSpec(targets=(axis,), ratio=0.5, depth=depth)
    return build_grid(Cylinder(radius=1.0, height=1.0), resolution, spec).size


def _top_eigenvalue(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(eigh(m, eigvals_only=True, subset_by_index=[n - 1, n - 1],
                      overwrite_a=True, check_finite=False)[0])


def constant_kernel(rho: float, weights: np.ndarray, a: np.ndarray) -> dict:
    lambda1 = rho * float(np.sum(weights / (A0 - a)))
    a_max = float(np.max(a))

    def secular(mu: float) -> float:
        return rho * float(np.sum(weights / (mu - a))) - 1.0

    mu = brentq(secular, a_max + 1e-6 * (A0 - a_max), A0,
                xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return {"lambda1": lambda1, "lambda_p": -mu}


def gaussian_kernel(amplitude: float, nodes: np.ndarray, weights: np.ndarray,
                    a: np.ndarray) -> dict:
    k = amplitude * np.exp(cdist(nodes, nodes, "sqeuclidean")
                           / (-2.0 * GAUSSIAN_WIDTH**2))
    sw = np.sqrt(weights)
    full = k * np.outer(sw, sw)
    full[np.diag_indices_from(full)] += a
    mu = _top_eigenvalue(full)
    sd = np.sqrt(weights / (A0 - a))
    lambda1 = _top_eigenvalue(k * np.outer(sd, sd))
    return {"lambda1": lambda1, "lambda_p": -mu}


def compute(workload: Workload, value: float) -> dict:
    """Reference values for one workload at one problem parameter."""
    if workload.name == "convergence-cantor":
        sizes = [_cylinder_size(workload.resolution + lv, workload.depth + lv)
                 for lv in range(CONVERGENCE_LEVELS)]
        return {"sizes": sizes}
    grid = _ball_grid(workload.resolution, workload.depth)
    nodes = np.asarray(grid.nodes, dtype=float)
    weights = np.asarray(grid.weights, dtype=float)
    a = 1.0 - np.sum(nodes * nodes, axis=1)
    if workload.name == "solve-ball":
        return constant_kernel(value, weights, a)
    return gaussian_kernel(value, nodes, weights, a)


def cached(workload: Workload, value: float, cache_dir: Path) -> dict:
    """``compute`` in a child process, with results kept under cache_dir."""
    geometry = (SRC / "specmeasure" / "geometry.py").read_bytes()
    digest = hashlib.sha256(geometry).hexdigest()[:16]
    path = cache_dir / (f"{workload.name}-{value:.6f}-"
                        f"{workload.resolution}-{workload.depth}-{digest}.json")
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        request = json.dumps({"workload": asdict(workload), "value": value,
                              "path": str(path)})
        subprocess.run([sys.executable, __file__, request], check=True,
                       timeout=170)
    return json.loads(path.read_text())


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    spec = request["workload"]
    workload = Workload(spec["name"], tuple(spec["band"]), spec["resolution"],
                        spec["depth"])
    ref = compute(workload, request["value"])
    path = Path(request["path"])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref, sort_keys=True))
    tmp.replace(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
