"""Spans around calls into the package's public functions, from outside.

``install(tracer)`` replaces each traced function by a wrapper in every
``specmeasure`` module that binds it: ``measure`` and ``verify`` import
``perron`` and ``assemble_ktilde`` by name, ``cli`` imports
``classify_regime`` and ``build_grid`` the same way, so patching only the
defining module would miss those calls.  ``Problem.__post_init__`` is
wrapped on the class, because ``spectral`` builds coarse problems without
going through ``build_problem``.

Spans stay in memory and are written as JSON lines when the run ends.
Counts come from return values only; bytes are computed, not measured, as
N^2 * 8 per dense matrix assembled or per dense matvec.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **s.counts}, sort_keys=True) + "\n")


def _dense_bytes(n: int) -> int:
    return n * n * 8


def _perron_counts(pair) -> dict:
    n = pair.vector.size
    return {"matvecs": pair.iterations,
            "bytes": pair.iterations * _dense_bytes(n),
            "stop_residual": int(pair.stopped_by == "residual"),
            "stop_interval": int(pair.stopped_by == "interval")}


def _operator_counts(matrix) -> dict:
    return {"bytes": _dense_bytes(matrix.grid.size)}


# (defining module, function name, span name, counts from the return value)
TRACED = (
    ("geometry", "build_grid", "geometry.build_grid",
     lambda grid: {"nodes": grid.size}),
    ("model", "build_problem", "model.build_problem", None),
    ("model", "detect_argmax_set", "model.detect_argmax_set", None),
    ("spectral", "assemble_full", "spectral.assemble_full", _operator_counts),
    ("spectral", "assemble_ktilde", "spectral.assemble_ktilde", _operator_counts),
    ("spectral", "perron", "spectral.perron", _perron_counts),
    ("spectral", "estimate_lambda_p", "spectral.estimate_lambda_p",
     lambda est: {"matvecs": est.iterations}),
    ("spectral", "classify_regime", "spectral.classify_regime", None),
    ("measure", "build_singular_solution", "measure.build_singular_solution", None),
    ("measure", "kernel_moment", "measure.kernel_moment", None),
    ("verify", "weak_residual", "verify.weak_residual",
     lambda rep: {"eval_n": rep.eval_size}),
    ("verify", "pointwise_residual", "verify.pointwise_residual",
     lambda rep: {"eval_n": rep.eval_size}),
    ("verify", "refinement_study", "verify.refinement_study", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a ``specmeasure`` module binds it."""
    import specmeasure.cli  # noqa: F401  (loads every package module)

    modules = [m for key, m in sys.modules.items()
               if key == "specmeasure" or key.startswith("specmeasure.")]
    for owner, attr, name, counter in TRACED:
        original = getattr(sys.modules[f"specmeasure.{owner}"], attr)
        wrapped = tracer.wrap(name, original, counter)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    problem = sys.modules["specmeasure.model"].Problem
    problem.__post_init__ = tracer.wrap("model.problem_init",
                                        problem.__post_init__)
