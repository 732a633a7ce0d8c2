"""The benchmark's trace hooks name functions that exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve(monkeypatch):
    # bench/spans.py wraps each (module, name) with getattr, so a deleted or
    # renamed function would crash every traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # for its dataclasses
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{owner}.{name}" for owner, name, *_ in spans.TRACED
               if not callable(getattr(importlib.import_module(f"specmeasure.{owner}"),
                                       name, None))]
    assert missing == []
