"""One fresh-process run of ``specmeasure.cli.main``, started by run.py.

Usage: python3 child.py '<request JSON>'
The request holds ``argv`` for the CLI and ``trace``, a JSON-lines path for
spans or null.  The program's stdout is captured; this process prints one
JSON line: the monotonic time at which ``specmeasure.cli`` finished
importing, the wall time of ``main`` after imports, its return code, the
captured stdout and the peak resident set size (``VmHWM``).  With ``argv``
null the child only imports and reports the import time.  If the package
cannot be imported it prints ``import_error`` and exits 3.

``VmHWM`` belongs to this process's own address space, which starts fresh
at exec; ``ru_maxrss`` would carry over the parent's high-water mark.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    request = json.loads(sys.argv[1])
    try:
        import specmeasure.cli as cli
    except ImportError as exc:
        print(json.dumps({"import_error": repr(exc)}))
        return 3
    imported = time.monotonic()
    if request["argv"] is None:
        print(json.dumps({"imported": imported}))
        return 0

    tracer = None
    if request["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(request["argv"])
        run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.write_jsonl(request["trace"])
    print(json.dumps({"imported": imported, "run_s": run_s, "code": code,
                      "stdout": out.getvalue(), "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
