"""One workload process: set up, print ``ready``, run at most one operation.

Run from the root of a checkout by ``run.py``::

    python3 perfbench/worker.py WORKLOAD INPUTS MODE WORKERS

MODE is ``setup`` (exit once ready), ``op`` (one untraced operation) or
``trace`` (one operation with spans).  After the operation the process
prints one JSON line: the operation's record, plus spans and counters
when traced.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def timed_op(workload, inputs, workers, tracer):
    """Run one operation; time it, then describe its outputs (untimed)."""
    wl.clear_outputs(workload)
    os.environ["ORBITLAB_THREADS"] = str(workers)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        raw, error = wl.run_op(workload, inputs, tracer), None
    except Exception as exc:  # a failed operation is counted, not fatal
        raw, error = None, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    rec = {"wall_s": t1 - t0, "cpu_s": c1 - c0, "error": error}
    if error is None:
        try:
            rec.update(wl.describe(workload, raw))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return rec


def main(argv):
    workload, inputs_path, mode, workers = argv
    if mode not in ("setup", "op", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    wl.setup(workload, inputs)
    import orbitlab

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(orbitlab.__file__).startswith(src):
        raise SystemExit(f"orbitlab imported from {orbitlab.__file__}, "
                         f"not from {src}")
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    tracer.install()
    try:
        rec = timed_op(workload, inputs, int(workers), tracer)
    finally:
        tracer.uninstall()
    if mode == "trace":
        rec["spans"], rec["counters"] = tracer.spans, tracer.counters
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
