"""orbitlab benchmark: one workload per invocation, closed loop, one client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload count --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the same numbers for people, with the run's
metadata.  See perfbench/README.md for how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

# Set-up is also timed in every operation's process, so setup_s has at
# least five samples per run, some of them spread over the run.
SETUP_PROBES = 4
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(WORKER)),
                              "BENCHMARK.json")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload, inputs_path, mode, workers):
    """Run one workload process to its end.

    Returns the seconds from spawning it until it reported ``ready`` and
    the record of its operation (None for a set-up probe), with the
    process's peak resident memory added."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, inputs_path, mode, str(workers)],
        stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    if mode == "setup":
        return setup, None
    rec = json.loads(rest.strip().splitlines()[-1])
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return setup, rec


def check_ops(workload, inputs, seed, ops):
    """Count failed operations; every repeat must equal the first."""
    try:
        ref = wl.expected(workload, inputs, seed)
    except Exception as exc:  # the second route failed: nothing passes
        return len(ops), [f"reference route failed: {exc!r}"]
    problems, failed = [], 0
    first = wl.output_key(ops[0])
    for i, op in enumerate(ops):
        bad = wl.check(workload, op, ref)
        if not bad and wl.output_key(op) != first:
            bad = ["outputs differ from the first operation's"]
        if bad:
            failed += 1
            problems.extend(f"op {i}: {b}" for b in bad)
    return failed, problems


def end_to_end(ops, setups):
    good = [op for op in ops if op.get("elements")]
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "elements_per_s": statistics.median(
            op["elements"] / op["wall_s"] for op in good) if good else 0.0,
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "setup_s": statistics.median(setups),
    }


def per_layer(ops, workers):
    """Layer metrics from the ops of a traced run: untraced at 1 and at 2
    workers, then traced at ``workers``."""
    one, two, traced = ops
    import tracing

    values = tracing.layer_metrics(traced["spans"], traced["counters"])
    values["scaling.speedup_2w"] = one["wall_s"] / two["wall_s"]
    untraced = one if workers == 1 else two
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return values


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def metadata(workload, seed, seconds, trace):
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "workers": wl.WORKERS[workload],
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loop": "closed, 1 client"}


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join("src", "orbitlab", "__init__.py")):
        raise BenchError("src/orbitlab not found: run from a checkout root")
    sys.path.insert(0, os.path.abspath("src"))
    inputs = wl.make_inputs(workload, seed)
    wl.prepare(workload, inputs)
    inputs_path = os.path.join(wl.OUT_DIR, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    workers = wl.WORKERS[workload]
    if trace:
        ops = [spawn(workload, inputs_path, mode, n)[1]
               for mode, n in (("op", 1), ("op", 2), ("trace", workers))]
    else:
        setups = [spawn(workload, inputs_path, "setup", workers)[0]
                  for _ in range(SETUP_PROBES)]
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            setup, rec = spawn(workload, inputs_path, "op", workers)
            setups.append(setup)
            ops.append(rec)
    failed, problems = check_ops(workload, inputs, seed, ops)
    if trace:
        metrics = per_layer(ops, workers)
        units = declared_units("per_layer")
    else:
        metrics, units = end_to_end(ops, setups), declared_units("end_to_end")
    if set(metrics) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    meta = metadata(workload, seed, seconds, trace)
    meta["inputs"] = inputs
    meta["op_wall_s"] = [round(op["wall_s"], 4) for op in ops]
    meta["problems"] = problems
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:26s} {value:14.6g} {units[name]}")
    print(f"{'op_fail_ratio':26s} {failed / len(ops):14.6g} ratio "
          f"({failed}/{len(ops)})")
    for p in problems:
        print(f"FAILED {p}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(wl.OUT_DIR, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
