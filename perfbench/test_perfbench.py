"""Tests of the benchmark's output checks and trace arithmetic, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import timed_op  # noqa: E402

TINY = {
    "count": {"sl2": [5, 10], "sl3": [2.46, 3.48]},
    "orbit_a22": {"v_inf": "1,sqrt(2)", "v_fin": "1,3", "ladder": "2,2,3"},
    "enumerate_csv": {"t_inf": "12"},
}
# the expected value each workload's second route produces
ROUTE_KEY = {"count": "sl2", "orbit_a22": "totals", "enumerate_csv": "rows"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Outputs go to OUT_DIR under a temporary working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORBITLAB_THREADS", "2")
    return tmp_path


def _bump(value):
    if isinstance(value, list):
        return [value[0] + 1] + value[1:]
    return value + 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_check_fails_on_a_wrong_expected_value(workload, workdir):
    inputs = TINY[workload]
    wl.prepare(workload, inputs)
    got = timed_op(workload, inputs, 2, tracing.NullTracer())
    ref = wl.expected(workload, inputs, seed=1)
    assert "frozen" not in ref
    assert wl.check(workload, got, ref) == []

    wrong = copy.deepcopy(ref)
    key = ROUTE_KEY[workload]
    wrong[key] = _bump(wrong[key])
    assert wl.check(workload, got, wrong)


def test_check_fails_on_a_wrong_low_sl3_rung(workdir):
    inputs = TINY["count"]
    got = timed_op("count", inputs, 2, tracing.NullTracer())
    ref = wl.expected("count", inputs, seed=1)
    assert sorted(ref["sl3_low"]) == [0, 1]
    ref["sl3_low"][1] += 1
    assert wl.check("count", got, ref)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_check_fails_on_a_wrong_frozen_value(workload, workdir):
    inputs = TINY[workload]
    wl.prepare(workload, inputs)
    got = timed_op(workload, inputs, 2, tracing.NullTracer())
    ref = wl.expected(workload, inputs, seed=1)
    key = "sl3" if workload == "count" else "elements"
    ref["frozen"] = {key: _bump(got[key])}
    assert wl.check(workload, got, ref)
    ref["frozen"] = {key: got[key]}
    assert wl.check(workload, got, ref) == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_layer_times_add_up_to_the_traced_wall_time(workload, workdir):
    from orbitlab import cli

    inputs = TINY[workload]
    wl.prepare(workload, inputs)
    untraced = timed_op(workload, inputs, 2, tracing.NullTracer())
    original = cli.emit_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_op(workload, inputs, 2, tracer)
    finally:
        tracer.uninstall()
    assert cli.emit_report is original
    assert wl.output_key(traced) == wl.output_key(untraced)
    assert all(end is not None for _, _, _, end, _ in tracer.spans)

    own = sum(v[1] for v in tracing.span_times(tracer.spans).values())
    roots = sum(end - start for _, _, start, end, parent in tracer.spans
                if parent is None)
    assert own == pytest.approx(roots, rel=1e-9, abs=1e-12)
    remainder = traced["wall_s"] - roots  # the untraced part of the op
    assert 0 <= remainder < 0.05 * traced["wall_s"] + 0.01

    layers = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert layers["balls.elements"] == traced["elements"]
    if workload == "enumerate_csv":
        assert layers["cli.rows"] == traced["rows"]
        assert layers["cli.bytes_out"] == os.path.getsize(
            wl.output_paths(workload)["csv"])
    if workload == "orbit_a22":
        assert layers["volumes.ratio_limit_calls"] > 0
        assert layers["equidist.self_s"] < layers["equidist.run_s"]


def test_self_time_subtracts_direct_children_only():
    spans = [[0, "root", 0.0, 10.0, None],
             [1, "child", 1.0, 4.0, 0],
             [2, "child", 5.0, 6.0, 0],
             [3, "leaf", 2.0, 3.5, 1]]
    t = tracing.span_times(spans)
    assert t["root"] == (10.0, 6.0, 1)
    assert t["child"] == (4.0, 2.5, 2)
    assert t["leaf"] == (1.5, 1.5, 1)


def test_inputs_depend_on_the_seed_only():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    assert wl.make_inputs("count", wl.DEFAULT_SEED) == {
        "sl2": list(wl.SL2_LADDER), "sl3": list(wl.SL3_LADDER)}
    assert wl.make_inputs("enumerate_csv", wl.DEFAULT_SEED) == {
        "t_inf": "300"}
    ladder = wl.ladder_values(wl.make_inputs("orbit_a22", 3)["ladder"])
    assert 32 <= ladder[-1] < 36


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS)
    op = {"wall_s": 2.0, "cpu_s": 3.0, "elements": 10, "peak_rss_mb": 1.0}
    assert set(run.end_to_end([op], [0.1])) \
        == set(run.declared_units("end_to_end"))
    traced = dict(op, spans=[], counters={})
    assert set(run.per_layer([op, op, traced], 2)) \
        == set(run.declared_units("per_layer"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
