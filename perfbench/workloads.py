"""Inputs, operations and exact output checks of the orbitlab benchmark.

Three workloads, each a closed loop of one client:

* ``count``: library ``ball_count`` over the sl2z Frobenius ladder
  125..500 and the sl3z ladder 2.46..6.96, at one worker (the low rungs
  of criterion 5).  Only the ``balls`` count paths run.
* ``orbit_a22``: ``orbitlab orbit`` through ``cli.main`` on the a22
  experiment of criterion 8, ladder 4, 8, 16, 32.  The only workload
  that runs ``equidist`` (valuations, masks, rung binning).
* ``enumerate_csv``: ``orbitlab enumerate --group sl2z --T-inf 300`` to
  CSV.  The SL(2) engine is a small share; row building and
  ``emit_report`` are the rest.  Not registered in BENCHMARK.json (its
  timings drift too much on a shared host); run by hand.

Inputs come from the seed only.  The default seed keeps the radii of the
acceptance criteria; other seeds move them by at most about 1% (0.3% for
sl3z, whose count grows like T^6), so that the work per operation, and
with it the wall time, varies by no more than about 2% between seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("count", "orbit_a22", "enumerate_csv")
DEFAULT_SEED = 0
# Threads per operation.  ``count`` runs at one: at two, on a 2-core
# host, its CPU time followed the host's load (a quarter of the median
# between runs); ``scaling.speedup_2w`` still compares one and two.
WORKERS = {"count": 1, "orbit_a22": 2, "enumerate_csv": 2}
OUT_DIR = ".perfbench_out"

# Criterion 5's ladders up to 1,500,740 and 1,818,744 elements, so that a
# run holds some twenty operations; T = 1000 and 9.84 would take five
# times as long and leave a run's median resting on three.
SL2_LADDER = (125, 250, 500)
SL3_LADDER = (2.46, 3.48, 4.92, 6.96)
# sl3z rungs at or below this radius are re-counted by materializing the
# ball with enum_slnz (226,680 elements at 4.92).
SL3_MATERIALIZE_MAX = 5.0
ORBIT_TESTS = ("product(annulus(1,2),shell(0));"
               "product(annulus(1,3),shell(0));"
               "product(annulus(1,2),shell(1))")
QUADRATIC_SURDS = (2, 3, 5, 6, 7, 10, 11)

# Frozen at the commit that introduced the benchmark; compared only
# under the default seed.  The sl3z counts are criterion 5's.
FROZEN = {
    "count": {
        "sl2": [93508, 375092, 1500740],
        "sl3": [2616, 25656, 226680, 1818744],
    },
    "orbit_a22": {
        "elements": 12548820,
        "json_sha256": "c4f26d0a2d60f34212c9c011dbe4add3"
                       "6ff12f5d2bac6b00d9c9ea1265054716",
        "csv_sha256": "b791703277de0d5bde1f629749b27b28"
                      "eb51043678c84ff0312feeaafcb64ec7",
    },
    "enumerate_csv": {
        "rows": 539668,
        "csv_sha256": "2a180a77c8b8a50684ffd388bfd1212d"
                      "4538665bce620bd1f56b1aacefb3096b",
    },
}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; equal seeds give equal inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    jitter = seed != DEFAULT_SEED
    if workload == "count":
        sl2 = [round(t * (1 + rng.uniform(-0.01, 0.01))) if jitter else t
               for t in SL2_LADDER]
        sl3 = [round(t * (1 + rng.uniform(-0.003, 0.003)), 2) if jitter
               else t for t in SL3_LADDER]
        return {"sl2": sl2, "sl3": sl3}
    if workload == "orbit_a22":
        if not jitter:
            return {"v_inf": "1,sqrt(2)", "v_fin": "1,3", "ladder": "4,2,4"}
        d = rng.choice(QUADRATIC_SURDS)
        while True:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            if math.gcd(a, b) == 1:
                break
        # top radius 8 * t0 in [32, 32.32): p-adic levels 0..5, as at 32
        t0 = f"4.0{rng.randrange(4)}"
        return {"v_inf": f"1,sqrt({d})", "v_fin": f"{a},{b}",
                "ladder": f"{t0},2,4"}
    t = 300 + rng.randint(-3, 3) if jitter else 300
    return {"t_inf": str(t)}


def ladder_values(text: str):
    """Radii of a ``t0,factor,steps`` ladder, as exact fractions."""
    t0, factor, steps = text.split(",")
    return [Fraction(t0) * Fraction(factor) ** k for k in range(int(steps))]


def output_paths(workload: str) -> dict:
    if workload == "orbit_a22":
        return {"json": os.path.join(OUT_DIR, "orbit.json"),
                "csv": os.path.join(OUT_DIR, "orbit.csv")}
    if workload == "enumerate_csv":
        return {"csv": os.path.join(OUT_DIR, "ball.csv")}
    return {}


def config_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"{workload}.conf")


def prepare(workload: str, inputs: dict) -> None:
    """Write the workload's config file into OUT_DIR."""
    os.makedirs(OUT_DIR, exist_ok=True)
    if workload != "orbit_a22":
        return
    out = output_paths(workload)
    text = (
        "application = a22\n"
        f"v_inf = {inputs['v_inf']}\n"
        f"v_fin = {inputs['v_fin']}\n"
        "p = 2\n"
        f"ladder = {inputs['ladder']}\n"
        f"tests = {ORBIT_TESTS}\n"
        "capacity = 1000000000\n"
        f"out_json = {out['json']}\n"
        f"out_csv = {out['csv']}\n")
    with open(config_path(workload), "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# set-up and operations

def setup(workload: str, inputs: dict):
    """Import the layers the workload uses and build its config.

    ``places`` and ``linalg`` run here (radius and vector parsing), which
    is why they have no per-layer metric of their own."""
    if workload == "count":
        return _count_specs(inputs)
    from orbitlab import cli
    from orbitlab.equidist import OrbitVector, parse_test

    if workload == "enumerate_csv":
        return cli.parse_config("enumerate", {
            "group": "sl2z", "t_inf": inputs["t_inf"],
            "out": output_paths(workload)["csv"]})
    config = cli.parse_config("orbit", path=config_path(workload))
    s = config.settings
    vector = OrbitVector.make(tuple(s["v_inf"].split(",")),
                              fin=tuple(s["v_fin"].split(",")), p=2)
    tests = tuple(parse_test(tok, p=2) for tok in s["tests"].split(";"))
    return config, vector, tests


def _count_specs(inputs):
    """(ladder key, BallSpec) pairs, with criterion 5's capacities."""
    from orbitlab.balls import BallSpec

    return ([("sl2", BallSpec("sl2z", t_inf=t, capacity=10**8))
             for t in inputs["sl2"]]
            + [("sl3", BallSpec("slnz", n=3, t_inf=t, capacity=2 * 10**9))
               for t in inputs["sl3"]])


def _op_count(inputs, tracer):
    from orbitlab import balls

    out = {"sl2": [], "sl3": []}
    for key, spec in _count_specs(inputs):
        with tracer.span(f"balls.count_{key}"):
            c = balls.ball_count(spec)
        tracer.count("balls.elements", c)
        out[key].append(c)
    return out


def _op_cli(argv, tracer):
    from orbitlab import cli

    with tracer.span("cli.main"):
        code = cli.main(argv)
    return code


def run_op(workload: str, inputs: dict, tracer):
    """One operation; returns its raw result (counts or exit code)."""
    if workload == "count":
        return _op_count(inputs, tracer)
    if workload == "orbit_a22":
        return _op_cli(["orbit", "--config", config_path(workload)], tracer)
    return _op_cli(["enumerate", "--group", "sl2z", "--T-inf", inputs["t_inf"],
                    "--out", output_paths(workload)["csv"]], tracer)


def clear_outputs(workload: str) -> None:
    for path in output_paths(workload).values():
        if os.path.exists(path):
            os.remove(path)


def _file_digest(path: str):
    """(sha256 hex, line count) of a file, read in blocks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def describe(workload: str, raw) -> dict:
    """What an operation produced: element count plus checkable outputs."""
    if workload == "count":
        return {"sl2": raw["sl2"], "sl3": raw["sl3"],
                "elements": sum(raw["sl2"]) + sum(raw["sl3"])}
    out = {"exit_code": raw}
    if raw != 0:
        return out
    paths = output_paths(workload)
    if workload == "orbit_a22":
        out["json_sha256"], _ = _file_digest(paths["json"])
        out["csv_sha256"], _ = _file_digest(paths["csv"])
        with open(paths["json"]) as fh:
            totals = [int(c) for _, c in json.load(fh)["totals"]]
        out["totals"] = totals
        out["elements"] = totals[-1]
        return out
    out["csv_sha256"], lines = _file_digest(paths["csv"])
    with open(paths["csv"]) as fh:
        out["header"] = fh.readline().rstrip("\n")
    out["rows"] = out["elements"] = lines - 1
    return out


# ---------------------------------------------------------------------------
# exact output checks

ENUMERATE_HEADER = "level,e11,e12,e21,e22,norm_inf_sq,norm_p"


def expected(workload: str, inputs: dict, seed: int) -> dict:
    """Reference values by a second route through the library, plus the
    frozen values when the seed is the default."""
    from orbitlab.balls import BallSpec, ball_count, enum_slnz

    ref = {}
    if workload == "count":
        ref["sl2"] = [ball_count(BallSpec("slnz", n=2, t_inf=t))
                      for t in inputs["sl2"]]
        ref["sl3_low"] = {
            i: len(enum_slnz(BallSpec("slnz", n=3, t_inf=t)))
            for i, t in enumerate(inputs["sl3"]) if t <= SL3_MATERIALIZE_MAX}
    elif workload == "orbit_a22":
        ref["totals"] = [
            ball_count(BallSpec("sl2zp", p=2, t_inf=t, t_p=t,
                                capacity=10**9))
            for t in ladder_values(inputs["ladder"])]
    else:
        ref["rows"] = ball_count(BallSpec("sl2z", t_inf=int(inputs["t_inf"])))
    if seed == DEFAULT_SEED:
        ref["frozen"] = FROZEN[workload]
    return ref


def check(workload: str, got: dict, ref: dict) -> list:
    """Problems with one operation's outputs; empty when all match."""
    problems = []

    def same(what, value, want):
        if value != want:
            problems.append(f"{what}: got {value!r}, expected {want!r}")

    if got.get("error"):
        return [got["error"]]
    frozen = ref.get("frozen", {})
    if workload == "count":
        same("sl2z counts vs slnz n=2", got["sl2"], ref["sl2"])
        for i, want in ref["sl3_low"].items():
            same(f"sl3z rung {i} vs enum_slnz", got["sl3"][i], want)
        for key in ("sl2", "sl3"):
            if key in frozen:
                same(f"{key} frozen counts", got[key], frozen[key])
        return problems
    same("exit code", got["exit_code"], 0)
    if got["exit_code"] != 0:
        return problems
    if workload == "orbit_a22":
        same("rung totals vs ball_count", got["totals"], ref["totals"])
    else:
        same("header", got["header"], ENUMERATE_HEADER)
        same("rows vs ball_count", got["rows"], ref["rows"])
    for key, want in frozen.items():
        same(f"frozen {key}", got[key], want)
    return problems


OUTPUT_FIELDS = ("error", "exit_code", "sl2", "sl3", "elements", "totals",
                 "json_sha256", "csv_sha256", "header", "rows")


def output_key(got: dict) -> dict:
    """The part of an operation's result that every repeat must equal."""
    return {k: v for k, v in got.items() if k in OUTPUT_FIELDS}
