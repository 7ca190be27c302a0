"""Config parsing, report emission, exit codes of the orbitlab CLI."""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import orbitlab
from orbitlab import equidist
from orbitlab.balls import (
    BallSpec,
    ball_count,
    entry_bound,
    enum_sl2_zinvp,
    enum_sl2z,
    iter_ball_chunks,
)
from orbitlab.cli import emit_report, main, parse_config
from orbitlab.equidist import OrbitVector, parse_test
from orbitlab.errors import ConfigError
from orbitlab.volumes import (
    SqrtPower,
    StabilizerBall,
    UnipotentPairBall,
    padic_sl2_ball_volume,
)


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# parse_config

def test_parse_config_defaults():
    cfg = parse_config("enumerate", {"group": "sl2z", "t_inf": "4", "out": "x.csv"})
    assert cfg.settings["norm"] == "frobenius"
    assert cfg.settings["n"] == "2"
    assert cfg.settings["capacity"] == "100000000"
    assert cfg.warnings == ()


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("enumerate", {"group": "sl2z", "t_inf": "4",
                                   "out": "x.csv", "blob": "1", "zap": "2"})
    text = str(exc.value)
    assert "blob" in text and "zap" in text


def test_parse_config_lists_every_violation():
    with pytest.raises(ConfigError) as exc:
        parse_config("enumerate", {"n": "x"})
    problems = exc.value.problems
    assert any("group" in m for m in problems)
    assert any("t_inf" in m for m in problems)
    assert any("n" in m and "integer" in m for m in problems)


def test_parse_config_flag_wins_with_warning(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("group = sl2z\nt_inf = 4\nout = a.csv\n")
    cfg = parse_config("enumerate", {"t_inf": "8"}, str(path))
    assert cfg.settings["t_inf"] == "8"
    assert len(cfg.warnings) == 1 and "t_inf" in cfg.warnings[0]


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("enumerate", {}, str(tmp_path / "missing.conf"))
    bad = tmp_path / "bad.conf"
    bad.write_text("group sl2z\nt_inf = 4\nt_inf = 8\n")
    with pytest.raises(ConfigError) as exc:
        parse_config("enumerate", {}, str(bad))
    assert any("key = value" in m for m in exc.value.problems)
    assert any("duplicate" in m for m in exc.value.problems)


def test_parse_config_checks_output_writable():
    with pytest.raises(ConfigError) as exc:
        parse_config("enumerate", {"group": "sl2z", "t_inf": "4",
                                   "out": "/nonexistent-dir-zz/x.csv"})
    assert any("does not exist" in m for m in exc.value.problems)


def test_parse_config_round_trips_through_echo(tmp_path):
    flags = {"application": "ledrappier", "v_inf": "1,sqrt(2)",
             "ladder": "10,2,3", "tests": "annulus(1,2)",
             "out_json": str(tmp_path / "r.json"),
             "out_csv": str(tmp_path / "r.csv")}
    cfg = parse_config("orbit", flags)
    echo = tmp_path / "echo.conf"
    echo.write_text("".join(f"{k} = {v}\n" for k, v in cfg.echo().items()))
    assert parse_config("orbit", {}, str(echo)) == cfg


# ---------------------------------------------------------------------------
# emit_report

def test_emit_report_byte_stable(tmp_path):
    doc = {"b": 1 / 3, "a": [Fraction(3, 4), None, True], "c": {"x": 2}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(doc, "json", str(p1))
    emit_report(doc, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    # keys sorted, floats at 12 significant digits, exacts as strings
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.333333333333" in text
    assert '"3/4"' in text
    assert json.loads(text)["a"][0] == "3/4"


def test_emit_report_sqrt_power_string(tmp_path):
    vol = SqrtPower.make(Fraction(3, 4), 5, 1)
    path = tmp_path / "v.json"
    emit_report({"volume": vol}, "json", str(path))
    assert json.loads(path.read_text())["volume"] == "3/4*sqrt(5)^1"


def test_emit_report_empty_csv_keeps_header(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report((["t", "volume"], []), "csv", str(path))
    assert path.read_text() == "t,volume\n"


def test_emit_report_quotes_cells_with_commas(tmp_path):
    path = tmp_path / "q.csv"
    emit_report((["id", "n"], [["annulus[1,2]", 5]]), "csv", str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["id", "n"], ["annulus[1,2]", "5"]]


def test_emit_report_rejects_non_finite(tmp_path):
    from orbitlab.errors import DivergenceError

    path = tmp_path / "nan.json"
    with pytest.raises(DivergenceError):
        emit_report({"x": float("nan")}, "json", str(path))
    assert not path.exists()  # nothing partial on disk


# ---------------------------------------------------------------------------
# subcommands through main()

def test_enumerate_csv_matches_library(tmp_path):
    out = tmp_path / "ball.csv"
    assert run("enumerate", "--group", "sl2z", "--T-inf", 4, "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["level", "e11", "e12", "e21", "e22",
                      "norm_inf_sq", "norm_p"]
    mats = enum_sl2z(BallSpec("sl2z", t_inf=4))
    assert len(body) == len(mats)
    got = sorted(tuple(int(x) for x in r[1:5]) for r in body)
    assert got == sorted(tuple(int(e) for e in m.ravel()) for m in mats)
    for r in body:
        entries = [int(x) for x in r[1:5]]
        assert Fraction(r[5]) == sum(e * e for e in entries)
        assert r[6] == "1"


def test_enumerate_sl2zp_exact_norm_columns(tmp_path):
    out = tmp_path / "ball.csv"
    assert run("enumerate", "--group", "sl2zp", "--p", 2, "--T-inf", 4,
               "--T-p", 4, "--out", out) == 0
    with open(out, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    levels, mats = enum_sl2_zinvp(BallSpec("sl2zp", p=2, t_inf=4, t_p=4))
    assert len(body) == len(mats)
    seen_positive_level = False
    for r in body:
        m = int(r[0])
        entries = [int(x) for x in r[1:5]]
        assert Fraction(r[5]) == Fraction(sum(e * e for e in entries), 4**m)
        assert Fraction(r[6]) == 2**m
        seen_positive_level |= m > 0
    assert seen_positive_level


def test_enumerate_window_file(tmp_path):
    win = tmp_path / "win.conf"
    win.write_text("p = 2\nm = 1\nreps = 1,0,0,1\n")
    out = tmp_path / "ball.csv"
    assert run("enumerate", "--group", "sl2z", "--T-inf", 6,
               "--window", win, "--out", out) == 0
    with open(out, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert body  # principal congruence elements exist at T = 6
    for r in body:
        a, b, c, d = (int(x) for x in r[1:5])
        assert (a % 2, b % 2, c % 2, d % 2) == (1, 0, 0, 1)
    # windows are 2x2 classes; a 3x3 group cannot be filtered by one
    assert run("enumerate", "--group", "slnz", "--n", 3, "--T-inf", 3,
               "--window", win, "--out", out) == 2


def test_volume_padicball_table(tmp_path):
    out = tmp_path / "pb.csv"
    assert run("volume", "--case", "padicball", "--p", 2,
               "--ladder", "1,2,7", "--out", out) == 0
    with open(out, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert [r[0] for r in body] == ["1", "2", "4", "8", "16", "32", "64"]
    for j, r in enumerate(body):
        assert Fraction(r[2]) == padic_sl2_ball_volume(2, j)
        assert r[1] == str(j % 2)
    assert Fraction(body[-1][3]) == Fraction(8191, 2047)


def test_volume_example31_and_asymptotics_pipeline(tmp_path):
    vols = tmp_path / "vols.csv"
    fit = tmp_path / "fit.json"
    assert run("volume", "--case", "example31", "--p", 3,
               "--ladder", "3,3,20", "--out", vols) == 0
    assert run("asymptotics", "--in", vols, "--p", 3, "--out", fit) == 0
    doc = json.loads(fit.read_text())
    assert doc["ok"] is True
    assert doc["modulus"] == 2
    assert set(doc["classes"]) == {"0", "1"}
    # the two parity classes grow with the same exponent, distinct constants
    assert doc["classes"]["0"]["d"] == pytest.approx(doc["classes"]["1"]["d"])
    assert doc["classes"]["0"]["c"] != doc["classes"]["1"]["c"]


def _csv_body(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _cell(x):
    return format(x, ".12g")


def test_volume_stab2_table_matches_library(tmp_path):
    out = tmp_path / "stab2.csv"
    assert run("volume", "--case", "stab2", "--ladder", "4,2,8",
               "--params", "v=1,sqrt(2)", "g=2,1,1,1", "--out", out) == 0
    ball = StabilizerBall((1, math.sqrt(2)))
    g = ((2, 1), (1, 1))
    body = _csv_body(out)
    assert [r[0] for r in body] == [str(4 * 2**k) for k in range(8)]
    for t, cls, volume, ratio in body:
        skew, plain = ball.skew_volume(g, float(t)), ball.ball_volume(float(t))
        assert (cls, volume, ratio) == ("0", _cell(skew), _cell(skew / plain))


def test_volume_unipair_table_matches_library(tmp_path):
    out = tmp_path / "unipair.csv"
    assert run("volume", "--case", "unipair", "--p", 2, "--ladder", "4,2,6",
               "--params", "g_p=1,2,0,1", "--out", out) == 0
    ball = UnipotentPairBall((1, math.sqrt(2)), (1, 3), 2)
    g_inf, g_p = ((1, 0), (0, 1)), ((1, 2), (0, 1))
    body = _csv_body(out)
    assert [r[0] for r in body] == [str(4 * 2**k) for k in range(6)]
    for k, (t, cls, volume, ratio) in enumerate(body):
        t = int(t)
        skew = ball.skew_volume(g_inf, g_p, float(t), t)
        plain = ball.ball_volume(float(t), t)
        assert (cls, volume) == (str(k % 2), _cell(skew))
        # g_inf = I, and g_p lies in SL(2, Z_2), the stabilizer of the ball
        assert skew == pytest.approx(plain) and ratio == _cell(skew / plain)
        assert float(ratio) == pytest.approx(1.0)


@pytest.mark.parametrize("argv,message", [
    (["volume", "--case", "stab2", "--ladder", "4,2,2", "--params", "v=0,0"],
     "v: must be a nonzero vector"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "4,2,2",
      "--params", "v=0,0"], "v: must be a nonzero vector"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "4,2,2",
      "--params", "v_fin=0,0"], "v_fin: must be a nonzero vector"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "4,2,2",
      "--params", "t_p=0"], "t_p: must be positive"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "4,2,2",
      "--params", "t_p=-1"], "t_p: must be positive"),
    (["volume", "--case", "example31", "--p", 4, "--ladder", "4,4,3"],
     "p: a prime is required"),
    (["volume", "--case", "stab2", "--ladder", "4,2,3", "--params",
      "v=1e400,1"], "v: value past the float range"),
    # the float cases need float rungs; the exact ones take any ladder
    (["volume", "--case", "stab2", "--ladder", "1e200,1e200,3"],
     "ladder: a rung past the float range"),
    (["volume", "--case", "stab2", "--ladder", "1e300,1e10,3"],
     "ladder: a rung past the float range"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "1e200,1e200,3"],
     "ladder: a rung past the float range"),
    (["volume", "--case", "unipair", "--p", 2, "--ladder", "1e300,1e10,3"],
     "ladder: a rung past the float range"),
    (["asymptotics", "--in", "short.csv", "--p", 3], "short.csv:3: 2 cells"),
    (["asymptotics", "--in", "vols.csv", "--p", 1], "p: a prime is required"),
    (["asymptotics", "--in", "vols.csv", "--p", 0], "p: a prime is required"),
    (["asymptotics", "--in", "vols.csv", "--p", 9], "p: a prime is required"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--tol", -1],
     "tol: must be at least 0"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--tol", "inf"],
     "tol: expected a number"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--moduli", 0],
     "moduli: each must be at least 1"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--moduli", -1],
     "moduli: each must be at least 1"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--moduli", "1,0"],
     "moduli: each must be at least 1"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--min-per-class", 0],
     "min_per_class: must be at least 1"),
    (["asymptotics", "--in", "vols.csv", "--p", 3, "--min-per-class", -3],
     "min_per_class: must be at least 1"),
], ids=["stab2-v-zero", "unipair-v-zero", "unipair-v_fin-zero",
        "unipair-t_p-zero", "unipair-t_p-negative", "example31-p-composite",
        "stab2-v-past-float-range", "stab2-ladder-1e200", "stab2-ladder-1e300",
        "unipair-ladder-1e200", "unipair-ladder-1e300",
        "asymptotics-short-row", "asymptotics-p-1", "asymptotics-p-0",
        "asymptotics-p-composite", "asymptotics-tol-negative",
        "asymptotics-tol-inf", "asymptotics-moduli-0",
        "asymptotics-moduli-negative", "asymptotics-moduli-1-0",
        "asymptotics-min-per-class-0", "asymptotics-min-per-class-negative"])
def test_degenerate_volume_inputs_exit_code(argv, message, capsys,
                                            monkeypatch, tmp_path):
    # each is a configuration error, reported before anything is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.csv").write_text(
        "t,class,volume,ratio\n9,0,27,1\n3,1\n")
    (tmp_path / "vols.csv").write_text(
        "t,class,volume,ratio\n" + "".join(f"{3**k},{k % 2},{9**k},1\n"
                                           for k in range(16)))
    assert run(*argv, "--out", "x.out") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("column", [0, 2], ids=["t", "volume"])
def test_asymptotics_past_float_range_exit_code(column, capsys, tmp_path):
    # exact cells past the float range are a configuration error
    table = [["t", "class", "volume", "ratio"]] + [
        [str(3**k), str(k % 2), str(9**k), "1"] for k in range(16)]
    table[5][column] = "1e400"
    vols, fit = tmp_path / "vols.csv", tmp_path / "fit.json"
    vols.write_text("".join(",".join(row) + "\n" for row in table))
    assert run("asymptotics", "--in", vols, "--p", 3, "--out", fit) == 2
    assert ("error: radii or volumes past the float range"
            in capsys.readouterr().err)
    assert not fit.exists()


@pytest.mark.parametrize("case", ["example31", "padicball"])
def test_exact_volume_cases_take_rungs_past_the_float_range(case, tmp_path):
    out = tmp_path / "v.csv"
    assert run("volume", "--case", case, "--p", 3, "--ladder", "3,3,700",
               "--out", out) == 0
    assert _csv_body(out)[-1][0] == str(3**700)


def test_asymptotics_divergence_exit_code(tmp_path):
    vols = tmp_path / "vols.csv"
    fit = tmp_path / "fit.json"
    assert run("volume", "--case", "example31", "--p", 3,
               "--ladder", "3,3,20", "--out", vols) == 0
    assert run("asymptotics", "--in", vols, "--p", 3, "--moduli", "1",
               "--out", fit) == 4
    doc = json.loads(fit.read_text())  # report still written
    assert doc["ok"] is False and doc["message"]


def test_orbit_outputs_and_determinism(tmp_path):
    conf = tmp_path / "orbit.conf"
    conf.write_text(
        "application = ledrappier\n"
        "v_inf = 1,sqrt(2)\n"
        "ladder = 10,2,2\n"
        "tests = annulus(1,2);annulus(1,3)\n"
        f"out_json = {tmp_path / 'o.json'}\n"
        f"out_csv = {tmp_path / 'o.csv'}\n"
        "capacity = 1000000\n")
    assert run("orbit", "--config", conf) == 0
    first = (tmp_path / "o.json").read_bytes(), (tmp_path / "o.csv").read_bytes()
    assert run("orbit", "--config", conf) == 0
    assert ((tmp_path / "o.json").read_bytes(),
            (tmp_path / "o.csv").read_bytes()) == first
    with open(tmp_path / "o.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "test_id", "empirical", "ratio_target", "error"]
    assert len(rows) == 1 + 2 * 2
    doc = json.loads((tmp_path / "o.json").read_text())
    assert doc["orientation"] == "inverse"
    assert doc["config"]["application"] == "ledrappier"
    assert [t for t, _ in doc["totals"]] == [10, 20]


def test_orbit_bad_test_token_exit_code(tmp_path):
    conf = tmp_path / "orbit.conf"
    conf.write_text(
        "application = ledrappier\nv_inf = 1,sqrt(2)\nladder = 10,2,2\n"
        "tests = blob(1,2)\n"
        f"out_json = {tmp_path / 'o.json'}\nout_csv = {tmp_path / 'o.csv'}\n")
    assert run("orbit", "--config", conf) == 2


def test_orbit_int64_overflow_exit_code(capsys, tmp_path):
    conf = tmp_path / "orbit.conf"
    conf.write_text(
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 100000000000000000,1\n"
        "p = 3\nladder = 64,2,2\ntests = shell(0)\n"
        f"out_json = {tmp_path / 'o.json'}\nout_csv = {tmp_path / 'o.csv'}\n")
    assert run("orbit", "--config", conf) == 2
    assert "int64" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_windowed_orbit_checks_headroom_of_level_zero(tmp_path):
    # a window keeps level 0 only, whose entries reach 128 at T = 128:
    # 2 x 128 x 10^16 fits in int64, though the top level's 10368 would not
    (tmp_path / "win.conf").write_text("p = 3\nm = 1\nreps = 1,0,0,1\n")
    conf = tmp_path / "orbit.conf"
    conf.write_text(
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 10000000000000000,1\n"
        f"p = 3\nladder = 64,2,2\nwindow = {tmp_path / 'win.conf'}\n"
        "tests = product(annulus(1,2),shell(0))\n"
        f"out_json = {tmp_path / 'o.json'}\nout_csv = {tmp_path / 'o.csv'}\n")
    assert run("orbit", "--config", conf) == 0
    report = json.loads((tmp_path / "o.json").read_text())
    assert len(report["totals"]) == 2 and (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("extra", [
    "application = a22\nv_fin = 1,3\np = 2\ntests = shell(0);shell(0,40,1:0)\n",
    "application = a21\ntests = annulus(1,2)\nwindow = win.conf\n"],
    ids=["shell", "window"])
def test_orbit_residue_keys_past_int64_exit_code(extra, capsys, monkeypatch,
                                                 tmp_path):
    # unit classes mod p^m pack into keys up to p^(2m), window classes
    # into keys up to p^(4m): past int64 a configuration error, not an
    # OverflowError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "win.conf").write_text("p = 2\nm = 16\nreps = 65535,0,0,65535\n")
    (tmp_path / "run.conf").write_text(
        "v_inf = 1,sqrt(2)\nladder = 10,2,2\nout_json = o.json\n"
        "out_csv = o.csv\n" + extra)
    assert run("orbit", "--config", "run.conf") == 2
    assert "int64" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("conf", [
    # the reference shell(5) has no hit at either rung
    "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
    "ladder = 2,2,2\ntests = shell(5);shell(0)\n",
    # the degenerate reference annulus has no mass and no hit
    "application = a21\nv_inf = 1,sqrt(2)\nladder = 4,2,5\n"
    "tests = annulus(2,2);annulus(1,2)\n"], ids=["no-hit", "no-mass"])
def test_orbit_undefined_ratios_write_null(conf, monkeypatch, tmp_path):
    # an undefined ratio is a fact about a valid run, not a divergence:
    # null in the JSON report, an empty cell in the CSV, exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        conf + "out_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 0
    rows = json.loads((tmp_path / "o.json").read_text())["rows"]
    assert all(r["ratio_empirical"] is None for r in rows)
    assert (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("v_inf", "1,sqrt(2)*3"), ("v_inf", "1,abc"), ("v_inf", "1,1/0"),
    ("v_inf", "1,sqrt(-2)"), ("v_fin", "1,abc"),
    ("tests", "annulus(1,abc)"), ("tests", "annulus(1/0,2)"),
    ("tests", "shell(x)"), ("tests", "wedge(1,2,x)"),
    ("tests", "shell(0,1,1:x)"),
    ("n", "3"),  # a22 orbits live in SL(2)
    # past the float range: a configuration error, not an OverflowError
    ("v_inf", "1e400,1"), ("v_inf", "1,sqrt(3e700)"),
    ("v_inf", "1e-400,0"),  # nonzero, but every double is 0
    ("tests", "annulus(1,1e400)"),
    # entries are always correctly rounded: precision accepts only 0
    ("precision", "-1"), ("precision", "5"),
])
def test_orbit_bad_value_exit_code(key, value, capsys, monkeypatch, tmp_path):
    # each pair replaces one key of a valid a22 config
    monkeypatch.chdir(tmp_path)
    conf = {"application": "a22", "v_inf": "1,sqrt(2)", "v_fin": "1,3",
            "p": "2", "ladder": "2,2,2", "tests": "shell(0)",
            "out_json": "o.json", "out_csv": "o.csv", key: value}
    (tmp_path / "run.conf").write_text(
        "".join(f"{k} = {v}\n" for k, v in conf.items()))
    assert run("orbit", "--config", "run.conf") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("application,v_inf,test", [
    # every orbit point is subnormal, none in annulus(1,2)
    ("a21", "1e-320,0", "annulus(1e-321,1)"),
    ("a21", "0,1e-320", "annulus(1e-321,1)"),
    ("a21", "1e-320,1", "annulus(1,2)"), ("a21", "1/3,1e-310", "annulus(1,2)"),
    ("a21", "1e-400,1", "annulus(1,2)"),  # its double is 0: the same rule
    # a normal entry, tiny against the radius of the test
    ("a21", "1e-300,1", "annulus(1,1e10)"),
    ("a22", "1e-320,1", "shell(0)"),
    # entries near the float maximum: a p-adic test forms no float orbit
    # point, and the strip scales v by a power of two
    ("a22", "1e308,1e308", "shell(0)"), ("a22", "1e308,1", "shell(0)")])
@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_orbit_tiny_entry_loses_no_hit(application, v_inf, test, norm,
                                         monkeypatch, tmp_path):
    # every entry runs at its nearest double, 0 or subnormal; a strip
    # interval divided by it past the float range widens to its whole
    # row, and entries near the float maximum scale the strip down, so
    # the run warns of no overflow and counts what the whole ball gives
    monkeypatch.chdir(tmp_path)
    fin = "v_fin = 1,3\np = 2\n" if application == "a22" else ""
    (tmp_path / "run.conf").write_text(
        f"application = {application}\nv_inf = {v_inf}\n{fin}norm = {norm}\n"
        f"ladder = 4,2,2\ntests = {test}\nout_json = o.json\n"
        "out_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 0
    doc = json.loads((tmp_path / "o.json").read_text())
    p = 2 if fin else 0
    v = OrbitVector.make(v_inf.split(","), fin=("1", "3") if p else None, p=p)
    for (t, total), row in zip(doc["totals"], doc["rows"]):
        spec = BallSpec("sl2zp" if p else "sl2z", p=p, t_inf=t,
                        t_p=t if p else None, norm=norm)
        assert total == ball_count(spec)
        ev = equidist._ChunkEvaluator(v, [parse_test(test, p=p)],
                                      entry_bound(spec))
        assert row["count"] == sum(int(ev.masks(*chunk)[0].sum())
                                   for chunk in iter_ball_chunks(spec))
    assert any(row["count"] for row in doc["rows"])


@pytest.mark.parametrize("application,test", [
    ("a21", "annulus(1,2)"), ("a22", "product(annulus(1,2),shell(0))")])
@pytest.mark.parametrize("v_inf", ["1e308,1e308", "1e308,1"])
@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_orbit_huge_entry_exit_code(application, test, v_inf, norm, capsys,
                                    monkeypatch, tmp_path):
    # a float orbit point of the ball (entries up to 8) would overflow: a
    # configuration error before any chunk, not an overflow warning
    monkeypatch.chdir(tmp_path)
    fin = "v_fin = 1,3\np = 2\n" if application == "a22" else ""
    (tmp_path / "run.conf").write_text(
        f"application = {application}\nv_inf = {v_inf}\n{fin}norm = {norm}\n"
        f"ladder = 4,2,2\ntests = {test}\nout_json = o.json\n"
        "out_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 2
    assert "error: v_inf: orbit points past the float range" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("test,code", [
    ("wedge(1,1e150,3)", 0),  # orbit points near 1e161: |w|^2 overflows
])
def test_orbit_huge_wedge_point_exit_code(test, code, capsys, monkeypatch,
                                          tmp_path):
    # orbit points inside the float range whose squared norms are not:
    # the wedge test counts them without an overflow warning
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        f"application = wedge\nn = 3\nv_inf = 1e160,1,1\nladder = 2,2,2\n"
        f"tests = {test}\nout_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == code
    rows = json.loads((tmp_path / "o.json").read_text())["rows"]
    assert [r["count"] for r in rows] == [0, 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("application,vector,test", [
    ("a21", "v_inf = 1,sqrt(2)", "annulus(1,1e308)"),  # 2 pi 1e308 is inf
    ("a22", "v_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2",
     "shell(2000)"),  # 2^2000 3/4 is no float
    ("a22", "v_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2",
     "product(annulus(1,2),shell(2000))"),
    ("wedge", "n = 3\nv_inf = 1e160,1,1", "wedge(1,1e170,3)"),  # 2 pi r2^2
], ids=["annulus", "shell", "product", "wedge"])
def test_orbit_mass_past_the_float_range_exit_code(application, vector, test,
                                                   capsys, monkeypatch,
                                                   tmp_path):
    # a predicted mass past the float range, however it overflows, is a
    # configuration error, found before any counting
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        f"application = {application}\n{vector}\nladder = 2,2,2\n"
        f"tests = {test}\nout_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 2
    assert "predicted mass past the float range" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_orbit_flags_rational_direction_exactly(monkeypatch, tmp_path):
    # v_inf = 12345 sqrt(7) (1, 54321/12345): a float ratio test missed it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        "application = a21\nv_inf = 12345*sqrt(7),54321*sqrt(7)\n"
        "ladder = 4,2,2\ntests = annulus(1,2)\n"
        "out_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 0
    doc = json.loads((tmp_path / "o.json").read_text())
    assert doc["flags"] == ["density hypothesis violated"]


def test_cli_module_exits_two_without_traceback(tmp_path):
    # the __main__ guard and main(argv=None), run as a process
    (tmp_path / "run.conf").write_text(
        "application = a21\nv_inf = 1,sqrt(2)*3\nladder = 4,2,2\n"
        "tests = annulus(1,2)\nout_json = o.json\nout_csv = o.csv\n")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(orbitlab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "orbitlab.cli", "orbit", "--config", "run.conf"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert "error:" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "o.json").exists()


def test_orbit_rejects_wedge_degree_above_one(capsys, tmp_path):
    conf = tmp_path / "orbit.conf"
    conf.write_text(
        "application = wedge\nn = 3\nv_inf = 1,sqrt(2),sqrt(3)\n"
        "ladder = 2,3/2,2\ntests = wedge(1,2,3)\n"
        f"out_json = {tmp_path / 'o.json'}\nout_csv = {tmp_path / 'o.csv'}\n")
    assert run("orbit", "--config", conf, "--set", "k=2") == 2
    assert "k:" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    assert run("orbit", "--config", conf, "--set", "k=1") == 0


@pytest.mark.parametrize("conf", [
    "application = a21\nv_inf = 1,sqrt(2)\nladder = 3e9,2,2\n"
    "tests = annulus(1,2)\n",
    "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
    "ladder = 4e9,2,2\ntests = shell(0)\n",
    "application = wedge\nn = 3\nv_inf = 1,sqrt(2),sqrt(3)\n"
    "ladder = 4e9,2,2\ntests = wedge(1,2,3)\n"], ids=["a21", "a22", "wedge"])
def test_orbit_ladder_cut_past_int64_exit_code(conf, capsys, monkeypatch,
                                               tmp_path):
    # a rung's norm_sq cut past the int64 range is over capacity, found
    # before the int64 cut matrix is built
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        conf + "out_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 3
    assert "int64" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_capacity_exit_code(capsys, tmp_path):
    # the exact count fails the capacity before any row is written, and a
    # radius past the int64 headroom says so on one short line
    out = tmp_path / "big.csv"
    for t in (50, 500):
        assert run("enumerate", "--group", "sl2z", "--T-inf", t,
                   "--capacity", 1000, "--out", out) == 3
        assert not out.exists()
        assert ("error: ball exceeds capacity 1000 elements"
                in capsys.readouterr().err)
    assert run("enumerate", "--group", "sl2z", "--T-inf", "1e400",
               "--out", out) == 3
    err = capsys.readouterr().err
    assert "int64" in err and len(err) < 200 and not out.exists()


def test_invariant_error_exit_code(monkeypatch, capsys, tmp_path):
    from orbitlab import balls

    real_solution = balls._particular_solution
    monkeypatch.setattr(balls, "_particular_solution",
                        lambda m: 2 * real_solution(m))
    assert run("enumerate", "--group", "slnz", "--n", 3, "--T-inf", 3,
               "--out", tmp_path / "b.csv") == 5
    assert "det != 1" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_config_error_exit_code(capsys, tmp_path):
    assert run("enumerate", "--set", "bogus=1") == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "t_inf" in err


def test_report_merges_and_checks_headers(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,volume\n1,2\n")
    b.write_text("t,volume\n2,4\n3,9\n")
    out = tmp_path / "m.csv"
    assert run("report", "--out", out, a, b) == 0
    assert out.read_text() == "t,volume\n1,2\n2,4\n3,9\n"
    c = tmp_path / "c.csv"
    c.write_text("x,y\n0,0\n")
    assert run("report", "--out", out, a, c) == 2


def test_ladder_validation_exit_code(tmp_path):
    out = tmp_path / "v.csv"
    assert run("volume", "--case", "padicball", "--p", 2,
               "--ladder", "0,2,5", "--out", out) == 2
    assert run("volume", "--case", "padicball", "--p", 2,
               "--ladder", "1,2", "--out", out) == 2
    # exponent-indexed cases need exact powers of p
    assert run("volume", "--case", "padicball", "--p", 2,
               "--ladder", "3,2,4", "--out", out) == 2


# ---------------------------------------------------------------------------
# golden bytes: enumeration order and report formatting, pinned by sha256

GOLDEN_ENUMERATE = {
    ("sl2z", "frobenius"):
        "7ec6d7e6d836253645b29a126b5dceaac1e9447ba33be18de6ea575a52f58eb2",
    ("sl2z", "max"):
        "f75cbbadb1041c4ecf4b8bca01644b0473777169ce925668f957b291b7000366",
    ("sl2zp", "frobenius"):
        "cd3ba85db76f6f12605972cc6e6174b081452d0790e4aa4d71f01d0fe676f8ed",
    ("sl2zp", "max"):
        "1abf65158951a95db80a73c40ff85937bd026d7e1240aec9e40803253790a524",
    ("slnz", "frobenius"):
        "a1397ca7b7e75294bd676ae4c6193b90d2c38acbdfde0a1bf36d8dbfa6150791",
    ("slnz", "max"):
        "e89fd153f51d8a5e7e233bb5107dd8bb9b6b16b583d7f5ed184d4f35ced7845d",
}
ENUMERATE_RADII = {
    "sl2z": ["--T-inf", 9.5],
    "sl2zp": ["--p", 2, "--T-inf", 3, "--T-p", 8],  # levels 0..3
    "slnz": ["--n", 3, "--T-inf", 2.5],
}
A22_TESTS = (
    "tests = product(annulus(1,2),shell(0));product(annulus(1,3),shell(0));"
    "product(annulus(1,2,0,2),shell(1));shell(-1,1,1:0)\n")
# ladder 2, 4, 8 at p = 2: 46,916 elements at the top rung
GOLDEN_ORBIT_A22_JSON = \
    "fe569124567461d2dce13ec76c268cd9fccfa0813b6837d1eb4a6835d62671be"
GOLDEN_ORBIT_JSON = {
    # the same a22 run under the max norm: 82,572 elements at T = 8
    "a22-max": (
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
        "norm = max\nladder = 2,2,3\n" + A22_TESTS,
        "7561f74b9b7cda06158abf31c2200f17a8772e16ebecf65815a0c7ca7e54b075"),
    "a21": (
        "application = a21\nv_inf = 1,sqrt(2)\nladder = 10,2,3\n"
        "tests = annulus(1,2);annulus(1,3);annulus(1,2,0,2)\n",
        "fe0637dab55825ac8fbde75b269a78492eb4ed286d836dbf23fb897e07b6edba"),
    # A22_TESTS without the bare shell: every test bounds |gamma v|
    "a22-products": (
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
        "ladder = 2,2,3\n" + A22_TESTS.replace(";shell(-1,1,1:0)", ""),
        "18d8bd05cfa43e61cdf798ecb8aaf9240df44b5cbd564b71658a318cc3d08c0a"),
    # a sector across the branch cut and a rational coordinate
    "ledrappier-sector": (
        "application = ledrappier\nv_inf = -3/7,sqrt(5)\nladder = 10,2,3\n"
        "tests = annulus(1,2);annulus(1,3,5,7);annulus(1/2,2,0,1)\n",
        "de592598688477ae7f9b6a4c167e3c9983922a30175a6b98ca82fc425de56e66"),
    # SL(3,Z) at T = 2, 3, 9/2
    "wedge": (
        "application = wedge\nn = 3\nv_inf = 1,sqrt(2),sqrt(3)\n"
        "ladder = 2,3/2,3\ntests = wedge(1,2,3);wedge(1,3,3)\n",
        "75372ea044ac590166ce313073ea8e02c8884bc9c1cb84816a7869454430cab7"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("group,norm", sorted(GOLDEN_ENUMERATE))
@pytest.mark.parametrize("workers", [1, 2])
def test_enumerate_csv_golden_bytes(group, norm, workers, tmp_path):
    out = tmp_path / "ball.csv"
    assert run("enumerate", "--group", group, "--norm", norm,
               *ENUMERATE_RADII[group], "--workers", workers, "--out", out) == 0
    assert _sha256(out) == GOLDEN_ENUMERATE[group, norm]


def _orbit_json_sha256(conf_text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        conf_text + "out_json = o.json\nout_csv = o.csv\n")
    assert run("orbit", "--config", "run.conf") == 0
    return _sha256(tmp_path / "o.json")


def test_orbit_a22_json_golden_bytes(monkeypatch, tmp_path):
    conf = ("application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
            "ladder = 2,2,3\n" + A22_TESTS)
    assert _orbit_json_sha256(conf, tmp_path, monkeypatch) \
        == GOLDEN_ORBIT_A22_JSON


def test_orbit_run_leaves_numpy_random_unimported(tmp_path):
    # the orientation calibration draws its translators from the stdlib
    # random; importing numpy.random costs a fresh process 12-17 ms.  The
    # exact matrices of orbitlab.linalg serve no orbit run either.
    (tmp_path / "run.conf").write_text(
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
        "ladder = 2,2,2\n" + A22_TESTS
        + "out_json = o.json\nout_csv = o.csv\n")
    code = ("import sys\nfrom orbitlab.cli import main\n"
            "print(main(['orbit', '--config', 'run.conf']), "
            "'numpy.random' in sys.modules, 'orbitlab.linalg' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(orbitlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False", "False"]


def test_orbit_run_leaves_argparse_and_locale_unimported(tmp_path):
    # argv is read by one loop over the subcommand table: argparse, and
    # the gettext and locale lookups of its messages, cost a fresh
    # process about 2 ms of each run and 2.5 ms of its imports
    (tmp_path / "run.conf").write_text(
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
        "ladder = 2,2,2\n" + A22_TESTS
        + "out_json = o.json\nout_csv = o.csv\n")
    code = ("import sys\nfrom orbitlab.cli import main\n"
            "print(main(['orbit', '--config', 'run.conf']), *(m in "
            "sys.modules for m in ('argparse', 'gettext', 'locale')))")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(orbitlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False", "False", "False"]


@pytest.mark.parametrize("name", sorted(GOLDEN_ORBIT_JSON))
def test_orbit_json_golden_bytes(name, monkeypatch, tmp_path):
    conf, digest = GOLDEN_ORBIT_JSON[name]
    assert _orbit_json_sha256(conf, tmp_path, monkeypatch) == digest
