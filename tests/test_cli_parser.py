"""The subcommand table behind the parser and its value rules, orbit
config dimensions, and the module attributes the benchmark tracer wraps
by name."""

import pathlib

import pytest

from orbitlab import balls, cli, equidist
from orbitlab.cli import _SUBCOMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _config(argv):
    return cli.parse_config(*cli._parse_argv(argv))


def _value(key, spec, tmp_path):
    """A valid value for ``key`` that differs from every default."""
    if spec.kind in ("path", "out"):
        return str(tmp_path / f"{key}.txt")
    if spec.choices:
        return spec.choices[-1]
    return {"int": "3", "ints": "4", "num": "5/2", "ladder": "1,2,3",
            "str": "4"}[spec.kind]


_FLAGS = [(sub, spec.flag, key) for sub, (_, _, keys) in _SUBCOMMANDS.items()
          for key, spec in keys.items() if spec.flag]


@pytest.mark.parametrize("sub,flag,key", _FLAGS,
                         ids=[f"{sub}{flag}" for sub, flag, _ in _FLAGS])
def test_dedicated_flag_equals_set(sub, flag, key, tmp_path):
    schema = _SUBCOMMANDS[sub][2]
    required = [f"{k}={_value(k, spec, tmp_path)}"
                for k, spec in schema.items()
                if spec.default is None and k != key]
    base = [sub, *(a for pair in required for a in ("--set", pair))]
    value = _value(key, schema[key], tmp_path)
    flagged = _config([*base, flag, value])
    assert flagged == _config([*base, "--set", f"{key}={value}"])
    assert flagged.settings[key] != schema[key].default


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in _SUBCOMMANDS)


@pytest.mark.parametrize("argv", [["bogus"], []], ids=["unknown", "missing"])
def test_unknown_or_missing_subcommand_exit_code(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    if argv:
        assert all(name in err for name in _SUBCOMMANDS)


@pytest.mark.parametrize("sub", list(_SUBCOMMANDS))
def test_subcommand_help_lists_its_flags(sub, capsys):
    for argv in ([sub, "--help"], [sub, "--set", "a=b", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = [spec.flag for spec in _SUBCOMMANDS[sub][2].values()
                 if spec.flag]
        assert all(flag in out for flag in ("--config", "--set", *flags))


def test_flag_takes_its_value_after_an_equals_sign(tmp_path):
    # --flag=VALUE is --flag VALUE, and a value may start with a dash
    out = str(tmp_path / "o.csv")
    base = ["asymptotics", "--in", "t.csv", "--p", "3", "--out", out]
    assert _config([*base, "--p=-3"]) == _config([*base, "--p", "-3"])
    assert _config([*base, "--p", "-3"]).settings["p"] == "-3"
    assert _config([*base, "--set=p=5", "--p=7"]).settings["p"] == "7"
    # report's CSV paths may sit before and after its flags
    got = _config(["report", "a.csv", "--out", out, "b.csv"])
    assert got.settings["inputs"] == "a.csv;b.csv"


# ---------------------------------------------------------------------------
# value rules: a least value, or the one value a key accepts

# a valid config of each subcommand that declares a rule
_VALID = {
    "asymptotics": {"input": "vols.csv", "p": "3", "out": "a.json"},
    "orbit": {"application": "a21", "v_inf": "1,sqrt(2)", "ladder": "4,2,2",
              "tests": "annulus(1,2)", "out_json": "o.json",
              "out_csv": "o.csv"},
}
_RULES = [(sub, key, spec) for sub, (_, _, keys) in _SUBCOMMANDS.items()
          for key, spec in keys.items()
          if spec.low is not None or len(spec.choices) == 1]


@pytest.mark.parametrize("sub,key,spec", _RULES,
                         ids=[f"{sub}-{key}" for sub, key, _ in _RULES])
def test_value_outside_its_rule_exit_code(sub, key, spec, capsys,
                                          monkeypatch, tmp_path):
    # the value at the rule's edge passes the parse, one past it exits 2
    # with an error that names the key, before anything is written
    monkeypatch.chdir(tmp_path)
    edge = int(spec.choices[0]) if spec.choices else spec.low
    pairs = [a for k, v in _VALID[sub].items() for a in ("--set", f"{k}={v}")]
    assert _config([sub, *pairs, "--set", f"{key}={edge}"])
    bad = edge + 1 if spec.choices else edge - 1
    assert main([sub, *pairs, "--set", f"{key}={bad}"]) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_every_rule_is_reported_in_one_pass(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["asymptotics", "--in", "v.csv", "--p", "3", "--out",
                 "a.json", "--tol", "-1", "--min-per-class", "0",
                 "--moduli", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert sorted(line.split(":")[1] for line in err) == [
        " min_per_class", " moduli", " tol"]
    assert all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--T", "8"], "unrecognized argument '--T'"),
    (["enumerate", "--T-in", "8"], "unrecognized argument '--T-in'"),
    (["enumerate", "--bogus=1"], "unrecognized argument '--bogus=1'"),
    (["volume", "stray"], "unrecognized argument 'stray'"),
    (["enumerate", "--params", "v=1"], "unrecognized argument '--params'"),
    (["enumerate", "--T-inf"], "--T-inf: expected a value"),
    (["orbit", "--config"], "--config: expected a value"),
    (["orbit", "--set", "k"], "expected KEY=VALUE, got 'k'"),
    (["--config", "run.conf"], "expected a subcommand, one of"),
], ids=["abbreviation", "prefix", "unknown", "positional", "params",
        "no-value", "no-config", "set-no-equals", "no-subcommand"])
def test_bad_command_lines_exit_code(argv, message, capsys):
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# vector and test dimensions

_ORBIT = "out_json = o.json\nout_csv = o.csv\nladder = 4,2,2\n"


@pytest.mark.parametrize("conf", [
    "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3,5\np = 2\n"
    "tests = shell(0)\n",
    "application = a21\nv_inf = 1,sqrt(2),sqrt(3)\n",
    "application = ledrappier\nv_inf = 1,sqrt(2)\ntests = wedge(1,2,3)\n",
], ids=["v_fin", "v_inf", "test"])
def test_orbit_dimension_mismatch_exit_code(conf, capsys, monkeypatch,
                                            tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(conf + _ORBIT)
    assert main(["orbit", "--config", "run.conf"]) == 2
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    assert not (tmp_path / "o.csv").exists()


def test_wedge_test_dimension_mismatch_builds_no_matrix(capsys, monkeypatch,
                                                        tmp_path):
    # a plane test in an SL(3) run fails before the stream completes a
    # single last row
    calls = []
    monkeypatch.setattr(balls, "_complete_last_row",
                        lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(
        "application = wedge\nn = 3\nv_inf = 1,sqrt(2),sqrt(3)\n"
        "tests = wedge(1,2,3);wedge(1,2,2)\n" + _ORBIT)
    assert main(["orbit", "--config", "run.conf"]) == 2
    assert "dimension 2, expected 3" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o.json").exists()


# ---------------------------------------------------------------------------
# benchmark patch points

# the attributes perfbench/tracing.py's Tracer.install replaces by name:
# renaming one breaks only the benchmark, which the test suite does not run
_PATCH_POINTS = [
    (cli, ("iter_ball_chunks", "run_experiment", "parse_config",
           "emit_report")),
    (equidist, ("iter_ball_chunks", "calibrate_orientation",
                "predicted_limit", "check_density_hypothesis",
                "skew_ball_ratio_limit", "slope_fit")),
]


def test_benchmark_patch_points_exist():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()
    for module, names in _PATCH_POINTS:
        for name in names:
            assert f'"{name}"' in tracer, name
            assert callable(getattr(module, name, None)), (
                f"{module.__name__}.{name}")
