"""Command line front end: flat configs, deterministic report files.

Subcommands map onto the library layers: ``enumerate`` streams a ball
to CSV, ``volume`` tabulates ball and skew-ball volumes along a
geometric ladder, ``asymptotics`` fits residue-class growth laws to a
volume table, ``orbit`` runs a distribution experiment, and ``report``
merges compatible CSV tables.

Configuration is a flat key-value namespace per subcommand, declared
once in ``_SCHEMAS``.  Values come from a config file (``--config``),
generic ``--set key=value`` pairs, or dedicated flags; any command line
value wins over the file with a recorded warning, and dedicated flags
win over ``--set``.  ``_SUBCOMMANDS`` maps each dedicated flag to its
schema key, whose choices the flag offers; one loop over argv reads
them (flags are spelled out in full), and parse_config checks every
value.  Unknown keys are rejected by name, and every violation is
reported in one pass.

The orbit JSON report is its ``DistributionReport`` dataclass as
written, with ``normalizer_label`` named ``normalizer`` and each row's
``t`` named ``T``, plus the config echo.

Reports are byte-stable for identical configs: JSON keys are emitted
sorted, floats carry 12 significant digits, exact values travel as
strings like ``3/4`` and ``1/2*sqrt(2)^3``.  Exit codes partition the
failure modes: 2 configuration, 3 capacity, 4 numeric divergence.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from .balls import (
    BallSpec,
    CongruenceWindow,
    iter_ball_chunks,
    norm_sq,
)
from .equidist import ExperimentConfig, OrbitVector, parse_test, run_experiment
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateSpanError,
    DivergenceError,
    InvariantError,
)
from .places import evaluate_symbolic, floor_log, is_prime
from .volumes import (
    SqrtPower,
    StabilizerBall,
    SymSquareUnipotentBall,
    UnipotentPairBall,
    fit_asymptotics,
    padic_sl2_ball_volume,
)

__all__ = ["RunConfig", "parse_config", "emit_report", "main"]


# ---------------------------------------------------------------------------
# value formatting

def _fmt_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise DivergenceError(f"non-finite value {x!r} in report")
    return format(x, ".12g")


def _cell(v) -> str:
    """One table cell; exact values stay exact, floats get 12 digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    if isinstance(v, SqrtPower):
        return v.serialize()
    if isinstance(v, (int, Fraction)):
        return str(v)
    return _fmt_float(v)


def _csv_cell(v) -> str:
    s = _cell(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _json_dump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_dump(obj[k], indent + 1)}'
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(_cell(obj))


def emit_report(report, fmt: str, path: str) -> str:
    """Serialize ``report`` to ``path``; byte-stable for equal inputs.

    ``fmt="json"`` takes a mapping; ``fmt="csv"`` takes a
    ``(header, rows)`` pair.  The whole document is rendered before the
    file is opened, so a formatting failure leaves no partial output.
    """
    if fmt == "json":
        text = _json_dump(report) + "\n"
    elif fmt == "csv":
        header, rows = report
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return _write_text(text, path)


def _write_text(text: str, path: str) -> str:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return path


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class _Key:
    kind: str                    # int | num | str | path | choice
    default: str | None = None   # None = required
    choices: tuple = ()


_SCHEMAS = {
    "enumerate": dict(
        group=_Key("choice", None, ("sl2z", "sl2zp", "slnz")),
        n=_Key("int", "2"),
        p=_Key("int", "0"),
        t_inf=_Key("num"),
        t_p=_Key("str", ""),
        norm=_Key("choice", "frobenius", ("frobenius", "max")),
        window=_Key("path", ""),
        out=_Key("path"),
        capacity=_Key("int", "100000000"),
        workers=_Key("int", "0"),
    ),
    "volume": dict(
        case=_Key("choice", None, ("stab2", "example31", "unipair", "padicball")),
        ladder=_Key("str"),
        out=_Key("path"),
        p=_Key("int", "0"),
        v=_Key("str", ""),
        v_fin=_Key("str", ""),
        g=_Key("str", ""),
        g_inf=_Key("str", ""),
        g_p=_Key("str", ""),
        t_p=_Key("str", ""),
    ),
    "asymptotics": dict(
        input=_Key("path"),
        p=_Key("int"),
        out=_Key("path"),
        moduli=_Key("str", "1,2"),
        tol=_Key("num", "1/1000000"),
        min_per_class=_Key("int", "8"),
    ),
    "orbit": dict(
        application=_Key("choice", None, ("ledrappier", "a21", "a22", "wedge")),
        v_inf=_Key("str"),
        v_fin=_Key("str", ""),
        p=_Key("int", "0"),
        ladder=_Key("str"),
        tests=_Key("str", ""),
        window=_Key("path", ""),
        n=_Key("int", "2"),
        k=_Key("int", "1"),
        norm=_Key("choice", "frobenius", ("frobenius", "max")),
        capacity=_Key("int", "100000000"),
        workers=_Key("int", "0"),
        seed=_Key("int", "7"),
        precision=_Key("int", "0"),
        out_json=_Key("path"),
        out_csv=_Key("path"),
    ),
    "report": dict(
        inputs=_Key("str"),
        out=_Key("path"),
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """One validated subcommand invocation.

    ``settings`` holds every schema key as a canonical string, defaults
    included, so the echo embedded in a JSON report re-parses to an
    equal config.
    """

    subcommand: str
    settings: dict
    warnings: tuple = ()

    def echo(self) -> dict:
        return dict(self.settings)

    def integer(self, key: str) -> int:
        return int(self.settings[key])

    def number(self, key: str) -> Fraction:
        return Fraction(self.settings[key])

    def __eq__(self, other):
        if not isinstance(other, RunConfig):
            return NotImplemented
        # warnings record where values came from, not what they are
        return (self.subcommand, self.settings) == (
            other.subcommand, other.settings)


def _parse_number(name: str, raw: str) -> Fraction:
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name}: expected a number, got {raw!r}")
    return value


def _canon(name: str, spec: _Key, raw: str) -> str:
    raw = raw.strip()
    if spec.kind == "int":
        try:
            return str(int(raw))
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}")
    if spec.kind == "num":
        return str(_parse_number(name, raw))
    if spec.kind == "choice":
        if raw not in spec.choices:
            raise ConfigError(
                f"{name}: expected one of {', '.join(spec.choices)}, got {raw!r}")
        return raw
    return raw


def _read_kv_file(path: str) -> dict:
    """Flat ``key = value`` lines; # comments and blanks ignored."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    pairs = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, eq, value = s.partition("=")
        key = key.strip()
        if not eq or not key:
            problems.append(f"{path}:{lineno}: expected key = value")
            continue
        if key in pairs:
            problems.append(f"{path}:{lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value.strip()
    if problems:
        raise ConfigError(problems)
    return pairs


def _writable_problem(path: str) -> str:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"output directory {parent!r} does not exist"
    if not os.access(parent, os.W_OK):
        return f"output directory {parent!r} is not writable"
    return ""


def _cross_checks(subcommand: str, settings: dict) -> list:
    problems = []
    for key in ("out", "out_json", "out_csv"):
        if key in settings:
            msg = _writable_problem(settings[key])
            if msg:
                problems.append(f"{key}: {msg}")
    if subcommand == "enumerate":
        if settings["group"] == "sl2zp" and not settings["t_p"]:
            problems.append("t_p: required for group sl2zp")
        if settings["t_p"]:
            try:
                _parse_number("t_p", settings["t_p"])
            except ConfigError as exc:
                problems.extend(exc.problems)
    if subcommand == "orbit" and settings["k"] != "1":
        problems.append(f"k: orbit runs count vector orbits, wedge degree 1 "
                        f"only; got {settings['k']}")
    if subcommand == "orbit" and settings["precision"] != "0":
        problems.append(f"precision: entries are always correctly rounded, "
                        f"so only 0 is accepted; got {settings['precision']}")
    if "ladder" in settings:
        try:
            _parse_ladder(settings["ladder"])
        except ConfigError as exc:
            problems.extend(exc.problems)
    if subcommand == "report" and not [s for s in settings["inputs"].split(";") if s]:
        problems.append("inputs: at least one CSV file is required")
    return problems


def parse_config(subcommand: str, flags=None, path: str | None = None) -> RunConfig:
    """Merge file and flag values into a validated RunConfig.

    Flags win over the file; each overridden key is recorded as a
    warning.  Every unknown key, missing required key, and type
    mismatch is reported together.
    """
    schema = _SCHEMAS.get(subcommand)
    if schema is None:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    merged = _read_kv_file(path) if path else {}
    warnings = []
    for key, value in dict(flags or {}).items():
        value = str(value)
        if key in merged and merged[key] != value:
            warnings.append(
                f"{key}: command line value {value!r} overrides "
                f"file value {merged[key]!r}")
        merged[key] = value
    problems = [f"unknown key {k!r}" for k in sorted(set(merged) - set(schema))]
    settings = {}
    for name, spec in schema.items():
        if name in merged:
            try:
                settings[name] = _canon(name, spec, merged[name])
            except ConfigError as exc:
                problems.extend(exc.problems)
        elif spec.default is None:
            problems.append(f"missing required key {name!r}")
        else:
            settings[name] = spec.default
    if not problems:
        problems = _cross_checks(subcommand, settings)
    if problems:
        raise ConfigError(problems)
    return RunConfig(subcommand, settings, tuple(warnings))


# ---------------------------------------------------------------------------
# shared argument parsing helpers

def _parse_ladder(text: str) -> list:
    """``t0,factor,steps`` -> exact geometric ladder values."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"ladder: expected t0,factor,steps, got {text!r}")
    t0 = _parse_number("ladder t0", parts[0])
    factor = _parse_number("ladder factor", parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"ladder steps: expected an integer, got {parts[2]!r}")
    if t0 <= 0 or factor <= 0 or steps < 1:
        raise ConfigError("ladder: t0, factor and steps must be positive")
    values = [t0 * factor**k for k in range(steps)]
    return [int(v) if v.denominator == 1 else v for v in values]


def _split_entries(name: str, text: str, count: int) -> list:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != count or not all(parts):
        raise ConfigError(f"{name}: expected {count} comma-separated entries")
    return parts


def _symbolic_pair(name: str, text: str) -> tuple:
    try:
        vec = tuple(map(evaluate_symbolic, _split_entries(name, text, 2)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{name}: {exc}")
    return _nonzero(name, vec)


def _rational_entries(name: str, text: str, count: int):
    try:
        return tuple(Fraction(e) for e in _split_entries(name, text, count))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{name}: {exc}")


def _nonzero(name: str, vec: tuple) -> tuple:
    """``vec``, a stabilizer vector; zero has no stabilizer ball."""
    if not any(vec):
        raise ConfigError(f"{name}: must be a nonzero vector")
    return vec


def _matrix2(name: str, text: str) -> tuple:
    a, b, c, d = _rational_entries(name, text, 4)
    if a * d - b * c != 1:
        raise ConfigError(f"{name}: determinant must be 1")
    return ((a, b), (c, d))


def _int_entries(name: str, text: str, count: int) -> tuple:
    try:
        return tuple(int(e) for e in _split_entries(name, text, count))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")


def _exponent_ladder(values, p: int) -> list:
    """Radii p^j -> exponents j; anything else is a config error."""
    out = []
    for v in values:
        j = floor_log(v, p)
        if Fraction(p) ** j != v:
            raise ConfigError(
                f"ladder: radius {v} is not an exact power of p={p}")
        out.append(j)
    return out


def _load_window(path: str) -> CongruenceWindow:
    pairs = _read_kv_file(path)
    unknown = sorted(set(pairs) - {"p", "m", "reps"})
    problems = [f"{path}: unknown key {k!r}" for k in unknown]
    for key in ("p", "m", "reps"):
        if key not in pairs:
            problems.append(f"{path}: missing key {key!r}")
    if problems:
        raise ConfigError(problems)
    try:
        p, m = int(pairs["p"]), int(pairs["m"])
        reps = tuple(
            _int_entries("window rep", quad, 4)
            for quad in pairs["reps"].split(";") if quad.strip()
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}")
    return CongruenceWindow(p, m, reps)


def _parse_exact_value(text: str):
    text = text.strip()
    if "sqrt" in text:
        try:
            return SqrtPower.parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad exact value {text!r}: {exc}")
    return _parse_number("value", text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_enumerate(config: RunConfig) -> None:
    s = config.settings
    group = s["group"]
    p = config.integer("p")
    spec = BallSpec(
        group=group,
        n=config.integer("n"),
        p=p,
        t_inf=config.number("t_inf"),
        t_p=_parse_number("t_p", s["t_p"]) if s["t_p"] else None,
        norm=s["norm"],
        capacity=config.integer("capacity"),
    )
    window = _load_window(s["window"]) if s["window"] else None
    workers = config.integer("workers") or None
    dim = spec.n
    header = ["level"]
    header += [f"e{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]
    header += ["norm_inf_sq", "norm_p"]
    rows = []
    for levels, mats in iter_ball_chunks(spec, workers, window):
        keys = norm_sq(mats, spec.norm).tolist()
        for m, entries, key in zip(levels.tolist(),
                                   mats.reshape(len(mats), -1).tolist(), keys):
            norm_p = p**m if group == "sl2zp" else 1
            rows.append([m, *entries, Fraction(key, norm_p * norm_p), norm_p])
    emit_report((header, rows), "csv", s["out"])


def _volume_rows_stab2(config: RunConfig, ladder):
    s = config.settings
    ball = StabilizerBall(_symbolic_pair("v", s["v"] or "1,sqrt(2)"))
    g = _matrix2("g", s["g"] or "1,0,0,1")
    rows = []
    for t in ladder:
        tf = float(t)
        skew = ball.skew_volume(g, tf)
        plain = ball.ball_volume(tf)
        ratio = skew / plain if plain else None
        rows.append([t, 0, skew, ratio])
    return rows


def _volume_rows_example31(config: RunConfig, ladder):
    s = config.settings
    p = _require_prime(config)
    ball = SymSquareUnipotentBall(p)
    g_inf = _int_entries("g_inf", s["g_inf"] or "0,0,0", 3)
    g_p = _int_entries("g_p", s["g_p"] or "1,0,-1", 3)
    rows = []
    for n in _exponent_ladder(ladder, p):
        skew = ball.skew_volume(g_inf, g_p, n)
        plain = ball.ball_volume(n)
        rows.append([p**n, n % 2, skew, skew / plain])
    return rows


def _volume_rows_unipair(config: RunConfig, ladder):
    s = config.settings
    p = _require_prime(config)
    ball = UnipotentPairBall(
        _symbolic_pair("v", s["v"] or "1,sqrt(2)"),
        _nonzero("v_fin", _rational_entries("v_fin", s["v_fin"] or "1,3", 2)),
        p,
    )
    g_inf = _matrix2("g_inf", s["g_inf"] or "1,0,0,1")
    g_p = _matrix2("g_p", s["g_p"] or "1,0,0,1")
    t_p_fixed = _parse_number("t_p", s["t_p"]) if s["t_p"] else None
    if t_p_fixed is not None and t_p_fixed <= 0:
        raise ConfigError(f"t_p: must be positive, got {t_p_fixed}")
    rows = []
    for t in ladder:
        t_p = t_p_fixed if t_p_fixed is not None else t
        skew = ball.skew_volume(g_inf, g_p, float(t), t_p)
        plain = ball.ball_volume(float(t), t_p)
        ratio = skew / plain if plain else None
        rows.append([t, floor_log(t_p, p) % 2, skew, ratio])
    return rows


def _volume_rows_padicball(config: RunConfig, ladder):
    p = _require_prime(config)
    rows = []
    previous = None
    for j in _exponent_ladder(ladder, p):
        if j < 0:
            raise ConfigError("ladder: p-adic ball radii must be >= 1")
        vol = padic_sl2_ball_volume(p, j)
        # ratio column: growth against the previous rung
        rows.append([p**j, j % 2, vol, vol / previous if previous else None])
        previous = vol
    return rows


def _require_prime(config: RunConfig) -> int:
    p = config.integer("p")
    if not is_prime(p):
        raise ConfigError(f"p: a prime is required, got {p}")
    return p


def _cmd_volume(config: RunConfig) -> None:
    s = config.settings
    ladder = _parse_ladder(s["ladder"])
    builders = {
        "stab2": _volume_rows_stab2,
        "example31": _volume_rows_example31,
        "unipair": _volume_rows_unipair,
        "padicball": _volume_rows_padicball,
    }
    rows = builders[s["case"]](config, ladder)
    emit_report((["t", "class", "volume", "ratio"], rows), "csv", s["out"])


def _cmd_asymptotics(config: RunConfig) -> None:
    s = config.settings
    p = _require_prime(config)
    try:
        moduli = tuple(int(x) for x in s["moduli"].split(","))
    except ValueError:
        raise ConfigError(f"moduli: expected integers, got {s['moduli']!r}")
    if min(moduli) < 1:
        raise ConfigError(
            f"moduli: each must be at least 1, got {s['moduli']!r}")
    tol, min_per_class = config.number("tol"), config.integer("min_per_class")
    if tol < 0:
        raise ConfigError(f"tol: must be >= 0, got {tol}")
    if min_per_class < 1:
        raise ConfigError(
            f"min_per_class: must be at least 1, got {min_per_class}")
    try:
        with open(s["input"], newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {s['input']}: {exc}")
    if not table:
        raise ConfigError(f"{s['input']}: empty table")
    header = table[0]
    try:
        it, iv = header.index("t"), header.index("volume")
    except ValueError:
        raise ConfigError(
            f"{s['input']}: need 't' and 'volume' columns, got {header}")
    ts, vols = [], []
    for lineno, row in enumerate(table[1:], 2):
        if len(row) < len(header):
            raise ConfigError(f"{s['input']}:{lineno}: {len(row)} cells, "
                              f"the header has {len(header)}")
        ts.append(_parse_number("t", row[it]))
        vols.append(float(_parse_exact_value(row[iv])))
    try:
        profile = fit_asymptotics(ts, vols, p, moduli=moduli, tol=float(tol),
                                  min_per_class=min_per_class)
    except ValueError as exc:
        raise ConfigError(str(exc))
    doc = {
        "config": config.echo(),
        "p": profile.p,
        "modulus": profile.modulus,
        "ok": profile.ok,
        "message": profile.message,
        "classes": {
            str(r): {"c": c, "d": d, "e": e}
            for r, (c, d, e) in profile.classes.items()
        },
        "residuals": {str(r): v for r, v in profile.residuals.items()},
    }
    emit_report(doc, "json", s["out"])
    if not profile.ok:
        raise DivergenceError(
            profile.message or "no candidate modulus fit within tolerance")


def _cmd_orbit(config: RunConfig) -> None:
    s = config.settings
    p = config.integer("p")
    inf = _split_entries("v_inf", s["v_inf"], s["v_inf"].count(",") + 1)
    fin = None
    if s["v_fin"]:
        fin = _split_entries("v_fin", s["v_fin"], s["v_fin"].count(",") + 1)
    v = OrbitVector.make(tuple(inf), fin=fin and tuple(fin), p=p)
    tests = tuple(
        parse_test(tok.strip(), p=p)
        for tok in s["tests"].split(";") if tok.strip()
    )
    window = _load_window(s["window"]) if s["window"] else None
    experiment = ExperimentConfig(
        application=s["application"],
        v=v,
        t_ladder=tuple(_parse_ladder(s["ladder"])),
        tests=tests,
        n=config.integer("n"),
        norm=s["norm"],
        window=window,
        capacity=config.integer("capacity"),
        workers=config.integer("workers") or None,
    )
    report = run_experiment(experiment, seed=config.integer("seed"))
    # a field renamed in the report dataclasses renames its JSON key
    doc = asdict(report)
    doc["normalizer"] = doc.pop("normalizer_label")
    for row in doc["rows"]:
        row["T"] = row.pop("t")
    doc["config"] = config.echo()
    csv_rows = [
        [r.t, r.test_id, r.empirical, r.ratio_target, r.rel_error]
        for r in report.rows
    ]
    emit_report(doc, "json", s["out_json"])
    emit_report(
        (["T", "test_id", "empirical", "ratio_target", "error"], csv_rows),
        "csv", s["out_csv"])


def _cmd_report(config: RunConfig) -> None:
    s = config.settings
    paths = [x for x in s["inputs"].split(";") if x]
    header = None
    body = []
    problems = []
    for path in paths:
        try:
            with open(path, newline="") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            problems.append(f"cannot read {path}: {exc}")
            continue
        if not lines:
            problems.append(f"{path}: empty table")
            continue
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            problems.append(
                f"{path}: header {lines[0]!r} does not match {header!r}")
            continue
        body.extend(lines[1:])
    if problems:
        raise ConfigError(problems)
    # the input lines are copied as they are, not re-quoted cell by cell
    _write_text("\n".join([header, *body]) + "\n", s["out"])


_DISPATCH = {
    "enumerate": _cmd_enumerate,
    "volume": _cmd_volume,
    "asymptotics": _cmd_asymptotics,
    "orbit": _cmd_orbit,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parser

# subcommand -> (help line, {dedicated flag: schema key})
_SUBCOMMANDS = {
    "enumerate": ("stream a lattice ball to CSV", {
        "--group": "group", "--n": "n", "--p": "p", "--T-inf": "t_inf",
        "--T-p": "t_p", "--norm": "norm", "--window": "window",
        "--out": "out", "--capacity": "capacity", "--workers": "workers"}),
    "volume": ("tabulate ball and skew-ball volumes", {
        "--case": "case", "--ladder": "ladder", "--p": "p", "--out": "out"}),
    "asymptotics": ("fit residue-class growth laws to a volume CSV", {
        "--in": "input", "--p": "p", "--out": "out", "--moduli": "moduli",
        "--tol": "tol", "--min-per-class": "min_per_class"}),
    "orbit": ("run a distribution experiment", {}),
    "report": ("merge compatible CSV tables", {"--out": "out"}),
}


def _help(sub=None) -> str:
    """The --help text: every subcommand, or the flags of one."""
    if sub is None:
        return "usage: orbitlab SUBCOMMAND [--help] ...\n" + "\n".join(
            f"  {name:<13}{line}" for name, (line, _) in _SUBCOMMANDS.items())
    line, flags = _SUBCOMMANDS[sub]
    extra = {"volume": " [--params KEY=VALUE ...]", "report": " [CSV ...]"}
    usage = [f"usage: orbitlab {sub} [--config FILE] [--set KEY=VALUE]",
             *(f"[{flag} VALUE]" for flag in flags)]
    return f"{line}\n{' '.join(usage)}{extra.get(sub, '')}"


def _parse_argv(argv) -> tuple:
    """(subcommand, flags, config path) of a command line, for parse_config
    to check: a flag's value follows it or its ``=`` and wins over --set
    and --params; report takes CSV paths; -h/--help prints help, exits 0."""
    if {"-h", "--help"} & set(argv):
        print(_help(argv[0] if argv[0] in _SUBCOMMANDS else None))
        raise SystemExit(0)
    if not argv or argv[0] not in _SUBCOMMANDS:
        raise ConfigError(f"expected a subcommand, one of "
                          f"{', '.join(_SUBCOMMANDS)}; got {argv[:1]}")
    sub, table, rest = argv[0], _SUBCOMMANDS[argv[0]][1], iter(argv[1:])
    pairs, flags, inputs, params = [], {}, [], False
    for arg in rest:
        if not arg.startswith("-") and (params or sub == "report"):
            (pairs if params else inputs).append(arg)
            continue
        params = sub == "volume" and arg == "--params"
        if params:
            continue
        name, eq, value = arg.partition("=")
        if name not in ("--config", "--set", *table):
            raise ConfigError(f"unrecognized argument {arg!r}")
        if not eq and (value := next(rest, None)) is None:
            raise ConfigError(f"{name}: expected a value")
        if name == "--set":
            pairs.append(value)
        else:
            flags[table.get(name, name)] = value
    merged = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"expected KEY=VALUE, got {pair!r}")
        merged[key.strip()] = value.strip()
    if inputs:
        flags["inputs"] = ";".join(inputs)
    path = flags.pop("--config", None)
    return sub, {**merged, **flags}, path


def main(argv=None) -> int:
    """Run one subcommand; the return value is the process exit code.

    0 success, 2 configuration error, 3 capacity exceeded, 4 numeric
    divergence, 5 internal invariant broken (a package defect)."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(*_parse_argv(argv))
        for warning in config.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        _DISPATCH[config.subcommand](config)
    except ConfigError as exc:
        for msg in exc.problems:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    except DegenerateSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
