"""The declared dependencies are exactly the third-party imports of
orbitlab, and an orbit run needs nothing past them."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import orbitlab

SRC = pathlib.Path(orbitlab.__file__).resolve().parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _third_party_imports():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"orbitlab"}


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                .replace("-", "_") for d in deps}
    assert declared == _third_party_imports()


def test_orbit_run_without_mpmath(tmp_path):
    # a None entry in sys.modules makes every import of mpmath fail
    (tmp_path / "run.conf").write_text(
        "application = a22\nv_inf = 1,sqrt(2)\nv_fin = 1,3\np = 2\n"
        "ladder = 2,2,2\ntests = annulus(1,sqrt(3));shell(0)\n"
        "out_json = o.json\nout_csv = o.csv\n")
    code = ("import sys\nsys.modules['mpmath'] = None\n"
            "from orbitlab.cli import main\n"
            "sys.exit(main(['orbit', '--config', 'run.conf']))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "o.json").exists()
