"""Every export resolves, every demo imports, src holds no assert, and
importing orbitlab starts no thread and leaves the environment alone."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import orbitlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(orbitlab.__path__,
                                                      "orbitlab."))


@pytest.mark.parametrize("name", ["orbitlab", *MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [e for e in getattr(module, "__all__", ())
               if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names missing symbols: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # importing under a name other than __main__ defines main() without
    # running it
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", sorted(pathlib.Path(orbitlab.__file__)
                                        .parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_source_has_no_assert(path):
    # invariants raise typed errors: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


# ---------------------------------------------------------------------------
# start-up, each in a fresh process: this one may have loaded numpy already

def _fresh(code, **env):
    """Run ``code`` in a new interpreter that finds this orbitlab, with
    OPENBLAS_NUM_THREADS unset unless given; return its stdout as JSON."""
    environ = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env,
                   PYTHONPATH=str(pathlib.Path(orbitlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=environ,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_import_starts_no_blas_thread():
    threads = _fresh("import json, os, orbitlab.balls\n"
                     "print(json.dumps(len(os.listdir('/proc/self/task'))))")
    assert threads == 1


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "caller-2"])
def test_import_leaves_environment_unchanged(env):
    before, after = _fresh("import json, os\n"
                           "before = dict(os.environ)\n"
                           "import orbitlab\n"
                           "print(json.dumps([before, dict(os.environ)]))",
                           **env)
    assert after == before
    assert after.get("OPENBLAS_NUM_THREADS") == env.get("OPENBLAS_NUM_THREADS")


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is loaded only for precision > 0
    assert _fresh("import json, sys, orbitlab.cli\n"
                  "print(json.dumps('mpmath' in sys.modules))") is False
