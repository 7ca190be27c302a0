"""Every export resolves, every demo imports and runs, src holds no
assert and spells out each name set once, and importing orbitlab starts
no thread and leaves the environment alone."""

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
SOURCES = sorted(pathlib.Path(orbitlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", ["orbitlab", *MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [e for e in getattr(module, "__all__", ())
               if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names missing symbols: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path, capsys):
    # importing under a name other than __main__ defines main() without
    # running it; main() then runs to its end (a second or so each) and
    # prints its table
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert capsys.readouterr().out == ""
    module.main()
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_source_has_no_assert(path):
    # invariants raise typed errors: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def _imported_names(path):
    """Every module name an import statement of ``path`` names, at any
    depth (an import inside a function counts), relative ones resolved
    in the flat orbitlab package; ``from m import x`` names m and m.x."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("orbitlab" if node.level else "",
                                          node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_another():
    # the cli is the entry point; any other module that no src module
    # imports is reached by no command, only by its own tests
    imported = {path.stem: _imported_names(path) for path in SOURCES}
    orphans = [name for name in MODULES if name != "orbitlab.cli"
               and not any(name in names for stem, names in imported.items()
                           if f"orbitlab.{stem}" != name)]
    assert not orphans, f"no other src module imports {orphans}"


# every closed set of names, each declared where its behaviour lives
_NAME_SETS = {
    "subcommands": {"enumerate", "volume", "asymptotics", "orbit", "report"},
    "groups": {"sl2z", "sl2zp", "slnz"},
    "norms": {"frobenius", "max"},
    "applications": {"ledrappier", "a21", "a22", "wedge"},
    "volume cases": {"stab2", "example31", "unipair", "padicball"},
}


def _string_sets(path):
    """The strings of each tuple, list or set literal of ``path`` whose
    items are all string constants, and the keys of each such dict."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Dict):
            items = node.keys
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        else:
            continue
        if items and all(isinstance(i, ast.Constant)
                         and isinstance(i.value, str) for i in items):
            yield {i.value for i in items}


def test_each_name_set_is_spelled_out_once():
    # a second literal of a name set is a second definition to keep in step
    found = [names for path in SOURCES for names in _string_sets(path)]
    counts = {name: found.count(names) for name, names in _NAME_SETS.items()}
    assert counts == dict.fromkeys(_NAME_SETS, 1)


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
    # mpmath is no dependency: entries are rounded with integers alone
    assert _fresh("import json, sys, orbitlab.cli\n"
                  "print(json.dumps('mpmath' in sys.modules))") is False
