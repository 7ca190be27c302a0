"""Every export resolves, every demo imports, and src holds no assert."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

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
