"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps package
functions by module and attribute name; a binding that no longer resolves
breaks that run, so every one is checked here.  A module may import a name
it never uses only for such a binding."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

from spans import BINDINGS  # noqa: E402


@pytest.mark.parametrize("module,attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"minorflow.{module}"), attr, None))


def unused_imports(source: str) -> set[str]:
    """The names a module imports (``__future__`` aside) and never reads: no
    ``Name`` node and no ``__all__`` entry mentions them."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_unused_import_is_a_traced_binding():
    unused = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "minorflow").glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert unused <= set(BINDINGS), sorted(unused - set(BINDINGS))
