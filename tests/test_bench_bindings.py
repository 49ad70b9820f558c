"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps package
functions by module and attribute name; a binding that no longer resolves
breaks that run, so every one is checked here."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import BINDINGS  # noqa: E402


@pytest.mark.parametrize("module,attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"minorflow.{module}"), attr, None))
