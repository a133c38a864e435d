"""Every module of the package uses each name it imports, and the import
path of the package and its CLI stays light."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradcalc"


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; names in __all__ count as read."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as -> "TensorField"
            if node.value.isidentifier():
                used.add(node.value)
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\nfrom .x import a, b\n"
              "__all__ = ['a']\n"
              "def f() -> 'Chart':\n    from .y import Chart, c\n    return os\n")
    assert unused_imports(source) == [(2, "regex"), (3, "b"), (6, "c")]


def test_import_path_is_light():
    # -S: no site packages, so nothing but gradcalc can load these modules
    code = ("import sys; import gradcalc, gradcalc.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
