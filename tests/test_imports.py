"""Every module of the package uses each name it imports, every name it
exports has a caller, and the import path of the package and its CLI stays
light."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradcalc"


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; names in a literal __all__
    count as read, and a computed one is read like any other expression.
    A star import binds no name of its own."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:
                pass    # its names are walked as ast.Name nodes
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


def test_unused_import_reads_star_imports_and_a_computed_all():
    source = ("from . import a, b, c\nfrom .a import *\n"
              "__all__ = ['x'] + a.__all__ + [n for n in b.__all__]\n")
    assert unused_imports(source) == [(1, "c")]


def test_star_imports_only_in_package_init():
    star = sorted(p.name for p in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(p.read_text()))
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "*" for alias in node.names))
    assert star and set(star) == {"__init__.py"}


def _acc_users(src) -> list:
    """The modules of src but poly.py that import poly._acc or read it as
    an attribute."""
    return sorted(p.name for p in src.glob("*.py") if p.name != "poly.py"
                  for node in ast.walk(ast.parse(p.read_text()))
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "_acc" for alias in node.names)
                  or isinstance(node, ast.Attribute) and node.attr == "_acc")


def test_only_poly_uses_the_number_accumulator():
    # _acc adds numbers into a term dict; every sum of polynomials elsewhere
    # goes through the one polynomial accumulator, poly._acc_poly
    assert _acc_users(SRC) == []


def test_acc_user_is_found(tmp_path):
    (tmp_path / "poly.py").write_text("def _acc(s, k, v):\n    pass\n")
    (tmp_path / "a.py").write_text("from .poly import Poly, _acc\n")
    (tmp_path / "b.py").write_text("from . import poly\npoly._acc({}, 1, 2)\n")
    (tmp_path / "c.py").write_text("from .poly import _acc_poly\n")
    assert _acc_users(tmp_path) == ["a.py", "b.py"]


def _lcm_users(src) -> list:
    """The modules of src but poly.py that import math.lcm or read it as
    an attribute."""
    return sorted({p.name for p in src.glob("*.py") if p.name != "poly.py"
                   for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module == "math"
                   and any(alias.name == "lcm" for alias in node.names)
                   or isinstance(node, ast.Attribute) and node.attr == "lcm"})


def test_only_poly_clears_denominators():
    # poly._cleared is the one denominator rule: the LCM of a list's
    # denominators and the list times it, as ints
    assert _lcm_users(SRC) == []


def test_lcm_user_is_found(tmp_path):
    (tmp_path / "poly.py").write_text("import math\nd = math.lcm(2, 3)\n")
    (tmp_path / "a.py").write_text("import math\nd = math.lcm(*[2, 3])\ne = math.lcm(4)\n")
    (tmp_path / "b.py").write_text("from math import comb, lcm\n")
    (tmp_path / "c.py").write_text("import math\nn = math.comb(4, 2)\n")
    assert _lcm_users(tmp_path) == ["a.py", "b.py"]


# Exported names with no caller in the package or the demos yet, each with
# the ROADMAP item that will reach it or the reason it stays.
UNREACHED_ALLOWED = {
    "charts.cotangent_chart": "item 3: the `cotangent` chart statement",
    "checkers.sharp_map": "item 3: T*[k]F -> TF maps in the symplectic check",
    "checkers.flat_map": "item 3: the degrees of is_weighted_symplectic",
    "checkers.section_degree": "item 2: the VB-algebroid check reports",
    "checkers.algebroid_bracket": "item 2: `bracket poisson` and its criterion",
    "render.poly_to_json": "perfbench/tracer.py wraps it by name",
}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _loaded(tree, own=frozenset()) -> set:
    """Names read as a Name or an Attribute; inside the top-level def or
    class of a name in own, a read of that name itself does not count."""
    out = set()
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if owner is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name in own:
            owner = node.name
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name != owner:
            out.add(name)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return out


def unreached_exports(modules: dict, demos: list) -> list:
    """module.name for each name in a module's __all__ that no module source
    (name -> text, without __init__) nor demo source loads outside its own
    def or class."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    declared = {name: _exports(tree) for name, tree in trees.items()}
    used = set()
    for name, tree in trees.items():
        used |= _loaded(tree, frozenset(declared[name]))
    for text in demos:
        used |= _loaded(ast.parse(text))
    return sorted(f"{mod}.{name}" for mod, names in declared.items()
                  for name in names if name not in used)


def test_every_export_is_reached():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    demos = [p.read_text() for p in (SRC.parents[1] / "demos").glob("*.py")]
    assert unreached_exports(modules, demos) == sorted(UNREACHED_ALLOWED)


def test_unreached_export_is_found():
    modules = {
        "a": "__all__ = ['f', 'g', 'h', 'K']\n"
             "def f():\n    return f()\n"
             "def g():\n    return 1\n"
             "class K:\n    def m(self):\n        return K\n"
             "def h():\n    return g()\n",
        "b": "from .a import f\n__all__ = ['u']\ndef u(x):\n    return x.h\n",
    }
    # f only calls itself and K only names itself; u is loaded by the demo
    assert unreached_exports(modules, ["import b\nb.u(1)\n"]) == ["a.K", "a.f"]


# The engine modules the package re-exports, in the order of its __all__;
# sampling, suite, dsl and cli are imported by path.
REEXPORTED = ("errors", "charts", "poly", "render", "tensor", "calculus",
              "lifts", "checkers", "oracle")


def test_package_exports_come_from_modules():
    import importlib
    import gradcalc
    modules = [importlib.import_module(f"gradcalc.{m}") for m in REEXPORTED]
    assert gradcalc.__all__ == ["__version__"] + [
        name for module in modules for name in module.__all__]
    assert len(set(gradcalc.__all__)) == len(gradcalc.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gradcalc, name) is getattr(module, name), name


def test_import_path_is_light():
    # -S: no site packages, so nothing but gradcalc can load these modules
    code = ("import sys; import gradcalc, gradcalc.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
