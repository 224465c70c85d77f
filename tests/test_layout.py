"""Module layout: one module owns each rule, and the public surface is
exactly what the modules export.

A module that imports an underscore name from a sibling module (or reads
one off an imported sibling) restates or leans on a rule that another
module owns; the shared piece belongs in that module's public interface.
"""

import ast
import importlib
from pathlib import Path

import pytest

import liecurv

PACKAGE = Path(liecurv.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "liecurv"


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names a module's source takes from sibling modules."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module is None:  # from . import families
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    source = "from .metric import _GRAM_TOL\nfrom . import families\nfamilies._x\n"
    assert private_sibling_imports(source) == ["metric._GRAM_TOL", "families._x"]
    assert private_sibling_imports("from . import __version__\nfrom .a import b\n") == []


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = {
        path.name: names
        for path in modules
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# Names deleted because only their own unit tests used them, written
# module.name or module.Class.method.
DELETED = [
    "algebra.bracket",
    "algebra.project",
    "algebra.regular_complement",
    "algebra._REGULAR_TOL",
    "algebra.LieAlgebra.ad",
    "algebra.LieAlgebra.factor_part",
    "algebra.Subalgebra.from_span",
    "errors.SingularVector",
    "metric.b_term",
    "variation.DerivativeReport",
    "variation.derivative_report",
]


@pytest.mark.parametrize("dotted", DELETED)
def test_deleted_name_is_gone(dotted):
    module, *owners, name = dotted.split(".")
    owner = importlib.import_module(f"liecurv.{module}")
    for attr in owners:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)
    if not owners:
        assert not hasattr(liecurv, name)
        assert name not in owner.__all__


def test_every_all_entry_exists():
    missing = []
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"liecurv.{path.stem}")
            names = getattr(module, "__all__", ())
            missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    unexported = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"liecurv.{node.module}").__all__
    ]
    assert unexported == []
