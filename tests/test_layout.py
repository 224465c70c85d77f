"""Module layout: one module owns each rule, and the public surface is
exactly what the modules export.

A module that imports an underscore name from a sibling module (or reads
one off an imported sibling) restates or leans on a rule that another
module owns; the shared piece belongs in that module's public interface.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import liecurv

PACKAGE = Path(liecurv.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "liecurv"


def sibling_imports(source: str) -> list[tuple[str | None, str]]:
    """(module, name) for each name a module's source takes from a sibling
    module: ``from .module import name`` and ``module.name`` read off a
    sibling imported by ``from . import module`` both give (module, name),
    and ``from . import module`` itself gives (None, module)."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            module = node.module and node.module.removeprefix("liecurv.")
            for alias in node.names:
                found.append((module, alias.name))
                if module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.value.id, node.attr))
    return found


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names a module's source takes from sibling modules."""
    return [f"{module or '.'}.{name}" for module, name in sibling_imports(source) if _private(name)]


def test_checker_sees_both_forms():
    source = "from .metric import _GRAM_TOL\nfrom . import families\nfamilies._x\n"
    assert private_sibling_imports(source) == ["metric._GRAM_TOL", "families._x"]
    assert private_sibling_imports("from . import __version__\nfrom .a import b\n") == []


def test_every_sibling_import_is_exported():
    # a name one module takes from another is part of that module's public
    # interface, so the owner lists it in __all__
    unexported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, name in sibling_imports(path.read_text(encoding="utf-8")):
            if module is not None:  # None: a sibling module, or the package's __version__
                owner = importlib.import_module(f"liecurv.{module}")
                if name not in getattr(owner, "__all__", ()):
                    unexported.append(f"{path.stem} imports {module}.{name}")
    assert unexported == []


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = {
        path.name: names
        for path in modules
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# Names deleted because only their own unit tests used them, or because
# their rule now lives in one other place, written module.name or
# module.Class.method.
DELETED = [
    "algebra.bracket",
    "algebra.project",
    "algebra.regular_complement",
    "algebra._REGULAR_TOL",
    "algebra.LieAlgebra.ad",
    "algebra.LieAlgebra.factor_part",
    "cli._add_budget_flags",
    "cli._budget",
    "algebra.Subalgebra.from_span",
    "errors.SingularVector",
    "families.barred_params",
    "families.invariant_abelian_residual",
    "families.s3_action_path_residual",
    "families.s3_action_phi_at_time",
    "metric.b_term",
    "metric._DEFINITENESS_GATE",
    "metric.wedge_many",
    "normalform._kernel",
    "normalform.invariant_plane_residual",
    "suites._constrained_normal_form",
    "suites._random_normal_form",
    "variation.DerivativeReport",
    "variation.InverseLinearPath.admissible",
    "variation.derivative_report",
    "variation._HORIZON_GUARD",
    "variation.stencil_curve",
    "verify.Budget",
    "verify.LemmaKReport.vacuous",
    "verify.derived_seed",
    "verify.eigenstructure",
    "verify._CERT_COST",
    "verify._GRID_POINTS",
    "verify._GRID_STARTS",
    "verify._STEP_INIT",
    "verify._STEP_STOP",
    "verify._STALL_FLOOR",
    "verify._STALL_STEPS",
    "verify._best_starts",
    "verify._certified_above",
    "verify._certified_pair",
    "verify._descend",
    "verify._hemisphere_grid",
    "verify._least_pair",
    "verify._least_curved_plane_3d",
    "verify._polish_starts",
    "verify._quotient_value_and_gradient",
    "verify._search",
    "verify._smallest_eigenvalues",
    "verify._to_orthonormal",
    "verify._unit_columns",
    "verify._whitened_operators",
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
        assert name not in getattr(owner, "__all__", ())  # cli has no __all__


def stale_mentions(text: str, names) -> list[str]:
    """The names that appear in text as a whole word."""
    return [name for name in names if re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text)]


def test_stale_mention_checker_sees_whole_words():
    text = "polished by ``_least_pair``, not by _searching or plane_descend: verify._search"
    names = ["_least_pair", "_search", "_descend", "_GRID_POINTS"]
    assert stale_mentions(text, names) == ["_least_pair", "_search"]


def test_no_deleted_private_name_is_mentioned():
    # a docstring or README line naming a deleted helper describes a route
    # the code no longer takes
    names = [dotted.rsplit(".", 1)[1] for dotted in DELETED]
    names = [name for name in names if _private(name)]
    paths = [*sorted(PACKAGE.glob("*.py")), Path(__file__).resolve().parents[1] / "README.md"]
    texts = {path.name: path.read_text(encoding="utf-8") for path in paths}
    found = {name: hits for name, text in texts.items() if (hits := stale_mentions(text, names))}
    assert found == {}


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


def _module_private_names(tree: ast.Module) -> list[str]:
    """The private functions, classes and constants a module defines at its
    top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if _private(name)]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module's code reads, as a bare name or an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_private_helper_has_a_caller():
    # a stage helper that lost its last caller in a refactor is dead code,
    # even when its own unit tests still import it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_referenced_names, trees.values()))
    orphans = [f"{stem}.{name}" for stem, tree in trees.items()
               for name in _module_private_names(tree) if name not in used]
    assert orphans == []


def test_orphan_checker_sees_definitions_and_uses():
    tree = ast.parse("_A = 1\n_b: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n"
                     "def g():\n    return obj._C\n")
    assert _module_private_names(tree) == ["_A", "_b", "_f", "_C"]
    assert {"_A", "_C"} <= _referenced_names(tree)
    assert not {"_b", "_f"} & _referenced_names(tree)


# Public names that no code in src/ reads, each with the use that keeps it,
# written module.name.
KEPT_PUBLIC = {
    "metric.puttmann_curvature": "the paper's closed-form curvature, one of the two routes kept",
    "metric.koszul_oracle": "the independent Koszul oracle, one of the two routes kept",
    "families.inverse_linear_eigs_s3": "the closed-form reference that test_acceptance checks",
    "verify.lemma_k_check": "ROADMAP item 7: the rigidity block of liecurv infinitesimal",
    "normalform.psi_normal_form": "ROADMAP item 7: the rigidity block of liecurv infinitesimal",
    "metric.normalized_curvature": "the validated one-plane door: checks both vectors, returns a float",
    "variation.k_of_t": "pending item 14: one-row door of k_of_t_many",
    "variation.kappa_of_t": "pending item 14: one-row door of kappa_of_t_many",
    "variation.k_second_deriv": "pending item 14: one-row door of its stacked pair formula",
    "variation.kappa_third_deriv": "pending item 14: one-row door of kappa_third_deriv_many",
    "normalform.normal_form_kappa3": "pending item 14: called by tests only",
}


def unread_public_names(trees: dict[str, ast.Module], exports: dict[str, list[str]]) -> list[str]:
    """module.name for each name in a module's ``__all__`` that no module
    reads, as a bare name or an attribute; a read inside the name's own
    top-level definition does not count, and an import is no read."""
    def reads(tree, own):
        found = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name == own:
                continue
            found |= _referenced_names(ast.Module(body=[node], type_ignores=[]))
        return found

    return [f"{stem}.{name}" for stem, names in exports.items() for name in names
            if not any(name in reads(tree, name if other == stem else None)
                       for other, tree in trees.items())]


def test_unread_public_checker_skips_own_definition_and_imports():
    trees = {"a": ast.parse("__all__ = ['f', 'g', 'h']\ndef f():\n    return f()\n"
                            "def g():\n    return 1\nh = 2\n"),
             "b": ast.parse("from .a import f, h\nx = h + 1\n")}
    assert unread_public_names(trees, {"a": ["f", "g", "h"]}) == ["a.f", "a.g"]


def test_every_public_name_is_read_or_kept():
    # a public name that nothing in the package calls is dead surface,
    # unless a stated use keeps it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    exports = {stem: list(getattr(importlib.import_module(f"liecurv.{stem}"), "__all__", ()))
               for stem in trees if stem != "__init__"}
    assert sorted(unread_public_names(trees, exports)) == sorted(KEPT_PUBLIC)


# Parameters that no body reads, each kept for a caller outside the
# function, written module.function.parameter.
UNREAD_PARAMETERS = {
    # verdictbench's workloads still pass seed=; no verdict draws one
    "verify.min_curvature.seed": "verdictbench passes seed=",
    "verify.infinitesimal_check.seed": "verdictbench passes seed=",
    "verify.lemma_k_check.seed": "verdictbench passes seed=",
    "verify.path_scan.seed": "verdictbench passes seed=",
}


def unread_parameters(tree: ast.Module) -> list[str]:
    """function.parameter (Class.method.parameter for a method) for each
    parameter of a ``def`` that its body never reads; a read inside a
    nested function counts.  ``self`` and ``cls`` are exempt, and so is a
    lambda: it adapts a callback's signature."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}.{p}" for p in params if p not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    # a parameter that buys nothing is a knob that moves no result
    unread = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


def test_unread_parameter_checker_sees_defs_methods_and_closures():
    tree = ast.parse("def f(a, b, *, c=1, **kw):\n    return a\n"
                     "def g(x):\n    def h(y=x):\n        return 0\n    return h\n"
                     "class K:\n    def m(self, z):\n        return (lambda q: z)\n"
                     "def outer(v):\n    def inner():\n        return v\n    return inner\n")
    assert unread_parameters(tree) == ["f.b", "f.c", "f.kw", "g.h.y"]
