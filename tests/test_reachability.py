"""Every definition in `hcl` is reached from the library itself.

An AST walk over `src/hcl/*.py` collects each module-level function and
class and each non-dunder method, and each name that a `Name` or
`Attribute` node of the library reads (a `Load` context: an assignment
target or an annotated field of the same name is no use).  Docstrings and
`__all__` are string constants, so they reference nothing, and an attribute
of a module bound by `import x [as y]` (`np.zeros`, `math.sqrt`) is that
module's, not the library's.  A definition that no node names is
dead code unless `ALLOWED` keeps it, with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hcl

SOURCES = sorted(Path(hcl.__file__).parent.glob("*.py"))

ALLOWED = {
    "__getattr__": "the package's lazy-import hook, which Python calls",
    "closed_form_2x2": "crit-02's closed-form cross-check of the Jacobi oracle",
    "char_poly_residual": "crit-03's characteristic-polynomial check",
    "interval_census": "crit-04's census over an interval of widths",
    "export_csv": "public CSV export, documented in the README",
    "write_hermitian_field": "writes the README's Hermitian HCL1 container",
    "chern_laplacian": "the tests' Poisson oracle",
    "in_gamma_g": "crit-06's ray-boundedness classification",
    "random_instance": "the tests' one-instance battery draw",
    "ScalarField.from_function": "the tests' field constructor",
    "ScalarField.zeros": "the tests' zero field",
    "CensusReport.constant": "the tests' constant-verdict census",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each module-level function or class and
    each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def _used(tree: ast.Module):
    """The names a module's `Name` and `Attribute` nodes read, less the
    attributes read on a module it binds with `import`."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.attr


def _unreached() -> set[str]:
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    used = {name for tree in trees for name in _used(tree)}
    return {qual for tree in trees for qual, name in _definitions(tree) if name not in used}


def test_an_annotated_field_is_no_use():
    # a field annotated with a function's name once hid that nothing called it
    tree = ast.parse("def verdict(): pass\nclass Report:\n    verdict: bool\n"
                     "def make(r):\n    r.verdict = 1\n    return Report\n")
    assert set(_used(tree)) == {"bool", "r", "Report"}


def test_every_definition_is_reached_or_allowed():
    unreached = _unreached()
    assert unreached - set(ALLOWED) == set(), "definitions nothing in src/hcl uses"
    assert set(ALLOWED) - unreached == set(), "allowed names now reached or gone"
