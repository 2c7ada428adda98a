"""The one cap rule: `errors.check_cap` decides and words every resource cap."""

import ast
from pathlib import Path

import pytest

import okv
from okv.errors import ResourceCapError, check_cap

SOURCES = sorted(Path(okv.__file__).parent.glob("*.py"))


def test_a_count_trips_only_above_its_cap():
    check_cap(5, 5, "monomial cap exceeded")
    with pytest.raises(ResourceCapError, match=r"^monomial cap exceeded in degree 3: 6 > 5$"):
        check_cap(6, 5, "monomial cap exceeded in degree %d", 3)


def test_a_shape_is_capped_in_cells_and_shown_as_rows_by_columns():
    check_cap((2, 3), 6, "matrix cap exceeded")
    with pytest.raises(ResourceCapError, match=r"^matrix cap exceeded: 2x4 > 6$"):
        check_cap((2, 4), 6, "matrix cap exceeded")


def test_no_cap_bounds_nothing_and_a_message_is_formed_only_on_a_trip():
    check_cap(10**12, None, "kernel basis too large")
    check_cap((10**6, 10**6), None, "kernel basis too large")
    check_cap(1, 2, "%d is not a count", "so formatting it would fail")


class _CapRaises(ast.NodeVisitor):
    """Every `raise ResourceCapError...`, as module.scope."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceCapError":
            self.found.append(".".join([self.module, *self.scope]))


def test_resource_cap_error_is_raised_only_by_check_cap():
    assert SOURCES
    found = []
    for path in SOURCES:
        visitor = _CapRaises(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert found == ["errors.check_cap"]
