"""No builtin ``sum()`` of floats in ``src/pufr``.

Since Python 3.12 the builtin ``sum()`` of floats is compensated, so it
gives other bits than the left-to-right addition of Python 3.10 and 3.11,
and the sweep CSVs and golden bytes would change with the interpreter.
Float sums go through ``metrics.sequential_sum`` instead. A builtin ``sum``
stays allowed where every term is an integer count: a generator of
``len(...)`` calls, boolean tests or integer constants. The check reads
the source, so it fails with ``file:line`` before any sum runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pufr"


def counts_integers(call: ast.Call) -> bool:
    """A ``sum(term for ...)`` call whose term is an integer by its form."""
    if len(call.args) != 1 or call.keywords or not isinstance(call.args[0], ast.GeneratorExp):
        return False
    term = call.args[0].elt
    return (
        isinstance(term, ast.Call) and isinstance(term.func, ast.Name) and term.func.id == "len"
        or isinstance(term, (ast.Compare, ast.BoolOp))
        or isinstance(term, ast.UnaryOp) and isinstance(term.op, ast.Not)
        or isinstance(term, ast.Constant) and type(term.value) in (int, bool)
    )


def float_sums(tree: ast.AST) -> list[int]:
    """Line numbers of every use of the builtin ``sum`` that is not an
    integer count, including ``sum`` passed as a value and ``builtins.sum``."""
    allowed = {
        node.func for node in ast.walk(tree)
        if isinstance(node, ast.Call) and counts_integers(node)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "sum"
            or isinstance(node, ast.Attribute) and node.attr == "sum"
            and isinstance(node.value, ast.Name) and node.value.id == "builtins")
        and node not in allowed
    )


@pytest.mark.parametrize("source, lines", [
    ("total = sum(v.values())", [1]),
    ("mean = sum(x for x in xs) / n", [1]),
    ("total = sum(values, 0.0)", [1]),
    ("totals = map(sum, rows)", [1]),
    ("import builtins\ntotal = builtins.sum(xs)", [2]),
    ("n = sum(len(c) for c in columns)", []),
    ("bad = sum(not ok for _, ok in results)", []),
    ("hits = sum(x > 0 for x in xs) + sum(1 for _ in xs)", []),
    ("total = np.sum(xs) + xs.sum()", []),
])
def test_the_check_tells_float_sums_from_counts(source, lines):
    assert float_sums(ast.parse(source)) == lines


def test_no_builtin_float_sum_in_the_package():
    offending = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno in float_sums(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offending == []
