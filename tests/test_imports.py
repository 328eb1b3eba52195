"""A command pays only for the imports it runs.

scipy is loaded inside the two functions that use it: the t-test's p-value
(``scipy.special``, reached by ``sweep``) and the constrained solver's
assignments (``scipy.optimize``). Every other command, and a bare
``import pufr.cli``, leaves scipy out of ``sys.modules``, and with it
``concurrent.futures`` (about 6 ms, mostly ``logging``): ``laplace`` draws on
a second thread with plain ``threading``, which numpy loads anyway. The
run-time checks run each command in a fresh interpreter; the source check
fails with ``file:line`` when a module-level third-party import comes back.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pufr

PACKAGE = Path(pufr.__file__).resolve().parent

CHILD = """
import json, sys
from pufr.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("scipy", "concurrent"))]))
"""


def lazy_modules_loaded_by(*argv: str) -> set[str]:
    """The scipy and ``concurrent`` modules a fresh interpreter holds after
    ``pufr <argv>``, which must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    code, modules = json.loads(child.stdout.splitlines()[-1])
    assert code == 0, child.stderr
    return set(modules)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """A tiny synth corpus (written by a child that must load no scipy), a
    Laplace feature and posterior file, and a three-doc query whose fairness
    floor the gain order misses, so the constrained solver must assign."""
    root = tmp_path_factory.mktemp("imports")
    assert lazy_modules_loaded_by(
        "synth", "--output", str(root / "fix"), "--queries", "4", "--candidates", "8",
        "--seed", "5",
    ) == set()
    (root / "features").write_text(
        "".join(f"q{q} q{q}-d{d} {0.1 * d} {0.2 * q} {0.3 * (d - q)}\n"
                for q in range(2) for d in range(3)),
        encoding="utf-8",
    )
    (root / "posterior").write_text("theta 3 0.5 -0.2 1.0\nfisher 3 2.0 1.0 4.0\n", encoding="utf-8")
    (root / "tilted.run").write_text("q1 Q0 a 1 3.0 t\nq1 Q0 b 2 2.0 t\nq1 Q0 c 3 1.0 t\n")
    (root / "tilted.neutrality").write_text("a 0.0\nb 0.0\nc 1.0\n")
    return root


def corpus_args(root: Path) -> list[str]:
    fix = root / "fix"
    return ["--run", str(fix / "fixture.run"), "--sigmas", str(fix / "fixture.sigma"),
            "--neutrality", str(fix / "fixture.neutrality")]


def test_bare_import_loads_no_scipy():
    assert lazy_modules_loaded_by() == set()


@pytest.mark.parametrize("method,alpha", [
    ("pufr", "1.0"), ("uniform", "1.0"), ("unfair", "0"), ("fastar", "0.7"),
])
def test_rerank_loads_no_scipy(fixture, method, alpha):
    assert lazy_modules_loaded_by(
        "rerank", *corpus_args(fixture), "--method", method, "--alpha", alpha,
        "--output", str(fixture / f"{method}.run"),
    ) == set()


def test_intervals_loads_no_scipy(fixture):
    fix = fixture / "fix"
    assert lazy_modules_loaded_by(
        "intervals", "--run", str(fix / "fixture.run"), "--sigmas", str(fix / "fixture.sigma"),
        "--alpha-grid", "0.5,1", "--output", str(fixture / "intervals.csv"),
    ) == set()


def test_laplace_loads_no_scipy(fixture):
    assert lazy_modules_loaded_by(
        "laplace", "--features", str(fixture / "features"),
        "--posterior", str(fixture / "posterior"), "--mc-samples", "50",
        "--output", str(fixture / "laplace.run"), "--sigma-output", str(fixture / "laplace.sigma"),
    ) == set()


def test_sweep_loads_scipy_special_but_not_scipy_stats(fixture):
    # uniform is tested against PUFR at each alpha, so the differences are
    # not all zero and the p-value is computed
    loaded = lazy_modules_loaded_by(
        "sweep", *corpus_args(fixture), "--qrels", str(fixture / "fix" / "fixture.qrels"),
        "--method", "uniform", "--alpha-grid", "0.5,1", "--output", str(fixture / "sweep.csv"),
    )
    assert "scipy.special" in loaded
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in loaded)


def test_constrained_rerank_loads_scipy_optimize(fixture):
    out = fixture / "constrained.run"
    loaded = lazy_modules_loaded_by(
        "rerank", "--run", str(fixture / "tilted.run"),
        "--neutrality", str(fixture / "tilted.neutrality"), "--method", "constrained",
        "--alpha", "0.9", "--depth", "3", "--output", str(out),
    )
    assert "scipy.optimize" in loaded
    assert [line.split()[2] for line in out.read_text().splitlines()] == ["c", "a", "b"]


def module_scope_imports(tree: ast.Module):
    """Import statements that run when the module is imported: everything
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_module_scope_imports_are_stdlib_numpy_or_pufr():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pufr"}
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in module_scope_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                continue  # relative: inside pufr
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            offending += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] not in allowed]
    assert offending == []
