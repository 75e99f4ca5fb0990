"""Imports inside the package point one way, from later modules to earlier ones.

Each module may import only from modules before it in ``ORDER``, function
bodies included, so no import cycle can form and no function has to defer an
import to run time. ``__init__`` re-exports everything and is exempt. A second
test holds every tolerance in one table at the top of ``linalg``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qentropy"
ORDER = ["errors", "linalg", "ensembles", "entropy", "game", "inputs", "cli"]


def relative_imports(path: Path) -> list[str]:
    """The module named by each ``from .X import`` in the file, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_imports_point_to_earlier_modules():
    # A new module needs a place in ORDER before this test can pass.
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted([*ORDER, "__init__"])
    for k, module in enumerate(ORDER):
        for name in relative_imports(PACKAGE / f"{module}.py"):
            assert name in ORDER[:k], f"{module} imports .{name}, which is not before it in {ORDER}"


TOLERANCES = {
    "CONTRACT_TOL": 1e-9,
    "ROUNDING_SLACK": 1e-12,
    "NEGLIGIBLE_OFFDIAG": 1e-12,
    "RECONSTRUCTION_TOL": 1e-8,
    "GRID_SLACK": 1e-9,
    "SNAP_ULPS": 4,
}


def test_tolerances_live_in_one_table():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    table = [
        node
        for node in trees["linalg"].body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in TOLERANCES for t in node.targets)
    ]
    assert {node.targets[0].id: ast.literal_eval(node.value) for node in table} == TOLERANCES
    body = trees["linalg"].body
    assert body.index(table[-1]) - body.index(table[0]) == len(table) - 1, "the table is not one block"
    first, last = table[0].lineno, table[-1].end_lineno
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-3:
                in_table = module == "linalg" and first <= node.lineno <= last
                assert in_table, f"{module}.py:{node.lineno} holds the tolerance {node.value!r} outside the table"
    loads = (node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Name))
    unread = set(TOLERANCES) - {node.id for node in loads if isinstance(node.ctx, ast.Load)}
    assert not unread, f"no module reads {sorted(unread)}"
