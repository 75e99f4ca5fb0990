"""Imports inside the package point one way, from later modules to earlier ones.

Each module may import only from modules before it in ``ORDER``, function
bodies included, so no import cycle can form and no function has to defer an
import to run time. ``__init__`` re-exports everything and is exempt.
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
