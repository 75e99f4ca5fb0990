"""Imports inside the package point one way, from later modules to earlier ones.

Each module may import only from modules before it in ``ORDER``, function
bodies included, so no import cycle can form and no function has to defer an
import to run time. ``__init__`` re-exports everything and is exempt. A second
test holds every tolerance in one table at the top of ``linalg``, a third
keeps ``cli._print_columns`` the one writer of tables, a fourth keeps
``qentropy.__all__`` the one sorted list of what ``__init__`` imports, a
fifth keeps ``entropy._entropy_bits`` the one place that takes a logarithm,
and a sixth writes the CLI's real-number format once.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qentropy

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


def test_cli_writes_tables_in_one_place():
    # print() is for the few lines a command reports; whatever goes to sys.stdout.write or
    # writelines goes through _print_columns, so every table is written one way.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    writer = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_print_columns")

    def stdout_writes(root):
        return [
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write", "writelines")
            and ast.unparse(node.func.value) == "sys.stdout"
        ]

    inside = stdout_writes(writer)
    assert inside, "_print_columns no longer writes to sys.stdout"
    outside = sorted(set(stdout_writes(tree)) - set(inside))
    assert not outside, f"cli.py writes to sys.stdout outside _print_columns, at lines {outside}"


def test_cli_writes_the_cell_format_once():
    # Scalars (_fmt) and table cells (_column_cells) read one format, so they cannot drift apart.
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert source.count(".6g") == 1, "cli.py writes the six-digit format more than once, or not at all"
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    home = next(name for name, node in defs.items() if ".6g" in ast.get_source_segment(source, node))

    def reads_home(name, seen):
        # Whether the top-level name reaches the format's home through the module names it reads.
        seen.add(name)
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs}
        return home in names or any(reads_home(n, seen) for n in names - seen)

    for reader in ("_fmt", "_column_cells"):
        assert reader == home or reads_home(reader, set()), f"{reader} does not read the format in {home}"


def test_logarithms_live_in_the_entropy_kernel():
    # Which terms of an entropy count as zero is decided once, in _entropy_bits: no other
    # function takes a logarithm, by attribute (np.log2, math.log) or by imported name.
    logs = {"log", "log2", "log10", "log1p"}

    def log_sites(root):
        return [
            node
            for node in ast.walk(root)
            if (isinstance(node, ast.Attribute) and node.attr in logs)
            or (isinstance(node, ast.alias) and node.name in logs)
        ]

    tree = ast.parse((PACKAGE / "entropy.py").read_text(encoding="utf-8"))
    kernel = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_entropy_bits")
    inside = set(map(id, log_sites(kernel)))
    assert inside, "_entropy_bits no longer takes a logarithm"
    for path in sorted(PACKAGE.glob("*.py")):
        module = tree if path.stem == "entropy" else ast.parse(path.read_text(encoding="utf-8"))
        outside = [node.lineno for node in log_sites(module) if id(node) not in inside]
        assert not outside, f"{path.name} takes a logarithm outside entropy._entropy_bits, at lines {outside}"


def test_all_is_the_sorted_list_of_public_imports():
    # A removed name cannot leave a stale entry that breaks `from qentropy import *`.
    names = qentropy.__all__
    assert names == sorted(set(names)), "__all__ is not sorted, or lists a name twice"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert set(names) == {name for name in imported if not name.startswith("_")}
    exec("from qentropy import *", {})  # raises AttributeError for an entry that does not resolve
