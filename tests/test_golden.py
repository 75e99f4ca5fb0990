"""Byte-for-byte CLI snapshots: stdout, stderr and exit code of fixed argv.

Cases are every input document under each per-input subcommand, plus the
standalone commands below. ``golden/cases.json`` records each case's argv
and exit code; its output lives in ``golden/<name>.stdout`` and
``golden/<name>.stderr``.
Paths in the argv are relative to the repository root, where the commands
run. The snapshots record what the CLI printed when they were made, so a
refactor that changes any byte fails here. To rewrite them (only for an
output change that is named and explained), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "cases.json"

PER_INPUT = {
    "entropy": ["entropy"],
    "entropy-csv": ["entropy", "--csv"],
    "entropy-p2-0.5": ["entropy", "--p2", "0.5"],
    "decompose": ["decompose"],
    "decompose-csv-count-20": ["decompose", "--csv", "--count", "20"],
    "holevo": ["holevo"],
}

STANDALONE = {
    "table1": ["table1"],
    "sweep-figure-2": ["sweep", "--figure", "2"],
    "sweep-figure-2-step-0.03": ["sweep", "--figure", "2", "--step", "0.03"],
    "sweep-figure-3": ["sweep", "--figure", "3"],
    "sweep-figure-3-step-0.01": ["sweep", "--figure", "3", "--step", "0.01"],
    "sweep-figure-5": ["sweep", "--figure", "5"],
    "threshold": ["threshold"],
    "threshold-tol-1e-6-step-0.01": ["threshold", "--tol", "1e-6", "--step", "0.01"],
    "theorem-scan": ["theorem-scan"],
    "theorem-scan-step-0.1-u2-0.3": ["theorem-scan", "--step", "0.1", "--u2-step", "0.3"],
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from qentropy import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cases() -> dict[str, list[str]]:
    argvs = {}
    for path in sorted((ROOT / "inputs").glob("*.json")):
        rel = path.relative_to(ROOT).as_posix()
        for label, head in PER_INPUT.items():
            argvs[f"{label}--{path.stem}"] = head[:1] + ["--input", rel] + head[1:]
    argvs.update(STANDALONE)
    return argvs


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(CASES[name])
    manifest = json.loads(_read(MANIFEST))
    assert {"argv": CASES[name], "exit": code} == manifest[name]
    assert out == _read(GOLDEN / f"{name}.stdout")
    assert err == _read(GOLDEN / f"{name}.stderr")


def test_snapshots_are_exactly_the_cases():
    # An orphaned snapshot, of a case that no longer runs, would otherwise pass unseen.
    assert sorted(json.loads(_read(MANIFEST))) == sorted(CASES)
    files = {path.name for path in GOLDEN.iterdir()} - {MANIFEST.name}
    assert files == {f"{name}.{stream}" for name in CASES for stream in ("stdout", "stderr")}


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in CASES.items():
        code, out, err = run_cli(argv)
        _write(GOLDEN / f"{name}.stdout", out)
        _write(GOLDEN / f"{name}.stderr", err)
        manifest[name] = {"argv": argv, "exit": code}
    _write(MANIFEST, json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    os.chdir(ROOT)
    regenerate()
