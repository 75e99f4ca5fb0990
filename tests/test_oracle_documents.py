"""Random documents through the CLI, checked by the benchmark's independent oracle.

``perfbench/oracle.py`` recomputes what ``entropy``, ``decompose`` and
``holevo`` print from the input document alone, with numpy and closed forms
and no import of qentropy. It is loaded here by path, unchanged, as
``tests/test_trace_hooks.py`` loads the tracer. Hypothesis writes density,
pure and ensemble documents of dimension 2 to 8: complex entries, rank-1
states and near-diagonal densities whose off-diagonals straddle the
negligible threshold. It also writes qubit-spec documents, which run under
``entropy --p2`` as well. Each command runs in process, and the oracle's
check of its stdout must report no problem.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qentropy import cli

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


@st.composite
def complex_vectors(draw, dim: int) -> np.ndarray:
    """A complex vector of unit norm."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
    v = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


@st.composite
def density_matrices(draw, dim: int) -> np.ndarray:
    """A full-rank, rank-1 or near-diagonal density matrix, exactly Hermitian."""
    kind = draw(st.sampled_from(["full", "rank-1", "near-diagonal"]))
    if kind == "rank-1":
        v = draw(complex_vectors(dim))
        m = np.outer(v, v.conj())
    else:
        g = np.array([draw(complex_vectors(dim)) for _ in range(dim)])
        m = g @ g.conj().T / dim
        if kind == "near-diagonal":
            p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
            assume(p.sum() > 1e-3)
            t = draw(st.sampled_from([1e-14, 1e-12, 1e-10, 1e-7, 1e-4]))
            m = (1.0 - t) * np.diag(p / p.sum()) + t * m
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def density_document(m: np.ndarray) -> dict:
    return {"kind": "density", "re": m.real.tolist(), "im": m.imag.tolist()}


def pure_document(v: np.ndarray) -> dict:
    return {"kind": "pure", "re": v.real.tolist(), "im": v.imag.tolist()}


@st.composite
def ensemble_documents(draw) -> dict:
    dim = draw(st.integers(2, 8))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
    components = []
    for weight in (weights / weights.sum()).tolist():
        if draw(st.booleans()):
            components.append({"weight": weight, "pure": pure_document(draw(complex_vectors(dim)))})
        else:
            components.append({"weight": weight, "density": density_document(draw(density_matrices(dim)))})
    return {"kind": "ensemble", "components": components}


def run(tmp_path: Path, doc: dict, *argv: str) -> dict:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "--input", str(path), *argv[1:]])
    assert code == 0, err.getvalue()
    return {"out": out.getvalue()}


def assert_entropy_agrees(tmp_path: Path, doc: dict) -> None:
    assert oracle.check_entropy(doc, run(tmp_path, doc, "entropy")) == []
    assert oracle.check_entropy(doc, run(tmp_path, doc, "entropy", "--csv"), csv=True) == []


@SETTINGS
@given(st.integers(2, 8).flatmap(density_matrices), st.integers(1, 8))
def test_density_documents(tmp_path, m, count):
    doc = density_document(m)
    assert_entropy_agrees(tmp_path, doc)
    if m.shape[0] == 2:
        response = run(tmp_path, doc, "decompose", "--count", str(count))
        assert oracle.check_decompose(doc, response, count=count) == []


@SETTINGS
@given(st.integers(2, 8).flatmap(complex_vectors))
def test_pure_documents(tmp_path, v):
    assert_entropy_agrees(tmp_path, pure_document(v))


@SETTINGS
@given(ensemble_documents())
def test_ensemble_documents(tmp_path, doc):
    assert_entropy_agrees(tmp_path, doc)
    assert oracle.check_holevo(doc, run(tmp_path, doc, "holevo")) == []


@st.composite
def qubit_spec_documents(draw) -> dict:
    """Three-preparation weights (all three, p0 = p1 = 0 or p2 = 0) and u^2 in [0, 1], edges included."""
    shape = draw(st.sampled_from(["three", "pure only", "no pure"]))
    p0 = 0.0 if shape == "pure only" else draw(st.floats(0.0, 1.0))
    p1 = 0.0 if shape == "pure only" else 1.0 - p0 if shape == "no pure" else draw(st.floats(0.0, 1.0 - p0))
    u2 = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return {"kind": "qubit-spec", "p0": p0, "p1": p1, "p2": max(1.0 - p0 - p1, 0.0), "u2": u2}


def heavy_lower_p2(m: np.ndarray, fractions: list[float]) -> float | None:
    """The first of the pure weights 2|a| + f (1 - 2|a|) whose |0>-heavy member keeps both mixed
    diagonal entries 1e-3 above zero: the only branch ``oracle.family_split`` models. None if none does."""
    x, y, r = float(m[0, 0].real), float(m[1, 1].real), float(abs(m[0, 1]))
    if r <= oracle.NEGLIGIBLE_OFFDIAG:
        return 0.1 + 0.8 * fractions[0]
    for f in fractions:
        p2 = 2.0 * r + f * (1.0 - 2.0 * r)
        u2 = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - (2.0 * r / p2) ** 2)))
        if min(x - p2 * u2, y - p2 * (1.0 - u2)) > 1e-3:
            return p2
    return None


@SETTINGS
@given(qubit_spec_documents(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_qubit_spec_documents(tmp_path, doc, fractions):
    assert_entropy_agrees(tmp_path, doc)
    p2 = heavy_lower_p2(oracle.document_operator(doc), fractions)
    if p2 is not None:
        response = run(tmp_path, doc, "entropy", "--p2", repr(p2))
        assert oracle.check_entropy(doc, response, p2=p2) == []
