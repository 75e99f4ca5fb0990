from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

import qentropy as q


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix via a Wishart-style construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def three_preparation_ensemble(spec) -> q.Ensemble:
    """A QubitEnsembleSpec's three preparations, |0>, |1> and (u, v), as a general Ensemble."""
    states = (q.PureState(np.array([1.0, 0.0])), q.PureState(np.array([0.0, 1.0])), spec.superposed())
    return q.Ensemble(tuple(map(q.EnsembleComponent, (spec.p0, spec.p1, spec.p2), states)))


def random_pure_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.sqrt(np.sum(np.abs(v) ** 2))


# Files that must fail as ValidationError (CLI exit 2), not escape as an
# OverflowError, RecursionError, UnicodeDecodeError or ValueError.
_HUGE = "1" + "0" * 400
MALFORMED_FILES = {
    "huge-int-p0": f'{{"kind": "qubit-spec", "p0": {_HUGE}, "p1": 0, "p2": 0, "u2": 0.5}}'.encode(),
    "huge-int-re": f'{{"kind": "density", "re": [[{_HUGE}, 0], [0, 0]]}}'.encode(),
    "int-past-digit-limit": ('{"kind": "density", "re": [[' + "1" * 5000 + ", 0], [0, 0]]}").encode(),
    "nested-100k-deep": b'{"kind": "density", "re": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "utf16-bom": b"\xff\xfe{\x00}\x00",
    # Python's json reads NaN and Infinity as floats; the matrix check rejects them.
    "nan-entry": b'{"kind": "density", "re": [[NaN, 0], [0, 1]]}',
    "infinity-entry": b'{"kind": "density", "re": [[Infinity, 0], [0, 1]]}',
}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


# Qubit densities at the edges of the one-pure family, as raw matrices.
QUBIT_EDGE_CASES = {
    "maximally-mixed": [[0.5, 0.0], [0.0, 0.5]],
    "offdiag-just-below-negligible": [[0.6, math.nextafter(1e-12, 0.0)], [math.nextafter(1e-12, 0.0), 0.4]],
    "offdiag-at-negligible": [[0.6, 1e-12], [1e-12, 0.4]],
    "offdiag-just-above-negligible": [[0.6, math.nextafter(1e-12, 1.0)], [math.nextafter(1e-12, 1.0), 0.4]],
    # rank 1: the top of the pure-weight range leaves mixed weight 0
    "real-projector": [[0.64, 0.48], [0.48, 0.36]],
    "complex-projector": [[0.36, -0.48j], [0.48j, 0.64]],
    # |a| above the smaller diagonal entry: no split at p2 = 2|a|, the one point of --count 1
    "no-split-at-lowest-weight": [[0.9, 0.2], [0.2, 0.1]],
    # y = -0.0 through the JSON loader too (its im entry is -0.0): some mixed diagonals clamp to 0
    "negative-zero-diagonal": [[1.0, 1e-9], [1e-9, complex(-0.0, -0.0)]],
}


@st.composite
def qubit_density_matrices(draw) -> np.ndarray:
    """Qubit densities from a Bloch vector: complex, real positive or real negative
    off-diagonals, rank 2 inside the ball and rank 1 on its surface."""
    theta = draw(st.floats(0.0, math.pi))
    length = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0))
    z, transverse = length * math.cos(theta), length * math.sin(theta)
    kind = draw(st.sampled_from(["complex", "real-positive", "real-negative"]))
    if kind == "complex":
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        a = complex(0.5 * transverse * math.cos(phi), -0.5 * transverse * math.sin(phi))
    else:
        a = complex(0.5 * transverse if kind == "real-positive" else -0.5 * transverse, 0.0)
    return np.array([[0.5 * (1.0 + z), a], [a.conjugate(), 0.5 * (1.0 - z)]])
