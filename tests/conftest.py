from __future__ import annotations

import numpy as np
import pytest


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix via a Wishart-style construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


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
}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)
