"""Seeded request streams for the three benchmark workloads.

Every input comes from ``numpy.random.default_rng(seed)``; the program only
sees the generated documents (written to the run's temporary directory,
never to ``inputs/``) and the argument lists. Each request carries its own
oracle check, bound to the reference data it was generated from.

Valid operators are built as G G^H / tr(G G^H) from a complex Gaussian G,
so they are Hermitian, unit-trace and positive semidefinite by
construction. No request is meant to fail: every argument and document is
one the CLI accepts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oracle


@dataclass(frozen=True)
class Request:
    label: str
    payload: dict  # {"argv": [...]} for the CLI, {"bundle": {...}} for library calls
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool  # False: each request is a fresh CLI process
    stream: Callable[[np.random.Generator, "DocumentWriter", Path], Iterator[Request]]


class DocumentWriter:
    """Writes generated JSON documents to the run's temporary directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"doc-{self.count}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _parts(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def density_doc(m: np.ndarray) -> dict:
    return {"kind": "density", "dim": int(m.shape[0]), **_parts(m)}


def _valid_p2(rng: np.random.Generator, m: np.ndarray) -> float | None:
    """A pure weight for which `entropy --p2` has a heavy-on-|0> split.

    Both mixed diagonal entries are kept at least 1e-3 above zero, well
    clear of the program's validity tolerance.
    """
    x, y, r = float(m[0, 0].real), float(m[1, 1].real), float(abs(m[0, 1]))
    if r <= oracle.NEGLIGIBLE_OFFDIAG:
        return float(rng.uniform(0.1, 0.9))
    for _ in range(200):
        p2 = float(rng.uniform(2.0 * r, 1.0))
        u2 = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - (2.0 * r / p2) ** 2)))
        if min(x - p2 * u2, y - p2 * (1.0 - u2)) > 1e-3:
            return p2
    return None


# ------------------------------------------------------------- cli-oneshot
# What a desk user pays per command: a fresh interpreter, the numpy import,
# argument parsing, the JSON read and a small computation. Compute is under
# 5% of each request, so kernel work should leave this workload unchanged,
# while anything moved into import or module set-up shows here. Inputs are
# the committed documents (minus the two game documents, which no one-state
# subcommand accepts) plus generated densities at d = 2..4, ensembles and
# qubit-specs, so every document kind goes through `inputs`.

def _committed(inputs_dir: Path) -> list[tuple[str, dict]]:
    docs = []
    for path in sorted(inputs_dir.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("kind") != "game":
            docs.append((str(path), doc))
    return docs


def _generated(rng: np.random.Generator, writer: DocumentWriter) -> list[tuple[str, dict]]:
    docs = [density_doc(random_density(rng, d, rank)) for d in (2, 3, 4) for rank in (1, d)]
    docs.append({"kind": "ensemble", "components": [
        {"weight": 0.35, "pure": {"re": [0.6, 0.8]}},
        {"weight": 0.65, "density": _parts(random_density(rng, 2))},
    ]})
    w = rng.dirichlet(np.ones(3))
    docs.append({"kind": "ensemble", "components": [
        {"weight": float(w[0]), "density": _parts(random_density(rng, 3))},
        {"weight": float(w[1]), "density": _parts(random_density(rng, 3, 1))},
        {"weight": float(1.0 - w[0] - w[1]), "density": _parts(random_density(rng, 3))},
    ]})
    for _ in range(2):
        p = rng.dirichlet(np.ones(3))
        docs.append({"kind": "qubit-spec", "p0": float(p[0]), "p1": float(p[1]),
                     "p2": float(1.0 - p[0] - p[1]), "u2": float(rng.uniform(0.05, 0.95))})
    return [(writer.write(doc), doc) for doc in docs]


def cli_oneshot(rng, writer, inputs_dir) -> Iterator[Request]:
    docs = _committed(inputs_dir) + _generated(rng, writer)
    qubits = [(p, d) for p, d in docs if d["kind"] == "density" and len(d["re"]) == 2]
    ensembles = [(p, d) for p, d in docs if d["kind"] == "ensemble"]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    while True:
        path, doc = pick(docs)
        yield Request(f"entropy {Path(path).name}", {"argv": ["entropy", "--input", path]},
                      partial(oracle.check_entropy, doc))
        path, doc = pick(docs)
        yield Request(f"entropy --csv {Path(path).name}",
                      {"argv": ["entropy", "--csv", "--input", path]},
                      partial(oracle.check_entropy, doc, csv=True))
        while True:
            path, doc = pick(qubits)
            p2 = _valid_p2(rng, oracle.document_operator(doc))
            if p2 is not None:
                break
        yield Request(f"entropy --p2 {Path(path).name}",
                      {"argv": ["entropy", "--p2", repr(p2), "--input", path]},
                      partial(oracle.check_entropy, doc, p2=p2))
        path, doc = pick(qubits)
        yield Request(f"decompose {Path(path).name}", {"argv": ["decompose", "--input", path]},
                      partial(oracle.check_decompose, doc, count=5))
        path, doc = pick(ensembles)
        yield Request(f"holevo {Path(path).name}", {"argv": ["holevo", "--input", path]},
                      partial(oracle.check_holevo, doc))
        yield Request("table1", {"argv": ["table1"]}, oracle.check_table1)
        for figure, step in ((2, 0.05), (3, 0.05), (5, 0.01)):
            yield Request(f"sweep --figure {figure}", {"argv": ["sweep", "--figure", str(figure)]},
                          partial(oracle.check_sweep, figure, step))
        yield Request("threshold", {"argv": ["threshold"]}, partial(oracle.check_threshold, 1e-9))


# -------------------------------------------------------------- qubit-scan
# Thousands of tiny d = 2 operators in one call: per-call overhead in
# `linalg`, `entropy` and `ensembles` plus ~2.5k formatted CSV rows in `cli`
# are the whole cost. This is where spectrum reuse, closed-form qubit
# spectra, batched kernels and streamed rows act; no operator exceeds 2x2.
# Every grid has 2.4k to 2.7k points and each cycle runs every grid once in
# a seeded order, so the per-request median is the default grid's cost
# whatever the seed.
SCAN_GRIDS = ((0.05, 0.1), (0.0625, 0.0625), (0.045, 0.125), (0.08, 0.04), (0.1, 0.025))


def qubit_scan(rng, writer, inputs_dir) -> Iterator[Request]:
    while True:
        for k in rng.permutation(len(SCAN_GRIDS)):
            p_step, u2_step = SCAN_GRIDS[k]
            argv = ["theorem-scan", "--step", repr(p_step), "--u2-step", repr(u2_step)]
            yield Request(f"theorem-scan {p_step} {u2_step}", {"argv": argv},
                          partial(oracle.check_scan, p_step, u2_step))


# ----------------------------------------------------------- qudit-spectra
# A few large operators: the Jacobi arithmetic and the re-validation of
# derived operators (mix, kron, partial_trace) dominate. Batched qubit
# kernels do no work here, so an eigensolve route that helps qubit-scan but
# costs large d shows up as a regression on this workload.
QUDIT_DIMS = (2, 4, 8, 16, 32)
JOINT_DIMS = (4, 8)


def qudit_bundle(rng: np.random.Generator) -> dict:
    weights = rng.dirichlet(np.ones(4))
    return {
        "spectra": [_parts(random_density(rng, d)) for d in QUDIT_DIMS],
        "joint": _parts(random_density(rng, JOINT_DIMS[0] * JOINT_DIMS[1])),
        "joint_dims": list(JOINT_DIMS),
        # kron of the d = 2 and d = 8 operators: a d = 16 product.
        "kron_factors": [0, 2],
        "components": [_parts(random_density(rng, 8)) for _ in range(4)],
        "weights": [float(w) for w in weights[:3]] + [float(1.0 - weights[:3].sum())],
    }


def qudit_spectra(rng, writer, inputs_dir) -> Iterator[Request]:
    while True:
        bundle = qudit_bundle(rng)
        yield Request("qudit bundle", {"bundle": bundle}, partial(oracle.check_bundle, bundle))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-oneshot", False, cli_oneshot),
        Workload("qubit-scan", True, qubit_scan),
        Workload("qudit-spectra", True, qudit_spectra),
    )
}
