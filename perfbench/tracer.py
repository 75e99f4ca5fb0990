"""Spans around the package's public functions, for the traced pass.

`install` wraps each function in ``TRACED`` from outside the package: the
wrapper replaces the original at every module attribute that binds it,
because ``from .linalg import eig_hermitian`` copies the name into the
importing module. The two validated containers are hooked through
``__post_init__``, which their dataclass ``__init__`` calls. Spans (name,
parent span, request, start, end and two integer details) stay in memory
and are written to one ``.npy`` file when the traced process ends.

`layer_metrics` turns spans into per-request calls and self times; a span's
self time is its duration minus the durations of its direct child spans.
Nothing here is imported by untraced workers.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

import numpy as np

# (metric name, module, attribute path). The metric name's first part is the
# layer: the module the function lives in.
TRACED = (
    ("inputs.load_document", "qentropy.inputs", "load_document"),
    ("linalg.DensityOperator", "qentropy.linalg", "DensityOperator.__post_init__"),
    ("linalg.PureState", "qentropy.linalg", "PureState.__post_init__"),
    ("linalg.make_density", "qentropy.linalg", "make_density"),
    ("linalg.eig_hermitian", "qentropy.linalg", "eig_hermitian"),
    ("linalg.mix", "qentropy.linalg", "mix"),
    ("linalg.kron", "qentropy.linalg", "kron"),
    ("linalg.partial_trace", "qentropy.linalg", "partial_trace"),
    ("linalg.outer_product", "qentropy.linalg", "outer_product"),
    ("ensembles.assemble", "qentropy.ensembles", "assemble"),
    ("ensembles.assemble_general", "qentropy.ensembles", "assemble_general"),
    ("ensembles.split_family", "qentropy.ensembles", "split_family"),
    ("ensembles.symmetric_split", "qentropy.ensembles", "symmetric_split"),
    ("ensembles.enumerate_splits", "qentropy.ensembles", "enumerate_splits"),
    ("ensembles.MixedPureSplit.reconstruct", "qentropy.ensembles", "MixedPureSplit.reconstruct"),
    ("entropy.shannon", "qentropy.entropy", "shannon"),
    ("entropy.von_neumann", "qentropy.entropy", "von_neumann"),
    ("entropy.informational", "qentropy.entropy", "informational"),
    ("entropy.composite", "qentropy.entropy", "composite"),
    ("entropy.report", "qentropy.entropy", "report"),
    ("entropy.holevo_quantity", "qentropy.entropy", "holevo_quantity"),
    ("entropy.ordering_scan", "qentropy.entropy", "ordering_scan"),
    ("game.entropy_gain", "qentropy.game", "entropy_gain"),
    ("game.threshold_roots", "qentropy.game", "threshold_roots"),
    ("game.sweep_game", "qentropy.game", "sweep_game"),
    ("cli.main", "qentropy.cli", "main"),
)
NAMES = tuple(name for name, _, _ in TRACED)
CALLS_ONLY = ("linalg.PureState",)
EIG_DIMS = (2, 4, 8, 16, 32)


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


# Integer details kept per span: `before` sees the arguments, `after` the
# result. The eigensolve records the dimension; split enumeration records
# samples requested and splits returned.
DETAILS = {
    "linalg.eig_hermitian": (lambda a, k: _first_arg(a, k, "op").dim, None),
    "ensembles.enumerate_splits": (
        lambda a, k: int(a[1] if len(a) > 1 else k["count"]),
        len,
    ),
}


COLUMNS = ("name", "parent", "request", "start", "end", "aux", "aux2")


class Recorder:
    """Span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.request = -1  # -1 marks warm-up spans, left out of the metrics
        self.columns = {k: [] for k in COLUMNS}
        self._stack = [-1]

    def wrap(self, index: int, fn, before=None, after=None):
        c = self.columns
        name, parent, request = c["name"], c["parent"], c["request"]
        start, end, aux, aux2 = c["start"], c["end"], c["aux"], c["aux2"]
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(index)
            parent.append(stack[-1])
            request.append(self.request)
            aux.append(before(args, kwargs) if before else 0)
            aux2.append(0)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                start[sid] = t0
                stack.pop()
            if after:
                aux2[sid] = after(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        np.save(path, np.array([self.columns[k] for k in COLUMNS], dtype=np.int64))


def install() -> Recorder:
    """Wrap every traced function at every site that binds it."""
    recorder = Recorder()
    for index, (name, module_name, attr) in enumerate(TRACED):
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            setattr(owner, method, recorder.wrap(index, original))
            continue
        original = getattr(module, attr)
        before, after = DETAILS.get(name, (None, None))
        wrapped = recorder.wrap(index, original, before, after)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "qentropy":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    return recorder


def load(paths) -> dict[str, np.ndarray]:
    """Concatenate span files, shifting parent ids to stay within each file."""
    parts = []
    offset = 0
    for path in paths:
        spans = dict(zip(COLUMNS, np.load(path)))
        spans["parent"] = np.where(spans["parent"] >= 0, spans["parent"] + offset, -1)
        offset += spans["name"].size
        parts.append(spans)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    units = []
    for name in NAMES:
        units.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            units.append((f"{name}.self_ms", "ms"))
    units += [(f"linalg.eig_hermitian.self_ms.d{d}", "ms") for d in EIG_DIMS]
    units += [
        ("linalg.eigensolves_per_entropy", "ratio"),
        ("ensembles.enumerate_splits.yield", "ratio"),
        ("game.threshold_roots.gain_evals", "count"),
        ("cli.stdout_bytes", "bytes"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, np.ndarray], requests: int) -> dict[str, float]:
    """Per-request calls and self times, plus the derived per-layer ratios.

    Ratios whose denominator never occurs in the workload are reported as 0.
    The two caller-supplied metrics (stdout bytes, overhead) are not set here.
    """
    name, parent = spans["name"], spans["parent"]
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=name.size)
    self_ms = (duration - child) / 1e6
    timed = spans["request"] >= 0

    metrics: dict[str, float] = {}
    calls = {}
    for index, label in enumerate(NAMES):
        mask = timed & (name == index)
        calls[label] = int(mask.sum())
        metrics[f"{label}.calls"] = calls[label] / requests
        if label not in CALLS_ONLY:
            metrics[f"{label}.self_ms"] = float(self_ms[mask].sum()) / requests
    eig = timed & (name == NAMES.index("linalg.eig_hermitian"))
    for d in EIG_DIMS:
        metrics[f"linalg.eig_hermitian.self_ms.d{d}"] = (
            float(self_ms[eig & (spans["aux"] == d)].sum()) / requests
        )
    metrics["linalg.eigensolves_per_entropy"] = _ratio(
        calls["linalg.DensityOperator"] + calls["linalg.eig_hermitian"], calls["entropy.von_neumann"]
    )
    enum = timed & (name == NAMES.index("ensembles.enumerate_splits"))
    metrics["ensembles.enumerate_splits.yield"] = _ratio(
        float(spans["aux2"][enum].sum()), float(spans["aux"][enum].sum())
    )
    threshold = NAMES.index("game.threshold_roots")
    gains = timed & (name == NAMES.index("game.entropy_gain")) & has_parent
    inside = gains.copy()
    inside[gains] = name[parent[gains]] == threshold
    metrics["game.threshold_roots.gain_evals"] = _ratio(
        float(inside.sum()), calls["game.threshold_roots"]
    )
    return metrics
