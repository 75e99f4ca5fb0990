"""The benchmark tracer's hooks still resolve against the package.

`perfbench/tracer.py` names functions by module and attribute path and reads
two arguments by name. A rename in the package would break a traced run
without failing any other test, so the tracer is loaded here by path, unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name, module_name, attr", tracer.TRACED, ids=tracer.NAMES)
def test_traced_attribute_resolves(name, module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize(
    "module_name, function, parameter",
    [
        ("qentropy.linalg", "eig_hermitian", "op"),
        ("qentropy.ensembles", "enumerate_splits", "count"),
    ],
)
def test_detail_parameters_exist(module_name, function, parameter):
    fn = getattr(importlib.import_module(module_name), function)
    assert parameter in inspect.signature(fn).parameters
