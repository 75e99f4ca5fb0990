"""Quick checks of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

Run from the repository root. The smoke test runs every workload for about
a second in both modes; the oracle test feeds each check the program's real
output, then a perturbed copy, and requires the perturbed copy to count as
a failure.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_listed_workloads_exist():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    lines, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in expected:
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']} (n=" in line
                   for line in lines), metric["name"]
    assert any(line.startswith("fail_ratio = 0 ratio") for line in lines)


def test_refuses_a_directory_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "qubit-scan", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0 and done.stdout == ""


NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]\d+)?(?![\w.])")


def perturb_text(text: str) -> str:
    """Shift every number by 0.1% plus 1e-3, far beyond printing error."""
    return NUMBER.sub(lambda m: repr(float(m.group()) * 1.001 + 1e-3), text)


def perturb(response: dict) -> dict:
    bad = copy.deepcopy(response)
    if bad["result"] is not None:
        bad["result"] = {k: (np.asarray(v) * 1.001 + 1e-3).tolist()
                         for k, v in bad["result"].items()}
    else:
        bad["out"] = perturb_text(bad["out"])
    return bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_counts_perturbed_output_as_failed(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    count = 2 if workload == "qubit-scan" else 10
    stream = spec.stream(np.random.default_rng(7), workloads.DocumentWriter(str(tmp_path)),
                         ROOT / "inputs")
    requests = [next(stream) for _ in range(count)]
    client = run.open_client(spec, run.worker_env(ROOT), tmp_path, run.Deadline(120))
    exchanges = [(r, client.call(k, r.payload)) for k, r in enumerate(requests)]
    client.close()
    assert run.verify(exchanges, "") == []
    perturbed = [(r, perturb(response)) for r, response in exchanges]
    assert len(run.verify(perturbed, "")) == len(exchanges)


def test_oracle_catches_one_wrong_entropy(tmp_path):
    path = ROOT / "inputs" / "mixed_qubit.json"
    doc = json.loads(path.read_text())
    good = run.OneShot(run.worker_env(ROOT), tmp_path, run.Deadline(60)).call(
        0, {"argv": ["entropy", "--input", str(path)]})
    request = workloads.Request("entropy", {}, partial(oracle.check_entropy, doc))
    assert run.verify([(request, good)], "") == []
    line = next(x for x in good["out"].splitlines() if x.startswith("s_n = "))
    value = float(line.split(" = ")[1])
    bad = dict(good, out=good["out"].replace(line, f"s_n = {value * (1 + 1e-4):.6g}"))
    assert len(run.verify([(request, bad)], "")) == 1
