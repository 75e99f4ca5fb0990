"""qentropy benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: cli-oneshot, qubit-scan and
qudit-spectra (see workloads.py for what each one stresses).

Load comes from one closed-loop client: run.py sends the next request
only after the previous one has answered, to at most one worker process at
a time. For cli-oneshot each request is a fresh ``python -m qentropy.cli``;
the others keep one worker that calls the package in-process. Workers run
with PYTHONPATH=src and BLAS/OpenMP threads pinned to 1.

--trace 0 prints the end-to-end metrics: set-up time of a fresh worker,
median request latency, requests per second and the worker's peak RSS.
--trace 1 runs the same requests untraced and traced, in separate workers,
and prints per-layer calls and self times per request together with the
tracing overhead. Every response is checked against the independent
references in oracle.py; a request fails if it exits non-zero, writes a
traceback, raises, or disagrees with its reference.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. The lines before it repeat every metric with its unit
and sample count, and record the run's machine and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is timed this many times per run, after one discarded spawn that
# compiles the package's .pyc files; the median is reported. The spawns are
# spread over the measured requests, so they see the same machine speed as
# the requests do rather than that of the run's first seconds.
SETUP_SPAWNS = 21
# A percentile is reported only when at least ten samples lie beyond it.
# Not every run reaches that, and the result line must carry the same
# metrics on every run, so the p90 goes to the printed lines only.
P90_MIN_SAMPLES = 100
PRINTED_ONLY = ("latency_p90_ms",)
# Hard stop for any child, so a run always ends well inside 180 s.
RUN_LIMIT_S = 170.0


class Deadline:
    """Kills a child that is still running when the run's time is up."""

    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def guard(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(max(self.at - time.monotonic(), 0.0), proc.kill)
        timer.daemon = True
        timer.start()
        return timer


def reap(proc: subprocess.Popen) -> int:
    """Wait for a child and return its peak RSS in KiB (getrusage via wait4)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


class Worker:
    """One in-process worker answering JSON-line requests."""

    def __init__(self, env, scratch: Path, deadline: Deadline, spans: str | None = None):
        cmd = [sys.executable, str(WORKER), "serve"] + ([spans] if spans else [])
        self.stderr = open(scratch / f"worker-{time.monotonic_ns()}.err", "w+")
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        self.timer = deadline.guard(self.proc)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("worker did not start")

    def call(self, request_id: int, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps({"id": request_id, **payload}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            return {"code": None, "out": "", "err": "worker exited", "ms": 0.0, "result": None}
        return json.loads(line)

    def close(self) -> tuple[int, str]:
        self.proc.stdin.close()
        rss = reap(self.proc)
        self.timer.cancel()
        self.proc.stdout.close()
        self.stderr.seek(0)
        text = self.stderr.read()
        self.stderr.close()
        return rss, text


class OneShot:
    """A fresh CLI process per request, untraced or through the tracer."""

    def __init__(self, env, scratch: Path, deadline: Deadline, spans: str | None = None):
        self.env, self.scratch, self.deadline, self.spans = env, scratch, deadline, spans
        self.peak_rss = 0
        self.span_files: list[str] = []

    def call(self, request_id: int, payload: dict) -> dict:
        if self.spans:
            spans = f"{self.spans}-{request_id}.npy"
            self.span_files.append(spans)
            cmd = [sys.executable, str(WORKER), "oneshot", spans, "--", *payload["argv"]]
        else:
            cmd = [sys.executable, "-m", "qentropy.cli", *payload["argv"]]
        with tempfile.TemporaryFile("w+", dir=self.scratch) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            timer = self.deadline.guard(proc)
            out = proc.stdout.read()
            rss = reap(proc)
            ms = (time.perf_counter() - t0) * 1e3
            timer.cancel()
            proc.stdout.close()
            err.seek(0)
            err_text = err.read()
        self.peak_rss = max(self.peak_rss, rss)
        return {"code": proc.returncode, "out": out, "err": err_text, "ms": ms, "result": None}

    def close(self) -> tuple[int, str]:
        return self.peak_rss, ""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn_ready(env, deadline: Deadline) -> float:
    """Seconds from spawn until a fresh worker has imported qentropy.cli."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "ready"], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    timer = deadline.guard(proc)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    reap(proc)
    timer.cancel()
    proc.stdout.close()
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError("set-up worker failed to import qentropy.cli")
    return elapsed


def problems_of(request: workloads.Request, response: dict) -> list[str]:
    if response["code"] != 0:
        return [f"exit code {response['code']}: {response['err'].strip()[-300:]}"]
    if "Traceback (most recent call last)" in response["err"]:
        return ["traceback on stderr"]
    try:
        return request.check(response)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unparseable output ({type(exc).__name__}: {exc})"]


def verify(exchanges, worker_err: str) -> list[str]:
    """Check every response; return one line per failed request."""
    failures = []
    for request, response in exchanges:
        problems = problems_of(request, response)
        if problems:
            failures.append(f"{request.label}: {'; '.join(problems[:3])}")
    if "Traceback (most recent call last)" in worker_err:
        failures.append(f"worker wrote a traceback: {worker_err.strip()[-300:]}")
    return failures


def drive(client, stream, seconds: float | None, replay=None, between=None):
    """Closed loop: send requests one at a time until time or the replay ends.

    Returns the exchanges and the time spent waiting on the program; the
    client's own work between requests (generating inputs, and `between`,
    called with the busy time so far after each request) is not counted.
    """
    exchanges = []
    busy = 0.0
    for request in (replay if replay is not None else stream):
        if replay is None and exchanges and busy >= seconds:
            break
        t0 = time.perf_counter()
        response = client.call(len(exchanges), request.payload)
        busy += time.perf_counter() - t0
        exchanges.append((request, response))
        if between is not None:
            between(busy)
    return exchanges, busy


def open_client(workload, env, scratch, deadline, spans=None, warmup=None):
    if not workload.in_process:
        return OneShot(env, scratch, deadline, spans)
    worker = Worker(env, scratch, deadline, spans)
    if warmup is not None:  # first-call lazy set-up is not part of a request
        worker.call(-1, warmup.payload)
    return worker


def end_to_end(workload, stream, env, scratch, deadline, seconds):
    spawn_ready(env, deadline)  # compiles the package's .pyc files; discarded
    setup: list[float] = []

    def spawn_due(busy: float) -> None:
        while len(setup) < SETUP_SPAWNS * min(busy / seconds, 1.0):
            setup.append(spawn_ready(env, deadline))

    warmup = next(stream) if workload.in_process else None
    client = open_client(workload, env, scratch, deadline, warmup=warmup)
    exchanges, busy = drive(client, stream, seconds, between=spawn_due)
    rss_kb, worker_err = client.close()
    while len(setup) < SETUP_SPAWNS:
        setup.append(spawn_ready(env, deadline))
    latencies = [response["ms"] for _, response in exchanges]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "latency_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "throughput_rps": (len(exchanges) / busy, "1/s", len(exchanges)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        metrics["latency_p90_ms"] = (float(np.percentile(latencies, 90)), "ms", len(latencies))
    return metrics, exchanges, verify(exchanges, worker_err)


def traced(workload, stream, env, scratch, deadline, seconds):
    """Per-layer metrics, and tracing overhead over the same requests.

    The first half of the requests runs untraced, then both halves run in one
    traced worker, then the second half runs untraced again. This ABBA order
    cancels a steady drift in machine speed out of the overhead ratio.
    """
    warmup = next(stream) if workload.in_process else None

    def untraced(replay=None):
        client = open_client(workload, env, scratch, deadline, warmup=warmup)
        exchanges, _ = drive(client, stream, seconds / 4, replay)
        return exchanges, client.close()[1]

    first, first_err = untraced()
    requests = [request for request, _ in first]
    requests += list(itertools.islice(stream, len(requests)))
    spans = str(scratch / "spans")
    client = open_client(workload, env, scratch, deadline, spans=spans, warmup=warmup)
    traced_exchanges, _ = drive(client, stream, None, replay=requests)
    _, traced_err = client.close()
    second, second_err = untraced(requests[len(first):])
    plain = first + second
    files = client.span_files if isinstance(client, OneShot) else [spans + ".npy"]

    n = len(requests)
    values = tracer.layer_metrics(tracer.load(files), n)
    values["cli.stdout_bytes"] = sum(len(r["out"].encode()) for _, r in traced_exchanges) / n
    values["trace.overhead_ratio"] = (
        sum(r["ms"] for _, r in traced_exchanges) / sum(r["ms"] for _, r in plain)
    )
    metrics = {name: (values[name], unit, n) for name, unit in tracer.metric_units()}
    failures = (verify(first, first_err) + verify(second, second_err)
                + verify(traced_exchanges, traced_err))
    return metrics, plain + traced_exchanges, failures


def run_metadata(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_head(root),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "env": {**PINNED_ENV, "PYTHONPATH": "src"},
    }


def git_head(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qentropy" / "cli.py").is_file():
        print(f"error: {root} holds no src/qentropy; run from a checkout root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = Deadline(RUN_LIMIT_S)
    scratch_root = root / ".perfbench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        writer = workloads.DocumentWriter(str(scratch))
        stream = workload.stream(np.random.default_rng(args.seed), writer, root / "inputs")
        env = worker_env(root)
        measure = traced if args.trace else end_to_end
        try:
            metrics, exchanges, failures = measure(workload, stream, env, scratch, deadline,
                                                   args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted = len(exchanges)
    failed = min(len(failures), attempted)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"requests={attempted} failed={failed}")
    for line in failures[:20]:
        print(f"# FAIL {line}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print("# meta " + json.dumps(run_metadata(root, args.seed)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
