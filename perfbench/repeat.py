"""Repeat benchmark runs and summarise their spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--seed0 1]
                                [--trace] [--out FILE] [--against FILE]

Runs ``run.py`` once per seed (seed0, seed0+1, ...) on each workload, with
the run length from BENCHMARK.json, from the root of a checkout. For every
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to a third of the metric's bound, the steadiness target. With
--trace it also makes one traced run per workload. --out writes every run's
result, its wall time and the summary as JSON. --against takes such a file
from an earlier set and prints how far each median moved from it, in the
direction that is worse, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=False)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-500:]}")
    meta = next((json.loads(line[7:]) for line in lines if line.startswith("# meta ")), None)
    return {"seed": seed, "trace": trace, "wall_s": wall, "meta": meta,
            "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric: dict, median: float, before: float) -> float:
    """How much worse `median` is than `before`, as a share of `before`."""
    change = (median - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    command = [sys.executable] + spec["command"][1:]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workload or names:
        runs = [run_once(command, workload, args.seed0 + k, spec["run_seconds"], 0)
                for k in range(args.runs)]
        entry = {"runs": runs, "summary": {}}
        print(f"{workload}: correct={all(r['result']['correct'] for r in runs)} "
              f"attempted={[r['result']['attempted'] for r in runs]} "
              f"wall_s={[round(r['wall_s'], 1) for r in runs]}")
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            summary = summarise(values)
            target = metric["bound"] / 3
            ok = summary["spread"] < target
            steady &= ok
            entry["summary"][metric["name"]] = {**summary, "bound": metric["bound"]}
            line = (f"  {metric['name']:16s} median={summary['median']:10.4f} {metric['unit']:4s} "
                    f"q1={summary['q1']:10.4f} q3={summary['q3']:10.4f} "
                    f"spread={summary['spread']:.4f} target<{target:.4f} {'ok' if ok else 'WIDE'}")
            if workload in earlier:
                before = earlier[workload]["summary"][metric["name"]]["median"]
                worse = worse_by(metric, summary["median"], before)
                steady &= worse <= metric["bound"]
                line += (f" worse_than_earlier={worse:+.4f} bound={metric['bound']} "
                         f"{'ok' if worse <= metric['bound'] else 'MOVED'}")
            print(line)
        if args.trace:
            entry["traced"] = run_once(command, workload, args.seed0, spec["run_seconds"], 1)
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
