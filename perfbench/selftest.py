"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every end-to-end and per-layer metric named in ``BENCHMARK.json``
  prints with its unit, on every workload, traced and untraced;
* the answer check and the leak check run, and each catches a planted
  fault (a corrupted answer; a stray ``/dev/shm`` segment);
* the exact counts (``core.*`` and ``engine.delta.*``) are identical
  between two traced runs with the same seed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from multiprocessing import shared_memory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[-2]


def check_planted_faults() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import reference
    from server import shm_segments, wait_for_segments

    problems = []
    served = [{"gr": "(A:x) --> (B:y)", "score": 0.5, "support_count": 7,
               "nhp": 0.5, "confidence": 0.25}]
    expected = [reference.payload_tuple(served[0])]
    if reference.compare(served, expected) is not None:
        problems.append("answer check flags an equal answer")
    if reference.compare([dict(served[0], support_count=8)], expected) is None:
        problems.append("answer check misses a wrong support count")
    baseline = shm_segments()
    stray = shared_memory.SharedMemory(create=True, size=64)
    try:
        if f"{stray.name.lstrip('/')}" not in wait_for_segments(baseline, timeout=0.1):
            problems.append("leak check misses a stray /dev/shm segment")
    finally:
        stray.close()
        stray.unlink()
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = check_planted_faults()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report_line = run(workload, trace)
            report = json.loads(report_line.split(" ", 1)[1])
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or wrong unit")
            if set(metrics) != {m["name"] for m in spec[key]}:
                problems.append(f"{workload} trace={trace}: unexpected metric names")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: failed {report}")
            if "mismatches" not in report or "leaks" not in report:
                problems.append(f"{workload} trace={trace}: a check did not run")
            if trace:
                again, _ = run(workload, 1)
                for metric in spec[key]:
                    if metric["unit"] == "count" and (
                            again["metrics"][metric["name"]] != metrics[metric["name"]]):
                        problems.append(f"{workload}: {metric['name']} differs between "
                                        "two runs with the same seed")
            print(f"ok {workload} trace={trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
