"""Repository benchmark: ``repro serve`` under three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mine-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on a real server;
``--trace 1`` replays the same streams against each layer's public entry
points and reports the per-layer metrics.  Human-readable detail and the
provenance go to standard output first; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine-cold", "serve-hot", "append-remine")

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_rps": "1/s", "cpu_ms_per_req": "ms",
    "mine_p50_ms": "ms", "mine_tail_ms": "ms",
    "repeat_p50_ms": "ms", "repeat_tail_ms": "ms",
    "fresh_p50_ms": "ms", "fresh_tail_ms": "ms",
    "append_p50_ms": "ms", "append_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny networks (the self-test's size)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import served
    import workloads
    from stats import provenance

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.make_networks(workdir, tiny=args.tiny)
        if args.trace:
            import traced

            metrics, units, report = traced.execute(
                ROOT, workdir, args.workload, args.seed, args.seconds, inputs,
                tiny=args.tiny,
            )
        else:
            metrics, report = served.execute(
                ROOT, workdir, args.workload, args.seed, args.seconds, inputs
            )
            units = END_TO_END_UNITS
        report["provenance"] = provenance(ROOT, args.seed, inputs.sizes, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    failures = (report.get("mismatches", []) + report.get("leaks", [])
                + report.get("errors", []) + report.get("failures", []))
    for line in dict.fromkeys(failures):
        print(f"FAIL {line}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
