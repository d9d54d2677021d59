"""Percentiles and provenance shared by the untraced and traced runs."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``0 < p <= 100``)."""
    ordered = sorted(values)
    index = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[index]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than eleven samples no
    percentile qualifies; the median is returned with percentile 50 so
    the metric still prints, and the sample count in the report says
    how little it rests on.
    """
    n = len(values)
    for p in range(99, 0, -1):
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= TAIL_BEYOND:
            return percentile(values, p), p
    return statistics.median(values), 50


def latency_summary(name: str, seconds: list[float]) -> tuple[dict, dict]:
    """``{name_p50_ms, name_tail_ms}`` plus the tail's provenance."""
    if not seconds:
        raise ValueError(f"no {name} samples")
    ms = [s * 1000.0 for s in seconds]
    value, p = tail(ms)
    metrics = {f"{name}_p50_ms": statistics.median(ms), f"{name}_tail_ms": value}
    return metrics, {"percentile": p, "samples": len(ms)}


def source_digest(root: str) -> str:
    """SHA-256 over the ``src`` tree, a stand-in for the commit where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, seed: int, sizes: dict, workload: str) -> dict:
    import numpy

    import workloads as W

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networks": sizes,
        "dataset_seeds": {"pokec": W.POKEC_SEED, "dblp": W.DBLP_SEED},
    }
