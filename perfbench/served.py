"""The untraced run: a real ``repro serve`` driven over HTTP.

One run: generate the networks, launch the server ``SETUP_REPEATS``
times (``setup_s`` is the median launch-to-first-pooled-answer time; the
last launch stays up), warm it, drive the workload's stream in a closed
loop for ``--seconds``, run the short probes of the request classes the
workload's mix lacks, shut the server down, check for leaks, and finally
compare every answer against the exact reference.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import reference
import workloads as W
from server import Server, cpu_seconds, descendants, peak_rss_mb, shm_segments, wait_for_segments
from stats import latency_summary

SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 120.0
#: Idle gap between probe requests.  Forty back-to-back cache hits span
#: a tenth of a second, short enough to fall wholly inside one burst of
#: a shared host's contention; spacing them spreads a probe over ~3 s.
PROBE_GAP_S = 0.075

#: Client count and stream per workload (closed loop: each client sends
#: its next request only after the previous answer arrived).
CLIENTS = {"mine-cold": 1, "serve-hot": 2, "append-remine": 1}


class Run:
    """State of one untraced run: the server, every record, the leaks."""

    def __init__(self, root: str, workdir: str, inputs: W.Inputs) -> None:
        self.root = root
        self.workdir = workdir
        self.inputs = inputs
        self.records: list[dict] = []
        self.leaks: list[str] = []
        self.version = 0  # pokec network version: appends applied so far
        self.deltas: list[dict] = []
        self.server: Server | None = None
        self._lock = threading.Lock()

    # -- requests -------------------------------------------------------
    def issue(self, request: dict, phase: str) -> dict:
        """Send one request, time it, and keep the record for checking."""
        if request["op"] == "append":
            path = f"/networks/{request['net']}/append_edges"
            body = {"src": request["src"], "dst": request["dst"]}
        else:
            path = f"/networks/{request['net']}/mine"
            body = W.body_of(request)
        version = self.version if request["net"] == "pokec" else 0
        started = time.perf_counter()
        try:
            status, raw = self.server.request("POST", path, body, REQUEST_TIMEOUT_S)
            error = None
        except (OSError, http.client.HTTPException) as exc:
            status, raw, error = None, b"", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        record = {"request": request, "phase": phase, "version": version,
                  "status": status, "latency": latency, "error": error,
                  "grs": None, "bytes": len(raw)}
        if status == 200:
            payload = json.loads(raw)
            if request["op"] == "mine":
                record["grs"] = payload["result"]["grs"]
        elif error is None:
            record["error"] = f"HTTP {status}: {raw[:200]!r}"
        if request["op"] == "append" and status == 200:
            self.version += 1
            self.deltas.append(request)
        with self._lock:
            self.records.append(record)
        return record

    def closed_loop(self, stream: list[dict], clients: int, seconds: float) -> float:
        """Drive ``stream`` with ``clients`` closed-loop clients for
        ``seconds``; returns the elapsed wall time."""
        cursor = iter(stream)
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client() -> None:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    request = next(cursor, None)
                if request is None:
                    return
                self.issue(request, "timed")

        started = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    # -- lifecycle ------------------------------------------------------
    def launch(self) -> float:
        """Start a server; returns launch → first pooled answer on every
        network (the warm query, pooled on both networks)."""
        self.server = Server(self.root, self.inputs.dirs, W.WORKERS,
                             f"{self.workdir}/server.log")
        self.server.launch()
        for net in self.inputs.dirs:
            self.issue(W.mine_request(net, cls="warm", **W.WARM_QUERY), "setup")
        return time.perf_counter() - self.server.launched_at

    def stop(self, baseline: set[str]) -> None:
        if self.server is None:
            return
        self.leaks += self.server.stop()
        self.leaks += [f"/dev/shm/{name} outlived the server"
                       for name in wait_for_segments(baseline)]
        self.server = None


def execute(root: str, workdir: str, workload: str, seed: int, seconds: float,
            inputs: W.Inputs) -> tuple[dict, dict]:
    """One untraced run; returns ``(metrics, report)``."""
    baseline = shm_segments()
    run = Run(root, workdir, inputs)
    pokec = inputs.networks["pokec"]
    setups = []
    try:
        for attempt in range(SETUP_REPEATS):
            setups.append(run.launch())
            if attempt < SETUP_REPEATS - 1:
                run.stop(baseline)
        warm, stream = W.warm_and_stream(workload, seed, pokec)
        for request in warm:
            run.issue(request, "warm")

        pids = run.server.remember_processes()
        cpu_before = cpu_seconds(pids)
        elapsed = run.closed_loop(stream, CLIENTS[workload], seconds)
        pids = run.server.remember_processes()
        cpu_after = cpu_seconds(pids)
        rss = peak_rss_mb(descendants(run.server.proc.pid))

        answered = [r["request"] for r in run.records
                    if r["phase"] == "timed" and r["grs"] is not None]
        for request in W.probes(workload, seed, answered, pokec):
            run.issue(request, "probe")
            time.sleep(PROBE_GAP_S)
    finally:
        run.stop(baseline)

    mismatches = check_answers(run, inputs)
    timed = [r for r in run.records if r["phase"] == "timed"]
    ok = [r for r in timed if r["error"] is None]
    cpu = sum(cpu_after.get(pid, 0.0) - cpu_before.get(pid, 0.0) for pid in cpu_after)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(ok) / elapsed,
        "cpu_ms_per_req": 1000.0 * cpu / max(1, len(ok)),
        "peak_rss_mb": rss,
    }
    tails = {}

    def summarize(name: str, records: list[dict]) -> None:
        values, info = latency_summary(name, [r["latency"] for r in records])
        metrics.update(values)
        tails[name] = {**info, "phase": records[0]["phase"]}

    def pick(cls: str) -> list[dict]:
        timed_cls = [r for r in ok if r["request"]["cls"] == cls]
        if timed_cls:
            return timed_cls
        return [r for r in run.records if r["phase"] == "probe"
                and r["request"]["cls"] == cls and r["error"] is None]

    summarize("mine", [r for r in ok if r["request"]["op"] == "mine"])
    summarize("repeat", pick("repeat"))
    summarize("fresh", pick("fresh"))
    summarize("append", pick("append"))

    failed_requests = [r for r in run.records if r["error"] is not None]
    attempted = len(run.records) + SETUP_REPEATS  # one leak check per launch
    failed = len(failed_requests) + len(run.leaks)
    report = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "timed_requests": len(timed),
        "timed_seconds": elapsed,
        "setup_s_samples": setups,
        "tails": tails,
        "mismatches": mismatches,
        "errors": [f"{r['request']['op']} {r['request'].get('k')}: {r['error']}"
                   for r in failed_requests][:20],
        "leaks": run.leaks,
        "classes": {cls: sum(1 for r in timed if r["request"]["cls"] == cls)
                    for cls in ("repeat", "fresh", "append")},
    }
    return metrics, report


def check_answers(run: Run, inputs: W.Inputs) -> list[str]:
    """Compare every answered /mine request with the exact reference.

    A mismatch marks its record failed (it then counts in ``failed``)."""
    mined = [r for r in run.records if r["grs"] is not None]
    jobs = [reference.job(r["request"], r["version"]) for r in mined]
    answers = reference.compute(inputs.networks, run.deltas, jobs)
    mismatches = []
    for record, job in zip(mined, jobs):
        diff = reference.compare(record["grs"], answers[job])
        if diff is not None:
            record["error"] = f"wrong answer: {diff}"
            mismatches.append(f"{job}: {diff}")
    return mismatches
