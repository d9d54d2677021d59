"""The traced run: the same streams, replayed layer by layer.

Spans are taken only here, around calls into each layer's public entry
points; the program itself is not instrumented.  A fixed, seeded replay
set (a prefix of the workload's stream plus the same class probes the
untraced run makes) is sent through six levels, each from the same
starting state:

1. ``wire`` untraced — HTTP to a fresh ``repro serve`` (baseline for the
   tracing overhead);
2. ``wire`` traced — the same, with a span per request;
3. ``serve.scheduler`` — ``Scheduler.submit`` / ``append_edges`` on an
   in-process hub, with the workload's client count;
4. ``engine.hub`` — ``EngineHub.mine`` / ``append_edges``, one at a time;
5. ``engine`` — ``MiningEngine.prepare``, ``PersistentWorkerPool.run_query``,
   ``MiningEngine.finish`` and ``append_edges`` called separately, and
   for every pooled query its plan (``GRMiner.plan_branches``) and its
   shards (``run_shard``) again in-process without the threshold bus,
   which gives walk CPU, shard imbalance and the exact effort counts;
6. ``data`` — ``CompactStore`` build, ``apply_delta``, ``lease_shared``
   export and ``attach_shared_store`` on the benchmark's own copies.

A layer's self time is its level's mean latency minus the next level's
(``serve.http.self_ms`` = wire − scheduler, ``serve.scheduler.self_ms`` =
scheduler − hub); the hub level's latency is split by the engine level's
spans, and what those spans do not cover is ``residual_ms``.  The spans
are kept in memory and written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import reference
import workloads as W
from served import Run
from server import shm_segments, wait_for_segments

from repro.core.miner import GRMiner
from repro.data.store import CompactStore, attach_shared_store
from repro.engine import EngineHub, MineRequest
from repro.io import load_network
from repro.parallel.miner import merge_shard_results
from repro.parallel.pool import PersistentWorkerPool
from repro.parallel.worker import make_worker_state, run_shard
from repro.serve import Scheduler

#: Replay sizes: stream prefix and per-probe samples.  mine-cold replays
#: one full round of its stratified grid (every (k, minSupp) cell once).
REPLAY = {"mine-cold": 9, "serve-hot": 300, "append-remine": 8 * 5}
TINY_REPLAY = {"mine-cold": 9, "serve-hot": 60, "append-remine": 3 * 5}
PROBE_SAMPLES = 10
DATA_REPEATS = 3

PER_LAYER_UNITS = {
    "serve.http.self_ms": "ms",
    "serve.http.response_bytes": "bytes",
    "serve.scheduler.self_ms": "ms",
    "serve.scheduler.dedup_ratio": "ratio",
    "serve.scheduler.cache_hit_job_ratio": "ratio",
    "engine.prepare_ms": "ms",
    "engine.finish_ms": "ms",
    "engine.cache.hit_ratio": "ratio",
    "engine.delta.append_ms": "ms",
    "engine.delta.migrated": "count",
    "engine.delta.purged": "count",
    "engine.delta.fallbacks": "count",
    "engine.delta.branches_mined": "count",
    "parallel.pool.dispatch_ms": "ms",
    "parallel.planner.shard_imbalance": "ratio",
    "parallel.worker.attach_ms": "ms",
    "core.plan_ms": "ms",
    "core.walk_cpu_ms": "ms",
    "core.grs_examined": "count",
    "core.lw_nodes": "count",
    "core.candidates": "count",
    "core.pruned_by_support": "count",
    "core.pruned_by_nhp": "count",
    "core.pruned_by_generality": "count",
    "data.store.build_ms": "ms",
    "data.store.export_ms": "ms",
    "data.store.bytes": "bytes",
    "data.store.apply_delta_ms": "ms",
    "residual_ms": "ms",
    "tracing_overhead_ms": "ms",
}
CORE_COUNTS = [name for name in PER_LAYER_UNITS if name.startswith("core.")
               and PER_LAYER_UNITS[name] == "count"]


class Spans:
    """In-memory span log: (id, name, start, end, parent, request id)."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, request_id: str, parent: int | None = None):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.items.append({"id": span_id, "name": name, "start": start,
                               "end": time.perf_counter(), "parent": parent,
                               "request": request_id})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.items if s["name"] == name]

    def mean_ms(self, name: str) -> float:
        values = self.durations(name)
        return 1000.0 * statistics.fmean(values) if values else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.items, handle)


def _request(q: dict) -> MineRequest:
    return MineRequest.create(k=q["k"], min_support=q["min_support"],
                              min_nhp=q["min_nhp"], rank_by=q["rank_by"],
                              workers=W.WORKERS)


def _rid(level: str, index: int) -> str:
    return f"{level}:{index}"


def replay_set(workload: str, seed: int, inputs: W.Inputs, tiny: bool) -> tuple[list, list, list]:
    """(warm-up requests, stream prefix, probes) — fixed by the seed."""
    size = (TINY_REPLAY if tiny else REPLAY)[workload]
    pokec = inputs.networks["pokec"]
    warm, stream = W.warm_and_stream(workload, seed, pokec)
    stream = stream[:size]
    probes = W.probes(workload, seed, stream, pokec, per_probe=PROBE_SAMPLES)
    return warm, stream, probes


class Replayer:
    """Runs the replay set through each level and collects the spans."""

    def __init__(self, root, workdir, workload, inputs, warm, stream, probes) -> None:
        self.root = root
        self.workdir = workdir
        self.inputs = inputs
        self.warm = warm
        self.replay = stream + probes
        # The stream keeps the workload's client count; the probes (which
        # may append, and appends to one network must not overlap) run
        # with one client, as in the untraced run.
        self.phases = [(stream, 2 if workload == "serve-hot" else 1), (probes, 1)]
        self.spans = Spans()
        self.answers: list[tuple] = []  # (level, version, request, entry tuples)
        self.leaks: list[str] = []
        self.failed: list[str] = []
        self.latency: dict[str, list[float]] = {}
        self.extra: dict = {}

    def networks(self) -> dict:
        return {name: load_network(path) for name, path in self.inputs.dirs.items()}

    # -- levels 1 and 2: the wire --------------------------------------
    def wire(self, traced: bool, baseline: set[str]) -> None:
        run = Run(self.root, self.workdir, self.inputs)
        run.launch()
        try:
            for request in self.warm:
                run.issue(request, "warm")
            if traced:
                original = run.issue

                def issue(request, phase):
                    index = len(run.records)
                    with self.spans.span("wire", _rid("wire", index)):
                        return original(request, phase)

                run.issue = issue
            before = self._server_stats(run)
            for requests, clients in self.phases:
                run.closed_loop(requests, clients, float("inf"))
            after = self._server_stats(run)
        finally:
            run.stop(baseline)
        self.leaks += run.leaks
        timed = [r for r in run.records if r["phase"] == "timed"]
        self.failed += [r["error"] for r in timed if r["error"] is not None]
        level = "wire" if traced else "wire-untraced"
        self.latency[level] = [r["latency"] for r in timed]
        if traced:
            self.extra["response_bytes"] = statistics.fmean(
                r["bytes"] for r in timed if r["request"]["op"] == "mine")
            submitted = after["submitted"] - before["submitted"]
            self.extra["dedup_ratio"] = (after["deduped"] - before["deduped"]) / submitted
            self.extra["cache_hit_job_ratio"] = (
                after["cache_hit_jobs"] - before["cache_hit_jobs"]) / submitted
        for record in timed:
            if record["grs"] is not None:
                self.answers.append((level, record["version"], record["request"],
                                     [reference.payload_tuple(e) for e in record["grs"]]))

    @staticmethod
    def _server_stats(run: Run) -> dict:
        status, raw = run.server.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered HTTP {status}")
        return json.loads(raw)["scheduler"]

    # -- level 3: the scheduler ----------------------------------------
    def scheduler(self) -> None:
        asyncio.run(self._scheduler())

    async def _scheduler(self) -> None:
        with EngineHub(workers=W.WORKERS) as hub:
            for name, network in self.networks().items():
                hub.register(name, network)
            async with Scheduler(hub) as scheduler:
                for request in self.warm:
                    await scheduler.submit(request["net"], _request(request))
                version = [0]
                latencies = []

                async def client(cursor) -> None:
                    for index, q in cursor:
                        with self.spans.span("serve.scheduler", _rid("sched", index)):
                            started = time.perf_counter()
                            if q["op"] == "append":
                                await scheduler.append_edges(q["net"], q["src"], q["dst"])
                                version[0] += 1
                                result = None
                            else:
                                at = version[0] if q["net"] == "pokec" else 0
                                result = await scheduler.submit(q["net"], _request(q))
                            latencies.append(time.perf_counter() - started)
                        if result is not None:
                            self.answers.append(("scheduler", at, q, _tuples(result)))

                offset = 0
                for requests, clients in self.phases:
                    cursor = enumerate(requests, start=offset)
                    await asyncio.gather(*(client(cursor) for _ in range(clients)))
                    offset += len(requests)
                self.latency["scheduler"] = latencies

    # -- level 4: the hub ----------------------------------------------
    def hub(self) -> None:
        latencies, version = [], 0
        with EngineHub(workers=W.WORKERS) as hub:
            for name, network in self.networks().items():
                hub.register(name, network)
            for request in self.warm:
                hub.mine(request["net"], _request(request))
            before = hub.aggregate_stats()
            branches_mined = 0
            for index, q in enumerate(self.replay):
                with self.spans.span("engine.hub", _rid("hub", index)):
                    started = time.perf_counter()
                    if q["op"] == "append":
                        hub.append_edges(q["net"], q["src"], q["dst"])
                        version += 1
                        result = None
                    else:
                        result = hub.mine(q["net"], _request(q))
                    latencies.append(time.perf_counter() - started)
                if result is not None:
                    at = version if q["net"] == "pokec" else 0
                    self.answers.append(("hub", at, q, _tuples(result)))
                    if result.params.get("migrated"):
                        branches_mined += result.params["branches_mined"]
            after = hub.aggregate_stats()
        delta = {key: after[key] - before[key] for key in after}
        self.latency["hub"] = latencies
        self.extra.update(
            cache_hit_ratio=delta["cache_hits"] / max(1, delta["queries"]),
            migrated=delta["migrated_entries"],
            purged=delta["purged_entries"],
            fallbacks=delta["migration_fallbacks"],
            branches_mined=branches_mined,
        )

    # -- level 5: the engine's steps, and the shards in-process ----------
    def engine(self) -> None:
        version = 0
        attributed = []
        counts = dict.fromkeys(CORE_COUNTS, 0)
        walk_cpu, shard_max, shard_mean = [], [], []
        skeletons: dict = {}  # network name -> (fingerprint, GRMiner)
        with EngineHub(workers=W.WORKERS) as hub, \
                PersistentWorkerPool(None, processes=W.WORKERS) as pool:
            for name, network in self.networks().items():
                hub.register(name, network)
            for request in self.warm:
                hub.mine(request["net"], _request(request))
            for index, q in enumerate(self.replay):
                engine = hub.engine(q["net"])
                rid = _rid("engine", index)
                with self.spans.span("engine", rid) as root:
                    if q["op"] == "append":
                        with self.spans.span("engine.delta.append", rid, root):
                            engine.append_edges(q["src"], q["dst"])
                        version += 1
                        continue
                    with self.spans.span("engine.prepare", rid, root):
                        prepared = engine.prepare(_request(q))
                    if prepared.mode == "pooled":
                        with self.spans.span("parallel.pool.run_query", rid, root):
                            shard_results = pool.run_query(prepared.tasks)
                        engine.release_bus(prepared)
                        with self.spans.span("engine.finish", rid, root):
                            result = engine.finish(prepared, shard_results)
                    else:
                        with self.spans.span("engine.execute", rid, root):
                            result = engine.execute_prepared(prepared)
                at = version if q["net"] == "pokec" else 0
                self.answers.append(("engine", at, q, _tuples(result)))
                if prepared.mode != "pooled":
                    continue
                # The same query's plan and shards, in-process and without
                # the bus: deterministic effort counts, per-shard walk times.
                fingerprint, skeleton = skeletons.get(q["net"], (None, None))
                if fingerprint != engine.fingerprint:
                    skeleton = GRMiner(engine.network, store=engine.store,
                                       config=prepared.config)
                    skeletons[q["net"]] = (engine.fingerprint, skeleton)
                else:
                    skeleton.rearm(prepared.config)
                with self.spans.span("core.plan", rid, root):
                    plan = skeleton.plan_branches()
                state = make_worker_state(engine.network, engine.store)
                state.default.miner = skeleton
                results, walls = [], []
                for task in prepared.tasks:
                    task = replace(task, bus_handle=None, store_handle=None)
                    cpu = time.process_time()
                    with self.spans.span("core.run_shard", rid, root):
                        started = time.perf_counter()
                        results.append(run_shard(task, state=state))
                        walls.append(time.perf_counter() - started)
                    walk_cpu.append(time.process_time() - cpu)
                shard_max.append(max(walls))
                shard_mean.append(statistics.fmean(walls))
                run_query = self.spans.durations("parallel.pool.run_query")[-1]
                attributed.append(run_query - max(walls))
                entries, totals = merge_shard_results(
                    results, prepared.config, plan.pruned_by_support)
                if [reference.entry_tuple(m) for m in entries] != _tuples(result):
                    self.failed.append(f"in-process shards disagree with the engine on {q}")
                for name in counts:
                    counts[name] += getattr(totals, name.split(".", 1)[1])
        self.extra.update(counts)
        self.extra["dispatch_ms"] = 1000.0 * statistics.fmean(attributed) if attributed else 0.0
        self.extra["walk_cpu_ms"] = 1000.0 * sum(walk_cpu) / max(1, len(shard_max))
        self.extra["shard_imbalance"] = (
            sum(shard_max) / sum(shard_mean) if shard_mean else 1.0)

    # -- level 6: the data layer ---------------------------------------
    def data(self) -> None:
        networks = self.networks()
        sizes = {}
        for _ in range(DATA_REPEATS):
            for name, network in networks.items():
                with self.spans.span("data.store.build", f"data:{name}"):
                    store = CompactStore(network)
                sizes[name] = self._export_attach(store, f"data:{name}")
        self.extra["bytes"] = sum(sizes.values())
        network = networks["pokec"]
        store = CompactStore(network)
        for index, q in enumerate(r for r in self.replay if r["op"] == "append"):
            rid = f"data:delta:{index}"
            network.append_edges(q["src"], q["dst"])
            with self.spans.span("data.store.apply_delta", rid):
                store.apply_delta()
            self._export_attach(store, rid)

    def _export_attach(self, store: CompactStore, rid: str) -> int:
        """Export ``store`` and attach it as a worker would; returns bytes."""
        with self.spans.span("data.store.export", rid):
            lease = store.lease_shared()
        try:
            with self.spans.span("parallel.worker.attach", rid):
                _, _, shm = attach_shared_store(lease.handle)
            shm.close()
            return lease.size
        finally:
            lease.close()


def _tuples(result) -> list[tuple]:
    return [reference.entry_tuple(m) for m in result.grs]


def execute(root: str, workdir: str, workload: str, seed: int, seconds: float,
            inputs: W.Inputs, tiny: bool = False) -> tuple[dict, dict, dict]:
    """One traced run; returns ``(metrics, units, report)``."""
    del seconds  # the replay set is fixed, so exact counts repeat
    baseline = shm_segments()
    warm, stream, probes = replay_set(workload, seed, inputs, tiny)
    replayer = Replayer(root, workdir, workload, inputs, warm, stream, probes)
    replay = replayer.replay
    try:
        replayer.wire(traced=False, baseline=baseline)
        replayer.wire(traced=True, baseline=baseline)
        replayer.scheduler()
        replayer.hub()
        replayer.engine()
        replayer.data()
    finally:
        _stop_resource_tracker()
    replayer.leaks += [f"/dev/shm/{name} outlived the traced run"
                       for name in wait_for_segments(baseline)]
    mismatches = _check(replayer, inputs)
    spans = replayer.spans
    spans.write(os.path.join(root, ".perfbench_out", f"spans-{workload}-{seed}.json"))

    mean_ms = {level: 1000.0 * statistics.fmean(values)
               for level, values in replayer.latency.items()}
    n = len(replay)
    engine_steps = sum(
        sum(spans.durations(name)) for name in (
            "engine.prepare", "parallel.pool.run_query", "engine.finish",
            "engine.execute", "engine.delta.append"))
    residual = mean_ms["hub"] - 1000.0 * engine_steps / n
    extra = replayer.extra
    metrics = {
        "serve.http.self_ms": mean_ms["wire"] - mean_ms["scheduler"],
        "serve.http.response_bytes": extra["response_bytes"],
        "serve.scheduler.self_ms": mean_ms["scheduler"] - mean_ms["hub"],
        "serve.scheduler.dedup_ratio": extra["dedup_ratio"],
        "serve.scheduler.cache_hit_job_ratio": extra["cache_hit_job_ratio"],
        "engine.prepare_ms": spans.mean_ms("engine.prepare"),
        "engine.finish_ms": spans.mean_ms("engine.finish"),
        "engine.cache.hit_ratio": extra["cache_hit_ratio"],
        "engine.delta.append_ms": spans.mean_ms("engine.delta.append"),
        "engine.delta.migrated": extra["migrated"],
        "engine.delta.purged": extra["purged"],
        "engine.delta.fallbacks": extra["fallbacks"],
        "engine.delta.branches_mined": extra["branches_mined"],
        "parallel.pool.dispatch_ms": extra["dispatch_ms"],
        "parallel.planner.shard_imbalance": extra["shard_imbalance"],
        "parallel.worker.attach_ms": spans.mean_ms("parallel.worker.attach"),
        "core.plan_ms": spans.mean_ms("core.plan"),
        "core.walk_cpu_ms": extra["walk_cpu_ms"],
        "data.store.build_ms": spans.mean_ms("data.store.build"),
        "data.store.export_ms": spans.mean_ms("data.store.export"),
        "data.store.bytes": extra["bytes"],
        "data.store.apply_delta_ms": spans.mean_ms("data.store.apply_delta"),
        "residual_ms": residual,
        "tracing_overhead_ms": mean_ms["wire"] - mean_ms["wire-untraced"],
    }
    for name in CORE_COUNTS:
        metrics[name] = extra[name]

    per_request = 1000.0 / n
    attribution = {
        "wire_ms": mean_ms["wire"],
        "serve.http.self_ms": metrics["serve.http.self_ms"],
        "serve.scheduler.self_ms": metrics["serve.scheduler.self_ms"],
        "engine.prepare.self_ms": per_request * (
            sum(spans.durations("engine.prepare")) - sum(spans.durations("core.plan"))),
        "core.plan_ms": per_request * sum(spans.durations("core.plan")),
        "parallel.pool.dispatch_ms": per_request * (
            sum(spans.durations("parallel.pool.run_query")) - sum(
                max(group) for group in _shard_groups(spans))),
        "core.walk_ms": per_request * sum(max(g) for g in _shard_groups(spans)),
        "engine.finish_ms": per_request * sum(spans.durations("engine.finish")),
        "engine.execute_ms": per_request * sum(spans.durations("engine.execute")),
        "engine.delta.append_ms": per_request * sum(spans.durations("engine.delta.append")),
        "residual_ms": residual,
    }
    failed = replayer.failed + mismatches + replayer.leaks
    # Five request levels, plus one leak check per server and at the end.
    attempted = 5 * len(replay) + 3
    report = {
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed[:20],
        "mismatches": mismatches,
        "leaks": replayer.leaks,
        "replayed_requests": n,
        "level_mean_ms": mean_ms,
        "attribution_per_request_ms": attribution,
        "spans": len(spans.items),
    }
    return metrics, PER_LAYER_UNITS, report


def _shard_groups(spans: Spans) -> list[list[float]]:
    groups: dict[str, list[float]] = {}
    for span in spans.items:
        if span["name"] == "core.run_shard":
            groups.setdefault(span["request"], []).append(span["end"] - span["start"])
    return list(groups.values())


def _check(replayer: Replayer, inputs: W.Inputs) -> list[str]:
    """Every level's answers against the exact reference."""
    deltas = [q for q in replayer.replay if q["op"] == "append"]
    jobs = [reference.job(q, version) for _, version, q, _ in replayer.answers]
    answers = reference.compute(inputs.networks, deltas, jobs)
    mismatches = []
    for (level, _, _, got), job in zip(replayer.answers, jobs):
        if got != answers[job]:
            mismatches.append(f"{level} {job}: {len(got)} vs {len(answers[job])} GRs")
    return mismatches


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's resource tracker (started by the
    in-process shared-memory levels) so no helper outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
