"""Inputs of the three served workloads.

The networks come from fixed dataset seeds (see ``POKEC_SEED``); every
request sent to them — the streams the clients replay, the append-edge
deltas and the probe sets — is a pure function of the run's ``--seed``.
The server only ever sees the CSV files and the requests.

Request dicts carry ``op`` (``mine`` or ``append``), the ``/mine`` body
fields or the delta's ``src``/``dst``, and two benchmark-only keys:
``net`` (the registered network name) and ``cls``, which is set here and
never derived from the server's cache outcome: ``fresh`` (a query this
run has not sent before: mine-cold's grid, serve-hot's small DBLP
queries), ``repeat`` (one it has: the hot set, append-remine's four
queries, probe re-issues), ``append`` or ``warm``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from repro.datasets import synthetic_dblp, synthetic_pokec
from repro.io import load_network, save_network

#: Sizes of the generated networks.  The Pokec network is sized so that
#: one pass over mine-cold's 54-point grid takes about 10 s at 2 workers
#: on a 2-CPU host (a 12 s run covers one pass and the start of the
#: next), DBLP so that a fresh query costs the server about 30 ms.
POKEC_SIZE = {"num_sources": 500, "num_edges": 3_000, "num_regions": 24}
DBLP_SIZE = {"num_authors": 2_000, "num_links": 15_000}
TINY_POKEC_SIZE = {"num_sources": 200, "num_edges": 1_200, "num_regions": 8}
TINY_DBLP_SIZE = {"num_authors": 300, "num_links": 1_500}

#: The networks come from fixed dataset seeds (those of the repository's
#: other benches); ``--seed`` drives everything sent to them: request
#: order, repeat/fresh draws, fresh queries and append deltas.  Mining
#: cost moves by 10-25% between synthetic networks of this size, which
#: would swamp the run-to-run spread a change is judged against.
POKEC_SEED = 20160516
DBLP_SEED = 20160517

#: Pooled answer every setup waits for, one per network.  Its parameters
#: appear in no workload stream, so it never warms a measured query.
WARM_QUERY = {"k": 3, "min_support": 150, "min_nhp": 0.95, "rank_by": "nhp"}

WORKERS = 2
REPEAT_SHARE = 0.85
ZIPF_EXPONENT = 1.1
APPEND_EDGES_PER_DELTA = 10
#: Samples per probe (a class a workload's timed mix lacks).  Forty
#: samples put the tail at p75: rare latency spikes of a shared host
#: (a few percent of requests) move a p95 tail of a short probe from run
#: to run, but seldom a p75 one.
PROBE_SAMPLES = 40


@dataclass
class Inputs:
    """The generated networks: CSV directories, loaded copies, sizes."""

    dirs: dict[str, str]
    networks: dict[str, object]
    sizes: dict[str, dict[str, int]]


def make_networks(workdir: str, tiny: bool = False) -> Inputs:
    """Generate Pokec and DBLP, write them as CSV and load them back, so
    node indices match what the server loads."""
    pokec = synthetic_pokec(seed=POKEC_SEED, **(TINY_POKEC_SIZE if tiny else POKEC_SIZE))
    dblp = synthetic_dblp(seed=DBLP_SEED, **(TINY_DBLP_SIZE if tiny else DBLP_SIZE))
    dirs, networks, sizes = {}, {}, {}
    for name, network in (("pokec", pokec), ("dblp", dblp)):
        path = f"{workdir}/{name}"
        save_network(network, path)
        dirs[name] = path
        networks[name] = load_network(path)
        sizes[name] = {
            "nodes": networks[name].num_nodes,
            "edges": networks[name].num_edges,
            "sources": int(np.unique(networks[name].src).size),
        }
    return Inputs(dirs=dirs, networks=networks, sizes=sizes)


def mine_request(net: str, k: int, min_support: int, min_nhp: float, rank_by: str,
                 cls: str) -> dict:
    return {
        "op": "mine", "net": net, "k": k, "min_support": min_support,
        "min_nhp": min_nhp, "rank_by": rank_by, "cls": cls,
    }


def mine_cold_stream(seed: int, passes: int = 8) -> list[dict]:
    """Passes over the 54-point grid, each in a seeded, cost-stratified order.

    Cost is set mostly by minSupp and k, so each pass splits the grid
    into its nine (k, minSupp) cells and deals them round-robin: every
    nine consecutive requests hold one query of each cell, and any
    prefix a time-bounded run completes is a balanced sample of the
    grid.  Pass ``p`` asks for ``k + p`` so that every request stays
    distinct and cache-missing on the one network (k moves the cost of
    a query far less than minSupp does).
    """
    rng = random.Random(seed)
    stream = []
    for shift in range(passes):
        cells = {}
        for k, supp in itertools.product((10, 20, 50), (10, 20, 40)):
            members = list(itertools.product((0.4, 0.5, 0.6), ("nhp", "confidence")))
            rng.shuffle(members)
            cells[(k, supp)] = members
        order = list(cells)
        for round_index in range(6):
            rng.shuffle(order)
            for k, supp in order:
                nhp, rank = cells[(k, supp)][round_index]
                stream.append(mine_request("pokec", k + shift, supp, nhp, rank, "fresh"))
    return stream


def hot_set() -> list[dict]:
    """Fifteen queries (well under the hub's 256-entry result cache)."""
    pokec = [
        mine_request("pokec", k, 40, nhp, rank, "repeat")
        for k, nhp, rank in (
            (10, 0.5, "nhp"), (20, 0.5, "confidence"), (10, 0.6, "nhp"),
            (5, 0.4, "confidence"), (20, 0.6, "nhp"), (10, 0.4, "confidence"),
            (50, 0.5, "nhp"),
        )
    ]
    dblp = [
        mine_request("dblp", k, supp, nhp, rank, "repeat")
        for k, supp, nhp, rank in (
            (10, 100, 0.5, "nhp"), (20, 100, 0.4, "confidence"), (10, 200, 0.6, "nhp"),
            (5, 100, 0.7, "nhp"), (20, 200, 0.5, "confidence"), (50, 100, 0.3, "nhp"),
            (10, 400, 0.5, "confidence"), (30, 200, 0.4, "nhp"),
        )
    ]
    return pokec + dblp


def _fresh_pool(seed: int, net: str, supports: tuple, count: int) -> list[dict]:
    """``count`` distinct small queries in a seeded order.  Callers pass
    minSupp values that neither the hot set, the append queries nor the
    warm-up query use, so no fresh query was answered before."""
    grid = [
        mine_request(net, k, supp, round(0.30 + 0.01 * step, 2), rank, "fresh")
        for k in range(5, 50, 2)
        for supp in supports
        for step in range(0, 61)
        for rank in ("nhp", "confidence")
    ]
    random.Random(seed).shuffle(grid)
    return grid[:count]


def serve_hot_stream(seed: int, length: int = 20_000) -> list[dict]:
    """~85% Zipf-skewed hot-set repeats, ~15% fresh small DBLP queries.

    The popularity ranking is the hot set's fixed order: answer sizes
    differ between hot queries, so a seeded ranking would move
    ``repeat_p50_ms`` with the seed.  The seed draws the repeats and
    the interleaving of repeats and fresh queries."""
    rng = random.Random(seed)
    hot = hot_set()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(hot))]
    # Fresh queries come in one fixed order, so every run sends the same
    # ones; their cost spread would otherwise move the fresh and tail
    # latencies with the seed.  The seed decides where they fall.
    fresh = iter(_fresh_pool(DBLP_SEED, "dblp", (150, 300), length))
    stream = []
    for _ in range(length):
        if rng.random() < REPEAT_SHARE:
            stream.append(dict(rng.choices(hot, weights)[0]))
        else:
            stream.append(next(fresh))
    return stream


def append_queries() -> list[dict]:
    """The four queries re-issued after every delta (see README)."""
    return [
        mine_request("pokec", 10, 40, 0.0, "nhp", "repeat"),         # may migrate
        mine_request("pokec", 10, 40, 0.0, "confidence", "repeat"),  # may migrate
        mine_request("pokec", 10, 40, 0.5, "nhp", "repeat"),         # purged: minNhp > 0
        mine_request("pokec", 10, 40, 0.0, "gain", "repeat"),        # purged: gain
    ]


def make_delta(rng: np.random.Generator, network) -> dict:
    """A concentrated delta: ``APPEND_EDGES_PER_DELTA`` new edges out of
    one existing source (so it touches few first-level branches), to
    random existing nodes other than the source."""
    source = int(rng.choice(np.unique(network.src)))
    dst = rng.choice(network.num_nodes, size=APPEND_EDGES_PER_DELTA)
    dst = [int(d) if d != source else (source + 1) % network.num_nodes for d in dst]
    return {"op": "append", "net": "pokec", "src": [source] * APPEND_EDGES_PER_DELTA,
            "dst": dst, "cls": "append"}


def append_deltas(seed: int, network, count: int) -> list[dict]:
    rng = np.random.default_rng(seed + 7)
    return [make_delta(rng, network) for _ in range(count)]


def append_remine_stream(seed: int, network, cycles: int = 400) -> list[dict]:
    """``cycles`` × (one delta, then the four fixed queries)."""
    stream = []
    for delta in append_deltas(seed, network, cycles):
        stream.append(delta)
        stream.extend(dict(q) for q in append_queries())
    return stream


def warm_and_stream(workload: str, seed: int, network) -> tuple[list[dict], list[dict]]:
    """The requests a workload warms the server with, then its stream."""
    if workload == "mine-cold":
        return [], mine_cold_stream(seed)
    if workload == "serve-hot":
        return hot_set(), serve_hot_stream(seed)
    return append_queries(), append_remine_stream(seed, network)


def fresh_probe(seed: int) -> list[dict]:
    """Distinct small Pokec queries for the fresh-class probe: one fixed
    set (so its median does not move with the seed) in seeded order."""
    probe = _fresh_pool(POKEC_SEED, "pokec", (60,), PROBE_SAMPLES)
    random.Random(seed).shuffle(probe)
    return probe


def repeat_probe(seed: int, answered: list[dict]) -> list[dict]:
    """Re-issues of already answered queries for the repeat-class probe."""
    rng = random.Random(seed + 13)
    return [dict(rng.choice(answered), cls="repeat") for _ in range(PROBE_SAMPLES)]


def append_probe(seed: int, network) -> list[dict]:
    return append_deltas(seed + 17, network, PROBE_SAMPLES)


def probes(workload: str, seed: int, answered: list[dict], network,
           per_probe: int | None = None) -> list[dict]:
    """Requests of the classes the workload's timed mix lacks; appends
    come last because they mutate the Pokec network."""
    if workload == "append-remine":
        return fresh_probe(seed)[:per_probe]
    plan = repeat_probe(seed, answered)[:per_probe] if workload == "mine-cold" else []
    return plan + append_probe(seed, network)[:per_probe]


def body_of(request: dict) -> dict:
    """The JSON body the server receives for a mine request."""
    return {
        "k": request["k"], "min_support": request["min_support"],
        "min_nhp": request["min_nhp"], "rank_by": request["rank_by"],
        "workers": WORKERS,
    }
