"""Exact reference answers, computed in the benchmark process.

The reference for a query is ``ParallelGRMiner(workers=1)`` — the
sharded miner run in-process, exact under Definition 5 and independent
of worker count — over the benchmark's own copy of the network at the
version the server answered on.  References are computed outside the
timed phase, once per distinct (query, network version), on a small
fork pool so that the check costs less wall time than the run it checks.
"""

from __future__ import annotations

import copy
import multiprocessing as mp

from repro.parallel import ParallelGRMiner

#: One reference process per CPU of the 2-CPU hosts the benchmark targets.
PROCESSES = 2

#: Network versions the pool workers inherit through fork:
#: ``{version_key: SocialNetwork}``.
_NETWORKS: dict = {}


def _mine_reference(job: tuple) -> tuple:
    version, k, min_support, min_nhp, rank_by = job
    result = ParallelGRMiner(
        _NETWORKS[version], workers=1, k=k, min_support=min_support,
        min_score=min_nhp, rank_by=rank_by,
    ).mine()
    return job, [entry_tuple(m) for m in result.grs]


def entry_tuple(mined) -> tuple:
    """A reference GR as the comparable tuple (score and counts)."""
    m = mined.metrics
    return (str(mined.gr), repr(mined.score), m.support_count,
            repr(m.nhp), repr(m.confidence))


def payload_tuple(entry: dict) -> tuple:
    """A served GR (one ``grs`` item of the JSON answer) as a tuple."""
    return (entry["gr"], repr(float(entry["score"])), entry["support_count"],
            repr(float(entry["nhp"])), repr(float(entry["confidence"])))


def job(request: dict, version: int) -> tuple:
    """The reference job of a mine request answered at ``version`` (the
    number of Pokec deltas applied before it; DBLP never changes)."""
    at = version if request["net"] == "pokec" else 0
    return ((request["net"], at), request["k"], request["min_support"],
            request["min_nhp"], request["rank_by"])


def _versions(networks: dict, deltas: list[dict], needed: set) -> dict:
    """``{(name, version): network}`` for every version ``needed``: the
    Pokec network after its first ``version`` deltas, DBLP as generated."""
    out = {("dblp", 0): networks["dblp"]}
    pokec = copy.deepcopy(networks["pokec"])
    if 0 in needed:
        out[("pokec", 0)] = copy.deepcopy(pokec)
    for version, delta in enumerate(deltas, start=1):
        if version > max(needed, default=0):
            break
        pokec.append_edges(delta["src"], delta["dst"])
        if version in needed:
            out[("pokec", version)] = copy.deepcopy(pokec)
    return out


def compute(networks: dict, deltas: list[dict], jobs: list[tuple]) -> dict:
    """Reference answers for ``jobs`` (see :func:`job`).

    ``networks`` holds the generated networks by name and ``deltas`` the
    Pokec appends in the order the server applied them.  Returns
    ``{job: [entry tuples]}``.
    """
    jobs = sorted(set(jobs), key=repr)
    if not jobs:
        return {}
    needed = {version for (name, version), *_ in jobs if name == "pokec"}
    _NETWORKS.clear()
    _NETWORKS.update(_versions(networks, deltas, needed))
    try:
        with mp.get_context("fork").Pool(PROCESSES) as pool:
            answers = dict(pool.imap_unordered(_mine_reference, jobs))
            pool.close()
            pool.join()
        return answers
    finally:
        _NETWORKS.clear()


def compare(served: list[dict], expected: list[tuple]) -> str | None:
    """``None`` when the answers agree GR-for-GR, else a short diff."""
    got = [payload_tuple(entry) for entry in served]
    if got == expected:
        return None
    if len(got) != len(expected):
        return f"{len(got)} GRs served, {len(expected)} expected"
    for rank, (a, b) in enumerate(zip(got, expected), start=1):
        if a != b:
            return f"rank {rank}: served {a}, expected {b}"
    return "answers differ"
