"""The benchmark's workloads: build a scenario, run it once, check it.

Every scenario is built from the public constructors only
(``KVDirectStore.create``, ``KVProcessor``, ``KVClient``,
``run_closed_loop``, ``Cluster``, ``ClusterRouter``).  No ``repro.obs``
instrument is attached and the program's own GC handling is left alone,
so the timed call is the program users run.  A scenario's constructor is
the set-up for one seed; ``run()`` is the timed call followed by a check
of every output against a dict model, and returns a :class:`Trial`.  The
NIC-DRAM cache starts empty after the functional preload, as in every
harness of the repository.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.client.client import KVClient
from repro.client.router import ClusterRouter
from repro.core.config import KVDirectConfig
from repro.core.operations import KVOperation, OpType, decode_scan_payload
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.driver import run_closed_loop
from repro.multi import Cluster
from repro.sim.engine import Simulator
from repro.workloads.keyspace import KeySpace
from repro.workloads.ycsb import WorkloadSpec, YCSBGenerator
from repro.workloads.ycsb_standard import StandardYCSB

from metrics import ReferenceClock

#: Corpus keys preloaded per set-up piece (see ``ReferenceClock``).
PRELOAD_PIECE = 5000


@dataclass
class Oracle:
    """Outcome of one output check."""

    checked: int = 0
    wrong: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def wrong_results(self) -> int:
        return len(self.wrong)


@dataclass
class Trial:
    """One seeded scenario: its set-up, timed run and checked outputs."""

    workload: str
    seed: int
    attempted: int
    failed: int
    completed: int
    preload_s: float
    generate_s: float
    run_wall_s: float
    #: ``run_wall_s`` at the reference speed (``metrics.ReferenceClock``).
    run_scaled_s: float
    elapsed_ns: float
    latencies_ns: np.ndarray
    #: Exact work counts over the timed run (deltas of program counters).
    counts: Dict[str, int]
    #: Op mix of the stream (``get``/``put``/``range`` counts).
    mix: Dict[str, int]
    oracle: Oracle

    @property
    def run_digest(self) -> str:
        """sha256 over the simulated results and the exact work counts."""
        payload = {
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "elapsed_ns": repr(self.elapsed_ns),
            "latencies": hashlib.sha256(
                np.sort(self.latencies_ns).tobytes()
            ).hexdigest(),
            "counts": self.counts,
        }
        return _sha(json.dumps(payload, sort_keys=True))

    @property
    def sim_digest(self) -> str:
        """The run digest folded with the oracle's result digest."""
        return _sha(self.run_digest + self.oracle.digest)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mix(ops: List[KVOperation]) -> Dict[str, int]:
    return dict(Counter(op.op.name.lower() for op in ops))


def _processor_counts(processors, stores) -> Dict[str, int]:
    """Exact work counters summed over every node of a scenario."""
    counts: Dict[str, int] = {}

    def add(name: str, value: int) -> None:
        counts[name] = counts.get(name, 0) + int(value)

    for proc in processors:
        add("completed", proc.completed)
        add("forwarded", proc.counters["forwarded"])
        add("writebacks", proc.counters["writebacks"])
        add("failed_ops", proc.counters["failed_ops"])
        add("station_full_stalls", proc.station.counters["full_stalls"])
        add("station_queued", proc.station.counters["queued"])
        for name in ("reads", "writes", "cache_hits", "cache_misses",
                     "fills", "writebacks", "pcie_direct"):
            add(f"mem_{name}", proc.engine.counters[name])
        add("dma_reads", proc.dma.reads)
        add("dma_writes", proc.dma.writes)
        for name, value in proc.network.counters.snapshot().items():
            add(f"eth_{name}", value)
    for store in stores:
        for name in ("allocs", "frees", "sync_reads", "sync_writes"):
            add(f"slab_{name}", store.allocator.counters[name])
        add("image_reads", store.memory.counters["reads"])
        add("image_writes", store.memory.counters["writes"])
    return counts


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in sorted(after.items())
    }


class _ResultRecorder:
    """Keeps every op's settled event for the oracle.

    ``run_closed_loop`` drives any object with ``sim``, ``submit`` and
    ``latencies``; this one forwards to the processor and remembers what
    each submitted op settled with, which that function does not return.
    """

    def __init__(self, processor: KVProcessor) -> None:
        self.processor = processor
        self.sim = processor.sim
        self.latencies = processor.latencies
        self.results: Dict[int, object] = {}

    def submit(self, op: KVOperation):
        event = self.processor.submit(op)
        event.add_callback(partial(self.results.__setitem__, op.seq))
        return event


def _timed(tracer, call):
    """Run the timed call, under the tracer's wrappers when one is given;
    returns its value and its :class:`ReferenceClock`."""
    with tracer.installed() if tracer is not None else nullcontext():
        clock = ReferenceClock()
        value = call()
        clock.lap()
    return value, clock


def _trial(scenario, *, latencies, **measured) -> Trial:
    return Trial(
        workload=scenario.name, seed=scenario.seed,
        attempted=len(scenario.ops), preload_s=scenario.preload_s,
        generate_s=scenario.generate_s,
        latencies_ns=np.asarray(latencies.samples(), dtype=np.float64),
        mix=_mix(scenario.ops), **measured,
    )


# -- ycsb-point ----------------------------------------------------------------

POINT = {
    "corpus": 50_000,
    "kv_size": 64,
    "memory_mib": 16,
    "put_ratio": 0.5,
    "distribution": "zipf",
    "ops": 10_000,
    "batch_size": 16,
    "outstanding_batches": 16,
    "checksum": True,
}


class YcsbPoint:
    """Paper Fig 16 long-tail 50% PUT over KVClient, the wire codec and
    the Ethernet model."""

    name = "ycsb-point"
    params = POINT
    #: Distinct seeded trials per run (see ``perfbench/run.py``).
    trials = 2
    #: Every PUT rewrites its key's corpus value in place, so a run leaves
    #: the store as it found it and one build can be run again (each run
    #: gets a fresh simulator, NIC and client; repeated runs must give the
    #: same ``sim_digest``).
    rerunnable = True

    def __init__(self, seed: int) -> None:
        p = self.params
        self.clock = clock = ReferenceClock()
        self.seed = seed
        self.store = KVDirectStore.create(
            memory_size=p["memory_mib"] << 20, seed=seed,
        )
        keyspace = KeySpace(count=p["corpus"], kv_size=p["kv_size"],
                            seed=seed)
        self.pairs = list(keyspace.pairs())
        for first in range(0, len(self.pairs), PRELOAD_PIECE):
            for key, value in self.pairs[first:first + PRELOAD_PIECE]:
                self.store.put(key, value)
            clock.lap()
        self.store.reset_measurements()
        self.preload_s = clock.raw_s
        start = time.perf_counter()
        self.ops = YCSBGenerator(keyspace, WorkloadSpec(
            put_ratio=p["put_ratio"], distribution=p["distribution"],
            seed=seed,
        )).operations(p["ops"])
        self.generate_s = time.perf_counter() - start
        self._connect()
        clock.lap()
        self.setup_s = clock.raw_s

    def _connect(self) -> None:
        p = self.params
        self.sim = Simulator()
        self.processor = KVProcessor(self.sim, self.store)
        self.client = KVClient(
            self.sim, self.processor, batch_size=p["batch_size"],
            max_outstanding_batches=p["outstanding_batches"],
            checksum=p["checksum"],
        )

    def run(self, tracer=None) -> Trial:
        processor, client, store = self.processor, self.client, self.store
        before = _processor_counts([processor], [store])
        stats, clock = _timed(tracer, lambda: client.run(self.ops))
        counts = _delta(_processor_counts([processor], [store]), before)
        counts.update({
            "client_retries": stats.retries + stats.busy_retries,
            "client_request_bytes": stats.request_bytes_on_wire,
            "client_response_bytes": stats.response_bytes_on_wire,
        })
        trial = _trial(
            self, run_wall_s=clock.raw_s, run_scaled_s=clock.scaled_s,
            elapsed_ns=stats.elapsed_ns,
            failed=stats.failed_ops, completed=len(client.responses),
            latencies=client.latencies, counts=counts,
            oracle=_check_point(self.ops, client.responses,
                                dict(self.pairs)),
        )
        self._connect()
        return trial


def _check_point(ops, responses, corpus: Dict[bytes, bytes]) -> Oracle:
    """Every PUT writes its key's corpus value, so every GET must return
    the corpus value whatever order the ops completed in."""
    oracle = Oracle()
    digest = hashlib.sha256()
    for op in ops:
        oracle.checked += 1
        result = responses.get(op.seq)
        if result is None:
            oracle.wrong.append(f"seq {op.seq}: no response")
            continue
        want = corpus.get(op.key)
        if op.op is OpType.PUT:
            if op.value != want:
                oracle.wrong.append(f"seq {op.seq}: PUT of a non-corpus value")
            elif not result.ok:
                oracle.wrong.append(f"seq {op.seq}: PUT not acknowledged")
        elif not result.ok or result.value != want:
            oracle.wrong.append(f"seq {op.seq}: GET {op.key.hex()} returned "
                                f"{result.value!r}")
        digest.update(op.seq.to_bytes(8, "big"))
        digest.update(bytes([result.ok]))
        digest.update(result.value or b"")
    oracle.digest = digest.hexdigest()
    return oracle


# -- ycsb-e-scan ---------------------------------------------------------------

SCAN = {
    "corpus": 1000,
    "kv_size": 13,
    "memory_mib": 8,
    "ordered_index": True,
    "mix": "YCSB-E: 95% RANGE (length 1-25, Zipf 0.99 start) / 5% insert",
    "ops": 1000,
    "concurrency": 128,
}


class YcsbEScan:
    """Standard YCSB-E through ``run_closed_loop`` on the ordered index."""

    name = "ycsb-e-scan"
    params = SCAN
    #: One trial's throughput and p99 hinge on which start keys its seed
    #: makes hot (single-trial Mops varies ~12% from seed to seed); 20
    #: pooled trials keep a run's figures within a few percent.
    trials = 20
    #: Inserts change the store, so every run needs a fresh build.
    rerunnable = False

    def __init__(self, seed: int) -> None:
        p = self.params
        self.clock = clock = ReferenceClock()
        self.seed = seed
        self.sim = Simulator()
        self.store = KVDirectStore.create(
            memory_size=p["memory_mib"] << 20, seed=seed,
            ordered_index=p["ordered_index"],
        )
        keyspace = KeySpace(count=p["corpus"], kv_size=p["kv_size"],
                            seed=seed)
        generator = StandardYCSB(keyspace, "E", seed=seed)
        self.load = list(generator.load_phase())
        for op in self.load:
            self.store.execute(op)
        self.store.reset_measurements()
        clock.lap()
        self.preload_s = clock.raw_s
        start = time.perf_counter()
        self.ops = generator.operations(p["ops"])
        self.generate_s = time.perf_counter() - start
        self.processor = KVProcessor(self.sim, self.store)
        clock.lap()
        self.setup_s = clock.raw_s

    def run(self, tracer=None) -> Trial:
        processor, store = self.processor, self.store
        recorder = _ResultRecorder(processor)
        before = _processor_counts([processor], [store])
        stats, clock = _timed(tracer, lambda: run_closed_loop(
            recorder, self.ops, concurrency=self.params["concurrency"],
        ))
        counts = _delta(_processor_counts([processor], [store]), before)
        settled_failed = sum(
            1 for event in recorder.results.values() if not event.ok
        )
        corpus = {op.key: op.value for op in self.load}
        return _trial(
            self, run_wall_s=clock.raw_s, run_scaled_s=clock.scaled_s,
            elapsed_ns=stats["elapsed_ns"],
            failed=settled_failed + len(self.ops) - len(recorder.results),
            completed=processor.completed, latencies=processor.latencies,
            counts=counts,
            oracle=_check_scan(self.ops, recorder.results, corpus),
        )


def _check_scan(ops, results, corpus: Dict[bytes, bytes]) -> Oracle:
    """RANGE results are sorted, unique, at most ``count`` long and match
    the model; no base-corpus key inside the returned span is missing;
    every ``new:`` key returned was inserted by some op of the stream."""
    oracle = Oracle()
    digest = hashlib.sha256()
    inserted = {op.key: op.value for op in ops if op.op is OpType.PUT}
    base = sorted(corpus)
    for op in ops:
        oracle.checked += 1
        event = results.get(op.seq)
        if event is None or not event.ok:
            oracle.wrong.append(f"seq {op.seq}: {op.op.name} did not succeed")
            continue
        result = event.value
        digest.update(op.seq.to_bytes(8, "big"))
        digest.update(result.value or b"")
        if op.op is OpType.PUT:
            continue
        problem = _range_problem(op, result.value, corpus, inserted, base)
        if problem:
            oracle.wrong.append(f"seq {op.seq}: RANGE {problem}")
    oracle.digest = digest.hexdigest()
    return oracle


def _range_problem(op, payload, corpus, inserted, base) -> Optional[str]:
    entries = decode_scan_payload(payload, with_values=True)
    if len(entries) > op.count:
        return f"returned {len(entries)} > count {op.count}"
    keys = [key for key, __ in entries]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "keys not strictly ascending"
    if keys and keys[0] < op.key:
        return "first key precedes the start key"
    for key, value in entries:
        want = corpus.get(key, inserted.get(key))
        if want is None:
            return f"key {key!r} was never written"
        if value != want:
            return f"key {key!r} has a wrong value"
    # Base-corpus keys are never deleted: each one inside the returned
    # span must be there, and a short result must reach the corpus end.
    short = len(keys) < op.count
    lo = bisect.bisect_left(base, op.key)
    hi = len(base) if short else bisect.bisect_right(base, keys[-1])
    missing = set(base[lo:hi]) - set(keys)
    if missing:
        where = "after its start (short result)" if short else "in its span"
        return f"misses {len(missing)} corpus keys {where}"
    return None


# -- cluster-failover ----------------------------------------------------------

CLUSTER = {
    "nodes": 3,
    "slots": 8,
    "memory_mib_per_node": 4,
    "corpus": 512,
    "kv_size": 13,
    "put_ratio": 0.5,
    "distribution": "uniform",
    # At 6000 ops p99 sits inside one rung of the router's exponential
    # backoff ladder; at 4000 or 8000 it sits on a rung boundary and
    # flips by 2x from seed to seed.
    "ops": 6000,
    "router_workers": 64,
    "kill_node": 0,
    "kill_after_frac": 0.4,
}


class ClusterFailover:
    """``repro cluster --kill-node``: a primary dies mid-run, its slots
    fail over and re-replicate while the router retries."""

    name = "cluster-failover"
    params = CLUSTER
    trials = 2
    #: A run kills a node, so every run needs a fresh build.
    rerunnable = False

    def __init__(self, seed: int) -> None:
        p = self.params
        self.clock = clock = ReferenceClock()
        self.seed = seed
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim, num_nodes=p["nodes"], num_slots=p["slots"],
            config=KVDirectConfig(
                memory_size=p["memory_mib_per_node"] << 20, seed=seed,
            ),
        )
        keyspace = KeySpace(count=p["corpus"], kv_size=p["kv_size"],
                            seed=seed)
        self.pairs = list(keyspace.pairs())
        for key, value in self.pairs:
            self.cluster.preload(key, value)
        for node in self.cluster.nodes:
            node.store.reset_measurements()
        clock.lap()
        self.preload_s = clock.raw_s
        start = time.perf_counter()
        self.ops = YCSBGenerator(keyspace, WorkloadSpec(
            put_ratio=p["put_ratio"], distribution=p["distribution"],
            seed=seed,
        )).operations(p["ops"])
        self.generate_s = time.perf_counter() - start
        self.cluster.kill_after_accepts(
            p["kill_node"],
            max(1, int(p["kill_after_frac"] * len(self.ops) / p["nodes"])),
        )
        self.router = ClusterRouter(self.sim, self.cluster, seed=seed)
        clock.lap()
        self.setup_s = clock.raw_s

    def run(self, tracer=None, check_replicas: bool = True) -> Trial:
        cluster, router = self.cluster, self.router
        processors = [node.stack.processor for node in cluster.nodes]
        stores = [node.store for node in cluster.nodes]
        before = _processor_counts(processors, stores)
        stats, clock = _timed(tracer, lambda: router.run(
            self.ops, concurrency=self.params["router_workers"],
        ))
        counts = _delta(_processor_counts(processors, stores), before)
        counts.update({f"cluster_{k}": v
                       for k, v in sorted(cluster.counters.snapshot().items())})
        counts.update({f"router_{k}": v
                       for k, v in sorted(router.counters.snapshot().items())})
        counts["failover_time_ns"] = int(
            sum(cluster.failover_time_ns.samples())
        )
        return _trial(
            self, run_wall_s=clock.raw_s, run_scaled_s=clock.scaled_s,
            elapsed_ns=stats["elapsed_ns"],
            failed=int(stats["failed"]), completed=int(stats["completed"]),
            latencies=router.latency_ns, counts=counts,
            oracle=_check_cluster(self.sim, cluster, router,
                                  dict(self.pairs), check_replicas),
        )


def _check_cluster(sim, cluster, router, corpus, check_replicas) -> Oracle:
    """After the run: every corpus key reads back its value through the
    router, and (when asked) no backup diverges from its primary."""
    oracle = Oracle()
    digest = hashlib.sha256()
    reads: Dict[bytes, object] = {}

    def read_all():
        for seq, key in enumerate(sorted(corpus)):
            reads[key] = yield from router.perform(
                KVOperation.get(key, seq=seq)
            )

    sim.run(sim.process(read_all()))
    for key in sorted(corpus):
        oracle.checked += 1
        result = reads[key]
        digest.update(key)
        digest.update(result.value or b"")
        if not result.ok or result.value != corpus[key]:
            oracle.wrong.append(f"key {key.hex()} read back {result.value!r}")
    if check_replicas:
        oracle.checked += 1
        oracle.wrong.extend(cluster.replication_divergences())
    oracle.digest = digest.hexdigest()
    return oracle


WORKLOADS = {
    scenario.name: scenario
    for scenario in (YcsbPoint, YcsbEScan, ClusterFailover)
}
