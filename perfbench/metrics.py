"""End-to-end and per-layer metrics of the benchmark.

End-to-end numbers come from untraced trials only.  Host times are taken
at the reference speed: each timed run call and each piece of a build is
bracketed by a fixed reference loop (:func:`reference_time`) and scaled
by ``REFERENCE_NOMINAL_S / reference time``, which takes out most of a
shared machine's drift in speed; the raw medians are reported beside
them.  ``sim_ops_per_wall_s`` is the median over every execution of a
run and ``setup_s`` the median over every build.  Simulated numbers pool
the run's distinct trials, so they are exact for a fixed seed.  Per-layer
numbers come from one traced trial.

:data:`LAYER_METRICS` records, for each per-layer metric, the end-to-end
metric it should move and the workload it should move it on.
"""

from __future__ import annotations

import heapq
import resource
import statistics
import time
from typing import Dict, List

import numpy as np

from repro.sim.stats import Histogram, mops

#: name -> (what it measures, end-to-end metric it should move, on which
#: workload).  Units are declared in BENCHMARK.json.
LAYER_METRICS = {
    "sim.self_us_per_op": (
        "Simulator.run time not covered by any child span",
        "sim_ops_per_wall_s", "ycsb-point"),
    "sim.processes_per_op": (
        "Process objects created (exact)",
        "sim_ops_per_wall_s", "ycsb-point"),
    "sim.events_per_op": (
        "Event objects created, subclasses included (exact)",
        "sim_ops_per_wall_s", "ycsb-point"),
    "sim.resumes_per_op": (
        "Process generator resumes (exact)",
        "sim_ops_per_wall_s", "ycsb-point"),
    "core.pipeline.self_us_per_op": (
        "Stage.run resumes, CompleteStage.resolve, "
        "KVProcessor.submit/respond",
        "sim_ops_per_wall_s", "ycsb-point"),
    "core.index.us_per_op": (
        "Index lookup/insert/delete/scan",
        "sim_mops, sim_ops_per_wall_s", "ycsb-point, ycsb-e-scan"),
    "core.index.accesses_per_get": (
        "MemoryImage.read/write per index lookup (exact; paper ~1)",
        "sim_mops", "ycsb-point"),
    "core.index.accesses_per_put": (
        "MemoryImage.read/write per index insert (exact; paper ~2)",
        "sim_mops", "ycsb-point"),
    "core.index.accesses_per_range": (
        "MemoryImage.read/write per index scan (exact)",
        "sim_mops", "ycsb-e-scan"),
    "core.slab.allocs_per_put": (
        "slab allocations per PUT op (exact)",
        "sim_mops", "ycsb-point"),
    "core.slab.sync_dmas_per_alloc": (
        "slab host-sync DMAs per allocation (paper < 0.1)",
        "sim_mops", "ycsb-point"),
    "core.ooo.forwarded_frac": (
        "ops settled by data forwarding / completed",
        "sim_p99_us", "ycsb-e-scan, ycsb-point"),
    "core.ooo.full_stalls_per_kop": (
        "ingress arrivals finding the station full",
        "sim_p99_us", "ycsb-e-scan, ycsb-point"),
    "memory.engine.us_per_access": (
        "MemoryAccessEngine access/cached-line resumes per access",
        "sim_p50_us, sim_mops", "ycsb-point, ycsb-e-scan"),
    "memory.engine.accesses_per_op": (
        "timed memory accesses replayed (exact)",
        "sim_p50_us, sim_mops", "ycsb-point, ycsb-e-scan"),
    "dram.cache.hit_rate": (
        "NIC-DRAM cache hits / lookups (cache starts empty)",
        "sim_p50_us, sim_mops", "ycsb-point"),
    "pcie.dma_per_op": (
        "PCIe DMA reads + writes (exact)",
        "sim_mops", "ycsb-point"),
    "pcie.dma.us_per_call": (
        "DMAEngine read/write resumes per DMA",
        "sim_mops", "ycsb-point"),
    "network.codec_us_per_op": (
        "BatchEncoder.add/finish + BatchDecoder.decode",
        "sim_ops_per_wall_s, sim_mops", "ycsb-point"),
    "network.wire_bytes_per_op": (
        "request + response bytes on the wire (exact)",
        "sim_mops", "ycsb-point"),
    "client.self_us_per_op": (
        "KVClient batch/run resumes or ClusterRouter.perform",
        "sim_ops_per_wall_s, sim_p99_us", "ycsb-point, cluster-failover"),
    "client.retries_per_kop": (
        "client loss/busy or router NodeDown/WrongEpoch "
        "retries (exact)",
        "sim_p99_us", "cluster-failover"),
    "multi.cluster.table_scan_s": (
        "host time inside HashTable.items() in the timed run",
        "sim_ops_per_wall_s", "cluster-failover"),
    "multi.cluster.table_scans": (
        "HashTable.items() calls in the timed run (exact)",
        "sim_ops_per_wall_s", "cluster-failover"),
    "multi.cluster.failover_sim_us": (
        "simulated failover time (exact)",
        "sim_p99_us", "cluster-failover"),
    "multi.cluster.migrated_keys": (
        "keys copied to fresh backups (exact)",
        "sim_p99_us", "cluster-failover"),
    "multi.cluster.replication_records_per_put": (
        "replication records per PUT op (exact)",
        "sim_mops", "cluster-failover"),
    "workloads.preload_s": (
        "store/cluster build + corpus preload",
        "setup_s", "all, mostly ycsb-point"),
    "workloads.generate_s": (
        "op-stream generation",
        "setup_s", "all"),
    "trace_overhead_frac": (
        "traced / untraced wall of the same trial - 1",
        "-", "all"),
}


#: The reference loop's duration at the reference speed, in seconds (its
#: typical time on the 2-core x86 machine the benchmark was defined on).
REFERENCE_NOMINAL_S = 0.070
#: Slots of the pointer-chasing table (int32, so 16 MiB, all resident).
CHASE_SLOTS = 1 << 22
_chase_table = None


def _event_loop(n: int = 20000) -> None:
    """A fixed pure-Python event loop: generators, a heap, a dict."""
    def proc(i, state):
        for k in range(4):
            state[i % 97] = state.get(i % 97, 0) + k
            yield k

    state: Dict[int, int] = {}
    queue = []
    for seq in range(n // 4):
        heapq.heappush(queue, (seq % 13, seq, proc(seq, state)))
    seq = n // 4
    while queue:
        when, __, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (when + delay + 1, seq, gen))


def _chase_slots():
    """The pointer-chasing table, built on first use: slot -> (slot * a +
    1) mod 2**22 with a = 1 mod 4 is one cycle through every slot, in
    strides no prefetcher follows."""
    global _chase_table
    if _chase_table is None:
        # Built in chunks so the build adds little beyond the table to
        # the high-water mark.
        table = np.empty(CHASE_SLOTS, dtype=np.int32)
        chunk = 1 << 16
        for first in range(0, CHASE_SLOTS, chunk):
            slots = np.arange(first, first + chunk, dtype=np.int64)
            table[first:first + chunk] = (
                (slots * 2654435769 + 1) % CHASE_SLOTS
            )
        _chase_table = memoryview(table)
    return _chase_table


def _chase(table, steps: int = 200_000) -> None:
    """Follow the cycle, one dependent load a step."""
    slot = 0
    for __ in range(steps):
        slot = table[slot]


def reference_time() -> float:
    """Seconds the reference loop takes right now on this machine.

    The loop owes nothing to the program under test: a pure-Python event
    loop, then a pointer chase through a 16 MiB table.  Shared machines
    change speed by tens of percent for seconds to minutes at a time,
    and process CPU time drifts with wall time.  A host time measured
    between two of these and scaled by ``REFERENCE_NOMINAL_S`` over their
    mean reads as if the machine ran at the reference speed (see
    ``perfbench/README.md`` for how much steadier this made each
    workload).
    """
    table = _chase_slots()
    start = time.perf_counter()
    _event_loop()
    _chase(table)
    return time.perf_counter() - start


class ReferenceClock:
    """A host time taken in pieces, raw and at the reference speed.

    Each piece is bracketed by reference loops (shared with the pieces
    next to it), so a long set-up is rescaled piece by piece rather than
    by the machine's speed at its two ends.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._reference_s = reference_time()
        self._start = time.perf_counter()

    def lap(self) -> None:
        """End the current piece and start the next."""
        seconds = time.perf_counter() - self._start
        reference_s = reference_time()
        self.raw_s += seconds
        self.scaled_s += seconds * REFERENCE_NOMINAL_S / (
            (self._reference_s + reference_s) / 2)
        self._reference_s = reference_s
        self._start = time.perf_counter()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mib() -> float:
    """High-water resident set size of this process (Linux: KiB), less
    the reference loop's table, which stays resident from the first
    reference on."""
    table_mib = 0.0 if _chase_table is None else _chase_table.nbytes / 2**20
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - table_mib)


def end_to_end(trials: List, executions: List,
               setups: List) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    ``trials`` are the run's distinct trials (pooled for the simulated
    metrics), ``executions`` every trial execution including repeats and
    ``setups`` every build's :class:`ReferenceClock` (medians for the host
    metrics).
    """
    pooled = Histogram()
    for trial in trials:
        pooled.record_many(trial.latencies_ns)
    completed = sum(t.completed for t in trials)
    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    return {
        "sim_ops_per_wall_s": statistics.median(
            t.completed / t.run_scaled_s for t in executions
        ),
        "sim_ops_per_raw_wall_s": statistics.median(
            t.completed / t.run_wall_s for t in executions
        ),
        "setup_s": statistics.median(clock.scaled_s for clock in setups),
        "setup_raw_s": statistics.median(clock.raw_s for clock in setups),
        "peak_rss_mib": peak_rss_mib(),
        "sim_mops": mops(completed, sum(t.elapsed_ns for t in trials)),
        "sim_p50_us": pooled.percentile(50) / 1e3,
        "sim_p99_us": pooled.percentile(99) / 1e3,
        "completed_frac": 1.0 - _ratio(failed, attempted),
        "failed_frac": _ratio(failed, attempted),
        "latency_samples": float(pooled.count),
    }


def per_layer(trial, tracer, untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced trial."""
    ops = trial.attempted
    c = trial.counts
    t = tracer
    puts = trial.mix.get("put", 0)
    mem_accesses = c.get("mem_reads", 0) + c.get("mem_writes", 0)
    dmas = c.get("dma_reads", 0) + c.get("dma_writes", 0)
    hits = c.get("mem_cache_hits", 0)
    allocs = c.get("slab_allocs", 0)
    retries = (c.get("client_retries", 0)
               + c.get("router_node_down_retries", 0)
               + c.get("router_wrong_epoch_retries", 0))

    def accesses_per(call: str) -> float:
        name = f"core.index.{call}"
        return _ratio(t.counts["accesses." + name], t.calls[name])

    return {
        "sim.self_us_per_op": t.self_ns["sim.run"] / ops / 1e3,
        "sim.processes_per_op": t.counts["sim.processes"] / ops,
        "sim.events_per_op": t.counts["sim.events"] / ops,
        "sim.resumes_per_op": t.counts["sim.resumes"] / ops,
        "core.pipeline.self_us_per_op": t.layer_ns("core.pipeline") / ops
        / 1e3,
        "core.index.us_per_op": t.layer_ns("core.index", "total") / ops / 1e3,
        "core.index.accesses_per_get": accesses_per("lookup"),
        "core.index.accesses_per_put": accesses_per("insert"),
        "core.index.accesses_per_range": accesses_per("scan"),
        "core.slab.allocs_per_put": _ratio(allocs, puts),
        "core.slab.sync_dmas_per_alloc": _ratio(
            c.get("slab_sync_reads", 0) + c.get("slab_sync_writes", 0),
            allocs),
        "core.ooo.forwarded_frac": _ratio(c.get("forwarded", 0),
                                          c.get("completed", 0)),
        "core.ooo.full_stalls_per_kop": c.get("station_full_stalls", 0)
        / ops * 1e3,
        "memory.engine.us_per_access": _ratio(
            t.layer_ns("memory.engine"), mem_accesses) / 1e3,
        "memory.engine.accesses_per_op": mem_accesses / ops,
        "dram.cache.hit_rate": _ratio(
            hits, hits + c.get("mem_cache_misses", 0)),
        "pcie.dma_per_op": dmas / ops,
        "pcie.dma.us_per_call": _ratio(t.layer_ns("pcie.dma"), dmas) / 1e3,
        "network.codec_us_per_op": t.layer_ns("network.codec", "total")
        / ops / 1e3,
        "network.wire_bytes_per_op": (
            c.get("client_request_bytes", 0)
            + c.get("client_response_bytes", 0)) / ops,
        "client.self_us_per_op": t.layer_ns("client") / ops / 1e3,
        "client.retries_per_kop": retries / ops * 1e3,
        "multi.cluster.table_scan_s":
            t.total_ns["multi.cluster.table_scan"] / 1e9,
        "multi.cluster.table_scans": float(
            t.counts["created.multi.cluster.table_scan"]),
        "multi.cluster.failover_sim_us": c.get("failover_time_ns", 0) / 1e3,
        "multi.cluster.migrated_keys": float(
            c.get("cluster_migrated_keys", 0)),
        "multi.cluster.replication_records_per_put": _ratio(
            c.get("cluster_replication_records", 0), puts),
        "workloads.preload_s": trial.preload_s,
        "workloads.generate_s": trial.generate_s,
        "trace_overhead_frac": trial.run_wall_s / untraced_wall_s - 1.0,
    }
