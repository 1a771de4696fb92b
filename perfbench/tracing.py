"""Outside-in span tracing of the simulator's layers.

The traced run wraps public layer entry points from these benchmark files
only; nothing under ``src/`` changes.  Wrappers are installed on the
classes for the duration of the timed run call and removed afterwards.

A *span* covers one synchronous call or one resume of a layer's
simulation generator: a generator-based entry point (``access``,
``read``, ``Stage.run``) returns at once and does its host work in later
resumes, so each resume is timed.  Every span records its name, start,
end, parent span and the op ``seq`` it serves (inherited from the parent
when the call carries none).  Spans are kept in memory and written once,
as Chrome trace-event JSON that Perfetto loads.

A layer's self time is its spans' time minus the time their child spans
cover, children's bookkeeping included, so the tracer's own cost does not
land in the parent's self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.client.client import KVClient
from repro.client.router import ClusterRouter
from repro.core.hashtable import HashTable
from repro.core.index import CompositeIndex
from repro.core.pipeline import (
    AdmissionStage,
    CompleteStage,
    DecodeStage,
    IssueStage,
    MemoryStage,
)
from repro.core.processor import KVProcessor
from repro.dram.host import MemoryImage
from repro.memory.engine import MemoryAccessEngine
from repro.network.batching import BatchDecoder, BatchEncoder
from repro.pcie.dma import DMAEngine
from repro.sim.engine import Event, Process, Simulator


def _seq_of_arg(args) -> int:
    """``seq`` of an op or pipeline context passed as first argument."""
    return args[1].seq


def _last_arg(args) -> int:
    """``seq`` passed positionally last (memory engine and DMA internals)."""
    return args[-1]


def _seq_of_batch(args) -> int:
    return args[1][0].seq if args[1] else -1


#: (span name, class, attribute, kind, seq extractor).  ``call`` spans a
#: synchronous call, ``gen`` every resume of the generator it returns.
SPANS = (
    ("sim.run", Simulator, "run", "call", None),
    ("core.pipeline.submit", KVProcessor, "submit", "call", _seq_of_arg),
    ("core.pipeline.respond", KVProcessor, "respond", "call", _seq_of_arg),
    ("core.pipeline.decode", DecodeStage, "run", "gen", _seq_of_arg),
    ("core.pipeline.admission", AdmissionStage, "run", "gen", _seq_of_arg),
    ("core.pipeline.issue", IssueStage, "run", "gen", _seq_of_arg),
    ("core.pipeline.memory", MemoryStage, "run", "gen", _seq_of_arg),
    ("core.pipeline.complete", CompleteStage, "resolve", "call",
     _seq_of_arg),
    ("core.index.lookup", CompositeIndex, "lookup", "call", None),
    ("core.index.insert", CompositeIndex, "insert", "call", None),
    ("core.index.delete", CompositeIndex, "delete", "call", None),
    ("core.index.scan", CompositeIndex, "scan", "call", None),
    ("memory.engine.access", MemoryAccessEngine, "_access", "gen",
     _last_arg),
    ("memory.engine.cached_line", MemoryAccessEngine, "_cached_line", "gen",
     _last_arg),
    ("pcie.dma.read", DMAEngine, "_read", "gen", _last_arg),
    ("pcie.dma.write", DMAEngine, "_write", "gen", _last_arg),
    ("network.codec.add", BatchEncoder, "add", "call", _seq_of_arg),
    ("network.codec.finish", BatchEncoder, "finish", "call", None),
    ("network.codec.decode", BatchDecoder, "decode", "call", None),
    ("client.batch", KVClient, "_send_batch", "gen", _seq_of_batch),
    ("client.run", KVClient, "_run", "gen", None),
    ("client.perform", ClusterRouter, "perform", "gen", _seq_of_arg),
    ("client.perform_scan", ClusterRouter, "perform_scan", "gen",
     _seq_of_arg),
    ("multi.cluster.table_scan", HashTable, "items", "gen", None),
)


class SpanTracer:
    """In-memory span recorder with online per-span-name aggregation."""

    def __init__(self, record_limit: int = 50_000) -> None:
        #: Open spans: [name, start, child_ns, seq, record index, time the
        #: tracer entered ``open`` for it].
        self._stack: List[list] = []
        #: Inclusive and self nanoseconds, and call counts, per span name.
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Exact counts: wrapped constructors, generators created per span
        #: name, and memory-image calls per index call.
        self.counts: Dict[str, int] = defaultdict(int)
        #: Closed spans kept for the Chrome export, up to ``record_limit``.
        self.records: List[list] = []
        self.record_limit = record_limit
        self.dropped = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str, seq: Optional[int] = None) -> None:
        entered = perf_counter_ns()
        stack = self._stack
        parent = stack[-1] if stack else None
        if seq is None:
            seq = parent[3] if parent else -1
        index = -1
        if len(self.records) < self.record_limit:
            index = len(self.records)
            self.records.append(
                [name, 0, 0, parent[4] if parent else -1, seq]
            )
        else:
            self.dropped += 1
        stack.append([name, 0, 0, seq, index, entered])
        stack[-1][1] = perf_counter_ns()

    def close(self) -> None:
        end = perf_counter_ns()
        name, start, child, __, index, entered = self._stack.pop()
        duration = end - start
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if index >= 0:
            record = self.records[index]
            record[1] = start
            record[2] = end
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - entered

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name: str, fn: Callable, seq_of) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name, seq_of(args) if seq_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return wrapper

    def _wrap_gen(self, name: str, fn: Callable, seq_of) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts["created." + name] += 1
            seq = seq_of(args) if seq_of else None
            return tracer._timed(name, seq, fn(*args, **kwargs))

        return wrapper

    def _timed(self, name: str, seq: Optional[int], gen):
        """Drive ``gen``, timing each resume as one span."""
        value = None
        error: Optional[BaseException] = None
        while True:
            self.open(name, seq)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item, error = gen.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                self.close()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error, value = exc, None

    def _wrap_count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_image(self, fn: Callable) -> Callable:
        """Count memory-image accesses by the index call making them."""
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0].startswith("core.index."):
                counts["accesses." + stack[-1][0]] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point of :data:`SPANS` for the ``with`` body."""
        originals = []

        def patch(cls, attr, wrapper_of):
            fn = cls.__dict__[attr]
            originals.append((cls, attr, fn))
            setattr(cls, attr, wrapper_of(fn))

        for name, cls, attr, kind, seq_of in SPANS:
            wrap = self._wrap_call if kind == "call" else self._wrap_gen
            patch(cls, attr,
                  lambda fn, wrap=wrap, name=name, seq_of=seq_of:
                  wrap(name, fn, seq_of))
        patch(Event, "__init__",
              lambda fn: self._wrap_count("sim.events", fn))
        patch(Process, "__init__",
              lambda fn: self._wrap_count("sim.processes", fn))
        patch(Process, "_resume",
              lambda fn: self._wrap_count("sim.resumes", fn))
        patch(MemoryImage, "read", self._wrap_image)
        patch(MemoryImage, "write", self._wrap_image)
        try:
            yield self
        finally:
            for cls, attr, fn in reversed(originals):
                setattr(cls, attr, fn)

    # -- results ----------------------------------------------------------

    def layer_ns(self, prefix: str, which: str = "self") -> int:
        """Summed self (or inclusive) time of the spans under ``prefix``."""
        table = self.self_ns if which == "self" else self.total_ns
        return sum(ns for name, ns in table.items()
                   if name == prefix or name.startswith(prefix + "."))

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome trace-event JSON (complete events,
        one track; nesting follows the parent links)."""
        closed = [r for r in self.records if r[2]]
        origin = min((r[1] for r in closed), default=0)
        events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "perfbench traced run"},
        }]
        for index, (name, start, end, parent, seq) in enumerate(
            self.records
        ):
            if not end:
                continue
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"span": index, "parent": parent, "seq": seq},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_spans": self.dropped},
        }

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
