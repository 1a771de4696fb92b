"""Tests for chained-bucket unlinking on delete, and for the home-bucket
occupancy map that lets ``HashTable.items()`` skip empty buckets."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import BUCKET_SIZE
from repro.core.hashindex import POINTER_GRANULARITY, Bucket
from repro.core.hashtable import _RECORD_HEADER
from repro.core.slab_host import class_size
from repro.errors import FaultInjected
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from tests.test_hashtable import make_table


def reference_scan(table):
    """Every stored KV by a full-capacity walk of all home buckets.

    Reads with the uncounted ``peek`` and ignores the occupancy map, so
    ``table.items()`` must yield exactly this sequence, order included.
    """
    for index in range(table.num_buckets):
        addr = table.bucket_addr(index)
        while True:
            bucket = Bucket.unpack(table.memory.peek(addr, BUCKET_SIZE))
            for start, __ in bucket.inline_spans():
                yield bucket.read_inline(start)
            for slot, pointer, __ in bucket.pointer_slots():
                raw = table.memory.peek(
                    pointer * POINTER_GRANULARITY,
                    class_size(bucket.slab_types[slot]),
                )
                klen, vlen = _RECORD_HEADER.unpack_from(raw)
                base = _RECORD_HEADER.size
                yield (
                    raw[base : base + klen],
                    raw[base + klen : base + klen + vlen],
                )
            if not bucket.chain_ptr:
                break
            addr = bucket.chain_ptr * POINTER_GRANULARITY


def _chained_table(keys=300):
    """A 10-bucket table forced into heavy chaining."""
    table = make_table(memory_size=1 << 16, index_ratio=0.01)
    names = [b"key%04d" % i for i in range(keys)]
    for key in names:
        table.put(key, b"v" * 30)
    assert table.counters["chained_buckets"] > 0
    return table, names


class TestChainUnlinking:
    def test_unlink_after_full_delete(self):
        table, keys = _chained_table()
        for key in keys:
            assert table.delete(key)
        assert table.counters["unlinked_buckets"] > 0
        assert len(table) == 0

    def test_unlinked_buckets_return_to_allocator(self):
        table, keys = _chained_table()
        chained = table.counters["chained_buckets"]
        frees_before = table.allocator.counters["frees"]
        for key in keys:
            table.delete(key)
        # Every chained 64 B bucket (plus every 30 B record) was freed.
        freed = table.allocator.counters["frees"] - frees_before
        assert freed >= chained + len(keys)

    def test_survivors_still_reachable_after_unlink(self):
        table, keys = _chained_table()
        for key in keys[::2]:
            table.delete(key)
        for key in keys[1::2]:
            assert table.get(key) == b"v" * 30

    def test_chain_shrinks_and_regrows(self):
        """After delete + unlink, re-inserting reuses freed buckets."""
        table, keys = _chained_table()
        for key in keys:
            table.delete(key)
        for key in keys:
            table.put(key, b"w" * 30)
        for key in keys:
            assert table.get(key) == b"w" * 30

    def test_primary_bucket_never_unlinked(self):
        table = make_table(memory_size=1 << 16, index_ratio=0.01)
        table.put(b"solo", b"v")
        table.delete(b"solo")
        assert table.counters["unlinked_buckets"] == 0

    def test_get_cost_drops_after_unlink(self):
        """Unlinking shortens chains, so lookups get cheaper again."""
        table, keys = _chained_table()
        survivors = keys[:20]
        table.get_cost = type(table.get_cost)()
        for key in survivors:
            table.get(key)
        cost_before = table.get_cost.mean
        for key in keys[20:]:
            table.delete(key)
        table.get_cost = type(table.get_cost)()
        for key in survivors:
            table.get(key)
        assert table.get_cost.mean <= cost_before

    @given(st.lists(st.integers(0, 120), min_size=1, max_size=250))
    @settings(
        max_examples=20,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_churn_consistency(self, indices):
        """Random put/delete churn through chained buckets stays
        dict-consistent with unlinking active."""
        table = make_table(memory_size=1 << 17, index_ratio=0.005)
        model = {}
        for i, index in enumerate(indices):
            key = b"k%03d" % index
            if i % 3 == 2 and key in model:
                assert table.delete(key)
                del model[key]
            else:
                value = b"v" * (10 + index % 40)
                table.put(key, value)
                model[key] = value
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value
        assert dict(table.items()) == model
        assert list(table.items()) == list(reference_scan(table))

    @pytest.mark.parametrize("seed", range(4))
    def test_churn_consistency_under_slab_exhaustion(self, seed):
        """Puts that raise part-way on an injected slab exhaustion keep
        the occupancy invariant: items() still equals the full scan."""
        injector = FaultInjector(
            FaultPlan(slab_exhaust_prob=0.2), seed=seed
        )
        table = make_table(
            memory_size=1 << 17, index_ratio=0.005, injector=injector
        )
        rng = random.Random(seed)
        model = {}
        for i in range(400):
            index = rng.randrange(120)
            key = b"k%03d" % index
            if i % 3 == 2 and key in model:
                assert table.delete(key)
                del model[key]
                continue
            value = b"v" * (10 + rng.randrange(40))
            try:
                table.put(key, value)
                model[key] = value
            except FaultInjected:
                # A raising put leaves the key in whatever state the
                # partial write left; resync the model from the table.
                model.pop(key, None)
                stored = table.get(key)
                if stored is not None:
                    model[key] = stored
        assert injector.fired > 0
        assert dict(table.items()) == model
        assert list(table.items()) == list(reference_scan(table))


class TestOccupancyMap:
    def test_items_work_does_not_grow_with_num_buckets(self, monkeypatch):
        """items() peeks once per occupied home plus once per slab record:
        the same exact count at 2^12 and 2^16 buckets."""
        keys = [b"wk%03d" % i for i in range(50)]
        peeks = {}
        for log2 in (12, 16):
            table = make_table(memory_size=2 << (log2 + 6), index_ratio=0.5)
            assert table.num_buckets == 1 << log2
            for i, key in enumerate(keys):
                # Even keys stay inline, odd keys get a 40 B slab record.
                table.put(key, b"i" * 8 if i % 2 == 0 else b"r" * 40)
            calls = []
            real_peek = table.memory.peek

            def counting_peek(addr, size, real_peek=real_peek, calls=calls):
                calls.append(addr)
                return real_peek(addr, size)

            monkeypatch.setattr(table.memory, "peek", counting_peek)
            assert sorted(table.items()) == sorted(
                (key, table.get(key)) for key in keys
            )
            peeks[log2] = len(calls)
        # The 50 keys have distinct homes at 2^12 buckets (hence also at
        # 2^16): 50 home-bucket peeks plus 25 record peeks.
        assert peeks == {12: 75, 16: 75}

    def test_delete_clears_the_mark(self):
        table = make_table()
        table.put(b"solo", b"v")
        assert sum(table._occupied) == 1
        table.delete(b"solo")
        assert sum(table._occupied) == 0
        assert list(table.items()) == []

    def test_chained_home_stays_marked_until_chain_empties(self):
        table, keys = _chained_table()
        homes = sum(table._occupied)
        assert homes == table.num_buckets
        for key in keys[:-1]:
            table.delete(key)
        assert list(table.items()) == list(reference_scan(table))
        assert list(table.items()) == [(keys[-1], b"v" * 30)]
        table.delete(keys[-1])
        assert sum(table._occupied) == 0
