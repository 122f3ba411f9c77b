"""Unit tests for the slot allocator and packed bitmaps (repro.core.peerstate).

The recycled-slot regressions at the bottom pin the bug class the
free-list design exists to prevent: a host admitted into a recycled slot
inheriting its predecessor's bitmap bits.
"""

import numpy as np
import pytest

from repro.core.peerstate import Bitmap2D, PeerState, SlotAllocator
from repro.errors import ConfigurationError


# -- SlotAllocator ------------------------------------------------------------------
class TestSlotAllocator:
    def test_dense_allocation(self):
        alloc = SlotAllocator(4)
        assert [alloc.alloc(f"h{i}") for i in range(3)] == [0, 1, 2]
        assert len(alloc) == 3
        assert alloc.slot_of("h1") == 1
        assert alloc.host_at(2) == "h2"
        assert list(alloc.hosts()) == ["h0", "h1", "h2"]

    def test_lifo_recycling(self):
        alloc = SlotAllocator(4)
        for i in range(3):
            alloc.alloc(i)
        alloc.free(0)
        alloc.free(2)
        # LIFO: the most recently freed slot (2) is reused first
        assert alloc.alloc("new-a") == 2
        assert alloc.alloc("new-b") == 0
        assert alloc.recycles == 2
        assert alloc.alloc("fresh") == 3  # free list drained -> fresh slot

    def test_grows_past_initial_capacity(self):
        alloc = SlotAllocator(2)
        for i in range(10):
            alloc.alloc(i)
        assert alloc.capacity >= 10
        assert len(alloc) == 10
        assert [alloc.slot_of(i) for i in range(10)] == list(range(10))

    def test_double_alloc_raises(self):
        alloc = SlotAllocator()
        alloc.alloc("x")
        with pytest.raises(ConfigurationError):
            alloc.alloc("x")

    def test_free_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            SlotAllocator().free("ghost")

    def test_host_at_unallocated_raises(self):
        alloc = SlotAllocator()
        alloc.alloc("x")
        alloc.free("x")
        with pytest.raises(ConfigurationError):
            alloc.host_at(0)

    def test_invariants_hold_under_churn(self):
        alloc = SlotAllocator(2)
        rng = np.random.default_rng(0)
        live = set()
        for _ in range(500):
            if live and rng.random() < 0.45:
                host = live.pop()
                alloc.free(host)
            else:
                host = int(rng.integers(10_000))
                if host not in live:
                    alloc.alloc(host)
                    live.add(host)
            alloc.check_invariants()
        assert len(alloc) == len(live)
        assert len(alloc) + alloc.free_slots == alloc.high_water

    def test_clear_callback_runs_on_every_alloc(self):
        alloc = SlotAllocator(4)
        cleared = []
        alloc.register(cleared.append, lambda cap: None)
        alloc.alloc("a")
        alloc.alloc("b")
        alloc.free("a")
        alloc.alloc("c")  # recycles a's slot
        assert cleared == [0, 1, 0]


# -- Bitmap2D -----------------------------------------------------------------------
class TestBitmap2D:
    def test_set_clear_test(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=130)  # multi-word row
        s = alloc.alloc("n")
        for bit in (0, 63, 64, 129):
            bm.set(s, bit)
        assert bm.bits(s) == [0, 63, 64, 129]
        assert bm.count(s) == 4
        assert bm.test(s, 64)
        bm.clear(s, 64)
        assert not bm.test(s, 64)
        assert bm.bits(s) == [0, 63, 129]

    def test_out_of_range_raises(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=8)
        s = alloc.alloc("n")
        with pytest.raises(ConfigurationError):
            bm.set(s, 8)
        with pytest.raises(ConfigurationError):
            bm.test(s, -1)

    def test_batch_counts(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=64)
        slots = [alloc.alloc(i) for i in range(3)]
        for i, s in enumerate(slots):
            for bit in range(i + 1):
                bm.set(s, bit)
        assert bm.counts(slots).tolist() == [1, 2, 3]


# -- PeerState ----------------------------------------------------------------------
class TestPeerState:
    def test_membership(self):
        state = PeerState(initial_capacity=2)
        assert state.admit("a") == 0
        assert state.admit("b") == 1
        assert "a" in state and len(state) == 2
        assert state.slot_of("b") == 1
        state.evict("a")
        assert "a" not in state and len(state) == 1
        with pytest.raises(ConfigurationError):
            state.evict("a")

    def test_named_column_families_are_cached(self):
        state = PeerState()
        assert state.bitmap("pieces", 32) is state.bitmap("pieces")
        assert state.bitmap("pieces") is not state.bitmap("seen")

    def test_memory_bytes_counts_all_columns(self):
        state = PeerState(initial_capacity=8)
        state.admit("a")
        assert state.memory_bytes() == 0
        state.bitmap("pieces", 256)
        one = state.memory_bytes()
        state.bitmap("seen", 64)
        assert state.memory_bytes() > one > 0


# -- recycled-slot regressions ------------------------------------------------------
class TestRecycledSlotHygiene:
    def test_recycled_slot_rows_are_clean(self):
        """Evict A, admit B into A's slot: B must not inherit A's bits
        in any bitmap."""
        state = PeerState(initial_capacity=4)
        pieces = state.bitmap("pieces", 64)
        seen = state.bitmap("seen", 130)
        slot_a = state.admit("A")
        pieces.set(slot_a, 3)
        seen.set(slot_a, 129)
        state.evict("A")
        slot_b = state.admit("B")
        assert slot_b == slot_a  # the slot really was recycled
        assert pieces.bits(slot_b) == []
        assert seen.bits(slot_b) == []

    def test_column_created_after_recycling_starts_clean(self):
        """A bitmap created *after* slots have churned must still present
        clean rows for later recycled allocations."""
        state = PeerState(initial_capacity=4)
        state.admit("A")
        state.evict("A")
        late = state.bitmap("late", 8)
        slot = state.admit("B")
        assert late.bits(slot) == []
