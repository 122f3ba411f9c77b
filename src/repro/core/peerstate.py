"""Slot-indexed packed bitmaps over a peer population.

What is left of the struct-of-arrays peer state: the one column family
the end-to-end benchmark showed pays for itself.  The duplicate-
suppression window of a flood (:class:`~repro.sim.queryplane.SeenFilter`)
is one bit per host per live GUID; packed into ``uint64`` words that is
``window / 8`` bytes per host whatever a flood's reach, where per-GUID
host sets cost ``window x reach`` entries.  Liveness, regions and
neighbor sets are plain Python sets and attributes on the objects that
own them (see "Scaling" in ``docs/performance.md`` for the measurements
that retired their array columns).

- :class:`SlotAllocator` — host id ↔ dense slot mapping with a LIFO free
  list; slots of evicted hosts are recycled, and every allocation (fresh
  or recycled) clears the slot's row in all registered columns, so a
  host admitted into a recycled slot can never observe its
  predecessor's bits.
- :class:`Bitmap2D` — one packed bitset per slot (``uint64`` words).
- :class:`PeerState` — the allocator plus its named bitmaps.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


class SlotAllocator:
    """Free-list allocator: arbitrary hashable host ids → dense slots.

    Slots are handed out densely (0, 1, 2, …) and recycled LIFO when
    freed, so the column arrays stay compact under churn instead of
    growing monotonically.  Columns register a ``clear_row(slot)``
    callback; it runs on **every** allocation, which is what guarantees
    a recycled slot carries no stale state.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity < 1:
            raise ConfigurationError("initial capacity must be >= 1")
        self._capacity = int(initial_capacity)
        self._slot_of: dict[Hashable, int] = {}
        self._host_at: list[Optional[Hashable]] = [None] * self._capacity
        self._free: list[int] = []          # LIFO recycled slots
        self._next_fresh = 0                # never-used watermark
        self._clearers: list[Callable[[int], None]] = []
        self._growers: list[Callable[[int], None]] = []
        self.recycles = 0

    # -- capacity ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, host: Hashable) -> bool:
        return host in self._slot_of

    def hosts(self) -> Iterator[Hashable]:
        """Live hosts in slot order (deterministic)."""
        for slot in range(self._next_fresh):
            host = self._host_at[slot]
            if host is not None:
                yield host

    def register(
        self,
        clear_row: Callable[[int], None],
        grow: Callable[[int], None],
    ) -> None:
        """Attach a column: ``clear_row(slot)`` on every alloc,
        ``grow(new_capacity)`` when the slot space expands."""
        self._clearers.append(clear_row)
        self._growers.append(grow)
        grow(self._capacity)

    def _grow(self, needed: int) -> None:
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        self._host_at.extend([None] * (new_cap - self._capacity))
        self._capacity = new_cap
        for grow in self._growers:
            grow(new_cap)

    # -- alloc / free ------------------------------------------------------------
    def alloc(self, host: Hashable) -> int:
        """Admit ``host``; returns its (possibly recycled) slot.  The
        slot's row is cleared in every registered column first."""
        if host in self._slot_of:
            raise ConfigurationError(f"host {host!r} already has a slot")
        if self._free:
            slot = self._free.pop()
            self.recycles += 1
        else:
            if self._next_fresh >= self._capacity:
                self._grow(self._next_fresh + 1)
            slot = self._next_fresh
            self._next_fresh += 1
        self._slot_of[host] = slot
        self._host_at[slot] = host
        for clear in self._clearers:
            clear(slot)
        return slot

    def free(self, host: Hashable) -> int:
        """Evict ``host``; its slot goes on the free list for reuse."""
        slot = self._slot_of.pop(host, None)
        if slot is None:
            raise ConfigurationError(f"host {host!r} has no slot")
        self._host_at[slot] = None
        self._free.append(slot)
        return slot

    def slot_of(self, host: Hashable) -> int:
        return self._slot_of[host]

    def get_slot(self, host: Hashable) -> Optional[int]:
        return self._slot_of.get(host)

    def host_at(self, slot: int) -> Hashable:
        host = self._host_at[slot]
        if host is None:
            raise ConfigurationError(f"slot {slot} is not allocated")
        return host

    @property
    def free_slots(self) -> int:
        """Recycled slots currently awaiting reuse."""
        return len(self._free)

    @property
    def high_water(self) -> int:
        """Highest slot count ever allocated at once (fresh watermark)."""
        return self._next_fresh

    def check_invariants(self) -> None:
        """Free-list accounting must balance exactly — the property the
        10^5-host churn smoke test asserts (no leaked slots)."""
        if len(self._slot_of) + len(self._free) != self._next_fresh:
            raise AssertionError(
                f"slot leak: {len(self._slot_of)} live + {len(self._free)} free "
                f"!= {self._next_fresh} allocated"
            )
        if len(set(self._free)) != len(self._free):
            raise AssertionError("free list contains duplicate slots")


class Bitmap2D:
    """Per-slot packed bitsets: one ``uint64``-word row per slot."""

    def __init__(self, allocator: SlotAllocator, n_bits: int = 64) -> None:
        if n_bits < 1:
            raise ConfigurationError("bitmap width must be >= 1")
        self.n_bits = int(n_bits)
        self._words = (self.n_bits + 63) // 64
        self._bits = np.empty((0, self._words), dtype=np.uint64)
        allocator.register(self._clear_row, self._grow)

    def _grow(self, capacity: int) -> None:
        if capacity <= self._bits.shape[0]:
            return
        bits = np.zeros((capacity, self._words), dtype=np.uint64)
        n = self._bits.shape[0]
        bits[:n] = self._bits
        self._bits = bits

    def _clear_row(self, slot: int) -> None:
        self._bits[slot] = 0

    def _locate(self, bit: int) -> tuple[int, np.uint64]:
        if not (0 <= bit < self.n_bits):
            raise ConfigurationError(
                f"bit {bit} out of range for {self.n_bits}-bit bitmap"
            )
        return bit >> 6, np.uint64(1 << (bit & 63))

    def set(self, slot: int, bit: int) -> None:
        word, mask = self._locate(bit)
        self._bits[slot, word] |= mask

    def clear(self, slot: int, bit: int) -> None:
        word, mask = self._locate(bit)
        self._bits[slot, word] &= ~mask

    def test(self, slot: int, bit: int) -> bool:
        word, mask = self._locate(bit)
        return bool(self._bits[slot, word] & mask)

    def clear_row(self, slot: int) -> None:
        self._bits[slot] = 0

    def count(self, slot: int) -> int:
        """Popcount of one slot's row."""
        return int(
            np.bitwise_count(self._bits[slot]).sum()
            if hasattr(np, "bitwise_count")
            else sum(int(w).bit_count() for w in self._bits[slot])
        )

    def bits(self, slot: int) -> list[int]:
        """Set bit positions of one slot, ascending."""
        row = self._bits[slot]
        out: list[int] = []
        for w, word in enumerate(row):
            word = int(word)
            base = w << 6
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out

    def counts(self, slots: Sequence[int]) -> np.ndarray:
        """Vectorised popcount over a batch of slots."""
        rows = self._bits[np.asarray(slots, dtype=np.intp)]
        if hasattr(np, "bitwise_count"):
            return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        return np.array(
            [sum(int(w).bit_count() for w in r) for r in rows], dtype=np.int64
        )

    # -- column (per-bit) batch operations ----------------------------------------
    def test_slots(self, slots: Sequence[int], bit: int) -> np.ndarray:
        """Vectorised :meth:`test` of one bit over a batch of slots."""
        word, mask = self._locate(bit)
        idx = np.asarray(slots, dtype=np.intp)
        return (self._bits[idx, word] & mask) != 0

    def set_slots(self, slots: Sequence[int], bit: int) -> None:
        """Vectorised :meth:`set` of one bit over a batch of slots."""
        word, mask = self._locate(bit)
        idx = np.asarray(slots, dtype=np.intp)
        self._bits[idx, word] |= mask

    def clear_column(self, bit: int) -> None:
        """Clear one bit across *all* slots (one masked word-column AND —
        how a generation-expired seen-filter key is retired)."""
        word, mask = self._locate(bit)
        self._bits[:, word] &= ~mask


class PeerState:
    """A peer population's slot space and the bitmaps laid over it.

    Each named bitmap (``bitmap("seen", n_bits)``) is an independent
    column family over the same slots, and all of them are cleared
    together when a slot is recycled.
    """

    def __init__(self, *, initial_capacity: int = 64) -> None:
        self.slots = SlotAllocator(initial_capacity)
        self._bitmaps: dict[str, Bitmap2D] = {}

    def bitmap(self, name: str, n_bits: int = 64) -> Bitmap2D:
        """The named bitmap (created on first use)."""
        bm = self._bitmaps.get(name)
        if bm is None:
            bm = Bitmap2D(self.slots, n_bits)
            self._bitmaps[name] = bm
        return bm

    def admit(self, host: Hashable) -> int:
        return self.slots.alloc(host)

    def evict(self, host: Hashable) -> int:
        return self.slots.free(host)

    def __contains__(self, host: Hashable) -> bool:
        return host in self.slots

    def __len__(self) -> int:
        return len(self.slots)

    def slot_of(self, host: Hashable) -> int:
        return self.slots.slot_of(host)

    def memory_bytes(self) -> int:
        """Bytes held by the bitmap arrays (not Python-side indices)."""
        return sum(bm._bits.nbytes for bm in self._bitmaps.values())
