"""Generic set-associative cache with true-LRU replacement.

The same structure backs the private L1s, the shared LLC banks, and the
AIM metadata cache — only the payload differs (coherence state, line
presence, or access-information entries).  Keys are *line base
addresses*; payloads are arbitrary (the protocols store small mutable
state objects).

The implementation keeps one insertion-ordered dict per set and realizes
LRU by delete-and-reinsert on touch, which is the fastest pure-Python
LRU for the simulator's access mix (guide: avoid per-event object
allocation in hot loops).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..common.config import CacheConfig
from ..common.errors import SimulationError


class SetAssocCache:
    """A set-associative LRU cache mapping line address -> payload."""

    __slots__ = ("num_sets", "assoc", "_line_shift", "_sets")

    def __init__(self, num_sets: int, assoc: int, line_size: int):
        if num_sets <= 0 or assoc <= 0:
            raise SimulationError("cache geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self._line_shift = line_size.bit_length() - 1
        self._sets: list[dict[int, Any]] = [dict() for _ in range(num_sets)]

    @classmethod
    def from_config(cls, cfg: CacheConfig) -> "SetAssocCache":
        return cls(cfg.num_sets, cfg.assoc, cfg.line_size)

    def _set_for(self, line_addr: int) -> dict[int, Any]:
        # get/insert/PrivateHierarchy.lookup inline this probe
        return self._sets[(line_addr >> self._line_shift) % self.num_sets]

    # -- core operations ---------------------------------------------------

    def get(self, line_addr: int, touch: bool = True) -> Any | None:
        """Payload for ``line_addr`` or None; updates LRU unless ``touch=False``."""
        entries = self._sets[(line_addr >> self._line_shift) % self.num_sets]
        payload = entries.get(line_addr)
        if payload is not None and touch:
            del entries[line_addr]
            entries[line_addr] = payload
        return payload

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._set_for(line_addr)

    def insert(
        self, line_addr: int, payload: Any
    ) -> tuple[int, Any] | None:
        """Insert (or replace) a line as most-recently-used.

        Returns the evicted ``(line_addr, payload)`` if the set was full,
        else None.  Replacing an existing line never evicts.
        """
        if payload is None:
            raise SimulationError("cache payloads may not be None")
        entries = self._sets[(line_addr >> self._line_shift) % self.num_sets]
        if line_addr in entries:
            del entries[line_addr]
            entries[line_addr] = payload
            return None
        victim = None
        if len(entries) >= self.assoc:
            victim_addr = next(iter(entries))  # least recently used
            victim = (victim_addr, entries.pop(victim_addr))
        entries[line_addr] = payload
        return victim

    def invalidate(self, line_addr: int) -> Any | None:
        """Remove a line, returning its payload (None if absent)."""
        return self._set_for(line_addr).pop(line_addr, None)

    def peek_victim(self, line_addr: int) -> tuple[int, Any] | None:
        """The ``(addr, payload)`` that inserting ``line_addr`` would evict."""
        entries = self._set_for(line_addr)
        if line_addr in entries or len(entries) < self.assoc:
            return None
        victim_addr = next(iter(entries))
        return victim_addr, entries[victim_addr]

    # -- bulk operations ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, Any]]:
        """All resident ``(line_addr, payload)`` pairs (LRU order per set)."""
        for entries in self._sets:
            yield from entries.items()

    def raw_sets(self) -> list[dict[int, Any]]:
        """The per-set entry dicts, for *read-only* fast scans — callers
        must not mutate them (the sanitizer's bulk checks)."""
        return self._sets

    def invalidate_where(
        self, predicate: Callable[[int, Any], bool]
    ) -> list[tuple[int, Any]]:
        """Invalidate every line satisfying ``predicate``; return them.

        Used by ARC's self-invalidation: drop all *shared* lines at an
        acquire in one sweep.
        """
        dropped: list[tuple[int, Any]] = []
        for entries in self._sets:
            doomed = [addr for addr, payload in entries.items() if predicate(addr, payload)]
            for addr in doomed:
                dropped.append((addr, entries.pop(addr)))
        return dropped

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(entries) for entries in self._sets)

    def __len__(self) -> int:
        return self.occupancy()
