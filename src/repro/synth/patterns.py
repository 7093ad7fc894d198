"""Building blocks for synthetic workload generators.

Two helpers do the heavy lifting:

* :class:`AddressSpace` hands out disjoint, line-aligned allocations so
  generators can lay out private heaps, shared arrays and lock-protected
  structures without accidental overlap.
* :class:`TraceAssembler` builds one thread's trace from vectorized
  *blocks* of accesses (NumPy arrays — the fast path, per the HPC
  guides) mixed with scalar sync events, concatenating once at the end.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TraceError
from ..trace.events import (
    ACQUIRE,
    BARRIER,
    EVENT_DTYPE,
    READ,
    RELEASE,
    WRITE,
    ThreadTrace,
)


class AddressSpace:
    """Bump allocator for disjoint, aligned address ranges."""

    def __init__(self, base: int = 0x10000, line_size: int = 64):
        self.line_size = line_size
        self._next = base

    def alloc(self, nbytes: int, align: int | None = None) -> int:
        """Allocate ``nbytes``; returns the base address."""
        if nbytes <= 0:
            raise TraceError("allocation size must be positive")
        align = align or self.line_size
        self._next = (self._next + align - 1) // align * align
        base = self._next
        self._next += nbytes
        return base

    def alloc_lines(self, num_lines: int) -> int:
        """Allocate ``num_lines`` whole cache lines."""
        return self.alloc(num_lines * self.line_size, align=self.line_size)

    def alloc_per_thread(self, num_threads: int, nbytes_each: int) -> list[int]:
        """Disjoint per-thread regions, each line-aligned (no false sharing)."""
        return [self.alloc(nbytes_each, align=self.line_size) for _ in range(num_threads)]


class TraceAssembler:
    """Fast per-thread trace assembly from event blocks."""

    def __init__(self, line_size: int = 64):
        self.line_size = line_size
        self._blocks: list[np.ndarray] = []
        self._held: list[int] = []

    def _scalar(self, kind: int, sync_id: int, gap: int) -> None:
        block = np.empty(1, dtype=EVENT_DTYPE)
        block["kind"] = kind
        block["addr"] = 0
        block["size"] = 0
        block["sync_id"] = sync_id
        block["gap"] = gap
        self._blocks.append(block)

    # -- sync events -----------------------------------------------------------

    def acquire(self, lock_id: int, gap: int = 0) -> "TraceAssembler":
        self._scalar(ACQUIRE, lock_id, gap)
        self._held.append(lock_id)
        return self

    def release(self, lock_id: int, gap: int = 0) -> "TraceAssembler":
        if lock_id not in self._held:
            raise TraceError(f"release of lock {lock_id} that is not held")
        self._held.remove(lock_id)
        self._scalar(RELEASE, lock_id, gap)
        return self

    def barrier(self, barrier_id: int, gap: int = 0) -> "TraceAssembler":
        if self._held:
            raise TraceError(f"barrier while holding locks {self._held}")
        self._scalar(BARRIER, barrier_id, gap)
        return self

    # -- access blocks -----------------------------------------------------------

    def accesses(
        self,
        addrs: np.ndarray,
        writes: np.ndarray | bool,
        size: int = 8,
        gap: int = 0,
    ) -> "TraceAssembler":
        """Append a block of same-sized accesses.

        ``addrs`` must be size-aligned (so no access straddles a line);
        ``writes`` is a bool array (or scalar) selecting stores.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        if addrs.size == 0:
            return self
        if np.any(addrs % np.uint64(size) != 0):
            raise TraceError(f"block addresses must be {size}-byte aligned")
        n = len(addrs)
        block = np.empty(n, dtype=EVENT_DTYPE)
        if isinstance(writes, (bool, np.bool_)):
            block["kind"] = WRITE if writes else READ
        else:
            writes = np.asarray(writes, dtype=bool)
            if len(writes) != n:
                raise TraceError("writes mask length mismatch")
            block["kind"] = np.where(writes, WRITE, READ).astype(np.uint8)
        block["addr"] = addrs
        block["size"] = size
        block["sync_id"] = -1
        block["gap"] = gap
        self._blocks.append(block)
        return self

    def reads(self, addrs: np.ndarray, size: int = 8, gap: int = 0) -> "TraceAssembler":
        return self.accesses(addrs, False, size=size, gap=gap)

    def writes(self, addrs: np.ndarray, size: int = 8, gap: int = 0) -> "TraceAssembler":
        return self.accesses(addrs, True, size=size, gap=gap)

    def read(self, addr: int, size: int = 8, gap: int = 0) -> "TraceAssembler":
        return self.accesses(np.array([addr], dtype=np.uint64), False, size=size, gap=gap)

    def write(self, addr: int, size: int = 8, gap: int = 0) -> "TraceAssembler":
        return self.accesses(np.array([addr], dtype=np.uint64), True, size=size, gap=gap)

    # -- finalization ----------------------------------------------------------------

    def build(self) -> ThreadTrace:
        if self._held:
            raise TraceError(f"trace ends holding locks {self._held}")
        if not self._blocks:
            return ThreadTrace(np.empty(0, dtype=EVENT_DTYPE))
        # the explicit dtype skips NumPy's per-block structured-field promotion
        return ThreadTrace(np.concatenate(self._blocks, dtype=EVENT_DTYPE))


def strided_span(base: int, count: int, stride: int = 8) -> np.ndarray:
    """Addresses ``base, base+stride, ...`` (``count`` of them)."""
    return (np.arange(count, dtype=np.uint64) * np.uint64(stride)) + np.uint64(base)


def random_span(
    rng: np.random.Generator, base: int, span_bytes: int, count: int, stride: int = 8
) -> np.ndarray:
    """``count`` random stride-aligned addresses within ``[base, base+span)``."""
    slots = span_bytes // stride
    if slots <= 0:
        raise TraceError("span too small for stride")
    picks = rng.integers(0, slots, size=count, dtype=np.uint64)
    return picks * np.uint64(stride) + np.uint64(base)
