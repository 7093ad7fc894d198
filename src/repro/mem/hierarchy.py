"""Private cache hierarchy: L1 with an optional exclusive L2 behind it.

The CMPs the CE/ARC line of work simulates give each core a private
L1+L2 pair.  :class:`PrivateHierarchy` wraps the two levels behind the
interface the protocols use, with **exclusive** contents (a line lives
in exactly one level):

* ``lookup``   — L1 hit (0 extra cycles), or L2 hit (line promotes to
  L1, pays the L2 latency), or miss (pays the L2 lookup on the way out).
* ``insert``   — install into L1; the L1 victim demotes to L2; the L2
  victim (if any) is the *outward* eviction the protocol must handle
  (writeback, metadata spill...).
* ``peek``     — find a line in either level without promotion or LRU
  update (remote sharer/owner checks, flush loops).
* ``invalidate`` / ``invalidate_where`` — act on both levels.

With ``l2_cfg=None`` the wrapper is a thin pass-through over the L1 and
behaves exactly like the single-level configuration (the default).
"""

from __future__ import annotations

from typing import Any, Callable

from ..common.config import CacheConfig
from .cache import SetAssocCache


class PrivateHierarchy:
    """One core's private cache levels.

    Any operation that installs a line (``insert``, and ``lookup``'s
    L2-to-L1 promotion, whose demoted L1 victim may land in a *different*
    L2 set and overflow it) can push a line out of the hierarchy; every
    such outward eviction is delivered to ``on_evict(line, payload)`` so
    the owner (the protocol) can write back data, spill metadata and fix
    its directory.  Leave ``on_evict`` unset only for standalone use.
    """

    __slots__ = ("l1", "l2", "l2_latency", "on_evict")

    def __init__(
        self,
        l1_cfg: CacheConfig,
        l2_cfg: CacheConfig | None = None,
        on_evict: Callable[[int, Any], None] | None = None,
    ):
        self.l1 = SetAssocCache.from_config(l1_cfg)
        self.l2 = SetAssocCache.from_config(l2_cfg) if l2_cfg is not None else None
        self.l2_latency = l2_cfg.hit_latency if l2_cfg is not None else 0
        self.on_evict = on_evict

    def _evict_out(self, line: int, payload: Any) -> None:
        if self.on_evict is not None:
            self.on_evict(line, payload)

    def _demote(self, line: int, payload: Any) -> None:
        """Push an L1 victim into the L2, evicting outward on overflow."""
        victim = self.l2.insert(line, payload)
        if victim is not None:
            self._evict_out(victim[0], victim[1])

    # -- lookups -----------------------------------------------------------

    def lookup(self, line: int) -> tuple[Any | None, int, bool]:
        """Find a line for a local access.

        Returns ``(payload, extra_latency, from_l2)``.  An L2 hit
        promotes the line into the L1, demoting the L1 victim into the
        L2 (possibly evicting outward via ``on_evict``).
        """
        l1 = self.l1
        entries = l1._sets[(line >> l1._line_shift) % l1.num_sets]
        payload = entries.get(line)
        if payload is not None:  # L1 hit: the SetAssocCache.get LRU touch
            del entries[line]
            entries[line] = payload
            return payload, 0, False
        if self.l2 is None:
            return None, 0, False
        payload = self.l2.get(line, touch=False)
        if payload is None:
            return None, self.l2_latency, False
        self.l2.invalidate(line)
        victim = self.l1.insert(line, payload)
        if victim is not None:
            self._demote(victim[0], victim[1])
        return payload, self.l2_latency, True

    def get(self, line: int, touch: bool = True) -> Any | None:
        """Drop-in for ``SetAssocCache.get``: with ``touch`` the lookup
        promotes L2 hits (latency not reported — use :meth:`lookup` on
        timed paths); without it, a pure :meth:`peek`."""
        if touch:
            payload, _extra, _from_l2 = self.lookup(line)
            return payload
        return self.peek(line)

    def peek(self, line: int) -> Any | None:
        """Find a line in either level without promotion/LRU update."""
        l1 = self.l1
        payload = l1._sets[(line >> l1._line_shift) % l1.num_sets].get(line)
        if payload is None and self.l2 is not None:
            payload = self.l2.get(line, touch=False)
        return payload

    def contains(self, line: int) -> bool:
        return self.peek(line) is not None

    # -- mutation ------------------------------------------------------------

    def insert(self, line: int, payload: Any) -> None:
        """Install a freshly fetched line into the L1.

        The L1 victim demotes to the L2 (when present); whatever falls
        out of the hierarchy is delivered to ``on_evict``.
        """
        victim = self.l1.insert(line, payload)
        if victim is None:
            return
        if self.l2 is None:
            self._evict_out(victim[0], victim[1])
        else:
            self._demote(victim[0], victim[1])

    def invalidate(self, line: int) -> Any | None:
        payload = self.l1.invalidate(line)
        if payload is None and self.l2 is not None:
            payload = self.l2.invalidate(line)
        return payload

    def invalidate_where(
        self, predicate: Callable[[int, Any], bool]
    ) -> list[tuple[int, Any]]:
        dropped = self.l1.invalidate_where(predicate)
        if self.l2 is not None:
            dropped.extend(self.l2.invalidate_where(predicate))
        return dropped

    # -- introspection -----------------------------------------------------------

    def occupancy(self) -> int:
        total = self.l1.occupancy()
        if self.l2 is not None:
            total += self.l2.occupancy()
        return total

    def items(self):
        yield from self.l1.items()
        if self.l2 is not None:
            yield from self.l2.items()

    def levels(self) -> tuple:
        """The resident cache levels, for read-only bulk scans that want
        to iterate set dicts directly (e.g. the sanitizer)."""
        return (self.l1,) if self.l2 is None else (self.l1, self.l2)
