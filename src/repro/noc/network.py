"""Mesh network timing + traffic accounting.

``MeshNetwork.send`` is the single entry point the protocols use to move
a message.  It returns the message latency:

``hops * (router + link) + (flits - 1)``  (wormhole pipelining)
``+ sum of per-link queueing penalties``  (contention)

Contention is tracked per directed link in coarse windows: each link can
carry one flit per cycle; when the flits charged to a link within the
current window exceed ``saturation_fraction`` of the window, messages
crossing it pay a penalty that ramps up to ``max_queue_penalty``.  The
network also records the peak per-window link utilization and the number
of link-windows that saturated — the quantities behind the paper's
observation that CE+ *saturates the on-chip interconnect* at high core
counts while ARC does not.
"""

from __future__ import annotations

import numpy as np

from ..common.config import NocConfig
from .messages import NUM_CATEGORIES
from .topology import MeshTopology

_RAMP_END = 1.5  # utilization at which the queue penalty is fully applied


def _count_threshold(cap: float, limit: float, strict: bool) -> int:
    """Smallest flit count ``c`` whose utilization ``c / cap`` passes
    ``limit`` (``>`` when ``strict``, else ``>=``).

    Float division is monotone in ``c``, so ``c >= threshold`` is
    exactly the float test on ``c / cap`` — what lets the send path
    compare integer counts instead of dividing on every link.
    """

    def passes(count: int) -> bool:
        utilization = count / cap
        return utilization > limit if strict else utilization >= limit

    count = max(0, int(limit * cap) - 1)
    while passes(count) and count > 0:
        count -= 1
    while not passes(count):
        count += 1
    return count


class MeshNetwork:
    """Timing/accounting model over a :class:`MeshTopology`.

    Per-window link loads are plain int lists (one slot per directed
    link).  Utilization is ``count / window_cycles``, which is monotone
    in the count, so the send path tests saturation and tracks the peak
    on integer counts; the float utilization is only formed when a
    message actually pays a queue penalty.
    """

    __slots__ = (
        "cfg",
        "topology",
        "flit_hops_by_category",
        "messages_by_category",
        "queue_delay_cycles",
        "saturated_link_windows",
        "_peak_count",
        "_window_links",
        "_window_cycles",
        "_window_cap",
        "_flit_bytes",
        "_paths",
        "_num_tiles",
        "_num_links",
        "_sat_count",
        "_full_count",
    )

    def __init__(self, topology: MeshTopology, cfg: NocConfig):
        self.cfg = cfg
        self.topology = topology
        self.flit_hops_by_category = [0] * NUM_CATEGORIES
        self.messages_by_category = [0] * NUM_CATEGORIES
        self.queue_delay_cycles = 0
        self.saturated_link_windows = 0
        # largest pre-send flit count any traversed link carried
        self._peak_count = 0
        # window index -> per-link flit counts for that window
        self._window_links: dict[int, list[int]] = {}
        self._window_cycles = cfg.window_cycles
        self._window_cap = float(cfg.window_cycles)
        self._flit_bytes = cfg.flit_bytes
        # per (src, dst) tile pair: (route, hops, hop latency of the route)
        hop_latency = cfg.router_latency + cfg.link_latency
        self._paths = [
            (route, len(route), len(route) * hop_latency) for route in topology.routes
        ]
        self._num_tiles = topology.num_tiles
        self._num_links = topology.num_links
        # a link is past saturation_fraction above _sat_count flits and
        # full (utilization >= 1) from _full_count flits on
        self._sat_count = (
            _count_threshold(self._window_cap, cfg.saturation_fraction, strict=True)
            - 1
        )
        self._full_count = _count_threshold(self._window_cap, 1.0, strict=False)

    # -- accounting views ------------------------------------------------------

    @property
    def total_flit_hops(self) -> int:
        return sum(self.flit_hops_by_category)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_category)

    @property
    def peak_link_utilization(self) -> float:
        """Highest utilization a message found on a link it crossed."""
        return self._peak_count / self._window_cap

    def link_utilization(self, cycle: int) -> np.ndarray:
        """Per-link utilization (flits/cycle) in ``cycle``'s window."""
        window = cycle // self.cfg.window_cycles
        counts = self._window_links.get(window)
        if counts is None:
            return np.zeros(self._num_links)
        return np.array(counts, dtype=np.float64) / self._window_cap

    # -- the send path -----------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload_bytes: int,
        category: int,
        cycle: int,
    ) -> int:
        """Send one message; returns its latency in cycles.

        ``src == dst`` models a tile-local transfer (core to its own LLC
        bank): zero network latency and zero flit-hops, but the message
        is still counted in ``messages_by_category``.
        """
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        flit_bytes = self._flit_bytes
        flits = 1 + (payload_bytes + flit_bytes - 1) // flit_bytes
        self.messages_by_category[category] += 1
        if src == dst:
            return 0

        route, hops, route_latency = self._paths[src * self._num_tiles + dst]
        self.flit_hops_by_category[category] += flits * hops

        window = cycle // self._window_cycles
        counts = self._window_links.get(window)
        if counts is None:
            counts = [0] * self._num_links
            self._window_links[window] = counts
            if len(self._window_links) > 8:
                self._prune(window)

        delay = 0
        peak = self._peak_count
        sat = self._sat_count
        # one compare per link unless the link sets a new peak or is
        # past saturation
        quiet = peak if peak < sat else sat
        for link in route:
            count = counts[link]
            if count > quiet:
                if count > peak:
                    peak = self._peak_count = count
                if count > sat:
                    delay += self._queue_penalty(count)
                    if count >= self._full_count:
                        self.saturated_link_windows += 1
                quiet = peak if peak < sat else sat
            counts[link] = count + flits

        base = route_latency + flits - 1
        if delay:
            self.queue_delay_cycles += delay
            return base + delay
        return base

    def _queue_penalty(self, count: int) -> int:
        """Cycles a message pays to cross a link past saturation."""
        cfg = self.cfg
        threshold = cfg.saturation_fraction
        utilization = count / self._window_cap
        frac = min((utilization - threshold) / (_RAMP_END - threshold), 1.0)
        return int(frac * cfg.max_queue_penalty)

    def _prune(self, current_window: int) -> None:
        for key in [w for w in self._window_links if w < current_window - 4]:
            del self._window_links[key]
