"""Unit and property tests for the mesh topology and network model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import NocConfig
from repro.common.errors import ConfigError
from repro.noc import (
    DATA,
    NUM_CATEGORIES,
    REQ,
    MeshNetwork,
    MeshTopology,
    flits_for_payload,
)


class TestFlits:
    @pytest.mark.parametrize(
        "payload,flit,expected",
        [(0, 16, 1), (1, 16, 2), (16, 16, 2), (64, 16, 5), (8, 8, 2)],
    )
    def test_sizing(self, payload, flit, expected):
        assert flits_for_payload(payload, flit) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            flits_for_payload(-1, 16)


class TestTopology:
    def test_geometry(self):
        topo = MeshTopology(4, 4)
        assert topo.num_tiles == 16
        # 2 directed links per edge; 4x4 mesh has 24 undirected edges
        assert topo.num_links == 48

    def test_coords(self):
        topo = MeshTopology(4, 2)
        assert topo.coords(0) == (0, 0)
        assert topo.coords(5) == (1, 1)
        with pytest.raises(ConfigError):
            topo.coords(8)

    def test_self_route_empty(self):
        topo = MeshTopology(4, 4)
        assert topo.route(5, 5) == ()
        assert topo.hops(5, 5) == 0

    def test_hops_are_manhattan(self):
        topo = MeshTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                sx, sy = topo.coords(src)
                dx, dy = topo.coords(dst)
                assert topo.hops(src, dst) == abs(sx - dx) + abs(sy - dy)

    def test_route_links_are_contiguous(self):
        topo = MeshTopology(4, 4)
        route = topo.route(0, 15)
        tiles = [topo.links[route[0]][0]]
        for link in route:
            src, dst = topo.links[link]
            assert src == tiles[-1]
            tiles.append(dst)
        assert tiles[0] == 0 and tiles[-1] == 15

    def test_xy_routing_goes_x_first(self):
        topo = MeshTopology(4, 4)
        route = topo.route(0, 5)  # (0,0) -> (1,1)
        first_src, first_dst = topo.links[route[0]]
        # first hop changes the x coordinate
        assert topo.coords(first_dst)[0] != topo.coords(first_src)[0]

    def test_bad_dimensions(self):
        with pytest.raises(ConfigError):
            MeshTopology(0, 4)

    def test_machines_of_one_geometry_share_the_route_table(self):
        from repro.common.config import SystemConfig
        from repro.core.machine import Machine

        a = Machine(SystemConfig(num_cores=16))
        b = Machine(SystemConfig(num_cores=16))
        assert a.topology is b.topology
        assert isinstance(a.topology.routes, tuple)
        assert a.net._paths is b.net._paths
        # the networks' per-run state stays private
        assert a.net is not b.net
        assert a.net._window_links is not b.net._window_links
        # another geometry gets its own table
        small = Machine(SystemConfig(num_cores=4))
        assert small.topology is not a.topology
        assert small.net._paths is not a.net._paths


class TestNetwork:
    def make(self, **kw):
        return MeshNetwork(MeshTopology(4, 4), NocConfig(**kw))

    def test_local_send_is_free(self):
        net = self.make()
        assert net.send(3, 3, 64, DATA, 0) == 0
        assert net.total_flit_hops == 0
        assert net.total_messages == 1

    def test_latency_composition(self):
        net = self.make()
        # 0 -> 15 is 6 hops; ctrl message = 1 flit
        assert net.send(0, 15, 0, REQ, 0) == 6 * 3
        # data = 5 flits: pipelining adds flits-1
        assert net.send(0, 15, 64, DATA, 0) == 6 * 3 + 4

    def test_flit_hop_accounting_by_category(self):
        net = self.make()
        net.send(0, 1, 0, REQ, 0)   # 1 hop x 1 flit
        net.send(0, 1, 64, DATA, 0)  # 1 hop x 5 flits
        assert net.flit_hops_by_category[REQ] == 1
        assert net.flit_hops_by_category[DATA] == 5
        assert net.total_flit_hops == 6

    def test_contention_penalty(self):
        net = self.make(window_cycles=64, saturation_fraction=0.2,
                        max_queue_penalty=40)
        base = net.send(0, 3, 64, DATA, 0)
        for _ in range(20):
            last = net.send(0, 3, 64, DATA, 0)
        assert last > base
        assert net.queue_delay_cycles > 0
        assert net.peak_link_utilization > 0.2

    def test_saturation_counter(self):
        net = self.make(window_cycles=16, saturation_fraction=0.5)
        for _ in range(50):
            net.send(0, 3, 64, DATA, 0)
        assert net.saturated_link_windows > 0

    def test_contention_fades_in_new_window(self):
        net = self.make(window_cycles=64, saturation_fraction=0.2,
                        max_queue_penalty=40)
        for _ in range(30):
            net.send(0, 3, 64, DATA, 0)
        fresh = net.send(0, 3, 64, DATA, 10_000_000)
        assert fresh == 3 * 3 + 4

    def test_link_utilization_view(self):
        net = self.make(window_cycles=100)
        net.send(0, 1, 64, DATA, 0)
        util = net.link_utilization(0)
        assert util.max() == pytest.approx(5 / 100)
        assert net.link_utilization(10_000_000).max() == 0.0

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_send_latency_nonnegative_and_symmetricish(self, src, dst):
        net = self.make()
        latency = net.send(src, dst, 0, REQ, 0)
        assert latency >= 0
        if src != dst:
            assert latency > 0


class _FloatArrayNetwork:
    """The float-array contention model ``MeshNetwork`` replaced, kept
    verbatim as the reference the integer-count send path must match:
    per-window NumPy float link loads, utilization divided out on every
    link, the peak tracked as a float."""

    _RAMP_END = 1.5

    def __init__(self, topology, cfg):
        self.cfg = cfg
        self.topology = topology
        self.flit_hops_by_category = [0] * NUM_CATEGORIES
        self.messages_by_category = [0] * NUM_CATEGORIES
        self.queue_delay_cycles = 0
        self.peak_link_utilization = 0.0
        self.saturated_link_windows = 0
        self._window_links = {}
        self._window_cap = float(cfg.window_cycles)

    def link_utilization(self, cycle):
        window = cycle // self.cfg.window_cycles
        counts = self._window_links.get(window)
        if counts is None:
            return np.zeros(self.topology.num_links)
        return counts / self._window_cap

    def send(self, src, dst, payload_bytes, category, cycle):
        flits = flits_for_payload(payload_bytes, self.cfg.flit_bytes)
        self.messages_by_category[category] += 1
        if src == dst:
            return 0

        route = self.topology.route(src, dst)
        hops = len(route)
        self.flit_hops_by_category[category] += flits * hops

        window = cycle // self.cfg.window_cycles
        counts = self._window_links.get(window)
        if counts is None:
            counts = np.zeros(self.topology.num_links)
            self._window_links[window] = counts
            if len(self._window_links) > 8:
                self._prune(window)

        delay = 0
        sat_threshold = self.cfg.saturation_fraction
        for link in route:
            utilization = counts[link] / self._window_cap
            if utilization > self.peak_link_utilization:
                self.peak_link_utilization = utilization
            if utilization > sat_threshold:
                frac = min(
                    (utilization - sat_threshold)
                    / (self._RAMP_END - sat_threshold),
                    1.0,
                )
                delay += int(frac * self.cfg.max_queue_penalty)
                if utilization >= 1.0:
                    self.saturated_link_windows += 1
            counts[link] += flits

        if delay:
            self.queue_delay_cycles += delay
        base = hops * (self.cfg.router_latency + self.cfg.link_latency) + (flits - 1)
        return base + delay

    def _prune(self, current_window):
        for key in [w for w in self._window_links if w < current_window - 4]:
            del self._window_links[key]


_NOC_CONFIGS = st.builds(
    NocConfig,
    flit_bytes=st.sampled_from([8, 16, 32]),
    window_cycles=st.sampled_from([3, 7, 16, 64, 100, 2048]),
    saturation_fraction=st.one_of(
        st.sampled_from([0.1, 0.2, 0.3, 0.55, 0.7, 1.0]),
        st.floats(0.01, 1.0),
    ),
    max_queue_penalty=st.integers(0, 100),
)

_SENDS = st.lists(
    st.tuples(
        st.integers(0, 15),                       # src
        st.integers(0, 15),                       # dst
        st.sampled_from([0, 1, 8, 16, 32, 64]),   # payload bytes
        st.integers(0, NUM_CATEGORIES - 1),       # category
        st.integers(0, 40),                       # window of the cycle
        st.integers(0, 2047),                     # cycle within it
    ),
    max_size=300,
)


class TestNetworkMatchesFloatModel:
    """The integer-count send path against the float-array reference.

    The bench suite never saturates a link (its saturation figure reads
    0 saturated link-windows and 0 queue cycles), so output digests
    cannot police the penalty branch; this differential test does, with
    saturating configs, out-of-order cycles and window pruning.
    """

    @staticmethod
    def _assert_same(net, ref, cycles):
        assert net.queue_delay_cycles == ref.queue_delay_cycles
        assert net.saturated_link_windows == ref.saturated_link_windows
        assert net.peak_link_utilization == ref.peak_link_utilization
        assert net.flit_hops_by_category == ref.flit_hops_by_category
        assert net.messages_by_category == ref.messages_by_category
        for cycle in cycles:
            np.testing.assert_array_equal(
                net.link_utilization(cycle), ref.link_utilization(cycle)
            )

    @settings(max_examples=200, deadline=None)
    @given(_NOC_CONFIGS, _SENDS)
    def test_random_sends(self, cfg, sends):
        topo = MeshTopology(4, 4)
        net, ref = MeshNetwork(topo, cfg), _FloatArrayNetwork(topo, cfg)
        cycles = []
        for src, dst, payload, category, window, offset in sends:
            cycle = window * cfg.window_cycles + offset % cfg.window_cycles
            cycles.append(cycle)
            assert net.send(src, dst, payload, category, cycle) == ref.send(
                src, dst, payload, category, cycle
            )
        self._assert_same(net, ref, cycles)

    @settings(max_examples=50, deadline=None)
    @given(
        _NOC_CONFIGS,
        st.lists(st.integers(0, 3), min_size=1, max_size=400),
    )
    def test_hot_link_saturates_identically(self, cfg, windows):
        # every message shares link 0 -> 1, so counts climb past the
        # saturation and full-utilization thresholds within a window
        topo = MeshTopology(4, 4)
        net, ref = MeshNetwork(topo, cfg), _FloatArrayNetwork(topo, cfg)
        for window in windows:
            cycle = window * cfg.window_cycles
            assert net.send(0, 3, 64, DATA, cycle) == ref.send(
                0, 3, 64, DATA, cycle
            )
        self._assert_same(net, ref, [w * cfg.window_cycles for w in range(4)])

    def test_pruned_window_restarts_empty(self):
        cfg = NocConfig(window_cycles=16, saturation_fraction=0.2)
        topo = MeshTopology(4, 4)
        net, ref = MeshNetwork(topo, cfg), _FloatArrayNetwork(topo, cfg)
        for cycle in [0] * 20 + [16 * w for w in range(1, 12)] + [0] * 20:
            assert net.send(0, 3, 64, DATA, cycle) == ref.send(
                0, 3, 64, DATA, cycle
            )
        # window 0 was pruned while later windows filled, so the late
        # sends at cycle 0 start it over from empty on both models
        self._assert_same(net, ref, [0, 16, 160])
        assert net.saturated_link_windows > 0
