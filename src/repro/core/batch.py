"""Two-tier batch simulation engine.

The scalar engine (:class:`~repro.core.simulator.Simulator`) dispatches
one event at a time through the full protocol model; for most programs
the overwhelming majority of those events are L1 hits on lines no other
core ever observes.  :class:`BatchSimulator` exploits that: a
whole-program classification pass (vectorized over the trace columns, or
chunk-streamed for ``.rtb`` programs) splits cache lines into

``PRIVATE(t)``
    only thread ``t`` ever accesses the line — reads *and* writes are
    fast-path candidates;
``RO_SHARED``
    two or more threads access it but nobody ever writes — reads are
    fast-path candidates;
``CONTENDED``
    everything else — always dispatched through the protocol model.

Per heap pop the engine consumes the maximal run of consecutive
fast-path-eligible L1 hits and applies it in bulk: clock advance from a
prefix-sum, stats counters in one add, access masks OR-folded per line
with ``np.bitwise_or.reduceat``, and the exact scalar LRU order
reproduced by touching distinct lines in ascending last-occurrence
order.  Sync events, misses and contended accesses fall back to the
untouched scalar ``_step`` at identical cycles in identical global heap
order.

Equivalence is byte-exact, not approximate, because a fast-pathed hit
performs *no* interaction with shared machine state: no NoC message, no
DRAM/LLC access, no directory or bank-table read or write.  The run's
effects are confined to the issuing core's own L1 payloads, its LRU
order, and additive stats counters — so every residue event still
observes exactly the state it would have under scalar execution.  The
per-line runtime gates below close the only cross-core visibility
windows:

* the line must be resident in the L1 proper (an L2 hit promotes and
  can cascade-demote — protocol-visible, so it stays scalar);
* MESI-family private lines must be in E/M (a write hit below E takes
  the upgrade path);
* CE/CE+ read-only-shared lines must already be downgraded to S — while
  the first reader still holds E, a remote reader's forward inspects the
  holder's live mask/region state (``_check_remote``), which bulk
  application would perturb mid-run;
* ARC lines must have ``shared`` matching their classification — while
  a read-only-shared line is still classified private, the
  private-to-shared recovery reads the previous owner's live masks, so
  those accesses stay scalar until the transition lands.

``tests/test_engine_equiv.py`` + :mod:`repro.verify.diffengine` enforce
the guarantee across every registered workload and protocol;
docs/ENGINE.md walks through the argument and the debugging workflow.
"""

from __future__ import annotations

import os

import numpy as np

from ..common.errors import ConfigError
from ..protocols.base import E as _E
from ..protocols.base import M as _M
from ..protocols.base import S as _S
from ..trace.events import WRITE
from .simulator import Simulator

#: env var selecting the engine across process boundaries (harness
#: workers are forked and rebuild their own simulators — same pattern
#: as $REPRO_SANITIZE)
ENGINE_ENV = "REPRO_ENGINE"

ENGINES = ("scalar", "batch")

#: the batch engine is the default: the differential suite pins it
#: byte-identical to scalar, so there is no accuracy trade-off
DEFAULT_ENGINE = "batch"

#: classification codes (``codes[i] >= 0`` means private to that thread)
CONTENDED = -1
RO_SHARED = -2

#: eligible islands shorter than this, wedged between ineligible
#: events, are merged into the surrounding scalar stretch — the
#: per-pop fast-path machinery costs more than it saves there
_MIN_ISLAND = 4

#: runs below this length take the single-pass Python path (dict
#: aggregation); above it, fixed NumPy call overhead is amortized and
#: the vectorized path wins
_SMALL_RUN = 64

#: candidate-run cap: bounds the single argsort/reduceat working set of
#: one bulk application.  Block-doubling validation already bounds the
#: cost of a failure near the head, so the cap can be generous — large
#: runs amortize the per-run fixed costs (validation scan, argsort)
#: that dominate in dispatch-bound steady state.
_MAX_RUN = 32768

#: adaptive bail-out sampling period, in heap pops per core: every
#: period, a core whose bulk runs covered fewer than 2 events per pop
#: stops trying the fast path (residue-dominated: cheaper pure-scalar)
_ADAPT_PERIOD = 512


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the engine choice: explicit argument, then ``$REPRO_ENGINE``,
    then the default."""
    value = engine if engine is not None else os.environ.get(ENGINE_ENV)
    if value is None or not value.strip():
        return DEFAULT_ENGINE
    value = value.strip().lower()
    if value not in ENGINES:
        raise ConfigError(
            f"unknown engine {value!r}: expected one of {', '.join(ENGINES)}"
        )
    return value


def make_simulator(
    cfg,
    program,
    recorder=None,
    *,
    sanitize: bool | None = None,
    engine: str | None = None,
):
    """Build the selected engine's simulator for ``program`` on ``cfg``.

    This is the one construction point the library and harness share;
    both engines produce byte-identical results, so cache keys and
    golden outputs are engine-independent.
    """
    if resolve_engine(engine) == "batch":
        return BatchSimulator(cfg, program, recorder, sanitize=sanitize)
    return Simulator(cfg, program, recorder, sanitize=sanitize)


# --------------------------------------------------------------------------
# whole-program line classification
# --------------------------------------------------------------------------


class LineClassification:
    """Sorted line-address table mapping each line to its sharing class.

    ``lines`` is a sorted ``uint64`` array of every line the program
    accesses; ``codes[i]`` is the owning thread id for private lines,
    :data:`RO_SHARED` or :data:`CONTENDED`.
    """

    __slots__ = ("lines", "codes")

    def __init__(self, lines: np.ndarray, codes: np.ndarray):
        self.lines = lines
        self.codes = codes

    def code_of(self, line: int) -> int:
        """Class code of one line (:data:`CONTENDED` if never accessed)."""
        pos = int(np.searchsorted(self.lines, np.uint64(line)))
        if pos < len(self.lines) and int(self.lines[pos]) == line:
            return int(self.codes[pos])
        return CONTENDED

    def codes_for(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`code_of` over a line-address array."""
        if len(self.lines) == 0:
            return np.full(len(lines), CONTENDED, dtype=np.int64)
        pos = np.searchsorted(self.lines, lines)
        pos = np.minimum(pos, len(self.lines) - 1)
        found = self.lines[pos] == lines
        return np.where(found, self.codes[pos], np.int64(CONTENDED))

    def counts(self) -> dict[str, int]:
        """Class population sizes (diagnostics and tests)."""
        return {
            "private": int(np.count_nonzero(self.codes >= 0)),
            "ro_shared": int(np.count_nonzero(self.codes == RO_SHARED)),
            "contended": int(np.count_nonzero(self.codes == CONTENDED)),
        }


def classify_program(program, line_size: int) -> LineClassification:
    """Classify every line ``program`` touches by its sharing pattern.

    Streams each trace chunk-by-chunk (``ThreadTrace.iter_chunks`` is a
    single chunk for materialized traces, the decoded ``.rtb`` chunks
    for streamed ones), keeping only per-thread *unique line* sets in
    memory — O(working set), never O(events).
    """
    return _classify_exact(program, line_size)[0]


def check_static_hint(
    program, line_size: int, hint: LineClassification
) -> None:
    """Check that a static classification over-approximates the exact one.

    ``hint`` comes from the static analyzer
    (:meth:`repro.statics.StaticReport.line_hint`).  It may move a line
    *up* the sharing lattice, never down: exact CONTENDED requires hint
    CONTENDED; exact RO_SHARED allows RO_SHARED or CONTENDED; exact
    PRIVATE(t) allows PRIVATE(t), CONTENDED, or — only for lines the
    program never writes — RO_SHARED.  Anything else would treat a line
    more optimistically than the trace warrants, and raises
    :class:`~repro.common.errors.StaticSoundnessError`.
    """
    from ..common.errors import StaticSoundnessError

    exact, written = _classify_exact(program, line_size)
    if len(exact.lines) == 0:
        return
    hint_codes = hint.codes_for(exact.lines)
    ever_written = (
        np.isin(exact.lines, written)
        if len(written)
        else np.zeros(len(exact.lines), dtype=bool)
    )
    ok = hint_codes == np.int64(CONTENDED)
    ok |= (exact.codes == np.int64(RO_SHARED)) & (
        hint_codes == np.int64(RO_SHARED)
    )
    ok |= (exact.codes >= 0) & (hint_codes == exact.codes)
    ok |= (
        (exact.codes >= 0)
        & (hint_codes == np.int64(RO_SHARED))
        & ~ever_written
    )
    bad = np.flatnonzero(~ok)
    if len(bad):
        i = int(bad[0])
        raise StaticSoundnessError(
            f"static hint understates sharing on {len(bad)} line(s): "
            f"e.g. line {int(exact.lines[i]):#x} is exactly "
            f"{int(exact.codes[i])} but hinted {int(hint_codes[i])} "
            f"(codes >= 0 private, {RO_SHARED} ro-shared, "
            f"{CONTENDED} contended)"
        )


def _classify_exact(
    program, line_size: int
) -> tuple[LineClassification, np.ndarray]:
    """The streaming exact pass; also returns the ever-written line set
    (needed by :func:`check_static_hint`, which must not bless an
    RO_SHARED hint over a privately *written* line)."""
    shift = np.uint64(line_size.bit_length() - 1)
    per_thread: list[np.ndarray] = []
    written_parts: list[np.ndarray] = []
    for trace in program.traces:
        touched = np.empty(0, dtype=np.uint64)
        written = np.empty(0, dtype=np.uint64)
        for events in trace.iter_chunks():
            kinds = events["kind"]
            access = kinds <= WRITE
            lines = (events["addr"][access] >> shift) << shift
            touched = np.union1d(touched, lines)
            wlines = (events["addr"][kinds == WRITE] >> shift) << shift
            if len(wlines):
                written = np.union1d(written, wlines)
        per_thread.append(touched.astype(np.uint64))
        if len(written):
            written_parts.append(written.astype(np.uint64))

    all_written = (
        np.unique(np.concatenate(written_parts))
        if written_parts
        else np.empty(0, dtype=np.uint64)
    )
    if not any(len(t) for t in per_thread):
        return (
            LineClassification(
                np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
            ),
            all_written,
        )

    cat = np.concatenate(per_thread)
    tids = np.concatenate(
        [
            np.full(len(t), tid, dtype=np.int64)
            for tid, t in enumerate(per_thread)
        ]
    )
    order = np.argsort(cat, kind="stable")
    sorted_lines = cat[order]
    sorted_tids = tids[order]
    # group boundaries: per-thread arrays are unique, so a group's size
    # is the number of distinct threads touching that line
    new_group = np.empty(len(sorted_lines), dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, len(sorted_lines)))
    uniq = sorted_lines[starts]
    ever_written = (
        np.isin(uniq, all_written)
        if len(all_written)
        else np.zeros(len(uniq), dtype=bool)
    )
    codes = np.where(
        counts == 1,
        sorted_tids[starts],
        np.where(ever_written, np.int64(CONTENDED), np.int64(RO_SHARED)),
    ).astype(np.int64)
    return LineClassification(uniq, codes), all_written


# --------------------------------------------------------------------------
# the batch engine
# --------------------------------------------------------------------------


class _Window:
    """One decoded chunk of a core's trace, with fast-path precomputes."""

    __slots__ = (
        "start",
        "end",
        "addrs",
        "sizes",
        "iswrite",
        "lines",
        "masks",
        "codes",
        "gapnm",
        "cum",
        "bad",
        "bad_stretch_end",
        "prev_occ",
    )


class BatchSimulator(Simulator):
    """Drop-in :class:`Simulator` with the vectorized fast path.

    ``force_residue_lines`` demotes the given line base addresses to the
    residue tier regardless of classification — the divergence-debugging
    knob (see docs/ENGINE.md): demoting any fast-path line must be
    behavior-preserving, so bisecting over this set localizes a faulty
    bulk update to one line.

    The fast path disables itself (falling back to pure scalar stepping)
    when a recorder is attached (the oracle needs every access in
    per-event order) or when the bounded sparse directory is configured
    (directory recalls can invalidate private/read-only lines from
    another core's transaction mid-run).
    """

    def __init__(
        self,
        cfg,
        program,
        recorder=None,
        *,
        sanitize: bool | None = None,
        force_residue_lines=(),
    ):
        super().__init__(cfg, program, recorder, sanitize=sanitize)
        self._fast = (
            recorder is None and cfg.directory_entries_per_bank is None
        )
        n = program.num_threads
        self._windows: list[_Window | None] = [None] * n
        self._chunk_iters: list = [None] * n
        self._scalar_until = [0] * n
        self._bad_ptr = [0] * n
        self._pops = [0] * n
        self._adapt_cov = [0] * n
        self._bailed = 0
        self._forced = np.unique(
            np.asarray(sorted(int(a) for a in force_residue_lines), dtype=np.uint64)
        )
        protocol = self.protocol
        self._is_mesi_family = hasattr(protocol, "directory")
        self._is_ce_family = hasattr(protocol, "meta_table")
        self._is_arc = hasattr(protocol, "owner_table")
        self._line_shift = np.uint64(cfg.line_size.bit_length() - 1)
        self._line_mask = ~(cfg.line_size - 1)
        self._hit_cost = cfg.nonmem_cycles_per_event + cfg.l1.hit_latency
        self._sanitize_checks: list | None = None
        self.classification = (
            classify_program(program, cfg.line_size)
            if self._fast
            else None
        )
        if not self._fast:
            # run() resolves ``self._step`` per pop, so shadowing the
            # override with the scalar bound method removes even the
            # shim's dispatch overhead when the fast path is off
            self._step = Simulator._step.__get__(self)

    def run(self):
        try:
            return super().run()
        finally:
            # The shed shim (a bound method) and the chunk streams
            # (generators over self) make this simulator a reference
            # cycle; drop them so a finished simulation is freed by
            # reference counting rather than by the cyclic collector.
            self.__dict__.pop("_step", None)
            self._chunk_iters = []

    # -- window management -------------------------------------------------

    def _chunk_stream(self, core: int):
        start = 0
        for events in self.program.traces[core].iter_chunks():
            yield start, events
            start += len(events)

    def _advance_window(self, core: int, idx: int) -> _Window:
        it = self._chunk_iters[core]
        if it is None:
            it = self._chunk_iters[core] = self._chunk_stream(core)
        while True:
            start, events = next(it)
            if idx < start + len(events):
                break
        win = _Window()
        win.start = start
        win.end = start + len(events)
        kinds = events["kind"]
        addrs = events["addr"]
        sizes = events["size"]
        win.addrs = addrs
        win.sizes = sizes
        win.iswrite = kinds == WRITE
        win.lines = (addrs >> self._line_shift) << self._line_shift
        offsets = addrs - win.lines
        win.masks = (
            (np.uint64(1) << sizes.astype(np.uint64)) - np.uint64(1)
        ) << offsets
        win.codes = self.classification.codes_for(win.lines)
        win.gapnm = events["gap"].astype(np.int64) + self.cfg.nonmem_cycles_per_event
        # prefix sum of the full fast-path cost per event: gap + non-mem
        # cycles + the L1 hit latency the access would charge
        win.cum = np.cumsum(win.gapnm + self.cfg.l1.hit_latency)
        is_access = kinds <= WRITE
        core_t = np.int64(core)
        eligible = is_access & (
            (win.codes == core_t) | (~win.iswrite & (win.codes == RO_SHARED))
        )
        if len(self._forced):
            eligible &= ~np.isin(win.lines, self._forced)
        bad0 = np.flatnonzero(~eligible)
        if len(bad0) > 1:
            # merge eligible islands shorter than _MIN_ISLAND into the
            # surrounding ineligible stretch (interval-cover via a
            # difference array): tiny islands between contended events
            # aren't worth the per-pop fast-path setup
            d = np.diff(bad0)
            short = np.flatnonzero((d > 1) & (d <= _MIN_ISLAND))
            if len(short):
                delta = np.zeros(len(eligible) + 1, dtype=np.int32)
                np.add.at(delta, bad0[short] + 1, 1)
                np.add.at(delta, bad0[short] + d[short], -1)
                eligible &= ~(np.cumsum(delta[:-1]) > 0)
        bad = np.flatnonzero(~eligible)
        # bad_stretch_end[j] = first eligible position after the run of
        # consecutive ineligible positions containing bad[j]: lets _step
        # hand a whole contended/sync stretch to the scalar tier with one
        # integer compare per event.  Kept as plain lists — _step walks
        # them with a monotone per-core pointer, no per-pop bisect.
        if len(bad):
            ends = np.append(np.flatnonzero(np.diff(bad) != 1), len(bad) - 1)
            starts = np.append(0, ends[:-1] + 1)
            win.bad_stretch_end = np.repeat(bad[ends] + 1, ends - starts + 1).tolist()
        else:
            win.bad_stretch_end = []
        win.bad = bad.tolist()
        # prev_occ[p] = window position of the previous event on the same
        # line (-1 if p is the line's first appearance): one stable sort
        # here lets run validation find a run's distinct lines without
        # re-sorting the candidate on every heap pop
        order = np.argsort(win.lines, kind="stable")
        sl = win.lines[order]
        prev = np.full(len(sl), -1, dtype=np.int64)
        if len(sl) > 1:
            same = sl[1:] == sl[:-1]
            prev[order[1:][same]] = order[:-1][same]
        win.prev_occ = prev
        self._windows[core] = win
        return win

    # -- the event loop ----------------------------------------------------

    def _step(self, core: int, clock: int) -> None:
        if not self._fast:
            Simulator._step(self, core, clock)
            return
        idx = self.indices[core]
        if idx >= self._lengths[core]:
            self._finish(core, clock)
            return
        # adaptive bail-out: on a core where pops overwhelmingly take
        # the scalar tier (contended stretches, runtime misses,
        # state-gate rejections), the fast-path machinery — including
        # this shim — is pure overhead.  Per sampling period of heap
        # pops, measure how many events bulk application actually
        # covered; below ~2 per pop, hand the core to the scalar tier
        # for good, and once every core has bailed shed the shim itself.
        pops = self._pops[core] + 1
        self._pops[core] = pops
        if not pops & (_ADAPT_PERIOD - 1) and pops != _ADAPT_PERIOD:
            # cumulative ratio, not a per-period window — one contended
            # phase must not permanently demote a core whose long-run
            # coverage is healthy — and never at the first sample, which
            # the cold-miss warmup drags below break-even on dispatch-
            # bound workloads too
            if self._adapt_cov[core] < pops * 2:
                self._scalar_until[core] = self._lengths[core]
                self._bailed += 1
                if self._bailed >= self.program.num_threads - self._num_finished:
                    # run() resolves self._step per pop, so shadowing
                    # the override drops even the shim dispatch cost
                    self._step = Simulator._step.__get__(self)
                Simulator._step(self, core, clock)
                return
        if idx < self._scalar_until[core]:
            # inside a known-ineligible stretch: pure scalar, no numpy
            Simulator._step(self, core, clock)
            return
        self._attempt(core, clock, idx)
        self._adapt_cov[core] += self.indices[core] - idx

    def _attempt(self, core: int, clock: int, idx: int) -> None:
        win = self._windows[core]
        if win is None or idx >= win.end:
            win = self._advance_window(core, idx)
            self._bad_ptr[core] = 0
        r = idx - win.start
        # advance the per-core cursor into the (sorted) ineligible
        # positions; r is monotone within a window, so this walk is
        # amortized O(len(bad)) per window, not a bisect per pop
        bad = win.bad
        nbad = len(bad)
        j = self._bad_ptr[core]
        while j < nbad and bad[j] < r:
            j += 1
        self._bad_ptr[core] = j
        if j < nbad and bad[j] == r:
            # the event at r itself is ineligible; delegate its whole
            # contiguous ineligible stretch to the scalar tier
            self._scalar_until[core] = win.start + win.bad_stretch_end[j]
            Simulator._step(self, core, clock)
            return
        # cheap pre-check of the head event's line before any run setup:
        # after a miss-heavy stretch this is the common exit, and it
        # costs one dict probe instead of a slice conversion
        payload = self.protocol.l1[core].l1.get(
            self._addrs[core][idx] & self._line_mask, touch=False
        )
        if payload is None or not self._payload_ok(
            payload, int(win.codes[r]), core
        ):
            Simulator._step(self, core, clock)
            return
        stop = bad[j] if j < nbad else win.end - win.start
        n = min(stop - r, _MAX_RUN)
        if n >= _SMALL_RUN:
            n = self._validated_length(core, win, r, n)
        if 0 < n < _SMALL_RUN:
            if self._run_small(core, win, r, n, clock):
                return
            n = 0
        if n <= 0:
            Simulator._step(self, core, clock)
            return
        self._apply_run(core, win, r, n, clock)

    def _validated_length(self, core: int, win: _Window, r: int, n: int) -> int:
        """Largest eligible prefix whose lines pass the residency/state
        gates; a failing line truncates the run at its first occurrence
        (that occurrence then executes scalar — typically a miss).

        Lines are checked in first-occurrence order with early exit:
        every event before the first failure touches only lines that
        already passed.  Block doubling keeps the cost proportional to
        the *validated* length — a cold/capacity miss right after the
        run head costs one small block scan, not a sort of the whole
        eligible stretch.
        """
        l1 = self.protocol.l1[core].l1
        payload_ok = self._payload_ok
        codes = win.codes
        lines = win.lines
        prev = win.prev_occ
        done = 0
        block = 64
        while done < n:
            lo = r + done
            hi = lo + min(block, n - done)
            # first occurrences (relative to the run) within this block
            firsts = np.flatnonzero(prev[lo:hi] < r)
            for p in (firsts + lo).tolist():
                payload = l1.get(int(lines[p]), touch=False)
                if payload is None or not payload_ok(
                    payload, int(codes[p]), core
                ):
                    return p - r
            done = hi - r
            block *= 2
        return n

    def _payload_ok(self, payload, code: int, core: int) -> bool:
        if self._is_arc:
            return payload.shared == (code == RO_SHARED)
        if code == RO_SHARED:
            # CE-family RO lines fast-path only once downgraded to S:
            # an E-state holder's masks are still remotely observable
            # via the first reader's forward (_check_remote).
            if self._is_ce_family:
                return payload.state == _S
            return True
        return payload.state >= _E

    # -- run application ---------------------------------------------------

    def _run_small(self, core: int, win: _Window, r: int, n: int, clock: int) -> bool:
        """Single-pass Python path for short-to-medium runs: validation,
        mask aggregation and LRU ordering fold into one loop over the
        engine's plain-list event columns (NumPy fixed costs dominate at
        these lengths); lines, byte masks and the clock advance are
        computed the way the window precomputes them.

        Aggregates until the first event whose line fails a gate, then
        applies the aggregated prefix.  Returns False (nothing applied,
        caller goes scalar) when the very first event fails.
        """
        start = win.start + r
        kinds = self._kinds[core]
        addrs = self._addrs[core]
        sizes = self._sizes[core]
        gaps = self._gaps[core]
        line_mask = self._line_mask
        codes = win.codes
        protocol = self.protocol
        l1 = protocol.l1[core].l1
        l1_get = l1.get
        payload_ok = self._payload_ok
        # agg: line -> [payload, read_or, write_or, last_index]
        agg: dict = {}
        writes = 0
        consumed = 0
        gap_cycles = 0
        for i in range(n):
            event = start + i
            addr = addrs[event]
            line = addr & line_mask
            entry = agg.get(line)
            if entry is None:
                payload = l1_get(line, touch=False)
                if payload is None or not payload_ok(
                    payload, int(codes[r + i]), core
                ):
                    break
                entry = agg[line] = [payload, 0, 0, i]
            mask = ((1 << sizes[event]) - 1) << (addr - line)
            if kinds[event] == WRITE:
                entry[2] |= mask
                writes += 1
            else:
                entry[1] |= mask
            entry[3] = i
            consumed += 1
            gap_cycles += gaps[event]
        if not consumed:
            return False

        stats = protocol.stats
        stats.accesses += consumed
        stats.writes += writes
        stats.l1_hits += consumed
        if self._is_ce_family:
            # _on_local_access charges one metadata check per access
            stats.metadata_checks += consumed
        region = protocol.region[core]
        if self._is_arc:
            pending = protocol.pending_delta[core]
            for line, (payload, rm, wm, _last) in agg.items():
                payload.refresh(region)
                payload.read_mask |= rm
                if wm:
                    payload.write_mask |= wm
                    payload.dirty = True  # validated non-shared: no flush set
                if payload.shared and payload.unregistered_delta() != (0, 0):
                    pending.add(line)
        elif self._is_ce_family:
            for line, (payload, rm, wm, _last) in agg.items():
                if payload.region != region:
                    payload.read_mask = 0
                    payload.write_mask = 0
                    payload.region = region
                payload.read_mask |= rm
                if wm:
                    payload.write_mask |= wm
                    payload.state = _M
        else:
            for payload, _rm, wm, _last in agg.values():
                if wm:
                    payload.state = _M
        if len(agg) == 1:
            for line in agg:
                l1_get(line)  # LRU touch
        else:
            # ascending last-occurrence order = the scalar LRU order
            for line, _e in sorted(agg.items(), key=lambda kv: kv[1][3]):
                l1_get(line)

        if self.machine.sanitize:
            self._sanitize_lines(agg.keys())

        # the window's prefix-sum cost of these events: gap + non-memory
        # cycles + the L1 hit latency each
        clock += gap_cycles + consumed * self._hit_cost
        self.indices[core] = start + consumed
        self._resume(core, clock)
        return True

    def _apply_run(self, core: int, win: _Window, r: int, n: int, clock: int) -> None:
        protocol = self.protocol
        stats = protocol.stats
        end = r + n
        clock += int(win.cum[end - 1] - (win.cum[r - 1] if r else 0))
        writes = int(np.count_nonzero(win.iswrite[r:end]))
        stats.accesses += n
        stats.writes += writes
        stats.l1_hits += n
        if self._is_ce_family:
            # _on_local_access charges one metadata check per access
            stats.metadata_checks += n

        run_lines = win.lines[r:end]
        run_masks = win.masks[r:end]
        run_w = win.iswrite[r:end]
        order = np.argsort(run_lines, kind="stable")
        sl = run_lines[order]
        sm = run_masks[order]
        sw = run_w[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sl[1:], sl[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        zero = np.uint64(0)
        read_or = np.bitwise_or.reduceat(np.where(sw, zero, sm), starts)
        write_or = np.bitwise_or.reduceat(np.where(sw, sm, zero), starts)
        uniq = sl[starts].tolist()

        # ascending last-occurrence order reproduces scalar LRU exactly:
        # the final per-set dict order ranks touched lines by last touch.
        # Within a line's group ``order`` holds ascending positions (the
        # sort is stable), so each group's last element is its line's
        # last occurrence in the run.
        last_pos = order[np.append(starts[1:], n) - 1]
        touch_order = np.argsort(last_pos)

        l1 = protocol.l1[core].l1
        region = protocol.region[core]
        if self._is_arc:
            pending = protocol.pending_delta[core]
            for i, line in enumerate(uniq):
                payload = l1.get(line, touch=False)
                payload.refresh(region)
                payload.read_mask |= int(read_or[i])
                wm = int(write_or[i])
                if wm:
                    payload.write_mask |= wm
                    payload.dirty = True  # validated non-shared: no flush set
                if payload.shared and payload.unregistered_delta() != (0, 0):
                    pending.add(line)
        elif self._is_ce_family:
            for i, line in enumerate(uniq):
                payload = l1.get(line, touch=False)
                if payload.region != region:
                    payload.read_mask = 0
                    payload.write_mask = 0
                    payload.region = region
                payload.read_mask |= int(read_or[i])
                wm = int(write_or[i])
                if wm:
                    payload.write_mask |= wm
                    payload.state = _M
        else:
            for i, line in enumerate(uniq):
                if int(write_or[i]):
                    l1.get(line, touch=False).state = _M

        for i in touch_order.tolist():
            l1.get(uniq[i])  # LRU touch

        if self.machine.sanitize:
            self._sanitize_lines(uniq)

        self.indices[core] = win.start + end
        self._resume(core, clock)

    def _sanitize_lines(self, lines) -> None:
        """Run the armed line-scoped invariant checkers over each
        distinct line a bulk-applied run touched (the per-dispatch
        equivalent the scalar tier gets from ``arm_protocol``)."""
        checks = self._sanitize_checks
        if checks is None:
            from ..modelcheck.sanitize import line_checkers

            checks = self._sanitize_checks = line_checkers(self.protocol)
        for line in lines:
            for check in checks:
                check(line)
