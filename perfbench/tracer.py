"""In-memory span tracer for one traced ``repro`` process.

Usage (the benchmark launches it; it can also be run by hand)::

    python perfbench/tracer.py OUT.json [--root] [-m] MODULE [ARGS...]

runs ``python -m MODULE ARGS...`` in this interpreter with spans wrapped
around the public entry points of each package, and writes every span
plus the derived counters to ``OUT.json`` when the module exits
(normally, by ``SystemExit`` or by SIGINT/SIGTERM).

Three kinds of record, all kept in memory until exit:

* **spans** — one per call of a wrapped entry point: id, parent id,
  name, layer (the package of the callee), thread, start, duration and
  self time (duration minus the child spans on the same thread).  The
  entry points are few per simulation point or job, so wrapping them
  costs little.
* **samples** — the per-access calls inside a simulation (protocols →
  mem → noc, millions per suite) are too many to wrap.  While a thread's
  innermost span is a ``core`` span, a sampler thread reads its stack
  about every millisecond and credits the package of the innermost
  ``repro`` frame with the seconds since its previous tick; the core
  spans' self time is later split by these sampled seconds, whose sum
  must come back to that self time.
* **counts** — exact call counts of ``protocol.access``,
  ``protocol.region_boundary``, ``PrivateHierarchy.lookup`` and
  ``MeshNetwork.send`` (the instances of one simulation are given a
  counting subclass for its duration), plus the simulated statistics of
  every finished simulation.  They depend only on the simulated work,
  so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import runpy
import signal
import sys
import threading
import time
from collections import Counter

#: the packages the benchmark reports a layer for; other ``repro``
#: packages, the launcher and the interpreter count as ``other``
LAYERS = (
    "core", "protocols", "mem", "noc", "energy", "synth", "trace",
    "analysis", "harness", "common", "service",
)

#: packages reported under another layer: captured workloads are
#: workload generators, and the analyzer's public entry point lives in
#: ``repro.tools.analyze`` on top of ``repro.analysis``
LAYER_ALIASES = {"capture": "synth", "tools": "analysis"}

SAMPLE_INTERVAL_S = 0.001


def layer_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    layer = LAYER_ALIASES.get(parts[1], parts[1])
    return layer if layer in LAYERS else "other"


class Tracer:
    """Span stack per thread, a stack sampler, and call counters."""

    def __init__(self, sample_interval: float = SAMPLE_INTERVAL_S):
        self.spans: list[list] = []
        self.samples: Counter = Counter()
        self.counts: Counter = Counter()
        self.sim: Counter = Counter()
        self.roots: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._lock = threading.Lock()
        self._interval = sample_interval
        self.sampled_s: Counter = Counter()
        self._stop = threading.Event()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="perfbench-sampler", daemon=True
        )
        self.t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _end_root(self, duration: float) -> None:
        # request threads come and go; forget a thread between its roots
        # so the sampler only walks threads that are inside a span
        self._local.stack = None
        with self._lock:
            self.roots.append(duration)
            self._stacks.pop(threading.get_ident(), None)

    def span(self, fn, name, layer: str, note=None):
        """``fn`` wrapped in a span; ``name`` may be a function of args.

        ``note(args, result)`` returns a number stored on the span (bytes
        read, points run, hit or miss).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            value = None
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, result)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer._end_root(duration)
                tracer.spans.append([
                    frame[0], parent, label, layer, threading.get_ident(),
                    round(start - tracer.t0, 7), duration,
                    duration - frame[2], value,
                ])

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    # -- sampling ----------------------------------------------------------

    def start_sampler(self) -> None:
        sys.setswitchinterval(self._interval / 2)
        self._sampler.start()

    def stop_sampler(self) -> None:
        self._stop.set()
        if self._sampler.is_alive():
            self._sampler.join(timeout=5.0)

    def _sample_loop(self) -> None:
        # the loop rarely keeps its nominal interval (it needs the GIL), so
        # each sample is weighted by the seconds since the previous tick
        last = time.perf_counter()
        while not self._stop.wait(self._interval):
            now = time.perf_counter()
            weight, last = now - last, now
            frames = sys._current_frames()
            with self._lock:
                stacks = list(self._stacks.items())
            for tid, stack in stacks:
                try:
                    if stack[-1][1] != "core":
                        continue
                except IndexError:
                    continue
                frame = frames.get(tid)
                layer = "core"
                while frame is not None:
                    module = frame.f_globals.get("__name__", "")
                    if module.startswith("repro."):
                        layer = layer_of(module)
                        break
                    frame = frame.f_back
                self.samples[layer] += 1
                self.sampled_s[layer] += weight

    # -- export ------------------------------------------------------------

    def export(self, path: str, wall: float) -> None:
        payload = {
            "wall_s": wall,
            "sample_interval_s": self._interval,
            "roots_s": sum(self.roots),
            "spans": self.spans,
            "samples": dict(self.samples),
            "sampled_s": dict(self.sampled_s),
            "counts": dict(self.counts),
            "sim": dict(self.sim),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# -- entry points ------------------------------------------------------------


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``.

    ``from .x import f`` copies the function into the importing module,
    so wrapping ``x.f`` alone would miss those call sites.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(tracer, module, attr, name, layer, note=None) -> None:
    original = getattr(module, attr)
    _rebind(original, tracer.span(original, name, layer, note))


def _wrap_method(tracer, cls, attr, name, layer, note=None) -> None:
    setattr(cls, attr, tracer.span(getattr(cls, attr), name, layer, note))


def _counter(original, box: list, slot: int):
    def counted(self, *args, **kwargs):
        box[slot] += 1
        return original(self, *args, **kwargs)

    return counted


def _count_calls(obj, methods: dict[str, int], box: list, swapped: list) -> None:
    """Give ``obj`` a subclass whose ``methods`` count calls into ``box``.

    Only calls through the instance count: a ``super()`` call inside an
    override resolves past the subclass.
    """
    cls = type(obj)
    namespace = {
        method: _counter(getattr(cls, method), box, slot)
        for method, slot in methods.items()
    }
    if "__slots__" in cls.__dict__:
        namespace["__slots__"] = ()
    obj.__class__ = type(cls.__name__, (cls,), namespace)
    swapped.append((obj, cls))


#: call counters installed on every simulation's instances
COUNTED_CALLS = ("access_calls", "boundary_calls", "lookup_calls", "send_calls")


def _install_simulation_hooks(tracer: Tracer) -> None:
    from repro.core.simulator import Simulator

    original_init = Simulator.__init__
    original_run = Simulator.run

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        box = [0] * len(COUNTED_CALLS)
        swapped: list = []
        protocol = self.protocol
        _count_calls(
            protocol, {"access": 0, "region_boundary": 1}, box, swapped
        )
        for hierarchy in protocol.l1:
            _count_calls(hierarchy, {"lookup": 2}, box, swapped)
        _count_calls(self.machine.net, {"send": 3}, box, swapped)
        self._perfbench = (box, swapped, sum(self._lengths))

    def run(self):
        box, swapped, events = self._perfbench
        try:
            result = original_run(self)
        finally:
            for obj, cls in swapped:
                obj.__class__ = cls  # results must pickle as the real types
            del self._perfbench
        stats = result.stats
        with tracer._lock:
            for key, value in zip(COUNTED_CALLS, box):
                tracer.counts[key] += value
            tracer.counts["simulations"] += 1
            tracer.counts["events"] += events
            sim = tracer.sim
            sim["accesses"] += stats.accesses
            sim["region_boundaries"] += stats.region_boundaries
            sim["l1_misses"] += stats.l1_misses
            sim["l1_accesses"] += stats.l1_accesses
            sim["metadata_spills"] += stats.metadata_spills
            sim["invalidations"] += stats.invalidations_sent
            sim["dram_bytes"] += result.dram.total_bytes
            sim["dram_metadata_bytes"] += result.dram.metadata_bytes
            sim["flit_hops"] += result.net.total_flit_hops
            sim["queue_delay_cycles"] += result.net.queue_delay_cycles
        return result

    Simulator.__init__ = init
    Simulator.run = tracer.span(run, "core.run", "core")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer on the measured paths."""
    import repro.core.batch as batch
    import repro.energy.model as energy
    import repro.harness.checkpoint as checkpoint
    import repro.harness.executor as executor
    import repro.harness.experiments as experiments
    import repro.harness.result_cache as result_cache
    import repro.harness.run  # noqa: F401  (binds the names rebound below)
    import repro.harness.tables as tables
    import repro.service.jobs as jobs
    import repro.service.queue as queue
    import repro.service.server as server
    import repro.service.worker as worker
    import repro.synth.base as synth
    import repro.tools.analyze as analyze
    import repro.trace.binio as binio
    import repro.trace.validate as validate

    _install_simulation_hooks(tracer)
    _wrap_function(tracer, batch, "make_simulator", "core.build", "core")
    _wrap_function(
        tracer, experiments, "run_experiment",
        lambda a, k: f"harness.exp.{a[0]}", "harness",
    )
    _wrap_method(
        tracer, executor.Executor, "run_points", "harness.run_points",
        "harness", note=lambda a, r: len(r),
    )
    _wrap_method(
        tracer, executor.Executor, "workload_stats", "harness.run_points",
        "harness", note=lambda a, r: 1,
    )
    _wrap_method(
        tracer, result_cache.ResultCache, "get", "harness.cache_get",
        "harness", note=lambda a, r: int(r is not None),
    )
    _wrap_method(
        tracer, result_cache.ResultCache, "put", "harness.cache_put", "harness"
    )
    for method in ("__init__", "record", "sync"):
        _wrap_method(
            tracer, checkpoint.Checkpoint, method, "harness.checkpoint",
            "harness",
        )
    _wrap_method(
        tracer, executor.Manifest, "write_merged", "harness.manifest",
        "harness",
    )
    _wrap_method(
        tracer, tables.TextTable, "render", "harness.render", "harness"
    )
    # every sync the durable layer issues is an os.fsync/os.fdatasync
    for attr in ("fsync", "fdatasync"):
        setattr(os, attr, tracer.span(
            getattr(os, attr), "common.durable_sync", "common"
        ))
    _wrap_function(tracer, energy, "compute_energy", "energy.compute", "energy")
    _wrap_function(tracer, synth, "generate", "synth.generate", "synth")
    _wrap_function(
        tracer, validate, "validate_program", "trace.validate", "trace"
    )
    _wrap_function(
        tracer, binio, "load_program_bin", "trace.decode", "trace",
        note=lambda a, r: os.path.getsize(a[0]),
    )
    _wrap_function(
        tracer, binio, "scan_rtb", "trace.decode", "trace",
        note=lambda a, r: os.path.getsize(a[0]),
    )
    _wrap_function(
        tracer, analyze, "analyze_program", "analysis.analyze", "analysis"
    )

    # service: worker job runs, queue transactions and request handling
    _wrap_method(
        tracer, worker.Worker, "run_one", "service.execute", "service"
    )
    _wrap_function(tracer, jobs, "execute_job", "service.execute_job", "service")
    for method in ("submit", "claim", "complete", "get", "stats"):
        _wrap_method(
            tracer, queue.JobQueue, method, f"service.queue_{method}",
            "service", note=_claim_wait if method == "claim" else None,
        )
    # a long-poll blocks its handler thread; that wait is nobody's work
    _wrap_method(tracer, queue.JobQueue, "wait_for", "service.longpoll", "other")
    for method in ("do_GET", "do_POST"):
        _wrap_method(
            tracer, server.ServiceHandler, method, "service.request", "service"
        )


def _claim_wait(args, record) -> float | None:
    """Seconds the claimed job waited in the queue (None: nothing claimed)."""
    if record is None:
        return None
    return time.time() - record.created


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, rest = argv[0], argv[1:]
    root = False
    if rest and rest[0] == "--root":
        root, rest = True, rest[1:]
    if rest and rest[0] == "-m":  # accepted, as after ``python``
        rest = rest[1:]
    module, args = rest[0], rest[1:]

    tracer = Tracer()
    install(tracer)

    def on_signal(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_signal)
    sys.argv = [module, *args]
    tracer.start_sampler()
    start = time.perf_counter()
    code = 0
    try:
        if root:
            run = tracer.span(
                lambda: runpy.run_module(module, run_name="__main__"),
                "harness.cli", "harness",
            )
            run()
        else:
            runpy.run_module(module, run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except KeyboardInterrupt:
        code = 0
    finally:
        wall = time.perf_counter() - start
        tracer.stop_sampler()
        tracer.export(out, wall)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
