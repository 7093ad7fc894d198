"""Deterministic fault injection for the experiment harness.

A :class:`FaultPlan` is a seeded chaos schedule: for every (point key,
attempt) pair it decides — by hashing, never by global RNG state — whether
to crash the worker, stall the point (an artificial hang that exercises
the timeout path), fail pickling, or corrupt the point's cache entry
after it is stored.  The same plan therefore injects the *same* faults
into the same sweep on every run, which is what lets the chaos test
suite assert exact outcomes:

* with retries enabled, an injected-fault run must produce byte-identical
  tables to a fault-free run (transient faults are absorbed);
* with ``keep_going``, an injected hang must surface as exactly one
  ``timeout`` entry in the manifest, and nothing else may change.

Plans are tiny frozen dataclasses, picklable into worker processes.  The
executor applies worker-side faults via :func:`apply_worker_fault` at the
top of each point and cache corruption via :meth:`FaultPlan.corrupts`
after each store.  Command lines build plans with :meth:`FaultPlan.parse`
(``--inject-faults "seed=7,crash=0.2,slow=0.1,slow-seconds=5"``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, fields

from ..common import durable
from ..common.errors import ConfigError, WorkerCrashError

#: exit status an injected crash kills the worker with (shows up in
#: ``BrokenProcessPool`` messages, handy when debugging chaos runs)
CRASH_EXIT_STATUS = 37


def hash_draw(seed: int, *parts: object) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments.

    The one source of chaos randomness: every fault decision — and the
    executor's retry-backoff jitter — is a SHA-256 hash of a seed plus
    discriminating parts, never global RNG state, so identical runs
    draw identical chaos and retries desynchronize deterministically.
    """
    text = ":".join([str(seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, per-(key, attempt) deterministic fault schedule.

    Rates are independent probabilities in ``[0, 1]``, evaluated in a
    fixed order (crash, slow, pickle) so at most one worker-side fault
    fires per attempt.  ``corrupt_rate`` applies to cache stores and is
    keyed per point, not per attempt.
    """

    seed: int = 0
    crash_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 30.0
    pickle_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self):
        for name in ("crash_rate", "slow_rate", "pickle_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_seconds < 0:
            raise ConfigError(f"slow_seconds must be >= 0, got {self.slow_seconds}")

    # -- deterministic draws ---------------------------------------------

    def _draw(self, kind: str, key: str, attempt: int) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, kind, key, attempt)."""
        return hash_draw(self.seed, kind, key, attempt)

    def decide(self, key: str, attempt: int) -> str | None:
        """Worker-side fault for this (point, attempt), or None.

        Attempts draw independently, so a point that crashes on attempt
        1 usually succeeds on attempt 2 — exactly the transient-failure
        shape the retry machinery exists for.
        """
        if self._draw("crash", key, attempt) < self.crash_rate:
            return "crash"
        if self._draw("slow", key, attempt) < self.slow_rate:
            return "slow"
        if self._draw("pickle", key, attempt) < self.pickle_rate:
            return "pickle"
        return None

    def corrupts(self, key: str) -> bool:
        """Whether this point's cache entry gets corrupted after a store."""
        return self._draw("corrupt", key, 0) < self.corrupt_rate

    @property
    def active(self) -> bool:
        return any(
            getattr(self, f) > 0
            for f in ("crash_rate", "slow_rate", "pickle_rate", "corrupt_rate")
        )

    @property
    def needs_pool(self) -> bool:
        """Crash injection kills the hosting process; never in-process."""
        return self.crash_rate > 0

    # -- CLI spec --------------------------------------------------------

    #: CLI spellings accepted besides the field names
    ALIASES = {
        "crash": "crash_rate",
        "slow": "slow_rate",
        "slow-seconds": "slow_seconds",
        "pickle": "pickle_rate",
        "corrupt": "corrupt_rate",
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``k=v`` pairs: ``seed=7,crash=0.2,slow=0.1``.

        Keys: the field names, or ``crash``, ``slow``, ``slow-seconds``,
        ``pickle``, ``corrupt`` (rate aliases drop the ``_rate`` suffix).
        """
        return _parse_spec(cls, spec, "fault")

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "seed" and value:
                parts.append(f"{f.name}={value!r}")
        return ",".join(parts)


# --------------------------------------------------------------------------
# kill points: crash / torn-write injection inside the durability layer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KillPlan:
    """Seeded schedule of crashes and torn writes at durable-write sites.

    The durability layer (:mod:`repro.common.durable`) names every
    write site (``cache-entry:tmp-write``, ``checkpoint:append``,
    ``manifest:pre-rename``, and the service's ``queue:<op>:pre-commit``
    / ``queue:<op>:post-commit`` transaction edges and
    ``trace-store:upload-write`` / ``trace-store:pre-publish`` upload
    path) and consults the installed hook there.  A fired site either kills the process outright
    (``os._exit`` — the SIGKILL / power-cut shape) or *tears* the
    write at a seeded byte and then dies.  Decisions hash
    ``(seed, kind, site, occurrence-index)`` exactly like
    :meth:`FaultPlan._draw`, so a given seed kills the same run at the
    same byte every time — which is what lets the chaos property suite
    assert *old-or-new, never garbage* recovery for every seed.

    ``sites`` optionally restricts firing to sites containing the given
    substring (e.g. ``sites=cache-entry`` to only tear cache stores).
    Plans activate from ``$REPRO_KILLPOINTS`` (see :meth:`install`), so
    harness subprocesses and forked workers inherit them.
    """

    seed: int = 0
    rate: float = 0.05
    tear_rate: float = 0.5
    sites: str = ""

    def __post_init__(self):
        for name in ("rate", "tear_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")

    def hook(self) -> durable.KillHook:
        """A stateful hook for :func:`repro.common.durable.set_kill_hook`.

        Occurrence counters are per returned hook (one per process), so
        the Nth visit to a site draws the same fate in every run with a
        deterministic write sequence.
        """
        counters: dict[str, int] = {}

        def decide(site: str, length: int):
            if self.sites and self.sites not in site:
                return None
            index = counters.get(site, 0)
            counters[site] = index + 1
            if hash_draw(self.seed, "fire", site, index) >= self.rate:
                return None
            if length > 0 and (
                hash_draw(self.seed, "tear", site, index) < self.tear_rate
            ):
                cut = int(hash_draw(self.seed, "cut", site, index) * length)
                return ("tear", cut)
            return ("kill",)

        return decide

    def install(self) -> None:
        """Arm this plan in-process and in every future child process."""
        os.environ[durable.KILLPOINT_ENV] = self.describe()
        durable.set_kill_hook(self.hook())

    #: CLI spellings accepted besides the field names
    ALIASES = {"tear": "tear_rate"}

    @classmethod
    def parse(cls, spec: str) -> "KillPlan":
        """Build a plan from ``k=v`` pairs: ``seed=7,rate=0.1,tear=0.5``."""
        return _parse_spec(cls, spec, "kill")

    def describe(self) -> str:
        parts = [f"seed={self.seed}", f"rate={self.rate!r}",
                 f"tear={self.tear_rate!r}"]
        if self.sites:
            parts.append(f"sites={self.sites}")
        return ",".join(parts)


def _parse_spec(cls, spec: str, what: str):
    """Build plan class ``cls`` from a ``k=v,k=v`` spec.

    A key is a field name or one of ``cls.ALIASES``; each value is
    converted to its field's type (the type of the field's default).
    """
    types = {f.name: type(f.default) for f in fields(cls)}
    kwargs: dict[str, object] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        if "=" not in part:
            raise ConfigError(f"bad {what} spec item {part!r} (expected k=v)")
        raw_key, _, raw_value = part.partition("=")
        key = raw_key.strip()
        field = cls.ALIASES.get(key, key)
        if field not in types:
            raise ConfigError(
                f"unknown {what} spec key {key!r}; "
                f"known: {sorted(set(cls.ALIASES) | set(types))}"
            )
        try:
            kwargs[field] = types[field](raw_value.strip())
        except ValueError:
            raise ConfigError(
                f"bad {what} spec value {raw_value!r} for {key!r}"
            ) from None
    return cls(**kwargs)


def apply_worker_fault(
    plan: FaultPlan, key: str, attempt: int, in_pool: bool
) -> None:
    """Apply the plan's worker-side fault (if any) for this attempt.

    Called at the top of the worker entry point, before any simulation
    work.  ``crash`` kills the worker process outright when running in a
    pool (producing the ``BrokenProcessPool`` the executor must absorb)
    and degrades to raising :class:`WorkerCrashError` in-process, so the
    serial path exercises the same retry classification without taking
    the harness down with it.
    """
    fault = plan.decide(key, attempt)
    if fault == "crash":
        if in_pool:
            os._exit(CRASH_EXIT_STATUS)
        raise WorkerCrashError(
            f"injected worker crash (point {key[:12]}, attempt {attempt})"
        )
    if fault == "slow":
        time.sleep(plan.slow_seconds)
    elif fault == "pickle":
        raise pickle.PicklingError(
            f"injected pickle failure (point {key[:12]}, attempt {attempt})"
        )
