"""The packages' public names survive lazy resolution.

``repro``, ``repro.trace``, ``repro.synth`` and ``repro.harness``
resolve their re-exports on first access (``repro.common.lazy``).  A
public name must be the very object its defining module holds, and
cache entries written before ``ProgramStats`` moved to
``repro.trace.stats`` must still load.
"""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.harness.result_cache import ResultCache
from repro.trace.stats import ProgramStats

PACKAGES = ("repro", "repro.trace", "repro.synth", "repro.harness")

#: defining modules of the public names that carry no ``__module__``
CONSTANT_HOMES = {
    "__version__": "repro",
    "ALL_PROTOCOLS": "repro.common.config",
    "ACQUIRE": "repro.trace.events",
    "BARRIER": "repro.trace.events",
    "EVENT_DTYPE": "repro.trace.events",
    "KIND_NAMES": "repro.trace.events",
    "READ": "repro.trace.events",
    "RELEASE": "repro.trace.events",
    "WRITE": "repro.trace.events",
    "CAPTURED_WORKLOADS": "repro.synth.suite",
    "EXTRA_WORKLOADS": "repro.synth.suite",
    "RACY_SUITE": "repro.synth.suite",
    "SUITE": "repro.synth.suite",
    "CHECKPOINT_NAME": "repro.harness.checkpoint",
    "REGISTRY": "repro.harness.experiments",
}


def _home(name: str, value) -> str:
    if isinstance(value, (type, types.FunctionType)):
        return value.__module__
    return CONSTANT_HOMES[name]


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_are_their_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        home = importlib.import_module(_home(name, value))
        assert getattr(home, name) is value, f"{package}.{name}"
        assert name in dir(pkg)


def test_export_named_like_its_module_survives_a_submodule_import():
    """``repro.harness.sweep`` stays the function, as the eager package
    left it, even when the ``repro.harness.sweep`` module is imported
    first in a fresh interpreter."""
    code = (
        "import repro.harness.sweep\n"
        "from repro.harness import sweep\n"
        "from repro.harness.sweep import sweep as defined\n"
        "assert sweep is defined, sweep\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_unknown_name_raises_attribute_error():
    import repro.trace

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.trace.no_such_name  # noqa: B018


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name)


def test_program_stats_pickled_under_its_old_module_loads(tmp_path, monkeypatch):
    stats = ProgramStats("lock-counter", 4, 100, 80, 20, 10, 5, 16.0, 12, 3)
    assert b"repro.trace.stats" in pickle.dumps(stats)
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    # write the entry the way the code before the move did
    monkeypatch.setattr(ProgramStats, "__module__", "repro.trace.program")
    cache.put(key, stats)
    monkeypatch.undo()
    assert b"repro.trace.program" in cache.path_for(key).read_bytes()
    assert cache.get(key, expect=ProgramStats) == stats
    assert cache.stats.discarded == 0
