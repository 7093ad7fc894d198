"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules
(NumPy, the simulator, the workload generators) would make every
``import repro.<anything>`` pay for them.  Instead it declares where each
public name lives::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".builder": ("TraceBuilder",),
        ".program": ("Program", "ProgramStats"),
    })

and a name's module is imported the first time the name is read.  The
value is fetched from its defining module at that moment and then kept
in the package namespace, so later reads are plain attribute lookups and
``repro.trace.Program is repro.trace.program.Program``.

A name its own module shares (``repro.harness.sweep``, the function in
``harness/sweep.py``) stays the exported value even after the submodule
is imported directly, as an eager ``from .sweep import sweep`` would
leave it: the import system binds each loaded submodule on its package,
and the package drops that binding for such a name.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module (relative to ``package``) to the public
    names it defines.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    shadowed = {name for name, module in origin.items() if module == "." + name}
    if shadowed:

        class _Package(ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, ModuleType):
                    return  # the submodule's import binding, not the export
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
