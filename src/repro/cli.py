"""``repro``: the one command line over the reproduction's tools.

``repro <subcommand> [args]`` (or ``python -m repro <subcommand>``)
imports only the module that serves the subcommand, then runs its
``main(argv)``.  ``repro`` alone, or ``repro --help``, lists them.

This module is also the one home of what the subcommands share: the
workload-or-trace target arguments, ``--format text|json`` and the
exit-code contract:

* 0 — done, nothing at or above the requested gate;
* 2 — bad command-line input (argparse's usage code; a ``ConfigError``
  or ``TraceError`` a subcommand raises is printed as one line);
* 3 (:data:`EXIT_FINDINGS`) — findings at or above ``--fail-on``;
* 4 (:data:`EXIT_BROKEN`) — a verifier contradicted itself, or fsck
  findings remain unrepaired.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .common.errors import ConfigError, TraceError

if TYPE_CHECKING:
    from .trace.program import Program

EXIT_USAGE = 2
EXIT_FINDINGS = 3
EXIT_BROKEN = 4

#: subcommand -> ("module:function", one-line summary)
COMMANDS: dict[str, tuple[str, str]] = {
    "run": ("repro.harness.run:main",
            "regenerate the paper's tables and figures"),
    "serve": ("repro.service.server:main",
              "serve the conflict-analysis API over HTTP"),
    "client": ("repro.service.client:main",
               "talk to a running service, or run a job locally"),
    "capture": ("repro.tools.capture_cli:main",
                "record real-program traces and replay them"),
    "inspect": ("repro.tools.view:inspect_main",
                "a workload's characteristics and histograms"),
    "dump": ("repro.tools.view:dump_main",
             "print a window of one thread's events"),
    "conflicts": ("repro.tools.view:conflicts_main",
                  "the region conflicts a detector raises"),
    "heatmap": ("repro.tools.view:heatmap_main",
                "NoC link traffic drawn on the mesh"),
    "wsprofile": ("repro.tools.view:wsprofile_main",
                  "miss-rate curve against cache size"),
    "analyze": ("repro.tools.analyze:main",
                "happens-before races and lint, no simulation"),
    "staticlint": ("repro.tools.staticlint:main",
                   "source-level conflict analysis of capture programs"),
    "modelcheck": ("repro.tools.modelcheck_cli:main",
                   "exhaustive bounded model check of the protocols"),
    "detlint": ("repro.tools.detlint:main",
                "determinism lint of the sources"),
    "fsck": ("repro.tools.fsck:main",
             "verify and repair durable artifacts"),
}

TARGET_HELP = "workload name, or a trace file (.rtb)"


# --------------------------------------------------------------------------
# shared arguments
# --------------------------------------------------------------------------


def add_target_args(
    parser: argparse.ArgumentParser,
    *,
    threads: int = 8,
    scale: float = 0.2,
    nargs: str | None = None,
    target_help: str = TARGET_HELP,
) -> None:
    """Add ``target --threads --seed --scale --param`` to ``parser``."""
    parser.add_argument("target", nargs=nargs, help=target_help)
    parser.add_argument("--threads", type=int, default=threads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=scale)
    parser.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="workload generator parameter (repeatable)",
    )


def parse_params(items: list[str] | None) -> dict:
    """Parse repeated ``key=value`` workload parameters (int/float/bool
    coercion, falling back to string)."""
    params: dict = {}
    for item in items or []:
        key, _, raw = item.partition("=")
        if not key or not raw:
            raise ConfigError(f"bad --param {item!r}, expected key=value")
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def load_target(
    target: str, num_threads: int, seed: int, scale: float, **params
) -> Program:
    """Load an existing ``.rtb`` trace file, or build the registered
    workload named ``target``."""
    if Path(target).is_file():
        from .trace.io import load_program

        return load_program(target)
    from .synth.base import generate

    return generate(
        target, num_threads=num_threads, seed=seed, scale=scale, **params
    )


def program_from_args(args: argparse.Namespace) -> Program:
    """:func:`load_target` over the arguments :func:`add_target_args` adds."""
    return load_target(
        args.target, args.threads, args.seed, args.scale,
        **parse_params(args.param),
    )


def pow2_cores(num_threads: int) -> int:
    """Cores for ``num_threads``: the next power of two, at least 2."""
    return max(2, 1 << (num_threads - 1).bit_length())


def add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )


def emit(fmt: str, payload, text: str) -> None:
    """Print ``payload`` as JSON under ``--format json``, else ``text``
    (nothing when it is empty)."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text:
        print(text)


# --------------------------------------------------------------------------
# the dispatcher
# --------------------------------------------------------------------------


def _usage() -> str:
    width = max(map(len, COMMANDS))
    lines = ["usage: repro <subcommand> [args]  (repro <subcommand> --help)", ""]
    lines += [
        f"  {name:{width}s}  {summary}" for name, (_, summary) in COMMANDS.items()
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        print(_usage(), file=sys.stderr)
        return EXIT_USAGE
    if args[0] in ("-h", "--help"):
        print(_usage())
        return 0
    name, rest = args[0], args[1:]
    if name not in COMMANDS:
        print(f"repro: unknown subcommand {name!r}\n\n{_usage()}", file=sys.stderr)
        return EXIT_USAGE
    module, _, function = COMMANDS[name][0].partition(":")
    entry = getattr(importlib.import_module(module), function)
    try:
        return entry(rest)
    except (ConfigError, TraceError) as exc:
        print(f"repro {name}: {exc}", file=sys.stderr)
        return EXIT_USAGE
