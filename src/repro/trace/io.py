"""Saving and loading :class:`~repro.trace.program.Program` traces.

There is one trace file format, the chunked binary ``.rtb`` of
:mod:`repro.trace.binio`.  :func:`load_program` checks the file's magic
bytes before parsing, so a file that is not a trace at all gets a
plain "not a repro trace" error rather than a parser complaint.
"""

from __future__ import annotations

from pathlib import Path

from ..common.errors import TraceError
from .program import Program

#: extension of the trace file format
BIN_SUFFIX = ".rtb"


def save_program(program: Program, path: str | Path) -> None:
    """Write ``program`` to ``path`` as a ``.rtb`` trace."""
    from .binio import save_program_bin

    save_program_bin(program, path)


def load_program(path: str | Path) -> Program:
    """Load a program written by :func:`save_program`."""
    path = Path(path)
    from . import binio

    with open(path, "rb") as fh:
        magic = fh.read(len(binio.MAGIC))
    if magic != binio.MAGIC:
        raise TraceError(
            f"{path}: not a repro trace (expected an {BIN_SUFFIX} binary trace)"
        )
    return binio.load_program_bin(path)
