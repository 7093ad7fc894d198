"""Workload characteristics (the rows of the paper's Table II).

Kept apart from :mod:`repro.trace.program` so that reading a cached
characterization loads no NumPy.  Entries pickled before the move name
``repro.trace.program.ProgramStats``, which re-exports this class.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ProgramStats:
    """Workload characteristics (the rows of Table II)."""

    name: str
    num_threads: int
    num_events: int
    num_accesses: int
    num_writes: int
    num_sync_ops: int
    num_regions: int
    mean_region_length: float
    num_lines: int
    shared_lines: int

    @property
    def write_fraction(self) -> float:
        return self.num_writes / self.num_accesses if self.num_accesses else 0.0

    @property
    def shared_fraction(self) -> float:
        return self.shared_lines / self.num_lines if self.num_lines else 0.0
