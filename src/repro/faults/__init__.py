"""Deterministic fault injection (failpoints + seeded schedules).

Production code instruments its recovery seams with named checkpoints::

    from .. import faults
    faults.failpoint("store.bucket.flush")
    raw = faults.mangle("store.bucket.read", raw)

and tests / the chaos harness arm a seed-generated
:class:`FaultSchedule` to make those checkpoints raise, delay, corrupt
bytes, kill the worker process, or drop the connection at chosen hit
counts.  See DESIGN.md §5.5 for the failpoint catalog and the chaos
invariants.

Checkpoints sit on recovery seams only (store I/O, service shards,
serve frames, export writes), never on the simulation path: a storeless
``run_one`` reaches none, and a store-backed one reaches
``store.bucket.read`` once per loaded row and ``store.bucket.flush``
once per flush.  ``tests/test_faults.py`` counts those hits through the
``faults.failpoint`` / ``faults.mangle`` attributes, which is why call
sites reference them through this module.
"""
from __future__ import annotations

from .core import (
    ACTIONS,
    ERRORING_ACTIONS,
    MAX_DELAY_S,
    active,
    arm,
    corrupt_bytes,
    declare,
    declared,
    disarm,
    failpoint,
    fault_of,
    mangle,
    note_retried,
    note_surfaced,
)
from .errors import (
    FaultError,
    InjectedCorruption,
    InjectedDisconnect,
    InjectedFault,
)
from .retry import RetryPolicy
from .schedule import FaultSchedule, ScheduleEntry

__all__ = [
    "ACTIONS", "ERRORING_ACTIONS", "MAX_DELAY_S",
    "FaultError", "InjectedFault", "InjectedCorruption",
    "InjectedDisconnect",
    "FaultSchedule", "ScheduleEntry", "RetryPolicy",
    "failpoint", "mangle",
    "declare", "declared", "arm", "disarm", "active",
    "corrupt_bytes", "fault_of", "note_retried", "note_surfaced",
]
