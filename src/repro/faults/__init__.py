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

Call sites MUST go through the module attributes (``faults.failpoint``,
``faults.mangle``) rather than importing the functions directly:
:func:`set_bypass` swaps the attributes for bare no-op stubs, which is
how selfbench measures the overhead the disabled checkpoints add to the
warm path (gated <1%).
"""
from __future__ import annotations

from . import core as _core
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
    fault_of,
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
    "failpoint", "mangle", "set_bypass",
    "declare", "declared", "arm", "disarm", "active",
    "corrupt_bytes", "fault_of", "note_retried", "note_surfaced",
]

#: live checkpoints -- module attributes on purpose (see set_bypass)
failpoint = _core.failpoint
mangle = _core.mangle


def _bypass_failpoint(name):  # pragma: no cover -- trivial
    return None


def _bypass_mangle(name, data):  # pragma: no cover -- trivial
    return data


def set_bypass(enabled: bool) -> None:
    """Swap the checkpoint entry points for bare no-op stubs.

    Benchmark-only: lets selfbench compare the warm path with the real
    (disabled) checkpoints against truly absent ones, to price the
    registry's fast path.  Call sites reference ``faults.failpoint`` at
    call time, so the swap takes effect everywhere immediately.
    """
    global failpoint, mangle
    if enabled:
        failpoint = _bypass_failpoint
        mangle = _bypass_mangle
    else:
        failpoint = _core.failpoint
        mangle = _core.mangle
