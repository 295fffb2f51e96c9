"""Failpoint registry and armed-schedule state.

A *failpoint* is a named checkpoint compiled into a recovery seam of
the production code::

    from .. import faults
    ...
    faults.failpoint("store.bucket.flush")          # control point
    raw = faults.mangle("store.bucket.read", raw)   # data point

Disabled (no schedule armed -- the normal state), both calls are a
module-global ``None`` check and return immediately, and no checkpoint
sits on the per-warp simulation path (see the package docstring).
Armed, each call
bumps a per-name hit counter and fires whatever actions the active
:class:`~repro.faults.schedule.FaultSchedule` attached to that name and
hit count.

Actions
-------
``raise``       raise :class:`~repro.faults.errors.InjectedFault`
``delay``       sleep ``arg`` seconds (capped at :data:`MAX_DELAY_S`)
``corrupt``     deterministically flip bytes of the payload at a
                ``mangle`` site (seeded by ``arg``); at a plain
                ``failpoint`` site the entry is inert
``kill``        ``SIGKILL`` the current process -- downgraded to
                ``raise`` in the process that armed the schedule, so a
                kill aimed at a worker shard can never take down the
                coordinator
``disconnect``  raise :class:`~repro.faults.errors.InjectedDisconnect`
                (a :class:`ConnectionResetError`)

Cross-process semantics: the armed state is module-global, so worker
processes forked *after* arming inherit it.  Once-only entries claim a
token file in the schedule's scratch directory before firing
(``os.unlink`` is atomic -- exactly one process wins), which both
bounds the blast radius (the retry of a killed shard is not re-killed)
and gives the chaos harness ground truth for which entries actually
fired, even when the firing process died without reporting.

Accounting: every fire bumps ``faults.fired`` /
``faults.fired.<name>`` in :mod:`repro.obs`; recovery layers call
:func:`note_retried` / :func:`note_surfaced` which bump
``faults.retried.<name>`` / ``faults.surfaced.<name>``.
"""
from __future__ import annotations

import os
import signal
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import obs
from .errors import FaultError, InjectedDisconnect, InjectedFault

#: every action an armed entry may carry
ACTIONS = ("raise", "delay", "corrupt", "kill", "disconnect")

#: actions that inject an *error* (and therefore must be retried or
#: surfaced); ``delay`` and ``corrupt`` are absorbed by design --
#: recovery from them is internal (backoff tolerance, the store's
#: corruption path) and produces no caller-visible failure
ERRORING_ACTIONS = ("raise", "kill", "disconnect")

#: hard cap on an injected delay (schedules stay fast and deadlock-free)
MAX_DELAY_S = 0.25

#: declared failpoints: name -> actions the site supports
_DECLARED: Dict[str, Tuple[str, ...]] = {}


def declare(name: str, *actions: str) -> str:
    """Register a failpoint name and the actions its site supports.

    Called at import time next to the instrumented code, so the chaos
    catalog is exactly the set of failpoints that exist.  Idempotent;
    returns the name for assignment convenience.
    """
    for action in actions:
        if action not in ACTIONS:
            raise ValueError(f"unknown failpoint action {action!r}")
    _DECLARED[name] = tuple(actions) or ("raise",)
    return name


def declared() -> Dict[str, Tuple[str, ...]]:
    """Every declared failpoint and its supported actions."""
    return dict(_DECLARED)


# ----------------------------------------------------------------------
# armed state
# ----------------------------------------------------------------------
class ArmedSchedule:
    """Live hit counters and fired log of one armed schedule."""

    def __init__(self, schedule, scratch_dir: Optional[str] = None):
        self.schedule = schedule
        self.armed_pid = os.getpid()
        self.scratch: Optional[Path] = (
            Path(scratch_dir) if scratch_dir is not None else None
        )
        self.counts: Dict[str, int] = {}
        #: (name, hit_index, action) triples fired in THIS process
        self.fired: List[Tuple[str, int, str]] = []
        self._lock = threading.Lock()
        self._local_spent: set = set()
        self._tokens: Dict[int, Path] = {}
        if self.scratch is not None:
            self.scratch.mkdir(parents=True, exist_ok=True)
            for idx, entry in enumerate(schedule.entries):
                if entry.once:
                    token = self.scratch / f"fp-{idx}.token"
                    token.write_text(f"{entry.name}:{entry.action}\n")
                    self._tokens[idx] = token

    # ------------------------------------------------------------------
    def _claim(self, idx: int, entry) -> bool:
        """Reserve the right to fire ``entry``; once-only entries are
        claimed globally via an atomic token unlink."""
        if not entry.once:
            return True
        token = self._tokens.get(idx)
        if token is None:                       # no scratch dir: local
            with self._lock:
                if idx in self._local_spent:
                    return False
                self._local_spent.add(idx)
            return True
        try:
            os.unlink(token)
        except OSError:
            return False
        return True

    def consumed(self) -> List[Tuple[str, str]]:
        """(name, action) of every once-entry whose token was claimed
        -- by any process -- plus every entry fired locally."""
        out = []
        for idx, entry in enumerate(self.schedule.entries):
            token = self._tokens.get(idx)
            if token is not None:
                if not token.exists():
                    out.append((entry.name, entry.action))
            elif entry.once and idx in self._local_spent:
                out.append((entry.name, entry.action))
        for name, _hit, action in self.fired:
            if (name, action) not in out:
                out.append((name, action))
        return out

    # ------------------------------------------------------------------
    def hit(self, name: str, data: Optional[bytes] = None) -> Optional[bytes]:
        with self._lock:
            n = self.counts.get(name, 0) + 1
            self.counts[name] = n
        for idx, entry in enumerate(self.schedule.entries):
            if entry.name != name or n < entry.hit:
                continue
            if entry.action == "corrupt" and data is None:
                continue                        # inert at control points
            if not self._claim(idx, entry):
                continue
            with self._lock:
                self.fired.append((name, n, entry.action))
            obs.count("faults.fired")
            obs.count(f"faults.fired.{name}")
            data = self._perform(entry, name, data)
        return data

    def _perform(self, entry, name: str,
                 data: Optional[bytes]) -> Optional[bytes]:
        if entry.action == "raise":
            raise InjectedFault(name)
        if entry.action == "delay":
            time.sleep(min(float(entry.arg or 0.01), MAX_DELAY_S))
            return data
        if entry.action == "corrupt":
            return corrupt_bytes(data or b"", int(entry.arg or 0))
        if entry.action == "disconnect":
            raise InjectedDisconnect(name)
        if entry.action == "kill":
            if os.getpid() == self.armed_pid:
                # never SIGKILL the coordinating process: the action is
                # aimed at worker shards (which fork after arming)
                raise InjectedFault(name, "kill downgraded in coordinator")
            os.kill(os.getpid(), signal.SIGKILL)
        return data


def corrupt_bytes(data: bytes, seed: int) -> bytes:
    """Deterministically flip a handful of bytes (same seed, same
    corruption -- schedules replay bit-identically).

    The first byte is always flipped: a JSON document or frame header
    never survives, so a corrupted payload reliably *fails to parse* and
    exercises the recovery path -- it can never parse cleanly into
    silently different data.
    """
    if not data:
        return b"\xff"
    rng = random.Random(seed)
    buf = bytearray(data)
    buf[0] ^= 0xFF
    if len(buf) > 1:
        for _ in range(min(8, len(buf) - 1)):
            pos = 1 + rng.randrange(len(buf) - 1)
            buf[pos] ^= 0xFF
    return bytes(buf)


#: the active schedule; None (the fast path) when nothing is armed
_ARMED: Optional[ArmedSchedule] = None


def arm(schedule, scratch_dir: Optional[str] = None) -> ArmedSchedule:
    """Arm ``schedule`` process-wide; raises if one is already armed."""
    global _ARMED
    if _ARMED is not None:
        raise RuntimeError("a fault schedule is already armed")
    _ARMED = ArmedSchedule(schedule, scratch_dir)
    return _ARMED


def disarm() -> None:
    """Disarm whatever schedule is active (idempotent)."""
    global _ARMED
    _ARMED = None


def active() -> Optional[ArmedSchedule]:
    return _ARMED


# ----------------------------------------------------------------------
# the checkpoints themselves
# ----------------------------------------------------------------------
def failpoint(name: str) -> None:
    """Control checkpoint: no-op unless an armed schedule targets it."""
    if _ARMED is None:
        return
    _ARMED.hit(name)


def mangle(name: str, data: bytes) -> bytes:
    """Data checkpoint: returns ``data``, possibly corrupted/delayed."""
    if _ARMED is None:
        return data
    out = _ARMED.hit(name, data=data)
    return data if out is None else out


# ----------------------------------------------------------------------
# recovery accounting
# ----------------------------------------------------------------------
def fault_of(exc: Optional[BaseException]) -> Optional[FaultError]:
    """The :class:`FaultError` behind ``exc``, walking the cause chain."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, FaultError):
            return exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return None


def note_retried(exc: Optional[BaseException]) -> None:
    """A recovery layer is retrying after ``exc``; count it if injected."""
    fault = fault_of(exc)
    if fault is not None:
        obs.count(f"faults.retried.{fault.failpoint}")


def note_surfaced(exc: Optional[BaseException]) -> None:
    """``exc`` is being reported to the caller; count it if injected."""
    fault = fault_of(exc)
    if fault is not None:
        obs.count(f"faults.surfaced.{fault.failpoint}")
