"""Tests for the fault-injection layer (repro.faults)."""
from __future__ import annotations

import json
import os

import pytest

import repro.faults as faults
import repro.obs as obs
from repro.faults import (
    FaultError,
    FaultSchedule,
    InjectedDisconnect,
    InjectedFault,
    RetryPolicy,
    ScheduleEntry,
)
from repro.faults import core


# ----------------------------------------------------------------------
# registry + checkpoints
# ----------------------------------------------------------------------
def test_catalog_covers_every_layer():
    # each layer declares its failpoints on import
    import repro.harness.service  # noqa: F401
    import repro.harness.store  # noqa: F401
    import repro.serve.server  # noqa: F401

    declared = faults.declared()
    for name in ("store.bucket.read", "store.bucket.flush",
                 "service.shard.spawn", "service.shard.result",
                 "service.shard.body", "serve.frame.read",
                 "serve.frame.write", "serve.admit", "serve.drain"):
        assert name in declared, name
        assert all(a in faults.ACTIONS for a in declared[name])
    # seams the SQLite store no longer has
    assert "store.lock.acquire" not in declared
    assert "store.bucket.replace" not in declared


def test_failpoint_is_noop_when_disarmed():
    assert faults.active() is None
    faults.failpoint("store.bucket.flush")          # must not raise
    assert faults.mangle("store.bucket.read", b"xyz") == b"xyz"


def test_declare_rejects_unknown_action():
    with pytest.raises(ValueError):
        faults.declare("bogus.point", "explode")


def test_armed_raise_fires_at_hit_count():
    sched = FaultSchedule(0, [ScheduleEntry("p", "raise", hit=2)])
    with sched.armed():
        faults.failpoint("p")                       # hit 1: below threshold
        with pytest.raises(InjectedFault) as err:
            faults.failpoint("p")                   # hit 2: fires
        assert err.value.failpoint == "p"
        faults.failpoint("p")                       # once: spent
    faults.failpoint("p")                           # disarmed again


def test_once_false_fires_repeatedly():
    sched = FaultSchedule(0, [ScheduleEntry("p", "raise", hit=1, once=False)])
    with sched.armed():
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faults.failpoint("p")


def test_fired_counters_land_in_obs():
    reg = obs.Registry()
    prev = obs.set_registry(reg)
    try:
        sched = FaultSchedule(0, [ScheduleEntry("p", "delay", arg=0.0)])
        with sched.armed():
            faults.failpoint("p")
    finally:
        obs.set_registry(prev)
    assert reg.counters.get("faults.fired") == 1
    assert reg.counters.get("faults.fired.p") == 1


def test_corrupt_mangles_data_deterministically():
    sched = FaultSchedule(0, [ScheduleEntry("p", "corrupt", arg=99)])
    with sched.armed():
        out1 = faults.mangle("p", b"\x00" * 32)
    with sched.armed():
        out2 = faults.mangle("p", b"\x00" * 32)
    assert out1 == out2 != b"\x00" * 32
    # corrupt at a control (no-data) site is inert
    with sched.armed():
        faults.failpoint("p")


def test_corrupt_bytes_never_identity():
    assert faults.corrupt_bytes(b"", 1) == b"\xff"
    data = os.urandom(64)
    assert faults.corrupt_bytes(data, 7) != data
    # and actually breaks a JSON document
    blob = json.dumps({"k": 1}).encode()
    with pytest.raises(ValueError):
        json.loads(faults.corrupt_bytes(blob, 3))


def test_disconnect_is_a_connection_reset():
    sched = FaultSchedule(0, [ScheduleEntry("p", "disconnect")])
    with sched.armed():
        with pytest.raises(ConnectionResetError):
            faults.failpoint("p")


def test_kill_downgrades_in_arming_process():
    """A kill aimed at worker shards must never SIGKILL the process
    that armed the schedule."""
    sched = FaultSchedule(0, [ScheduleEntry("p", "kill")])
    with sched.armed():
        with pytest.raises(InjectedFault):
            faults.failpoint("p")                   # not os.kill!


def test_arm_twice_rejected():
    sched = FaultSchedule(0, [ScheduleEntry("p", "raise")])
    with sched.armed():
        with pytest.raises(RuntimeError):
            core.arm(sched)


def test_once_token_claimed_exactly_once(tmp_path):
    sched = FaultSchedule(0, [ScheduleEntry("p", "raise")])
    with sched.armed(scratch_dir=str(tmp_path)) as armed:
        token = tmp_path / "fp-0.token"
        assert token.exists()
        with pytest.raises(InjectedFault):
            faults.failpoint("p")
        assert not token.exists()                   # consumed
        faults.failpoint("p")                       # spent: no-op
        assert armed.consumed() == [("p", "raise")]


def test_set_bypass_swaps_checkpoints():
    sched = FaultSchedule(0, [ScheduleEntry("p", "raise")])
    with sched.armed():
        faults.set_bypass(True)
        try:
            faults.failpoint("p")                   # stubbed out
            assert faults.mangle("p", b"ab") == b"ab"
        finally:
            faults.set_bypass(False)
        with pytest.raises(InjectedFault):
            faults.failpoint("p")


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_generate_is_deterministic_and_seed_sensitive():
    a = FaultSchedule.generate(7)
    assert a == FaultSchedule.generate(7)
    assert any(FaultSchedule.generate(s) != a for s in range(8, 16))


def test_generate_respects_declared_actions():
    declared = faults.declared()
    for seed in range(40):
        for entry in FaultSchedule.generate(seed).entries:
            assert entry.action in declared[entry.name], entry


def test_schedule_roundtrip():
    sched = FaultSchedule.generate(11)
    clone = FaultSchedule.from_dict(sched.to_dict())
    assert clone == sched
    with pytest.raises(ValueError):
        FaultSchedule.from_dict({"schema": "nope"})


def test_dry_run_replays_identically():
    for seed in range(12):
        sched = FaultSchedule.generate(seed)
        assert sched.dry_run() == sched.dry_run(), sched.describe()


def test_entry_validation():
    with pytest.raises(ValueError):
        ScheduleEntry("p", "explode")
    with pytest.raises(ValueError):
        ScheduleEntry("p", "raise", hit=0)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
def test_retry_policy_retries_then_succeeds():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise InjectedFault("p")
        return "done"

    policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, seed=1)
    assert policy.run(flaky, sleep=lambda _t: None) == "done"
    assert len(calls) == 3


def test_retry_policy_exhausts_and_reraises():
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, seed=1)

    def always():
        raise InjectedFault("p")

    with pytest.raises(InjectedFault):
        policy.run(always, sleep=lambda _t: None)


def test_retry_policy_counts_retried_and_surfaced():
    reg = obs.Registry()
    prev = obs.set_registry(reg)
    try:
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, seed=1)
        with pytest.raises(InjectedFault):
            policy.run(lambda: (_ for _ in ()).throw(InjectedFault("p")),
                       sleep=lambda _t: None)
    finally:
        obs.set_registry(prev)
    assert reg.counters.get("faults.retried.p") == 2
    assert reg.counters.get("faults.surfaced.p") == 1


def test_retry_policy_does_not_catch_unrelated_errors():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.0,
                         retry_on=(FaultError,), seed=1)
    calls = []

    def boom():
        calls.append(1)
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        policy.run(boom, sleep=lambda _t: None)
    assert len(calls) == 1


def test_retry_policy_backoff_bounded_and_seeded():
    a = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05, seed=3)
    b = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05, seed=3)
    gen_a, gen_b = a.backoff(), b.backoff()
    seq = [next(gen_a) for _ in range(8)]
    assert seq == [next(gen_b) for _ in range(8)]
    assert all(0.0 <= d <= 0.05 * 1.25 for d in seq)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_fault_of_walks_cause_chain():
    inner = InjectedFault("p")
    try:
        try:
            raise inner
        except InjectedFault as exc:
            raise RuntimeError("wrapped") from exc
    except RuntimeError as outer:
        assert faults.fault_of(outer) is inner
    assert faults.fault_of(KeyError("x")) is None
    assert faults.fault_of(None) is None


def test_error_types():
    err = InjectedDisconnect("serve.frame.read")
    assert isinstance(err, FaultError)
    assert isinstance(err, ConnectionResetError)
    assert "serve.frame.read" in str(err)


# ----------------------------------------------------------------------
# chaos harness (in-process smoke; CI and `repro chaos` soak more seeds)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_chaos_smoke_two_seeds():
    from repro.faults.chaos import format_report, run_chaos

    report = run_chaos(num_seeds=2, start_seed=0, scale=0.05,
                       verbose=False)
    assert report.ok, format_report(report)
    assert len(report.seeds) == 2
    text = format_report(report)
    assert "PASS" in text
