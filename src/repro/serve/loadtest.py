"""Loadtest harness: seeded traffic against a serving cluster.

``python -m repro loadtest`` answers the ROADMAP's scale question --
"what does this system do under a million users?" -- with a measured
report instead of a guess.  A deterministic generator (one
``random.Random(seed)``; same seed, same schedule, byte for byte)
produces a stream of experiment submissions whose popularity follows a
zipf law (a few hot experiment configs, a long tail), with occasional
duplicate *bursts* -- the same user story that motivates the daemon's
dedup-join.  A thread-pool driver replays the stream against a cluster
endpoint in one of two modes:

* **closed loop** -- N concurrent users, each issuing its next request
  when the previous one answers (throughput-bound, the classic
  benchmark shape);
* **open loop** -- requests arrive at a fixed Poisson rate regardless
  of completions, and latency is measured from the *scheduled* arrival
  time, so queueing delay is charged to the system rather than hidden
  by a stalled generator (the coordinated-omission correction).

The report (schema ``repro-loadtest/1``, default ``BENCH_serve.json``)
carries p50/p95/p99 latency, throughput, dedup/cache hit rates and the
shed fraction, and :func:`validate_loadtest_report` schema-checks it.
This is the one serving-load benchmark; ``python -m repro sweep
import`` records a report into the sweep result database.
"""
from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .client import ServeClient, ServeError

#: report schema tag
SCHEMA = "repro-loadtest/1"

#: default report path (gitignored at the repository root)
DEFAULT_OUTPUT = "BENCH_serve.json"

#: default synthetic per-job cost when the loadtest boots its own
#: cluster -- large enough to exercise dedup windows, small enough that
#: 100k requests finish in CI time
DEFAULT_SYNTHETIC_S = 0.002


@dataclass
class LoadtestSpec:
    """Everything that determines a loadtest run (and its schedule)."""

    users: int = 10_000                 #: total requests to issue
    concurrency: int = 32               #: driver threads (closed loop)
    rate: Optional[float] = None        #: req/s; set -> open loop
    zipf_alpha: float = 1.1             #: popularity skew exponent
    key_space: int = 32                 #: distinct (experiment, seed) keys
    burst_prob: float = 0.05            #: chance a request bursts
    burst_size: int = 4                 #: duplicates per burst
    experiments: Tuple[str, ...] = ("init",)
    scale: float = 0.05
    quick: bool = True
    seed: int = 7                       #: schedule seed

    def mode(self) -> str:
        return "open" if self.rate else "closed"


@dataclass
class RequestSpec:
    """One scheduled submission."""

    offset_s: float                     #: scheduled arrival (open loop)
    experiment: str
    seed: int                           #: experiment seed (keys the job)
    burst: bool = False                 #: part of a duplicate burst


def generate_schedule(spec: LoadtestSpec) -> List[RequestSpec]:
    """The deterministic request stream for ``spec``.

    Popularity is zipf over ``key_space`` ranks (weight of rank r is
    ``1/(r+1)**alpha``); rank picks both the experiment (round-robin
    over ``spec.experiments``) and the experiment seed (``1000+rank``),
    so rank identity *is* job-key identity.  A burst replicates the
    drawn request ``burst_size``-fold at the same arrival offset --
    synthetic "everyone clicked the hot link at once" traffic that the
    daemon's dedup-join should collapse.  Open-loop arrivals are
    Poisson (exponential inter-arrival at ``spec.rate``).
    """
    import random

    rng = random.Random(spec.seed)
    ranks = list(range(max(1, spec.key_space)))
    weights = [1.0 / (r + 1) ** spec.zipf_alpha for r in ranks]
    schedule: List[RequestSpec] = []
    clock = 0.0
    while len(schedule) < spec.users:
        rank = rng.choices(ranks, weights=weights, k=1)[0]
        experiment = spec.experiments[rank % len(spec.experiments)]
        if spec.rate:
            clock += rng.expovariate(spec.rate)
        burst = rng.random() < spec.burst_prob
        count = min(spec.burst_size if burst else 1,
                    spec.users - len(schedule))
        for _ in range(count):
            schedule.append(RequestSpec(
                offset_s=round(clock, 6), experiment=experiment,
                seed=1000 + rank, burst=burst and count > 1))
    return schedule


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1) of an already-sorted sample (nearest-rank,
    linear interpolation between neighbours)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass
class _Tally:
    """Shared driver-side accounting (lock-guarded)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    latencies: List[float] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, outcome: str, latency_s: float,
               error: Optional[str] = None) -> None:
        with self.lock:
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latencies.append(latency_s)
            if error is None:
                self.completed += 1
            else:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(error)


def _drive(schedule: List[RequestSpec], spec: LoadtestSpec,
           endpoint: Dict[str, Any], tally: _Tally,
           on_completion=None) -> float:
    """Replay ``schedule`` with ``spec.concurrency`` threads; returns
    the wall-clock seconds the replay took."""
    work: "queue.Queue[Optional[Tuple[int, RequestSpec]]]" = queue.Queue()
    for item in enumerate(schedule):
        work.put(item)
    threads = max(1, spec.concurrency)
    for _ in range(threads):
        work.put(None)
    t0 = time.monotonic()
    done_count = [0]
    done_lock = threading.Lock()

    def worker() -> None:
        client = ServeClient(timeout=120.0, **endpoint)
        while True:
            item = work.get()
            if item is None:
                return
            _, req = item
            scheduled = t0 + req.offset_s
            if spec.rate:
                delay = scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            sent = time.monotonic()
            # open loop charges latency from the *scheduled* arrival;
            # a driver running behind still bills the backlog to the
            # system under test
            start = scheduled if spec.rate else sent
            try:
                reply = client.submit(
                    req.experiment, scale=spec.scale, seed=req.seed,
                    quick=spec.quick)
            except ServeError as exc:
                tally.record("transport_error",
                             time.monotonic() - start, error=repr(exc))
            else:
                if reply.get("ok"):
                    tally.record(reply.get("outcome", "computed"),
                                 time.monotonic() - start)
                elif reply.get("error") == "queue_full":
                    tally.record("shed", time.monotonic() - start)
                else:
                    tally.record(reply.get("error", "failed"),
                                 time.monotonic() - start,
                                 error=reply.get("detail", "")[:200])
            if on_completion is not None:
                with done_lock:
                    done_count[0] += 1
                    n = done_count[0]
                on_completion(n)

    pool = [threading.Thread(target=worker, daemon=True)
            for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return time.monotonic() - t0


def build_report(spec: LoadtestSpec, tally: _Tally, wall_s: float,
                 cluster: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
    lat = sorted(tally.latencies)
    requests = tally.completed + tally.failed
    out = tally.outcomes
    shed = out.get("shed", 0)
    dedup = out.get("dedup", 0)
    cached = out.get("cached", 0)
    answered = max(1, tally.completed)
    return {
        "schema": SCHEMA,
        "mode": spec.mode(),
        "spec": {
            "users": spec.users,
            "concurrency": spec.concurrency,
            "rate": spec.rate,
            "zipf_alpha": spec.zipf_alpha,
            "key_space": spec.key_space,
            "burst_prob": spec.burst_prob,
            "burst_size": spec.burst_size,
            "experiments": list(spec.experiments),
            "scale": spec.scale,
            "quick": spec.quick,
            "seed": spec.seed,
        },
        "requests": requests,
        "completed": tally.completed,
        "failed": tally.failed,
        "errors": list(tally.errors),
        "outcomes": dict(sorted(out.items())),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(requests / wall_s, 2) if wall_s else 0.0,
        "latency_s": {
            "p50": round(percentile(lat, 0.50), 6),
            "p95": round(percentile(lat, 0.95), 6),
            "p99": round(percentile(lat, 0.99), 6),
            "mean": round(sum(lat) / len(lat), 6) if lat else 0.0,
            "max": round(lat[-1], 6) if lat else 0.0,
        },
        "dedup_rate": round(dedup / answered, 4),
        "cache_hit_rate": round(cached / answered, 4),
        "shed_fraction": round(shed / requests, 4) if requests else 0.0,
        "cluster": cluster or {},
        "ok": tally.failed == 0,
    }


def validate_loadtest_report(report: Any) -> None:
    """Schema-check one loadtest report; raises :class:`ValueError`."""
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} report: {report!r:.80}")
    for key in ("mode", "spec", "requests", "completed", "failed",
                "outcomes", "wall_s", "throughput_rps", "latency_s",
                "dedup_rate", "cache_hit_rate", "shed_fraction",
                "cluster", "ok"):
        if key not in report:
            raise ValueError(f"loadtest report lacks {key!r}")
    lat = report["latency_s"]
    for q in ("p50", "p95", "p99", "mean", "max"):
        value = lat.get(q)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            raise ValueError(f"latency_s.{q} is not a non-negative "
                             f"number: {value!r}")
    if not (lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
            or not report["requests"]):
        raise ValueError(f"latency percentiles are not monotonic: {lat}")
    total = sum(report["outcomes"].values())
    if total != report["requests"]:
        raise ValueError(
            f"outcomes sum to {total}, expected {report['requests']}")
    if report["completed"] + report["failed"] != report["requests"]:
        raise ValueError("completed + failed != requests")


def run_loadtest(
    spec: LoadtestSpec,
    *,
    num_workers: int = 3,
    synthetic_s: Optional[float] = DEFAULT_SYNTHETIC_S,
    endpoint: Optional[Dict[str, Any]] = None,
    kill_after_requests: Optional[int] = None,
    router=None,
) -> Dict[str, Any]:
    """Run one loadtest and return its report.

    Without ``endpoint``, boots a private ``ClusterRouter`` with
    ``num_workers`` synthetic-compute workers on a Unix socket, drives
    it, and drains it afterwards.  With ``endpoint`` (kwargs for
    :class:`ServeClient`), attaches to an already-running daemon or
    cluster and leaves it up.  ``kill_after_requests=K`` SIGKILLs one
    worker when the K-th request completes -- progress-based, so the
    kill always lands mid-run -- to measure failover under load
    (requires the booted cluster or an explicit ``router``).
    """
    import tempfile

    from .cluster import ClusterRouter, WorkerConfig

    schedule = generate_schedule(spec)
    tally = _Tally()
    own_router = None
    router_thread = None
    tmpdir = None
    try:
        if endpoint is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
            sock = f"{tmpdir.name}/router.sock"
            own_router = ClusterRouter(
                num_workers=num_workers,
                socket_path=sock,
                worker_dir=f"{tmpdir.name}/workers",
                worker_config=WorkerConfig(
                    synthetic_s=synthetic_s, use_store=False,
                    queue_limit=max(64, spec.concurrency * 2),
                    cache_size=max(128, spec.key_space * 4),
                    job_threads=4,
                ),
            )
            router = own_router
            rc = {}
            router_thread = threading.Thread(
                target=lambda: rc.update(code=own_router.run()),
                daemon=True)
            router_thread.start()
            if not own_router.ready.wait(timeout=120.0):
                raise RuntimeError("cluster router did not become ready")
            endpoint = {"socket_path": sock}

        on_completion = None
        if kill_after_requests is not None:
            if router is None:
                raise ValueError("kill_after_requests needs the booted "
                                 "cluster (no --attach endpoint)")
            fired = threading.Event()

            def on_completion(n, _router=router):
                if n >= kill_after_requests and not fired.is_set():
                    fired.set()
                    killed = _router.kill_worker()
                    obs.count("loadtest.worker_kills")
                    print(f"[loadtest] killed worker {killed} after "
                          f"{n} completions", flush=True)

        wall_s = _drive(schedule, spec, endpoint, tally, on_completion)
        cluster_info: Dict[str, Any] = {}
        if router is not None:
            cluster_info = {
                "workers": len(router.ring),
                "worker_deaths": router.worker_deaths,
                "worker_restarts": router.worker_restarts,
                "resubmits": router.resubmits,
                "router_shed": router.shed,
                "killed": list(router.killed),
            }
        report = build_report(spec, tally, wall_s, cluster_info)
        validate_loadtest_report(report)
        return report
    finally:
        if own_router is not None:
            own_router.request_shutdown("loadtest done")
            if router_thread is not None:
                router_thread.join(timeout=90.0)
        if tmpdir is not None:
            tmpdir.cleanup()


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of one loadtest report."""
    lat = report["latency_s"]
    cluster = report.get("cluster") or {}
    lines = [
        f"repro loadtest ({report['mode']} loop): "
        f"{report['requests']} requests in {report['wall_s']:.1f}s "
        f"= {report['throughput_rps']:.0f} req/s",
        f"  latency: p50 {lat['p50'] * 1000:.1f}ms  "
        f"p95 {lat['p95'] * 1000:.1f}ms  "
        f"p99 {lat['p99'] * 1000:.1f}ms  "
        f"max {lat['max'] * 1000:.1f}ms",
        f"  outcomes: " + ", ".join(
            f"{k}={v}" for k, v in report["outcomes"].items()),
        f"  dedup rate {report['dedup_rate']:.1%}, "
        f"cache hit rate {report['cache_hit_rate']:.1%}, "
        f"shed {report['shed_fraction']:.1%}, "
        f"failed {report['failed']}",
    ]
    if cluster:
        lines.append(
            f"  cluster: {cluster.get('workers', 0)} worker(s), "
            f"{cluster.get('worker_deaths', 0)} death(s), "
            f"{cluster.get('worker_restarts', 0)} restart(s), "
            f"{cluster.get('resubmits', 0)} resubmit(s), "
            f"{cluster.get('router_shed', 0)} router-shed")
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    from ..harness.export import write_json_atomic

    write_json_atomic(report, path, sort_keys=True)
