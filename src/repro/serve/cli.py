"""CLI verbs for the serving layer: serve / submit / status / drain /
cluster / loadtest.

``python -m repro`` routes these leading commands here; each gets its
own ``argparse`` parser so daemon knobs and client connection options
do not pollute the experiment CLI.
"""
from __future__ import annotations

import argparse
import ast
import difflib
import json
import sys
from typing import Dict, List, Optional

from ..harness.runner import DEFAULT_SCALE
from . import cluster, protocol
from .client import ServeClient, ServeError
from .jobs import DEFAULT_QUEUE_LIMIT
from .server import DEFAULT_DRAIN_GRACE_S, DEFAULT_JOB_THREADS, ReproServer

#: exit code for "resource temporarily unavailable" (sysexits.h
#: EX_TEMPFAIL) -- what ``repro submit`` returns on a queue_full reply
EXIT_TEMPFAIL = 75


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host (default 127.0.0.1)")
    parser.add_argument("--port", type=_positive_int,
                        default=protocol.DEFAULT_PORT,
                        help=f"daemon TCP port (default "
                             f"{protocol.DEFAULT_PORT})")
    parser.add_argument("--socket", default=None,
                        help="Unix socket path (overrides host/port)")
    parser.add_argument("--wait", type=_positive_float, default=None,
                        help="seconds to keep retrying while the daemon "
                             "is not accepting yet (default: fail fast)")


def _client_from(args) -> ServeClient:
    return ServeClient(host=args.host, port=args.port,
                       socket_path=args.socket)


def _parse_params(pairs: Optional[List[str]],
                  parser: argparse.ArgumentParser) -> Dict:
    out: Dict = {}
    for pair in pairs or ():
        if "=" not in pair:
            parser.error(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            out[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key] = raw
    return out


def _check_experiment(name: str, parser: argparse.ArgumentParser) -> None:
    from ..harness.registry import experiment_names

    names = experiment_names()
    if name in names:
        return
    msg = f"unknown experiment {name!r}"
    close = difflib.get_close_matches(name, names, n=3)
    if close:
        msg += f"; did you mean: {', '.join(close)}?"
    parser.error(msg + " (see 'python -m repro list')")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_serve(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the experiment-serving daemon (repro-serve/1).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_positive_int,
                        default=protocol.DEFAULT_PORT)
    parser.add_argument("--socket", default=None,
                        help="serve on a Unix socket instead of TCP")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="service worker processes per job "
                             "(default: min(8, cpu count))")
    parser.add_argument("--job-threads", type=_positive_int,
                        default=DEFAULT_JOB_THREADS,
                        help="concurrent job slots (default "
                             f"{DEFAULT_JOB_THREADS})")
    parser.add_argument("--queue-limit", type=_positive_int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="max distinct queued+running jobs before "
                             "submissions get a backpressure reply "
                             f"(default {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--cache-size", type=_nonneg_int, default=64,
                        help="LRU result-cache capacity; 0 disables "
                             "(default 64)")
    parser.add_argument("--drain-grace", type=_positive_float,
                        default=DEFAULT_DRAIN_GRACE_S,
                        help="seconds to wait for in-flight jobs on "
                             f"drain (default {DEFAULT_DRAIN_GRACE_S:.0f})")
    parser.add_argument("--timeout", type=_positive_float, default=None,
                        help="per-shard timeout inside the service "
                             "(default 900)")
    parser.add_argument("--store-dir", default=None,
                        help="replay store directory (default "
                             "benchmarks/replay_store, or $REPRO_STORE_DIR)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the persistent replay store")
    parser.add_argument("--synthetic", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="replace the simulator with a deterministic "
                             "synthetic sleep of ~SECONDS per job "
                             "(loadtest/cluster harness mode)")
    args = parser.parse_args(argv)

    server = ReproServer(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, queue_limit=args.queue_limit,
        cache_size=args.cache_size, job_threads=args.job_threads,
        drain_grace_s=args.drain_grace, shard_timeout_s=args.timeout,
        store_dir=args.store_dir, use_store=not args.no_store,
        synthetic_s=args.synthetic,
    )
    return server.run()


def _cmd_submit(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit one experiment to a running repro daemon.",
    )
    parser.add_argument("experiment", help="experiment id (see 'list')")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment-specific parameter override "
                             "(repeatable; values parsed as Python "
                             "literals)")
    parser.add_argument("--program", default=None, metavar="FILE",
                        help="for the 'kernel' experiment: a user "
                             "@repro.kernel program file whose source is "
                             "shipped with the job (the daemon never "
                             "reads the file, so the job key is stable)")
    parser.add_argument("--scale", type=_positive_float,
                        default=DEFAULT_SCALE,
                        help=f"workload scale (default {DEFAULT_SCALE})")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="apply the smoke-size parameter set")
    parser.add_argument("--json", action="store_true",
                        help="print the raw reply envelope as JSON")
    _add_endpoint_args(parser)
    args = parser.parse_args(argv)
    _check_experiment(args.experiment, parser)
    params = _parse_params(args.param, parser)
    if args.program is not None:
        if args.experiment != "kernel":
            parser.error("--program only applies to the 'kernel' "
                         "experiment")
        try:
            with open(args.program, "r") as f:
                params["source"] = f.read()
        except OSError as exc:
            parser.error(f"cannot read --program file: {exc}")

    client = _client_from(args)
    try:
        reply = client.submit(
            args.experiment, params=params, scale=args.scale,
            seed=args.seed, quick=args.quick, wait_s=args.wait or 0.0)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2))
        return 0 if reply["ok"] else 1
    if not reply["ok"]:
        detail = reply.get("detail", "")
        print(f"submit refused: {reply['error']}"
              f"{' -- ' + detail if detail else ''}", file=sys.stderr)
        if reply["error"] == "queue_full":
            print(f"retry after {reply.get('retry_after')}s",
                  file=sys.stderr)
            return EXIT_TEMPFAIL
        return 2 if reply["error"] == "unknown_experiment" else 1
    print(reply["rendered"])
    print(f"[serve: {args.experiment} outcome={reply['outcome']} "
          f"wall={reply.get('wall_s', 0):.2f}s "
          f"waiters={reply.get('waiters', 1)}]")
    return 0


def _cmd_status(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Queue/cache status of a running repro daemon.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the raw reply envelope as JSON")
    parser.add_argument("--stats", action="store_true",
                        help="also fetch the live telemetry snapshot")
    _add_endpoint_args(parser)
    args = parser.parse_args(argv)
    client = _client_from(args)
    try:
        reply = client.status(wait_s=args.wait or 0.0)
    except ServeError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2))
    else:
        cache = reply["cache"]
        print(f"repro serve @ {reply['endpoint']} (pid {reply['pid']}, "
              f"up {reply['uptime_s']:.0f}s"
              f"{', DRAINING' if reply['draining'] else ''})")
        print(f"  queue: {reply['inflight']}/{reply['queue_limit']} "
              f"in flight, {reply['job_threads']} job thread(s), "
              f"{reply['service_workers']} service worker(s)")
        print(f"  jobs: {reply['jobs_completed']} completed, "
              f"{reply['jobs_failed']} failed, "
              f"{reply['dedup_joined']} dedup-joined, "
              f"{reply['rejected_queue_full']} rejected (queue full)")
        print(f"  cache: {cache['hits']} hits / {cache['misses']} misses, "
              f"{cache['size']}/{cache['capacity']} entries, "
              f"{cache['evictions']} evictions")
    if args.stats:
        from .. import obs

        stats = client.stats(wait_s=args.wait or 0.0)
        print(obs.render_payload(stats["telemetry"],
                                 title="live daemon telemetry"))
        for name, lat in stats["latency"].items():
            print(f"  latency {name}: {lat['count']} jobs, "
                  f"mean {lat['mean_s']:.2f}s")
    return 0


def _cmd_drain(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro drain",
        description="Gracefully drain a running repro daemon.",
    )
    _add_endpoint_args(parser)
    args = parser.parse_args(argv)
    client = _client_from(args)
    try:
        reply = client.drain(wait_s=args.wait or 0.0)
    except ServeError as exc:
        print(f"drain failed: {exc}", file=sys.stderr)
        return 1
    print(f"draining ({reply['inflight']} job(s) in flight)")
    return 0


def _cmd_cluster(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Run a consistent-hash cluster: a front router over "
                    "N supervised serving daemons.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_positive_int,
                        default=protocol.DEFAULT_PORT)
    parser.add_argument("--socket", default=None,
                        help="route on a Unix socket instead of TCP")
    parser.add_argument("--workers", type=_positive_int, default=3,
                        help="daemon worker processes (default 3)")
    parser.add_argument("--worker-dir", default=None,
                        help="directory for worker sockets and logs "
                             "(default: a private temp dir)")
    parser.add_argument("--replicas", type=_positive_int,
                        default=cluster.DEFAULT_RING_REPLICAS,
                        help="virtual ring points per worker (default "
                             f"{cluster.DEFAULT_RING_REPLICAS})")
    parser.add_argument("--restart-limit", type=_nonneg_int,
                        default=cluster.DEFAULT_RESTART_LIMIT,
                        help="restarts per worker before it stays dead "
                             f"(default {cluster.DEFAULT_RESTART_LIMIT})")
    parser.add_argument("--queue-limit", type=_positive_int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="per-worker job queue bound (default "
                             f"{DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--cache-size", type=_nonneg_int, default=64,
                        help="per-worker LRU result-cache capacity "
                             "(default 64)")
    parser.add_argument("--job-threads", type=_positive_int,
                        default=DEFAULT_JOB_THREADS,
                        help="concurrent job slots per worker (default "
                             f"{DEFAULT_JOB_THREADS})")
    parser.add_argument("--service-workers", type=_positive_int, default=1,
                        help="service worker processes per worker daemon "
                             "(default 1; the cluster itself is the "
                             "parallelism)")
    parser.add_argument("--drain-grace", type=_positive_float,
                        default=cluster.DEFAULT_CLUSTER_DRAIN_GRACE_S,
                        help="seconds to wait for workers on drain")
    parser.add_argument("--timeout", type=_positive_float, default=None,
                        help="per-shard timeout inside each worker")
    parser.add_argument("--store-dir", default=None,
                        help="shared replay store directory (one SQLite file; "
                             "all workers merge into it)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the persistent replay store")
    parser.add_argument("--synthetic", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="workers fake the simulator with a "
                             "deterministic synthetic sleep (loadtest "
                             "harness mode)")
    args = parser.parse_args(argv)

    router = cluster.ClusterRouter(
        num_workers=args.workers,
        host=args.host, port=args.port, socket_path=args.socket,
        worker_dir=args.worker_dir,
        ring_replicas=args.replicas,
        restart_limit=args.restart_limit,
        drain_grace_s=args.drain_grace,
        worker_config=cluster.WorkerConfig(
            queue_limit=args.queue_limit,
            cache_size=args.cache_size,
            job_threads=args.job_threads,
            service_workers=args.service_workers,
            shard_timeout_s=args.timeout,
            store_dir=args.store_dir,
            use_store=not args.no_store,
            synthetic_s=args.synthetic,
            drain_grace_s=args.drain_grace,
        ),
    )
    try:
        return router.run()
    except RuntimeError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        return 1


def _cmd_loadtest(argv: List[str]) -> int:
    from . import loadtest

    parser = argparse.ArgumentParser(
        prog="python -m repro loadtest",
        description="Generate seeded zipf traffic against a serving "
                    "cluster and report latency percentiles, throughput "
                    "and dedup/shed rates.",
    )
    parser.add_argument("--users", type=_positive_int, default=10_000,
                        help="total requests to issue (default 10000)")
    parser.add_argument("--concurrency", type=_positive_int, default=32,
                        help="driver threads / closed-loop users "
                             "(default 32)")
    parser.add_argument("--rate", type=_positive_float, default=None,
                        metavar="REQ_PER_S",
                        help="open-loop Poisson arrival rate; latency is "
                             "then measured from the scheduled arrival "
                             "(default: closed loop)")
    parser.add_argument("--workers", type=_positive_int, default=3,
                        help="cluster workers to boot (default 3; "
                             "ignored with --attach)")
    parser.add_argument("--synthetic", type=_positive_float,
                        default=loadtest.DEFAULT_SYNTHETIC_S,
                        metavar="SECONDS",
                        help="synthetic per-job cost in the booted "
                             "cluster (default "
                             f"{loadtest.DEFAULT_SYNTHETIC_S})")
    parser.add_argument("--attach", default=None, metavar="ENDPOINT",
                        help="drive an already-running daemon/cluster: "
                             "a Unix socket path, or HOST:PORT")
    parser.add_argument("--experiments", default="init",
                        help="comma-separated experiment ids the traffic "
                             "draws from (default: init)")
    parser.add_argument("--key-space", type=_positive_int, default=32,
                        help="distinct job keys in the zipf universe "
                             "(default 32)")
    parser.add_argument("--zipf-alpha", type=_positive_float, default=1.1,
                        help="popularity skew exponent (default 1.1)")
    parser.add_argument("--burst-prob", type=float, default=0.05,
                        help="chance a request is a duplicate burst "
                             "(default 0.05)")
    parser.add_argument("--burst-size", type=_positive_int, default=4,
                        help="duplicates per burst (default 4)")
    parser.add_argument("--scale", type=_positive_float, default=0.05,
                        help="experiment scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=7,
                        help="schedule seed (default 7)")
    parser.add_argument("--kill-after-requests", type=_positive_int,
                        default=None, metavar="K",
                        help="SIGKILL one worker once K requests have "
                             "completed (failover-under-load drill; "
                             "booted cluster only)")
    parser.add_argument("--output", default=loadtest.DEFAULT_OUTPUT,
                        help="report path (default "
                             f"{loadtest.DEFAULT_OUTPUT})")
    parser.add_argument("--json", action="store_true",
                        help="print the raw report as JSON")
    args = parser.parse_args(argv)

    experiments = tuple(e.strip() for e in args.experiments.split(",")
                        if e.strip())
    if not experiments:
        parser.error("--experiments names no experiment")
    for name in experiments:
        _check_experiment(name, parser)
    if not 0.0 <= args.burst_prob <= 1.0:
        parser.error("--burst-prob must be within [0, 1]")
    endpoint = None
    if args.attach:
        if ":" in args.attach and "/" not in args.attach:
            host, _, port = args.attach.rpartition(":")
            endpoint = {"host": host, "port": int(port)}
        else:
            endpoint = {"socket_path": args.attach}
        if args.kill_after_requests is not None:
            parser.error("--kill-after-requests needs the booted "
                         "cluster, not --attach")

    spec = loadtest.LoadtestSpec(
        users=args.users, concurrency=args.concurrency, rate=args.rate,
        zipf_alpha=args.zipf_alpha, key_space=args.key_space,
        burst_prob=args.burst_prob, burst_size=args.burst_size,
        experiments=experiments, scale=args.scale, seed=args.seed,
    )
    try:
        report = loadtest.run_loadtest(
            spec, num_workers=args.workers, synthetic_s=args.synthetic,
            endpoint=endpoint,
            kill_after_requests=args.kill_after_requests)
    except (RuntimeError, ServeError, ValueError) as exc:
        print(f"loadtest failed: {exc}", file=sys.stderr)
        return 1
    loadtest.write_report(report, args.output)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(loadtest.format_report(report))
    print(f"[loadtest report -> {args.output}]")
    return 0 if report["ok"] else 1


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "drain": _cmd_drain,
    "cluster": _cmd_cluster,
    "loadtest": _cmd_loadtest,
}


def serve_cli_main(argv: List[str]) -> int:
    """Entry point for the serve-family commands (argv[0] names one)."""
    return _COMMANDS[argv[0]](argv[1:])
