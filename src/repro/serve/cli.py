"""CLI verbs for the serving layer: serve / submit / status / drain.

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

from ..argtypes import port, positive_float, positive_int
from ..harness.runner import DEFAULT_SCALE
from . import protocol
from .client import ServeClient, ServeError
from .jobs import DEFAULT_QUEUE_LIMIT
from .server import DEFAULT_DRAIN_GRACE_S, DEFAULT_JOB_THREADS, ReproServer

#: exit code for "resource temporarily unavailable" (sysexits.h
#: EX_TEMPFAIL) -- what ``repro submit`` returns on a queue_full reply
EXIT_TEMPFAIL = 75


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
    parser.add_argument("--port", type=port,
                        default=protocol.DEFAULT_PORT,
                        help=f"daemon TCP port (default "
                             f"{protocol.DEFAULT_PORT})")
    parser.add_argument("--socket", default=None,
                        help="Unix socket path (overrides host/port)")
    parser.add_argument("--wait", type=positive_float, default=None,
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
    parser.add_argument("--port", type=port,
                        default=protocol.DEFAULT_PORT)
    parser.add_argument("--socket", default=None,
                        help="serve on a Unix socket instead of TCP")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="service worker processes per job "
                             "(default: min(8, cpu count))")
    parser.add_argument("--job-threads", type=positive_int,
                        default=DEFAULT_JOB_THREADS,
                        help="concurrent job slots (default "
                             f"{DEFAULT_JOB_THREADS})")
    parser.add_argument("--queue-limit", type=positive_int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="max distinct queued+running jobs before "
                             "submissions get a backpressure reply "
                             f"(default {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--cache-size", type=_nonneg_int, default=64,
                        help="LRU result-cache capacity; 0 disables "
                             "(default 64)")
    parser.add_argument("--drain-grace", type=positive_float,
                        default=DEFAULT_DRAIN_GRACE_S,
                        help="seconds to wait for in-flight jobs on "
                             f"drain (default {DEFAULT_DRAIN_GRACE_S:.0f})")
    parser.add_argument("--timeout", type=positive_float, default=None,
                        help="per-shard timeout inside the service "
                             "(default 900)")
    parser.add_argument("--store-dir", default=None,
                        help="replay store directory (default "
                             "benchmarks/replay_store, or $REPRO_STORE_DIR)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the persistent replay store")
    args = parser.parse_args(argv)

    server = ReproServer(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, queue_limit=args.queue_limit,
        cache_size=args.cache_size, job_threads=args.job_threads,
        drain_grace_s=args.drain_grace, shard_timeout_s=args.timeout,
        store_dir=args.store_dir, use_store=not args.no_store,
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
    parser.add_argument("--scale", type=positive_float,
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


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "drain": _cmd_drain,
}


def serve_cli_main(argv: List[str]) -> int:
    """Entry point for the serve-family commands (argv[0] names one)."""
    return _COMMANDS[argv[0]](argv[1:])
