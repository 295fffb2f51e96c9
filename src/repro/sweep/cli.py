"""``python -m repro sweep``: run, inspect, and query sweeps.

Verbs::

    sweep run SPEC [--workers N] [--db PATH] [--dry-run]
    sweep ls                               # sweeps in the database
    sweep show SWEEP [--status error]      # per-point detail
    sweep query [--sweep S] [--where k=v]... [--metrics a,b]
                [--format table|csv|json] [--output PATH]
    sweep report sensitivity --knob K --metric M [--sweep S]
    sweep report pareto --metrics a,b [--maximize a] [--sweep S]
    sweep import BENCH_pipeline.json [...]

Everything but ``run`` works from the database alone.  ``--where``
values parse as JSON literals (``--where model_tlb=true``) and fall
back to strings; knob, metric, and identity-column names all work.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from ..argtypes import positive_float, positive_int
from ..harness.export import export_rows, rows_to_payload
from ..harness.resultdb import (
    ResultDB,
    ResultDBError,
    default_db_path,
    import_bench_file,
)
from .driver import run_sweep
from .reports import pareto_report, sensitivity_report
from .spec import SweepSpecError, describe_points, load_spec


def _parse_where(pairs: Optional[Sequence[str]],
                 parser: argparse.ArgumentParser) -> Dict[str, Any]:
    where: Dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(f"--where expects KEY=VALUE, got {pair!r}")
        try:
            where[key] = json.loads(value)
        except json.JSONDecodeError:
            where[key] = value
    return where


def _csv_list(text: Optional[str]) -> List[str]:
    return [t for t in (text or "").split(",") if t]


def _render_rows(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "(no rows)"
    payload = rows_to_payload(rows)
    columns = payload["columns"]
    widths = {c: len(c) for c in columns}
    cells = []
    for row in rows:
        line = {c: _cell(row.get(c)) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(line[c]))
        cells.append(line)
    out = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    out.append("  ".join("-" * widths[c] for c in columns))
    for line in cells:
        out.append("  ".join(line[c].ljust(widths[c])
                             for c in columns).rstrip())
    return "\n".join(out)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def sweep_cli_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Declarative characterization sweeps over GPU "
                    "config knobs, recorded in a queryable SQLite "
                    "database (see DESIGN.md §5.8).",
    )
    parser.add_argument("--db", default=None,
                        help=f"result database path (default "
                             f"{default_db_path()}, or $REPRO_RESULTDB)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a sweep spec")
    p_run.add_argument("spec", help="spec file (JSON or TOML-ish)")
    p_run.add_argument("--workers", type=positive_int, default=None)
    p_run.add_argument("--timeout", type=positive_float, default=None,
                       help="per-point timeout in seconds (default 900)")
    p_run.add_argument("--batch", type=positive_int, default=None,
                       help="points per commit batch (default 2x workers)")
    p_run.add_argument("--store-dir", default=None)
    p_run.add_argument("--no-store", action="store_true")
    p_run.add_argument("--dry-run", action="store_true",
                       help="resolve and list points; run nothing")
    p_run.add_argument("--json", action="store_true",
                       help="print the run report as JSON")

    sub.add_parser("ls", help="list sweeps in the database")

    p_show = sub.add_parser("show", help="per-point detail of one sweep")
    p_show.add_argument("sweep")
    p_show.add_argument("--status", default=None,
                        choices=("ok", "error"))

    p_query = sub.add_parser("query", help="flat rows: knobs + metrics")
    p_query.add_argument("--sweep", default=None)
    p_query.add_argument("--where", action="append", metavar="K=V")
    p_query.add_argument("--metrics", default=None,
                         help="comma-separated metric columns "
                              "(default: all)")
    p_query.add_argument("--status", default="ok",
                         choices=("ok", "error", "any"))
    p_query.add_argument("--format", dest="fmt", default="table",
                         choices=("table", "csv", "json"))
    p_query.add_argument("--output", default=None,
                         help="write csv/json here instead of stdout")

    p_report = sub.add_parser("report", help="sensitivity / pareto")
    rsub = p_report.add_subparsers(dest="report", required=True)
    p_sens = rsub.add_parser("sensitivity",
                             help="metric-vs-knob pivot table")
    p_sens.add_argument("--knob", required=True)
    p_sens.add_argument("--metric", required=True)
    p_sens.add_argument("--sweep", default=None)
    p_sens.add_argument("--where", action="append", metavar="K=V")
    p_sens.add_argument("--json", action="store_true")
    p_pareto = rsub.add_parser("pareto", help="non-dominated points")
    p_pareto.add_argument("--metrics", required=True,
                          help="comma-separated objectives (minimized)")
    p_pareto.add_argument("--maximize", default=None,
                          help="comma-separated subset to maximize")
    p_pareto.add_argument("--sweep", default=None)
    p_pareto.add_argument("--where", action="append", metavar="K=V")
    p_pareto.add_argument("--json", action="store_true")

    p_import = sub.add_parser("import",
                              help="import BENCH_*.json into the db")
    p_import.add_argument("paths", nargs="+")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args, parser)
    except (SweepSpecError, ResultDBError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, parser) -> int:
    if args.verb == "run":
        spec = load_spec(args.spec)
        if args.dry_run:
            points = spec.resolve_points()
            print(describe_points(points))
            print(f"({len(points)} points)")
            return 0
        kwargs = {}
        if args.timeout is not None:
            kwargs["timeout_s"] = args.timeout
        echo = ((lambda m: print(m, file=sys.stderr)) if args.json
                else print)   # --json keeps stdout machine-parseable
        report = run_sweep(
            spec, args.db, num_workers=args.workers,
            store_dir=args.store_dir, use_store=not args.no_store,
            batch_size=args.batch, echo=echo, **kwargs)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    with ResultDB(args.db) as db:
        if args.verb == "ls":
            sweeps = db.sweeps()
            if not sweeps:
                print(f"(no sweeps in {db.path})")
                return 0
            for s in sweeps:
                print(f"{s['sweep']:24s} {s['points']:4d} points "
                      f"({s['ok']} ok, {s['errors']} error)")
            return 0

        if args.verb == "show":
            points = db.fetch_points(sweep=args.sweep,
                                     status=args.status)
            if not points:
                known = [s["sweep"] for s in db.sweeps()]
                print(f"no points for sweep {args.sweep!r}"
                      + (f"; known sweeps: {', '.join(known)}"
                         if known else f" in {db.path}"))
                return 1
            for row in sorted(points, key=lambda r: (
                    str(r["workload"]), str(r["technique"]),
                    r["point_id"])):
                knobs = ",".join(f"{k}={_cell(v)}"
                                 for k, v in sorted(row["knobs"].items()))
                wall = (f"{row['wall_s']:.2f}s"
                        if row["wall_s"] is not None else "-")
                line = (f"{row['point_id']}  {row['status']:5s} "
                        f"{row['outcome'] or '-':8s} {wall:>8s}  "
                        f"{row['workload']}/{row['technique']}"
                        + (f"  [{knobs}]" if knobs else ""))
                if row["status"] == "error" and row["error"]:
                    line += "\n    " + row["error"].strip().splitlines()[-1]
                print(line)
            return 0

        if args.verb == "query":
            status = None if args.status == "any" else args.status
            rows = db.query_rows(
                sweep=args.sweep,
                where=_parse_where(args.where, parser),
                metrics=_csv_list(args.metrics) or None,
                status=status,
            )
            if args.output:
                path = export_rows(rows, args.output, fmt=(
                    None if args.fmt == "table" else args.fmt))
                print(f"wrote {len(rows)} rows to {path}")
                return 0
            if args.fmt == "json":
                print(json.dumps(rows_to_payload(rows), indent=2))
            elif args.fmt == "csv":
                payload = rows_to_payload(rows)
                print(",".join(payload["columns"]))
                for row in rows:
                    print(",".join(_cell(row.get(c)) if row.get(c)
                                   is not None else ""
                                   for c in payload["columns"]))
            else:
                print(_render_rows(rows))
            return 0

        if args.verb == "report":
            where = _parse_where(args.where, parser)
            if args.report == "sensitivity":
                rep = sensitivity_report(db, args.knob, args.metric,
                                         sweep=args.sweep, where=where)
            else:
                rep = pareto_report(
                    db, _csv_list(args.metrics),
                    maximize=_csv_list(args.maximize),
                    sweep=args.sweep, where=where)
            if args.json:
                print(json.dumps(rep.to_dict(), indent=2))
            else:
                print(rep.render())
            return 0

        if args.verb == "import":
            total = 0
            for path in args.paths:
                info = import_bench_file(db, path)
                total += info["points"]
                print(f"imported {info['points']:3d} points from "
                      f"{path} as {info['kind']} ({info['run_id']})")
            print(f"{total} points -> {db.path}")
            return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")
