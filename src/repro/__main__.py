"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list                       # available experiments
    python -m repro fig6 [--scale 0.25]        # one experiment
    python -m repro all  [--workers 4]         # everything, in parallel
    python -m repro all --serial --no-store    # old single-process path
    python -m repro disasm typepointer         # show a lowering
    python -m repro profile TRAF --technique coal   # nvprof-style counters
    python -m repro profile fig6               # telemetry span/counter tree
    python -m repro all --telemetry out.json   # dump merged obs registry
    python -m repro fuzz 100                   # differential dispatch fuzzing
    python -m repro fuzz 100 --frontend        # ...through the DSL front-end
    python -m repro kernel my_kernels.py       # run a user kernel program
    python -m repro selfbench                  # engine gate: fused vs reference
    python -m repro serve --port 7453          # experiment-serving daemon
    python -m repro submit fig6 --quick        # submit to a running daemon
    python -m repro status                     # daemon queue/cache status
    python -m repro drain                      # graceful daemon shutdown
    python -m repro chaos --seeds 25           # fault-injection soak run
    python -m repro sweep run spec.json        # characterization sweep
    python -m repro sweep query --where model_tlb=true   # query the DB
    python -m repro fig6 --config l1.size_bytes=8192     # knob override

Every experiment is an entry in :mod:`repro.harness.registry`; the CLI
is a registry lookup.  ``all`` goes through the parallel
:class:`~repro.harness.service.ExperimentService`: sweep shards run on
a worker pool backed by the disk-persistent replay store, and the run
manifest (shard outcomes, memo hit rates) lands next to
``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import sys
import time

from .argtypes import positive_float, positive_int
from .core.instrumentation import disassemble
from .errors import UnknownEngineError, UnknownTechniqueError
from .gpu.config import scaled_config
from .gpu.machine import Machine
from .techniques import available as technique_names
from .techniques import resolve as resolve_technique
from .harness.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentOptions,
    SMOKE_PARAMS,
    experiment_names,
    get_experiment,
    run_experiment,
)

#: Backwards-compatible view of the registry: experiment id -> runner
#: taking a scale (kept for callers of the pre-registry CLI module).
EXPERIMENTS = {
    name: (lambda scale, _n=name: run_experiment(
        _n, ExperimentOptions(scale=scale)))
    for name in experiment_names()
}

#: leading commands routed to the serving layer's own CLI parsers
SERVE_COMMANDS = ("serve", "submit", "status", "drain")


def _unknown_experiment_message(name: str) -> str:
    """An actionable error for a bad experiment id, with close matches."""
    import difflib

    known = list(experiment_names()) + [
        "all", "list", "disasm", "profile", "fuzz", "selfbench", "chaos",
        "sweep", *SERVE_COMMANDS,
    ]
    msg = f"unknown experiment {name!r}"
    close = difflib.get_close_matches(name, known, n=3)
    if close:
        msg += f"; did you mean: {', '.join(close)}?"
    return msg + " (see 'python -m repro list')"


def _config_from(args, parser) -> object:
    """Build a knob-overridden GPUConfig from repeated ``--config K=V``.

    Shares the sweep engine's override path (``config_with_knobs``), so
    dotted cache-geometry knobs, did-you-mean hints, and geometry
    re-validation behave identically in both.
    """
    if not getattr(args, "config", None):
        return None
    import json as _json

    from .gpu.config import config_with_knobs

    knobs = {}
    for item in args.config:
        key, sep, value = item.partition("=")
        if not sep or not key:
            parser.error(f"--config expects KNOB=VALUE, got {item!r}")
        try:
            knobs[key] = _json.loads(value)
        except _json.JSONDecodeError:
            knobs[key] = value
    try:
        return config_with_knobs(scaled_config(), knobs)
    except ValueError as exc:
        parser.error(str(exc))


def _options_from(args) -> ExperimentOptions:
    workloads = (tuple(w for w in args.workloads.split(",") if w)
                 if args.workloads else None)
    return ExperimentOptions(
        scale=args.scale,
        workloads=workloads,
        config=getattr(args, "config_obj", None),
        params=SMOKE_PARAMS if args.quick else {},
    )


def _run_all(args) -> int:
    from .harness.service import (
        DEFAULT_MANIFEST_PATH,
        ExperimentService,
    )

    num_workers = 1 if args.serial else args.workers
    service = ExperimentService(
        num_workers=num_workers,
        timeout_s=args.timeout,
        store_dir=args.store_dir,
        use_store=not args.no_store,
    )
    options = _options_from(args)
    t0 = time.time()
    run = service.run(options=options,
                      manifest_path=args.manifest or DEFAULT_MANIFEST_PATH)
    for name in experiment_names():
        print(run.render(name))
        print()
    totals = run.manifest["totals"]
    store = run.manifest["store"]
    print(f"[all: {totals['shards']} shards on "
          f"{run.manifest['num_workers']} worker(s), mode="
          f"{run.manifest['mode']}, outcomes={totals['outcomes']}, "
          f"memo hit rate {totals['memo_hit_rate']:.0%}"
          f"{' (warm store)' if store['warm_start'] else ''}, "
          f"{time.time() - t0:.1f}s]")
    print(f"[manifest: {args.manifest or DEFAULT_MANIFEST_PATH}]")
    if args.telemetry:
        import json

        with open(args.telemetry, "w") as f:
            json.dump(run.manifest["telemetry"], f, indent=2)
            f.write("\n")
        print(f"[telemetry: {args.telemetry}]")
    return 0


def _chaos_main(argv) -> int:
    """``python -m repro chaos``: the fault-injection soak runner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run seeded fault-injection schedules against the "
                    "full store/service/serve stack and assert the "
                    "recovery invariants (see DESIGN.md §5.5).",
    )
    parser.add_argument("--seeds", type=positive_int, default=5,
                        help="number of seeded schedules to run "
                             "(default 5)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed of the range (default 0)")
    parser.add_argument("--scale", type=positive_float, default=0.05,
                        help="workload scale per scenario (default 0.05)")
    parser.add_argument("--experiments", default=None,
                        help="comma-separated experiment ids each "
                             "scenario submits (default: init)")
    args = parser.parse_args(argv)

    from .faults.chaos import (
        DEFAULT_EXPERIMENTS,
        format_report,
        run_chaos,
    )

    experiments = (tuple(e for e in args.experiments.split(",") if e)
                   if args.experiments else DEFAULT_EXPERIMENTS)
    for name in experiments:
        if name not in EXPERIMENT_REGISTRY:
            parser.error(_unknown_experiment_message(name))
    report = run_chaos(args.seeds, args.start_seed, experiments,
                       scale=args.scale)
    print(format_report(report))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SERVE_COMMANDS:
        from .serve.cli import serve_cli_main

        return serve_cli_main(argv)
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "sweep":
        from .sweep.cli import sweep_cli_main

        return sweep_cli_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of 'Judging a Type "
                    "by Its Pointer' (ASPLOS 2021) in simulation.",
    )
    parser.add_argument("experiment",
                        help="experiment id (see 'list'), 'all', 'list', "
                             "'disasm' or 'profile'")
    parser.add_argument("target", nargs="?", default=None,
                        help="technique for 'disasm'; workload or "
                             "experiment for 'profile' (techniques: "
                             f"{', '.join(technique_names())}); program "
                             "file for 'kernel'; program count for "
                             "'fuzz'")
    parser.add_argument("--technique", default="typepointer",
                        help="technique for 'profile' (default typepointer)")
    parser.add_argument("--techniques", default=None,
                        help="comma-separated technique subset for 'kernel' "
                             "and 'fuzz' (default: the registry's figure "
                             "set / fuzz set)")
    parser.add_argument("--frontend", action="store_true",
                        help="for 'fuzz': lower the generated programs "
                             "through the device_class/@kernel front-end")
    parser.add_argument("--config", action="append", metavar="KNOB=V",
                        help="GPU config knob override (repeatable; "
                             "dotted keys reach cache geometry, e.g. "
                             "--config l1.size_bytes=8192 "
                             "--config model_tlb=false)")
    parser.add_argument("--scale", type=positive_float, default=0.25,
                        help="workload scale factor (default 0.25)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload subset for sweep-"
                             "based experiments (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the self-sized experiments to smoke "
                             "size (CI; pair with a small --scale)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="worker processes for 'all' "
                             "(default: min(8, cpu count))")
    parser.add_argument("--serial", action="store_true",
                        help="run 'all' in-process (no worker pool)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the persistent replay store")
    parser.add_argument("--store-dir", default=None,
                        help="replay store directory (default "
                             "benchmarks/replay_store, or $REPRO_STORE_DIR)")
    parser.add_argument("--manifest", default=None,
                        help="run-manifest path for 'all' (default "
                             "benchmarks/results/run_manifest.json)")
    parser.add_argument("--telemetry", default=None,
                        help="dump the merged span/counter registry of "
                             "'all' (machine + service + store layers) "
                             "to this JSON path")
    parser.add_argument("--timeout", type=positive_float, default=900.0,
                        help="per-shard timeout in seconds (default 900)")
    parser.add_argument("--output", default=None,
                        help="report path for 'selfbench' "
                             "(default BENCH_pipeline.json)")
    args = parser.parse_args(argv)
    args.config_obj = _config_from(args, parser)

    # fail fast (exit 2 + hints) on a bad replay engine, whether it came
    # from --config replay_engine=... or the REPRO_REPLAY_ENGINE env var
    from .gpu.replay import resolve_engine_name

    try:
        resolve_engine_name(args.config_obj or scaled_config())
    except UnknownEngineError as exc:
        parser.error(str(exc))

    def _validated_techniques(csv: str) -> tuple:
        """Resolve a comma-separated technique list or exit 2 with hints."""
        names = tuple(t for t in csv.split(",") if t)
        try:
            return tuple(resolve_technique(t).name for t in names)
        except UnknownTechniqueError as exc:
            parser.error(str(exc))

    if args.experiment == "list":
        for name in experiment_names():
            print(f"{name:8s} {get_experiment(name).description}")
        print("plus: all | disasm | profile | fuzz | selfbench | serve | "
              "submit | status | drain | chaos | "
              "sweep [run|ls|show|query|report|import]")
        return 0

    if args.experiment == "selfbench":
        if args.target is not None:
            parser.error(
                f"'selfbench' takes no target (got {args.target!r}); it is "
                "only the engine gate.  The service is timed by "
                "'perfbench/run.py --workload all-cold|all-warm'")

        from .harness.selfbench import DEFAULT_OUTPUT, format_report, run_selfbench

        out = args.output or DEFAULT_OUTPUT
        workloads = (tuple(w for w in args.workloads.split(",") if w)
                     if args.workloads else None)
        t0 = time.time()
        report = run_selfbench(workloads=workloads, scale=args.scale,
                               output=out)
        print(format_report(report))
        print(f"wrote {out} [{time.time() - t0:.1f}s]")
        return 0 if report["counters_match"] else 1

    if args.experiment == "disasm":
        target = args.target or "typepointer"
        technique = target
        if target != "tp_on_cuda_baseline":   # disasm-only pseudo-target
            try:
                technique = resolve_technique(target).name
            except UnknownTechniqueError as exc:
                parser.error(str(exc))
        print(f"; virtual call lowering under {technique!r}")
        for line in disassemble(technique):
            print("  " + line)
        return 0

    if args.experiment == "fuzz":
        from .harness.fuzz import fuzz

        techniques = (_validated_techniques(args.techniques)
                      if args.techniques else None)
        n = int(args.target) if args.target and args.target.isdigit() else 50
        report = fuzz(num_programs=n, techniques=techniques,
                      frontend=args.frontend)
        mode = " through the front-end" if args.frontend else ""
        print(f"fuzzed {report.programs} programs{mode}: "
              f"{'all techniques agree with the oracle' if report.ok else 'DIVERGENCES'}")
        for d in report.divergences:
            print("  " + d)
        return 0 if report.ok else 1

    if args.experiment == "kernel":
        # user-programmable kernels: run a program file (or the built-in
        # demo) under several techniques and cross-check the checksums
        params = {}
        if args.target:
            params["path"] = args.target
        if args.techniques:
            params["techniques"] = _validated_techniques(args.techniques)
        options = ExperimentOptions(
            scale=args.scale,
            params={"kernel": {**SMOKE_PARAMS["kernel"], **params}}
            if args.quick else {"kernel": params},
        )
        exp = get_experiment("kernel")
        result = exp.run(options)
        print(exp.render(result))
        return 0 if result.ok else 1

    if args.experiment == "profile":
        if args.target in EXPERIMENT_REGISTRY:
            # experiment mode: run it under a fresh obs registry and
            # render the span tree + counters it recorded
            from . import obs

            reg = obs.Registry()
            prev = obs.set_registry(reg)
            try:
                exp = get_experiment(args.target)
                result = exp.run(_options_from(args))
            finally:
                obs.set_registry(prev)
            print(exp.render(result))
            print()
            print(obs.render_payload(reg.to_dict(),
                                     title=f"telemetry: {exp.name}"))
            return 0

        from .harness.profile_report import profile_report
        from .workloads import make_workload

        try:
            technique = resolve_technique(args.technique).name
        except UnknownTechniqueError as exc:
            parser.error(str(exc))
        m = Machine(technique, config=args.config_obj or scaled_config())
        wl = make_workload(args.target or "TRAF", m, scale=args.scale)
        wl.run()
        print(profile_report(
            m, title=f"profile: {args.target} under {technique}"
        ))
        return 0

    if args.experiment == "all":
        return _run_all(args)

    if args.experiment not in EXPERIMENT_REGISTRY:
        parser.error(_unknown_experiment_message(args.experiment))

    exp = get_experiment(args.experiment)
    t0 = time.time()
    result = exp.run(_options_from(args))
    print(exp.render(result))
    print(f"[{exp.name} took {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
