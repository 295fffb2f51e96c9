"""User kernel *programs*: load, run across techniques, report.

A program is a self-contained Python module -- a source string or a
file -- written against only the public front-end API.  Its contract
is one entry point::

    def run(machine) -> float:
        ...build device classes / allocate / launch kernels...
        return checksum

``run_program`` executes the entry under each requested technique on a
fresh :class:`Machine` and reports per-technique checksums plus the
headline counters, flagging any functional divergence -- the same
cross-technique agreement check the built-in workloads get from the
figure harnesses.  This is what the ``kernel`` registry experiment and
``python -m repro kernel FILE`` run, and because it is reached through
the ordinary experiment registry, a user kernel submitted to
``repro.serve`` deduplicates and caches under the standard ``job_key``
(the program source travels in the job's ``params``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import FrontendError
from ..gpu.config import GPUConfig, small_config
from ..gpu.machine import Machine
from ..gpu.stats import KernelStats
from ..techniques import figure_techniques, resolve as resolve_technique

#: the quickstart program: what ``python -m repro kernel`` runs when
#: no file is given, and the serve demo submission.
DEMO_SOURCE = '''\
import numpy as np
from repro import device_class, kernel, virtual, abstract


@device_class
class Counter:
    count: "u32"

    @abstract
    def bump(self, ctx): ...


@device_class
class Slow(Counter):
    @virtual
    def bump(self, ctx):
        c = self.count
        ctx.alu(1)
        self.count = c + np.uint32(1)


@device_class
class Fast(Counter):
    @virtual
    def bump(self, ctx):
        c = self.count
        ctx.alu(1)
        self.count = c + np.uint32(3)


@kernel
def bump_all(ctx, objects):
    ptrs = objects.ld(ctx, ctx.tid)
    Counter.view(ctx, ptrs).bump()


def run(machine):
    n = 512
    ptrs = np.empty(n, dtype=np.uint64)
    ptrs[0::2] = Slow.alloc(machine, n // 2)
    ptrs[1::2] = Fast.alloc(machine, n - n // 2)
    objects = machine.array_from(ptrs, "u64")
    for _ in range(4):
        bump_all[n](machine, objects)
    counts = Counter.read_field(machine, ptrs, "count")
    return float(counts.sum())
'''


def load_program(source: Optional[str] = None,
                 path: Optional[str] = None) -> Callable[[Machine], Any]:
    """Load a program from source text or a file; returns its entry.

    Exactly one of ``source``/``path`` must be given.  The module must
    define ``run(machine)``; anything else is a :class:`FrontendError`
    (including syntax/runtime errors at import time, so a bad program
    fails before any machine is built).
    """
    if (source is None) == (path is None):
        raise FrontendError(
            "load_program needs exactly one of source= or path=")
    where = path or "<kernel program>"
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            raise FrontendError(f"cannot read program {path!r}: {exc}")
    namespace: Dict[str, Any] = {"__name__": "repro_kernel_program",
                                 "__file__": where}
    try:
        # dont_inherit: the program's __future__ flags are its own, not
        # this module's (inherited PEP 563 would stringify annotations)
        exec(compile(source, where, "exec", dont_inherit=True), namespace)
    except Exception as exc:
        raise FrontendError(
            f"program {where} failed to load: {type(exc).__name__}: {exc}"
        ) from exc
    entry = namespace.get("run")
    if not callable(entry):
        raise FrontendError(
            f"program {where} must define run(machine); got "
            f"{entry!r}"
        )
    return entry


@dataclass
class ProgramResult:
    """One program executed across techniques."""

    techniques: Tuple[str, ...]
    checksums: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, KernelStats] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All techniques produced the same checksum (bit-identical)."""
        vals = list(self.checksums.values())
        return all(v == vals[0] for v in vals) if vals else False

    @property
    def table(self) -> str:
        from ..harness.report import format_table

        rows = []
        for tech in self.techniques:
            s = self.stats[tech]
            rows.append([
                tech, self.checksums[tech], float(s.cycles),
                int(s.vfunc_calls), int(s.global_load_transactions),
            ])
        verdict = ("all techniques agree" if self.ok
                   else "CHECKSUM DIVERGENCE")
        return format_table(
            ["technique", "checksum", "cycles", "vcalls", "ld_txn"],
            rows, title=f"user kernel program ({verdict})",
        )


def run_program(
    entry: Callable[[Machine], Any],
    techniques: Optional[Sequence[str]] = None,
    config: Optional[GPUConfig] = None,
) -> ProgramResult:
    """Run a loaded program under each technique on a fresh machine."""
    if techniques is None:
        techniques = figure_techniques()
    # fail on unknown names (with hints) before any machine is built
    techniques = tuple(resolve_technique(t).name for t in techniques)
    result = ProgramResult(techniques=techniques)
    for tech in result.techniques:
        machine = Machine(tech, config=config)
        checksum = entry(machine)
        result.checksums[tech] = float(checksum)
        result.stats[tech] = machine.run_stats
    return result


# ----------------------------------------------------------------------
# registry glue (registered by repro.harness.registry as "kernel")
# ----------------------------------------------------------------------
def run_program_source(
    source: Optional[str] = None,
    path: Optional[str] = None,
    techniques: Optional[Tuple[str, ...]] = None,
    config: Optional[GPUConfig] = None,
) -> ProgramResult:
    """Load a program (default: the demo) and run it across techniques."""
    if source is None and path is None:
        source = DEMO_SOURCE
    entry = load_program(source=source, path=path)
    return run_program(entry, techniques=techniques, config=config)


def kernel_point(options):
    """The ``kernel`` experiment's one run; ``options.params["kernel"]``
    keys:

    ``source`` / ``path``
        the program text or a file path (default: the demo program)
    ``techniques``
        sequence of technique names (default: the registry's figure
        set -- the paper's five plus ``soa``)
    ``config``
        ``"small"`` to force the CI-sized GPU (default: options.config)
    """
    from ..harness.runner import point

    params = options.params_for("kernel")
    techniques = params.get("techniques")
    return point(
        run_program_source,
        source=params.get("source"),
        path=params.get("path"),
        techniques=tuple(techniques) if techniques is not None else None,
        config=(small_config() if params.get("config") == "small"
                else options.config),
    )


def kernel_experiment_run(options) -> ProgramResult:
    """The ``kernel`` experiment: params carry the program itself."""
    from ..harness.runner import evaluate

    return evaluate({"kernel": kernel_point(options)})["kernel"]
