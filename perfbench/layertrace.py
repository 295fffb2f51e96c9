"""Outside-in layer tracer: wraps each simulator layer's public functions.

Nothing in ``src/`` is changed.  :func:`install` replaces the public
entry points of every layer with timing wrappers, from outside, in the
process that runs one benchmark repetition.  Service workers are forked
from that process, so they inherit the wrappers; each worker starts
from zero totals (``os.register_at_fork``) and rewrites its totals file
in the trace directory every time its outermost traced call returns.

Two kinds of wrapper:

* a **layer** keeps *self time*: its duration minus the time of the
  layer calls nested in it.  Layer self times never overlap, so their
  sum over one process is at most that process's wall time.
* a **probe** (a sub-layer inside capture: dispatch ``resolve``, heap
  ``gather``/``scatter``, MMU ``translate``) keeps inclusive time and a
  call count, and is not subtracted from the layer around it -- so
  ``executor.capture_s`` still contains the dispatch, heap and MMU work
  the kernels do, exactly as the program's own ``machine.capture`` span
  does.  A probe entered while the same probe is open (``super()``
  calls) is counted once.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


class Tracer:
    """Per-process totals of every wrapped layer and probe."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.worker_tag = None
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.stack = []
        self.self_s = defaultdict(float)
        self.probe_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.cell_s = []
        self.body_s = 0.0

    def _after_fork(self) -> None:
        self._reset()
        self.worker_tag = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"

    # ------------------------------------------------------------------
    def layer(self, name, fn, pre=None, post=None):
        """Wrap ``fn`` as a layer span; ``post(tracer, args, kwargs,
        result, dt, token)`` adds counts, ``token = pre(args, kwargs)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, frame, perf() - t0)
                raise
            dt = perf() - t0
            if post is not None:
                post(tracer, args, kwargs, result, dt, token)
            tracer._close(name, frame, dt)
            return result

        return wrapper

    def _close(self, name, frame, dt) -> None:
        stack = self.stack
        stack.pop()
        self.self_s[name] += dt - frame[0]
        self.calls[name] += 1
        if stack:
            stack[-1][0] += dt
        else:
            self.body_s += dt
            if self.worker_tag is not None:
                self.dump()

    def probe(self, name, fn):
        """Wrap ``fn`` as an inclusive-time probe."""
        tracer = self
        open_ = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[0]:
                return fn(*args, **kwargs)
            open_[0] = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.probe_s[name] += perf() - t0
                tracer.calls[name] += 1
                open_[0] = False

        return wrapper

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s), "probe_s": dict(self.probe_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "cell_s": list(self.cell_s), "body_s": self.body_s,
        }

    def dump(self) -> None:
        """Rewrite this worker's totals file (atomic replace)."""
        path = self.trace_dir / f"worker-{self.worker_tag}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals()))
        os.replace(tmp, path)

    def worker_totals(self) -> list:
        return [json.loads(p.read_text())
                for p in sorted(self.trace_dir.glob("worker-*.json"))]


def merge_totals(parts) -> dict:
    """Sum per-process totals into one."""
    out = {"self_s": defaultdict(float), "probe_s": defaultdict(float),
           "calls": defaultdict(int), "counts": defaultdict(int),
           "cell_s": [], "body_s": 0.0}
    for part in parts:
        for key in ("self_s", "probe_s", "calls", "counts"):
            for name, value in part[key].items():
                out[key][name] += value
        out["cell_s"] += part["cell_s"]
        out["body_s"] += part["body_s"]
    return out


# ----------------------------------------------------------------------
# counting hooks
# ----------------------------------------------------------------------
def _count_launch(tracer, args, kwargs, stats, dt, token):
    num_threads = args[2] if len(args) > 2 else kwargs["num_threads"]
    c = tracer.counts
    c["executor.warps"] += (int(num_threads) + 31) // 32
    c["sim.warp_instrs"] += sum(stats.warp_instrs.values())
    c["sim.l1_accesses"] += stats.l1_accesses
    c["sim.l2_accesses"] += stats.l2_accesses
    c["sim.dram_accesses"] += stats.dram_accesses


def _count_finalize(tracer, args, kwargs, trace, dt, token):
    tracer.counts["trace.accesses"] += trace.n_accesses
    tracer.counts["trace.txns"] += trace.n_txns


def _count_engine(tracer, args, kwargs, result, dt, token):
    traces = args[1] if len(args) > 1 else kwargs["traces"]
    tracer.counts["replay.accesses"] += sum(t.n_accesses for t in traces)


def _count_objects(tracer, args, kwargs, ptrs, dt, token):
    tracer.counts["memory.objects_allocated"] += len(ptrs)


def _count_cell(tracer, args, kwargs, record, dt, executed):
    if executed:
        tracer.counts["runner.cells"] += 1
        tracer.cell_s.append(dt)


def _wrap_memo_get(tracer, fn):
    @functools.wraps(fn)
    def get(self, key):
        entry = fn(self, key)
        tracer.counts["memo.misses" if entry is None else "memo.hits"] += 1
        return entry

    return get


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _rebind(old, new) -> None:
    """Point every ``repro`` module global bound to ``old`` at ``new``
    (``from .runner import run_one`` copies the name)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(trace_dir: Path) -> Tracer:
    """Wrap every layer's public functions; returns the process tracer."""
    from repro.core.dispatch import DispatchStrategy
    from repro.gpu import replay as replay_mod
    from repro.gpu.machine import Machine
    from repro.gpu.trace import MemoryTrace
    from repro.harness import registry, runner
    from repro.harness.store import ReplayMemoStore
    from repro.memory.heap import Heap
    from repro.memory.mmu import MMU
    from repro.workloads.base import Workload

    tracer = Tracer(trace_dir)
    L, P = tracer.layer, tracer.probe

    # harness.runner: one cell; a cache hit is not a cell
    run_one = runner.run_one
    sig = inspect.signature(run_one)

    def executed(args, kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        if not a["use_cache"]:
            return True
        key = runner.cache_key(a["workload"], a["technique"], a["scale"],
                               a["iterations"], a["config"], a["seed"])
        return runner.cache_get(key) is None

    _rebind(run_one, L("runner", run_one, pre=executed, post=_count_cell))

    # workloads + memory
    for cls in _subclasses(Workload):
        if "setup" in vars(cls):
            cls.setup = L("workloads", vars(cls)["setup"])
    Machine.new_objects = L("memory", Machine.new_objects,
                            post=_count_objects)
    Machine.free_objects = L("memory", Machine.free_objects)

    # gpu.executor (capture) and its sub-layers
    Machine.launch = L("executor", Machine.launch, post=_count_launch)
    for cls in _subclasses(DispatchStrategy):
        fn = vars(cls).get("resolve")
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            cls.resolve = P("dispatch.resolve", fn)
    Heap.gather = P("heap.access", Heap.gather)
    Heap.scatter = P("heap.access", Heap.scatter)
    MMU.translate = P("mmu.translate", MMU.translate)

    # gpu.trace (coalesce), gpu.replay engines, gpu.machine memo
    MemoryTrace.finalize = L("trace", MemoryTrace.finalize,
                             post=_count_finalize)
    for cls in vars(replay_mod).values():
        if (isinstance(cls, type) and "replay_wave" in vars(cls)
                and not getattr(cls, "_is_protocol", False)):
            cls.replay_wave = L("replay", vars(cls)["replay_wave"],
                                post=_count_engine)
    Machine.replay_wave = L("memo", Machine.replay_wave)
    runner.ReplayMemo.get = _wrap_memo_get(tracer, runner.ReplayMemo.get)

    # harness.store
    ReplayMemoStore.load_bucket = L("store.load", ReplayMemoStore.load_bucket)
    ReplayMemoStore.merge_bucket = L("store.merge",
                                     ReplayMemoStore.merge_bucket)

    # harness.registry: every experiment's run and render
    for name, exp in list(registry.EXPERIMENT_REGISTRY.items()):
        registry.EXPERIMENT_REGISTRY[name] = dataclasses.replace(
            exp, run=L("registry.run", exp.run),
            render=L("registry.render", exp.render))
    return tracer
