"""repro.obs: lightweight telemetry -- scoped spans and named counters.

The harness layers (``gpu.machine``/``gpu.executor``, ``harness.runner``,
``harness.service``, ``harness.store``, ``memory``) report into one
process-local :class:`Registry`:

* **spans** are monotonic timers with parent/child nesting.  They are
  *aggregated*, not traced: entering ``store.bucket_merge`` twice under
  the same parent accumulates one node with ``count == 2`` and the
  summed ``total_s``, so the registry stays a few KB no matter how long
  the run is, and merging registries across worker processes is a
  recursive add.
* **counters** are named monotonic integers (``machine.memo_hits``,
  ``store.bucket_corrupt``, ``store.bucket_version_mismatch``, ...).

The whole layer is built to be cheap enough to leave on: counter bumps
are one dict update, spans two ``perf_counter`` calls; ``python -m
repro selfbench`` asserts the warm-path overhead stays under 2%
(``telemetry_overhead`` in ``BENCH_pipeline.json``).  Set ``REPRO_OBS=0``
to hard-disable every probe anyway.

Serialisation: :meth:`Registry.to_dict` emits a JSON-safe payload
(:data:`SCHEMA`), :meth:`Registry.merge_dict` folds another process's
payload in (the parallel service merges every worker's dump into the
run manifest), and :func:`validate_payload` schema-checks a payload --
spans must nest consistently, counters must be non-negative ints (CI
runs it against the ``--telemetry`` dump of the smoke run).

Span/counter naming scheme (see DESIGN.md section 5.3): dotted
``<layer>.<event>``, where layer is one of ``machine``, ``runner``,
``service``, ``store``, ``memory``, ``serve``.  The serving daemon
(:mod:`repro.serve`) records admission/queue/cache counters
(``serve.submits``, ``serve.cache_hits``, ``serve.dedup_joined``,
``serve.rejected_queue_full``, ...) and per-experiment latency under
``serve.job.<experiment>``; its ``stats`` protocol verb returns this
registry's live :meth:`Registry.to_dict` snapshot.
"""
from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional

#: payload schema tag, bumped when the layout changes
SCHEMA = "repro-obs/1"

#: environment kill-switch: set to 0/false/off to disable all probes
OBS_ENV_VAR = "REPRO_OBS"


def _env_enabled() -> bool:
    return os.environ.get(OBS_ENV_VAR, "1").lower() not in (
        "0", "false", "off", "no",
    )


class SpanNode:
    """One aggregated span: total time and entry count, with children."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def merge(self, other: "SpanNode") -> None:
        self.count += other.count
        self.total_s += other.total_s
        for name, theirs in other.children.items():
            self.child(name).merge(theirs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SpanNode":
        node = cls(str(payload["name"]))
        node.count = int(payload.get("count", 0))
        node.total_s = float(payload.get("total_s", 0.0))
        for child in payload.get("children", ()):  # preserves order
            node.children[str(child["name"])] = cls.from_dict(child)
        return node


class _SpanContext:
    """Context-manager handle for one live span entry (cheap, reusable
    per call site via :meth:`Registry.span`)."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_SpanContext":
        reg = self._registry
        reg._stack.append(reg._stack[-1].child(self._name))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dt = time.perf_counter() - self._t0
        node = self._registry._stack.pop()
        node.count += 1
        node.total_s += dt
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Registry:
    """Process-local span tree + counter map."""

    def __init__(self, enabled: Optional[bool] = None):
        self.enabled = _env_enabled() if enabled is None else enabled
        self.counters: Dict[str, int] = {}
        self.root = SpanNode("<root>")
        self._stack: List[SpanNode] = [self.root]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            c = self.counters
            c[name] = c.get(name, 0) + n

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold an externally measured duration in as a child of the
        current span (the no-context-manager fast path for hot loops)."""
        if self.enabled:
            node = self._stack[-1].child(name)
            node.count += count
            node.total_s += seconds

    def add_root_time(self, name: str, seconds: float,
                      count: int = 1) -> None:
        """Fold a duration in at the root of the tree. For reporters on
        other threads (the serve daemon's job callbacks): their wall
        time overlaps whatever span the owning thread currently has
        open, so nesting there would break the children-<=-parent
        invariant -- same reason worker merges land at the root."""
        if self.enabled:
            node = self.root.child(name)
            node.count += count
            node.total_s += seconds

    def span(self, name: str):
        """``with registry.span("store.bucket_merge"): ...``"""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name)

    def reset(self) -> None:
        self.counters = {}
        self.root = SpanNode("<root>")
        self._stack = [self.root]

    # ------------------------------------------------------------------
    # serialisation and merging
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA,
            "pid": os.getpid(),
            "counters": dict(self.counters),
            "spans": [c.to_dict() for c in self.root.children.values()],
        }

    def merge_dict(self, payload: Optional[Dict]) -> None:
        """Fold another registry's :meth:`to_dict` payload into this one
        (at the root -- worker trees sit beside the parent's)."""
        if not payload:
            return
        for name, value in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        for span in payload.get("spans", ()):
            self.root.child(str(span["name"])).merge(SpanNode.from_dict(span))

    # ------------------------------------------------------------------
    def render(self, title: str = "telemetry") -> str:
        return render_payload(self.to_dict(), title=title)


# ----------------------------------------------------------------------
# the process-wide registry and the module-level fast paths
# ----------------------------------------------------------------------
_REGISTRY = Registry()


def registry() -> Registry:
    return _REGISTRY


def set_registry(reg: Registry) -> Registry:
    """Swap the process-wide registry (worker shards run under a fresh
    one so their dump is the shard's own delta); returns the old one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, reg
    return old


def count(name: str, n: int = 1) -> None:
    reg = _REGISTRY
    if reg.enabled:
        c = reg.counters
        c[name] = c.get(name, 0) + n


def add_time(name: str, seconds: float, count: int = 1) -> None:
    _REGISTRY.add_time(name, seconds, count)


def add_root_time(name: str, seconds: float, count: int = 1) -> None:
    _REGISTRY.add_root_time(name, seconds, count)


def span(name: str):
    return _REGISTRY.span(name)


def enabled() -> bool:
    return _REGISTRY.enabled


def set_enabled(flag: bool) -> bool:
    """Toggle the process-wide registry's probes; returns the old flag."""
    reg = _REGISTRY
    old, reg.enabled = reg.enabled, flag
    return old


def snapshot() -> Dict:
    return _REGISTRY.to_dict()


def merge_payloads(payloads: Iterable[Optional[Dict]]) -> Dict:
    """Merge several registry dumps into one fresh payload."""
    merged = Registry(enabled=True)
    for p in payloads:
        merged.merge_dict(p)
    return merged.to_dict()


# ----------------------------------------------------------------------
# validation (shared by tests and the CI schema check)
# ----------------------------------------------------------------------
def validate_payload(payload: Dict, tolerance_frac: float = 0.02) -> None:
    """Schema-check a registry dump; raises ``ValueError`` on violation.

    Checks: the schema tag, every counter a non-negative int, and span
    nesting consistency -- every node's children sum to at most the
    node's own total time (plus a small tolerance for timer jitter).
    """
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} payload: {payload!r:.80}")
    for name, value in payload.get("counters", {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {name!r} is not a non-negative int: "
                             f"{value!r}")

    def check(node: Dict, path: str) -> None:
        here = f"{path}/{node['name']}"
        if node["count"] < 0 or node["total_s"] < 0:
            raise ValueError(f"span {here} has negative count/time")
        children = node.get("children", ())
        child_total = sum(c["total_s"] for c in children)
        budget = node["total_s"] * (1.0 + tolerance_frac) + 1e-6
        if child_total > budget:
            raise ValueError(
                f"span {here}: children total {child_total:.6f}s exceeds "
                f"own total {node['total_s']:.6f}s"
            )
        for c in children:
            check(c, here)

    for span_ in payload.get("spans", ()):
        check(span_, "")


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f}ms"
    return f"{seconds * 1e6:7.1f}us"


def render_payload(payload: Dict, title: str = "telemetry") -> str:
    """Tree-rendered span report plus the counter block."""
    lines = [title, f"{'span':44s} {'count':>8s} {'total':>9s} {'mean':>9s}"]

    def walk(node: Dict, depth: int) -> None:
        mean = node["total_s"] / node["count"] if node["count"] else 0.0
        lines.append(
            f"{'  ' * depth + node['name']:44s} {node['count']:8d} "
            f"{_fmt_s(node['total_s'])} {_fmt_s(mean)}"
        )
        for c in node.get("children", ()):
            walk(c, depth + 1)

    spans = payload.get("spans", ())
    if not spans:
        lines.append("  (no spans recorded)")
    for span_ in spans:
        walk(span_, 0)
    counters = payload.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"{'counter':44s} {'value':>8s}")
        for name in sorted(counters):
            lines.append(f"{name:44s} {counters[name]:8d}")
    return "\n".join(lines)
