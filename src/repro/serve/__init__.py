"""repro.serve: a long-lived experiment-serving daemon.

Every other entry point in this repository (``python -m repro all``,
the test suite, the benchmarks) pays full process start-up -- imports,
registry construction, replay-store preload -- per invocation.  This
package adds the resident surface the ROADMAP's north star asks for:

* :mod:`repro.serve.server` -- an asyncio TCP/Unix-socket daemon
  (``python -m repro serve``) that owns a bounded job queue with
  admission control, request deduplication, an LRU result cache layered
  over the persistent replay store, and graceful SIGTERM/SIGINT drain;
* :mod:`repro.serve.protocol` -- the length-prefixed JSON wire format
  (schema ``repro-serve/1``) both sides speak;
* :mod:`repro.serve.client` -- a small synchronous client library, used
  by the CLI verbs (``repro submit/status/drain``), the tests and the
  CI smoke job;
* :mod:`repro.serve.jobs` / :mod:`repro.serve.cache` -- the admission
  controller (job table, queue bound, backpressure estimate) and the
  LRU result cache.

Computations dispatch into the existing
:class:`~repro.harness.service.ExperimentService` worker pool via a
thread offload, so the event loop keeps answering ``health``/``stats``
while shards run.
"""
from .cache import LRUCache
from .client import ServeClient, ServeError
from .jobs import Admission, Job, job_key
from .protocol import DEFAULT_PORT, SCHEMA, validate_envelope
from .server import ReproServer

__all__ = [
    "Admission",
    "DEFAULT_PORT",
    "Job",
    "LRUCache",
    "ReproServer",
    "SCHEMA",
    "ServeClient",
    "ServeError",
    "job_key",
]
