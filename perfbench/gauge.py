"""Host pace gauge: how fast the benchmark's cores run right now.

The benchmark was written on a shared 2-vCPU VM whose cores slow down
by up to 1.7x, for seconds to minutes at a time, when neighbours are
busy; raw wall times of one workload spread 0.2-0.4 (quartile distance
over median) across runs.  A gauge process per core times a fixed unit
of interpreter work (:func:`calibration_round`) every
:data:`PERIOD_S`, in on-CPU time (``thread_time``): time-slicing with
the workload on the same core does not count, a slowed core does.
Dividing a host time by the mean pace over the same interval removes
most of that spread (to 0.04-0.08 over ten seeds).

    python3 perfbench/gauge.py CPU    # samples until stdin closes, then
                                      # prints [[monotonic_s, round_s], ...]
"""
from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

#: on-CPU time of one calibration round on an uncontended core of the
#: reference host (2-vCPU Xeon VM): paced times are in that core's seconds
REF_CAL_S = 0.0007

#: pause between two calibration rounds (~2% of the core)
PERIOD_S = 0.05


def calibration_round() -> None:
    """The gauge's fixed unit of interpreter work."""
    s, d = 0, {}
    for i in range(8000):
        s += i * i
        d[i & 255] = s


def sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = time.thread_time()
        calibration_round()
        samples.append((time.monotonic(), time.thread_time() - t0))
    json.dump(samples, sys.stdout)


class HostGauge:
    """One gauge process per core in ``cpus`` for the life of the
    ``with`` block; :meth:`pace` then answers for any interval in it."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples = []
        self._procs = []

    def __enter__(self) -> "HostGauge":
        for cpu in self.cpus:
            self._procs.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            try:
                out, _ = proc.communicate(b"", timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                continue
            if proc.returncode == 0:
                self.samples += [tuple(s) for s in json.loads(out)]

    def pace(self, start: float, end: float) -> float:
        """How many times slower than :data:`REF_CAL_S` a calibration
        round ran on the gauged cores over ``[start, end]`` (monotonic
        clock)."""
        if not self.samples:
            raise RuntimeError("the host gauge recorded no samples")
        inside = [d for t, d in self.samples
                  if start - PERIOD_S <= t <= end + PERIOD_S]
        if len(inside) < 3:
            mid = (start + end) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]
            inside = [d for _, d in near]
        return statistics.fmean(inside) / REF_CAL_S


if __name__ == "__main__":
    sample(int(sys.argv[1]))
