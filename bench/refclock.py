"""Host speed, measured by a fixed reference job timed beside the workload.

The benchmark runs on a few cores of a shared machine whose speed drifts by
tens of percent over seconds to minutes, as neighbours come and go.  A pass's
wall time carries that drift; ``RefClock`` measures it and takes it out.

While a ``RefClock`` runs, a ``SIGALRM`` handler runs :func:`reference_job`
once every :data:`INTERVAL_S` seconds of wall time and records the host's
*speed* then: :data:`REF_S` divided by the job's duration (1.0 at the nominal
speed, 0.5 when the host runs at half of it).  ``now()`` is ``perf_counter``
minus the time spent in the handler, so the reference job never counts as the
workload's time (unless the process was only waiting for a child meanwhile).  A stretch of the workload that took ``t`` seconds at a mean
speed ``v`` would have taken ``t * v`` seconds at the nominal speed: that is
what the benchmark reports as its gated times.

The job mixes interpreted bytecode (a dict update loop, like the suite's
model and tuner code) with a NumPy sort and scan (like its caches and GBDT
fits), so that it slows in step with both kinds of work.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["REF_S", "INTERVAL_S", "MIN_SAMPLES", "reference_job", "RefClock"]

#: Duration of one reference job at the nominal host speed: about its mean
#: during benchmark runs on a shared 2-vCPU Intel Xeon VM with Python 3.11
#: (3.0 to 3.6 ms, depending on the workload beside it).
REF_S = 0.0035

#: Wall seconds between the end of one reference job and the start of the next.
INTERVAL_S = 0.1

#: Fewest samples a stretch's speed is averaged over.
MIN_SAMPLES = 10

_DATA = np.random.default_rng(0).random(32_768)


def reference_job() -> float:
    """A fixed amount of mixed interpreted and NumPy work."""
    table: dict[int, float] = {}
    for i in range(16_000):
        key = i % 61
        table[key] = table.get(key, 0.0) + i * 0.5
    order = np.argsort(_DATA)
    return float(np.cumsum(_DATA[order])[-1]) + sum(table.values())


class RefClock:
    """Wall clock without the reference job's time, plus the host speed over time.

    Use as a context manager.  Inside ``waiting()`` the process only waits for
    a child: the reference job runs beside the child and its time counts.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (now(), speed)
        self._in_job = 0.0
        self._armed = False
        self._waiting = False

    def now(self) -> float:
        return time.perf_counter() - self._in_job

    def __enter__(self) -> "RefClock":
        signal.signal(signal.SIGALRM, self._tick)
        self._sample()
        self._arm()
        return self

    def __exit__(self, *exc: object) -> None:
        self._disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def waiting(self) -> Iterator[None]:
        self._waiting = True
        try:
            yield
        finally:
            self._waiting = False

    def _arm(self) -> None:
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def _disarm(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_job()
        took = time.perf_counter() - start
        self.samples.append((start - self._in_job, REF_S / took))
        if not self._waiting:
            self._in_job += time.perf_counter() - start

    def _tick(self, _signum: int, _frame: object) -> None:
        # One-shot timer, re-armed after the job: a slow job cannot re-enter.
        if self._armed:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples taken in ``[start, end]`` of ``now()``.

        A short stretch holds few samples, and one sample is far noisier than
        the drift of the host; below :data:`MIN_SAMPLES`, the samples nearest
        to the stretch make up the number.
        """
        if not self.samples:
            raise ValueError("the reference clock took no samples")
        inside = [v for t, v in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(self.samples, key=lambda s: max(start - s[0], 0.0, s[0] - end))
            inside = [v for _, v in nearest[:MIN_SAMPLES]]
        return statistics.fmean(inside)
