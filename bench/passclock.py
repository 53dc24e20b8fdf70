"""Wall-clock laps of the operations of one timed pass."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["PassClock", "PassTiming"]


@dataclass
class PassTiming:
    """One timed pass: the wall seconds of each of its operations.

    Operation labels are the same in every pass of a run (same seed, same work);
    their prefix names the kind: ``shard:``, ``merge``, ``export:`` (campaign),
    ``open.``, ``figure.``, ``tuner:`` (replay), ``pfi:``, ``surrogate:`` (learn).
    ``speed`` is the host's mean speed over the pass (see ``refclock``), or None
    when it was not measured.
    """

    ops: dict[str, float] = field(default_factory=dict)
    evaluations: int = 0
    speed: float | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.ops.values())

    @property
    def nominal_s(self) -> float:
        """The pass's seconds at the nominal host speed."""
        if self.speed is None:
            raise ValueError("the pass was timed without a host speed")
        return self.wall_s * self.speed

    def total(self, prefix: str) -> float:
        return sum(v for k, v in self.ops.items() if k.startswith(prefix))


class PassClock:
    """Laps the consecutive operations of a pass: ``lap(label)`` closes the
    operation that ran since the previous lap (or since the clock started).

    ``speed(start, end)``, when given, is the host's mean speed between two
    readings of ``clock``; ``finish`` records it for the whole pass.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 speed: Callable[[float, float], float] | None = None) -> None:
        self._clock = clock
        self._speed = speed
        self._timing = PassTiming()
        self._start = self._last = clock()

    def lap(self, label: str) -> None:
        if label in self._timing.ops:
            raise ValueError(f"operation {label!r} lapped twice in one pass")
        now = self._clock()
        self._timing.ops[label] = now - self._last
        self._last = now

    def finish(self, evaluations: int = 0) -> PassTiming:
        self._timing.evaluations = evaluations
        if self._speed is not None:
            self._timing.speed = self._speed(self._start, self._last)
        return self._timing
