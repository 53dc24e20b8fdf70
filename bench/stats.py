"""Arithmetic of the benchmark report: percentiles, quartiles and failure accounting.

Kept free of any ``repro`` import so the self-tests run without the package.
"""

from __future__ import annotations

import statistics
from typing import Callable, Sequence

import numpy as np

__all__ = ["PERCENTILES", "MIN_TAIL", "tail_percentile", "percentile", "quartiles",
           "Ledger"]

#: Percentiles the report chooses from, lowest first.
PERCENTILES: tuple[float, ...] = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10


def tail_percentile(n_samples: int, min_beyond: int = MIN_TAIL) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ``min_beyond`` samples above it.

    None when even the median has too few samples beyond it.  The comparison is
    made in integer arithmetic, so p90 of exactly 100 samples qualifies.
    """
    best = None
    for p in PERCENTILES:
        # n * (100 - p) / 100 >= min_beyond, scaled by 1000 to keep p99.9 integral.
        if n_samples * round((100.0 - p) * 10) >= min_beyond * 1000:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` of ``values`` with linear interpolation (NumPy's default)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), p))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` with ``n=4`` gives them."""
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Ledger:
    """Attempted and failed operations of one run.

    An operation is a shard, an exported file, a tuner run, an analysis call, a
    PFI report or a surrogate run.  It fails when it raises or when its output
    check fails; each failure keeps a one-line reason for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, kind: str, ok: bool, detail: str = "") -> bool:
        """Count one operation of ``kind``; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{kind}: {detail}" if detail else kind)
        return ok

    def check(self, kind: str, check: Callable[[], tuple[bool, str]]) -> bool:
        """Run one output check returning ``(ok, reason)`` and count its operation.

        A check that raises counts as a failed operation instead of ending the run.
        """
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.record(kind, ok, detail)

    @property
    def error_rate(self) -> float:
        """Failed operations over attempted operations (0 when nothing ran)."""
        return self.failed / self.attempted if self.attempted else 0.0
