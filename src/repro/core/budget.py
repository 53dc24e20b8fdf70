"""Tuning budgets.

The paper's convergence study (Fig. 2) plots tuner progress against the number of
*function evaluations*, because on real hardware each evaluation costs a kernel
compilation plus several timed launches.  :class:`Budget` models that resource: a
maximum number of evaluations, optionally a maximum number of *unique* configurations
and a simulated wall-clock allowance (the sum of simulated kernel times plus a fixed
per-evaluation compilation overhead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import BudgetExhaustedError

__all__ = ["Budget"]


@dataclass
class Budget:
    """Evaluation budget for a tuning run.

    Attributes
    ----------
    max_evaluations:
        Hard limit on the number of objective evaluations (None = unlimited).
    max_unique_configs:
        Limit on the number of *distinct* configurations (None = unlimited).  Useful
        when comparing tuners that may re-evaluate points.
    max_simulated_seconds:
        Limit on accumulated simulated time: kernel runtimes plus
        ``compile_overhead_seconds`` per new configuration (None = unlimited).
    compile_overhead_seconds:
        Fixed simulated cost charged per evaluation (default 1 ms).
    """

    max_evaluations: int | None = None
    max_unique_configs: int | None = None
    max_simulated_seconds: float | None = None
    compile_overhead_seconds: float = 1e-3

    evaluations_used: int = field(default=0, init=False)
    unique_used: int = field(default=0, init=False)
    simulated_seconds_used: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.max_evaluations is not None and self.max_evaluations < 0:
            raise ValueError("max_evaluations must be non-negative")
        if self.max_unique_configs is not None and self.max_unique_configs < 0:
            raise ValueError("max_unique_configs must be non-negative")
        if self.max_simulated_seconds is not None and self.max_simulated_seconds < 0:
            raise ValueError("max_simulated_seconds must be non-negative")

    # ---------------------------------------------------------------------- queries

    @property
    def exhausted(self) -> bool:
        """True when any configured limit has been reached."""
        if self.max_evaluations is not None and self.evaluations_used >= self.max_evaluations:
            return True
        if self.max_unique_configs is not None and self.unique_used >= self.max_unique_configs:
            return True
        if (self.max_simulated_seconds is not None
                and self.simulated_seconds_used >= self.max_simulated_seconds):
            return True
        return False

    @property
    def remaining_evaluations(self) -> int | float:
        """Evaluations still allowed (``math.inf`` when unlimited)."""
        if self.max_evaluations is None:
            return math.inf
        return max(0, self.max_evaluations - self.evaluations_used)

    def affordable_evaluations(self) -> int | float | None:
        """How many evaluations can certainly be charged right now, or None.

        This is the capability probe of the bulk-accounting protocol: a caller
        holding ``n`` candidates may evaluate ``min(n, affordable_evaluations())``
        of them and settle with one :meth:`charge_bulk`, no matter what the
        individual evaluations turn out to cost.  That prefix is only computable
        when affordability does not depend on per-evaluation outcomes, so the
        base class answers ``None`` as soon as a unique-configuration or
        simulated-seconds limit is configured (those narrow with every charge),
        and :attr:`remaining_evaluations` (``math.inf`` when unlimited)
        otherwise.

        Subclasses that narrow :attr:`exhausted` (e.g. the portfolio tuner's
        per-member slice) MUST override this to reflect their own cap -- the
        tuner runtime trusts the answer instead of inspecting budget types.
        """
        if self.max_unique_configs is not None or self.max_simulated_seconds is not None:
            return None
        return self.remaining_evaluations

    # -------------------------------------------------------------------- accounting

    def charge(self, simulated_seconds: float = 0.0, new_config: bool = False) -> None:
        """Record one evaluation against the budget.

        Raises
        ------
        BudgetExhaustedError
            If the budget was already exhausted before this charge.
        """
        if self.exhausted:
            raise BudgetExhaustedError(
                f"budget exhausted after {self.evaluations_used} evaluations")
        self.evaluations_used += 1
        if new_config:
            self.unique_used += 1
        if math.isfinite(simulated_seconds):
            self.simulated_seconds_used += simulated_seconds + self.compile_overhead_seconds
        else:
            self.simulated_seconds_used += self.compile_overhead_seconds

    def charge_bulk(self, count: int,
                    simulated_seconds: "float | list[float]" = 0.0,
                    new_configs: int = 0) -> None:
        """Record ``count`` evaluations in one call (the batch twin of :meth:`charge`).

        End-state identical to ``count`` sequential :meth:`charge` calls with the
        same per-evaluation costs; pass ``simulated_seconds`` as the per-evaluation
        list to reproduce the sequential floating-point accumulation order bit for
        bit (a scalar total is accepted where that precision is irrelevant).  The
        caller must have pre-computed that all ``count`` evaluations are affordable
        (:meth:`affordable_evaluations` is that probe, and answers only under a
        pure evaluation-count limit, which is exactly when the index-native batch
        paths use it).  Raises like :meth:`charge` when the budget is already
        exhausted, and also when ``count`` overshoots a finite
        :attr:`max_evaluations` -- a miscomputed prefix must fail loudly instead
        of silently recording more evaluations than the run was allowed.
        """
        if count <= 0:
            return
        if self.exhausted:
            raise BudgetExhaustedError(
                f"budget exhausted after {self.evaluations_used} evaluations")
        remaining = self.remaining_evaluations
        if count > remaining:
            raise BudgetExhaustedError(
                f"bulk charge of {count} evaluations overshoots the remaining "
                f"allowance of {remaining} (max_evaluations={self.max_evaluations}, "
                f"used={self.evaluations_used})")
        self.evaluations_used += count
        self.unique_used += new_configs
        overhead = self.compile_overhead_seconds
        if isinstance(simulated_seconds, (int, float)):
            self.simulated_seconds_used += simulated_seconds + count * overhead
        else:
            used = self.simulated_seconds_used
            for seconds in simulated_seconds:
                used += seconds + overhead
            self.simulated_seconds_used = used

    def copy(self) -> "Budget":
        """A fresh, unused budget with the same limits."""
        return Budget(max_evaluations=self.max_evaluations,
                      max_unique_configs=self.max_unique_configs,
                      max_simulated_seconds=self.max_simulated_seconds,
                      compile_overhead_seconds=self.compile_overhead_seconds)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (limits and usage)."""
        return {
            "max_evaluations": self.max_evaluations,
            "max_unique_configs": self.max_unique_configs,
            "max_simulated_seconds": self.max_simulated_seconds,
            "compile_overhead_seconds": self.compile_overhead_seconds,
            "evaluations_used": self.evaluations_used,
            "unique_used": self.unique_used,
            "simulated_seconds_used": self.simulated_seconds_used,
        }
