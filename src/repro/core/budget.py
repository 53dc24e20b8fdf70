"""Tuning budgets.

The paper's convergence study (Fig. 2) plots tuner progress against the number of
*function evaluations*, because on real hardware each evaluation costs a kernel
compilation plus several timed launches.  :class:`Budget` models that resource: a
maximum number of evaluations.
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
    """

    max_evaluations: int | None = None

    evaluations_used: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_evaluations is not None and self.max_evaluations < 0:
            raise ValueError("max_evaluations must be non-negative")

    # ---------------------------------------------------------------------- queries

    @property
    def exhausted(self) -> bool:
        """True when the evaluation limit has been reached."""
        return (self.max_evaluations is not None
                and self.evaluations_used >= self.max_evaluations)

    @property
    def remaining_evaluations(self) -> int | float:
        """Evaluations still allowed (``math.inf`` when unlimited).

        A caller holding ``n`` candidates may evaluate ``min(n,
        remaining_evaluations)`` of them and settle with one :meth:`charge_bulk`.
        """
        if self.max_evaluations is None:
            return math.inf
        return max(0, self.max_evaluations - self.evaluations_used)

    # -------------------------------------------------------------------- accounting

    def charge(self) -> None:
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

    def charge_bulk(self, count: int) -> None:
        """Record ``count`` evaluations in one call (the batch twin of :meth:`charge`).

        End-state identical to ``count`` sequential :meth:`charge` calls.  Raises
        like :meth:`charge` when the budget is already exhausted, and also when
        ``count`` overshoots :attr:`remaining_evaluations` -- a miscomputed prefix
        must fail loudly instead of silently recording more evaluations than the
        run was allowed.
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

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (limit and usage)."""
        return {
            "max_evaluations": self.max_evaluations,
            "evaluations_used": self.evaluations_used,
        }
