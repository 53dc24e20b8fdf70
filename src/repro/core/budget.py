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
        """Evaluations still allowed (``math.inf`` when unlimited)."""
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

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (limit and usage)."""
        return {
            "max_evaluations": self.max_evaluations,
            "evaluations_used": self.evaluations_used,
        }
