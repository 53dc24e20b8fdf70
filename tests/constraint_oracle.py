"""Per-configuration reference for the search-space feasibility paths.

The search space answers feasibility from truth tables (one gather per table) and
samples by filtering whole index blocks; these helpers are the plain loops those
paths must agree with: one :meth:`ConstraintSet.is_satisfied` call per
configuration, and one random draw per loop iteration.  :class:`StreamingSpace` is
the twin that never memoizes its feasible set, so a small space answers through
the streaming paths the large ones use.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.searchspace import SearchSpace


class StreamingSpace(SearchSpace):
    """A search space above the feasible memo's threshold whatever its size."""

    _memoize_threshold = 0


def oracle_mask(space: Any, indices: Any, constraints: Any = None,
                fixed: Mapping[str, Any] | None = None) -> np.ndarray:
    """``constraints.is_satisfied`` of every index's configuration, one at a time.

    ``constraints`` defaults to the space's own; ``fixed`` values (a reduced
    space's frozen parameters) are laid under each configuration first.
    """
    constraints = space.constraints if constraints is None else constraints
    out = []
    for index in np.asarray(indices, dtype=np.int64).tolist():
        config = dict(fixed or {})
        config.update(space.config_at(index))
        out.append(constraints.is_satisfied(config))
    return np.asarray(out, dtype=bool)


def sample_reference(space: Any, n: int, rng: np.random.Generator, *,
                     valid_only: bool = True, unique: bool = True,
                     max_attempts_factor: int = 200) -> list[int] | None:
    """Rejection sampling one draw at a time (the seed implementation's loop).

    Returns the drawn indices, or None when the attempt budget the sampler uses
    (``max(max_attempts_factor * n, 1000)``) runs out first -- the sampler then
    completes or fails by its own rules, which this loop does not model.
    """
    out: list[int] = []
    seen: set[int] = set()
    for _ in range(max(max_attempts_factor * n, 1000)):
        if len(out) == n:
            break
        index = int(rng.integers(0, space.cardinality))
        if valid_only and not space.constraints.is_satisfied(space.config_at(index)):
            continue
        if unique:
            if index in seen:
                continue
            seen.add(index)
        out.append(index)
    return out if len(out) == n else None
