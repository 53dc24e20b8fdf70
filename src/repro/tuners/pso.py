"""Particle swarm optimization on the encoded configuration space.

Each particle carries a continuous position/velocity in the encoded space; positions
are snapped to the nearest allowed value of each parameter before evaluation.  The
velocity update uses the standard inertia + cognitive + social formulation.  PSO is one
of the global optimizers commonly shipped by the autotuners the paper integrates with
(Kernel Tuner in particular), which is why it is part of the portfolio.

Like the other population tuners, the swarm is array-native: positions encode from
the value columns, each particle's cognitive/social noise is one sized ``(2, dims)``
draw (stream-identical to the two per-vector draws of the seed implementation), and
snapping goes through the padded encoded-value grid straight to a space index.
Every position settles through :meth:`~repro.tuners.base.Tuner.evaluate_index`: the
initial swarm in order (:meth:`~repro.tuners.base.Tuner.evaluate_index_run`), each
later position as it is reached, because the swarm's best must be current before
the *next* particle moves.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["ParticleSwarm"]


class ParticleSwarm(Tuner):
    """Global-best PSO with snap-to-grid evaluation.

    Parameters
    ----------
    swarm_size:
        Number of particles.
    inertia / cognitive / social:
        Standard PSO coefficients (velocity memory, pull towards the particle's own
        best, pull towards the swarm's best).
    """

    name = "pso"

    def __init__(self, seed: int | None = None, swarm_size: int = 16,
                 inertia: float = 0.7, cognitive: float = 1.5, social: float = 1.5):
        super().__init__(seed=seed)
        if swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        self.swarm_size = int(swarm_size)
        self.inertia = float(inertia)
        self.cognitive = float(cognitive)
        self.social = float(social)

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        space = problem.space
        indices = space.sample_indices(self.swarm_size, rng=rng, valid_only=True,
                                       unique=True)
        positions = space.encode_indices(indices)
        # Velocity scale proportional to each dimension's value range.
        ranges = np.array([float(np.ptp(p.numeric_values())) or 1.0 for p in space.parameters])
        velocities = rng.uniform(-0.1, 0.1, size=positions.shape) * ranges

        personal_best = positions.copy()
        personal_best_value = np.full(indices.size, np.inf)
        global_best = positions[0].copy()
        global_best_value = np.inf

        observations = self.evaluate_index_run(indices)
        for i, obs in enumerate(observations):
            value = obs.value if not obs.is_failure else np.inf
            personal_best_value[i] = value
            if value < global_best_value:
                global_best_value = value
                global_best = positions[i].copy()
        if len(observations) < indices.size:
            return

        dims = positions.shape[1]
        inertia, cognitive, social = self.inertia, self.cognitive, self.social
        while not self.budget_exhausted:
            for i in range(indices.size):
                # One sized draw covers both noise vectors; the stream order is
                # exactly r_cog then r_soc, as in the per-vector draws.
                r_cog, r_soc = rng.random((2, dims))
                velocities[i] = (inertia * velocities[i]
                                 + cognitive * r_cog * (personal_best[i] - positions[i])
                                 + social * r_soc * (global_best - positions[i]))
                positions[i] += velocities[i]

                candidate = space.decode_index(positions[i])
                if not space.index_is_feasible(candidate):
                    candidate = space.sample_one_index(rng=rng, valid_only=True)
                    positions[i] = space.encode_index(candidate)
                obs = self.evaluate_index(candidate)
                if obs is None:
                    return
                value = np.inf if obs.is_failure else obs.value
                if value < personal_best_value[i]:
                    personal_best_value[i] = value
                    personal_best[i] = positions[i].copy()
                if value < global_best_value:
                    global_best_value = value
                    global_best = positions[i].copy()
