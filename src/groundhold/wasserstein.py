"""Discrete Wasserstein distances and worst-case distribution recovery.

The ground metric is the absolute difference between capacity values (the l2
norm of a scalar), so the distance between two distributions is the area
between their CDFs.  The worst-case distribution is a transportation LP
solved with the package's own simplex; the expected cost it recovers must
match the ``epsilon * alpha + sum_s p_s beta_s`` term of a solved robust
model whenever strong duality holds.  Because that LP shares the simplex
with the models, the test suite also checks the robust term against its
closed form, which shares no code with either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import AmbiguitySpec, CapacityDistribution
from .milp import SENSE_EQ, SENSE_LE, MilpModel
from .simplex import solve_lp_arrays

__all__ = [
    "TransportPlan",
    "wasserstein_distance",
    "worst_case_distribution",
]

_DROP_TOL = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """Mass moved from each source atom to each target support value.

    Rows follow the source atoms, columns the target values; row sums equal
    the source probabilities and column sums form the target marginal.
    """

    source_values: tuple[int, ...]
    source_probabilities: tuple[float, ...]
    target_values: tuple[int, ...]
    mass: np.ndarray

    def cost(self) -> float:
        """Total transport cost of the plan under the |difference| metric."""
        src = np.asarray(self.source_values, dtype=float)[:, None]
        tgt = np.asarray(self.target_values, dtype=float)[None, :]
        return float((np.abs(src - tgt) * self.mass).sum())

    def marginal(self) -> CapacityDistribution:
        """Column-sum distribution over the target values.

        Entries at or below ``_DROP_TOL`` are dropped and the remainder is
        renormalized, so tiny solver residue never produces zero-probability
        atoms.
        """
        col = self.mass.sum(axis=0)
        keep = [(v, float(p)) for v, p in zip(self.target_values, col) if p > _DROP_TOL]
        total = sum(p for _, p in keep)
        return CapacityDistribution(tuple(v for v, _ in keep), tuple(p / total for _, p in keep))


def wasserstein_distance(p: CapacityDistribution, q: CapacityDistribution) -> float:
    """Minimum-cost transport between two discrete distributions.

    On the line this is ``sum_k |F_p(x_k) - F_q(x_k)| (x_{k+1} - x_k)`` over
    the sorted union ``x`` of the two supports.
    """
    x = np.union1d(p.support_points, q.support_points)
    cdf_p = np.cumsum(np.bincount(np.searchsorted(x, p.support_points), p.probabilities, x.size))
    cdf_q = np.cumsum(np.bincount(np.searchsorted(x, q.support_points), q.probabilities, x.size))
    return float(np.abs(cdf_p - cdf_q)[:-1] @ np.diff(x))


def worst_case_distribution(
    second_stage_costs: Mapping[int, float],
    amb: AmbiguitySpec,
) -> tuple[TransportPlan, float]:
    """Cost-maximizing distribution inside the Wasserstein ball.

    Maximizes ``sum_{s,xi} cost(xi) * u_s(xi)`` over transport plans ``u``
    whose rows sum to the empirical probabilities and whose total transport
    cost stays within the radius.  Returns the plan together with its
    expected cost; the plan's marginal is the worst-case capacity
    distribution.  ``second_stage_costs`` must cover every grid value.
    """
    grid = amb.grid.values
    missing = [xi for xi in grid if xi not in second_stage_costs]
    if missing:
        raise ValueError(f"second-stage costs missing for grid values {missing}")

    src = amb.empirical.support_points
    probs = amb.empirical.probabilities
    n, k = len(src), len(grid)

    model = MilpModel()
    u = [[model.add_continuous(f"u[{xi_hat},{xi}]") for xi in grid] for xi_hat in src]
    for s, xi_hat in enumerate(src):
        for j, xi in enumerate(grid):
            # maximization written as a minimization
            model.add_objective_term(u[s][j], -float(second_stage_costs[xi]))
    budget = [(u[s][j], float(abs(src[s] - grid[j]))) for s in range(n) for j in range(k)]
    model.add_row(budget, SENSE_LE, amb.radius, name="budget")
    for s in range(n):
        model.add_row([(u[s][j], 1.0) for j in range(k)], SENSE_EQ, probs[s], name=f"mass[{src[s]}]")
    model.freeze()

    a = model.to_arrays()
    sol = solve_lp_arrays(a.c, a.offset, a.A, a.senses, a.b, a.lower, a.upper)
    if sol.status != "optimal":
        raise RuntimeError(f"worst-case transport LP reported {sol.status}")

    mass = np.maximum(np.asarray(sol.values).reshape(n, k), 0.0)
    mass.setflags(write=False)
    plan = TransportPlan(src, probs, grid, mass)
    return plan, -sol.objective
