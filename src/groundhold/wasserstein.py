"""Discrete Wasserstein distances and worst-case distribution recovery.

The ground metric is the absolute difference between capacity values (the l2
norm of a scalar), so the distance between two distributions is the area
between their CDFs.  The worst-case distribution solves a transportation LP
with one budget row and one mass row per empirical atom; on the line it has a
closed form (Mohajerin Esfahani & Kuhn 2018; Gao & Kleywegt 2023): its dual
is convex and piecewise linear in the budget's price ``alpha``, and an
optimal plan splits at most one atom.  The expected cost it recovers must
match the ``epsilon * alpha + sum_s p_s beta_s`` term of a solved robust
model whenever strong duality holds.  This module imports nothing from the
MILP engine, so that check compares the engine with code it does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import AmbiguitySpec, CapacityDistribution

__all__ = [
    "TransportPlan",
    "wasserstein_distance",
    "worst_case_distribution",
]

_DROP_TOL = 1e-12
# Relative to the largest |cost|: gains that close tie.  A kink is computed
# with rounding, and a tie missed there leaves the budget unspent.
_TIE_TOL = 1e-12


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
        renormalized, so the rounding of a split atom's two parts never
        produces a zero-probability atom.  The remainder's total is a
        ``math.fsum``, the same float on every Python version.
        """
        col = self.mass.sum(axis=0)
        keep = [(v, float(p)) for v, p in zip(self.target_values, col) if p > _DROP_TOL]
        total = math.fsum(p for _, p in keep)
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
    distribution.  ``second_stage_costs`` must cover every grid value with
    a finite cost.

    The plan comes from the LP dual ``min_{alpha >= 0} g(alpha)``, with
    ``g(alpha) = radius * alpha + sum_s p_s max_xi (cost(xi) - alpha |xi_hat_s - xi|)``
    convex and piecewise linear.  ``alpha*`` is its smallest minimizer: the
    first of 0 and the kinks of ``g`` at which sending every atom to its
    nearest maximizer of ``cost(xi) - alpha* |xi_hat_s - xi|`` fits in the
    budget.  If ``alpha* > 0`` the budget binds, and atoms move in order to
    their farthest maximizer until it is spent; at most one atom is split.
    """
    grid = amb.grid.values
    cost = np.array([second_stage_costs.get(xi, np.nan) for xi in grid], dtype=float)
    bad = [xi for xi, c in zip(grid, cost) if not np.isfinite(c)]
    if bad:
        raise ValueError(f"second-stage costs missing or not finite for grid values {bad}")

    probs = np.asarray(amb.empirical.probabilities)
    dist = np.abs(np.subtract.outer(amb.empirical.support_points, grid))
    rows = np.arange(dist.shape[0])

    def maximizers(alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Nearest and farthest maximizer of each atom's ``cost - alpha * dist``."""
        gain = cost - alpha * dist
        tied = gain.max(axis=1, keepdims=True) - gain <= _TIE_TOL * (1.0 + np.abs(cost).max())
        return np.where(tied, dist, np.inf).argmin(axis=1), np.where(tied, dist, -1).argmax(axis=1)

    # g bends only where two lines of one atom cross; a line meets itself at 0
    run = dist[:, :, None] - dist[:, None, :]
    kinks = np.divide(np.subtract.outer(cost, cost), run, out=np.zeros(run.shape), where=run != 0)
    alphas = np.unique(kinks[kinks >= 0])
    # the nearest plan's cost falls as alpha grows and is 0 from the last kink on
    lo, hi = 0, alphas.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        fits = probs @ dist[rows, maximizers(alphas[mid])[0]] <= amb.radius
        lo, hi = (lo, mid) if fits else (mid + 1, hi)

    near, far = maximizers(alphas[lo])
    # at alpha* = 0 the nearest plan is already optimal and the slack stays unspent
    step = probs * (dist[rows, far] - dist[rows, near])
    room = amb.radius - probs @ dist[rows, near] if alphas[lo] > 0 else 0.0
    frac = np.clip(room - (np.cumsum(step) - step), 0.0, step) / np.where(step > 0, step, 1.0)
    mass = np.zeros(dist.shape)
    mass[rows, near] = probs * (1.0 - frac)
    mass[rows, far] += probs * frac
    mass.setflags(write=False)
    plan = TransportPlan(amb.empirical.support_points, amb.empirical.probabilities, grid, mass)
    return plan, float(mass.sum(axis=0) @ cost)
