"""Closed-form brute force over first-stage slot assignments.

Walks every assignment ``t_f in r_f..T`` and scores it without any LP: the
greedy airborne queue gives the recourse cost ``Q(xi)``, and the robust term
is the finite dual of the Wasserstein worst case, convex and piecewise linear
in the budget multiplier ``alpha`` (Mohajerin Esfahani & Kuhn, 2018).  It
reads only the model's inputs, never a built model, and imports nothing from
``groundhold``, so a wrong model row or a wrong engine cannot fool it.
"""

from __future__ import annotations

import itertools
import math


def slot_counts(slots, num_slots):
    """Flights landing in each slot ``1..num_slots``."""
    slots = list(slots)
    return [slots.count(s) for s in range(1, num_slots + 1)]


def queue_cost(arrivals, capacity, airborne_cost):
    """``Q(xi) = C_h sum_t y_t`` with ``y_t = max(0, y_{t-1} + a_t - xi)``, ``y_0 = 0``."""
    y = total = 0
    for a in arrivals:
        y = max(0, y + a - capacity)
        total += y
    return airborne_cost * total


def robust_term(arrivals, amb, airborne_cost):
    """``min_{alpha >= 0} eps alpha + sum_s p_s max_xi (Q(xi) - alpha |xi_hat_s - xi|)``.

    ``Q`` is the queue cost of ``arrivals`` at each grid value ``xi``.  The
    function is convex and piecewise linear in ``alpha`` with slope
    ``eps >= 0`` beyond its last breakpoint, so its minimum lies at 0 or at a
    breakpoint.
    """
    grid = amb.grid.values
    costs = {xi: queue_cost(arrivals, xi, airborne_cost) for xi in grid}
    atoms = list(zip(amb.empirical.support_points, amb.empirical.probabilities))
    alphas = {0.0}
    for xi_hat, _ in atoms:
        for x1, x2 in itertools.combinations(grid, 2):
            gap = abs(xi_hat - x1) - abs(xi_hat - x2)
            if gap:
                alphas.add(max(0.0, (costs[x1] - costs[x2]) / gap))
    return min(amb.radius * alpha + sum(p * max(costs[xi] - alpha * abs(xi_hat - xi) for xi in grid)
                                        for xi_hat, p in atoms)
               for alpha in alphas)


def brute_force(schedule, kind, data):
    """Optimum of the ``kind`` model on ``schedule`` as ``(objective, assignments)``.

    ``data`` is the capacity ``K`` for ``det``, the distribution for ``sp``,
    the ambiguity set for ``dr`` and a mapping airport -> ambiguity set for
    ``dr-maghp``.  Returns ``(math.inf, None)`` when no assignment fits.
    """
    T = schedule.horizon.num_slots
    flights = schedule.flights
    groups = data.items() if kind == "dr-maghp" else [(None, data)]
    best, best_slots = math.inf, None
    for slots in itertools.product(*(range(f.scheduled_arrival, T + 1) for f in flights)):
        t = {f.id: slot for f, slot in zip(flights, slots)}
        delay = {f.id: slot - f.scheduled_arrival for f, slot in zip(flights, slots)}
        if any(delay[c.predecessor] - c.slack > delay[c.successor] for c in schedule.connections):
            continue
        total = sum(f.ground_cost * delay[f.id] for f in flights)
        for airport, inputs in groups:
            arrivals = slot_counts((t[f.id] for f in flights if airport is None or f.airport == airport), T)
            if kind == "det":
                total = total if max(arrivals) <= inputs else math.inf
            elif kind == "sp":
                total += sum(p * queue_cost(arrivals, xi, schedule.airborne_cost)
                             for xi, p in zip(inputs.support_points, inputs.probabilities))
            else:
                total += robust_term(arrivals, inputs, schedule.airborne_cost)
        if total < best:
            best, best_slots = total, t
    return best, best_slots
