"""MILP engine: LP interface and branch and bound.

``solve_milp`` runs branch and bound on the binary variables over the
bounded-variable simplex in :mod:`groundhold.simplex`.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from .milp import MilpModel, Solution
from .simplex import LpSolution, NumericalInstabilityError, solve_lp_arrays

__all__ = [
    "LpSolution",
    "NumericalInstabilityError",
    "solve_lp",
    "solve_milp",
]

INTEGRALITY_TOL = 1e-6  # distance from 0/1 at which a binary counts as integral
# absolute, since desk-scale objectives can sit near zero where a relative
# gap would be meaningless
OPTIMALITY_GAP = 1e-6


def solve_lp(
    model: MilpModel,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> LpSolution:
    """Solve the LP relaxation (every variable treated as continuous).

    ``lower``/``upper`` override the model's variable bounds.
    """
    a = model.to_arrays()
    return solve_lp_arrays(a, a.lower if lower is None else lower, a.upper if upper is None else upper)


def solve_milp(
    model: MilpModel,
    *,
    node_limit: int = 100_000,
    root_basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> Solution:
    """Best-bound branch and bound to an absolute gap of ``OPTIMALITY_GAP``.

    Branches on the most fractional binary.  A node holds its parent's LP
    bound, its variable bounds and its parent's optimal basis.  The root
    holds the model's own (read-only) bound arrays; a child copies only the
    bound array it changes (the down child ``upper`` with the branching
    variable at 0, the up child ``lower`` with it at 1) and shares the
    other, and its basis, with its parent and sibling.  No bound array is
    written once a node holds it.  The root LP starts from ``root_basis``
    (the ``Solution.root_basis`` of a model with the same ``A``, ``b`` and
    bounds; its cost may differ) or, when it is None, from the all-slack
    basis; each child re-optimises from its parent's basis with the dual
    simplex.  A ``root_basis`` that does not fit the model raises
    ``ValueError`` from ``solve_lp_arrays`` at the root, before any pivot.
    The optimum found does not depend on the root's start, but among tied
    optima the one returned can.  Deterministic: Dantzig/Bland simplex
    below, lowest variable index on all branching ties, open nodes with
    equal bounds taken in push order.

    Before each node the search stops, in this order: with status
    ``node-limit`` after ``node_limit`` LP solves while any node is open
    (even one that could be pruned); when the smallest open bound is within
    ``OPTIMALITY_GAP`` of the incumbent; when no node is open.  An unbounded
    LP ends it at once with status ``unbounded``.  ``best_bound`` is the
    smallest open bound or the incumbent's objective, whichever is lower.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    t0 = time.perf_counter()
    a = model.to_arrays()
    bin_idx = np.flatnonzero(a.is_binary)
    nodes = pivots = 0
    root = None  # the root LP's optimal basis, reported in the Solution
    incumbent: np.ndarray | None = None
    inc_obj = math.inf

    # (parent bound, push order, lower, upper, parent basis); see the
    # docstring for which arrays a node shares
    open_nodes: list[tuple[float, int, np.ndarray, np.ndarray, tuple | None]] = [
        (-math.inf, 0, a.lower, a.upper, root_basis)
    ]
    while open_nodes and nodes < node_limit and open_nodes[0][0] < inc_obj - OPTIMALITY_GAP:
        _, _, lo, up, basis = heapq.heappop(open_nodes)
        nodes += 1
        rel = solve_lp_arrays(a, lo, up, basis=basis)
        pivots += rel.pivots
        if nodes == 1:
            root = rel.basis
        if rel.status == "unbounded":
            return Solution("unbounded", None, -math.inf, -math.inf, nodes, pivots,
                            time.perf_counter() - t0, root)
        if rel.status == "infeasible" or rel.objective >= inc_obj - OPTIMALITY_GAP:
            continue

        frac = np.abs(rel.values[bin_idx] - np.round(rel.values[bin_idx]))
        if frac.max(initial=0.0) <= INTEGRALITY_TOL:
            if rel.objective < inc_obj - 1e-12:
                incumbent, inc_obj = rel.values, rel.objective
            continue

        j = int(bin_idx[int(np.argmax(frac))])
        down_upper, up_lower = up.copy(), lo.copy()
        down_upper[j], up_lower[j] = 0.0, 1.0
        heapq.heappush(open_nodes, (rel.objective, 2 * nodes, lo, down_upper, rel.basis))
        heapq.heappush(open_nodes, (rel.objective, 2 * nodes + 1, up_lower, up, rel.basis))

    if open_nodes and nodes >= node_limit:
        status = "node-limit"
    else:
        status = "infeasible" if incumbent is None else "optimal"
    best_bound = min(open_nodes[0][0], inc_obj) if open_nodes else inc_obj
    return Solution(status, incumbent, inc_obj, best_bound, nodes, pivots,
                    time.perf_counter() - t0, root)
