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
    lo = a.lower if lower is None else np.asarray(lower, dtype=float)
    up = a.upper if upper is None else np.asarray(upper, dtype=float)
    return solve_lp_arrays(a, lo, up)


def solve_milp(
    model: MilpModel,
    *,
    node_limit: int = 100_000,
    root_basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> Solution:
    """Best-bound branch and bound to an absolute gap of ``OPTIMALITY_GAP``.

    Branches on the most fractional binary.  The root LP starts from
    ``root_basis`` (the ``Solution.root_basis`` of a model with the same
    ``A``, ``b`` and bounds; its cost may differ) or, when it is None, from
    the all-slack basis; each child starts from its parent's optimal basis
    (one bound changed) and re-optimises with the dual simplex.  A
    ``root_basis`` that does not fit the model raises ``ValueError`` from
    ``solve_lp_arrays`` at the root, before any pivot.  The optimum found
    does not depend on the root's start, but among tied optima the one
    returned can.  Deterministic: Dantzig/Bland simplex
    below, lowest variable index on all branching ties, sequence-numbered
    node queue.  Stops with status ``node-limit`` after ``node_limit`` LP
    solves.
    """
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    t0 = time.perf_counter()
    a = model.to_arrays()
    bin_idx = np.flatnonzero(a.is_binary)
    pivots = 0
    nodes = 0
    root = None  # the root LP's optimal basis, reported in the Solution

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    best_bound = math.inf  # min bound of any unexplored region at stop time
    status = "optimal"

    # (parent bound, sequence, lower, upper, parent basis); siblings share
    # the parent's basis tuple
    open_nodes: list[tuple[float, int, np.ndarray, np.ndarray, tuple | None]] = [
        (-math.inf, 0, a.lower.copy(), a.upper.copy(), root_basis)
    ]
    seq = 0

    while open_nodes:
        if nodes >= node_limit:
            status = "node-limit"
            best_bound = open_nodes[0][0]  # heap order: the smallest open bound
            break
        bound, _, lo, up, basis = heapq.heappop(open_nodes)
        if incumbent is not None and bound >= inc_obj - OPTIMALITY_GAP:
            # heap is bound-ordered: every remaining node is prunable too
            best_bound = bound
            open_nodes.clear()
            break

        nodes += 1
        rel = solve_lp_arrays(a, lo, up, basis=basis)
        pivots += rel.pivots
        if nodes == 1:
            root = rel.basis
        if rel.status == "infeasible":
            continue
        if rel.status == "unbounded":
            return Solution("unbounded", None, -math.inf, -math.inf, nodes, pivots,
                            time.perf_counter() - t0, root)
        if incumbent is not None and rel.objective >= inc_obj - OPTIMALITY_GAP:
            continue

        v = rel.values
        frac = np.abs(v[bin_idx] - np.round(v[bin_idx])) if bin_idx.size else np.zeros(0)
        if frac.size == 0 or float(frac.max()) <= INTEGRALITY_TOL:
            if rel.objective < inc_obj - 1e-12:
                inc_obj = rel.objective
                incumbent = v.copy()
            continue

        j = int(bin_idx[int(np.argmax(frac))])
        lo0, up0 = lo.copy(), up.copy()
        up0[j] = 0.0
        lo1, up1 = lo.copy(), up.copy()
        lo1[j] = 1.0
        seq += 1
        heapq.heappush(open_nodes, (rel.objective, seq, lo0, up0, rel.basis))
        seq += 1
        heapq.heappush(open_nodes, (rel.objective, seq, lo1, up1, rel.basis))
    else:
        best_bound = inc_obj  # search exhausted: the incumbent is proven

    wall = time.perf_counter() - t0
    if incumbent is None:
        if status == "node-limit":
            return Solution("node-limit", None, math.inf, best_bound, nodes, pivots, wall, root)
        return Solution("infeasible", None, math.inf, math.inf, nodes, pivots, wall, root)
    return Solution(status, incumbent, inc_obj, min(best_bound, inc_obj), nodes, pivots, wall, root)
