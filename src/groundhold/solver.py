"""MILP engine: LP interface, branch and bound, and a brute-force oracle.

``solve_milp`` runs branch and bound on the binary variables over the
bounded-variable simplex in :mod:`groundhold.simplex`.  ``enumerate_small``
is the independent test oracle: it enumerates every first-stage slot
assignment and solves the residual LP for each, so it shares no search logic
with the branch-and-bound path.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np

from .domain import FlightSchedule
from .milp import MilpModel, ModelError, Solution
from .simplex import FEASIBILITY_TOL, LpSolution, NumericalInstabilityError, solve_lp_arrays

__all__ = [
    "LpSolution",
    "NumericalInstabilityError",
    "CombinatorialLimitError",
    "solve_lp",
    "solve_milp",
    "enumerate_small",
]

INTEGRALITY_TOL = 1e-6  # distance from 0/1 at which a binary counts as integral
# absolute, since desk-scale objectives can sit near zero where a relative
# gap would be meaningless
OPTIMALITY_GAP = 1e-6

# assignment combinations enumerate_small is willing to walk
ENUMERATION_LIMIT = 10 ** 6


class CombinatorialLimitError(RuntimeError):
    """The instance has too many first-stage assignments to enumerate."""


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
    return solve_lp_arrays(a.c, a.offset, a.A, a.senses, a.b, lo, up)


def solve_milp(model: MilpModel, *, node_limit: int = 100_000) -> Solution:
    """Best-bound branch and bound to an absolute gap of ``OPTIMALITY_GAP``.

    Branches on the most fractional binary.  The root LP solves cold; each
    child starts from its parent's optimal basis (one bound changed) and
    re-optimises with the dual simplex.  Deterministic: Dantzig/Bland simplex
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

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    best_bound = math.inf  # min bound of any unexplored region at stop time
    status = "optimal"

    # (parent bound, sequence, lower, upper, parent basis); siblings share
    # the parent's basis tuple
    open_nodes: list[tuple[float, int, np.ndarray, np.ndarray, tuple | None]] = [
        (-math.inf, 0, a.lower.copy(), a.upper.copy(), None)
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
        rel = solve_lp_arrays(a.c, a.offset, a.A, a.senses, a.b, lo, up, basis=basis)
        pivots += rel.pivots
        if rel.status == "infeasible":
            continue
        if rel.status == "unbounded":
            return Solution("unbounded", None, -math.inf, -math.inf, nodes, pivots,
                            time.perf_counter() - t0)
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
            return Solution("node-limit", None, math.inf, best_bound, nodes, pivots, wall)
        return Solution("infeasible", None, math.inf, math.inf, nodes, pivots, wall)
    return Solution(status, incumbent, inc_obj, min(best_bound, inc_obj), nodes, pivots, wall)


def enumerate_small(model: MilpModel, schedule: FlightSchedule) -> Solution:
    """Exact optimum by brute force over first-stage assignments.

    Walks every combination of per-flight landing slots, fixes the ``x``
    binaries accordingly and solves the residual LP in the continuous
    variables.  Refuses instances with more than ``ENUMERATION_LIMIT``
    combinations.
    """
    t0 = time.perf_counter()
    a = model.to_arrays()

    xcol = {} if model.index is None else model.index.x
    foreign = sorted(set(np.flatnonzero(a.is_binary).tolist()) - set(xcol.values()))
    if foreign:
        name = model.variables[foreign[0]].name
        raise ModelError(f"binary {name!r} is not an assignment variable x[f,t]")

    slot_choices: list[list[tuple[int, int]]] = []  # per flight: (slot, column)
    combos = 1
    for f in schedule.flights:
        choices = []
        for t in schedule.available_slots(f):
            col = xcol.get((f.id, t))
            if col is None:
                raise ModelError(f"model has no variable x[{f.id},{t}]")
            choices.append((t, col))
        if not choices:
            return Solution("infeasible", None, math.inf, math.inf, 0, 0, 0.0)
        combos *= len(choices)
        if combos > ENUMERATION_LIMIT:
            raise CombinatorialLimitError(
                f"{combos}+ assignment combinations exceed the {ENUMERATION_LIMIT} limit")
        slot_choices.append(choices)

    bin_cols = np.flatnonzero(a.is_binary)
    cont_cols = np.flatnonzero(~a.is_binary)
    bin_pos = {int(col): k for k, col in enumerate(bin_cols)}
    A_bin = a.A[:, bin_cols]
    A_cont = a.A[:, cont_cols]
    c_bin = a.c[bin_cols]
    c_cont = a.c[cont_cols]
    lo_cont = a.lower[cont_cols]
    up_cont = a.upper[cont_cols]
    lp_rows = np.flatnonzero(np.any(A_cont != 0.0, axis=1)) if A_cont.size else np.array([], dtype=int)
    const_rows = np.setdiff1d(np.arange(a.A.shape[0]), lp_rows)
    A_lp = A_cont[lp_rows]
    senses_lp = a.senses[lp_rows]
    ftol = FEASIBILITY_TOL

    best_obj = math.inf
    best_values: np.ndarray | None = None
    pivots = 0
    tried = 0

    for combo in itertools.product(*slot_choices):
        tried += 1
        xbin = np.zeros(len(bin_cols))
        for _, col in combo:
            xbin[bin_pos[col]] = 1.0
        b_res = a.b - (A_bin @ xbin if A_bin.size else 0.0)

        ok = True
        for i in const_rows:
            s = a.senses[i]
            if (s < 0 and b_res[i] < -ftol) or (s > 0 and b_res[i] > ftol) or (s == 0 and abs(b_res[i]) > ftol):
                ok = False
                break
        if not ok:
            continue

        total = float(a.offset + c_bin @ xbin)
        cont_values: np.ndarray | None = np.zeros(0)
        if cont_cols.size:
            lp = solve_lp_arrays(c_cont, 0.0, A_lp, senses_lp, b_res[lp_rows], lo_cont, up_cont)
            pivots += lp.pivots
            if lp.status == "infeasible":
                continue
            if lp.status == "unbounded":
                return Solution("unbounded", None, -math.inf, -math.inf, tried, pivots,
                                time.perf_counter() - t0)
            total += lp.objective
            cont_values = lp.values

        if total < best_obj - 1e-12:
            best_obj = total
            values = np.zeros(model.num_variables)
            values[bin_cols] = xbin
            if cont_cols.size:
                values[cont_cols] = cont_values
            best_values = values

    wall = time.perf_counter() - t0
    if best_values is None:
        return Solution("infeasible", None, math.inf, math.inf, tried, pivots, wall)
    return Solution("optimal", best_values, best_obj, best_obj, tried, pivots, wall)
