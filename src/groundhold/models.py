"""Model builders for the ground holding problem family.

Four formulations share one first stage (binary slot assignment with
connection coupling) and differ in how capacity enters:

* ``build_d_saghp``    - hard per-slot capacity ``K``;
* ``build_s_saghp``    - extensive-form two-stage program, one airborne-queue
  block per empirical capacity scenario, probability-weighted recourse cost;
* ``build_dr_saghp``   - worst case over a Wasserstein ball of radius
  ``epsilon`` around the empirical distribution, written as its finite
  deterministic equivalent: queue blocks over a discretized capacity grid
  plus nonnegative multipliers ``alpha`` (transport budget) and ``beta[s]``
  (per-scenario mass), linked by
  ``alpha * |xi_hat_s - xi| + beta_s >= airborne cost(xi)``;
* ``build_dr_maghp``   - per-airport copies of the robust blocks with
  connections allowed to span airports.

All builders are pure functions of their inputs and return frozen models
carrying a :class:`ModelIndex`, the one place a column's meaning is kept and
the builders' only record of their columns; variable names are only a
rendering of it for people and MPS files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    AmbiguitySpec,
    CapacityDistribution,
    FlightSchedule,
    NetworkInstance,
    Violation,
    validate_schedule,
)
from .milp import BINARY, SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel, Solution

__all__ = [
    "ModelIndex",
    "GroundHoldingPolicy",
    "PolicyExtractionError",
    "DrDiagnostics",
    "build_d_saghp",
    "build_s_saghp",
    "build_dr_saghp",
    "reprice_dr_saghp",
    "build_dr_maghp",
    "extract_policy",
    "policy_from_assignments",
    "check_policy",
    "dr_diagnostics",
]


@dataclass(frozen=True)
class ModelIndex:
    """Columns of a built model by meaning.

    ``x[(flight, slot)]`` is the assignment binary, ``queues[(airport, xi)]``
    the queue block ``y[xi,1..T]``, ``alpha[airport]`` the transport-budget
    multiplier and ``beta[(airport, xi_hat)]`` the scenario multiplier.
    ``airport`` is ``None`` in single-airport models.  Builders fill the maps
    in column order and attach the index when they freeze the model.
    """

    x: dict[tuple[str, int], int]
    queues: dict[tuple[str | None, int], tuple[int, ...]] = field(default_factory=dict)
    alpha: dict[str | None, int] = field(default_factory=dict)
    beta: dict[tuple[str | None, int], int] = field(default_factory=dict)


class PolicyExtractionError(RuntimeError):
    """Solution has no clean 0/1 slot assignment, or it contradicts the model."""


@dataclass(frozen=True)
class GroundHoldingPolicy:
    """First-stage decision: one landing slot per flight.

    ``ground_delays`` are slot counts ``t - r_f``; ``ground_cost`` is the
    delay cost ``sum_f C_f * delay_f`` implied by the assignments.
    """

    assignments: dict[str, int]
    ground_delays: dict[str, int]
    ground_cost: float

    def summary(self) -> str:
        """Compact ``flight@slot`` rendering in assignment order."""
        return ";".join(f"{fid}@{slot}" for fid, slot in self.assignments.items())


def _require_valid(schedule: FlightSchedule) -> None:
    violations = validate_schedule(schedule)
    if violations:
        raise ValueError("invalid schedule: " + "; ".join(str(v) for v in violations))


def _ranges(starts, counts) -> np.ndarray:
    """``starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1`` for each
    ``i`` in turn, as one array."""
    starts, counts = np.asarray(starts, dtype=np.intp), np.asarray(counts, dtype=np.intp)
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts + counts - ends, counts)


def _first_stage(schedule: FlightSchedule) -> tuple[MilpModel, ModelIndex]:
    """New model holding the binaries ``x[f,t]`` and the ground-delay cost,
    as one block, flight by flight, so each flight's columns are consecutive."""
    _require_valid(schedule)
    model, index = MilpModel(), ModelIndex({})
    keys = [(f.id, t) for f in schedule.flights for t in schedule.available_slots(f)]
    costs = [f.ground_cost * t for f in schedule.flights for t in schedule.available_slots(f)]
    index.x.update(zip(keys, model.add_columns([f"x[{fid},{t}]" for fid, t in keys], 0.0, 1.0, BINARY, costs)))
    for f in schedule.flights:
        model.add_objective_offset(-f.ground_cost * f.scheduled_arrival)
    return model, index


def _x_terms(schedule: FlightSchedule, index: ModelIndex, flights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot and column of every ``x[f,t]`` of ``flights``, flight by
    flight and slots ascending, and how many each flight has."""
    release = [f.scheduled_arrival for f in flights]
    counts = schedule.horizon.num_slots + 1 - np.array(release, dtype=np.intp)
    first = [index.x[f.id, f.scheduled_arrival] for f in flights]
    return _ranges(release, counts), _ranges(first, counts), counts


def _finish(model: MilpModel, schedule: FlightSchedule, index: ModelIndex) -> MilpModel:
    """One-slot-per-flight and connection rows, then freeze with ``index``."""
    flights = schedule.flights
    _, columns, counts = _x_terms(schedule, index, flights)
    model.add_rows([f"assign[{f.id}]" for f in flights], np.repeat(np.arange(len(flights)), counts), columns,
                   1.0, SENSE_EQ, 1.0)
    _add_coupling_rows(model, schedule, index)
    return model.freeze(index)


def _add_coupling_rows(model: MilpModel, schedule: FlightSchedule, index: ModelIndex) -> None:
    # f2 landed by t => f1 landed by t + d, with d = r1 - r2 + slack, for
    # every slot t of f2; rows with t + d >= T are implied by assign[f1].
    # One block, connection by connection: the row of slot t = r2 + q holds
    # the q + 1 columns x[f2, r2..t] at +1, then the q + 1 + slack columns
    # x[f1, r1..t+d] at -1
    T = schedule.horizon.num_slots
    by_id, x = schedule.flight_by_id, index.x
    names, counts, first2, first1, slack = [], [], [], [], []
    for c in schedule.connections:
        f1 = by_id[c.predecessor]
        f2 = by_id[c.successor]
        slots = range(f2.scheduled_arrival, min(T + 1, T - (f1.scheduled_arrival - f2.scheduled_arrival + c.slack)))
        names += [f"couple[{f1.id},{f2.id},{t}]" for t in slots]
        counts.append(len(slots))
        first2.append(x[f2.id, f2.scheduled_arrival])
        first1.append(x[f1.id, f1.scheduled_arrival])
        slack.append(c.slack)
    rows, counts = np.arange(len(names)), np.array(counts, dtype=np.intp)
    n2 = _ranges(np.ones(len(counts)), counts)
    n1 = n2 + np.repeat(np.array(slack, dtype=np.intp), counts)
    model.add_rows(names, np.concatenate([rows.repeat(n2), rows.repeat(n1)]),
                   np.concatenate([_ranges(np.repeat(first2, counts), n2), _ranges(np.repeat(first1, counts), n1)]),
                   np.repeat([1.0, -1.0], [n2.sum(), n1.sum()]), SENSE_LE, 0.0)


def _arrival_terms(schedule: FlightSchedule, index: ModelIndex, flights) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``x[f,t]`` of the ``flights`` that may land at slot
    ``t``, as (block row ``t - 1``, column) pairs, flight by flight: the
    left sides of a block of one row per slot ``t = 1..T``."""
    slots, columns, _ = _x_terms(schedule, index, flights)
    return slots - 1, columns


def _add_queue_block(model: MilpModel, index: ModelIndex, airport: str | None, T: int,
                     arrivals: tuple[np.ndarray, np.ndarray], capacity: int, cost: float = 0.0) -> None:
    """Airborne-queue recourse rows for one capacity realization.

    ``arrivals_t <= capacity - y_{t-1} + y_t`` with ``y_0 = 0``, for
    ``t = 1..T``, whose left side is ``arrivals`` (see ``_arrival_terms``);
    the queue variables ``y_1..y_T``, each of objective cost ``cost``, go
    to ``index.queues[airport, capacity]``.
    """
    tag = str(capacity) if airport is None else f"{airport},{capacity}"
    y = model.add_columns([f"y[{tag},{t}]" for t in range(1, T + 1)], cost=cost)
    index.queues[airport, capacity] = tuple(y)
    rows, columns = arrivals
    t = np.arange(T)
    model.add_rows([f"recourse[{tag},{t}]" for t in range(1, T + 1)],
                   np.concatenate([rows, t, t[1:]]),
                   np.concatenate([columns, y.start + t, y.start + t[:-1]]),
                   np.concatenate([np.ones(len(rows)), np.full(T, -1.0), np.ones(T - 1)]),
                   SENSE_LE, float(capacity))


def _add_robust_block(model: MilpModel, schedule: FlightSchedule, index: ModelIndex,
                      airport: str | None, flights: list, amb: AmbiguitySpec) -> None:
    """One airport's Wasserstein-ball terms, recorded in ``index`` under ``airport``.

    Adds a queue block per grid value, ``alpha`` at cost ``amb.radius`` (the
    radius rule; see ``reprice_dr_saghp``), ``beta`` per support point at
    its probability, and the ``dual`` rows, one per (grid value, support
    point), each holding ``alpha`` (when the two differ), ``beta`` and the
    grid value's queue columns.  ``airport=None`` is the single-airport
    model, whose names carry no airport.

    ``beta`` keeps the default lower bound 0: every support point lies in the
    grid, so the ``dual[xi_hat, xi_hat]`` row already forces
    ``beta[xi_hat] >= airborne cost >= 0`` and the bound cuts off nothing.
    With it every bounded-below column has a nonnegative cost, so the
    all-slack start of the LP relaxation is dual feasible.
    """
    tag = "" if airport is None else f"{airport},"
    T = schedule.horizon.num_slots
    arrivals = _arrival_terms(schedule, index, flights)
    grid, support = amb.grid.values, amb.empirical.support_points
    for xi in grid:
        _add_queue_block(model, index, airport, T, arrivals, xi)
    alpha = index.alpha[airport] = model.add_continuous(
        "alpha" if airport is None else f"alpha[{airport}]", cost=amb.radius)
    beta = model.add_columns([f"beta[{tag}{xi_hat}]" for xi_hat in support], cost=amb.empirical.probabilities)
    index.beta.update(((airport, xi_hat), j) for xi_hat, j in zip(support, beta))

    # row q = g * len(support) + s pairs grid value g with support point s
    rows = np.arange(len(grid) * len(support))
    distance = np.abs(np.tile(support, len(grid)) - np.repeat(grid, len(support))).astype(float)
    moved = rows[distance != 0.0]
    queues = np.repeat([index.queues[airport, xi][0] for xi in grid], len(support))
    model.add_rows([f"dual[{tag}{xi},{xi_hat}]" for xi in grid for xi_hat in support],
                   np.concatenate([moved, rows, np.repeat(rows, T)]),
                   np.concatenate([np.full(len(moved), alpha), np.tile(beta, len(grid)),
                                   _ranges(queues, np.full(len(rows), T))]),
                   np.concatenate([distance[moved], np.ones(len(rows)),
                                   np.full(len(rows) * T, -schedule.airborne_cost)]),
                   SENSE_GE, 0.0)


def build_d_saghp(schedule: FlightSchedule, capacity: int) -> MilpModel:
    """Deterministic single-airport model with hard per-slot capacity.

    Minimizes total ground delay cost subject to per-slot capacity, one slot
    per flight and connection coupling.  Infeasibility (more flights than the
    horizon can absorb) surfaces at solve time, not here.
    """
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    model, index = _first_stage(schedule)
    model.add_rows([f"cap[{t}]" for t in schedule.horizon.slots()],
                   *_arrival_terms(schedule, index, schedule.flights), 1.0, SENSE_LE, float(capacity))
    return _finish(model, schedule, index)


def build_s_saghp(schedule: FlightSchedule, dist: CapacityDistribution) -> MilpModel:
    """Extensive-form two-stage stochastic model on the empirical distribution.

    The hard capacity row is replaced by one airborne-queue block per
    scenario; the objective adds the probability-weighted airborne cost.
    Like the queue recursion it mirrors, the model leaves flights still
    airborne at the end of the horizon unresolved.
    """
    model, index = _first_stage(schedule)
    arrivals = _arrival_terms(schedule, index, schedule.flights)
    for xi, p in dist.atoms():
        _add_queue_block(model, index, None, schedule.horizon.num_slots, arrivals, xi, p * schedule.airborne_cost)
    return _finish(model, schedule, index)


def build_dr_saghp(schedule: FlightSchedule, amb: AmbiguitySpec) -> MilpModel:
    """Distributionally robust model, finite deterministic equivalent.

    Variables: assignment binaries, queue block ``y[xi,t]`` per grid value,
    a transport-budget multiplier ``alpha >= 0`` and per-scenario
    multipliers ``beta[s] >= 0``.  The objective is ground cost plus
    ``epsilon * alpha + sum_s p_s * beta[s]``; rows
    ``alpha * |xi_hat_s - xi| + beta[s] >= sum_t C_h y[xi,t]`` for every
    (grid value, scenario) pair bound the worst-case airborne cost over the
    ball.  The scalar ground metric makes the l2 norm an absolute difference.

    ``alpha`` is unbounded; at ``epsilon = 0`` its objective coefficient is
    zero and the zero-cost ray is harmless.
    """
    model, index = _first_stage(schedule)
    _add_robust_block(model, schedule, index, None, list(schedule.flights), amb)
    return _finish(model, schedule, index)


def reprice_dr_saghp(model: MilpModel, amb: AmbiguitySpec) -> MilpModel:
    """``build_dr_saghp(schedule, amb)``, from a ``model`` that
    ``build_dr_saghp`` built for the same schedule, empirical distribution
    and grid at any radius.

    The radius enters the robust model only as the objective cost of
    ``alpha``, so the result is ``model.repriced`` with that one cost set to
    ``amb.radius``: it shares ``model``'s rows, bounds and column storage.
    A spec whose grid, support or probabilities are not the model's raises
    ``ValueError``.
    """
    index = model.index
    if index is None or list(index.alpha) != [None]:
        raise ValueError("reprice_dr_saghp needs a single-airport robust model")
    c = model.to_arrays().c
    for what, given, built in (
            ("grid", list(amb.grid.values), [xi for _, xi in index.queues]),
            ("support", list(amb.empirical.support_points), [xi_hat for _, xi_hat in index.beta]),
            ("probabilities", list(amb.empirical.probabilities), c[list(index.beta.values())].tolist())):
        if given != built:
            raise ValueError(f"the spec's {what} {given} is not the model's {built}")
    return model.repriced({index.alpha[None]: amb.radius})


def build_dr_maghp(net: NetworkInstance) -> MilpModel:
    """Multi-airport robust model: one dr block per airport, shared coupling.

    Every airport contributes its own queue blocks, budget multiplier
    ``alpha[z]`` and scenario multipliers ``beta[z,s]``; the objective sums
    the per-airport robust terms (radii may differ per airport, the shared
    radius of the single-epsilon formulation being the special case).
    Connections may span airports.
    """
    schedule = net.schedule
    model, index = _first_stage(schedule)
    for z in net.airports:
        flights = [f for f in schedule.flights if f.airport == z]
        _add_robust_block(model, schedule, index, z, flights, net.ambiguities[z])
    return _finish(model, schedule, index)


def policy_from_assignments(assignments: dict[str, int], schedule: FlightSchedule) -> GroundHoldingPolicy:
    """Policy for a ``flight -> slot`` map, with delays and ground cost
    derived from the schedule; raises ``ValueError`` for a missing flight."""
    slots: dict[str, int] = {}
    delays: dict[str, int] = {}
    ground_cost = 0.0
    for f in schedule.flights:
        if f.id not in assignments:
            raise ValueError(f"policy is missing flight {f.id!r}")
        slots[f.id] = assignments[f.id]
        delays[f.id] = assignments[f.id] - f.scheduled_arrival
        ground_cost += f.ground_cost * delays[f.id]
    return GroundHoldingPolicy(slots, delays, ground_cost)


def extract_policy(model: MilpModel, sol: Solution, schedule: FlightSchedule) -> GroundHoldingPolicy:
    """Read the slot assignment out of an optimal solution.

    Each flight must have exactly one ``x[f,t]`` above 0.5; anything else
    signals an integrality failure.  The recomputed ground cost is checked
    against the solution's first-stage objective part within 1e-6.
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot extract a policy from a {sol.status!r} solution")
    chosen: dict[str, list[int]] = {f.id: [] for f in schedule.flights}
    arrays = model.to_arrays()
    c, first_stage = arrays.c.tolist(), arrays.offset
    for (fid, slot), j in model.index.x.items():
        value = float(sol.values[j])
        first_stage += c[j] * value
        if value > 0.5:
            if fid not in chosen:
                raise PolicyExtractionError(f"solution variable x[{fid},{slot}] has no flight in schedule")
            chosen[fid].append(slot)

    for fid, slots in chosen.items():
        if len(slots) != 1:
            raise PolicyExtractionError(
                f"flight {fid!r} has {len(slots)} active slots; expected exactly one")
    policy = policy_from_assignments({fid: slots[0] for fid, slots in chosen.items()}, schedule)
    if abs(policy.ground_cost - first_stage) > 1e-6:
        raise PolicyExtractionError(
            f"recomputed ground cost {policy.ground_cost} disagrees with the solution's "
            f"first-stage objective {first_stage}")
    return policy


def check_policy(policy: GroundHoldingPolicy, schedule: FlightSchedule) -> list[Violation]:
    """Policy-against-schedule invariants: slot windows, stated delays and
    cost, coupling.  Delays and cost are computed from the assignments, and
    a stated value that disagrees is reported, never trusted."""
    out: list[Violation] = []
    T = schedule.horizon.num_slots
    cost = 0.0
    delays: dict[str, int] = {}
    for f in schedule.flights:
        t = policy.assignments.get(f.id)
        if t is None:
            out.append(Violation("missing-assignment", f"flight {f.id!r} has no assigned slot"))
            continue
        if t < f.scheduled_arrival or t > T:
            out.append(Violation(
                "slot-out-of-window", f"flight {f.id!r} assigned {t}, window {f.scheduled_arrival}..{T}"))
        delays[f.id] = d = t - f.scheduled_arrival
        stated = policy.ground_delays.get(f.id)
        if stated != d:
            out.append(Violation(
                "ground-delay-mismatch", f"flight {f.id!r} stated delay {stated}, assignment implies {d}"))
        cost += f.ground_cost * d
    if abs(cost - policy.ground_cost) > 1e-6:
        out.append(Violation(
            "ground-cost-mismatch", f"stated {policy.ground_cost}, assignments imply {cost}"))
    for c in schedule.connections:
        d1 = delays.get(c.predecessor)
        d2 = delays.get(c.successor)
        if d1 is None or d2 is None:
            continue
        if d1 - c.slack > d2:
            out.append(Violation(
                "coupling-violated",
                f"{c.predecessor!r} delay {d1} exceeds slack {c.slack} over {c.successor!r} delay {d2}"))
    return out


@dataclass(frozen=True)
class DrDiagnostics:
    """Pieces of a solved robust model needed for primal-dual verification.

    ``second_stage_costs`` maps each grid value to the realized airborne cost
    ``sum_t C_h * y[xi,t]``; ``dual_term`` is ``epsilon * alpha + sum_s p_s
    beta_s``, the robust part of the objective, its sum by ``math.fsum`` so
    the same float on every Python version.
    """

    alpha: float
    beta: dict[int, float]
    second_stage_costs: dict[int, float]
    dual_term: float


def dr_diagnostics(model: MilpModel, sol: Solution, amb: AmbiguitySpec,
                   schedule: FlightSchedule) -> DrDiagnostics:
    """Extract ``alpha``, ``beta`` and per-grid-value airborne costs from a
    solved single-airport robust model."""
    if sol.status != "optimal":
        raise ValueError(f"diagnostics need an optimal solution, got {sol.status!r}")
    index = model.index
    if index is None or list(index.alpha) != [None]:
        raise ValueError("dr_diagnostics needs a solved single-airport robust model")
    values = sol.values
    alpha = float(values[index.alpha[None]])
    beta = {xi_hat: float(values[j]) for (_, xi_hat), j in index.beta.items()}
    costs: dict[int, float] = {xi: 0.0 for xi in amb.grid.values}
    for (_, xi), columns in index.queues.items():
        for j in columns:
            costs[xi] += schedule.airborne_cost * float(values[j])
    dual_term = amb.radius * alpha + math.fsum(
        p * beta[xi_hat] for xi_hat, p in amb.empirical.atoms())
    return DrDiagnostics(alpha, beta, costs, dual_term)
