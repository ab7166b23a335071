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

from dataclasses import dataclass, field

from .domain import (
    AmbiguitySpec,
    CapacityDistribution,
    FlightSchedule,
    NetworkInstance,
    Violation,
    validate_schedule,
)
from .milp import SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel, Solution

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


def _first_stage(schedule: FlightSchedule) -> tuple[MilpModel, ModelIndex]:
    """New model holding the binaries ``x[f,t]`` and the ground-delay cost."""
    _require_valid(schedule)
    model, index = MilpModel(), ModelIndex({})
    for f in schedule.flights:
        for t in schedule.available_slots(f):
            index.x[f.id, t] = model.add_binary(f"x[{f.id},{t}]", f.ground_cost * t)
        model.add_objective_offset(-f.ground_cost * f.scheduled_arrival)
    return model, index


def _finish(model: MilpModel, schedule: FlightSchedule, index: ModelIndex) -> MilpModel:
    """One-slot-per-flight and connection rows, then freeze with ``index``."""
    for f in schedule.flights:
        terms = [(index.x[f.id, t], 1.0) for t in schedule.available_slots(f)]
        model.add_row(terms, SENSE_EQ, 1.0, name=f"assign[{f.id}]")
    _add_coupling_rows(model, schedule, index)
    return model.freeze(index)


def _add_coupling_rows(model: MilpModel, schedule: FlightSchedule, index: ModelIndex) -> None:
    # f2 landed by t => f1 landed by t + d, with d = r1 - r2 + slack, for
    # every slot t of f2; rows with t + d >= T are implied by assign[f1]
    T = schedule.horizon.num_slots
    by_id, x = schedule.flight_by_id, index.x
    for c in schedule.connections:
        f1 = by_id[c.predecessor]
        f2 = by_id[c.successor]
        d = f1.scheduled_arrival - f2.scheduled_arrival + c.slack
        for t in range(f2.scheduled_arrival, min(T + 1, T - d)):
            terms = [(x[f2.id, u], 1.0) for u in range(f2.scheduled_arrival, t + 1)]
            terms += [(x[f1.id, u], -1.0) for u in range(f1.scheduled_arrival, t + d + 1)]
            model.add_row(terms, SENSE_LE, 0.0, name=f"couple[{f1.id},{f2.id},{t}]")


def _arrival_terms(schedule: FlightSchedule, index: ModelIndex,
                   flights: list) -> list[list[tuple[int, float]]]:
    """For each slot ``t = 1..T``, the terms ``(x[f,t], 1.0)`` of the
    ``flights`` that may land at ``t``, in flight order."""
    return [[(index.x[f.id, t], 1.0) for f in flights if t >= f.scheduled_arrival]
            for t in schedule.horizon.slots()]


def _add_queue_block(model: MilpModel, index: ModelIndex, airport: str | None,
                     arrivals: list[list[tuple[int, float]]], capacity: int, cost: float = 0.0) -> None:
    """Airborne-queue recourse rows for one capacity realization.

    ``arrivals_t <= capacity - y_{t-1} + y_t`` with ``y_0 = 0``, whose left
    side is ``arrivals[t - 1]`` (see ``_arrival_terms``); the queue
    variables ``y_1..y_T``, each of objective cost ``cost``, go to
    ``index.queues[airport, capacity]``.
    """
    tag = str(capacity) if airport is None else f"{airport},{capacity}"
    y = tuple(model.add_continuous(f"y[{tag},{t}]", cost=cost) for t in range(1, len(arrivals) + 1))
    index.queues[airport, capacity] = y
    for t, arrived in enumerate(arrivals, start=1):
        terms = arrived + [(y[t - 1], -1.0)] + ([(y[t - 2], 1.0)] if t >= 2 else [])
        model.add_row(terms, SENSE_LE, float(capacity), name=f"recourse[{tag},{t}]")


def _add_robust_block(model: MilpModel, schedule: FlightSchedule, index: ModelIndex,
                      airport: str | None, flights: list, amb: AmbiguitySpec) -> None:
    """One airport's Wasserstein-ball terms, recorded in ``index`` under ``airport``.

    Adds a queue block per grid value, ``alpha`` at cost ``amb.radius`` (the
    radius rule; see ``reprice_dr_saghp``), ``beta`` per support point at
    its probability, and the ``dual`` rows.  ``airport=None`` is the
    single-airport model, whose names carry no airport.

    ``beta`` keeps the default lower bound 0: every support point lies in the
    grid, so the ``dual[xi_hat, xi_hat]`` row already forces
    ``beta[xi_hat] >= airborne cost >= 0`` and the bound cuts off nothing.
    With it every bounded-below column has a nonnegative cost, so the
    all-slack start of the LP relaxation is dual feasible.
    """
    tag = "" if airport is None else f"{airport},"
    arrivals = _arrival_terms(schedule, index, flights)
    for xi in amb.grid.values:
        _add_queue_block(model, index, airport, arrivals, xi)
    alpha = index.alpha[airport] = model.add_continuous(
        "alpha" if airport is None else f"alpha[{airport}]", cost=amb.radius)
    for xi_hat, p in amb.empirical.atoms():
        index.beta[airport, xi_hat] = model.add_continuous(f"beta[{tag}{xi_hat}]", cost=p)

    for xi in amb.grid.values:
        for xi_hat in amb.empirical.support_points:
            terms = [(alpha, float(abs(xi_hat - xi)))] if xi_hat != xi else []
            terms.append((index.beta[airport, xi_hat], 1.0))
            terms += [(j, -schedule.airborne_cost) for j in index.queues[airport, xi]]
            model.add_row(terms, SENSE_GE, 0.0, name=f"dual[{tag}{xi},{xi_hat}]")


def build_d_saghp(schedule: FlightSchedule, capacity: int) -> MilpModel:
    """Deterministic single-airport model with hard per-slot capacity.

    Minimizes total ground delay cost subject to per-slot capacity, one slot
    per flight and connection coupling.  Infeasibility (more flights than the
    horizon can absorb) surfaces at solve time, not here.
    """
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    model, index = _first_stage(schedule)
    for t, terms in zip(schedule.horizon.slots(), _arrival_terms(schedule, index, list(schedule.flights))):
        model.add_row(terms, SENSE_LE, float(capacity), name=f"cap[{t}]")
    return _finish(model, schedule, index)


def build_s_saghp(schedule: FlightSchedule, dist: CapacityDistribution) -> MilpModel:
    """Extensive-form two-stage stochastic model on the empirical distribution.

    The hard capacity row is replaced by one airborne-queue block per
    scenario; the objective adds the probability-weighted airborne cost.
    Like the queue recursion it mirrors, the model leaves flights still
    airborne at the end of the horizon unresolved.
    """
    model, index = _first_stage(schedule)
    arrivals = _arrival_terms(schedule, index, list(schedule.flights))
    for xi, p in dist.atoms():
        _add_queue_block(model, index, None, arrivals, xi, p * schedule.airborne_cost)
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
    """Policy-against-schedule invariants: slot windows, cost, coupling."""
    out: list[Violation] = []
    T = schedule.horizon.num_slots
    cost = 0.0
    for f in schedule.flights:
        t = policy.assignments.get(f.id)
        if t is None:
            out.append(Violation("missing-assignment", f"flight {f.id!r} has no assigned slot"))
            continue
        if t < f.scheduled_arrival or t > T:
            out.append(Violation(
                "slot-out-of-window", f"flight {f.id!r} assigned {t}, window {f.scheduled_arrival}..{T}"))
        cost += f.ground_cost * (t - f.scheduled_arrival)
    if abs(cost - policy.ground_cost) > 1e-6:
        out.append(Violation(
            "ground-cost-mismatch", f"stated {policy.ground_cost}, assignments imply {cost}"))
    for c in schedule.connections:
        d1 = policy.ground_delays.get(c.predecessor)
        d2 = policy.ground_delays.get(c.successor)
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
    beta_s``, the robust part of the objective.
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
    dual_term = amb.radius * alpha + sum(
        p * beta[xi_hat] for xi_hat, p in amb.empirical.atoms())
    return DrDiagnostics(alpha, beta, costs, dual_term)
