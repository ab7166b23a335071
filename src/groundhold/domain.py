"""Problem-instance types shared by every ground holding model builder.

Time is a discrete slot index ``1..T`` (slot duration is a data-preparation
concern, not a model concern).  Airport capacities are nonnegative integers,
flights per slot.  All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

__all__ = [
    "PROBABILITY_TOL",
    "TimeHorizon",
    "Flight",
    "ConnectionPair",
    "FlightSchedule",
    "CapacityDistribution",
    "SupportGrid",
    "AmbiguitySpec",
    "NetworkInstance",
    "Violation",
    "validate_schedule",
    "default_support_grid",
]

# Probabilities must sum to one within this absolute tolerance.
PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class TimeHorizon:
    """Planning horizon of ``num_slots`` arrival slots, indexed ``1..num_slots``."""

    num_slots: int

    def __post_init__(self) -> None:
        if not isinstance(self.num_slots, int) or isinstance(self.num_slots, bool):
            raise ValueError(f"num_slots must be an integer, got {self.num_slots!r}")
        if self.num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {self.num_slots}")

    def slots(self) -> range:
        """All slot indices ``1..T``."""
        return range(1, self.num_slots + 1)


@dataclass(frozen=True)
class Flight:
    """A single arrival with its scheduled slot and per-slot ground hold cost.

    Construction is permissive: cross-field invariants (slot in range, cost
    nonnegative, id uniqueness) are reported by :func:`validate_schedule`
    rather than raised here, so that malformed input files can be diagnosed
    in full.
    """

    id: str
    airport: str
    scheduled_arrival: int
    ground_cost: float


@dataclass(frozen=True)
class ConnectionPair:
    """Connected flight pair: the predecessor may absorb up to ``slack`` slots
    of ground delay without delaying the successor."""

    predecessor: str
    successor: str
    slack: int


@dataclass(frozen=True)
class FlightSchedule:
    """An arrival schedule over a common horizon.

    ``airborne_cost`` is the per-slot, per-flight cost of airborne holding,
    conventionally larger than every ground cost (unit airborne delay is the
    expensive recourse).  The convention is not enforced; models accept any
    nonnegative value.
    """

    horizon: TimeHorizon
    flights: tuple[Flight, ...]
    connections: tuple[ConnectionPair, ...] = ()
    airborne_cost: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "flights", tuple(self.flights))
        object.__setattr__(self, "connections", tuple(self.connections))

    @cached_property
    def flight_by_id(self) -> dict[str, Flight]:
        return {f.id: f for f in self.flights}

    @cached_property
    def airports(self) -> tuple[str, ...]:
        """Distinct airports in first-appearance order."""
        seen: dict[str, None] = {}
        for f in self.flights:
            seen.setdefault(f.airport, None)
        return tuple(seen)

    def available_slots(self, flight: Flight) -> range:
        """Slots a flight may be assigned to: ``r_f .. T``."""
        return range(flight.scheduled_arrival, self.horizon.num_slots + 1)


@dataclass(frozen=True)
class CapacityDistribution:
    """Finite-support capacity distribution (the empirical distribution).

    Atoms are canonicalized to ascending support order at construction, so
    scenario index ``s`` always refers to the ``s``-th smallest capacity.
    """

    support_points: tuple[int, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(self.support_points)
        probs = tuple(float(p) for p in self.probabilities)
        if len(support) != len(probs):
            raise ValueError("support_points and probabilities must have equal length")
        if len(support) == 0:
            raise ValueError("distribution needs at least one support point")
        for v in support:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"capacity values must be nonnegative integers, got {v!r}")
        if len(set(support)) != len(support):
            raise ValueError("support points must be distinct")
        if any(p <= 0.0 for p in probs):
            raise ValueError("every probability must be strictly positive")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        order = sorted(range(len(support)), key=lambda i: support[i])
        object.__setattr__(self, "support_points", tuple(support[i] for i in order))
        object.__setattr__(self, "probabilities", tuple(probs[i] for i in order))

    @property
    def size(self) -> int:
        return len(self.support_points)

    def mean(self) -> float:
        """``sum_s p_s * v_s``, the products added by ``math.fsum`` (correctly
        rounded), so the same float on every Python version: the builtin
        ``sum`` of floats is compensated only since 3.12."""
        return math.fsum(v * p for v, p in zip(self.support_points, self.probabilities))

    def atoms(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.support_points, self.probabilities))


@dataclass(frozen=True)
class SupportGrid:
    """Discretized capacity support: the finite set of values the worst-case
    distribution may place mass on."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ValueError("support grid must be nonempty")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"grid values must be nonnegative integers, got {v!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", values)

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AmbiguitySpec:
    """Wasserstein ball description: empirical distribution, radius and grid.

    The empirical support must lie inside the grid; this makes the radius-zero
    model coincide exactly with the stochastic program on the empirical
    distribution.
    """

    empirical: CapacityDistribution
    radius: float
    grid: SupportGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", float(self.radius))
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be a finite number, got {self.radius}")
        if self.radius < 0.0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        missing = [v for v in self.empirical.support_points if v not in self.grid]
        if missing:
            raise ValueError(f"empirical support not contained in grid: {missing}")


@dataclass(frozen=True)
class NetworkInstance:
    """Multi-airport instance: shared schedule plus one ambiguity set per airport."""

    airports: tuple[str, ...]
    schedule: FlightSchedule
    ambiguities: Mapping[str, AmbiguitySpec]

    def __post_init__(self) -> None:
        airports = tuple(self.airports)
        object.__setattr__(self, "airports", airports)
        object.__setattr__(self, "ambiguities", dict(self.ambiguities))
        if len(set(airports)) != len(airports):
            raise ValueError("airport ids must be unique")
        for f in self.schedule.flights:
            if f.airport not in airports:
                raise ValueError(f"flight {f.id!r} arrives at unknown airport {f.airport!r}")
        for z in airports:
            if z not in self.ambiguities:
                raise ValueError(f"airport {z!r} has no ambiguity spec")


@dataclass(frozen=True)
class Violation:
    """One schedule-invariant violation with a machine-readable code."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _cost_code(value, what: str) -> str | None:
    """Violation code for a cost that is not a finite nonnegative number."""
    try:
        cost = float(value)
    except OverflowError:  # an int beyond the float range
        return f"non-finite-{what}"
    except (TypeError, ValueError):
        return f"negative-{what}"
    if not math.isfinite(cost):
        return f"non-finite-{what}"
    return f"negative-{what}" if cost < 0.0 else None


def validate_schedule(schedule: FlightSchedule) -> list[Violation]:
    """Check every schedule invariant, returning all violations found.

    Validation is total: any constructed ``FlightSchedule`` yields a list,
    never an exception.  An empty list means the schedule is valid.
    """
    out: list[Violation] = []
    T = schedule.horizon.num_slots

    seen: set[str] = set()
    for f in schedule.flights:
        if f.id in seen:
            out.append(Violation("duplicate-flight-id", f"flight id {f.id!r} appears more than once"))
        seen.add(f.id)
        r = f.scheduled_arrival
        if not isinstance(r, int) or isinstance(r, bool) or r < 1 or r > T:
            out.append(Violation(
                "slot-out-of-range",
                f"flight {f.id!r} scheduled_arrival {r!r} outside 1..{T}",
            ))
        code = _cost_code(f.ground_cost, "ground-cost")
        if code:
            out.append(Violation(code, f"flight {f.id!r} ground_cost {f.ground_cost!r}"))

    code = _cost_code(schedule.airborne_cost, "airborne-cost")
    if code:
        out.append(Violation(code, f"airborne_cost {schedule.airborne_cost!r}"))

    ids = {f.id for f in schedule.flights}
    for c in schedule.connections:
        if c.predecessor == c.successor:
            out.append(Violation("self-connection", f"connection {c.predecessor!r} -> itself"))
        for fid in (c.predecessor, c.successor):
            if fid not in ids:
                out.append(Violation("dangling-connection", f"connection references unknown flight {fid!r}"))
        if not isinstance(c.slack, int) or isinstance(c.slack, bool) or c.slack < 0:
            out.append(Violation(
                "negative-slack",
                f"connection {c.predecessor!r} -> {c.successor!r} slack {c.slack!r}",
            ))
    return out


def default_support_grid(dist: CapacityDistribution) -> SupportGrid:
    """Grid from the minimum to the maximum observed capacity, step one flight.

    Always contains the empirical support, so the result is directly usable
    in an :class:`AmbiguitySpec`.
    """
    lo = min(dist.support_points)
    hi = max(dist.support_points)
    return SupportGrid(tuple(range(lo, hi + 1)))
