"""Instance I/O: schedules, capacity histories and synthetic generators.

File formats are plain comma-separated text with explicit headers:

* schedule file     - ``flight_id,airport,scheduled_arrival_slot,ground_cost``
* connections file  - ``pred_id,succ_id,slack_slots``
* capacity history  - ``slot,airport,throughput``
* parameters file   - JSON with ``num_slots`` and ``airborne_cost``

An instance bundle is a directory holding ``schedule.csv``, ``params.json``
and optionally ``connections.csv`` and ``capacity.csv``.  Observed throughput
stands in for capacity, as in operational practice; this is a known
underestimate during slack periods.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .domain import (
    CapacityDistribution,
    ConnectionPair,
    Flight,
    FlightSchedule,
    TimeHorizon,
    validate_schedule,
)

__all__ = [
    "IngestError",
    "CapacityHistoryRecord",
    "SynthParams",
    "Instance",
    "parse_schedule",
    "serialize_schedule",
    "parse_capacity_history",
    "serialize_capacity_history",
    "empirical_distribution",
    "throughput_from_arrivals",
    "synth_instance",
    "write_instance",
    "load_instance",
]

SCHEDULE_HEADER = "flight_id,airport,scheduled_arrival_slot,ground_cost"
CONNECTIONS_HEADER = "pred_id,succ_id,slack_slots"
CAPACITY_HEADER = "slot,airport,throughput"
PARAMS_SCHEMA = "ghp-instance/1"

# synthetic generator: airborne cost per slot as a multiple of the largest
# ground cost, and the largest connection slack drawn
_AIRBORNE_FACTOR = 2.0
_MAX_SLACK = 2


class IngestError(ValueError):
    """Malformed input file; the message names the file and the offending line or field."""


@dataclass(frozen=True)
class CapacityHistoryRecord:
    """One observed throughput value for one airport and slot."""

    slot_label: str
    airport: str
    throughput: int

    def __post_init__(self) -> None:
        if self.throughput < 0:
            raise ValueError(f"throughput must be nonnegative, got {self.throughput}")


def _rows(text: str, header: str, what: str) -> list[tuple[int, list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise IngestError(f"{what}: expected header {header!r}")
    out = []
    ncols = len(header.split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != ncols:
            raise IngestError(f"{what} line {lineno}: expected {ncols} columns, got {len(cells)}")
        out.append((lineno, cells))
    return out


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise IngestError(f"{what} line {lineno}: {text!r} is not an integer") from None


def _parse_float(text: str, what: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestError(f"{what} line {lineno}: {text!r} is not a number") from None


def parse_schedule(
    schedule_text: str,
    connections_text: str | None = None,
    *,
    horizon: int,
    airborne_cost: float,
) -> FlightSchedule:
    """Parse and validate a schedule file plus optional connections file.

    ``horizon`` and ``airborne_cost`` come from the bundle's parameters file.
    """
    flights = []
    for lineno, (fid, airport, slot, cost) in _rows(schedule_text, SCHEDULE_HEADER, "schedule"):
        flights.append(Flight(
            fid, airport,
            _parse_int(slot, "schedule", lineno),
            _parse_float(cost, "schedule", lineno),
        ))
    if not flights:
        raise IngestError("schedule: no flights")

    connections = []
    if connections_text:
        for lineno, (pred, succ, slack) in _rows(connections_text, CONNECTIONS_HEADER, "connections"):
            connections.append(ConnectionPair(pred, succ, _parse_int(slack, "connections", lineno)))

    schedule = FlightSchedule(TimeHorizon(horizon), tuple(flights), tuple(connections), airborne_cost)
    violations = validate_schedule(schedule)
    if violations:
        raise IngestError("schedule invalid: " + "; ".join(str(v) for v in violations))
    return schedule


def serialize_schedule(schedule: FlightSchedule) -> tuple[str, str]:
    """Schedule and connections back to file text; inverse of parsing."""
    lines = [SCHEDULE_HEADER]
    for f in schedule.flights:
        lines.append(f"{f.id},{f.airport},{f.scheduled_arrival},{f.ground_cost!r}")
    conn = [CONNECTIONS_HEADER]
    for c in schedule.connections:
        conn.append(f"{c.predecessor},{c.successor},{c.slack}")
    return "\n".join(lines) + "\n", "\n".join(conn) + "\n"


def parse_capacity_history(text: str) -> list[CapacityHistoryRecord]:
    records = []
    for lineno, (slot, airport, throughput) in _rows(text, CAPACITY_HEADER, "capacity"):
        value = _parse_int(throughput, "capacity", lineno)
        if value < 0:
            raise IngestError(f"capacity line {lineno}: negative throughput {value}")
        records.append(CapacityHistoryRecord(slot, airport, value))
    return records


def serialize_capacity_history(records: Iterable[CapacityHistoryRecord]) -> str:
    lines = [CAPACITY_HEADER]
    for r in records:
        lines.append(f"{r.slot_label},{r.airport},{r.throughput}")
    return "\n".join(lines) + "\n"


def empirical_distribution(records: Sequence[CapacityHistoryRecord], airport: str) -> CapacityDistribution:
    """Frequency distribution of one airport's observed throughputs."""
    counts: dict[int, int] = {}
    for r in records:
        if r.airport == airport:
            counts[r.throughput] = counts.get(r.throughput, 0) + 1
    if not counts:
        raise IngestError(f"no capacity records for airport {airport!r}")
    total = sum(counts.values())
    support = tuple(sorted(counts))
    return CapacityDistribution(support, tuple(counts[v] / total for v in support))


def throughput_from_arrivals(
    arrival_times: Sequence[str],
    airport: str,
    slot_minutes: int = 15,
) -> list[CapacityHistoryRecord]:
    """Bin ``HH:MM`` arrival timestamps into per-slot throughput counts.

    Slot width is configurable (15/30/60 minutes are the usual choices);
    slots with no arrivals inside the observed span count as zero
    throughput.
    """
    if slot_minutes < 1 or 24 * 60 % slot_minutes != 0:
        raise ValueError("slot_minutes must divide a day")
    minutes = []
    for text in arrival_times:
        try:
            hh, mm = text.strip().split(":")
            minute = int(hh) * 60 + int(mm)
        except ValueError:
            raise IngestError(f"bad timestamp {text!r}, expected HH:MM") from None
        if not 0 <= minute < 24 * 60:
            raise IngestError(f"timestamp {text!r} outside 00:00..23:59")
        minutes.append(minute)
    if not minutes:
        return []
    first = min(minutes) // slot_minutes
    last = max(minutes) // slot_minutes
    counts = {slot: 0 for slot in range(first, last + 1)}
    for minute in minutes:
        counts[minute // slot_minutes] += 1
    return [CapacityHistoryRecord(str(slot), airport, counts[slot]) for slot in sorted(counts)]


@dataclass(frozen=True)
class SynthParams:
    """Bounds for the synthetic generator; defaults give a desk-scale instance."""

    num_flights: int = 6
    horizon: int = 8
    ground_cost_range: tuple[float, float] = (1.0, 5.0)
    capacity_range: tuple[int, int] = (1, 4)
    support_size: int = 3
    connection_density: float = 0.15
    num_airports: int = 1

    def __post_init__(self) -> None:
        if self.num_flights < 1 or self.num_flights > 200:
            raise ValueError("num_flights must be in 1..200")
        if self.horizon < 1 or self.horizon > 500:
            raise ValueError("horizon must be in 1..500")
        lo, hi = self.ground_cost_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("ground_cost_range must be finite")
        if lo < 0 or hi < lo:
            raise ValueError("ground_cost_range must be 0 <= lo <= hi")
        klo, khi = self.capacity_range
        if klo < 0 or khi < klo:
            raise ValueError("capacity_range must be 0 <= lo <= hi")
        if khi < 1:
            raise ValueError("maximum capacity must be at least 1")
        if self.support_size < 1 or self.support_size > khi - klo + 1:
            raise ValueError("support_size must fit inside capacity_range")
        if not 0.0 <= self.connection_density <= 1.0:
            raise ValueError("connection_density must be in [0, 1]")
        if self.num_airports < 1 or self.num_airports > 30:
            raise ValueError("num_airports must be in 1..30")
        per_airport = -(-self.num_flights // self.num_airports)  # ceil
        if per_airport > self.horizon * khi:
            raise ValueError("flights exceed horizon x max capacity; instance would be infeasible")


@dataclass(frozen=True)
class Instance:
    """A loaded or generated bundle: schedule, per-airport capacity history
    records, and the empirical distributions counted from them once, when
    the instance is made, for each airport with records."""

    schedule: FlightSchedule
    history: dict[str, list[CapacityHistoryRecord]]
    capacities: dict[str, CapacityDistribution] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacities", {
            z: empirical_distribution(records, z) for z, records in self.history.items() if records})


def synth_instance(params: SynthParams, seed: int) -> Instance:
    """Deterministic synthetic instance for a seed.

    Scheduled arrivals are packed so per-slot demand never exceeds the
    airport's maximum support capacity, so the zero-delay assignment is
    always feasible under the most optimistic capacity (connections have
    nonnegative slack and cannot break it).
    """
    rng = random.Random(seed)
    airports = [f"AP{i}" for i in range(params.num_airports)]
    klo, khi = params.capacity_range
    clo, chi = params.ground_cost_range

    # empirical distribution per airport from integer observation counts, so
    # a written capacity.csv reproduces the distribution exactly
    history: dict[str, list[CapacityHistoryRecord]] = {}
    max_cap: dict[str, int] = {}
    for z in airports:
        # the top support value is pinned to the range maximum so the packed
        # schedule below is feasible under the most optimistic capacity
        if params.support_size > 1:
            support = sorted(rng.sample(range(klo, khi), params.support_size - 1)) + [khi]
        else:
            support = [khi]
        records: list[CapacityHistoryRecord] = []
        slot = 0
        for value in support:
            for _ in range(rng.randint(1, 6)):
                records.append(CapacityHistoryRecord(str(slot), z, value))
                slot += 1
        history[z] = records
        max_cap[z] = support[-1]

    flights: list[Flight] = []
    used: dict[tuple[str, int], int] = {}
    for i in range(params.num_flights):
        z = airports[i % len(airports)]
        while True:
            t = rng.randint(1, params.horizon)
            if used.get((z, t), 0) < max_cap[z]:
                used[z, t] = used.get((z, t), 0) + 1
                break
        cost = round(rng.uniform(clo, chi), 2)
        flights.append(Flight(f"f{i + 1}", z, t, cost))

    connections: list[ConnectionPair] = []
    for i, f1 in enumerate(flights):
        for f2 in flights[i + 1:]:
            if rng.random() < params.connection_density:
                connections.append(ConnectionPair(f1.id, f2.id, rng.randint(0, _MAX_SLACK)))

    airborne = round(max(f.ground_cost for f in flights) * _AIRBORNE_FACTOR, 2)
    schedule = FlightSchedule(
        TimeHorizon(params.horizon), tuple(flights), tuple(connections), airborne)
    violations = validate_schedule(schedule)
    if violations:  # pragma: no cover - generator postcondition
        raise RuntimeError("generator produced an invalid schedule: "
                           + "; ".join(str(v) for v in violations))
    return Instance(schedule, history)


def write_instance(path: str | Path, schedule: FlightSchedule,
                   history: dict[str, list[CapacityHistoryRecord]]) -> None:
    """Write a bundle directory (schedule, connections, capacity, params)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    sched_text, conn_text = serialize_schedule(schedule)
    (path / "schedule.csv").write_text(sched_text)
    (path / "connections.csv").write_text(conn_text)
    all_records = [r for z in sorted(history) for r in history[z]]
    (path / "capacity.csv").write_text(serialize_capacity_history(all_records))
    params = {
        "schema": PARAMS_SCHEMA,
        "num_slots": schedule.horizon.num_slots,
        "airborne_cost": schedule.airborne_cost,
    }
    (path / "params.json").write_text(json.dumps(params, indent=2, sort_keys=True) + "\n")


def json_number(value, kind: type, what: str):
    """``kind(value)`` for a JSON number read from a document: an ``int`` or a
    ``float``, never a string or a boolean, and a whole one for ``kind`` int
    (``4.0`` reads as 4); ``what`` names it in the ``IngestError`` raised for
    anything else."""
    # int() and float() would parse "8" and "3.5", and float() read true as 1.0
    if not isinstance(value, (int, float)) or (isinstance(value, bool) and kind is float):
        raise IngestError(f"{what} {value!r} is not a number")
    try:
        parsed = kind(value)
    except (OverflowError, ValueError):
        raise IngestError(f"{what} {value!r} is not a number") from None
    # int() would truncate 8.9 to 8 and read true as 1
    if kind is int and (isinstance(value, bool) or parsed != value):
        raise IngestError(f"{what} {value!r} is not a whole number")
    return parsed


def _param(params: dict, key: str, kind: type):
    if key not in params:
        raise IngestError(f"params.json: missing {key!r}")
    return json_number(params[key], kind, f"params.json: {key}")


def load_instance(path: str | Path) -> Instance:
    """Read a bundle directory back into validated domain objects."""
    path = Path(path)
    try:
        params = json.loads((path / "params.json").read_text())
        schedule_text = (path / "schedule.csv").read_text()
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read instance bundle at {path}: {exc}") from None
    if not isinstance(params, dict):
        raise IngestError(f"params.json: expected a JSON object, got {type(params).__name__}")
    if params.get("schema") != PARAMS_SCHEMA:
        raise IngestError(f"unknown params schema {params.get('schema')!r}")

    connections_text = None
    conn_path = path / "connections.csv"
    if conn_path.exists():
        connections_text = conn_path.read_text()
    schedule = parse_schedule(
        schedule_text, connections_text,
        horizon=_param(params, "num_slots", int),
        airborne_cost=_param(params, "airborne_cost", float),
    )

    history: dict[str, list[CapacityHistoryRecord]] = {}
    cap_path = path / "capacity.csv"
    if cap_path.exists():
        records = parse_capacity_history(cap_path.read_text())
        history = {z: [r for r in records if r.airport == z] for z in schedule.airports}
    return Instance(schedule, history)
