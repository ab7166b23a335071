"""Shared instance factories for the test suite."""

from __future__ import annotations

import math
import random

import groundhold as gh


def one_flight_schedule(airborne_cost: float = 2.0) -> gh.FlightSchedule:
    """The hand-checked single-flight instance: r=1, T=2, C_f=1."""
    return gh.FlightSchedule(
        gh.TimeHorizon(2),
        (gh.Flight("f1", "A", 1, 1.0),),
        (),
        airborne_cost,
    )


def one_flight_ambiguity(epsilon: float) -> gh.AmbiguitySpec:
    """Point mass at capacity 1 with grid {0, 1}."""
    return gh.AmbiguitySpec(
        gh.CapacityDistribution((1,), (1.0,)),
        epsilon,
        gh.SupportGrid((0, 1)),
    )


def two_flight_schedule(horizon: int = 3, airborne_cost: float = 2.0) -> gh.FlightSchedule:
    """Two unit-cost flights both scheduled at slot 1."""
    return gh.FlightSchedule(
        gh.TimeHorizon(horizon),
        (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0)),
        (),
        airborne_cost,
    )


def random_instance(
    rng: random.Random,
    max_flights: int = 4,
    max_slots: int = 6,
    max_atoms: int = 3,
    connect_prob: float = 0.4,
) -> tuple[gh.FlightSchedule, gh.CapacityDistribution]:
    """Small random single-airport instance with generic (tie-free) costs."""
    T = rng.randint(2, max_slots)
    nf = rng.randint(1, max_flights)
    flights = tuple(
        gh.Flight(f"f{i}", "A", rng.randint(1, T), round(rng.uniform(0.5, 3.0), 2))
        for i in range(nf)
    )
    connections = []
    if nf >= 2 and rng.random() < connect_prob:
        i, j = rng.sample(range(nf), 2)
        connections.append(gh.ConnectionPair(f"f{i}", f"f{j}", rng.randint(0, 2)))
    schedule = gh.FlightSchedule(
        gh.TimeHorizon(T), flights, tuple(connections), round(rng.uniform(3.0, 6.0), 2))

    n_atoms = rng.randint(1, max_atoms)
    support = tuple(sorted(rng.sample(range(0, 5), n_atoms)))
    counts = [rng.randint(1, 5) for _ in support]
    total = sum(counts)
    dist = gh.CapacityDistribution(support, tuple(c / total for c in counts))
    return schedule, dist


def random_distribution(rng: random.Random, max_atoms: int = 4, span: int = 9) -> gh.CapacityDistribution:
    n = rng.randint(1, max_atoms)
    values = rng.sample(range(span + 1), n)
    counts = [rng.randint(1, 5) for _ in values]
    total = sum(counts)
    return gh.CapacityDistribution(tuple(values), tuple(c / total for c in counts))


def split_network(
    rng: random.Random,
    schedule: gh.FlightSchedule,
    dist: gh.CapacityDistribution,
) -> gh.NetworkInstance:
    """``schedule``'s flights spread over airports A and B; A keeps ``dist``,
    B draws its own distribution, and each draws its own radius."""
    flights = tuple(gh.Flight(f.id, rng.choice("AB"), f.scheduled_arrival, f.ground_cost)
                    for f in schedule.flights)
    split = gh.FlightSchedule(schedule.horizon, flights, schedule.connections, schedule.airborne_cost)
    ambiguities = {}
    for z, d in (("A", dist), ("B", random_distribution(rng, span=4))):
        ambiguities[z] = gh.AmbiguitySpec(d, rng.choice([0.0, 0.3, 1.0]), gh.default_support_grid(d))
    return gh.NetworkInstance(("A", "B"), split, ambiguities)


def synth_dr_maghp(num_flights: int, horizon: int, seed: int, epsilon: float = 0.5) -> gh.MilpModel:
    """dr-MAGHP on a two-airport ``synth_instance``, every airport at radius
    ``epsilon`` on its default grid, as ``solve --model dr-maghp`` builds it."""
    inst = gh.synth_instance(gh.SynthParams(num_flights=num_flights, horizon=horizon, num_airports=2), seed)
    return gh.build_dr_maghp(gh.NetworkInstance(inst.schedule.airports, inst.schedule, {
        z: gh.AmbiguitySpec(d, epsilon, gh.default_support_grid(d)) for z, d in inst.capacities.items()}))


def lp_model(c, rows, bounds, offset=0.0):
    """Assemble a continuous model from (terms, sense, rhs) rows."""
    m = gh.MilpModel()
    refs = [m.add_continuous(f"v{j}", lo, up) for j, (lo, up) in enumerate(bounds)]
    for j, coef in enumerate(c):
        if coef:
            m.add_objective_term(refs[j], coef)
    m.add_objective_offset(offset)
    for terms, sense, rhs in rows:
        m.add_row([(refs[j], coef) for j, coef in terms], sense, rhs)
    return m.freeze()


def sparse_lp(rng: random.Random, n: int, density: float):
    """A random LP with ``n`` columns, about ``density`` of its entries
    nonzero, some columns empty, and rows that hold at a point of the box."""
    m = rng.randint(n // 4, n // 2)
    c, bounds = [], []
    for _ in range(n):
        # a column unbounded one way costs nothing to hold back that way
        kind = rng.random()
        if kind < 0.75:
            c.append(round(rng.uniform(-2, 2), 3))
            bounds.append((round(rng.uniform(-1, 0), 3), round(rng.uniform(1, 4), 3)))
        elif kind < 0.9:
            c.append(round(rng.uniform(0, 2), 3))
            bounds.append((0.0, math.inf))
        else:
            c.append(round(rng.uniform(-2, 0), 3))
            bounds.append((-math.inf, round(rng.uniform(0, 3), 3)))
    point = [lo if math.isfinite(lo) else up for lo, up in bounds]
    rows = []
    for _ in range(m):
        terms = [(j, round(rng.uniform(-2, 2), 3)) for j in range(n) if rng.random() < density]
        lhs = sum(point[j] * v for j, v in terms)
        sense = rng.choice([gh.SENSE_LE, gh.SENSE_LE, gh.SENSE_GE, gh.SENSE_EQ])
        slack = round(rng.uniform(0, 2), 3)
        rhs = lhs + slack if sense == gh.SENSE_LE else lhs - slack if sense == gh.SENSE_GE else lhs
        rows.append((terms, sense, round(rhs, 9)))
    return c, rows, bounds
