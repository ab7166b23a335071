"""Out-of-sample policy evaluation and radius-sweep orchestration.

The second stage has a closed form: with a fixed landing plan, the cheapest
airborne-queue response to a realized capacity is the greedy recursion
``y_t = max(0, y_{t-1} + arrivals_t - capacity)``, so policies are scored
without invoking the LP engine.  A policy's cost depends on the sample only
through the capacity, so each policy is priced once per distinct capacity in
the draw, and a sweep scores each distinct policy once per sample size.  The
per-sample costs, their mean and their std dev are read from that
per-capacity table through the draw's index, with numpy arrays; every sum
runs over the samples in order, so every float, and every byte of sweep
output, is what a per-sample loop on Python 3.11 gives, on every supported
Python version.  A sweep builds one robust model and reprices it per radius,
so its rows and column storage are built once.  All sampling flows from an
explicit seed; identical seeds give identical results at any parallelism.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .domain import (
    AmbiguitySpec,
    CapacityDistribution,
    FlightSchedule,
    SupportGrid,
    default_support_grid,
)
from .milp import MilpModel
from .models import (
    GroundHoldingPolicy,
    build_d_saghp,
    build_dr_saghp,
    build_s_saghp,
    check_policy,
    extract_policy,
    reprice_dr_saghp,
)
from .solver import solve_milp

__all__ = [
    "IndexedTuple",
    "PolicyEvaluation",
    "SweepRow",
    "SweepResult",
    "DEFAULT_OMEGA",
    "second_stage_cost",
    "arrivals_from_policy",
    "sample_capacities",
    "evaluate_policy",
    "expected_policy_cost",
    "deterministic_capacity",
    "epsilon_sweep",
]

# Default candidate radii for sweep experiments.
DEFAULT_OMEGA = (0.01, 0.1, 0.7, 0.74, 0.75, 0.80, 1.0, 10.0, 100.0)


def second_stage_cost(arrivals_per_slot: Sequence[int], capacity: int, airborne_cost: float) -> float:
    """Optimal airborne holding cost for one realized capacity.

    ``y_0 = 0`` and ``y_t = max(0, y_{t-1} + arrivals_t - capacity)``; the
    cost is ``airborne_cost * sum_t y_t``.  Equals the optimal value of the
    second-stage LP (exceeding arrivals queue and land as capacity frees up).
    """
    queue = 0
    held = 0
    for arrivals in arrivals_per_slot:
        queue = max(0, queue + arrivals - capacity)
        held += queue
    return float(airborne_cost) * held


def arrivals_from_policy(policy: GroundHoldingPolicy, schedule: FlightSchedule) -> list[int]:
    """Planned arrivals per slot under the policy's assignments."""
    counts = [0] * schedule.horizon.num_slots
    for f in schedule.flights:
        counts[policy.assignments[f.id] - 1] += 1
    return counts


def sample_capacities(dist: CapacityDistribution, n: int, seed: int) -> IndexedTuple:
    """``n`` i.i.d. draws by inverse CDF over a seeded generator.

    The uniforms are those of ``n`` calls of ``random.Random(seed).random()``
    (the stdlib Mersenne Twister, whose stream is stable across Python
    versions, so a seed pins the samples forever), drawn at once: the
    generator's 32-bit words come from ``randbytes`` in the order it makes
    them, and each pair ``a, b`` gives ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``
    exactly as ``random()`` builds its double.  ``searchsorted`` on the
    cumulative probabilities then picks each sample's support point, as
    ``bisect_left`` would; the draw keeps the support as its table and those
    picks as its index.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    words = np.frombuffer(random.Random(seed).randbytes(8 * n), dtype="<u4")
    uniforms = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
    index = np.searchsorted(list(accumulate(dist.probabilities)), uniforms)
    return IndexedTuple.from_table(dist.support_points, np.minimum(index, dist.size - 1))


class IndexedTuple(tuple):
    """A tuple whose ``i``-th entry is ``table[index[i]]``, made by
    ``from_table``: a draw of capacities, or the per-sample costs of a policy
    on one.

    Entries that share a table slot are one object, and the table and the
    read-only index travel with the tuple, so scoring, statistics and the
    CLI's sample files work once per table entry instead of once per sample.
    """

    table: tuple
    index: np.ndarray

    @classmethod
    def from_table(cls, table: Sequence, index: np.ndarray) -> IndexedTuple:
        """The tuple ``table[index]``; ``index`` is kept, not copied, and
        made read-only, since every tuple read through it shares it."""
        entries = cls(np.array(table, dtype=object)[index].tolist())
        entries.table = tuple(table)
        entries.index = index
        index.flags.writeable = False
        return entries


@dataclass(frozen=True)
class PolicyEvaluation:
    """Per-sample total costs, at least one, with their mean and population
    std dev, computed once, from the costs, when the evaluation is made.

    ``per_sample_costs`` is kept as an ``IndexedTuple`` of floats; any other
    sequence of numbers becomes one with a table entry per sample.
    """

    per_sample_costs: tuple[float, ...]
    mean: float = field(init=False)
    std_dev: float = field(init=False)
    sample_size: int = field(init=False)

    def __post_init__(self) -> None:
        costs = self.per_sample_costs
        if not isinstance(costs, IndexedTuple):
            table = tuple(map(float, costs))
            costs = IndexedTuple.from_table(table, np.arange(len(table)))
        if not costs:
            raise ValueError("need at least one sample")
        mean, std_dev = _mean_std(costs.table, costs.index)
        for name, value in (("per_sample_costs", costs), ("mean", mean), ("std_dev", std_dev),
                            ("sample_size", len(costs))):
            object.__setattr__(self, name, value)


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added left to right.

    ``cumsum`` adds in order, unlike ``np.sum`` (pairwise) and the builtin
    ``sum`` of Python 3.12+ (compensated); the final ``+ 0.0`` is the start
    value, which turns an all ``-0.0`` sum into ``0.0``.
    """
    return float(np.cumsum(values)[-1]) + 0.0


def _mean_std(table: Sequence[float], index: np.ndarray) -> tuple[float, float]:
    """Mean and population std dev of the costs ``table[index]``.

    Each squared deviation is computed once per table entry with Python's
    ``(c - mean) ** 2`` (numpy's ``x * x`` can differ in the last bit); both
    sums run over the samples in order, so the result is bit for bit that of
    a ``for`` loop accumulating ``c`` and then ``(c - mean) ** 2`` over the
    samples, on every Python version.
    """
    n = len(index)
    mean = _sum_in_order(np.array(table)[index]) / n
    squares = np.array([(c - mean) ** 2 for c in table])
    return mean, math.sqrt(_sum_in_order(squares[index]) / n)


def _distinct(samples: Sequence[int]) -> tuple[list, np.ndarray]:
    """The distinct values of ``samples`` in ascending order, as Python
    numbers, and each sample's position among them."""
    samples = np.asarray(samples)
    values = np.sort(samples)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    values = values[keep]
    return values.tolist(), np.searchsorted(values, samples)


def _costs_by_capacity(
    policy: GroundHoldingPolicy,
    schedule: FlightSchedule,
    capacities: Iterable[int],
) -> list[float]:
    """Total cost (ground + airborne) of the policy at each capacity given."""
    arrivals = arrivals_from_policy(policy, schedule)
    return [policy.ground_cost + second_stage_cost(arrivals, k, schedule.airborne_cost)
            for k in capacities]


def _require_single_airport(schedule: FlightSchedule) -> None:
    if len(schedule.airports) > 1:
        raise ValueError("evaluation against a scalar capacity needs a single-airport schedule")


def evaluate_policy(
    policy: GroundHoldingPolicy,
    schedule: FlightSchedule,
    samples: Sequence[int],
) -> PolicyEvaluation:
    """Total cost (ground + airborne) of a fixed policy on sampled capacities.

    The cost is computed once per table entry of a draw from
    ``sample_capacities``, or once per distinct capacity of any other
    sequence; the per-sample costs are that cost table read through the
    samples' index, in sample order, and share the draw's index.
    """
    _require_single_airport(schedule)
    problems = check_policy(policy, schedule)
    if problems:
        raise ValueError("policy does not fit schedule: " + "; ".join(str(v) for v in problems))
    if isinstance(samples, IndexedTuple):
        capacities, index = samples.table, samples.index
    else:
        capacities, index = _distinct(samples)
    costs = _costs_by_capacity(policy, schedule, capacities)
    return PolicyEvaluation(IndexedTuple.from_table(costs, index))


def expected_policy_cost(
    policy: GroundHoldingPolicy,
    schedule: FlightSchedule,
    dist: CapacityDistribution,
) -> tuple[float, float]:
    """Exact in-distribution mean and std dev of the policy's total cost.

    Enumerates the support instead of sampling, so comparisons against model
    optima carry no Monte Carlo noise.
    """
    _require_single_airport(schedule)
    costs = _costs_by_capacity(policy, schedule, dist.support_points)
    mean = sum(p * c for p, c in zip(dist.probabilities, costs))
    var = sum(p * (c - mean) ** 2 for p, c in zip(dist.probabilities, costs))
    return mean, math.sqrt(var)


def deterministic_capacity(dist: CapacityDistribution) -> int:
    """Probability-weighted mean capacity, rounded half up to an integer."""
    return int(math.floor(dist.mean() + 0.5))


@dataclass(frozen=True)
class SweepRow:
    """One (model, epsilon, sample size) cell of a sweep."""

    model: str                    # det | sp | dr
    epsilon: float | None
    sample_size: int
    status: str
    mean_cost: float | None
    std_dev: float | None
    policy_summary: str
    per_sample_costs: tuple[float, ...] = ()

    def label(self) -> str:
        return self.model if self.epsilon is None else f"{self.model}_eps{self.epsilon!r}"


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep, in deterministic (model, epsilon, size) order."""

    rows: tuple[SweepRow, ...]

    def to_table(self) -> str:
        """Line-oriented CSV rendering, stable byte-for-byte across runs."""
        lines = ["# schema: ghp-sweep/1",
                 "model,epsilon,sample_size,status,mean_cost,std_dev,policy"]
        for r in self.rows:
            eps = "" if r.epsilon is None else repr(float(r.epsilon))
            mean = "" if r.mean_cost is None else repr(float(r.mean_cost))
            std = "" if r.std_dev is None else repr(float(r.std_dev))
            lines.append(f"{r.model},{eps},{r.sample_size},{r.status},{mean},{std},{r.policy_summary}")
        return "\n".join(lines) + "\n"


def _solve_chain(chain, schedule, node_limit):
    """Solve ``(name, eps, model)`` cells in order and read their policies.

    The models of one chain share ``A``, ``b`` and the bounds, so each root
    LP starts from the previous cell's optimal root basis, which is still
    primal feasible under the new cost; after a root with no basis the next
    starts cold.
    """
    solved = []
    basis = None
    for name, eps, model in chain:
        sol = solve_milp(model, node_limit=node_limit, root_basis=basis)
        basis = sol.root_basis
        policy = extract_policy(model, sol, schedule) if sol.status == "optimal" else None
        solved.append((name, eps, sol.status, policy))
    return solved


def epsilon_sweep(
    schedule: FlightSchedule,
    empirical: CapacityDistribution,
    omegas: Sequence[float],
    eval_dist: CapacityDistribution,
    sample_sizes: Sequence[int],
    seed: int,
    *,
    grid: SupportGrid | None = None,
    node_limit: int = 100_000,
    jobs: int = 1,
) -> SweepResult:
    """Solve det/sp/dr models once each and score them out of sample.

    The deterministic model uses the rounded mean empirical capacity; one
    robust model is solved per radius in ``omegas``.  Every policy is
    evaluated on the same ``sample_capacities(eval_dist, n, seed)`` draw per
    sample size.  Radii often share a policy, so each distinct policy is
    scored once per sample size and its rows share that ``PolicyEvaluation``;
    within a scoring, each distinct capacity is costed once.  The rows are
    identical to scoring every row on its own.  A solve that ends without an
    optimum (infeasible or ``node_limit`` reached) annotates its rows with
    that status and the sweep continues; an error raised by a solve or by
    policy extraction (``NumericalInstabilityError``,
    ``PolicyExtractionError``) ends the sweep.

    Every radius (``AmbiguitySpec``) and sample size is checked before
    anything is solved.
    The robust models differ only in the cost of ``alpha`` (the radius), so
    one is built, and each radius gets a sibling repriced from it
    (``reprice_dr_saghp``) that shares its rows and column storage; the
    siblings equal fresh ``build_dr_saghp`` models bit for bit.  They are
    solved as one chain in the order of ``omegas``: each root LP starts from
    the previous radius's optimal root basis, and only the primal simplex
    runs.  The chain's start can select another of several tied optima than
    a cold solve would; the optimal values are the same.
    ``jobs`` (at least 1) fans the three independent tasks (det, sp and the
    robust chain) out over a thread pool; each task is a pure function of its
    inputs and results merge in request order, so the output is identical at
    any setting.
    """
    if not omegas:
        raise ValueError("omega grid must be nonempty")
    if node_limit < 1:
        raise ValueError("node_limit must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not sample_sizes:
        raise ValueError("need at least one sample size")
    if any(n < 1 for n in sample_sizes):
        raise ValueError("sample size must be >= 1")
    grid = grid or default_support_grid(empirical)

    specs = [AmbiguitySpec(empirical, float(eps), grid) for eps in omegas]
    robust = build_dr_saghp(schedule, specs[0])
    chains: list[list[tuple[str, float | None, MilpModel]]] = [
        [("det", None, build_d_saghp(schedule, deterministic_capacity(empirical)))],
        [("sp", None, build_s_saghp(schedule, empirical))],
        [("dr", spec.radius, reprice_dr_saghp(robust, spec)) for spec in specs],
    ]

    def run(chain):
        return _solve_chain(chain, schedule, node_limit)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            solved = [cell for cells in pool.map(run, chains) for cell in cells]
    else:
        solved = [cell for chain in chains for cell in run(chain)]

    samples_by_size = {n: sample_capacities(eval_dist, n, seed) for n in sample_sizes}
    evaluations: dict[tuple[str, int], PolicyEvaluation] = {}
    rows: list[SweepRow] = []
    for model_name, eps, status, policy in solved:
        for n in sample_sizes:
            if policy is None:
                rows.append(SweepRow(model_name, eps, n, status, None, None, ""))
                continue
            summary = policy.summary()
            ev = evaluations.get((summary, n))
            if ev is None:
                ev = evaluations[summary, n] = evaluate_policy(policy, schedule, samples_by_size[n])
            rows.append(SweepRow(
                model_name, eps, n, status, ev.mean, ev.std_dev,
                summary, ev.per_sample_costs,
            ))
    return SweepResult(tuple(rows))
