import math
import random
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

import groundhold as gh
from groundhold import evaluate
from helpers import one_flight_schedule, two_flight_schedule


def second_stage_lp(arrivals, capacity, airborne_cost) -> float:
    """Independent oracle: the recourse block solved as an explicit LP."""
    m = gh.MilpModel()
    T = len(arrivals)
    y = [m.add_continuous(f"q{t}", cost=airborne_cost) for t in range(T)]
    for t in range(T):
        terms = [(y[t], -1.0)]
        if t >= 1:
            terms.append((y[t - 1], 1.0))
        m.add_row(terms, gh.SENSE_LE, capacity - arrivals[t])
    sol = gh.solve_lp(m.freeze())
    assert sol.status == "optimal"
    return sol.objective


class TestSecondStageCost:
    @pytest.mark.parametrize("arrivals,capacity,cost,expected", [
        ([3, 0, 2], 2, 1.0, 1.0),    # queue [1, 0, 0]
        ([1, 1, 1], 3, 1.0, 0.0),    # capacity never binds
        ([2], 0, 2.0, 4.0),          # queue [2]
        ([1, 1, 0], 0, 2.0, 10.0),   # queue [1, 2, 2]
    ])
    def test_known_recursions(self, arrivals, capacity, cost, expected):
        assert gh.second_stage_cost(arrivals, capacity, cost) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_lp_oracle(self, seed):
        rng = random.Random(seed)
        T = rng.randint(1, 6)
        arrivals = [rng.randint(0, 4) for _ in range(T)]
        capacity = rng.randint(0, 4)
        airborne = round(rng.uniform(0.5, 4.0), 2)
        closed_form = gh.second_stage_cost(arrivals, capacity, airborne)
        assert closed_form == pytest.approx(second_stage_lp(arrivals, capacity, airborne), abs=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=7), st.integers(0, 5))
    def test_monotone_in_capacity(self, arrivals, capacity):
        assert gh.second_stage_cost(arrivals, capacity + 1, 1.0) \
            <= gh.second_stage_cost(arrivals, capacity, 1.0)


class TestSampling:
    def test_singleton_distribution(self):
        dist = gh.CapacityDistribution((7,), (1.0,))
        assert gh.sample_capacities(dist, 5, seed=1) == (7,) * 5

    def test_seed_determinism(self):
        dist = gh.CapacityDistribution((0, 1, 3), (0.2, 0.3, 0.5))
        a = gh.sample_capacities(dist, 100, seed=42)
        b = gh.sample_capacities(dist, 100, seed=42)
        assert a == b
        assert a != gh.sample_capacities(dist, 100, seed=43)

    def test_prefix_property(self):
        dist = gh.CapacityDistribution((0, 1), (0.5, 0.5))
        assert gh.sample_capacities(dist, 10, seed=9) == gh.sample_capacities(dist, 50, seed=9)[:10]

    def test_binomial_concentration(self):
        dist = gh.CapacityDistribution((0, 1), (0.5, 0.5))
        draws = gh.sample_capacities(dist, 10 ** 5, seed=42)
        freq = sum(draws) / len(draws)
        assert abs(freq - 0.5) < 0.01

    def test_rejects_nonpositive_size(self):
        dist = gh.CapacityDistribution((1,), (1.0,))
        with pytest.raises(ValueError):
            gh.sample_capacities(dist, 0, seed=1)

    @staticmethod
    def stdlib_draw(dist, n, seed):
        """Reference draw: one ``random()`` and one ``bisect_left`` per sample."""
        rng = random.Random(seed)
        cumulative = list(accumulate(dist.probabilities))
        support = dist.support_points
        last = len(support) - 1
        return [support[min(bisect_left(cumulative, rng.random()), last)] for _ in range(n)]

    # weights like thirds leave cumulative probabilities that can end below 1,
    # so a uniform can fall past the last one and is clamped to the largest
    # capacity
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2 ** 70, 2 ** 70), n=st.integers(1, 20_000),
           atoms=st.dictionaries(st.integers(0, 60), st.integers(1, 9), min_size=1, max_size=6))
    @example(seed=-5, n=999, atoms={0: 1, 1: 1, 2: 1})
    @example(seed=2 ** 32 + 1, n=20_000, atoms={3: 2, 5: 7, 9: 1})
    @example(seed=2 ** 40 + 3, n=1, atoms={7: 1})
    def test_draw_matches_stdlib_loop(self, seed, n, atoms):
        total = sum(atoms.values())
        dist = gh.CapacityDistribution(tuple(atoms), tuple(w / total for w in atoms.values()))
        assert gh.sample_capacities(dist, n, seed) == tuple(self.stdlib_draw(dist, n, seed))


class TestEvaluatePolicy:
    def _delayed_policy(self):
        sched = two_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        return gh.extract_policy(model, gh.solve_milp(model), sched), sched

    def test_zero_delay_ample_capacity(self):
        sched = two_flight_schedule()
        policy = gh.GroundHoldingPolicy({"f1": 1, "f2": 1}, {"f1": 0, "f2": 0}, 0.0)
        ev = gh.evaluate_policy(policy, sched, [2, 3, 2])
        assert ev.mean == 0.0 and ev.std_dev == 0.0

    def test_single_sample_ground_only(self):
        policy, sched = self._delayed_policy()
        ev = gh.evaluate_policy(policy, sched, [1])
        assert ev.per_sample_costs == (1.0,)

    def test_zero_capacity_queues_to_horizon(self):
        # arrivals (1,1,0) against capacity 0: queue 1,2,2 -> airborne 10
        policy, sched = self._delayed_policy()
        ev = gh.evaluate_policy(policy, sched, [0])
        assert ev.per_sample_costs == (11.0,)

    def test_mismatched_policy_rejected(self):
        sched = two_flight_schedule()
        policy = gh.GroundHoldingPolicy({"f1": 1}, {"f1": 0}, 0.0)
        with pytest.raises(ValueError, match="missing-assignment"):
            gh.evaluate_policy(policy, sched, [1])

    def test_multi_airport_schedule_rejected(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(2),
            (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "B", 1, 1.0)), (), 2.0)
        policy = gh.GroundHoldingPolicy({"f1": 1, "f2": 1}, {"f1": 0, "f2": 0}, 0.0)
        with pytest.raises(ValueError, match="single-airport"):
            gh.evaluate_policy(policy, sched, [1])

    def test_evaluation_invariants(self):
        ev = gh.PolicyEvaluation((1.0, 3.0))
        assert ev.mean == 2.0 and ev.std_dev == 1.0 and ev.sample_size == 2

    def test_no_samples_rejected(self):
        policy, sched = self._delayed_policy()
        for evaluate in (lambda: gh.PolicyEvaluation(()), lambda: gh.evaluate_policy(policy, sched, [])):
            with pytest.raises(ValueError, match="need at least one sample"):
                evaluate()


def scored_sample_by_sample(policy, schedule, samples):
    """Reference scoring: one recursion per sample, stats by sums accumulated
    in sample order (the builtin ``sum`` of Python 3.12+ is compensated)."""
    costs = []
    for k in samples:
        arrivals = gh.arrivals_from_policy(policy, schedule)
        costs.append(policy.ground_cost + gh.second_stage_cost(arrivals, k, schedule.airborne_cost))
    total = 0.0
    for c in costs:
        total += c
    mean = total / len(costs)
    squares = 0.0
    for c in costs:
        squares += (c - mean) ** 2
    return tuple(costs), mean, math.sqrt(squares / len(costs))


@st.composite
def policies_with_repeated_samples(draw):
    """A random policy on a small schedule and a draw from 1-3 capacities."""
    T = draw(st.integers(1, 6))
    cost = st.floats(0.01, 9.0, allow_nan=False, allow_infinity=False)
    flights = tuple(gh.Flight(f"f{i}", "A", draw(st.integers(1, T)), draw(cost))
                    for i in range(draw(st.integers(1, 5))))
    schedule = gh.FlightSchedule(gh.TimeHorizon(T), flights, (), draw(cost))
    slots = {f.id: draw(st.integers(f.scheduled_arrival, T)) for f in flights}
    pool = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    samples = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=120))
    return gh.policy_from_assignments(slots, schedule), schedule, samples


class TestScoringMatchesSampleBySample:
    _schedule = two_flight_schedule(airborne_cost=0.7)

    @settings(max_examples=200, deadline=None)
    @given(policies_with_repeated_samples())
    @example((gh.policy_from_assignments({"f1": 1, "f2": 2}, _schedule), _schedule, [0] * 97))
    def test_bit_identical(self, case):
        policy, schedule, samples = case
        costs, mean, std_dev = scored_sample_by_sample(policy, schedule, samples)
        ev = gh.evaluate_policy(policy, schedule, samples)
        assert ev.per_sample_costs == costs
        assert ev.mean == mean
        assert ev.std_dev == std_dev
        assert ev.sample_size == len(samples)


class TestStatsSumInSampleOrder:
    def test_large_draw_matches_for_loop(self):
        # four capacities give four costs; over 20,000 samples the in-order
        # sum differs from an exact one, so the order of the sums is checked
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3), tuple(gh.Flight(f"f{i}", "A", 1, 1.3) for i in range(4)), (), 0.7)
        policy = gh.policy_from_assignments({"f0": 1, "f1": 1, "f2": 2, "f3": 3}, sched)
        dist = gh.CapacityDistribution((0, 1, 2, 3), (0.1, 0.2, 0.3, 0.4))
        samples = gh.sample_capacities(dist, 20_000, seed=11)
        costs, mean, std_dev = scored_sample_by_sample(policy, sched, samples)
        assert len(set(costs)) >= 3
        assert math.fsum(costs) / len(costs) != mean
        scored = gh.evaluate_policy(policy, sched, samples)
        assert scored.per_sample_costs.index is samples.index
        for ev in (scored, gh.evaluate_policy(policy, sched, list(samples)), gh.PolicyEvaluation(costs)):
            assert ev.per_sample_costs == costs
            assert (ev.mean, ev.std_dev) == (mean, std_dev)

    def test_sums_start_from_zero(self):
        # a for loop from 0.0 sums -0.0 costs to 0.0
        ev = gh.PolicyEvaluation((-0.0, -0.0))
        assert repr(ev.mean) == "0.0" and repr(ev.std_dev) == "0.0"


class TestExpectedPolicyCost:
    def test_worked_instance_hold_vs_land(self):
        sched = one_flight_schedule()  # airborne cost 2
        eval_dist = gh.CapacityDistribution((0, 1), (0.5, 0.5))
        hold = gh.GroundHoldingPolicy({"f1": 2}, {"f1": 1}, 1.0)
        land = gh.GroundHoldingPolicy({"f1": 1}, {"f1": 0}, 0.0)
        mean_hold, std_hold = gh.expected_policy_cost(hold, sched, eval_dist)
        mean_land, std_land = gh.expected_policy_cost(land, sched, eval_dist)
        # hold costs {1, 3}, land costs {4, 0}: equal means, steadier hold
        assert mean_hold == pytest.approx(2.0)
        assert mean_land == pytest.approx(2.0)
        assert std_hold == pytest.approx(1.0)
        assert std_land == pytest.approx(2.0)

    def test_sums_are_correctly_rounded(self):
        # flight i held i % 3 slots: the products added left to right give
        # 45.28999999999999, a compensated sum 45.29
        inst = gh.synth_instance(gh.SynthParams(num_flights=14, horizon=12), 11)
        sched = inst.schedule
        T = sched.horizon.num_slots
        policy = gh.policy_from_assignments(
            {f.id: min(T, f.scheduled_arrival + i % 3) for i, f in enumerate(sched.flights)}, sched)
        dist = inst.capacities[sched.airports[0]]
        mean, std_dev = gh.expected_policy_cost(policy, sched, dist)
        costs = [policy.ground_cost + gh.second_stage_cost(
            gh.arrivals_from_policy(policy, sched), k, sched.airborne_cost) for k in dist.support_points]
        assert mean == 45.29 == math.fsum(p * c for p, c in zip(dist.probabilities, costs))
        assert std_dev == math.sqrt(math.fsum(
            p * (c - mean) ** 2 for p, c in zip(dist.probabilities, costs)))


class TestDeterministicCapacity:
    @pytest.mark.parametrize("support,probs,expected", [
        ((1, 3), (0.5, 0.5), 2),      # mean 2.0
        ((1, 2), (0.5, 0.5), 2),      # mean 1.5 rounds half up
        ((0, 1), (0.9, 0.1), 0),      # mean 0.1
        ((28, 32), (0.5, 0.5), 30),
        ((1, 3, 4), (0.3, 0.6, 0.1), 3),  # mean 2.5; a left-to-right sum gives 2.4999999999999996
    ])
    def test_rounding(self, support, probs, expected):
        assert gh.deterministic_capacity(gh.CapacityDistribution(support, probs)) == expected


class TestEpsilonSweep:
    def _instance(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(4),
            (gh.Flight("f1", "A", 1, 1.3), gh.Flight("f2", "A", 1, 2.1),
             gh.Flight("f3", "A", 2, 0.8)),
            (),
            5.0,
        )
        empirical = gh.CapacityDistribution((1, 2), (0.4, 0.6))
        return sched, empirical

    def test_row_counting_contract(self):
        sched, empirical = self._instance()
        result = gh.epsilon_sweep(sched, empirical, [0.0, 0.5], empirical, [5, 10], seed=3)
        assert len(result.rows) == (2 + 2) * 2  # (det, sp, dr x2) x sizes
        labels = [(r.model, r.epsilon, r.sample_size) for r in result.rows]
        assert labels == [
            ("det", None, 5), ("det", None, 10),
            ("sp", None, 5), ("sp", None, 10),
            ("dr", 0.0, 5), ("dr", 0.0, 10),
            ("dr", 0.5, 5), ("dr", 0.5, 10),
        ]

    def test_radius_zero_row_matches_stochastic_row(self):
        sched, empirical = self._instance()
        result = gh.epsilon_sweep(sched, empirical, [0.0], empirical, [30], seed=11)
        by_model = {(r.model, r.epsilon): r for r in result.rows}
        sp = by_model["sp", None]
        dr = by_model["dr", 0.0]
        assert dr.mean_cost == pytest.approx(sp.mean_cost, abs=1e-6)

    def test_in_sample_stochastic_optimality_exact(self):
        sched, empirical = self._instance()
        result = gh.epsilon_sweep(sched, empirical, [0.0, 0.3, 1.0, 5.0], empirical, [5], seed=2)
        policies = {}
        for row in result.rows:
            assignments = dict(part.split("@") for part in row.policy_summary.split(";"))
            assignments = {fid: int(t) for fid, t in assignments.items()}
            delays = {f.id: assignments[f.id] - f.scheduled_arrival for f in sched.flights}
            cost = sum(f.ground_cost * delays[f.id] for f in sched.flights)
            policies[row.model, row.epsilon] = gh.GroundHoldingPolicy(assignments, delays, cost)
        means = {key: gh.expected_policy_cost(p, sched, empirical)[0]
                 for key, p in policies.items()}
        sp_mean = means["sp", None]
        assert all(sp_mean <= m + 1e-6 for m in means.values())

    def test_infeasible_model_annotates_row_and_continues(self):
        sched, _ = self._instance()
        # mean 0.1 rounds to deterministic capacity 0: det model is infeasible
        empirical = gh.CapacityDistribution((0, 1), (0.9, 0.1))
        result = gh.epsilon_sweep(sched, empirical, [0.0], empirical, [5], seed=1)
        by_model = {r.model: r for r in result.rows}
        assert by_model["det"].status == "infeasible"
        assert by_model["det"].mean_cost is None
        assert by_model["sp"].status == "optimal"
        assert by_model["dr"].status == "optimal"

    @staticmethod
    def _record_solves(monkeypatch):
        """``(model, root_basis, solution)`` of every solve the sweep makes."""
        solves = []
        solve_milp = evaluate.solve_milp

        def spy(model, **kwargs):
            sol = solve_milp(model, **kwargs)
            solves.append((model, kwargs.get("root_basis"), sol))
            return sol

        monkeypatch.setattr(evaluate, "solve_milp", spy)
        return solves

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_radius_chain_matches_cold_solves(self, seed, monkeypatch):
        # the robust models are solved in the given, unsorted radius order,
        # each root from the previous radius's root basis; each optimum is
        # a cold solve's, and a repeat gives the same rows
        inst = gh.synth_instance(gh.SynthParams(num_flights=14, horizon=12), seed)
        sched, empirical = inst.schedule, inst.capacities["AP0"]
        omegas = (10.0, 0.01, 0.75, 0.0)
        solves = self._record_solves(monkeypatch)
        result = gh.epsilon_sweep(sched, empirical, omegas, empirical, [20], seed=4)
        dr = solves[2:]
        assert [m.objective_coefficient(m.index.alpha[None]) for m, _, _ in dr] == list(omegas)
        assert dr[0][1] is None
        assert all(basis is prev.root_basis is not None
                   for (_, basis, _), (_, _, prev) in zip(dr[1:], dr))
        for model, _, sol in dr:
            cold = gh.solve_milp(model)
            assert sol.status == cold.status == "optimal"
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
        assert gh.epsilon_sweep(sched, empirical, omegas, empirical, [20], seed=4) == result

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repriced_chain_matches_fresh_builds(self, seed, monkeypatch):
        # the sweep builds one robust model and reprices it per radius; a
        # sweep whose radii are each built afresh gives the same result and
        # the same solves, node for node and pivot for pivot
        inst = gh.synth_instance(gh.SynthParams(num_flights=14, horizon=12), seed)
        sched, empirical = inst.schedule, inst.capacities["AP0"]
        omegas = (*gh.DEFAULT_OMEGA, 0.0)
        solves = self._record_solves(monkeypatch)
        result = gh.epsilon_sweep(sched, empirical, omegas, empirical, [20, 50], seed=4)
        repriced = [(sol.nodes, sol.pivots) for _, _, sol in solves]
        assert len({id(model.to_arrays().ptr) for model, _, _ in solves[2:]}) == 1

        fresh = []

        def build_afresh(model, amb):
            fresh.append(amb.radius)
            return gh.build_dr_saghp(sched, amb)

        monkeypatch.setattr(evaluate, "reprice_dr_saghp", build_afresh)
        solves.clear()
        assert gh.epsilon_sweep(sched, empirical, omegas, empirical, [20, 50], seed=4) == result
        assert fresh == list(omegas)
        assert [(sol.nodes, sol.pivots) for _, _, sol in solves] == repriced

    def test_chain_restarts_cold_after_a_root_without_basis(self, monkeypatch):
        # the infeasible det model of test_infeasible_model_annotates_row_and_continues
        # heads a chain: its root leaves no basis, so the next model starts cold
        sched, _ = self._instance()
        empirical = gh.CapacityDistribution((0, 1), (0.9, 0.1))
        grid = gh.default_support_grid(empirical)
        chain = [("det", None, gh.build_d_saghp(sched, gh.deterministic_capacity(empirical)))]
        chain += [("dr", eps, gh.build_dr_saghp(sched, gh.AmbiguitySpec(empirical, eps, grid)))
                  for eps in (0.0, 0.5)]
        solves = self._record_solves(monkeypatch)
        solved = evaluate._solve_chain(chain, sched, 100_000)
        assert [status for _, _, status, _ in solved] == ["infeasible", "optimal", "optimal"]
        assert solves[0][2].root_basis is None
        assert solves[1][1] is None
        assert solves[2][1] is solves[1][2].root_basis is not None

    def test_each_distinct_policy_scored_once_per_size(self, monkeypatch):
        # looked up as the module-level name, so a wrapper sees every scoring
        calls = []
        original = evaluate.evaluate_policy

        def counting(policy, schedule, samples):
            calls.append((policy.summary(), len(samples)))
            return original(policy, schedule, samples)

        monkeypatch.setattr(evaluate, "evaluate_policy", counting)
        sched, empirical = self._instance()
        result = gh.epsilon_sweep(sched, empirical, [0.0, 0.5, 2.0, 50.0], empirical, [7, 30], seed=5)
        scored = {}
        for r in result.rows:
            scored.setdefault((r.policy_summary, r.sample_size), set()).add(
                (r.per_sample_costs, r.mean_cost, r.std_dev))
        assert sorted(calls) == sorted(scored)
        assert len(calls) < len(result.rows)
        assert all(len(v) == 1 for v in scored.values())

    def test_table_is_stable(self):
        sched, empirical = self._instance()
        a = gh.epsilon_sweep(sched, empirical, [0.1], empirical, [4], seed=9).to_table()
        b = gh.epsilon_sweep(sched, empirical, [0.1], empirical, [4], seed=9).to_table()
        assert a == b
        assert a.startswith("# schema: ghp-sweep/1\n")

    def test_worked_instance_robust_policy_is_steadier(self):
        # radius 1 holds the flight (costs in {1, 3}); radius 0 lands it
        # (costs in {0, 4}); on shared samples the held policy's spread is
        # exactly half the landing policy's
        sched = one_flight_schedule()
        empirical = gh.CapacityDistribution((1,), (1.0,))
        eval_dist = gh.CapacityDistribution((0, 1), (0.5, 0.5))
        result = gh.epsilon_sweep(
            sched, empirical, [0.0, 0.4, 1.0], eval_dist, [40], seed=6,
            grid=gh.SupportGrid((0, 1)))
        rows = {(r.model, r.epsilon): r for r in result.rows}
        land = rows["dr", 0.0]
        hold = rows["dr", 1.0]
        assert set(land.per_sample_costs) == {0.0, 4.0}
        assert set(hold.per_sample_costs) == {1.0, 3.0}
        assert hold.std_dev == pytest.approx(land.std_dev / 2)
        assert hold.std_dev < land.std_dev
