import math
import random

import numpy as np
import pytest

import groundhold as gh
from closed_form import robust_term, slot_counts
from helpers import one_flight_ambiguity, one_flight_schedule, random_instance, two_flight_schedule


class TestDeterministicModel:
    def test_two_flights_one_slot_of_capacity(self):
        sol = gh.solve_milp(gh.build_d_saghp(two_flight_schedule(), 1))
        assert sol.objective == pytest.approx(1.0)

    def test_ample_capacity_means_zero_delay(self):
        sched = two_flight_schedule()
        model = gh.build_d_saghp(sched, len(sched.flights))
        sol = gh.solve_milp(model)
        assert sol.objective == pytest.approx(0.0)
        policy = gh.extract_policy(model, sol, sched)
        assert all(policy.assignments[f.id] == f.scheduled_arrival for f in sched.flights)

    def test_capacity_zero_is_infeasible(self):
        assert gh.solve_milp(gh.build_d_saghp(two_flight_schedule(), 0)).status == "infeasible"

    def test_rejects_invalid_schedule(self):
        sched = gh.FlightSchedule(gh.TimeHorizon(2), (gh.Flight("f1", "A", 0, 1.0),), (), 2.0)
        with pytest.raises(ValueError, match="slot-out-of-range"):
            gh.build_d_saghp(sched, 1)

    def test_coupling_forces_successor_delay(self):
        # f1 must be delayed (capacity); zero slack then forces f2 to follow
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3),
            (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0),
             gh.Flight("f3", "A", 1, 10.0)),
            (gh.ConnectionPair("f1", "f2", 0),),
            20.0,
        )
        model = gh.build_d_saghp(sched, 1)
        sol = gh.solve_milp(model)
        policy = gh.extract_policy(model, sol, sched)
        assert policy.ground_delays["f3"] == 0  # expensive flight lands on time
        d1, d2 = policy.ground_delays["f1"], policy.ground_delays["f2"]
        assert d1 <= d2
        assert gh.check_policy(policy, sched) == []


class TestCouplingRows:
    # a -> b has d = r_a - r_b + slack = -4, c -> e has d = +2
    SCHED = gh.FlightSchedule(
        gh.TimeHorizon(6),
        (gh.Flight("a", "A", 1, 1.0), gh.Flight("b", "A", 5, 1.0),
         gh.Flight("c", "A", 2, 1.0), gh.Flight("e", "A", 1, 1.0)),
        (gh.ConnectionPair("a", "b", 0), gh.ConnectionPair("c", "e", 1)),
        2.0,
    )

    @staticmethod
    def _couple_rows(model):
        return [con for con in model.constraints if con.name.startswith("couple")]

    def test_one_row_per_successor_slot_until_implied(self):
        assert [con.name for con in self._couple_rows(gh.build_d_saghp(self.SCHED, 4))] == [
            "couple[a,b,5]", "couple[a,b,6]",
            "couple[c,e,1]", "couple[c,e,2]", "couple[c,e,3]"]

    def test_rows_hold_exactly_for_connected_slot_pairs(self):
        model = gh.build_d_saghp(self.SCHED, 4)
        rows = self._couple_rows(model)
        by_id = self.SCHED.flight_by_id
        T = self.SCHED.horizon.num_slots
        for c in self.SCHED.connections:
            f1, f2 = by_id[c.predecessor], by_id[c.successor]
            for t1 in range(f1.scheduled_arrival, T + 1):
                for t2 in range(f2.scheduled_arrival, T + 1):
                    on = {model.index.x[f1.id, t1], model.index.x[f2.id, t2]}
                    lhs_ok = all(
                        sum(coef for j, coef in con.terms if j in on) <= con.rhs
                        for con in rows)
                    delay_ok = t1 - f1.scheduled_arrival - c.slack <= t2 - f2.scheduled_arrival
                    assert lhs_ok == delay_ok, (c, t1, t2)


class TestStochasticModel:
    def test_one_flight_half_half(self):
        # hold to t=2: ground 1 + 0.5 * airborne 3 = 2.5 beats landing now (3.0)
        sched = one_flight_schedule(airborne_cost=3.0)
        dist = gh.CapacityDistribution((0, 1), (0.5, 0.5))
        model = gh.build_s_saghp(sched, dist)
        sol = gh.solve_milp(model)
        assert sol.objective == pytest.approx(2.5)
        assert gh.extract_policy(model, sol, sched).assignments["f1"] == 2

    def test_degenerate_distribution_matches_deterministic(self):
        sched = two_flight_schedule()
        dist = gh.CapacityDistribution((1,), (1.0,))
        s_obj = gh.solve_milp(gh.build_s_saghp(sched, dist)).objective
        d_obj = gh.solve_milp(gh.build_d_saghp(sched, 1)).objective
        assert s_obj == pytest.approx(d_obj) == pytest.approx(1.0)

    def test_ample_support_means_zero_objective(self):
        sched = two_flight_schedule()
        dist = gh.CapacityDistribution((2, 3), (0.5, 0.5))
        assert gh.solve_milp(gh.build_s_saghp(sched, dist)).objective == pytest.approx(0.0)


class TestRobustModel:
    @pytest.mark.parametrize("eps,expected,slot", [
        (0.4, 1.6, 1),
        (0.5, 2.0, None),   # tie between landing and holding
        (1.0, 3.0, 2),
    ])
    def test_worked_instance(self, eps, expected, slot):
        sched = one_flight_schedule()
        model = gh.build_dr_saghp(sched, one_flight_ambiguity(eps))
        sol = gh.solve_milp(model)
        assert sol.objective == pytest.approx(expected)
        if slot is not None:
            assert gh.extract_policy(model, sol, sched).assignments["f1"] == slot

    def test_worked_instance_multipliers(self):
        sched = one_flight_schedule()
        amb = one_flight_ambiguity(0.4)
        model = gh.build_dr_saghp(sched, amb)
        sol = gh.solve_milp(model)
        diag = gh.dr_diagnostics(model, sol, amb, sched)
        assert diag.alpha == pytest.approx(4.0)
        assert diag.beta[1] == pytest.approx(0.0)
        assert diag.dual_term == pytest.approx(1.6)

    def test_radius_zero_collapses_to_stochastic(self):
        sched = one_flight_schedule()
        dr = gh.solve_milp(gh.build_dr_saghp(sched, one_flight_ambiguity(0.0)))
        sp = gh.solve_milp(gh.build_s_saghp(sched, gh.CapacityDistribution((1,), (1.0,))))
        assert dr.objective == pytest.approx(sp.objective) == pytest.approx(0.0)

    def test_dimension_formulas(self):
        rng = random.Random(2718)
        for _ in range(10):
            sched, dist = random_instance(rng)
            amb = gh.AmbiguitySpec(dist, 0.5, gh.default_support_grid(dist))
            model = gh.build_dr_saghp(sched, amb)
            T = sched.horizon.num_slots
            n_bin = sum(T - f.scheduled_arrival + 1 for f in sched.flights)
            n_grid = len(amb.grid)
            n_scen = amb.empirical.size
            assert sum(d.kind == gh.BINARY for d in model.variables) == n_bin
            assert sum(d.kind == gh.CONTINUOUS for d in model.variables) == n_grid * T + 1 + n_scen
            # one couple row per slot t of the successor with t + d < T,
            # d = r_pred - r_succ + slack
            n_couple = sum(
                max(0, min(T - sched.flight_by_id[c.successor].scheduled_arrival + 1,
                           T - sched.flight_by_id[c.predecessor].scheduled_arrival - c.slack))
                for c in sched.connections)
            expected_rows = n_grid * n_scen + len(sched.flights) + n_grid * T + n_couple
            assert model.num_constraints == expected_rows


class TestOrderingProperties:
    def test_epsilon_monotonicity(self):
        rng = random.Random(11)
        for _ in range(8):
            sched, dist = random_instance(rng)
            grid = gh.default_support_grid(dist)
            values = [
                gh.solve_milp(gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, eps, grid))).objective
                for eps in (0.0, 0.2, 0.7, 2.0)
            ]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-9

    def test_support_grid_monotonicity(self):
        rng = random.Random(13)
        for _ in range(8):
            sched, dist = random_instance(rng)
            small = gh.default_support_grid(dist)
            wide = gh.SupportGrid(tuple(sorted(set(small.values)
                                               | {max(0, min(small.values) - 1),
                                                  max(small.values) + 1})))
            v_small = gh.solve_milp(gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, 0.6, small))).objective
            v_wide = gh.solve_milp(gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, 0.6, wide))).objective
            assert v_small <= v_wide + 1e-9

    def test_stochastic_lower_bounds_robust(self):
        rng = random.Random(17)
        for _ in range(8):
            sched, dist = random_instance(rng)
            sp = gh.solve_milp(gh.build_s_saghp(sched, dist)).objective
            amb = gh.AmbiguitySpec(dist, rng.choice([0.0, 0.3, 1.0]), gh.default_support_grid(dist))
            dr = gh.solve_milp(gh.build_dr_saghp(sched, amb)).objective
            assert sp <= dr + 1e-9


def _two_airport_network(eps=0.4, connection=None):
    flights = (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "B", 1, 1.0))
    connections = (connection,) if connection else ()
    sched = gh.FlightSchedule(gh.TimeHorizon(2), flights, connections, 2.0)
    amb = one_flight_ambiguity(eps)
    return gh.NetworkInstance(("A", "B"), sched, {"A": amb, "B": amb})


class TestNetworkModel:
    def test_two_independent_airports_sum(self):
        sol = gh.solve_milp(gh.build_dr_maghp(_two_airport_network(0.4)))
        assert sol.objective == pytest.approx(3.2)  # 2 x 1.6

    def test_slack_beyond_horizon_never_binds(self):
        net = _two_airport_network(0.4, gh.ConnectionPair("f1", "f2", 5))
        assert gh.solve_milp(gh.build_dr_maghp(net)).objective == pytest.approx(3.2)

    def test_radius_zero_equals_stochastic_sum(self):
        net = _two_airport_network(0.0)
        maghp = gh.solve_milp(gh.build_dr_maghp(net)).objective
        dist = gh.CapacityDistribution((1,), (1.0,))
        single = gh.solve_milp(gh.build_s_saghp(one_flight_schedule(), dist)).objective
        assert maghp == pytest.approx(2 * single)

    def test_tight_cross_airport_coupling_binds(self):
        # force f1 late via airport-A capacity 0 in the worst case at a huge
        # radius; zero slack then drags f2 along
        emp = gh.CapacityDistribution((1,), (1.0,))
        amb_a = gh.AmbiguitySpec(emp, 10.0, gh.SupportGrid((0, 1)))
        amb_b = gh.AmbiguitySpec(emp, 0.0, gh.SupportGrid((1,)))
        flights = (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "B", 1, 1.0))
        sched = gh.FlightSchedule(gh.TimeHorizon(2), flights,
                                  (gh.ConnectionPair("f1", "f2", 0),), 2.0)
        net = gh.NetworkInstance(("A", "B"), sched, {"A": amb_a, "B": amb_b})
        model = gh.build_dr_maghp(net)
        sol = gh.solve_milp(model)
        policy = gh.extract_policy(model, sol, sched)
        assert policy.ground_delays["f1"] <= policy.ground_delays["f2"]
        assert gh.check_policy(policy, sched) == []


class TestExtractPolicy:
    def test_two_flight_assignment(self):
        sched = two_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        sol = gh.solve_milp(model)
        policy = gh.extract_policy(model, sol, sched)
        # the two unit-cost flights tie, so either one may take slot 1; the
        # policy must be the solution's own assignment
        assert sorted(policy.assignments.values()) == [1, 2]
        assert set(policy.assignments.items()) == {
            key for key, j in model.index.x.items() if sol.values[j] > 0.5}
        assert policy.ground_cost == pytest.approx(1.0)

    def test_zero_delay_policy(self):
        sched = two_flight_schedule()
        model = gh.build_d_saghp(sched, 2)
        policy = gh.extract_policy(model, gh.solve_milp(model), sched)
        assert policy.ground_delays == {"f1": 0, "f2": 0}
        assert policy.ground_cost == 0.0

    def test_corrupted_fractional_solution(self):
        sched = one_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        bad = gh.Solution("optimal", np.array([0.5, 0.5]), 0.5)
        with pytest.raises(gh.PolicyExtractionError, match="active slots"):
            gh.extract_policy(model, bad, sched)

    def test_non_optimal_solution_rejected(self):
        sched = one_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        with pytest.raises(ValueError, match="infeasible"):
            gh.extract_policy(model, gh.Solution("infeasible", None, math.inf), sched)

    def test_first_stage_cost_mismatch_detected(self):
        sched = one_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        # 0.6 clears the slot threshold but pays only 60% of the slot cost,
        # so the recomputed ground cost disagrees with the objective part
        bad = gh.Solution("optimal", np.array([0.0, 0.6]), 0.2)
        with pytest.raises(gh.PolicyExtractionError, match="disagrees"):
            gh.extract_policy(model, bad, sched)

    def test_consistent_integral_solution_extracts(self):
        sched = one_flight_schedule()
        model = gh.build_d_saghp(sched, 1)
        policy = gh.extract_policy(model, gh.Solution("optimal", np.array([0.0, 1.0]), 1.0), sched)
        assert policy.ground_cost == pytest.approx(1.0)

    def test_check_policy_flags_coupling(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3),
            (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0)),
            (gh.ConnectionPair("f1", "f2", 0),),
            2.0,
        )
        policy = gh.GroundHoldingPolicy({"f1": 3, "f2": 1}, {"f1": 2, "f2": 0}, 2.0)
        codes = [v.code for v in gh.check_policy(policy, sched)]
        assert codes == ["coupling-violated"]

    def test_check_policy_computes_delays_from_assignments(self):
        # the stated delays say nobody is held; the slots hold f1 two slots
        # past f2 with slack 0, which the policy built from them also reports
        sched = gh.FlightSchedule(
            gh.TimeHorizon(4),
            (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0)),
            (gh.ConnectionPair("f1", "f2", 0),),
            2.0,
        )
        slots = {"f1": 3, "f2": 1}
        stated = gh.GroundHoldingPolicy(slots, {"f1": 0, "f2": 0}, 2.0)
        codes = [v.code for v in gh.check_policy(stated, sched)]
        assert codes == ["ground-delay-mismatch", "coupling-violated"]
        derived = gh.policy_from_assignments(slots, sched)
        assert [v.code for v in gh.check_policy(derived, sched)] == ["coupling-violated"]
        with pytest.raises(ValueError, match="ground-delay-mismatch"):
            gh.evaluate_policy(stated, sched, [1])

    def test_check_policy_flags_window_and_cost(self):
        # f1 (r = 2) lands at slot 1, before its window; the stated cost
        # disagrees with the cost of the stated delays
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3), (gh.Flight("f1", "A", 2, 1.0), gh.Flight("f2", "A", 1, 1.5)), (), 2.0)
        early = gh.GroundHoldingPolicy({"f1": 1, "f2": 1}, {"f1": -1, "f2": 0}, -1.0)
        assert [v.code for v in gh.check_policy(early, sched)] == ["slot-out-of-window"]
        priced = gh.GroundHoldingPolicy({"f1": 2, "f2": 3}, {"f1": 0, "f2": 2}, 2.0)
        assert [v.code for v in gh.check_policy(priced, sched)] == ["ground-cost-mismatch"]

    def test_policy_summary_format(self):
        policy = gh.GroundHoldingPolicy({"f1": 1, "f2": 3}, {"f1": 0, "f2": 2}, 2.0)
        assert policy.summary() == "f1@1;f2@3"


class TestStrongDualityDiagnostics:
    @pytest.mark.parametrize("seed", range(12))
    def test_primal_dual_match_on_random_instances(self, seed):
        rng = random.Random(60_000 + seed)
        sched, dist = random_instance(rng)
        eps = rng.choice([0.0, 0.25, 0.8, 2.0])
        amb = gh.AmbiguitySpec(dist, eps, gh.default_support_grid(dist))
        model = gh.build_dr_saghp(sched, amb)
        sol = gh.solve_milp(model)
        if sol.status != "optimal":
            return
        diag = gh.dr_diagnostics(model, sol, amb, sched)
        plan, expected_cost = gh.worst_case_distribution(diag.second_stage_costs, amb)
        assert expected_cost == pytest.approx(diag.dual_term, abs=1e-6)
        dist_w = gh.wasserstein_distance(plan.marginal(), dist)
        assert dist_w <= eps + 1e-9
        policy = gh.extract_policy(model, sol, sched)
        arrivals = slot_counts(policy.assignments.values(), sched.horizon.num_slots)
        assert diag.dual_term == pytest.approx(robust_term(arrivals, amb, sched.airborne_cost), abs=1e-6)

    def test_needs_single_airport_robust_model(self):
        sched = one_flight_schedule()
        sp = gh.build_s_saghp(sched, gh.CapacityDistribution((1,), (1.0,)))
        maghp = gh.build_dr_maghp(_two_airport_network(0.4))
        amb = one_flight_ambiguity(0.4)
        for model in (sp, maghp):
            with pytest.raises(ValueError, match="single-airport robust model"):
                gh.dr_diagnostics(model, gh.solve_milp(model), amb, sched)


def _all_builders(rng):
    """One model from each builder on a random single-airport draw; the
    network splits the same flights over airports A and B."""
    sched, dist = random_instance(rng)
    amb = gh.AmbiguitySpec(dist, rng.choice([0.0, 0.5, 2.0]), gh.default_support_grid(dist))
    split = gh.FlightSchedule(
        sched.horizon,
        tuple(gh.Flight(f.id, "AB"[i % 2], f.scheduled_arrival, f.ground_cost)
              for i, f in enumerate(sched.flights)),
        sched.connections, sched.airborne_cost)
    net = gh.NetworkInstance(("A", "B"), split, {"A": amb, "B": amb})
    return sched, [gh.build_d_saghp(sched, rng.randint(0, 3)), gh.build_s_saghp(sched, dist),
                   gh.build_dr_saghp(sched, amb), gh.build_dr_maghp(net)]


class TestModelIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_index_agrees_with_names(self, seed):
        sched, models = _all_builders(random.Random(70_000 + seed))
        T = sched.horizon.num_slots
        for model in models:
            index = model.index
            names = [d.name for d in model.variables]
            expected: dict[int, str] = {j: f"x[{f},{t}]" for (f, t), j in index.x.items()}
            for (z, xi), columns in index.queues.items():
                assert len(columns) == T
                tag = xi if z is None else f"{z},{xi}"
                expected.update((j, f"y[{tag},{t}]") for t, j in enumerate(columns, 1))
            for z, j in index.alpha.items():
                expected[j] = "alpha" if z is None else f"alpha[{z}]"
            for (z, xi_hat), j in index.beta.items():
                expected[j] = f"beta[{xi_hat}]" if z is None else f"beta[{z},{xi_hat}]"
            # the index covers every column exactly once and names render its keys
            assert expected == dict(enumerate(names))
            binaries = {j for j, d in enumerate(model.variables) if d.kind == gh.BINARY}
            assert binaries == set(index.x.values())

    def test_refreezing_keeps_the_index(self):
        model = gh.build_d_saghp(two_flight_schedule(), 1)
        index = model.index
        assert model.freeze().index is index


class TestPolicyFromAssignments:
    def test_delays_and_cost_follow_schedule_order(self):
        sched = two_flight_schedule()
        policy = gh.policy_from_assignments({"f2": 3, "f1": 1}, sched)
        assert list(policy.assignments) == ["f1", "f2"]
        assert policy.ground_delays == {"f1": 0, "f2": 2}
        assert policy.ground_cost == pytest.approx(2.0)