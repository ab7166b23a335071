"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute.  Criteria marked with randomized instances use fixed seeds, so the
suite is deterministic end to end.
"""

import random
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import groundhold as gh
from closed_form import brute_force, robust_term, slot_counts
from helpers import one_flight_ambiguity, one_flight_schedule, random_instance, split_network


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {tag} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def radius_zero_runs():
    """50 randomized sp / dr(0) solve pairs, shared by criteria 1 and 2."""
    rng = random.Random(11_000)
    runs = []
    t0 = time.perf_counter()
    produced = 0
    while produced < 50:
        sched, dist = random_instance(rng, max_flights=4, max_slots=6, max_atoms=3)
        sp = gh.solve_milp(gh.build_s_saghp(sched, dist))
        amb = gh.AmbiguitySpec(dist, 0.0, gh.default_support_grid(dist))
        model = gh.build_dr_saghp(sched, amb)
        dr = gh.solve_milp(model)
        runs.append((sched, dist, amb, model, sp, dr))
        produced += 1
    return runs, time.perf_counter() - t0


def test_criterion_1_radius_zero_equivalence(radius_zero_runs):
    runs, elapsed = radius_zero_runs
    worst = 0.0
    ok = True
    for sched, dist, amb, model, sp, dr in runs:
        if sp.status != dr.status:
            ok = False
            break
        if sp.status == "optimal":
            worst = max(worst, abs(sp.objective - dr.objective))
    ok = ok and worst <= 1e-6 and elapsed < 30.0
    _report(1, "dr(eps=0) equals sp on 50 random instances",
            ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_strong_duality(radius_zero_runs):
    runs, _ = radius_zero_runs
    cases = [(sched, amb, model, dr) for sched, _, amb, model, _, dr in runs]
    sched = one_flight_schedule()
    amb = one_flight_ambiguity(0.4)
    model = gh.build_dr_saghp(sched, amb)
    cases.append((sched, amb, model, gh.solve_milp(model)))

    worst_gap = 0.0
    worst_closed = 0.0
    worst_excess = 0.0
    checked = 0
    for sched, amb, model, sol in cases:
        if sol.status != "optimal":
            continue
        diag = gh.dr_diagnostics(model, sol, amb, sched)
        plan, expected_cost = gh.worst_case_distribution(diag.second_stage_costs, amb)
        worst_gap = max(worst_gap, abs(expected_cost - diag.dual_term))
        policy = gh.extract_policy(model, sol, sched)
        arrivals = slot_counts(policy.assignments.values(), sched.horizon.num_slots)
        closed = robust_term(arrivals, amb, sched.airborne_cost)
        worst_closed = max(worst_closed, abs(closed - diag.dual_term))
        distance = gh.wasserstein_distance(plan.marginal(), amb.empirical)
        worst_excess = max(worst_excess, distance - amb.radius)
        checked += 1
    ok = checked >= 40 and worst_gap <= 1e-6 and worst_closed <= 1e-6 and worst_excess <= 1e-9
    _report(2, "worst-case expected cost and closed-form dual both equal eps*alpha + sum p*beta, "
               "marginal in ball",
            ok, f"{checked} solves, gap {worst_gap:.2e}, closed-form gap {worst_closed:.2e}, "
                f"ball excess {worst_excess:.2e}")


def test_criterion_3_support_monotonicity():
    rng = random.Random(12_000)
    worst = -1.0
    for _ in range(20):
        sched, dist = random_instance(rng, max_flights=4, max_slots=6, max_atoms=3)
        inner = gh.default_support_grid(dist)
        outer = gh.SupportGrid(tuple(sorted(
            set(inner.values) | {max(0, min(inner.values) - 1), max(inner.values) + 1,
                                 max(inner.values) + 2})))
        eps = rng.choice([0.2, 0.6, 1.5])
        v_inner = gh.solve_milp(gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, eps, inner))).objective
        v_outer = gh.solve_milp(gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, eps, outer))).objective
        worst = max(worst, v_inner - v_outer)
    ok = worst <= 1e-9
    _report(3, "nested grids: dr optimum(inner) <= dr optimum(outer) on 20 instances",
            ok, f"worst excess {worst:.2e}")


def _fixed_instance():
    inst = gh.synth_instance(
        gh.SynthParams(num_flights=6, horizon=6, capacity_range=(1, 4),
                       connection_density=0.3),
        seed=0,
    )
    airport = inst.schedule.airports[0]
    return inst.schedule, inst.capacities[airport]


def test_criterion_4_radius_monotonicity_and_in_sample_ordering():
    schedule, empirical = _fixed_instance()
    omegas = [0.0, 0.1, 0.5, 1.0, 10.0]
    grid = gh.default_support_grid(empirical)

    objectives = []
    policies = {}
    for eps in omegas:
        model = gh.build_dr_saghp(schedule, gh.AmbiguitySpec(empirical, eps, grid))
        sol = gh.solve_milp(model)
        objectives.append(sol.objective)
        policies["dr", eps] = gh.extract_policy(model, sol, schedule)
    monotone = all(a <= b + 1e-9 for a, b in zip(objectives, objectives[1:]))

    sp_model = gh.build_s_saghp(schedule, empirical)
    policies["sp", None] = gh.extract_policy(sp_model, gh.solve_milp(sp_model), schedule)
    det_model = gh.build_d_saghp(schedule, gh.deterministic_capacity(empirical))
    policies["det", None] = gh.extract_policy(det_model, gh.solve_milp(det_model), schedule)

    means = {key: gh.expected_policy_cost(policy, schedule, empirical)[0]
             for key, policy in policies.items()}
    sp_mean = means["sp", None]
    sp_minimal = all(sp_mean <= mean + 1e-6 for mean in means.values())

    _report(4, "dr optimum nondecreasing in radius; sp policy minimal in sample",
            monotone and sp_minimal,
            f"objectives {[round(v, 4) for v in objectives]}, sp mean {sp_mean:.4f}")


def _second_stage_lp(arrivals, capacity, airborne_cost) -> float:
    # y_{t-1} - y_t <= capacity - a_t, y >= 0, minimizing C_h sum_t y_t
    T = len(arrivals)
    A = -np.eye(T) + np.eye(T, k=-1)
    b = capacity - np.asarray(arrivals, dtype=float)
    res = linprog(np.full(T, airborne_cost), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(13_000)
    worst_obj = 0.0
    ok = True
    kinds = set()
    for _ in range(100):
        kind = rng.choice(["det", "sp", "dr", "dr-maghp"])
        sched, dist = random_instance(rng, max_flights=3, max_slots=4, max_atoms=3)
        if kind == "det":
            inputs = rng.randint(0, 4)
            model = gh.build_d_saghp(sched, inputs)
        elif kind == "sp":
            inputs = dist
            model = gh.build_s_saghp(sched, dist)
        elif kind == "dr":
            inputs = gh.AmbiguitySpec(dist, rng.choice([0.0, 0.3, 1.0]),
                                      gh.default_support_grid(dist))
            model = gh.build_dr_saghp(sched, inputs)
        else:
            net = split_network(rng, sched, dist)
            sched, inputs, model = net.schedule, net.ambiguities, gh.build_dr_maghp(net)
        bb = gh.solve_milp(model)
        objective, assignments = brute_force(sched, kind, inputs)
        if bb.status != ("optimal" if assignments else "infeasible"):
            ok = False
            break
        if bb.status == "optimal":
            worst_obj = max(worst_obj, abs(bb.objective - objective))
            kinds.add(kind)

    worst_ss = 0.0
    for _ in range(200):
        T = rng.randint(1, 6)
        arrivals = [rng.randint(0, 4) for _ in range(T)]
        capacity = rng.randint(0, 4)
        airborne = round(rng.uniform(0.5, 4.0), 2)
        closed = gh.second_stage_cost(arrivals, capacity, airborne)
        worst_ss = max(worst_ss, abs(closed - _second_stage_lp(arrivals, capacity, airborne)))

    ok = ok and len(kinds) == 4 and worst_obj <= 1e-6 and worst_ss <= 1e-7
    _report(5, "solve_milp matches the closed-form brute force (100x, four models); "
               "closed-form second stage matches LP (200x)",
            ok, f"worst milp gap {worst_obj:.2e}, worst recourse gap {worst_ss:.2e}")


def test_criterion_6_worked_example_exactness():
    t0 = time.perf_counter()
    sched = one_flight_schedule()
    results = {}
    for eps in (0.4, 0.5, 1.0):
        model = gh.build_dr_saghp(sched, one_flight_ambiguity(eps))
        sol = gh.solve_milp(model)
        results[eps] = (sol.objective, gh.extract_policy(model, sol, sched).assignments["f1"])
    elapsed = time.perf_counter() - t0
    ok = (
        abs(results[0.4][0] - 1.6) <= 1e-6 and results[0.4][1] == 1
        and abs(results[0.5][0] - 2.0) <= 1e-6
        and abs(results[1.0][0] - 3.0) <= 1e-6 and results[1.0][1] == 2
        and elapsed < 1.0
    )
    _report(6, "worked instance: 1.6 @ 0.4 (land), 2.0 @ 0.5, 3.0 @ 1.0 (hold)",
            ok, f"{elapsed * 1000:.0f} ms")


def _shift_down(dist: gh.CapacityDistribution, frac=0.5, shift=2) -> gh.CapacityDistribution:
    mass: dict[int, float] = {}
    for v, p in dist.atoms():
        low = max(0, v - shift)
        mass[low] = mass.get(low, 0.0) + p * frac
        mass[v] = mass.get(v, 0.0) + p * (1 - frac)
    items = sorted((v, p) for v, p in mass.items() if p > 0.0)
    return gh.CapacityDistribution(tuple(v for v, _ in items), tuple(p for _, p in items))


def test_criterion_7_out_of_sample_robustness():
    schedule, empirical = _fixed_instance()
    eval_dist = _shift_down(empirical)
    result = gh.epsilon_sweep(
        schedule, empirical, list(gh.DEFAULT_OMEGA), eval_dist, [100], seed=777)
    rows = {(r.model, r.epsilon): r for r in result.rows}
    sp = rows["sp", None]
    winners = [eps for (model, eps), r in rows.items()
               if model == "dr" and r.status == "optimal"
               and r.mean_cost <= sp.mean_cost + 1e-9
               and r.std_dev <= sp.std_dev + 1e-9]
    ok = sp.status == "optimal" and bool(winners)
    _report(7, "some dr radius beats sp on mean and std under a shifted distribution",
            ok, f"sp mean {sp.mean_cost:.2f}/std {sp.std_dev:.2f}, winning radii {winners}")


def test_criterion_8_network_separability():
    rng = random.Random(14_000)
    worst = 0.0
    for k in range(10):
        inst = gh.synth_instance(
            gh.SynthParams(num_flights=4, horizon=5, num_airports=2,
                           connection_density=0.0),
            seed=500 + k,
        )
        eps = rng.choice([0.0, 0.3, 0.8])
        ambiguities = {z: gh.AmbiguitySpec(dist, eps, gh.default_support_grid(dist))
                       for z, dist in inst.capacities.items()}
        net = gh.NetworkInstance(inst.schedule.airports, inst.schedule, ambiguities)
        whole = gh.solve_milp(gh.build_dr_maghp(net)).objective

        parts = 0.0
        for z in inst.schedule.airports:
            sub = gh.FlightSchedule(
                inst.schedule.horizon,
                tuple(f for f in inst.schedule.flights if f.airport == z),
                (),
                inst.schedule.airborne_cost,
            )
            parts += gh.solve_milp(gh.build_dr_saghp(sub, ambiguities[z])).objective
        worst = max(worst, abs(whole - parts))
    ok = worst <= 1e-6
    _report(8, "dr-maghp equals the sum of per-airport dr-saghp on 10 instances",
            ok, f"worst gap {worst:.2e}")


def test_criterion_9_sweep_determinism(tmp_path):
    from groundhold.cli import main

    bundle = tmp_path / "inst"
    assert main(["gen", "--flights", "5", "--horizon", "6", "--seed", "21",
                 "--out", str(bundle)]) == 0
    args = ["sweep", str(bundle), "--omega", "0,0.5,1,10", "--sizes", "20,50",
            "--seed", "99"]
    outputs = []
    for run, jobs in (("r1", "1"), ("r2", "1"), ("r3", "4"), ("r4", "8")):
        out = tmp_path / run
        assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = all(run == outputs[0] for run in outputs[1:])
    _report(9, "sweep output byte-identical across repeats and --jobs settings",
            ok, f"{len(outputs[0])} files compared across {len(outputs)} runs")
