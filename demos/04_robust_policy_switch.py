"""The hand-checkable robust instance: one flight, two slots, radius sweep.

One flight may land now (free if capacity shows up, expensive queue if not)
or hold one slot on the ground (cost 1, halves the queue exposure).  The
empirical distribution says capacity 1 with certainty; the ambiguity ball
lets an adversary move mass toward capacity 0 at one unit of budget per unit
of mass.  At small radii landing now wins; at radius 1/2 the two policies
tie; beyond it the model hedges and holds.

Every solve is verified against the recovered worst-case distribution: the
robust objective term must equal the worst expected cost inside the ball
(the zero primal-dual gap the duality argument promises).
"""

import groundhold as gh

schedule = gh.FlightSchedule(
    gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, 1.0),), (), airborne_cost=2.0)
empirical = gh.CapacityDistribution((1,), (1.0,))
grid = gh.SupportGrid((0, 1))

print(f"{'radius':>7} {'objective':>10} {'lands at':>9} {'alpha':>6} {'beta':>6} "
      f"{'worst case':>22} {'dual gap':>9}")
for eps in (0.0, 0.2, 0.4, 0.5, 0.6, 1.0, 2.0):
    amb = gh.AmbiguitySpec(empirical, eps, grid)
    model = gh.build_dr_saghp(schedule, amb)
    sol = gh.solve_milp(model)
    policy = gh.extract_policy(model, sol, schedule)
    diag = gh.dr_diagnostics(model, sol, amb, schedule)
    plan, worst_cost = gh.worst_case_distribution(diag.second_stage_costs, amb)
    marginal = {v: round(p, 2) for v, p in plan.marginal().atoms()}
    gap = abs(worst_cost - diag.dual_term)
    print(f"{eps:>7} {sol.objective:>10.3f} {policy.assignments['f1']:>9} "
          f"{diag.alpha:>6.2f} {diag.beta[1]:>6.2f} {str(marginal):>22} {gap:>9.1e}")

print("\nthe switch happens at radius 0.5: 1 + 2*eps (hold) crosses 4*eps (land).")
