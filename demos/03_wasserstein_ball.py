"""Wasserstein geometry: distances, balls and worst-case distributions.

The ambiguity set is a ball of distributions within transport distance
epsilon of the empirical one.  Given the cost a policy pays at each capacity
value, the worst member of the ball has a closed form: price the transport
budget at the smallest alpha that makes it suffice, send each empirical atom
to a capacity that maximizes cost minus alpha times distance, and move
probability mass toward the expensive capacities until the budget runs out.
At most one atom is split.
"""

import groundhold as gh

empirical = gh.CapacityDistribution((30, 32), (0.5, 0.5))
shifted = gh.CapacityDistribution((28, 30), (0.5, 0.5))
point = gh.CapacityDistribution((31,), (1.0,))

print("transport distances (flights of capacity moved):")
print(f"  d(empirical, shifted 2 down) = {gh.wasserstein_distance(empirical, shifted):.3f}")
print(f"  d(empirical, point mass 31)  = {gh.wasserstein_distance(empirical, point):.3f}")
print(f"  d(empirical, empirical)      = {gh.wasserstein_distance(empirical, empirical):.3f}")

# hypothetical second-stage costs: low capacity hurts, high capacity is free
grid = gh.default_support_grid(gh.CapacityDistribution((28, 32), (0.5, 0.5)))
costs = {28: 9.0, 29: 6.0, 30: 3.0, 31: 1.0, 32: 0.0}
print(f"\ncapacity grid {grid.values}, per-value cost {costs}")

for eps in (0.0, 0.5, 1.0, 2.0, 4.0):
    amb = gh.AmbiguitySpec(empirical, eps, grid)
    plan, worst_cost = gh.worst_case_distribution(costs, amb)
    marginal = plan.marginal()
    atoms = {v: round(p, 3) for v, p in marginal.atoms()}
    distance = gh.wasserstein_distance(marginal, empirical)
    print(f"  radius {eps:>3}: worst-case cost {worst_cost:5.2f}, "
          f"marginal {atoms} (distance {distance:.3f} <= {eps})")

print("\nat radius 0 the plan is diagonal: the empirical distribution itself;")
print("growing the radius drains mass toward capacity 28 until all of it is there.")
