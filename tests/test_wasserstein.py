import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

import groundhold as gh
from helpers import one_flight_ambiguity, random_distribution


def scipy_distance(p: gh.CapacityDistribution, q: gh.CapacityDistribution) -> float:
    """Independent oracle: scipy's weighted 1-Wasserstein distance on the line."""
    return stats.wasserstein_distance(p.support_points, q.support_points,
                                      p.probabilities, q.probabilities)


def highs_worst_case(costs, amb: gh.AmbiguitySpec) -> float:
    """Independent oracle: the worst-case transport LP solved by scipy's HiGHS."""
    src = np.array(amb.empirical.support_points)
    grid = np.array(amb.grid.values)
    res = optimize.linprog(
        -np.tile([costs[xi] for xi in amb.grid.values], src.size),
        A_ub=np.abs(src[:, None] - grid[None, :]).reshape(1, -1), b_ub=[amb.radius],
        A_eq=np.kron(np.eye(src.size), np.ones(grid.size)), b_eq=amb.empirical.probabilities,
        method="highs")
    assert res.status == 0, res.message
    return -res.fun


dists = st.integers(0, 10 ** 6).map(lambda s: random_distribution(random.Random(s)))


class TestDistance:
    def test_identical_distributions(self):
        p = gh.CapacityDistribution((2, 4), (0.5, 0.5))
        assert gh.wasserstein_distance(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_point_masses(self):
        d3 = gh.CapacityDistribution((3,), (1.0,))
        d5 = gh.CapacityDistribution((5,), (1.0,))
        assert gh.wasserstein_distance(d3, d5) == pytest.approx(2.0)

    def test_split_mass(self):
        p = gh.CapacityDistribution((2, 4), (0.5, 0.5))
        q = gh.CapacityDistribution((3,), (1.0,))
        assert gh.wasserstein_distance(p, q) == pytest.approx(1.0)
        assert scipy_distance(p, q) == pytest.approx(1.0)

    def test_accepts_capacity_distributions(self):
        cap = gh.CapacityDistribution((2, 4), (0.5, 0.5))
        assert gh.wasserstein_distance(cap, cap) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dists, dists)
    def test_matches_cdf_area_oracle(self, p, q):
        assert gh.wasserstein_distance(p, q) == pytest.approx(
            scipy_distance(p, q), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(dists, dists)
    def test_symmetry_and_identity(self, p, q):
        assert gh.wasserstein_distance(p, q) == pytest.approx(
            gh.wasserstein_distance(q, p), abs=1e-9)
        assert gh.wasserstein_distance(p, p) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(dists, dists, dists)
    def test_triangle_inequality(self, p, q, r):
        d_pq = gh.wasserstein_distance(p, q)
        d_qr = gh.wasserstein_distance(q, r)
        d_pr = gh.wasserstein_distance(p, r)
        assert d_pr <= d_pq + d_qr + 1e-9


class TestDistributionType:
    @pytest.mark.parametrize("atoms", [
        (),
        ((1, 0.5), (1, 0.5)),
        ((1, 0.0), (2, 1.0)),
        ((1, 0.7), (2, 0.7)),
    ])
    def test_rejects_invalid(self, atoms):
        with pytest.raises(ValueError):
            gh.CapacityDistribution(tuple(v for v, _ in atoms), tuple(p for _, p in atoms))

    def test_sorts_atoms(self):
        d = gh.CapacityDistribution((5, 1), (0.25, 0.75))
        assert d.support_points == (1, 5)


class TestWorstCase:
    def test_zero_radius_is_diagonal(self):
        dist = gh.CapacityDistribution((1, 3), (0.25, 0.75))
        amb = gh.AmbiguitySpec(dist, 0.0, gh.default_support_grid(dist))
        costs = {1: 5.0, 2: 9.0, 3: 1.0}
        plan, expected = gh.worst_case_distribution(costs, amb)
        assert expected == pytest.approx(0.25 * 5.0 + 0.75 * 1.0)
        for s, xi_hat in enumerate(dist.support_points):
            for j, xi in enumerate(amb.grid.values):
                target = dist.probabilities[s] if xi == xi_hat else 0.0
                assert plan.mass[s, j] == pytest.approx(target, abs=1e-9)

    def test_worked_instance_marginal(self):
        amb = one_flight_ambiguity(0.4)
        plan, expected = gh.worst_case_distribution({0: 4.0, 1: 0.0}, amb)
        assert expected == pytest.approx(1.6)
        marginal = plan.marginal()
        assert marginal.support_points == (0, 1)
        assert marginal.probabilities == pytest.approx((0.4, 0.6))

    def test_marginal_total_is_correctly_rounded(self):
        # 0.2 + 0.7 + 0.1 left to right is 0.9999999999999999, which would
        # turn each probability into the next float up
        plan = gh.TransportPlan((2,), (1.0,), (1, 2, 3), np.array([[0.2, 0.7, 0.1]]))
        assert plan.marginal().probabilities == (0.2, 0.7, 0.1)

    def test_ample_budget_concentrates_on_worst_value(self):
        amb = gh.AmbiguitySpec(
            gh.CapacityDistribution((1,), (1.0,)), 1.0, gh.SupportGrid((0, 1, 2)))
        costs = {0: 4.0, 1: 0.0, 2: 9.0}
        plan, expected = gh.worst_case_distribution(costs, amb)
        assert expected == pytest.approx(9.0)
        marginal = plan.marginal()
        assert marginal.support_points == (2,)
        assert marginal.probabilities == pytest.approx((1.0,))

    def test_missing_grid_cost_rejected(self):
        amb = one_flight_ambiguity(0.4)
        for costs, bad in (({0: 4.0}, 1), ({0: math.nan, 1: 0.0}, 0),
                           ({0: math.inf, 1: 0.0}, 0), ({0: 4.0, 1: -math.inf}, 1)):
            with pytest.raises(ValueError, match=rf"grid values \[{bad}\]"):
                gh.worst_case_distribution(costs, amb)

    @pytest.mark.parametrize("seed", range(40))
    def test_plan_invariants(self, seed):
        rng = random.Random(123 + seed)
        support = tuple(sorted(rng.sample(range(3, 11), rng.randint(1, 3))))
        counts = [rng.randint(1, 4) for _ in support]
        total = sum(counts)
        dist = gh.CapacityDistribution(support, tuple(c / total for c in counts))
        # a grid reaching past the support on either side, as --support lo:hi gives
        lo, hi = support[0] - rng.randint(0, 3), support[-1] + rng.randint(0, 3)
        grid = gh.SupportGrid(tuple(range(lo, hi + 1)))
        # hi - lo + 1 exceeds every transport cost: alpha* = 0 and budget to spare
        amb = gh.AmbiguitySpec(dist, rng.choice([0.0, 0.3, 1.5, hi - lo + 1.0]), grid)
        if seed % 2:
            costs = {xi: float(rng.randint(0, 3)) for xi in grid.values}  # many ties
        else:
            costs = {xi: round(rng.uniform(0, 10), 3) for xi in grid.values}
        plan, expected = gh.worst_case_distribution(costs, amb)

        assert np.all(plan.mass >= 0.0)
        row_sums = plan.mass.sum(axis=1)
        assert row_sums == pytest.approx(dist.probabilities, abs=1e-9)
        assert plan.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert plan.cost() <= amb.radius + 1e-9
        marginal = plan.marginal()
        assert gh.wasserstein_distance(marginal, dist) <= amb.radius + 1e-9
        recomputed = sum(plan.mass[s, j] * costs[xi]
                         for s in range(len(support))
                         for j, xi in enumerate(amb.grid.values))
        assert recomputed == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(highs_worst_case(costs, amb), abs=1e-9)


def test_module_imports_no_engine():
    """The worst case checks the engine's dual term, so it must not share the engine."""
    tree = ast.parse((Path(gh.__file__).parent / "wasserstein.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert ".domain.AmbiguitySpec" in imported, "the guard found no package import at all"
    engine = {"milp", "simplex", "solver"}
    assert not [name for name in imported if engine & set(name.strip(".").split("."))]
