import math
import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import groundhold as gh
from groundhold import simplex
from helpers import lp_model, sparse_lp, synth_dr_maghp


class TestBasics:
    def test_minimize_negative_x(self):
        model = lp_model([-1.0], [([(0, 1.0)], gh.SENSE_LE, 3.0)], [(0.0, math.inf)])
        sol = gh.solve_lp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-3.0)
        assert sol.values[0] == pytest.approx(3.0)

    def test_worked_example_dual_lp(self):
        # the multiplier LP of the hand-checked robust instance at radius 0.4:
        # min 0.4a + b  s.t.  a + b >= 4,  b >= 0,  a >= 0,  b free
        model = lp_model(
            [0.4, 1.0],
            [([(0, 1.0), (1, 1.0)], gh.SENSE_GE, 4.0), ([(1, 1.0)], gh.SENSE_GE, 0.0)],
            [(0.0, math.inf), (-math.inf, math.inf)],
        )
        sol = gh.solve_lp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.6)
        assert sol.values == pytest.approx([4.0, 0.0])

    def test_infeasible(self):
        model = lp_model(
            [1.0],
            [([(0, 1.0)], gh.SENSE_LE, 1.0), ([(0, 1.0)], gh.SENSE_GE, 2.0)],
            [(0.0, math.inf)],
        )
        assert gh.solve_lp(model).status == "infeasible"

    def test_unbounded(self):
        model = lp_model([-1.0], [], [(0.0, math.inf)])
        assert gh.solve_lp(model).status == "unbounded"

    def test_free_variable_and_equality(self):
        # min y s.t. x + y = 2, x <= 1 -> y = 1 at x = 1
        model = lp_model(
            [0.0, 1.0],
            [([(0, 1.0), (1, 1.0)], gh.SENSE_EQ, 2.0)],
            [(0.0, 1.0), (-math.inf, math.inf)],
        )
        sol = gh.solve_lp(model)
        assert sol.objective == pytest.approx(1.0)

    def test_zero_variable_feasibility_check(self):
        m = gh.MilpModel()
        m.add_row([], gh.SENSE_LE, 1.0)
        m.add_objective_offset(7.0)
        sol = gh.solve_lp(m.freeze())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(7.0)

        m2 = gh.MilpModel()
        m2.add_row([], gh.SENSE_GE, 1.0)
        assert gh.solve_lp(m2.freeze()).status == "infeasible"


def _random_lp(rng: random.Random):
    n = rng.randint(1, 6)
    m = rng.randint(1, 8)
    c = [round(rng.uniform(-3, 3), 3) for _ in range(n)]
    bounds = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.55:
            bounds.append((0.0, math.inf))
        elif kind < 0.75:
            lo = round(rng.uniform(-3, 1), 3)
            bounds.append((lo, lo + round(rng.uniform(0.5, 4), 3)))
        elif kind < 0.9:
            bounds.append((-math.inf, round(rng.uniform(0, 4), 3)))
        else:
            bounds.append((-math.inf, math.inf))
    rows = []
    for _ in range(m):
        terms = [(j, round(rng.uniform(-2, 2), 3)) for j in range(n) if rng.random() < 0.7]
        terms = [(j, v) for j, v in terms if v != 0.0]
        if not terms:
            continue
        sense = rng.choice([gh.SENSE_LE, gh.SENSE_GE, gh.SENSE_EQ])
        rows.append((terms, sense, round(rng.uniform(-3, 3), 3)))
    return c, rows, bounds


def _scipy_reference(c, rows, bounds):
    n = len(c)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for terms, sense, rhs in rows:
        row = [0.0] * n
        for j, v in terms:
            row[j] = v
        if sense == gh.SENSE_LE:
            A_ub.append(row)
            b_ub.append(rhs)
        elif sense == gh.SENSE_GE:
            A_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    return linprog(
        c,
        A_ub=A_ub or None, b_ub=b_ub or None,
        A_eq=A_eq or None, b_eq=b_eq or None,
        bounds=[(lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
                for lo, up in bounds],
        method="highs",
        # presolve can misreport unbounded-but-feasible models as infeasible
        options={"presolve": False},
    )


def _random_lp_matches_highs(seed: int) -> None:
    rng = random.Random(1000 + seed)
    c, rows, bounds = _random_lp(rng)
    sol = gh.solve_lp(lp_model(c, rows, bounds))
    ref = _scipy_reference(c, rows, bounds)
    if ref.status == 0:
        assert sol.status == "optimal", f"seed {seed}: expected optimal, got {sol.status}"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7), f"seed {seed}"
    elif ref.status == 2:
        assert sol.status == "infeasible", f"seed {seed}"
    elif ref.status == 3:
        assert sol.status == "unbounded", f"seed {seed}"


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(120))
    def test_random_lps_match_highs(self, seed):
        _random_lp_matches_highs(seed)

    def test_random_lps_match_highs_under_blands_rule(self, monkeypatch):
        # Bland's rule from the first primal pivot on: the same 120 LPs still
        # match HiGHS, and some of its entering choices are not Dantzig's
        monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
        choose = simplex._Simplex._choose_entering
        choices = []

        def spy(self, bland):
            chosen = choose(self, bland)
            choices.append((bland, chosen[0], choose(self, False)[0]))
            return chosen

        monkeypatch.setattr(simplex._Simplex, "_choose_entering", spy)
        for seed in range(120):
            _random_lp_matches_highs(seed)
        assert all(bland for bland, _, _ in choices)
        assert sum(j is not None for _, j, _ in choices) > 0
        assert any(j != dantzig for _, j, dantzig in choices)


class TestPeriodicRefactorization:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_long_dr_relaxation_matches_highs(self, seed, monkeypatch):
        # dr-SAGHP relaxations of seeded 24-flight, 16-slot instances take
        # 115-180 pivots, so the basis inverse is rebuilt mid-solve
        rebuilt_after = []
        refactor = simplex._Simplex._refactor

        def spy(self):
            rebuilt_after.append(self._since_refactor)
            refactor(self)

        monkeypatch.setattr(simplex._Simplex, "_refactor", spy)
        inst = gh.synth_instance(gh.SynthParams(num_flights=24, horizon=16), seed)
        empirical = inst.capacities["AP0"]
        amb = gh.AmbiguitySpec(empirical, 0.5, gh.default_support_grid(empirical))
        model = gh.build_dr_saghp(inst.schedule, amb)
        sol = gh.solve_lp(model)
        assert sol.status == "optimal"
        assert sol.pivots > 100
        assert max(rebuilt_after) >= simplex._REFACTOR_EVERY

        a = model.to_arrays()
        le, ge, eq = a.senses < 0, a.senses > 0, a.senses == 0
        ref = linprog(
            a.c,
            A_ub=np.vstack([a.A[le], -a.A[ge]]), b_ub=np.concatenate([a.b[le], -a.b[ge]]),
            A_eq=a.A[eq], b_eq=a.b[eq],
            bounds=[(lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
                    for lo, up in zip(a.lower, a.upper)],
            method="highs",
        )
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun + a.offset, abs=1e-6)


def _warm(a, lo, up, basis):
    return simplex.solve_lp_arrays(a, lo, up, basis=basis)


class TestWarmStart:
    def test_dual_simplex_proves_infeasibility(self):
        # min x1 + 2 x2  s.t.  x1 + x2 >= 1.5,  0 <= x <= 1: the root has
        # x1 = 1, x2 = 0.5; with x2 fixed to 0 nothing can lift x1 + x2
        model = lp_model([1.0, 2.0], [([(0, 1.0), (1, 1.0)], gh.SENSE_GE, 1.5)], [(0.0, 1.0)] * 2)
        a = model.to_arrays()
        root = gh.solve_lp(model)
        assert root.values == pytest.approx([1.0, 0.5])
        up = a.upper.copy()
        up[1] = 0.0
        child = _warm(a, a.lower, up, root.basis)
        assert child.status == "infeasible"
        assert child.pivots == 0  # the bound row alone proves it, without a pivot

    def test_status_on_a_lost_bound_falls_back(self):
        # x1 sits at its upper bound in the root basis; without that bound
        # the warm start puts it at its lower bound and still finds the optimum
        model = lp_model([1.0, 2.0], [([(0, 1.0), (1, 1.0)], gh.SENSE_GE, 1.5)], [(0.0, 1.0)] * 2)
        a = model.to_arrays()
        root = gh.solve_lp(model)
        up = a.upper.copy()
        up[0] = math.inf
        child = _warm(a, a.lower, up, root.basis)
        assert child.status == "optimal"
        assert child.objective == pytest.approx(1.5)
        assert child.values == pytest.approx([1.5, 0.0])

    @pytest.mark.parametrize("seed", range(150))
    def test_restart_after_widening_matches_highs(self, seed):
        # solve on a finite box, then drop bounds at random and restart from
        # that basis: a nonbasic at a dropped bound falls back to its initial
        # status.  Widening keeps a feasible LP feasible, so the restart ends
        # optimal or unbounded, and HiGHS's word is not taken for infeasible
        rng = random.Random(7000 + seed)
        c, rows, bounds = _random_lp(rng)
        box = [(lo if math.isfinite(lo) else -5.0, up if math.isfinite(up) else 5.0)
               for lo, up in bounds]
        a = lp_model(c, rows, box).to_arrays()
        sol = simplex.solve_lp_arrays(a, a.lower, a.upper)
        if sol.status != "optimal":
            return
        wide = [(-math.inf if rng.random() < 0.3 else lo, math.inf if rng.random() < 0.3 else up)
                for lo, up in box]
        lo, up = (np.array(side) for side in zip(*wide))
        child = _warm(a, lo, up, sol.basis)
        assert child.status in ("optimal", "unbounded")
        ref = _scipy_reference(c, rows, wide)
        if ref.status == 0:
            assert child.status == "optimal"
            assert child.objective == pytest.approx(ref.fun, abs=1e-7)
        elif ref.status == 3:
            assert child.status == "unbounded"

    def test_restart_from_own_basis_takes_no_pivot(self):
        # every optimal solve reports a basis, and loading it under the same
        # bounds lands on the same vertex at once; seeds 1027 and 1055 are
        # row-less LPs
        restarted = 0
        for seed in range(1000, 1120):
            c, rows, bounds = _random_lp(random.Random(seed))
            a = lp_model(c, rows, bounds).to_arrays()
            sol = simplex.solve_lp_arrays(a, a.lower, a.upper)
            if sol.status != "optimal":
                continue
            again = _warm(a, a.lower, a.upper, sol.basis)
            assert again.pivots == 0, seed
            assert again.status == sol.status
            assert again.objective == sol.objective
            assert np.array_equal(again.values, sol.values)
            restarted += 1
        assert restarted == 27  # the rest are infeasible or unbounded

    def test_restart_under_a_new_cost_matches_cold_and_highs(self, monkeypatch):
        # TestAgainstScipy's optimal LPs, re-solved from their own basis with
        # every cost moved by up to the costs' own range: the basis is still
        # primal feasible, so the dual phase takes no pivot, and the primal
        # ends where a cold solve and HiGHS do (or finds the ray they find)
        dual_pivots, warm_pivots = [], 0
        dual = simplex._Simplex._dual

        def dual_spy(self):
            before = self.pivots
            feasible = dual(self)
            dual_pivots.append(self.pivots - before)
            return feasible

        restarted = 0
        for seed in range(1000, 1120):
            rng = random.Random(seed)
            c, rows, bounds = _random_lp(rng)
            a = lp_model(c, rows, bounds).to_arrays()
            sol = simplex.solve_lp_arrays(a, a.lower, a.upper)
            if sol.status != "optimal":
                continue
            c2 = [round(cj + rng.uniform(-3, 3), 3) for cj in c]
            a2 = lp_model(c2, rows, bounds).to_arrays()
            cold = simplex.solve_lp_arrays(a2, a2.lower, a2.upper)
            with monkeypatch.context() as patch:
                patch.setattr(simplex._Simplex, "_dual", dual_spy)
                warm = _warm(a2, a2.lower, a2.upper, sol.basis)
            assert dual_pivots.pop() == 0, seed
            warm_pivots += warm.pivots
            assert warm.status == cold.status, seed
            ref = _scipy_reference(c2, rows, bounds)
            assert ref.status == {"optimal": 0, "unbounded": 3}[warm.status], seed
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9), seed
                assert warm.objective == pytest.approx(ref.fun, abs=1e-9), seed
            restarted += 1
        assert restarted == 27  # as in test_restart_from_own_basis_takes_no_pivot
        assert warm_pivots > 0  # some restarts had to move

    def test_long_warm_solve_refactors(self, monkeypatch):
        # a 40-flight dr-SAGHP with every flight pushed off the slot its root
        # LP prefers: the warm solve takes over 100 pivots, so the basis
        # inverse is rebuilt mid-solve, and it ends where a cold solve does
        inst = gh.synth_instance(gh.SynthParams(num_flights=40, horizon=16), 1)
        empirical = inst.capacities["AP0"]
        amb = gh.AmbiguitySpec(empirical, 0.5, gh.default_support_grid(empirical))
        model = gh.build_dr_saghp(inst.schedule, amb)
        a = model.to_arrays()
        root = gh.solve_lp(model)
        up = a.upper.copy()
        for f in inst.schedule.flights:
            cols = [model.index.x[f.id, t] for t in inst.schedule.available_slots(f)]
            if len(cols) > 1:
                up[max(cols, key=lambda col: root.values[col])] = 0.0
        cold = simplex.solve_lp_arrays(a, a.lower, up)

        rebuilt_after = []
        refactor = simplex._Simplex._refactor

        def spy(self):
            rebuilt_after.append(self._since_refactor)
            refactor(self)

        certificate_pivots = []
        primal = simplex._Simplex._primal

        def primal_spy(self):
            before = self.pivots
            status = primal(self)
            certificate_pivots.append(self.pivots - before)
            return status

        monkeypatch.setattr(simplex._Simplex, "_refactor", spy)
        monkeypatch.setattr(simplex._Simplex, "_primal", primal_spy)
        warm = _warm(a, a.lower, up, root.basis)
        assert warm.status == cold.status == "optimal"
        assert warm.pivots > 100
        assert max(rebuilt_after) >= simplex._REFACTOR_EVERY
        # the dual ratio test kept every reduced cost's sign, so the primal
        # phase 2 only confirms optimality
        assert certificate_pivots == [0]
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


class TestCostShift:
    def test_cold_lps_with_nonnegative_costs_end_in_the_dual_phase(self, monkeypatch):
        # every model the CLI builds puts nonnegative costs on columns bounded
        # below (dr-SAGHP and dr-MAGHP because beta >= 0), so the slack basis
        # is dual feasible under the true costs: nothing is shifted, and the
        # dual simplex reaches the optimum by itself
        shifted, primal_pivots = [], []
        dual, primal = simplex._Simplex._dual, simplex._Simplex._primal

        def dual_spy(self):
            shifted.append(int(self._wrong_sign(self.d).sum()))
            return dual(self)

        def primal_spy(self):
            before = self.pivots
            status = primal(self)
            primal_pivots.append(self.pivots - before)
            return status

        monkeypatch.setattr(simplex._Simplex, "_dual", dual_spy)
        monkeypatch.setattr(simplex._Simplex, "_primal", primal_spy)
        models = []
        for seed in range(1, 13):
            inst = gh.synth_instance(gh.SynthParams(num_flights=16, horizon=12), seed)
            empirical = inst.capacities["AP0"]
            models += [gh.build_s_saghp(inst.schedule, empirical), gh.build_d_saghp(inst.schedule, 2)]
            for eps in (0.0, 0.5, 5.0):
                amb = gh.AmbiguitySpec(empirical, eps, gh.default_support_grid(empirical))
                models.append(gh.build_dr_saghp(inst.schedule, amb))
        models.append(synth_dr_maghp(16, 12, 1))
        statuses = [gh.solve_lp(model).status for model in models]
        # det at capacity 2 is infeasible for seeds 8 and 9; those stop in
        # the dual phase before the primal runs
        assert statuses.count("optimal") == 59
        assert shifted == [0] * 61
        assert primal_pivots == [0] * 59


def _check_certificate(a, sol):
    """The duals price the returned basis at its costs, and the reduced costs
    are ``c - yA``: both come from the basis the solve returns."""
    m = len(a.b)
    full = np.hstack([a.A, np.eye(m)])
    c_ext = np.concatenate([a.c, np.zeros(m)])
    cols = sol.basis[0]
    y = sol.dual_values
    np.testing.assert_allclose(y @ full[:, cols], c_ext[cols], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sol.reduced_costs, a.c - y @ a.A, rtol=0, atol=1e-9)


class TestCertificateMatchesBasis:
    def test_random_lps(self):
        optimal = 0
        for seed in range(1000, 1120):
            c, rows, bounds = _random_lp(random.Random(seed))
            a = lp_model(c, rows, bounds).to_arrays()
            sol = simplex.solve_lp_arrays(a, a.lower, a.upper)
            if sol.status == "optimal":
                _check_certificate(a, sol)
                optimal += 1
        assert optimal == 27

    def test_dr_root_lp(self):
        # over 100 pivots, so the basis inverse is updated in product form
        # between refactorizations before the answer is given
        inst = gh.synth_instance(gh.SynthParams(num_flights=24, horizon=16), 1)
        empirical = inst.capacities["AP0"]
        amb = gh.AmbiguitySpec(empirical, 0.5, gh.default_support_grid(empirical))
        a = gh.build_dr_saghp(inst.schedule, amb).to_arrays()
        sol = simplex.solve_lp_arrays(a, a.lower, a.upper)
        assert sol.status == "optimal"
        assert sol.pivots > simplex._REFACTOR_EVERY
        _check_certificate(a, sol)


class TestOptimalityCertificates:
    @pytest.mark.parametrize("seed", range(60))
    def test_duals_and_reduced_costs(self, seed):
        rng = random.Random(5000 + seed)
        c, rows, bounds = _random_lp(rng)
        model = lp_model(c, rows, bounds)
        sol = gh.solve_lp(model)
        if sol.status != "optimal":
            return
        arrays = model.to_arrays()
        x = sol.values
        y = sol.dual_values
        d = sol.reduced_costs

        # sign consistency with the constraint senses (minimization)
        for i, sense in enumerate(arrays.senses):
            if sense < 0:
                assert y[i] <= 1e-7
            elif sense > 0:
                assert y[i] >= -1e-7

        # complementary slackness on rows
        lhs = arrays.A @ x if arrays.A.size else np.zeros(0)
        for i in range(len(arrays.b)):
            slack = arrays.b[i] - lhs[i]
            assert abs(y[i] * slack) <= 1e-6

        # reduced-cost optimality conditions at the variable bounds
        for j in range(len(x)):
            at_lower = x[j] <= arrays.lower[j] + 1e-7
            at_upper = x[j] >= arrays.upper[j] - 1e-7
            if at_lower and not at_upper:
                assert d[j] >= -1e-7
            elif at_upper and not at_lower:
                assert d[j] <= 1e-7
            elif not at_lower and not at_upper:
                assert abs(d[j]) <= 1e-7

        # Lagrangian identity: c.x = y.b + d.x + sum_i (-y_i) * slack_i
        lhs_obj = float(arrays.c @ x)
        rhs_obj = float(y @ arrays.b + d @ x + sum(-y[i] * (arrays.b[i] - lhs[i])
                                                   for i in range(len(arrays.b))))
        assert lhs_obj == pytest.approx(rhs_obj, abs=1e-6)

    def test_deterministic_repeat(self):
        rng = random.Random(99)
        c, rows, bounds = _random_lp(rng)
        model = lp_model(c, rows, bounds)
        a = gh.solve_lp(model)
        b = gh.solve_lp(model)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective == b.objective
            assert np.array_equal(a.values, b.values)
            assert a.pivots == b.pivots


def _assert_matches_highs(c, rows, bounds, lo=None, up=None, basis=None):
    a = lp_model(c, rows, bounds).to_arrays()
    lo = a.lower if lo is None else lo
    up = a.upper if up is None else up
    sol = simplex.solve_lp_arrays(a, lo, up, basis=basis)
    ref = _scipy_reference(c, rows, list(zip(lo, up)))
    assert ref.status in (0, 2, 3)
    assert sol.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if ref.status == 0:
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
        _check_certificate(a, sol)
    return sol


class TestColumnStorage:
    """The simplex keeps only the nonzeros of the structural columns and no
    slack columns; these cases exercise that bookkeeping against HiGHS."""

    @pytest.mark.parametrize("bounds, status", [((0.0, 2.5), "optimal"),
                                                ((0.0, math.inf), "unbounded")])
    def test_column_in_no_row(self, bounds, status):
        # x1 has a cost but no entry in any row: only its bounds stop it
        c = [1.0, -3.0, 2.0]
        rows = [([(0, 1.0), (2, 1.0)], gh.SENSE_GE, 1.0), ([(0, 1.0), (2, -1.0)], gh.SENSE_LE, 0.5)]
        sol = _assert_matches_highs(c, rows, [(0.0, math.inf), bounds, (0.0, math.inf)])
        assert sol.status == status
        if status == "optimal":
            assert sol.values[1] == 2.5

    def test_row_term_with_zero_coefficient(self):
        # x1's only term is a stored 0.0, so its column is empty
        c = [-1.0, -1.0]
        rows = [([(0, 1.0), (1, 0.0)], gh.SENSE_LE, 2.0), ([(1, 0.0)], gh.SENSE_GE, -1.0)]
        model = lp_model(c, rows, [(0.0, math.inf), (0.0, 4.0)])
        assert model.constraints[0].terms[1][1] == 0.0
        sol = _assert_matches_highs(c, rows, [(0.0, math.inf), (0.0, 4.0)])
        assert sol.values == pytest.approx([2.0, 4.0])

    def test_slack_enters_the_basis(self, monkeypatch):
        # min -x s.t. x <= 2, x <= 3: x is basic in the first row at the
        # optimum.  Under x <= 1 the restart must bring that row's slack back
        # into the basis
        entered = []
        column = simplex._Simplex._column

        def spy(self, j):
            entered.append(j - self.nstruct)
            return column(self, j)

        monkeypatch.setattr(simplex._Simplex, "_column", spy)
        c, bounds = [-1.0], [(0.0, math.inf)]
        rows = [([(0, 1.0)], gh.SENSE_LE, 2.0), ([(0, 1.0)], gh.SENSE_LE, 3.0)]
        root = _assert_matches_highs(c, rows, bounds)
        assert root.basis[0].tolist() == [0, 2]
        entered.clear()
        child = _assert_matches_highs(c, rows, bounds, np.array([0.0]), np.array([1.0]), root.basis)
        assert entered == [0]  # slack column n + 0
        assert child.values == pytest.approx([1.0])
        assert sorted(child.basis[0].tolist()) == [1, 2]

    @pytest.mark.parametrize("seed", range(24))
    def test_random_sparse_lps_match_highs(self, seed):
        rng = random.Random(9000 + seed)
        n = rng.randint(60, 200)
        c, rows, bounds = sparse_lp(rng, n, rng.uniform(0.02, 0.05))
        a = lp_model(c, rows, bounds).to_arrays()
        assert not a.A.any(axis=0).all()  # at least one empty column
        _assert_matches_highs(c, rows, bounds)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_binary_milps_match_highs(self, seed):
        rng = random.Random(9500 + seed)
        n = rng.randint(60, 120)
        density = rng.uniform(0.02, 0.05)
        m = gh.MilpModel()
        c = [round(rng.uniform(-3, 3), 3) for _ in range(n)]
        refs = [m.add_binary(f"x{j}", coef) for j, coef in enumerate(c)]
        point = [rng.randint(0, 1) for _ in range(n)]
        for _ in range(rng.randint(n // 4, n // 2)):
            terms = [(j, float(rng.randint(-3, 3) or 1)) for j in range(n) if rng.random() < density]
            rhs = sum(point[j] * v for j, v in terms) + rng.randint(0, 1)
            m.add_row([(refs[j], v) for j, v in terms], gh.SENSE_LE, rhs)
        model = m.freeze()
        a = model.to_arrays()
        ref = milp(a.c, constraints=LinearConstraint(a.A, -np.inf, a.b),
                   integrality=np.ones(n), bounds=Bounds(0, 1))
        assert ref.status == 0
        sol = gh.solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)


def _spy_on_inv(monkeypatch):
    """Record the shape of every matrix the simplex module inverts."""
    inverted = []
    inv = simplex.np.linalg.inv

    def spy(matrix):
        inverted.append(matrix.shape)
        return inv(matrix)

    monkeypatch.setattr(simplex.np.linalg, "inv", spy)
    return inverted


def _optimal_at_slack_basis():
    """c >= 0 and every row holds with all columns at their lower bounds, so
    the slack basis is optimal."""
    rng = random.Random(4)
    n = 80
    c = [round(rng.uniform(0, 3), 3) for _ in range(n)]
    rows = []
    for _ in range(30):
        terms = [(j, round(rng.uniform(-2, 2), 3)) for j in range(n) if rng.random() < 0.05]
        rows.append((terms, gh.SENSE_LE, round(rng.uniform(0, 2), 3)))
    rows.append(([(j, 1.0) for j in range(0, n, 7)], gh.SENSE_GE, -1.0))
    return c, rows, [(0.0, 5.0)] * n


class TestInversion:
    def test_cold_lp_optimal_at_the_slack_basis_inverts_nothing(self, monkeypatch):
        # the slack basis's inverse is the identity, so no matrix is inverted
        # on entry or before answering
        inverted = _spy_on_inv(monkeypatch)
        sol = _assert_matches_highs(*_optimal_at_slack_basis())
        assert sol.status == "optimal"
        assert sol.pivots == 0
        assert inverted == []

    def test_slack_basis_in_any_order_inverts_nothing(self, monkeypatch):
        # slacks listed in another order leave no bump (k = 0): the restart
        # inverts nothing and lands on the cold solve's vertex
        a = lp_model(*_optimal_at_slack_basis()).to_arrays()
        cold = simplex.solve_lp_arrays(a, a.lower, a.upper)
        cols, status = cold.basis
        assert (cols >= a.A.shape[1]).all()
        inverted = _spy_on_inv(monkeypatch)
        order = np.random.default_rng(5).permutation(len(cols))
        again = _warm(a, a.lower, a.upper, (cols[order], status))
        assert inverted == []
        assert again.pivots == 0
        assert np.array_equal(again.values, cold.values)
        assert np.array_equal(again.dual_values, cold.dual_values)

    @pytest.mark.parametrize("seed", range(8))
    def test_bump_inverse_matches_the_full_inverse(self, seed, monkeypatch):
        # an optimal basis of slacks and structurals, loaded again with its
        # columns in a random order: only the k x k bump of the k basic
        # structurals is inverted, and the inverse assembled around it is
        # that of the explicit basis matrix
        rng = random.Random(9700 + seed)
        c, rows, bounds = sparse_lp(rng, rng.randint(60, 120), rng.uniform(0.03, 0.06))
        a = lp_model(c, rows, bounds).to_arrays()
        cold = simplex.solve_lp_arrays(a, a.lower, a.upper)
        assert cold.status == "optimal"
        m, n = a.A.shape
        cols, status = cold.basis
        cols = cols[np.random.default_rng(seed).permutation(m)]
        k = int((cols < n).sum())
        assert 0 < k < m
        expected = np.linalg.inv(np.hstack([a.A, np.eye(m)])[:, cols])
        inverted = _spy_on_inv(monkeypatch)
        lp = simplex._Simplex(a, a.lower, a.upper)
        lp._load((cols, status))
        assert inverted == [(k, k)]
        assert np.abs(lp.Binv - expected).max() <= 1e-9

    def test_basis_with_two_equal_columns_is_singular(self):
        # x0 and x1 have the same column, so a basis holding both is singular
        c, bounds = [1.0, 2.0, 1.0], [(0.0, 4.0)] * 3
        rows = [([(0, 1.0), (1, 1.0), (2, 1.0)], gh.SENSE_GE, 1.0),
                ([(0, 2.0), (1, 2.0), (2, -1.0)], gh.SENSE_LE, 3.0)]
        a = lp_model(c, rows, bounds).to_arrays()
        status = np.zeros(5, dtype=np.int8)
        with pytest.raises(simplex.NumericalInstabilityError, match="singular basis"):
            _warm(a, a.lower, a.upper, (np.array([0, 1]), status))


def _dr_root_20x16():
    """The dr-SAGHP model of the 20-flight, 16-slot seed-1 instance."""
    inst = gh.synth_instance(gh.SynthParams(num_flights=20, horizon=16), 1)
    empirical = inst.capacities["AP0"]
    return gh.build_dr_saghp(inst.schedule, gh.AmbiguitySpec(empirical, 0.5, gh.default_support_grid(empirical)))


def _with_empty_row():
    """Three rows, the middle one with no entry."""
    return lp_model([1.0, -1.0, 2.0], [([(2, 1.5), (0, -1.0)], gh.SENSE_LE, 4.0), ([], gh.SENSE_GE, -1.0),
                                       ([(1, 2.0), (2, -0.5)], gh.SENSE_EQ, 1.0)], [(0.0, 3.0)] * 3)


_PIVOT_ROW_MODELS = {
    "empty-row": _with_empty_row,
    "dr-20x16": _dr_root_20x16,
    **{f"sparse-{seed}": (lambda seed=seed: lp_model(*sparse_lp(random.Random(9800 + seed), 90, 0.04)))
       for seed in range(3)},
}


class TestPivotRow:
    """The dual's pivot row, gathered from the rows where ``u`` is nonzero,
    equals ``u @ [A | I]`` computed densely with every column's terms summed
    in ascending row order (``==`` holds whatever the sign of a zero)."""

    @staticmethod
    def _dense_row(a, u):
        A, acc = a.A, np.zeros(len(a.c))
        for i in range(len(a.b)):
            acc = acc + u[i] * A[i]
        return np.concatenate([acc, u])

    @pytest.mark.parametrize("case", _PIVOT_ROW_MODELS)
    def test_gathered_row_is_the_dense_product(self, case):
        a = _PIVOT_ROW_MODELS[case]().to_arrays()
        lp = simplex._Simplex(a, a.lower, a.upper)
        m = len(a.b)
        rng = np.random.default_rng(11)
        us = [np.where(rng.random(m) < density, rng.normal(size=m), 0.0) for density in (0.05, 0.3, 1.0)]
        us.append(np.zeros(m))
        for u in us:
            got = lp._pivot_row(u)
            assert got.shape == (len(a.c) + m,)
            assert np.array_equal(got, self._dense_row(a, u))

    def test_row_with_no_entry(self):
        a = _with_empty_row().to_arrays()
        u = np.array([0.0, 2.5, 0.0])
        got = simplex._Simplex(a, a.lower, a.upper)._pivot_row(u)
        assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 2.5, 0.0])


class TestEnteringMasks:
    """The masks the simplex keeps across pivots equal those rebuilt from
    ``status``, ``lo`` and ``up`` at every pivot and bound flip."""

    @pytest.fixture
    def checks(self, monkeypatch):
        done = []
        count = simplex._Simplex._count

        def spy(self):
            free = self.status == simplex._FREE
            not_fixed = self.up > self.lo
            assert np.array_equal(self.can_rise, free | ((self.status == simplex._AT_LO) & not_fixed))
            assert np.array_equal(self.can_fall, free | ((self.status == simplex._AT_UP) & not_fixed))
            assert np.array_equal(self.lo_b, self.lo[self.basis])
            assert np.array_equal(self.up_b, self.up[self.basis])
            done.append(self.pivots)
            count(self)

        monkeypatch.setattr(simplex._Simplex, "_count", spy)
        return done

    def test_random_lps(self, checks):
        for seed in range(1000, 1120):
            c, rows, bounds = _random_lp(random.Random(seed))
            gh.solve_lp(lp_model(c, rows, bounds))
        assert len(checks) > 100

    def test_dr_root_lp(self, checks):
        sol = gh.solve_lp(_dr_root_20x16())
        assert sol.status == "optimal"
        assert sol.pivots == len(checks) == 71  # the count before the masks were kept


class TestBoundsLength:
    @pytest.mark.parametrize("size", [1, 4])
    def test_bounds_of_another_length_are_refused(self, size):
        model = _with_empty_row()  # three columns
        a = model.to_arrays()
        short_or_long = np.zeros(size)
        for lower, upper in ((short_or_long, a.upper), (a.lower, short_or_long)):
            with pytest.raises(ValueError, match=rf"column of the model \(3\).*\({size},\)"):
                gh.solve_lp(model, lower, upper)
            with pytest.raises(ValueError, match=rf"column of the model \(3\).*\({size},\)"):
                simplex.solve_lp_arrays(a, lower, upper)

    @pytest.mark.parametrize("lower, upper, column", [
        pytest.param([2.0, 0.0], [1.0, 5.0], 0, id="crossed"),
        pytest.param([math.nan, 0.0], [5.0, 5.0], 0, id="lower-nan"),
        pytest.param([1.0, 0.0], [5.0, math.nan], 1, id="upper-nan"),
        pytest.param([math.inf, 0.0], [math.inf, 5.0], 0, id="lower-plus-inf"),
        pytest.param([1.0, -math.inf], [5.0, -math.inf], 1, id="upper-minus-inf"),
    ])
    def test_bounds_that_hold_no_value_are_refused(self, lower, upper, column):
        # min 2x + y  s.t.  x + y >= 3 (optimum 4 at x in [1, 5], y in
        # [0, 5]); a column with no value between its bounds is a caller's
        # error, named before any pivot, not an answer
        model = lp_model([2.0, 1.0], [([(0, 1.0), (1, 1.0)], gh.SENSE_GE, 3.0)], [(1.0, 5.0), (0.0, 5.0)])
        assert gh.solve_lp(model).objective == pytest.approx(4.0)
        with pytest.raises(ValueError, match=rf"column {column} has no value within its bounds"):
            gh.solve_lp(model, np.array(lower), np.array(upper))


class TestBasisShape:
    @pytest.mark.parametrize("cols, statuses", [
        pytest.param([3, 4], 4, id="status-short"),
        pytest.param([3], 5, id="one-column"),
        pytest.param([3, 3], 5, id="repeated-column"),
        pytest.param([3, 5], 5, id="column-past-n-plus-m"),
        pytest.param([3, 4], [3, 0, 0, 3, 3], id="basic-status-off-the-columns"),
        pytest.param([3, 4], [0, 9, 0, 3, 3], id="unknown-status"),
        pytest.param([3, 4], [0, -1, 0, 3, 3], id="negative-status"),
    ])
    def test_basis_that_does_not_fit_is_refused(self, cols, statuses):
        # three columns and two rows: a basis is 2 distinct columns of 5 and
        # 5 statuses, those off the columns at lower, at upper or free (0-2);
        # anything else is a caller's error, not the engine's.  An int
        # ``statuses`` is that many zeros
        c, bounds = [1.0, 2.0, 1.0], [(0.0, 4.0)] * 3
        rows = [([(0, 1.0), (1, 1.0), (2, 1.0)], gh.SENSE_GE, 1.0),
                ([(0, 2.0), (1, 2.0), (2, -1.0)], gh.SENSE_LE, 3.0)]
        a = lp_model(c, rows, bounds).to_arrays()
        status = np.zeros(statuses) if isinstance(statuses, int) else np.array(statuses)
        basis = (np.array(cols), status.astype(np.int8))
        with pytest.raises(ValueError, match=r"basis does not fit a model of 2 rows and 3 columns"):
            _warm(a, a.lower, a.upper, basis)
