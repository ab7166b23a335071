import heapq
import inspect
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import groundhold as gh
from closed_form import brute_force
from groundhold import simplex, solver
from helpers import (one_flight_ambiguity, one_flight_schedule, random_instance, split_network,
                     synth_dr_maghp, two_flight_schedule)


def _random_model(rng, max_flights=3, max_slots=4, max_atoms=3, kinds=("det", "sp", "dr")):
    """One of the builders in ``kinds`` on a random tiny instance."""
    sched, dist = random_instance(rng, max_flights, max_slots, max_atoms)
    return _build(rng, rng.choice(kinds), sched, dist)


def _build(rng, kind, sched, dist):
    """The ``kind`` model on ``sched`` and ``dist``, drawing its remaining
    inputs from ``rng``, as ``(model, schedule, kind, inputs)``."""
    if kind == "det":
        capacity = rng.randint(0, 4)
        return gh.build_d_saghp(sched, capacity), sched, kind, capacity
    if kind == "sp":
        return gh.build_s_saghp(sched, dist), sched, kind, dist
    if kind == "dr-maghp":
        net = split_network(rng, sched, dist)
        return gh.build_dr_maghp(net), net.schedule, kind, net.ambiguities
    eps = rng.choice([0.0, 0.1, 0.5, 1.0, 3.0])
    amb = gh.AmbiguitySpec(dist, eps, gh.default_support_grid(dist))
    return gh.build_dr_saghp(sched, amb), sched, kind, amb


def _agrees_with_closed_form(sol, sched, kind, inputs):
    objective, assignments = brute_force(sched, kind, inputs)
    assert sol.status == ("optimal" if assignments else "infeasible")
    if assignments:
        assert sol.objective == pytest.approx(objective, abs=1e-6)


def _knapsack_model(rng, n=6):
    """A random 0/1 knapsack; its LP relaxation is mostly fractional at the root."""
    m = gh.MilpModel()
    weights = [rng.randint(1, 9) for _ in range(n)]
    xs = [m.add_binary(f"k{i}", -float(rng.randint(1, 9))) for i in range(n)]
    m.add_row(list(zip(xs, map(float, weights))), gh.SENSE_LE, sum(weights) / 2 + 0.5)
    m.freeze()
    return m


def _reference_search(model, node_order, branching):
    """Optimal objective by a plain branch and bound over ``gh.solve_lp``.

    ``node_order`` is ``best-bound`` (heap on the parent bound) or
    ``depth-first`` (stack); ``branching`` picks the ``most-fractional`` or
    the ``lowest-index`` fractional binary.  Returns ``math.inf`` when the
    model is infeasible.  Its tolerances are literals, not the solver's
    constants, so it stays independent of them.
    """
    a = model.to_arrays()
    bins = np.flatnonzero(a.is_binary)
    best = math.inf
    open_nodes = [(-math.inf, 0, a.lower.copy(), a.upper.copy())]
    seq = 0
    while open_nodes:
        if node_order == "best-bound":
            bound, _, lo, up = heapq.heappop(open_nodes)
        else:
            bound, _, lo, up = open_nodes.pop()
        if bound >= best - 1e-6:
            continue
        rel = gh.solve_lp(model, lo, up)
        if rel.status != "optimal" or rel.objective >= best - 1e-6:
            continue
        frac = np.abs(rel.values[bins] - np.round(rel.values[bins]))
        fractional = np.flatnonzero(frac > 1e-6)
        if fractional.size == 0:
            best = rel.objective
            continue
        k = int(np.argmax(frac)) if branching == "most-fractional" else int(fractional[0])
        j = int(bins[k])
        for fixed in (0.0, 1.0):
            clo, cup = lo.copy(), up.copy()
            clo[j] = cup[j] = fixed
            seq += 1
            if node_order == "best-bound":
                heapq.heappush(open_nodes, (rel.objective, seq, clo, cup))
            else:
                open_nodes.append((rel.objective, seq, clo, cup))
    return best


class TestSolverOptions:
    def test_defaults(self):
        assert simplex.FEASIBILITY_TOL == 1e-7
        assert solver.INTEGRALITY_TOL == 1e-6
        assert solver.OPTIMALITY_GAP == 1e-6
        for fn in (gh.solve_milp, gh.epsilon_sweep):
            assert inspect.signature(fn).parameters["node_limit"].default == 100_000

    def test_rejects_node_limit_below_one(self):
        model = gh.build_d_saghp(two_flight_schedule(), 1)
        with pytest.raises(ValueError, match="node_limit"):
            gh.solve_milp(model, node_limit=0)
        dist = gh.CapacityDistribution((1,), (1.0,))
        with pytest.raises(ValueError, match="node_limit"):
            gh.epsilon_sweep(two_flight_schedule(), dist, [0.5], dist, [10], 0, node_limit=0)


class TestSolveMilp:
    def test_two_flight_capacity_one(self):
        model = gh.build_d_saghp(two_flight_schedule(), 1)
        sol = gh.solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)

    def test_dr_worked_instance(self):
        model = gh.build_dr_saghp(one_flight_schedule(), one_flight_ambiguity(0.4))
        sol = gh.solve_milp(model)
        assert sol.objective == pytest.approx(1.6)

    def test_infeasible_reported(self):
        sched = two_flight_schedule(horizon=1)
        sol = gh.solve_milp(gh.build_d_saghp(sched, 1))
        assert sol.status == "infeasible"
        assert sol.values is None

    def test_all_continuous_matches_solve_lp(self):
        m = gh.MilpModel()
        x = m.add_continuous("x", 0.0, 3.0, cost=-1.0)
        y = m.add_continuous("y", 0.0, 3.0, cost=-2.0)
        m.add_row([(x, 1.0), (y, 1.0)], gh.SENSE_LE, 4.0)
        m.freeze()
        lp = gh.solve_lp(m)
        milp = gh.solve_milp(m)
        assert milp.status == "optimal"
        assert milp.nodes == 1
        assert milp.objective == pytest.approx(lp.objective)
        assert np.allclose(milp.values, lp.values)

    def test_node_limit_returns_incumbent_status(self):
        # root LP is fractional (x1 + x2 <= 1.5), so one node cannot finish
        m = gh.MilpModel()
        x1 = m.add_binary("a", cost=-1.0)
        x2 = m.add_binary("b", cost=-1.0)
        m.add_row([(x1, 1.0), (x2, 1.0)], gh.SENSE_LE, 1.5)
        m.freeze()
        full = gh.solve_milp(m)
        assert full.status == "optimal"
        assert full.objective == pytest.approx(-1.0)
        assert full.nodes > 1
        limited = gh.solve_milp(m, node_limit=1)
        assert limited.status == "node-limit"
        # both children are open with the root's bound, the smallest one
        assert limited.best_bound == gh.solve_lp(m).objective
        assert limited.best_bound <= full.objective

    def test_unbounded_root_ends_the_search(self):
        # min x - y with x binary, y >= 0 and x - y <= 0: y grows without end
        m = gh.MilpModel()
        x = m.add_binary("x", cost=1.0)
        y = m.add_continuous("y", cost=-1.0)
        m.add_row([(x, 1.0), (y, -1.0)], gh.SENSE_LE, 0.0)
        m.freeze()
        sol = gh.solve_milp(m)
        assert sol.status == "unbounded" and sol.values is None
        assert sol.objective == sol.best_bound == -math.inf
        assert sol.nodes == 1

    def test_search_agrees_with_enumeration(self):
        rng = random.Random(4242)
        for _ in range(10):
            model, sched, kind, inputs = _random_model(rng)
            _agrees_with_closed_form(gh.solve_milp(model), sched, kind, inputs)

    @pytest.mark.parametrize("branching", ["most-fractional", "lowest-index"])
    @pytest.mark.parametrize("node_order", ["best-bound", "depth-first"])
    def test_search_options_agree_on_objective(self, branching, node_order):
        # the optimum must not depend on the search: solve_milp's one path
        # against a plain search over solve_lp in each order and rule.  The
        # builder draws here all have integral roots, so the knapsacks are
        # what makes the searches branch.
        rng = random.Random(4242)
        models = [_random_model(rng)[0] for _ in range(10)]
        models += [_knapsack_model(rng) for _ in range(10)]
        for model in models:
            sol = gh.solve_milp(model)
            ref = _reference_search(model, node_order, branching)
            assert sol.status == ("optimal" if math.isfinite(ref) else "infeasible")
            if sol.status == "optimal":
                assert sol.objective == pytest.approx(ref, abs=1e-6)

    def test_determinism(self):
        rng = random.Random(31337)
        model, sched, _, _ = _random_model(rng)
        a = gh.solve_milp(model)
        b = gh.solve_milp(model)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.nodes == b.nodes and a.pivots == b.pivots
        if a.values is not None:
            assert np.array_equal(a.values, b.values)
            pa = gh.extract_policy(model, a, sched)
            pb = gh.extract_policy(model, b, sched)
            assert pa == pb

    def test_incumbent_within_gap_of_bound(self):
        rng = random.Random(777)
        for _ in range(20):
            model = _random_model(rng)[0]
            sol = gh.solve_milp(model)
            if sol.status == "optimal":
                assert sol.objective >= sol.best_bound - 1e-9
                assert sol.objective - sol.best_bound <= solver.OPTIMALITY_GAP + 1e-9


def _with_repeated_row(model):
    """A copy of ``model`` holding its first equality row twice: one redundant row."""
    row = next(i for i, con in enumerate(model.constraints) if con.sense == gh.SENSE_EQ)
    copy = gh.MilpModel()
    for j, v in enumerate(model.variables):
        copy.add_variable(v, model.objective_coefficient(j))
    copy.add_objective_offset(model.objective_offset)
    for con in model.constraints + (model.constraints[row],):
        copy.add_row(*con)
    return copy.freeze(model.index)


def _record_bases(monkeypatch):
    """The ``basis`` argument of every LP that ``solve_milp`` solves, in order."""
    bases = []
    solve_lp_arrays = solver.solve_lp_arrays

    def spy(*args, basis=None):
        bases.append(basis)
        return solve_lp_arrays(*args, basis=basis)

    monkeypatch.setattr(solver, "solve_lp_arrays", spy)
    return bases


def _branching_instance():
    """A seeded 6-flight, 5-slot sp model whose search takes about 20 nodes
    and whose 1,200 assignments the closed form can walk, as
    ``(model, schedule, distribution)``."""
    inst = gh.synth_instance(gh.SynthParams(num_flights=6, horizon=5, connection_density=0.5), 19)
    dist = inst.capacities["AP0"]
    return gh.build_s_saghp(inst.schedule, dist), inst.schedule, dist


class TestWarmStart:
    def test_children_match_cold_solves(self):
        # fixing the root's most fractional binary to 0 and to 1: the solve
        # started from the root basis reaches the cold solve's answer
        rng = random.Random(4242)
        models = [_random_model(rng)[0] for _ in range(10)]
        models += [_knapsack_model(rng) for _ in range(10)]
        warm_pivots = cold_pivots = 0
        for model in models:
            a = model.to_arrays()
            root = simplex.solve_lp_arrays(a, a.lower, a.upper)
            assert root.status == "optimal" and root.basis is not None
            bins = np.flatnonzero(a.is_binary)
            frac = np.abs(root.values[bins] - np.round(root.values[bins]))
            j = int(bins[np.argmax(frac)])
            for fixed in (0.0, 1.0):
                lo, up = a.lower.copy(), a.upper.copy()
                lo[j] = up[j] = fixed
                cold = simplex.solve_lp_arrays(a, lo, up)
                warm = simplex.solve_lp_arrays(a, lo, up, basis=root.basis)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
                    assert np.all(warm.values >= lo - 1e-7) and np.all(warm.values <= up + 1e-7)
                warm_pivots += warm.pivots
                cold_pivots += cold.pivots
        # the dual simplex does pivot, and far less than a cold solve
        assert 0 < warm_pivots < cold_pivots / 4

    def test_redundant_row_keeps_a_basis(self):
        # a repeated equality row leaves one of its two fixed slacks basic
        # at zero; the root still reports a basis, so children warm-start
        model, sched, dist = _branching_instance()
        model = _with_repeated_row(model)
        assert gh.solve_lp(model).basis is not None
        sol = gh.solve_milp(model)
        assert sol.nodes > 1
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(brute_force(sched, "sp", dist)[0], abs=1e-6)

    def test_children_start_from_the_parent_basis(self, monkeypatch):
        bases = _record_bases(monkeypatch)
        model = _branching_instance()[0]
        sol = gh.solve_milp(model)
        assert sol.nodes > 1
        assert bases[0] is None and all(b is not None for b in bases[1:])

    def test_no_bound_array_changes_after_its_solve(self, monkeypatch):
        # children share the bound array they do not change with their
        # parent and sibling, so no array an LP was given may be written
        # later in the search
        seen = []
        solve_lp_arrays = solver.solve_lp_arrays

        def spy(a, lower, upper, **kwargs):
            seen.append((lower, upper, lower.copy(), upper.copy()))
            return solve_lp_arrays(a, lower, upper, **kwargs)

        monkeypatch.setattr(solver, "solve_lp_arrays", spy)
        inst = gh.synth_instance(gh.SynthParams(num_flights=14, horizon=12), 1)
        d = inst.capacities["AP0"]
        model = gh.build_dr_saghp(inst.schedule, gh.AmbiguitySpec(d, 0.5, gh.default_support_grid(d)))
        sol = gh.solve_milp(model)
        assert sol.status == "optimal" and sol.nodes == len(seen) == 5
        for lower, upper, lower_then, upper_then in seen:
            assert np.array_equal(lower, lower_then) and np.array_equal(upper, upper_then)
        # each child shares one of its two arrays with an earlier LP
        shared = {id(seen[0][0]), id(seen[0][1])}
        for lower, upper, *_ in seen[1:]:
            assert (id(lower) in shared) != (id(upper) in shared)
            shared.update((id(lower), id(upper)))

    def test_root_restarted_from_its_own_basis_takes_no_pivot(self, monkeypatch):
        model = _branching_instance()[0]
        cold = gh.solve_milp(model)
        assert cold.root_basis is not None
        pivots = []
        solve_lp_arrays = solver.solve_lp_arrays

        def spy(*args, **kwargs):
            lp = solve_lp_arrays(*args, **kwargs)
            pivots.append(lp.pivots)
            return lp

        monkeypatch.setattr(solver, "solve_lp_arrays", spy)
        warm = gh.solve_milp(model, root_basis=cold.root_basis)
        assert pivots[0] == 0
        # the root lands on the same vertex, so the search repeats after it
        assert (warm.status, warm.objective, warm.nodes) == (cold.status, cold.objective, cold.nodes)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(warm.root_basis[0], cold.root_basis[0])

    def test_no_root_basis_without_an_optimal_root(self):
        sol = gh.solve_milp(gh.build_d_saghp(two_flight_schedule(horizon=1), 1))
        assert sol.status == "infeasible"
        assert sol.root_basis is None

    def test_root_basis_of_another_shape_rejected(self):
        other = gh.solve_milp(gh.build_d_saghp(two_flight_schedule(), 1))
        model = _branching_instance()[0]
        with pytest.raises(ValueError, match="basis does not fit"):
            gh.solve_milp(model, root_basis=other.root_basis)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_branch_and_bound_matches_enumeration(self, seed):
        rng = random.Random(9000 + seed)
        model, sched, kind, inputs = _random_model(rng)
        bb = gh.solve_milp(model)
        _agrees_with_closed_form(bb, sched, kind, inputs)
        if bb.status == "optimal":
            assert gh.is_feasible(model, bb.values)

    @pytest.mark.parametrize("seed", range(20))
    def test_network_matches_enumeration(self, seed):
        rng = random.Random(9500 + seed)
        model, sched, kind, inputs = _random_model(rng, kinds=["dr-maghp"])
        bb = gh.solve_milp(model)
        _agrees_with_closed_form(bb, sched, kind, inputs)
        if bb.status == "optimal":
            assert gh.is_feasible(model, bb.values)


def _highs(a, integral=True):
    """``(status, objective)`` of ``scipy.optimize.milp`` on the arrays ``a``;
    ``integral=False`` solves the LP relaxation."""
    rows = LinearConstraint(a.A, np.where(a.senses >= 0, a.b, -np.inf), np.where(a.senses <= 0, a.b, np.inf))
    res = milp(a.c, constraints=rows, integrality=a.is_binary.astype(int) * integral,
               bounds=Bounds(a.lower, a.upper), options={"mip_rel_gap": 0.0})
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return ("optimal", res.fun + a.offset) if res.status == 0 else ("infeasible", math.inf)


def _aggregated_rows(model, sched):
    """One row per connection, sum_t t*x[f1,t] - sum_t t*x[f2,t] <= r1 - r2 + slack,
    built from the column index and the schedule alone."""
    A = np.zeros((len(sched.connections), model.num_variables))
    b = np.zeros(len(sched.connections))
    for i, c in enumerate(sched.connections):
        for (fid, t), j in model.index.x.items():
            A[i, j] = t * ((fid == c.predecessor) - (fid == c.successor))
        b[i] = (sched.flight_by_id[c.predecessor].scheduled_arrival
                - sched.flight_by_id[c.successor].scheduled_arrival + c.slack)
    return A, b


def _with_rows(a, keep, A, b):
    """The dense pieces ``_highs`` reads of ``a`` restricted to the rows in
    ``keep`` plus the ``<=`` rows ``A x <= b``."""
    return SimpleNamespace(c=a.c, offset=a.offset, lower=a.lower, upper=a.upper, is_binary=a.is_binary,
                           A=np.vstack([a.A[keep], A]), b=np.concatenate([a.b[keep], b]),
                           senses=np.concatenate([a.senses[keep], np.full(len(b), -1, dtype=np.int8)]))


def _beta_bound_model(case, seed):
    """A dr model on a 16x12 bundle: ``eps<r>`` on the default grid, ``wide``
    on a grid 0..8 wider than the capacities 1-4, or ``maghp`` on two airports."""
    if case == "maghp":
        return synth_dr_maghp(16, 12, seed)
    inst = gh.synth_instance(gh.SynthParams(num_flights=16, horizon=12), seed)
    dist = inst.capacities["AP0"]
    if case == "wide":
        return gh.build_dr_saghp(inst.schedule, gh.AmbiguitySpec(dist, 0.5, gh.SupportGrid(tuple(range(9)))))
    eps = float(case[3:])
    return gh.build_dr_saghp(inst.schedule, gh.AmbiguitySpec(dist, eps, gh.default_support_grid(dist)))


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("case", ["eps0", "eps0.5", "eps5", "wide", "maghp"])
    def test_beta_lower_bound_cuts_nothing(self, case, seed):
        # the builders give every beta the lower bound 0; HiGHS on the same
        # arrays with beta free must reach the same LP and MILP optimum
        model = _beta_bound_model(case, seed)
        a = model.to_arrays()
        betas = list(model.index.beta.values())
        assert betas and (a.lower[betas] == 0.0).all()
        lower = a.lower.copy()
        lower[betas] = -np.inf
        free = a._replace(lower=lower)
        assert gh.solve_lp(model).objective == pytest.approx(_highs(free, integral=False)[1], abs=1e-6)
        assert gh.solve_milp(model).objective == pytest.approx(_highs(free)[1], abs=1e-6)

    @pytest.mark.parametrize("kind", ["det", "sp", "dr", "dr-maghp"])
    def test_objective_matches_highs(self, kind):
        # generated instances of up to 10 flights x 8 slots, too many
        # assignments for the closed form to walk
        rng = random.Random(9700)
        for _ in range(12):
            params = gh.SynthParams(num_flights=rng.randint(6, 10), horizon=rng.randint(5, 8),
                                    connection_density=0.4)
            inst = gh.synth_instance(params, rng.randrange(10 ** 6))
            model = _build(rng, kind, inst.schedule, inst.capacities["AP0"])[0]
            sol = gh.solve_milp(model)
            status, objective = _highs(model.to_arrays())
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(objective, abs=1e-6)

    @pytest.mark.parametrize("flights,horizon,seed",
                             [(20, 16, 1), (20, 16, 2), (20, 16, 3), (30, 20, 1), (30, 20, 2), (30, 20, 3)])
    def test_by_time_coupling_rows_against_the_aggregated_row(self, flights, horizon, seed):
        # the one-row-per-connection form of the coupling, written here from
        # the schedule: both forms must admit the same integer points, and
        # the by-time rows must imply it in the LP relaxation
        inst = gh.synth_instance(gh.SynthParams(num_flights=flights, horizon=horizon), seed)
        sched, dist = inst.schedule, inst.capacities["AP0"]
        amb = gh.AmbiguitySpec(dist, 0.5, gh.default_support_grid(dist))
        for model in (gh.build_s_saghp(sched, dist), gh.build_dr_saghp(sched, amb)):
            a = model.to_arrays()
            A, b = _aggregated_rows(model, sched)
            uncoupled = np.array([not con.name.startswith("couple[") for con in model.constraints])
            aggregated = _with_rows(a, uncoupled, A, b)
            both = _with_rows(a, np.ones(len(a.b), dtype=bool), A, b)

            assert _highs(aggregated)[1] == pytest.approx(gh.solve_milp(model).objective, abs=1e-6)
            cumulative_lp = _highs(a, integral=False)[1]
            assert _highs(both, integral=False)[1] == pytest.approx(cumulative_lp, abs=1e-6)
            assert cumulative_lp >= _highs(aggregated, integral=False)[1] - 1e-6
