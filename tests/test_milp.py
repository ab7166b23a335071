import hashlib
import dataclasses
import math
import random
import sys
import threading

import numpy as np
import pytest

import groundhold as gh
from groundhold.cli import main
from groundhold.milp import ModelArrays
from helpers import lp_model, one_flight_ambiguity, one_flight_schedule, sparse_lp, synth_dr_maghp
from mpsread import parse_mps


class TestModelBuilding:
    def test_add_variable_returns_fresh_handles(self):
        m = gh.MilpModel()
        b = m.add_variable(gh.VariableDef(0.0, 1.0, gh.BINARY, "b"))
        c = m.add_variable(gh.VariableDef(0.0, math.inf, gh.CONTINUOUS, "c"))
        assert (b, m.variables[b].name) == (0, "b")
        assert (c, m.variables[c].name) == (1, "c")
        assert m.num_variables == 2

    def test_invalid_bounds_rejected(self):
        for defn in (gh.VariableDef(2.0, 1.0), gh.VariableDef(-1.0, 1.0, gh.BINARY)):
            m = gh.MilpModel()
            m.add_variable(defn)
            with pytest.raises(gh.ModelError):
                m.freeze()

    def test_add_constraint(self):
        m = gh.MilpModel()
        x0 = m.add_binary("x0")
        x1 = m.add_binary("x1")
        cid = m.add_row([(x0, 1.0), (x1, 1.0)], gh.SENSE_LE, 1.0, "pick-one")
        assert cid == 0
        assert m.num_constraints == 1

    def test_dangling_reference_rejected(self):
        m = gh.MilpModel()
        m.add_binary("x0")
        m.add_binary("x1")
        ghost = 99
        m.add_row([(ghost, 1.0)], gh.SENSE_LE, 1.0)
        with pytest.raises(gh.ModelError, match="unknown variable"):
            m.freeze()

    def test_column_must_be_an_int(self):
        for add in (lambda m: m.add_row([(1.0, 1.0)], gh.SENSE_LE, 1.0),
                    lambda m: m.add_objective_term(1.0, 1.0)):
            m = gh.MilpModel()
            m.add_binary("x0")
            m.add_binary("x1")
            add(m)
            with pytest.raises(TypeError):
                m.freeze()

    def test_duplicate_term_rejected(self):
        m = gh.MilpModel()
        x0 = m.add_binary("x0")
        m.add_row([(x0, 1.0), (x0, 2.0)], gh.SENSE_LE, 1.0)
        with pytest.raises(gh.ModelError, match="duplicate"):
            m.freeze()

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_coefficient_rejected(self, coef):
        m = gh.MilpModel()
        x = m.add_continuous("x", 0.0, 1.0)
        m.add_row([(x, 1.0)], gh.SENSE_LE, 1.0)
        m.add_objective_term(x, coef)
        with pytest.raises(gh.ModelError, match="not finite"):
            m.freeze()

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_offset_rejected(self, offset):
        m = gh.MilpModel()
        m.add_continuous("x", 0.0, 1.0)
        m.add_objective_offset(offset)
        with pytest.raises(gh.ModelError, match="must be finite"):
            m.freeze()

    def test_frozen_model_rejects_changes(self):
        m = gh.MilpModel()
        m.add_binary("x0")
        m.freeze()
        with pytest.raises(gh.ModelError, match="frozen"):
            m.add_binary("x1")

    @pytest.mark.parametrize("read", [
        lambda m: m.to_arrays(),
        gh.solve_lp,
        gh.solve_milp,
        lambda m: gh.is_feasible(m, [0.5]),
        gh.export_mps,
        lambda m: m.objective_offset,
        lambda m: m.objective_coefficient(0),
    ], ids=["to_arrays", "solve_lp", "solve_milp", "is_feasible", "export_mps", "objective_offset",
            "objective_coefficient"])
    def test_unfrozen_model_has_no_numbers_to_read(self, read):
        m = gh.MilpModel()
        x = m.add_continuous("x", 0.0, 1.0)
        m.add_objective_term(x, 1.0)
        m.add_row([(x, 1.0)], gh.SENSE_LE, 1.0)
        with pytest.raises(gh.ModelError, match="not frozen"):
            read(m)
        assert not m.frozen
        m.freeze()
        assert m.frozen and m.to_arrays() is m.to_arrays()


def _two_columns(add):
    """A model with a binary ``x0`` and a column ``x1`` in [0, 1] and one
    good row, to which ``add(m, x0, x1)`` then adds one input."""
    m = gh.MilpModel()
    x0, x1 = m.add_binary("x0"), m.add_continuous("x1", 0.0, 1.0)
    m.add_row([(x0, 1.0), (x1, 1.0)], gh.SENSE_LE, 1.0, "ok")
    add(m, x0, x1)
    return m


# one case per input that adding a variable, row or objective term accepts
# and freeze rejects: (add, error class, message pattern)
_REJECTED_AT_FREEZE = {
    "unknown-column": (lambda m, x0, x1: m.add_row([(x0, 1.0), (7, 1.0)], gh.SENSE_LE, 1.0, "r"),
                       gh.ModelError, r"constraint 'r' references unknown variable #7"),
    "negative-column": (lambda m, x0, x1: m.add_row([(-1, 1.0)], gh.SENSE_LE, 1.0, "r"),
                        gh.ModelError, r"constraint 'r' references unknown variable #-1"),
    "float-column": (lambda m, x0, x1: m.add_row([(1.0, 1.0)], gh.SENSE_LE, 1.0), TypeError, "int"),
    "duplicate-column": (lambda m, x0, x1: m.add_row([(x1, 1.0), (x0, 2.0), (x1, 3.0)], gh.SENSE_LE, 1.0, "r"),
                         gh.ModelError, r"duplicate variable #1 in constraint 'r'"),
    "duplicate-zero-column": (lambda m, x0, x1: m.add_row([(x0, 0.0), (x0, 2.0)], gh.SENSE_LE, 1.0, "r"),
                              gh.ModelError, r"duplicate variable #0 in constraint 'r'"),
    "nan-coefficient": (lambda m, x0, x1: m.add_row([(x1, math.nan)], gh.SENSE_LE, 1.0),
                        gh.ModelError, r"constraint '' coefficient for variable #1 is not finite"),
    "inf-coefficient": (lambda m, x0, x1: m.add_row([(x0, -math.inf)], gh.SENSE_LE, 1.0),
                        gh.ModelError, r"constraint '' coefficient for variable #0 is not finite"),
    "nan-rhs": (lambda m, x0, x1: m.add_row([(x0, 1.0)], gh.SENSE_LE, math.nan),
                gh.ModelError, r"constraint rhs must be finite, got nan"),
    "inf-rhs": (lambda m, x0, x1: m.add_row([(x0, 1.0)], gh.SENSE_GE, math.inf),
                gh.ModelError, r"constraint rhs must be finite, got inf"),
    "unknown-sense": (lambda m, x0, x1: m.add_row([(x0, 1.0)], "<", 1.0),
                      gh.ModelError, r"unknown constraint sense '<'"),
    "nan-lower": (lambda m, x0, x1: m.add_continuous("v", math.nan, 1.0),
                  gh.ModelError, r"variable #2: variable bounds must not be NaN"),
    "nan-upper": (lambda m, x0, x1: m.add_continuous("v", 0.0, math.nan),
                  gh.ModelError, r"variable #2: variable bounds must not be NaN"),
    "lower-above-upper": (lambda m, x0, x1: m.add_continuous("v", 2.0, 1.0),
                          gh.ModelError, r"variable #2: lower bound 2.0 exceeds upper bound 1.0"),
    "binary-below-0": (lambda m, x0, x1: m.add_variable(gh.VariableDef(-1.0, 1.0, gh.BINARY)),
                       gh.ModelError, r"variable #2: binary variable bounds must lie within \[0, 1\]"),
    "binary-above-1": (lambda m, x0, x1: m.add_variable(gh.VariableDef(0.0, 2.0, gh.BINARY)),
                       gh.ModelError, r"variable #2: binary variable bounds must lie within \[0, 1\]"),
    "unknown-kind": (lambda m, x0, x1: m.add_variable(gh.VariableDef(0.0, 1.0, "integer")),
                     gh.ModelError, r"variable #2: unknown variable kind 'integer'"),
    "objective-unknown-column": (lambda m, x0, x1: m.add_objective_term(2, 1.0),
                                 gh.ModelError, r"objective references unknown variable #2"),
    "objective-negative-column": (lambda m, x0, x1: m.add_objective_term(-1, 1.0),
                                  gh.ModelError, r"objective references unknown variable #-1"),
    "objective-float-column": (lambda m, x0, x1: m.add_objective_term(1.0, 1.0), TypeError, "int"),
    "objective-nan": (lambda m, x0, x1: m.add_objective_term(x1, math.nan),
                      gh.ModelError, r"objective coefficient for variable #1 is not finite"),
    "objective-inf": (lambda m, x0, x1: m.add_objective_term(x0, math.inf),
                      gh.ModelError, r"objective coefficient for variable #0 is not finite"),
    "offset-nan": (lambda m, x0, x1: m.add_objective_offset(math.nan),
                   gh.ModelError, r"objective offset must be finite, got nan"),
    "offset-inf": (lambda m, x0, x1: m.add_objective_offset(-math.inf),
                   gh.ModelError, r"objective offset must be finite, got -inf"),
}


class TestFreezeChecks:
    @pytest.mark.parametrize("case", _REJECTED_AT_FREEZE)
    def test_rejected_at_freeze_and_left_unfrozen(self, case):
        add, error, message = _REJECTED_AT_FREEZE[case]
        m = _two_columns(add)
        with pytest.raises(error, match=message):
            m.freeze()
        assert not m.frozen
        with pytest.raises(gh.ModelError, match="not frozen"):
            m.to_arrays()

    def test_message_names_the_first_offending_row_and_column(self):
        m = _two_columns(lambda m, x0, x1: None)
        m.add_row([(x, 1.0) for x in (0, 9)], gh.SENSE_LE, 1.0, "b")
        m.add_row([(8, 1.0)], gh.SENSE_LE, 1.0, "c")
        with pytest.raises(gh.ModelError, match=r"^constraint 'b' references unknown variable #9$"):
            m.freeze()
        m = _two_columns(lambda m, x0, x1: None)
        for j, (lower, upper) in enumerate([(0.0, 1.0), (2.0, 0.0), (1.5, 0.0)]):
            m.add_continuous(f"v{j}", lower, upper)
        with pytest.raises(gh.ModelError, match=r"^variable #3: lower bound 2.0 exceeds upper bound 0.0$"):
            m.freeze()

    def test_terms_sum_in_call_order(self):
        m = gh.MilpModel()
        x = m.add_continuous("x")
        for coef in (0.1, 0.2, 0.3, -0.0):
            m.add_objective_term(x, coef)
        m.add_objective_term(m.add_continuous("z"), -0.0)
        c = m.freeze().to_arrays().c
        assert c[0] == ((0.0 + 0.1) + 0.2) + 0.3 and c[0] != 0.1 + (0.2 + 0.3)
        assert math.copysign(1.0, c[1]) == 1.0


class TestSolutionChecking:
    def test_residuals_flag_violations(self):
        m = gh.MilpModel()
        x = m.add_continuous("x")
        m.add_row([(x, 1.0)], gh.SENSE_LE, 1.0)
        m.add_row([(x, 1.0)], gh.SENSE_GE, 0.5)
        m.freeze()
        assert gh.is_feasible(m, [0.75])
        assert not gh.is_feasible(m, [2.0])
        res = gh.constraint_residuals(m, [2.0])
        assert res[0] == pytest.approx(1.0)

    def test_optimal_solutions_satisfy_constraints(self):
        sched = one_flight_schedule()
        model = gh.build_dr_saghp(sched, one_flight_ambiguity(0.4))
        sol = gh.solve_milp(model)
        assert sol.status == "optimal"
        assert gh.is_feasible(model, sol.values)
        binaries = [v for v, d in zip(sol.values, model.variables) if d.kind == gh.BINARY]
        assert all(min(abs(v), abs(v - 1.0)) <= 1e-6 for v in binaries)


def _dense(model):
    """The constraint matrix written entry by entry from the model's terms."""
    A = np.zeros((model.num_constraints, model.num_variables))
    for i, con in enumerate(model.constraints):
        for j, coef in con.terms:
            A[i, j] = coef
    return A


def _zero_coefficients_model():
    """Rows with ``0.0`` and ``-0.0`` terms, terms out of column order, an
    empty row, and a column whose every term is zero."""
    m = gh.MilpModel()
    x = [m.add_continuous(f"x{j}", -2.0, 3.0) for j in range(4)]
    m.add_row([(x[1], 2.0), (x[0], 0.0)], gh.SENSE_LE, 4.0)
    m.add_row([(x[3], -1.5), (x[2], -0.0), (x[0], 1.0)], gh.SENSE_GE, -1.0)
    m.add_row([], gh.SENSE_LE, 1.0)
    m.add_row([(x[2], 0.0), (x[1], -1.0), (x[3], 2.5)], gh.SENSE_EQ, 0.5)
    return m.freeze()


def _airborne_free_dr_model():
    """A dr model whose schedule has ``airborne_cost = 0``: its ``dual``
    rows carry ``-0.0`` terms."""
    inst = gh.synth_instance(gh.SynthParams(num_flights=6, horizon=6), 3)
    dist = inst.capacities["AP0"]
    sched = dataclasses.replace(inst.schedule, airborne_cost=0.0)
    model = gh.build_dr_saghp(sched, gh.AmbiguitySpec(dist, 0.5, gh.default_support_grid(dist)))
    assert any(c == 0.0 and math.copysign(1.0, c) < 0 for con in model.constraints for _, c in con.terms)
    return model


def _rowless_model():
    m = gh.MilpModel()
    for j in range(3):
        m.add_objective_term(m.add_continuous(f"x{j}", 0.0, 1.0), float(j))
    return m.freeze()


_STORAGE_CASES = {
    "zero-coefficients": _zero_coefficients_model,
    "airborne-free-dr": _airborne_free_dr_model,
    **{f"sparse-{seed}": (lambda seed=seed: lp_model(*sparse_lp(random.Random(9000 + seed), 80, 0.03)))
       for seed in range(3)},
    "no-rows": _rowless_model,
}


class TestColumnStorage:
    @pytest.mark.parametrize("case", _STORAGE_CASES)
    def test_layout_is_that_of_the_dense_matrix(self, case):
        # by column, rows ascending, exact zeros (either sign) dropped: the
        # layout np.nonzero gives on the dense matrix's transpose
        model = _STORAGE_CASES[case]()
        a = model.to_arrays()
        dense = _dense(model)
        cols, rows = np.nonzero(dense.T)
        for got, want in ((a.cols, cols), (a.rows, rows), (a.vals, dense[rows, cols]),
                          (a.ptr, np.searchsorted(cols, np.arange(model.num_variables + 1)))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(a.A, dense)
        if case.startswith("sparse"):
            assert (np.diff(a.ptr) == 0).any()  # at least one empty column

        v = np.random.default_rng(7).uniform(-3.0, 3.0, model.num_variables)
        lhs = dense @ v
        expected = np.where(a.senses < 0, lhs - a.b, np.where(a.senses > 0, a.b - lhs, np.abs(lhs - a.b)))
        np.testing.assert_allclose(gh.constraint_residuals(model, v), expected, rtol=0, atol=1e-9)


class TestNoDenseMatrix:
    """Every engine path reads only the column storage: with ``ModelArrays.A``
    raising, solves, feasibility checks, MPS export and the CLI still run."""

    @pytest.fixture(autouse=True)
    def _refuse_dense(self, monkeypatch):
        def refuse(arrays):
            raise AssertionError("the dense A was built")

        monkeypatch.setattr(ModelArrays, "A", property(refuse))

    @pytest.mark.parametrize("kind", ["sp", "dr", "dr-maghp"])
    def test_solve_milp_and_is_feasible(self, kind):
        if kind == "dr-maghp":
            model = synth_dr_maghp(8, 8, 1)
        else:
            inst = gh.synth_instance(gh.SynthParams(num_flights=8, horizon=8), 1)
            dist = inst.capacities["AP0"]
            model = (gh.build_s_saghp(inst.schedule, dist) if kind == "sp" else
                     gh.build_dr_saghp(inst.schedule, gh.AmbiguitySpec(dist, 0.5, gh.default_support_grid(dist))))
        sol = gh.solve_milp(model)
        assert sol.status == "optimal"
        assert gh.is_feasible(model, sol.values)
        assert gh.solve_lp(model).status == "optimal"
        assert parse_mps(gh.export_mps(model)).num_cols == model.num_variables

    def test_cli_solve_and_sweep(self, tmp_path):
        inst = tmp_path / "inst"
        assert main(["gen", "--flights", "8", "--horizon", "8", "--seed", "2", "--out", str(inst)]) == 0
        for kind in (["sp"], ["dr", "--epsilon", "0.5"]):
            assert main(["solve", str(inst), "--model", *kind, "--out", str(tmp_path / f"{kind[0]}.json")]) == 0
        assert main(["sweep", str(inst), "--sizes", "50", "--seed", "3", "--out", str(tmp_path / "sweep")]) == 0


def _dr_ambiguity(radius: float):
    inst = gh.synth_instance(gh.SynthParams(num_flights=8, horizon=8), 2)
    dist = inst.capacities["AP0"]
    return inst.schedule, gh.AmbiguitySpec(dist, radius, gh.default_support_grid(dist))


def _dr_model(radius: float) -> gh.MilpModel:
    return gh.build_dr_saghp(*_dr_ambiguity(radius))


class TestRepriced:
    """A repriced sibling is the model built at the new cost, sharing every
    array but ``c`` with the model it came from."""

    @pytest.mark.parametrize("radius", [0.0, 0.5, 100.0, -0.0])
    def test_equals_a_fresh_build(self, radius):
        base = _dr_model(0.3)
        fresh = _dr_model(radius)
        alpha = base.index.alpha[None]
        for sibling in (base.repriced({alpha: radius}), gh.reprice_dr_saghp(base, _dr_ambiguity(radius)[1])):
            assert gh.export_mps(sibling) == gh.export_mps(fresh)
            assert sibling.to_arrays().c.tobytes() == fresh.to_arrays().c.tobytes()  # -0.0 stored as 0.0
            assert sibling.index is base.index
            assert sibling.frozen

    def test_shares_every_array_but_c(self):
        base = _dr_model(0.3)
        before = base.to_arrays()
        c = before.c.copy()
        alpha = base.index.alpha[None]
        sibling = base.repriced({alpha: 7.0})
        a = sibling.to_arrays()
        assert sibling.to_arrays() is a and base.to_arrays() is before
        for field in ModelArrays._fields:
            if field != "c":
                assert getattr(a, field) is getattr(before, field), field
        assert a.c is not before.c
        assert a.c[alpha] == 7.0
        assert np.array_equal(np.delete(a.c, alpha), np.delete(c, alpha))
        assert np.array_equal(before.c, c)
        assert base.objective_coefficient(alpha) == 0.3
        assert sibling.objective_coefficient(alpha) == 7.0
        assert sibling.constraints == base.constraints and sibling.variables == base.variables
        assert sibling.objective_offset == base.objective_offset

    @pytest.mark.parametrize("costs", [{-1: 1.0}, {"n": 1.0}, {0: math.nan}, {0: math.inf}, {0: -math.inf}])
    def test_rejects_bad_costs(self, costs):
        base = _dr_model(0.3)
        costs = {(base.num_variables if j == "n" else j): v for j, v in costs.items()}
        with pytest.raises(gh.ModelError):
            base.repriced(costs)

    def test_rejects_an_unfrozen_model(self):
        m = gh.MilpModel()
        m.add_continuous("x")
        with pytest.raises(gh.ModelError, match="frozen"):
            m.repriced({0: 1.0})

    def test_reprice_dr_saghp_needs_a_single_airport_robust_model(self):
        inst = gh.synth_instance(gh.SynthParams(num_flights=6, horizon=6), 1)
        amb = gh.AmbiguitySpec(inst.capacities["AP0"], 0.5, gh.default_support_grid(inst.capacities["AP0"]))
        for model in (gh.build_s_saghp(inst.schedule, inst.capacities["AP0"]), synth_dr_maghp(6, 6, 1)):
            with pytest.raises(ValueError, match="single-airport robust"):
                gh.reprice_dr_saghp(model, amb)

    @pytest.mark.parametrize("what", ["grid", "support", "probabilities"])
    def test_reprice_dr_saghp_rejects_another_spec(self, what):
        # each spec differs from the model's in one of the three only, and
        # builds a model of another shape or cost
        sched, amb = _dr_ambiguity(0.3)
        base = gh.build_dr_saghp(sched, amb)
        emp, grid = amb.empirical, amb.grid
        if what == "grid":
            grid = gh.SupportGrid(grid.values + (grid.values[-1] + 1,))
        elif what == "support":
            emp = gh.CapacityDistribution(emp.support_points[:-1], (1.0 / (emp.size - 1),) * (emp.size - 1))
        else:
            emp = gh.CapacityDistribution(emp.support_points, (1.0 / emp.size,) * emp.size)
            assert emp.probabilities != amb.empirical.probabilities
        other = gh.AmbiguitySpec(emp, 0.5, grid)
        with pytest.raises(ValueError, match=f"the spec's {what} "):
            gh.reprice_dr_saghp(base, other)

    def test_threads_sharing_a_model_get_one_build(self):
        # more threads than cores make the first to_arrays call together
        models = [_dr_model(0.3) for _ in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model in models:
                barrier = threading.Barrier(8)
                got = []

                def first_call():
                    barrier.wait(timeout=10)
                    got.append(model.to_arrays())

                threads = [threading.Thread(target=first_call) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 8 and all(a is got[0] for a in got)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("repriced", [False, True])
    def test_cached_arrays_are_read_only(self, repriced):
        model = _dr_model(0.3)
        if repriced:
            model = model.repriced({model.index.alpha[None]: 1.0})
        a = model.to_arrays()
        for field in ModelArrays._fields:
            value = getattr(a, field)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0


def _random_model(rng: random.Random) -> gh.MilpModel:
    m = gh.MilpModel()
    refs = []
    for j in range(rng.randint(1, 7)):
        kind = rng.choice(["bin", "pos", "free", "boxed", "fixed"])
        if kind == "bin":
            refs.append(m.add_binary(f"b{j}"))
        elif kind == "pos":
            refs.append(m.add_continuous(f"p{j}"))
        elif kind == "free":
            refs.append(m.add_continuous(f"f{j}", -math.inf, math.inf))
        elif kind == "boxed":
            lo = round(rng.uniform(-4, 0), 3)
            refs.append(m.add_continuous(f"x{j}", lo, lo + round(rng.uniform(0.5, 5), 3)))
        else:
            v = round(rng.uniform(-2, 2), 3)
            refs.append(m.add_variable(gh.VariableDef(v, v, gh.CONTINUOUS, f"c{j}")))
        if rng.random() < 0.8:
            m.add_objective_term(refs[-1], round(rng.uniform(-3, 3), 3))
    if rng.random() < 0.5:
        m.add_objective_offset(round(rng.uniform(-5, 5), 3))
    for i in range(rng.randint(0, 6)):
        terms = [(r, round(rng.uniform(-2, 2), 3)) for r in refs if rng.random() < 0.6]
        terms = [(r, c) for r, c in terms if c != 0.0]
        if not terms:
            continue
        sense = rng.choice([gh.SENSE_LE, gh.SENSE_EQ, gh.SENSE_GE])
        m.add_row(terms, sense, round(rng.uniform(-4, 4), 3), f"row{i}")
    return m.freeze()


class TestMpsExport:
    def test_empty_model(self):
        parsed = parse_mps(gh.export_mps(gh.MilpModel().freeze()))
        assert parsed.num_rows == 0
        assert parsed.num_cols == 0

    def test_two_var_one_constraint_counts(self):
        m = gh.MilpModel()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_row([(x, 1.0), (y, 1.0)], gh.SENSE_LE, 2.0)
        parsed = parse_mps(gh.export_mps(m.freeze()))
        assert (parsed.num_rows, parsed.num_cols) == (1, 2)

    def test_dr_model_column_count_matches_dimension_formula(self):
        sched = one_flight_schedule()
        amb = one_flight_ambiguity(0.4)
        parsed = parse_mps(gh.export_mps(gh.build_dr_saghp(sched, amb)))
        slots = sum(len(sched.available_slots(f)) for f in sched.flights)
        expected = slots + len(amb.grid) * sched.horizon.num_slots + 1 + amb.empirical.size
        assert parsed.num_cols == expected

    def test_dr_models_write_no_free_bound(self):
        # beta has the default lower bound 0, so a dr model's BOUNDS section
        # has no FR line and beta reads back as [0, inf)
        for model in (gh.build_dr_saghp(one_flight_schedule(), one_flight_ambiguity(0.4)),
                      synth_dr_maghp(8, 6, 1)):
            text = gh.export_mps(model)
            assert not [line for line in text.splitlines() if line.split()[:1] == ["FR"]]
            parsed = parse_mps(text)
            for j in model.index.beta.values():
                assert parsed.bounds(parsed.column_order[j]) == (0.0, math.inf)

    def test_fixed_format_field_positions(self):
        m = gh.MilpModel()
        x = m.add_continuous("x", 1.0, 5.0)
        m.add_objective_term(x, 2.5)
        m.add_row([(x, 1.0)], gh.SENSE_GE, 1.25, "r")
        text = gh.export_mps(m.freeze())
        column_lines = [l for l in text.splitlines()
                        if l.startswith("    C") or l.startswith("    RHS")]
        for line in column_lines:
            assert line[4:12].strip()             # field 2 starts at column 5
            assert line[14:22].strip()            # field 3 at column 15
            assert line[24:36].strip()            # field 4 at column 25

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_random_models(self, seed):
        m = _random_model(random.Random(seed))
        parsed = parse_mps(gh.export_mps(m))
        assert parsed.num_cols == m.num_variables
        assert parsed.num_rows == m.num_constraints
        assert parsed.objective_offset == pytest.approx(m.objective_offset, abs=1e-9)

        senses = [s for _, s in parsed.rows]
        assert senses == [c.sense for c in m.constraints]
        for (rname, _), con in zip(parsed.rows, m.constraints):
            assert parsed.rhs.get(rname, 0.0) == pytest.approx(con.rhs, abs=1e-9)

        cols = parsed.column_order
        expected_binaries = {cols[j] for j, d in enumerate(m.variables) if d.kind == gh.BINARY}
        assert parsed.binaries == expected_binaries
        for j, d in enumerate(m.variables):
            lo, up = parsed.bounds(cols[j])
            if d.kind == gh.BINARY:
                assert (lo, up) == (0.0, 1.0)
            else:
                assert lo == pytest.approx(d.lower, abs=1e-9)
                assert up == pytest.approx(d.upper, abs=1e-9)
            assert parsed.objective(cols[j]) == pytest.approx(
                m.objective_coefficient(j), abs=1e-9)

        # identical sparse pattern and coefficients
        expected_entries = {}
        for i, con in enumerate(m.constraints):
            rname = parsed.rows[i][0]
            for j, coef in con.terms:
                if coef != 0.0:
                    expected_entries[rname, cols[j]] = coef
        parsed_constraint_entries = {
            k: v for k, v in parsed.entries.items() if k[0] != parsed.obj_row}
        assert parsed_constraint_entries.keys() == expected_entries.keys()
        for key, coef in expected_entries.items():
            assert parsed_constraint_entries[key] == pytest.approx(coef, rel=1e-9, abs=1e-12)


# -- export_mps golden ----------------------------------------------------------

# `gen` flags per bundle, then (bundle, `export-mps` model flags) per model
_MPS_BUNDLES = {
    "b16x12-g1": ["--flights", "16", "--horizon", "12", "--seed", "1"],
    "s14x12-g1": ["--flights", "14", "--horizon", "12", "--seed", "1"],
    "g8x8-g2": ["--flights", "8", "--horizon", "8", "--seed", "2"],
    "a20x12-g1": ["--flights", "20", "--horizon", "12", "--density", "0", "--seed", "1"],
    "n12x8-g1": ["--flights", "12", "--horizon", "8", "--density", "0", "--airports", "2", "--seed", "1"],
    "n8x6-g2": ["--flights", "8", "--horizon", "6", "--airports", "2", "--seed", "2"],
}
_SINGLE_AIRPORT_MODELS = {
    "det": ["det"], "sp": ["sp"],
    **{f"dr{eps}": ["dr", "--epsilon", eps] for eps in ("0", "0.5", "100")},
}
_MPS_CLI_CASES = {
    **{f"{b}-{k}": (b, flags) for b in ("b16x12-g1", "s14x12-g1", "g8x8-g2", "a20x12-g1")
       for k, flags in _SINGLE_AIRPORT_MODELS.items()},
    **{f"{b}-dr-maghp": (b, ["dr-maghp", "--epsilon", "0.5"]) for b in ("n12x8-g1", "n8x6-g2")},
}
_MPS_LIBRARY_CASES = {
    **_STORAGE_CASES,
    **{f"sparse-lp-{seed}": (lambda seed=seed: lp_model(*sparse_lp(random.Random(seed), 60, 0.05)))
       for seed in range(10)},
    **{f"random-{seed}": (lambda seed=seed: _random_model(random.Random(seed))) for seed in range(10)},
    "empty": lambda: gh.MilpModel().freeze(),
}

# sha256 of each model's export_mps text, recorded when the exporter read the
# constraint terms instead of the column storage
_MPS_GOLDEN = {
    "b16x12-g1-det": "e4623fc15cd96767ebbb609bcb20756f5aa0c94f6aad19231c394c9ea0d5783f",
    "b16x12-g1-sp": "5cbae42c3e3dfe107f1fd8c33d56d3a8a6f1ecb8f544e6684b29edbe4290bfff",
    "b16x12-g1-dr0": "749b57147c0cc56117bd10261fc515c0fef13012b0184d9974254f8a198bc3ee",
    "b16x12-g1-dr0.5": "785cc11d01757b7faad181e03f7ac9cf6f7b0a96b467c0de1535e3713c29232f",
    "b16x12-g1-dr100": "2862a593db88649a1bfc632333d5fed37dfdc837d9af9e9bf2e7e50fa8b6fba2",
    "s14x12-g1-det": "1a253fd3de0838a1c88cdaa7b9ece13d44c64d76c8fd6e01d023fecc786b2108",
    "s14x12-g1-sp": "463439144326387a64863b6596d2d004f5cac25a0d1c18b8aa8b5eae44f7b6ea",
    "s14x12-g1-dr0": "af835cf9b3e69440d8ec745d580de7512d5cb9476aaca7859f37b70dd3ded6ec",
    "s14x12-g1-dr0.5": "2396e77267a2c1e8cfdf235ebd1a37f48152f51956343d055aa933f3c0544cef",
    "s14x12-g1-dr100": "19b34d437e0c4bef33a4307baed8cc85b996cdf05f89fbe6da0b3fd98d007eee",
    "g8x8-g2-det": "bc940282882a5ffb60ae2a16079e816ab6d5ac0abaeb70aac1fbad3e130f7f86",
    "g8x8-g2-sp": "03449b000fc5eda76f07a0560759c784b0d877692f69aaf3f01fd1574b4ea00c",
    "g8x8-g2-dr0": "864b36ba42ef7c227f5ef62b67b133dc3b54cad2b8016ea9f336da1f697f4588",
    "g8x8-g2-dr0.5": "ed982fbab62e4c9a2f77c941a7034f2f9372d822a18a2659df80d1859c86556c",
    "g8x8-g2-dr100": "3456c4a3f815aed69938bf7435bdccb27b6580421ed69e15784ab0a658a28f6c",
    "a20x12-g1-det": "9ac20085be4d3d0a758311b250654bb06503f3ba1cfd72957ebff21e2ae2b76c",
    "a20x12-g1-sp": "80d986aa7f182d7cde32a8fb1e072831af7602a6c3089caa171d7191e5073077",
    "a20x12-g1-dr0": "1d8a00d3030c8f0bae9d7419956e28c58d0cc8c79af029d513679f14ad4e15c1",
    "a20x12-g1-dr0.5": "6a3e4076e2df609235b0dccee3780be1f00b2e319c7180dbc70d13c2cfc2e1c4",
    "a20x12-g1-dr100": "aae14231dbdd40852818d97505b027c29d67d89af59fcac5f4f4a93b39361a9c",
    "n12x8-g1-dr-maghp": "ec077ce4c3083a63057636a1567ed4dac06206d651d294f9724f79a90f9750af",
    "n8x6-g2-dr-maghp": "039948d92a22b93f51a9ade77a0dab589b3009b4323c8b0841a2a21c7ad01e83",
    "zero-coefficients": "152d51713a32d4dba5e490f179a2987c65b821d1282c8f0f607cdb8253b0c114",
    "airborne-free-dr": "f76b1631ec1cfb3ab397c8c14f0b7069d083ede446d78b6b07d8b78808887c85",
    "sparse-0": "4e07007201e06e582beeb07d7a7813475a6c0bc3bedb7c4eeb29d3811a9ac5c7",
    "sparse-1": "79915e05d525183aab780d339815850b7bc5a702c60da5c11e571c368634d619",
    "sparse-2": "d31b281ca14a7179bcf0b74b202b67638c2b813ad3bfadb77b2a6e9546b2f3c4",
    "no-rows": "b775463da581e9c5fb7783cd1590b22dc1228fc155bd1d15d63cc70c75c07204",
    "sparse-lp-0": "d3a1d09add7eb5f742484e69061d6baa3aa0467c887be19f5361757e4a1cc91f",
    "sparse-lp-1": "c7a6ba1660511237a3ed6dc74a55545ea7d853827540ca29f3a7b7a121a66be4",
    "sparse-lp-2": "db211728766680a9d0846df663be29c4ffa9c66852984fa1ccbe0497e0c4884a",
    "sparse-lp-3": "8f7274b60a08cdf84107c8aec5f61e8c0fabdda8f1ea27d2e7a9d621de024f09",
    "sparse-lp-4": "7208cbaa7bd5f17c8267eef0e078137c5d44fbbd22d38447b8a35a0586131093",
    "sparse-lp-5": "55c8a19c2f2db0e40bddd7aed5125f821ebe59f1a0cffd8e55255da6b997c274",
    "sparse-lp-6": "2f943cbca7fdcdb8f8ae93cc857985297d79d44de7a9c865686b8bbfc9ade540",
    "sparse-lp-7": "3c8d2dc750454986c5c2a87cfbfcb281e86217329cf776ea1c970a1c60e015f0",
    "sparse-lp-8": "fe104876c41ae60ca8f36f85bc3ab006dd88627b39f578825c7550cc17a39958",
    "sparse-lp-9": "f8130c63f6f844b8be953a8aea871d2d11a65602cb358430ecbdaa27e48f2bfb",
    "random-0": "ae4264e25c04a8dcf9d53966057e3800d161094f1a355e155a71545610322da6",
    "random-1": "e84f77a7a57fc5c5d2bb7e05b42f1b32df5d83f434bd4ddcc5ca5cfbcd407eb5",
    "random-2": "c27232cce0a8b6b9eb1700cb64bde205dda892f1efe5d9eb053aedab337b394b",
    "random-3": "f1e3b1b47e7afee67e14d97addef39e3c6443c72688e9d5bf5b32029b69e98ff",
    "random-4": "b794b923e81246bcd23690117dccf76e311c242bc4424211b1771826426d9368",
    "random-5": "545e1d2e75565d0d4cd158efba0f7be33759937a2a9a350e1e5c8b756776cd14",
    "random-6": "135a11cd29f04a5b0fb71660c269676b75de6f8be2e3afdc2f7c3e2153b60121",
    "random-7": "9f2e6a03b63549091011336f59cee792742e33b1eb94780e60f4bca5a6b65076",
    "random-8": "04fea7b28bb170896ddc4ca32f8f6fb1033f446a1af4a44147d6d3344f0ac138",
    "random-9": "f222e478fae5706487ce6ce47a2a3082cecab73c931128c44bf74de2104c5a66",
    "empty": "1bd282cc1f8cd77f6d3ed8bb0f520711da471531a758b376c7630af02e2a8cbe",
}


@pytest.fixture(scope="module")
def mps_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("mps-bundles")
    for name, flags in _MPS_BUNDLES.items():
        assert main(["gen", *flags, "--out", str(root / name)]) == 0
    return root


class TestMpsGolden:
    @pytest.mark.parametrize("case", _MPS_CLI_CASES)
    def test_cli_models(self, case, mps_bundles, tmp_path):
        bundle, flags = _MPS_CLI_CASES[case]
        out = tmp_path / "model.mps"
        assert main(["export-mps", str(mps_bundles / bundle), "--model", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _MPS_GOLDEN[case]

    @pytest.mark.parametrize("case", _MPS_LIBRARY_CASES)
    def test_library_models(self, case):
        text = gh.export_mps(_MPS_LIBRARY_CASES[case]())
        assert hashlib.sha256(text.encode()).hexdigest() == _MPS_GOLDEN[case]
