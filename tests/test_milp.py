import dataclasses
import math
import random

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
        assert (b.index, b.name) == (0, "b")
        assert (c.index, c.name) == (1, "c")
        assert m.num_variables == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(gh.ModelError):
            gh.VariableDef(2.0, 1.0)
        with pytest.raises(gh.ModelError):
            gh.VariableDef(-1.0, 1.0, gh.BINARY)

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
        ghost = gh.VariableRef(99, "ghost")
        with pytest.raises(gh.ModelError, match="unknown variable"):
            m.add_row([(ghost, 1.0)], gh.SENSE_LE, 1.0)

    def test_duplicate_term_rejected(self):
        m = gh.MilpModel()
        x0 = m.add_binary("x0")
        with pytest.raises(gh.ModelError, match="duplicate"):
            m.add_row([(x0, 1.0), (x0, 2.0)], gh.SENSE_LE, 1.0)

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_coefficient_rejected(self, coef):
        m = gh.MilpModel()
        x = m.add_continuous("x", 0.0, 1.0)
        m.add_row([(x, 1.0)], gh.SENSE_LE, 1.0)
        with pytest.raises(gh.ModelError, match="not finite"):
            m.add_objective_term(x, coef)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_offset_rejected(self, offset):
        m = gh.MilpModel()
        m.add_continuous("x", 0.0, 1.0)
        with pytest.raises(gh.ModelError, match="must be finite"):
            m.add_objective_offset(offset)

    def test_frozen_model_rejects_changes(self):
        m = gh.MilpModel()
        m.add_binary("x0")
        m.freeze()
        with pytest.raises(gh.ModelError, match="frozen"):
            m.add_binary("x1")


class TestSolutionChecking:
    def test_residuals_flag_violations(self):
        m = gh.MilpModel()
        x = m.add_continuous("x")
        m.add_row([(x, 1.0)], gh.SENSE_LE, 1.0)
        m.add_row([(x, 1.0)], gh.SENSE_GE, 0.5)
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
        for ref, coef in con.terms:
            A[i, ref.index] = coef
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
    raising, solves, feasibility checks and the CLI still run."""

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

    def test_cli_solve_and_sweep(self, tmp_path):
        inst = tmp_path / "inst"
        assert main(["gen", "--flights", "8", "--horizon", "8", "--seed", "2", "--out", str(inst)]) == 0
        for kind in (["sp"], ["dr", "--epsilon", "0.5"]):
            assert main(["solve", str(inst), "--model", *kind, "--out", str(tmp_path / f"{kind[0]}.json")]) == 0
        assert main(["sweep", str(inst), "--sizes", "50", "--seed", "3", "--out", str(tmp_path / "sweep")]) == 0


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
            for ref, coef in con.terms:
                if coef != 0.0:
                    expected_entries[rname, cols[ref.index]] = coef
        parsed_constraint_entries = {
            k: v for k, v in parsed.entries.items() if k[0] != parsed.obj_row}
        assert parsed_constraint_entries.keys() == expected_entries.keys()
        for key, coef in expected_entries.items():
            assert parsed_constraint_entries[key] == pytest.approx(coef, rel=1e-9, abs=1e-12)
