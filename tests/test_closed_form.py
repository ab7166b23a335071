"""The closed-form oracle against the engine on hand-checked instances, and
its independence from the package."""

import ast
from pathlib import Path

import pytest

import groundhold as gh
from closed_form import brute_force
from helpers import one_flight_ambiguity, one_flight_schedule


def test_dr_worked_instance():
    sched = one_flight_schedule()
    amb = one_flight_ambiguity(0.4)
    objective, assignments = brute_force(sched, "dr", amb)
    assert objective == pytest.approx(1.6)
    assert assignments == {"f1": 1}
    assert gh.solve_milp(gh.build_dr_saghp(sched, amb)).objective == pytest.approx(objective, abs=1e-9)


def test_infeasible_coupling():
    # three flights for two slots of capacity one
    sched = gh.FlightSchedule(
        gh.TimeHorizon(2),
        (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0),
         gh.Flight("f3", "A", 2, 1.0)),
        (gh.ConnectionPair("f3", "f1", 0),),
        2.0,
    )
    assert brute_force(sched, "det", 1) == (float("inf"), None)
    assert gh.solve_milp(gh.build_d_saghp(sched, 1)).status == "infeasible"
    # connections both ways force equal delays, so the two flights cannot
    # take the two slots of capacity one that would fit them apart
    pair = gh.FlightSchedule(
        gh.TimeHorizon(2),
        (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0)),
        (gh.ConnectionPair("f1", "f2", 0), gh.ConnectionPair("f2", "f1", 0)),
        2.0,
    )
    assert brute_force(pair, "det", 1) == (float("inf"), None)
    assert gh.solve_milp(gh.build_d_saghp(pair, 1)).status == "infeasible"


def test_imports_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "closed_form.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "the guard found no imports at all"
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "groundhold"]
