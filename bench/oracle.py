"""Answer checks, run after the timed region.

Every optimum is compared with HiGHS (``scipy.optimize.milp``) on the same
model's ``to_arrays()``, and every returned policy is checked to be optimal
for its model by fixing its ``x`` columns and solving the rest with
``scipy.optimize.linprog``.  No golden output is stored, because a change to
the engine may legitimately return another optimum with the same objective.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from groundhold.domain import AmbiguitySpec, NetworkInstance, default_support_grid
from groundhold.evaluate import deterministic_capacity
from groundhold.ingest import load_instance
from groundhold.models import (
    GroundHoldingPolicy,
    build_d_saghp,
    build_dr_maghp,
    build_dr_saghp,
    build_s_saghp,
    check_policy,
)

OBJ_TOL = 1e-6


class Mismatch(Exception):
    """An answer that disagrees with the oracle."""


def _rows(arrays):
    lb = np.where(arrays.senses >= 0, arrays.b, -np.inf)
    ub = np.where(arrays.senses <= 0, arrays.b, np.inf)
    return LinearConstraint(arrays.A, lb, ub)


def highs_optimum(arrays) -> float:
    res = milp(arrays.c, constraints=_rows(arrays), integrality=arrays.is_binary.astype(int),
               bounds=Bounds(arrays.lower, arrays.upper), options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise Mismatch(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun) + arrays.offset


def policy_objective(model, arrays, assignments: dict[str, int]) -> float:
    """Model objective with every ``x[f,t]`` fixed to the policy."""
    lower = arrays.lower.copy()
    upper = arrays.upper.copy()
    for j, defn in enumerate(model.variables):
        if defn.name.startswith("x["):
            fid, _, slot = defn.name[2:-1].rpartition(",")
            lower[j] = upper[j] = float(assignments.get(fid) == int(slot))
    le, ge, eq = arrays.senses < 0, arrays.senses > 0, arrays.senses == 0
    res = linprog(arrays.c,
                  A_ub=np.vstack([arrays.A[le], -arrays.A[ge]]),
                  b_ub=np.concatenate([arrays.b[le], -arrays.b[ge]]),
                  A_eq=arrays.A[eq] if eq.any() else None,
                  b_eq=arrays.b[eq] if eq.any() else None,
                  bounds=np.column_stack([lower, upper]), method="highs")
    if res.status != 0:
        raise Mismatch(f"policy is infeasible for its model: {res.message}")
    return float(res.fun) + arrays.offset


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= OBJ_TOL + 1e-9 * abs(b)


def _check_policy_optimal(model, schedule, assignments, objective: float | None) -> None:
    arrays = model.to_arrays()
    best = highs_optimum(arrays)
    if objective is not None and not _close(objective, best):
        raise Mismatch(f"objective {objective!r} but HiGHS optimum {best!r}")
    fixed = policy_objective(model, arrays, assignments)
    if not _close(fixed, best):
        raise Mismatch(f"policy costs {fixed!r} in its model, HiGHS optimum {best!r}")
    delays = {f.id: assignments[f.id] - f.scheduled_arrival for f in schedule.flights}
    cost = sum(f.ground_cost * delays[f.id] for f in schedule.flights)
    problems = check_policy(GroundHoldingPolicy(assignments, delays, cost), schedule)
    if problems:
        raise Mismatch("policy violates the schedule: " + "; ".join(map(str, problems)))


def _ambiguity(empirical, epsilon: float) -> AmbiguitySpec:
    return AmbiguitySpec(empirical, epsilon, default_support_grid(empirical))


def _single_model(kind: str, schedule, empirical, epsilon: float | None):
    if kind == "det":
        return build_d_saghp(schedule, deterministic_capacity(empirical))
    if kind == "sp":
        return build_s_saghp(schedule, empirical)
    return build_dr_saghp(schedule, _ambiguity(empirical, epsilon))


def check_solve(kind: str, bundle: Path, result: Path) -> None:
    """A ``solve`` result document: optimal, HiGHS objective, optimal policy."""
    doc = json.loads(result.read_text())
    if doc["status"] != "optimal" or not doc.get("policy"):
        raise Mismatch(f"status {doc['status']!r}")
    inst = load_instance(bundle)
    if kind == "dr-maghp":
        amb = {z: _ambiguity(inst.capacities[z], doc["epsilon"]) for z in inst.schedule.airports}
        model = build_dr_maghp(NetworkInstance(inst.schedule.airports, inst.schedule, amb))
    else:
        (z,) = inst.schedule.airports
        model = _single_model(kind, inst.schedule, inst.capacities[z], doc["epsilon"])
    assignments = {f: int(t) for f, t in doc["policy"]["assignments"].items()}
    _check_policy_optimal(model, inst.schedule, assignments, doc["objective"])


def check_sweep(bundle: Path, out: Path) -> None:
    """Every sweep row is optimal and its policy is optimal for its model."""
    lines = (out / "table.csv").read_text().splitlines()
    if lines[0] != "# schema: ghp-sweep/1":
        raise Mismatch(f"unexpected table header {lines[0]!r}")
    inst = load_instance(bundle)
    (z,) = inst.schedule.airports
    checked = set()
    for row in csv.DictReader(io.StringIO("\n".join(lines[1:]))):
        if row["status"] != "optimal":
            raise Mismatch(f"row {row['model']} {row['epsilon']} has status {row['status']!r}")
        eps = float(row["epsilon"]) if row["epsilon"] else None
        samples = out / f"samples_{row['model']}{'' if eps is None else '_eps' + repr(eps)}" \
                        f"_{row['sample_size']}.csv"
        costs = [float(c) for c in samples.read_text().split()[1:]]
        if len(costs) != int(row["sample_size"]) or not math.isclose(
                sum(costs) / len(costs), float(row["mean_cost"]), rel_tol=1e-12, abs_tol=1e-12):
            raise Mismatch(f"{samples.name} disagrees with its table row")
        if (row["model"], eps) in checked:
            continue
        checked.add((row["model"], eps))
        assignments = {}
        for item in row["policy"].split(";"):
            fid, _, slot = item.partition("@")
            assignments[fid] = int(slot)
        model = _single_model(row["model"], inst.schedule, inst.capacities[z], eps)
        _check_policy_optimal(model, inst.schedule, assignments, None)


def same_tree(a: Path, b: Path) -> None:
    """Byte-identical directories (names and contents)."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        raise Mismatch(f"{a} and {b} hold different files")
    for name in names_a:
        if (a / name).read_bytes() != (b / name).read_bytes():
            raise Mismatch(f"{name} differs between {a.parent.name} and {b.parent.name}")


def same_result(a: Path, b: Path) -> None:
    """Solve documents equal apart from their measured wall time."""
    docs = []
    for p in (a, b):
        doc = json.loads(p.read_text())
        doc["stats"].pop("wall_time_s", None)
        docs.append(doc)
    if docs[0] != docs[1]:
        raise Mismatch(f"{a.name} differs between passes")
