"""Generic mixed-integer linear program representation.

Every model builder targets this IR; the solver consumes it and the MPS
exporter serializes it for cross-checking against external solvers.  Models
are minimizations only.  Variable and row names (``x[f,t]``, ``y[xi,t]``,
``alpha``, ``beta[s]``) are for people and the MPS comment block; what a
column means lives in the index a model builder attaches at ``freeze``, and
code that interprets a solution reads that index, never a name.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .simplex import FEASIBILITY_TOL

if TYPE_CHECKING:
    from .models import ModelIndex

__all__ = [
    "CONTINUOUS",
    "BINARY",
    "SENSE_LE",
    "SENSE_EQ",
    "SENSE_GE",
    "ModelError",
    "VariableRef",
    "VariableDef",
    "LinearConstraint",
    "MilpModel",
    "ModelArrays",
    "Solution",
    "constraint_residuals",
    "is_feasible",
    "export_mps",
]

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="
_SENSES = (SENSE_LE, SENSE_EQ, SENSE_GE)


class ModelError(ValueError):
    """Raised for malformed variables, constraints or dangling references."""


@dataclass(frozen=True)
class VariableRef:
    """Dense handle into a model's variable vector."""

    index: int
    name: str


@dataclass(frozen=True)
class VariableDef:
    """Bounds and kind of one decision variable."""

    lower: float = 0.0
    upper: float = math.inf
    kind: str = CONTINUOUS
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {self.kind!r}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ModelError("variable bounds must not be NaN")
        if self.lower > self.upper:
            raise ModelError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if self.kind == BINARY and (self.lower < 0.0 or self.upper > 1.0):
            raise ModelError("binary variable bounds must lie within [0, 1]")


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse row ``sum(coef * var) sense rhs``."""

    terms: tuple[tuple[VariableRef, float], ...]
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((ref, float(c)) for ref, c in self.terms))
        if self.sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {self.sense!r}")
        if not math.isfinite(self.rhs):
            raise ModelError(f"constraint rhs must be finite, got {self.rhs}")
        seen: set[int] = set()
        for ref, coef in self.terms:
            if not math.isfinite(coef):
                raise ModelError(f"coefficient for {ref.name!r} is not finite")
            if ref.index in seen:
                raise ModelError(f"duplicate variable {ref.name!r} in constraint {self.name!r}")
            seen.add(ref.index)


class ModelArrays(NamedTuple):
    """Numeric view of a model, consumed by the solver.

    The constraint matrix is held only as its structural columns, built once
    per frozen model by ``MilpModel.to_arrays`` and shared by every LP of a
    search: column j holds ``vals[ptr[j]:ptr[j+1]]`` in rows
    ``rows[ptr[j]:ptr[j+1]]``, rows ascending, exact zeros dropped; entry k
    lies in column ``cols[k]``.  Every array is read-only; a repriced model
    (``MilpModel.repriced``) shares all of them but ``c``.
    """

    c: np.ndarray          # objective coefficients, length n
    offset: float          # objective constant
    senses: np.ndarray     # per row: -1 for <=, 0 for =, +1 for >=
    b: np.ndarray          # right-hand sides, length m
    lower: np.ndarray      # variable lower bounds
    upper: np.ndarray      # variable upper bounds
    is_binary: np.ndarray  # boolean mask over variables
    ptr: np.ndarray        # column starts, length n + 1
    rows: np.ndarray       # row of each stored entry
    cols: np.ndarray       # column of each stored entry
    vals: np.ndarray       # value of each stored entry

    @property
    def A(self) -> np.ndarray:
        """The dense m x n constraint matrix, built afresh on each access
        for external solvers; the engine reads only the column storage."""
        A = np.zeros((len(self.b), len(self.c)))
        A[self.rows, self.cols] = self.vals
        return A


class MilpModel:
    """Mutable while building; frozen before hand-off to the solver.

    Building is single-owner and not thread safe; a frozen model is immutable
    and may be shared across threads.  Its arrays are built once, on the
    first ``to_arrays`` call, and kept.
    """

    def __init__(self) -> None:
        self._variables: list[VariableDef] = []
        self._constraints: list[LinearConstraint] = []
        self._objective: dict[int, float] = {}
        self._offset = 0.0
        self._frozen = False
        self._index: ModelIndex | None = None
        self._arrays: ModelArrays | None = None
        self._arrays_lock = threading.Lock()  # threads sharing a frozen model build once

    # -- building -----------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ModelError("model is frozen")

    def add_variable(self, defn: VariableDef) -> VariableRef:
        self._check_mutable()
        ref = VariableRef(len(self._variables), defn.name)
        self._variables.append(defn)
        return ref

    def add_binary(self, name: str) -> VariableRef:
        return self.add_variable(VariableDef(0.0, 1.0, BINARY, name))

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = math.inf) -> VariableRef:
        return self.add_variable(VariableDef(lower, upper, CONTINUOUS, name))

    def add_constraint(self, con: LinearConstraint) -> int:
        self._check_mutable()
        for ref, _ in con.terms:
            if not 0 <= ref.index < len(self._variables):
                raise ModelError(f"constraint {con.name!r} references unknown variable #{ref.index}")
        self._constraints.append(con)
        return len(self._constraints) - 1

    def add_row(self, terms: Iterable[tuple[VariableRef, float]], sense: str, rhs: float, name: str = "") -> int:
        return self.add_constraint(LinearConstraint(tuple(terms), sense, float(rhs), name))

    def add_objective_term(self, ref: VariableRef, coef: float) -> None:
        self._check_mutable()
        if not 0 <= ref.index < len(self._variables):
            raise ModelError(f"objective references unknown variable #{ref.index}")
        if not math.isfinite(coef):
            raise ModelError(f"objective coefficient for {ref.name!r} is not finite")
        self._objective[ref.index] = self._objective.get(ref.index, 0.0) + float(coef)

    def add_objective_offset(self, value: float) -> None:
        self._check_mutable()
        if not math.isfinite(value):
            raise ModelError(f"objective offset must be finite, got {value}")
        self._offset += float(value)

    def freeze(self, index: ModelIndex | None = None) -> "MilpModel":
        """Stop further edits and record what the columns mean; a second call changes nothing."""
        if not self._frozen:
            self._frozen, self._index = True, index
        return self

    # -- inspection ----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def index(self) -> ModelIndex | None:
        return self._index

    @property
    def variables(self) -> tuple[VariableDef, ...]:
        return tuple(self._variables)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._constraints)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def objective_offset(self) -> float:
        return self._offset

    def objective_coefficient(self, index: int) -> float:
        return self._objective.get(index, 0.0)

    def repriced(self, costs: Mapping[int, float]) -> "MilpModel":
        """A frozen sibling whose objective coefficient of column ``j`` is
        ``costs[j]``; every other coefficient is this model's.

        The sibling shares this model's variables, constraints, offset and
        index, and its ``to_arrays`` shares every array of this model's but
        ``c``.  This model is not changed.
        """
        if not self._frozen:
            raise ModelError("only a frozen model can be repriced")
        arrays = self._frozen_arrays()
        objective, c = dict(self._objective), arrays.c.copy()
        for j, coef in costs.items():
            if not 0 <= j < len(self._variables):
                raise ModelError(f"repricing references unknown variable #{j}")
            if not math.isfinite(coef):
                raise ModelError(f"objective coefficient for variable #{j} is not finite")
            objective[j] = c[j] = float(coef) + 0.0  # -0.0 as 0.0, the sum add_objective_term stores
        c.flags.writeable = False
        sibling = MilpModel()
        sibling._variables, sibling._constraints = self._variables, self._constraints
        sibling._objective, sibling._offset = objective, self._offset
        sibling._frozen, sibling._index = True, self._index
        sibling._arrays = arrays._replace(c=c)
        return sibling

    def to_arrays(self) -> ModelArrays:
        """The model's numeric view, with read-only arrays.  A frozen model
        builds it once and returns the same object on every call."""
        return self._frozen_arrays() if self._frozen else self._build_arrays()

    def _frozen_arrays(self) -> ModelArrays:
        # the cache behind to_arrays; repriced reads it directly, so a
        # wrapper around to_arrays (bench/tracing.py) sees only the calls
        # that the solver and other callers make
        with self._arrays_lock:
            if self._arrays is None:
                self._arrays = self._build_arrays()
            return self._arrays

    def _build_arrays(self) -> ModelArrays:
        n = len(self._variables)
        m = len(self._constraints)
        c = np.zeros(n)
        for j, coef in self._objective.items():
            c[j] = coef
        cons = self._constraints
        code = {SENSE_LE: -1, SENSE_EQ: 0, SENSE_GE: 1}
        senses = np.array([code[con.sense] for con in cons], dtype=np.int8)
        b = np.array([con.rhs for con in cons], dtype=float)
        rows = np.repeat(np.arange(m), [len(con.terms) for con in cons])
        cols = np.array([ref.index for con in cons for ref, _ in con.terms], dtype=np.intp)
        vals = np.array([coef for con in cons for _, coef in con.terms], dtype=float)
        # the terms come row by row, so a stable sort by column leaves the
        # rows ascending within each column; a constraint names a variable
        # only once, so no two entries share a (row, column)
        order = np.argsort(cols, kind="stable")
        order = order[vals[order] != 0.0]
        rows, cols, vals = rows[order], cols[order], vals[order]
        ptr = np.searchsorted(cols, np.arange(n + 1))
        lower = np.array([d.lower for d in self._variables])
        upper = np.array([d.upper for d in self._variables])
        is_binary = np.array([d.kind == BINARY for d in self._variables], dtype=bool)
        for array in (c, senses, b, lower, upper, is_binary, ptr, rows, cols, vals):
            array.flags.writeable = False
        return ModelArrays(c, self._offset, senses, b, lower, upper, is_binary, ptr, rows, cols, vals)


@dataclass(frozen=True)
class Solution:
    """Solver output: variable values plus search statistics.

    ``values`` is aligned with the model's variable indices and is ``None``
    when no feasible point was found.  ``root_basis`` is the root LP's
    optimal basis (``LpSolution.basis``), to start the root of a model with
    the same ``A``, ``b`` and bounds but another cost; it is ``None`` when
    the root LP was not optimal.
    """

    status: str                       # optimal | infeasible | unbounded | node-limit
    values: np.ndarray | None
    objective: float
    best_bound: float = -math.inf
    nodes: int = 0
    pivots: int = 0
    wall_time: float = 0.0
    root_basis: tuple[np.ndarray, np.ndarray] | None = None


def constraint_residuals(model: MilpModel, values: Sequence[float]) -> np.ndarray:
    """Signed violation per constraint (positive entries mean violated)."""
    return _residuals(model.to_arrays(), np.asarray(values, dtype=float))


def _residuals(arrays: ModelArrays, v: np.ndarray) -> np.ndarray:
    lhs = np.bincount(arrays.rows, weights=arrays.vals * v[arrays.cols], minlength=len(arrays.b))
    out = np.zeros(len(arrays.b))
    le = arrays.senses < 0
    ge = arrays.senses > 0
    eq = arrays.senses == 0
    out[le] = lhs[le] - arrays.b[le]
    out[ge] = arrays.b[ge] - lhs[ge]
    out[eq] = np.abs(lhs[eq] - arrays.b[eq])
    return out


def is_feasible(model: MilpModel, values: Sequence[float]) -> bool:
    """True when bounds and all constraints hold within ``FEASIBILITY_TOL``."""
    v = np.asarray(values, dtype=float)
    arrays = model.to_arrays()
    if np.any(v < arrays.lower - FEASIBILITY_TOL) or np.any(v > arrays.upper + FEASIBILITY_TOL):
        return False
    res = _residuals(arrays, v)
    return bool(res.size == 0 or float(res.max()) <= FEASIBILITY_TOL)


# -- MPS export ---------------------------------------------------------------
#
# Fixed-format MPS: fields start at character columns 2, 5, 15, 25, 40 and 50.
# Row/column names are systematic (R<i>, C<j>) to respect the 8-character name
# limit; a leading comment block maps them to the model's semantic names.
# Binaries appear as BV bound entries; the objective constant is carried as
# the negated RHS of the objective row.

_OBJ_ROW = "OBJ"


def _mps_number(value: float) -> str:
    for precision in (12, 11, 10, 9, 8, 7, 6):
        text = f"{value:.{precision}g}"
        if len(text) <= 12:
            return text
    return f"{value:.5e}"


def _mps_line(f1: str = "", f2: str = "", f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
    line = ""
    for start, text in ((1, f1), (4, f2), (14, f3), (24, f4), (39, f5), (49, f6)):
        if text == "":
            continue
        pad = start - len(line)
        line += " " * max(pad, 1) + text
    return line


def export_mps(model: MilpModel) -> str:
    """Serialize a model as fixed-format MPS text."""
    n = model.num_variables
    cols = [f"C{j}" for j in range(n)]
    rows = [f"R{i}" for i in range(model.num_constraints)]

    lines: list[str] = []
    lines.append("* fixed-format MPS (fields at columns 2/5/15/25/40/50)")
    lines.append("* objective constant is the negated RHS of the OBJ row")
    for j, d in enumerate(model.variables):
        if d.name:
            lines.append(f"* {cols[j]} = {d.name}")
    for i, con in enumerate(model.constraints):
        if con.name:
            lines.append(f"* {rows[i]} = {con.name}")
    lines.append(_mps_line("NAME", "", "GROUNDHL"))

    lines.append("ROWS")
    lines.append(_mps_line("N", _OBJ_ROW))
    sense_tag = {SENSE_LE: "L", SENSE_EQ: "E", SENSE_GE: "G"}
    for i, con in enumerate(model.constraints):
        lines.append(_mps_line(sense_tag[con.sense], rows[i]))

    # entries per column, objective first, then rows in index order
    per_col: list[list[tuple[str, float]]] = [[] for _ in range(n)]
    for j in range(n):
        coef = model.objective_coefficient(j)
        if coef != 0.0:
            per_col[j].append((_OBJ_ROW, coef))
    for i, con in enumerate(model.constraints):
        for ref, coef in con.terms:
            if coef != 0.0:
                per_col[ref.index].append((rows[i], coef))

    lines.append("COLUMNS")
    for j in range(n):
        entries = per_col[j]
        if not entries:
            # declare otherwise-empty columns so parsers see every variable
            entries = [(_OBJ_ROW, 0.0)]
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            fields = [cols[j]]
            for row_name, coef in pair:
                fields.extend([row_name, _mps_number(coef)])
            lines.append(_mps_line("", *fields))

    lines.append("RHS")
    rhs_entries: list[tuple[str, float]] = []
    if model.objective_offset != 0.0:
        rhs_entries.append((_OBJ_ROW, -model.objective_offset))
    for i, con in enumerate(model.constraints):
        if con.rhs != 0.0:
            rhs_entries.append((rows[i], con.rhs))
    for k in range(0, len(rhs_entries), 2):
        pair = rhs_entries[k:k + 2]
        fields = ["RHS"]
        for row_name, value in pair:
            fields.extend([row_name, _mps_number(value)])
        lines.append(_mps_line("", *fields))

    lines.append("RANGES")

    lines.append("BOUNDS")
    for j, d in enumerate(model.variables):
        if d.kind == BINARY:
            lines.append(_mps_line("BV", "BND", cols[j]))
            continue
        lo, up = d.lower, d.upper
        if lo == 0.0 and up == math.inf:
            continue
        if lo == -math.inf and up == math.inf:
            lines.append(_mps_line("FR", "BND", cols[j]))
            continue
        if lo == up:
            lines.append(_mps_line("FX", "BND", cols[j], _mps_number(lo)))
            continue
        if lo == -math.inf:
            lines.append(_mps_line("MI", "BND", cols[j]))
        elif lo != 0.0:
            lines.append(_mps_line("LO", "BND", cols[j], _mps_number(lo)))
        if up != math.inf:
            lines.append(_mps_line("UP", "BND", cols[j], _mps_number(up)))

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
