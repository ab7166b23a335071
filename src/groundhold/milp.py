"""Generic mixed-integer linear program representation.

Every model builder targets this IR; the solver consumes it and the MPS
exporter serializes it for cross-checking against external solvers.  Models
are minimizations only.  A column is its int index: ``add_variable`` returns
it, and constraint terms name columns by it.  A column's objective cost is
given when it is added, one cost per column.  Variable and row names
(``x[f,t]``, ``y[xi,t]``, ``alpha``, ``beta[s]``) are for people and the MPS
comment block; what a column means lives in the index a model builder
attaches at ``freeze``, and code that interprets a solution reads that
index, never a name.  Adding a variable or row checks nothing: ``freeze``
checks the whole model once, on its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_SENSE_CODES = {SENSE_LE: -1, SENSE_EQ: 0, SENSE_GE: 1}
_KIND_CODES = {CONTINUOUS: 0, BINARY: 1}
_UNKNOWN = 2  # the code of a sense or kind that is neither


class ModelError(ValueError):
    """Raised for malformed variables, constraints or dangling references."""


class VariableDef(NamedTuple):
    """Bounds and kind of one decision variable."""

    lower: float = 0.0
    upper: float = math.inf
    kind: str = CONTINUOUS
    name: str = ""


class LinearConstraint(NamedTuple):
    """Sparse row ``sum(coef * x[column]) sense rhs``."""

    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    name: str = ""


class ModelArrays(NamedTuple):
    """Numeric view of a model, consumed by the solver.

    The constraint matrix is held as its structural columns, built once per
    model by ``MilpModel.freeze`` and shared by every LP of a search: column
    j holds ``vals[ptr[j]:ptr[j+1]]`` in rows ``rows[ptr[j]:ptr[j+1]]``, rows
    ascending, exact zeros dropped; entry k lies in column ``cols[k]``.  The
    same entries are also held by row, for the dual simplex's pivot row: row
    i holds ``row_vals[row_ptr[i]:row_ptr[i+1]]`` in columns
    ``row_cols[row_ptr[i]:row_ptr[i+1]]``, columns ascending.  Every array is
    read-only; a repriced model (``MilpModel.repriced``) shares all of them
    but ``c``.
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
    row_ptr: np.ndarray    # row starts in the row view, length m + 1
    row_cols: np.ndarray   # column of each entry, in row order
    row_vals: np.ndarray   # value of each entry, in row order

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
    and may be shared across threads.  ``freeze`` checks the model and builds
    its arrays, once; the ``add_*`` methods only record what they are given.
    """

    def __init__(self) -> None:
        self._variables: list[VariableDef] = []
        self._constraints: list[LinearConstraint] = []
        self._costs: list[float] = []  # one per column, while building; then arrays.c
        self._offset = 0.0  # while building; then arrays.offset
        self._index: ModelIndex | None = None
        self._arrays: ModelArrays | None = None  # built by freeze; None while mutable

    # -- building -----------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._arrays is not None:
            raise ModelError("model is frozen")

    def add_variable(self, defn: VariableDef, cost: float = 0.0) -> int:
        """Append a column whose objective coefficient is ``cost`` and
        return its index."""
        self._check_mutable()
        self._variables.append(defn)
        self._costs.append(cost)
        return len(self._variables) - 1

    def add_binary(self, name: str, cost: float = 0.0) -> int:
        return self.add_variable(VariableDef(0.0, 1.0, BINARY, name), cost)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = math.inf,
                       cost: float = 0.0) -> int:
        return self.add_variable(VariableDef(lower, upper, CONTINUOUS, name), cost)

    def add_row(self, terms: Iterable[tuple[int, float]], sense: str, rhs: float, name: str = "") -> int:
        """Append the row ``sum(coef * x[j] for j, coef in terms) sense rhs``
        and return its index."""
        self._check_mutable()
        self._constraints.append(LinearConstraint(tuple(terms), sense, rhs, name))
        return len(self._constraints) - 1

    def add_objective_offset(self, value: float) -> None:
        self._check_mutable()
        self._offset += float(value)

    def freeze(self, index: ModelIndex | None = None) -> "MilpModel":
        """Check the model, stop further edits, record what the columns mean
        and build the arrays; a second call changes nothing.  A model that
        fails a check raises and stays unfrozen."""
        if self._arrays is None:
            self._index, self._arrays = index, self._build_arrays()
        return self

    # -- inspection ----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._arrays is not None

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
        return self.to_arrays().offset

    def objective_coefficient(self, j: int) -> float:
        return float(self.to_arrays().c[j])

    def repriced(self, costs: Mapping[int, float]) -> "MilpModel":
        """A frozen sibling whose objective coefficient of column ``j`` is
        ``costs[j]``; every other coefficient is this model's.

        The sibling shares this model's variables, constraints and index,
        and its arrays share every array of this model's but ``c``.  This
        model is not changed.
        """
        if self._arrays is None:
            raise ModelError("only a frozen model can be repriced")
        cols, vals = np.array(list(costs)), np.array(list(costs.values()), dtype=float)
        _raise_first(_term_checks(cols, vals, len(self._variables), lambda k: "repricing"))
        c = self._arrays.c.copy()
        c[cols.astype(np.intp)] = vals + 0.0  # -0.0 as 0.0, as freeze stores it
        c.flags.writeable = False
        sibling = MilpModel()
        sibling._variables, sibling._constraints = self._variables, self._constraints
        sibling._index, sibling._arrays = self._index, self._arrays._replace(c=c)
        return sibling

    def to_arrays(self) -> ModelArrays:
        """The model's numeric view, with read-only arrays, built by
        ``freeze``: every call returns the same object."""
        if self._arrays is None:
            raise ModelError("model is not frozen")
        return self._arrays

    def _build_arrays(self) -> ModelArrays:
        variables, cons = self._variables, self._constraints
        rows = np.repeat(np.arange(len(cons)), [len(con.terms) for con in cons])
        cols = np.array([j for con in cons for j, _ in con.terms])
        vals = np.array([coef for con in cons for _, coef in con.terms], dtype=float)
        senses = np.array([_SENSE_CODES.get(con.sense, _UNKNOWN) for con in cons], dtype=np.int8)
        b = np.array([con.rhs for con in cons], dtype=float)
        kinds = np.array([_KIND_CODES.get(d.kind, _UNKNOWN) for d in variables], dtype=np.int8)
        lower = np.array([d.lower for d in variables], dtype=float)
        upper = np.array([d.upper for d in variables], dtype=float)
        c = np.array(self._costs, dtype=float) + 0.0  # -0.0 as 0.0
        order = self._check(rows, cols, vals, senses, b, kinds, lower, upper, c)
        # no two entries share a (row, column), so dropping exact zeros loses nothing
        order = order[vals[order] != 0.0]
        rows, cols, vals = rows[order], cols[order].astype(np.intp, copy=False), vals[order]
        ptr = np.searchsorted(cols, np.arange(len(variables) + 1))
        # a stable sort by row keeps the columns ascending within each row
        by_row = np.argsort(rows, kind="stable")
        row_ptr = np.searchsorted(rows[by_row], np.arange(len(cons) + 1))
        row_cols, row_vals = cols[by_row], vals[by_row]
        is_binary = kinds == _KIND_CODES[BINARY]
        for array in (c, senses, b, lower, upper, is_binary, ptr, rows, cols, vals, row_ptr, row_cols, row_vals):
            array.flags.writeable = False
        return ModelArrays(c, self._offset, senses, b, lower, upper, is_binary, ptr, rows, cols, vals,
                           row_ptr, row_cols, row_vals)

    def _check(self, rows, cols, vals, senses, b, kinds, lower, upper, c) -> np.ndarray:
        """Every check of the model, run by ``freeze`` on the arrays it builds
        before exact zeros are dropped.  Raises ``ModelError`` naming the first
        offending row, column or term, or ``TypeError`` for a column that is
        not an int.  Returns the row terms' stable order by column, in which
        rows ascend within each column."""
        cons, variables, n = self._constraints, self._variables, len(self._variables)
        row_checks = _term_checks(cols, vals, n, lambda k: f"constraint {cons[rows[k]].name!r}")
        order = np.argsort(cols, kind="stable")
        by_col, by_row = cols[order], rows[order]
        _raise_first([
            *row_checks,
            (senses == _UNKNOWN, lambda i: f"unknown constraint sense {cons[i].sense!r}"),
            (~np.isfinite(b), lambda i: f"constraint rhs must be finite, got {cons[i].rhs}"),
            # a repeated (row, column) pair is adjacent in column order
            ((by_col[1:] == by_col[:-1]) & (by_row[1:] == by_row[:-1]),
             lambda k: f"duplicate variable #{by_col[k]} in constraint {cons[by_row[k]].name!r}"),
            (kinds == _UNKNOWN, lambda j: f"variable #{j}: unknown variable kind {variables[j].kind!r}"),
            (np.isnan(lower) | np.isnan(upper), lambda j: f"variable #{j}: variable bounds must not be NaN"),
            (lower > upper,
             lambda j: f"variable #{j}: lower bound {lower[j]} exceeds upper bound {upper[j]}"),
            ((kinds == _KIND_CODES[BINARY]) & ((lower < 0.0) | (upper > 1.0)),
             lambda j: f"variable #{j}: binary variable bounds must lie within [0, 1]"),
            (~np.isfinite(c), lambda j: f"variable #{j}: objective coefficient {c[j]} is not finite"),
            ([not math.isfinite(self._offset)],
             lambda _: f"objective offset must be finite, got {self._offset}"),
        ])
        return order


def _term_checks(cols: np.ndarray, vals: np.ndarray, n: int, owner) -> list:
    """The checks of ``(column, coefficient)`` terms, for a model's rows and
    for ``repriced``, as ``_raise_first`` pairs: every column in
    ``[0, n)``, every coefficient finite; ``owner(k)`` names term ``k``'s owner.
    Raises ``TypeError`` at once if a column is not an int."""
    if cols.ndim != 1 or cols.size and cols.dtype.kind not in "iu":
        raise TypeError(f"a column must be an int, got an array of {cols.dtype}")
    return [((cols < 0) | (cols >= n), lambda k: f"{owner(k)} references unknown variable #{cols[k]}"),
            (~np.isfinite(vals), lambda k: f"{owner(k)} coefficient for variable #{cols[k]} is not finite")]


def _raise_first(checks) -> None:
    """For the first ``(bad, message)`` pair whose mask ``bad`` holds a true
    entry, raise ``ModelError(message(k))`` with ``k`` that entry's index."""
    for bad, message in checks:
        hits = np.flatnonzero(bad)
        if hits.size:
            raise ModelError(message(int(hits[0])))


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


def _mps_pairs(lines: list[str], name: str, entries: list[tuple[str, float]]) -> None:
    for k in range(0, len(entries), 2):
        fields = [name]
        for row_name, value in entries[k:k + 2]:
            fields.extend([row_name, _mps_number(value)])
        lines.append(_mps_line("", *fields))


def export_mps(model: MilpModel) -> str:
    """Serialize a frozen model as fixed-format MPS text.

    The numbers come from the model's arrays, the names from its variables
    and constraints.
    """
    a = model.to_arrays()
    n = len(a.c)
    cols = [f"C{j}" for j in range(n)]
    rows = [f"R{i}" for i in range(len(a.b))]

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
    sense_tag = {-1: "L", 0: "E", 1: "G"}
    for i, sense in enumerate(a.senses.tolist()):
        lines.append(_mps_line(sense_tag[sense], rows[i]))

    # entries per column, objective first, then its stored rows, which are
    # ascending and hold no exact zero
    c, ptr, col_rows, vals = a.c.tolist(), a.ptr.tolist(), a.rows.tolist(), a.vals.tolist()
    lines.append("COLUMNS")
    for j in range(n):
        entries = [(_OBJ_ROW, c[j])] if c[j] != 0.0 else []
        entries += [(rows[i], v) for i, v in zip(col_rows[ptr[j]:ptr[j + 1]], vals[ptr[j]:ptr[j + 1]])]
        # declare otherwise-empty columns so parsers see every variable
        _mps_pairs(lines, cols[j], entries or [(_OBJ_ROW, 0.0)])

    lines.append("RHS")
    rhs_entries = [(_OBJ_ROW, -a.offset)] if a.offset != 0.0 else []
    rhs_entries += [(rows[i], v) for i, v in enumerate(a.b.tolist()) if v != 0.0]
    _mps_pairs(lines, "RHS", rhs_entries)

    lines.append("RANGES")

    lines.append("BOUNDS")
    for j, (lo, up, binary) in enumerate(zip(a.lower.tolist(), a.upper.tolist(), a.is_binary.tolist())):
        if binary:
            lines.append(_mps_line("BV", "BND", cols[j]))
            continue
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
