"""Generic mixed-integer linear program representation.

Every model builder targets this IR; the solver consumes it and the MPS
exporter serializes it for cross-checking against external solvers.  Models
are minimizations only.  A column is its int index: ``add_columns`` and
``add_variable`` return them, and row entries name columns by it.  A
column's objective cost is given when it is added, one cost per column.
A model is built as blocks of numpy arrays, in the manner of a matrix
generator: ``add_columns`` appends columns of one kind with their bounds
and costs, ``add_rows`` rows of one sense as (row, column, value)
triplets with their right-hand sides, and the one-at-a-time ``add_*``
methods append a block of one.  ``freeze`` checks the whole model once,
concatenates the blocks into the arrays the solver reads, and drops them;
adding checks only that each entry of a row block lies in one of its rows.
Variable and row names (``x[f,t]``, ``y[xi,t]``, ``alpha``, ``beta[s]``)
are for people and the MPS comment block; what a column means lives in the
index a model builder attaches at ``freeze``, and code that interprets a
solution reads that index, never a name.
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
_SENSE_NAMES = {code: sense for sense, code in _SENSE_CODES.items()}
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


class _ColumnBlock(NamedTuple):
    """Columns appended together: one lower bound, upper bound and cost per
    column, and one kind for all."""

    lower: np.ndarray
    upper: np.ndarray
    kind: str
    cost: np.ndarray


class _RowBlock(NamedTuple):
    """Rows appended together: entry k is ``val[k]`` in column ``col[k]`` of
    model row ``row[k]`` (rows ascending, a row's entries in the order given),
    with one right-hand side per row and one sense for all."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    sense: str
    rhs: np.ndarray


class MilpModel:
    """Mutable while building; frozen before hand-off to the solver.

    While building, a model is a list of column blocks and a list of row
    blocks, each a few numpy arrays, and a list of names for each.
    ``add_columns`` and ``add_rows`` append a block; ``add_variable``,
    ``add_binary``, ``add_continuous`` and ``add_row`` append a block of
    one.  ``freeze`` checks the model, concatenates the blocks into its
    arrays, once, and drops them; the names stay.  ``variables`` and
    ``constraints`` are derived on each access, from the blocks while
    building and from the arrays once frozen, where a row's terms are its
    stored entries, columns ascending and exact zeros dropped.

    Building is single-owner and not thread safe; a frozen model is immutable
    and may be shared across threads.
    """

    def __init__(self) -> None:
        self._col_blocks: list[_ColumnBlock] = []  # while building; then the arrays
        self._row_blocks: list[_RowBlock] = []
        self._col_names: list[str] = []
        self._row_names: list[str] = []
        self._offset = 0.0  # while building; then arrays.offset
        self._index: ModelIndex | None = None
        self._arrays: ModelArrays | None = None  # built by freeze; None while mutable

    # -- building -----------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._arrays is not None:
            raise ModelError("model is frozen")

    def add_columns(self, names: Sequence[str], lower=0.0, upper=math.inf, kind: str = CONTINUOUS,
                    cost=0.0) -> range:
        """Append one column of kind ``kind`` per name and return their
        indices; ``lower``, ``upper`` and ``cost`` are each one value for
        every column or one per column."""
        self._check_mutable()
        k, start = len(names), len(self._col_names)
        self._col_blocks.append(_ColumnBlock(_floats(lower, k), _floats(upper, k), kind, _floats(cost, k)))
        self._col_names.extend(names)
        return range(start, start + k)

    def add_variable(self, defn: VariableDef, cost: float = 0.0) -> int:
        """Append a column whose objective coefficient is ``cost`` and
        return its index."""
        return self.add_columns([defn.name], defn.lower, defn.upper, defn.kind, cost).start

    def add_binary(self, name: str, cost: float = 0.0) -> int:
        return self.add_columns([name], 0.0, 1.0, BINARY, cost).start

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = math.inf,
                       cost: float = 0.0) -> int:
        return self.add_columns([name], lower, upper, CONTINUOUS, cost).start

    def add_rows(self, names: Sequence[str], row, col, val, sense: str, rhs) -> range:
        """Append one row of sense ``sense`` per name and return their
        indices.  Entry k is ``val[k]`` in column ``col[k]`` of the block's
        row ``row[k]``, numbered from 0 within the block; the entries may
        come in any row order, and a row's entries keep the order given.
        ``val`` is one value for every entry or one per entry, ``rhs`` one
        for every row or one per row.  A ``row`` outside the block raises
        ``ModelError`` here; every other check waits for ``freeze``."""
        self._check_mutable()
        k, start = len(names), len(self._row_names)
        row, col = np.asarray(row, dtype=np.intp), np.asarray(col)
        if row.shape != col.shape or row.ndim != 1 or row.size and not 0 <= row.min() <= row.max() < k:
            raise ModelError(f"a block of {k} rows needs one row in [0, {k}) per entry")
        if not col.size:
            col = col.astype(np.intp)  # an empty list is read as floats
        order = np.argsort(row, kind="stable")
        self._row_blocks.append(
            _RowBlock(row[order] + start, col[order], _floats(val, len(col))[order], sense, _floats(rhs, k)))
        self._row_names.extend(names)
        return range(start, start + k)

    def add_row(self, terms: Iterable[tuple[int, float]], sense: str, rhs: float, name: str = "") -> int:
        """Append the row ``sum(coef * x[j] for j, coef in terms) sense rhs``
        and return its index."""
        terms = list(terms)
        return self.add_rows([name], [0] * len(terms), [j for j, _ in terms], [v for _, v in terms],
                             sense, rhs).start

    def add_objective_offset(self, value: float) -> None:
        self._check_mutable()
        self._offset += float(value)

    def freeze(self, index: ModelIndex | None = None) -> "MilpModel":
        """Check the model, stop further edits, record what the columns mean
        and build the arrays; a second call changes nothing.  A model that
        fails a check raises and stays unfrozen."""
        if self._arrays is None:
            self._index, self._arrays = index, self._build_arrays()
            self._col_blocks, self._row_blocks = [], []
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
        """Each column's bounds, kind and name, derived on each access."""
        if self._arrays is None:
            blocks = self._col_blocks
            lower, upper = _cat(blocks, "lower", float), _cat(blocks, "upper", float)
            kinds = [b.kind for b in blocks for _ in range(len(b.cost))]
        else:
            a = self._arrays
            lower, upper = a.lower, a.upper
            kinds = [BINARY if binary else CONTINUOUS for binary in a.is_binary.tolist()]
        return tuple(map(VariableDef, lower.tolist(), upper.tolist(), kinds, self._col_names))

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """Each row's terms, sense, right-hand side and name, derived on each
        access."""
        if self._arrays is None:
            blocks = self._row_blocks
            cols, vals, rhs = _cat(blocks, "col", np.intp), _cat(blocks, "val", float), _cat(blocks, "rhs", float)
            ptr = np.searchsorted(_cat(blocks, "row", np.intp), np.arange(len(rhs) + 1))
            senses = [b.sense for b in blocks for _ in range(len(b.rhs))]
        else:
            a = self._arrays
            ptr, cols, vals, rhs = a.row_ptr, a.row_cols, a.row_vals, a.b
            senses = [_SENSE_NAMES[code] for code in a.senses.tolist()]
        ptr, cols, vals = ptr.tolist(), cols.tolist(), vals.tolist()
        return tuple(LinearConstraint(tuple(zip(cols[s:e], vals[s:e])), sense, b, name)
                     for s, e, sense, b, name in zip(ptr, ptr[1:], senses, rhs.tolist(), self._row_names))

    @property
    def num_variables(self) -> int:
        return len(self._col_names)

    @property
    def num_constraints(self) -> int:
        return len(self._row_names)

    @property
    def objective_offset(self) -> float:
        return self.to_arrays().offset

    def objective_coefficient(self, j: int) -> float:
        return float(self.to_arrays().c[j])

    def repriced(self, costs: Mapping[int, float]) -> "MilpModel":
        """A frozen sibling whose objective coefficient of column ``j`` is
        ``costs[j]``; every other coefficient is this model's.

        The sibling shares this model's names and index, and its arrays
        share every array of this model's but ``c``.  This model is not
        changed.
        """
        if self._arrays is None:
            raise ModelError("only a frozen model can be repriced")
        cols, vals = np.array(list(costs)), np.array(list(costs.values()), dtype=float)
        _raise_first(_term_checks(cols, vals, self.num_variables, lambda k: "repricing"))
        c = self._arrays.c.copy()
        c[cols.astype(np.intp)] = vals + 0.0  # -0.0 as 0.0, as freeze stores it
        c.flags.writeable = False
        sibling = MilpModel()
        sibling._col_names, sibling._row_names = self._col_names, self._row_names
        sibling._index, sibling._arrays = self._index, self._arrays._replace(c=c)
        return sibling

    def to_arrays(self) -> ModelArrays:
        """The model's numeric view, with read-only arrays, built by
        ``freeze``: every call returns the same object."""
        if self._arrays is None:
            raise ModelError("model is not frozen")
        return self._arrays

    def _build_arrays(self) -> ModelArrays:
        rblocks, cblocks = self._row_blocks, self._col_blocks
        m, n = self.num_constraints, self.num_variables
        rows, cols, vals = _cat(rblocks, "row", np.intp), _cat(rblocks, "col", np.intp), _cat(rblocks, "val", float)
        senses, b = _codes(rblocks, "sense", "rhs", _SENSE_CODES), _cat(rblocks, "rhs", float)
        kinds = _codes(cblocks, "kind", "cost", _KIND_CODES)
        lower, upper = _cat(cblocks, "lower", float), _cat(cblocks, "upper", float)
        c = _cat(cblocks, "cost", float) + 0.0  # -0.0 as 0.0
        order = self._check(rows, cols, vals, senses, b, kinds, lower, upper, c)
        # no two entries share a (row, column), so dropping exact zeros loses nothing
        order = order[vals[order] != 0.0]
        rows, cols, vals = rows[order], cols[order].astype(np.intp, copy=False), vals[order]
        ptr = np.searchsorted(cols, np.arange(n + 1))
        # a stable sort by row keeps the columns ascending within each row
        by_row = np.argsort(rows, kind="stable")
        row_ptr = np.searchsorted(rows[by_row], np.arange(m + 1))
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
        rblocks, cblocks, names, n = self._row_blocks, self._col_blocks, self._row_names, self.num_variables
        row_checks = _term_checks(cols, vals, n, lambda k: f"constraint {names[rows[k]]!r}")
        order = np.argsort(cols, kind="stable")
        by_col, by_row = cols[order], rows[order]
        _raise_first([
            *row_checks,
            (senses == _UNKNOWN, lambda i: f"unknown constraint sense {_given(rblocks, 'sense', 'rhs', i)!r}"),
            (~np.isfinite(b), lambda i: f"constraint rhs must be finite, got {b[i]}"),
            # a repeated (row, column) pair is adjacent in column order
            ((by_col[1:] == by_col[:-1]) & (by_row[1:] == by_row[:-1]),
             lambda k: f"duplicate variable #{by_col[k]} in constraint {names[by_row[k]]!r}"),
            (kinds == _UNKNOWN,
             lambda j: f"variable #{j}: unknown variable kind {_given(cblocks, 'kind', 'cost', j)!r}"),
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


def _floats(value, k: int) -> np.ndarray:
    """``value``, one number or ``k``, as a new array of ``k`` floats."""
    out = np.empty(k)
    out[...] = value
    return out


def _cat(blocks: list, field: str, dtype) -> np.ndarray:
    """The ``field`` arrays of ``blocks`` end to end; no blocks give an empty
    array of ``dtype``."""
    return np.concatenate([getattr(b, field) for b in blocks]) if blocks else np.empty(0, dtype)


def _codes(blocks: list, field: str, size: str, codes: dict) -> np.ndarray:
    """Each block's ``field`` by ``codes`` (``_UNKNOWN`` if not there), once
    per entry of its ``size`` array, as int8."""
    return np.repeat(np.array([codes.get(getattr(b, field), _UNKNOWN) for b in blocks], dtype=np.int8),
                     np.array([len(getattr(b, size)) for b in blocks], dtype=np.intp))


def _given(blocks: list, field: str, size: str, i: int):
    """The ``field`` of the block holding entry ``i`` of the ``size`` arrays
    of ``blocks`` end to end."""
    ends = np.cumsum([len(getattr(b, size)) for b in blocks])
    return getattr(blocks[int(np.searchsorted(ends, i, side="right"))], field)


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

    The numbers come from the model's arrays, the names from its column and
    row names.
    """
    a = model.to_arrays()
    n = len(a.c)
    cols = [f"C{j}" for j in range(n)]
    rows = [f"R{i}" for i in range(len(a.b))]

    lines: list[str] = []
    lines.append("* fixed-format MPS (fields at columns 2/5/15/25/40/50)")
    lines.append("* objective constant is the negated RHS of the OBJ row")
    for labels, names in ((cols, model._col_names), (rows, model._row_names)):
        lines.extend(f"* {label} = {name}" for label, name in zip(labels, names) if name)
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
