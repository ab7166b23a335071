"""Bounded-variable revised simplex: a dual simplex to feasibility, then primal.

Revised simplex over the standard form ``A x + s = b`` with sense-dependent
slack bounds; free variables are handled natively (nonbasic at zero) rather
than split.  Every solve loads a basis (a previous optimal basis of the same
``A``, senses and ``b`` under new bounds or a new cost, as for a
branch-and-bound child or the next radius of a sweep, or the all-slack
one), shifts the cost of each column with a wrong-signed reduced cost so
that it is zero (the cost-modification dual phase 1), runs a bounded dual
simplex to a primal-feasible basis, then the primal simplex under the true
costs.  Where nothing was shifted the primal only certifies the optimum;
where only the cost changed the basis is still primal feasible, the dual
takes no pivot, and the primal does all the work.
Pricing is Dantzig with a permanent-for-the-run Bland's-rule fallback after
a run of 1000 degenerate pivots; all ties break deterministically, so
solves repeat.

The matrix is kept as structural columns, each as its row indices and
values (the ``ptr``/``rows``/``cols``/``vals`` storage), and as the same
entries by row (``row_ptr``/``row_cols``/``row_vals``), both built once
per model by ``MilpModel.freeze`` and read as they are by every LP of a
search; no dense ``A`` is built.  Slack column ``n + i`` is the unit
vector e_i and is never stored.  ``A @ x_N`` and the products with the
basic columns read the columns and touch only the stored nonzeros, so a
product costs in proportion to them and not to m * (n + m).  Every
``u @ [A | I]`` (pricing ``y``, and the dual's pivot row, a row of
``B^-1``) reads the rows instead, only those where ``u`` is nonzero (for
the pivot row about 4% of them in the median on the benchmark's largest
LPs), gathered in one pass, rows ascending, and summed per column.  Which
nonbasic columns may rise and which may fall are two masks kept across
pivots, updated for the one or two columns a pivot or bound flip moves.

The basis inverse is never formed; only the inverse of its bump is kept.
A basic slack e_i covers row i, so of the basis only the k basic
structural columns C on the k rows U no slack covers form a block that
needs inverting, and ``inner = C[U]^-1`` (k x k) with the stored columns
of C gives the rest.  ``B^-1 v`` is ``x = inner @ v[U]`` at the
structural positions and ``v[S] - C[S] x`` at the slack ones (S the
covered rows), with ``C x`` summed over C's entries, copied from the
column storage; row r of ``B^-1``, the dual's pivot row, is a row of
``inner`` when r holds a structural, and when it holds the slack of row
i, 1 at i and ``-C[i] inner`` on U, one short product; the duals solve
the transposed system the same way.  No m x m or m x k array is
allocated.  The all-slack basis, where every solve without a stored
basis starts, has k = 0 and inverts nothing.  A refactorization (every
100 pivots) inverts C[U] afresh; between them each pivot updates
``inner`` in O(k^2), by one rule per case: a structural replacing a
slack borders it (k + 1), a slack replacing a structural shrinks it
(k - 1), a structural replacing a structural is a Sherman-Morrison
update, and a slack replacing a slack swaps one row of U, a rank-1
update with one column replaced.  Only the rows of ``inner`` where the entering
column is nonzero change.  An answer (optimal, unbounded, infeasible, or
a pivot too small to take) is given only from a fresh factorization: if
a pivot has happened since the last one, the basis is refactorized and
the loop looks again, so the values, duals and reduced costs returned
all come from a fresh inverse.

On the dr-SAGHP root of ``gen --flights 60 --horizon 32 --seed 3``
(2,841 rows, 1,138 columns; one BLAS thread, 2-vCPU VM) the solve takes
about 3 s over 2,718 pivots, with k at most 406; the benchmark's root LPs
(up to 421 rows) take about 0.1 ms per pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .milp import ModelArrays

__all__ = ["LpSolution", "NumericalInstabilityError", "solve_lp_arrays"]

_AT_LO, _AT_UP, _FREE, _BASIC = 0, 1, 2, 3

_ENTER_TOL = 1e-9      # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-9      # smallest acceptable ratio-test denominator
_PIVOT_FLOOR = 1e-10   # below this a pivot is reported as numerical trouble
_DEGEN_TOL = 1e-9      # step sizes at or below this count as degenerate
_BLAND_AFTER = 1000    # consecutive degenerate pivots before Bland's rule
_REFACTOR_EVERY = 100  # pivots between basis refactorizations
FEASIBILITY_TOL = 1e-7  # bound violation a basic variable may carry


class NumericalInstabilityError(RuntimeError):
    """Pivot magnitude below 1e-10 (or a singular basis) that refactorization
    could not repair."""


@dataclass(frozen=True)
class LpSolution:
    """LP relaxation result.

    ``dual_values`` follow the minimization convention: nonpositive for ``<=``
    rows, nonnegative for ``>=`` rows, free for equalities.
    """

    status: str                        # optimal | infeasible | unbounded
    values: np.ndarray | None          # structural variables
    objective: float
    dual_values: np.ndarray | None     # one multiplier per constraint
    reduced_costs: np.ndarray | None   # structural variables
    pivots: int = 0                    # primal and dual pivots together
    # (basic columns, statuses over the n + m structural and slack columns)
    # of an optimal solve, to warm-start a solve under other bounds or
    # another cost; None only when the solve is infeasible or unbounded
    basis: tuple[np.ndarray, np.ndarray] | None = None


def solve_lp_arrays(arrays: ModelArrays, lower: np.ndarray, upper: np.ndarray, *,
                    basis: tuple[np.ndarray, np.ndarray] | None = None) -> LpSolution:
    """Solve ``min c.x + offset`` s.t. ``A x (senses) b``, ``lower <= x <= upper``.

    ``arrays`` is a model's ``ModelArrays``: its ``c``, ``offset``,
    ``senses`` (-1 for ``<=``, 0 for ``=``, +1 for ``>=`` per row), ``b``
    and the column storage of ``A`` (``ptr``, ``rows``, ``cols``,
    ``vals``), which is read as it is and shared by every LP of a search;
    ``lower`` and ``upper`` replace its bounds.  ``basis`` is the
    ``LpSolution.basis`` of an earlier optimal solve of the same ``A``,
    ``senses`` and ``b``; its bounds and ``c`` may differ.  The solve then
    starts from it.  ``None`` starts from the all-slack basis.  Bounds
    that are not one entry per column, or that leave a column no point
    (NaN, crossed, ``lower = +inf`` or ``upper = -inf``), raise
    ``ValueError``; so does a basis that is not m distinct columns of the
    n + m with n + m statuses, each column off it at lower, at upper or
    free (0, 1 or 2).
    """
    m, n = len(arrays.b), len(arrays.c)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"lower and upper must have one entry per column of the model ({n}), "
                         f"got shapes {lower.shape} and {upper.shape}")
    holds = (lower <= upper) & (lower < math.inf) & (upper > -math.inf)
    if not holds.all():
        j = int(np.argmin(holds))
        raise ValueError(f"column {j} has no value within its bounds [{lower[j]}, {upper[j]}]")
    if basis is not None:
        cols, status = np.asarray(basis[0]), np.asarray(basis[1])
        fits = len(cols) == m and len(status) == n + m and np.all((cols >= 0) & (cols < n + m))
        if fits:
            known = (status >= _AT_LO) & (status <= _FREE)
            known[cols] = True  # a basic column's status is not read
            fits = known.all() and np.bincount(cols).max(initial=0) <= 1
        if not fits:
            raise ValueError(f"basis does not fit a model of {m} rows and {n} columns")
    return _Simplex(arrays, lower, upper).solve(basis)


class _Simplex:
    def __init__(self, arrays, lower, upper):
        # the bounds and basis were checked by solve_lp_arrays
        self.m, self.nstruct = m, n = len(arrays.b), len(arrays.c)
        self.offset = float(arrays.offset)
        self.b = arrays.b
        # structural column j holds vals[ptr[j]:ptr[j+1]] in rows
        # rows[ptr[j]:ptr[j+1]]; entry k lies in column cols[k]
        self.ptr, self.rows, self.cols, self.vals = arrays.ptr, arrays.rows, arrays.cols, arrays.vals
        # row i holds row_vals[row_ptr[i]:row_ptr[i+1]] in columns row_cols[...]
        self.row_ptr, self.row_cols, self.row_vals = arrays.row_ptr, arrays.row_cols, arrays.row_vals
        self.col_count, self.row_count = np.diff(self.ptr), np.diff(self.row_ptr)

        slack_lo = np.where(arrays.senses > 0, -np.inf, 0.0)
        slack_up = np.where(arrays.senses < 0, np.inf, 0.0)
        self.lo = np.concatenate([lower, slack_lo])
        self.up = np.concatenate([upper, slack_up])
        self.not_fixed = self.up > self.lo
        # true costs of all n + m columns; ``cost`` is the vector priced
        self.c = np.concatenate([arrays.c, np.zeros(m)])
        self.cost = self.c
        self.limit = 2000 + 200 * (2 * m + n)
        self.pivots = 0
        self._since_refactor = 0

    # -- setup ---------------------------------------------------------------

    def _initial_status(self) -> np.ndarray:
        status = np.full(self.nstruct + self.m, _FREE, dtype=np.int8)
        status[np.isfinite(self.lo)] = _AT_LO
        status[~np.isfinite(self.lo) & np.isfinite(self.up)] = _AT_UP
        return status

    def _nonbasic_values(self) -> np.ndarray:
        """Each column at its nonbasic value: a bound, or zero (free or basic)."""
        return np.where(self.status == _AT_UP, self.up, np.where(self.status == _AT_LO, self.lo, 0.0))

    def _load(self, basis) -> None:
        """Start from a stored basis, or from the all-slack one when ``basis``
        is None; a nonbasic status whose bound the new box no longer has
        falls back to its initial one."""
        initial = self._initial_status()
        if basis is None:
            basis = (np.arange(self.nstruct, self.nstruct + self.m), initial)
        cols, status = basis
        self.basis = np.array(cols, dtype=int)
        self.lo_b, self.up_b = self.lo[self.basis], self.up[self.basis]  # bounds per basis position
        self.status = status.copy()
        self.status[self.basis] = _BASIC
        lost = (((self.status == _AT_LO) & ~np.isfinite(self.lo))
                | ((self.status == _AT_UP) & ~np.isfinite(self.up))
                | ((self.status == _FREE) & (np.isfinite(self.lo) | np.isfinite(self.up))))
        self.status[lost] = initial[lost]
        # the columns that may rise (at lower, unfixed, or free) and that may
        # fall (at upper, unfixed, or free); _set_status keeps them
        free = self.status == _FREE
        self.can_rise = free | ((self.status == _AT_LO) & self.not_fixed)
        self.can_fall = free | ((self.status == _AT_UP) & self.not_fixed)
        self._refactor()

    def _set_status(self, j: int, s: int) -> None:
        """Give column ``j`` status ``s`` and update the entering masks."""
        self.status[j] = s
        free = s == _FREE
        self.can_rise[j] = free or (s == _AT_LO and self.not_fixed[j])
        self.can_fall[j] = free or (s == _AT_UP and self.not_fixed[j])

    # -- linear algebra --------------------------------------------------------

    @staticmethod
    def _spans(ptr: np.ndarray, count: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The storage positions of the entries of rows (or columns) ``idx``
        under ``ptr`` (``count`` entries each), in the order of ``idx``, and
        how many each has."""
        starts = ptr[idx]
        counts = count[idx]
        ends = counts.cumsum()
        # the positions of idx[i]'s entries follow on from ends[i-1]
        return np.arange(ends[-1] if len(ends) else 0) + (starts + counts - ends).repeat(counts), counts

    def _pivot_row(self, u: np.ndarray) -> np.ndarray:
        """``u @ [A | I]``, one entry per structural and slack column, from
        the rows where ``u`` is nonzero: their entries are gathered from the
        row view in one pass, rows ascending, so each column sums its terms
        in ascending row order."""
        nz = u.nonzero()[0]
        at, counts = self._spans(self.row_ptr, self.row_count, nz)
        terms = u[nz].repeat(counts) * self.row_vals[at]
        return np.concatenate([np.bincount(self.row_cols[at], weights=terms, minlength=self.nstruct), u])

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v``, one entry per basis position: ``x = inner @ v[U]`` at
        the structural positions, ``v[S] - C[S] x`` at the slack ones."""
        x = self.inner @ v[self.urows]
        cx = np.bincount(self.crow, weights=self.cval * x[self.cown], minlength=self.m)
        out = (v - cx)[self.cover]
        out[self.spos] = x
        return out

    def _column(self, j: int) -> np.ndarray:
        """``B^-1 a_j`` for a structural or slack column ``j``."""
        n = self.nstruct
        a = np.zeros(self.m)
        if j >= n:
            a[j - n] = 1.0
        else:
            k = slice(self.ptr[j], self.ptr[j + 1])
            a[self.rows[k]] = self.vals[k]
        return self._solve(a)

    def _inverse_row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1``, one entry per row.  When position ``r``
        holds a structural, it is that structural's row of ``inner`` on U;
        when it holds the slack of row i, 1 at i and ``-C[i] inner`` on U,
        from row i's entries in basic columns."""
        u = np.zeros(self.m)
        col = self.basis[r]
        if col < self.nstruct:
            u[self.urows] = self.inner[self.inrow[col]]
            return u
        i = col - self.nstruct
        k = slice(self.row_ptr[i], self.row_ptr[i + 1])
        at = self.inrow[self.row_cols[k]]
        basic = at >= 0
        u[self.urows] = -(self.row_vals[k][basic] @ self.inner[at[basic]])
        u[i] = 1.0
        return u

    def _refactor(self) -> None:
        """Invert the basis afresh from the column storage, inverting only the
        bump.  A basic slack e_i covers row i, so the basis is nonsingular
        exactly when the k x k block C[U] of the k basic structural columns
        C on the k rows U no slack covers is, and only C[U] is inverted, to
        ``inner``: its rows follow the structural positions ``spos``, its
        columns the rows ``urows``.  The all-slack basis has k = 0 and
        inverts nothing.  The old inverse is dropped first, so that it is not
        held while the new one is built."""
        self._store = self.inner = None
        n, m = self.nstruct, self.m
        slack = self.basis >= n
        # per basis position, the row its slack covers (-1 at a structural,
        # whose entries the solves write over)
        self.cover = np.where(slack, self.basis - n, -1)
        spos = np.flatnonzero(~slack)
        bump = np.ones(m, dtype=bool)
        bump[self.cover[slack]] = False
        k = len(spos)
        # spos and urows are the first k entries of buffers a border appends to
        self._spos_buf, self._urow_buf = np.empty(m, dtype=int), np.empty(m, dtype=int)
        self._spos_buf[:k], self._urow_buf[:k] = spos, np.flatnonzero(bump)
        # each basic structural's row of inner and each bump row's column of
        # it; -1 for a nonbasic structural and for a covered row
        self.inrow = np.full(n, -1)
        self.inrow[self.basis[spos]] = np.arange(k)
        self.ucol = np.full(m, -1)
        self.ucol[self._urow_buf[:k]] = np.arange(k)
        # the entries of C: their rows, values and rows of inner, in buffers
        # the pivots append to; row a's entries start at cstart[a]
        at, counts = self._spans(self.ptr, self.col_count, self.basis[spos])
        self._cbuf = (self.rows[at], self.vals[at], np.arange(k).repeat(counts))
        self.cstart = (counts.cumsum() - counts).tolist()
        self._cview(len(at))
        block = np.zeros((k, k))  # C[U]
        if k:
            at = self.ucol[self.crow]
            e = at >= 0
            block[at[e], self.cown[e]] = self.cval[e]
            try:
                block = np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise NumericalInstabilityError("singular basis") from exc
        # inner is the top-left k x k corner of _store, which a border grows
        # 16 at a time, so that a border does not copy inner at every pivot
        self._store = block
        self._resize(k)

        x = self._nonbasic_values()
        Ax = np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=m) + x[n:]
        self.xB = self._solve(self.b - Ax)
        self._since_refactor = 0
        self._price()

    def _price(self) -> None:
        """Duals ``y`` and reduced costs ``d`` of the basis under ``cost``:
        ``y`` is each slack's cost on the row it covers and, on U, the
        structural costs less ``C[S]^T y[S]``, times ``inner``."""
        cost_b = self.cost[self.basis]
        y = np.zeros(self.m)
        slack = self.cover >= 0
        y[self.cover[slack]] = cost_b[slack]
        t = cost_b[self.spos] - np.bincount(self.cown, weights=self.cval * y[self.crow], minlength=len(self.spos))
        y[self.urows] = t @ self.inner
        self.y = y
        self.d = self.cost - self._pivot_row(y)

    def _count(self) -> None:
        """Book a pivot or bound flip; refactorize every ``_REFACTOR_EVERY``."""
        self.pivots += 1
        if self.pivots > self.limit:  # pragma: no cover - defensive
            raise NumericalInstabilityError("pivot limit exceeded, presumed cycling")
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    def _fresh(self) -> bool:
        """Whether no pivot has happened since the last refactorization; if
        one has, refactorize instead, so the caller looks again."""
        if self._since_refactor == 0:
            return True
        self._refactor()
        return False

    # -- pivoting ----------------------------------------------------------------

    def _wrong_sign(self, d: np.ndarray) -> np.ndarray:
        """Nonbasic, unfixed columns whose ``d`` has the wrong sign for their
        status beyond ``_ENTER_TOL``: the primal's entering candidates under
        reduced costs, the dual's under a pivot row."""
        return (self.can_rise & (d < -_ENTER_TOL)) | (self.can_fall & (d > _ENTER_TOL))

    def _choose_entering(self, bland: bool):
        eligible = self._wrong_sign(self.d)
        if not eligible.any():
            return None, 0
        if bland:
            j = int(np.flatnonzero(eligible)[0])
        else:
            score = np.where(eligible, np.abs(self.d), 0.0)
            j = int(np.argmax(score))
        return j, 1 if self.d[j] < 0.0 else -1

    def _ratio_test(self, j: int, direction: int, w: np.ndarray):
        """Largest step for entering column ``j``; returns (delta, leaving_row).

        ``leaving_row`` is -1 for a bound flip.  ``delta`` of +inf signals an
        unbounded ray; a None delta signals a too-small pivot.
        """
        t_own = self.up[j] - self.lo[j]
        rate = direction * w
        ratios = np.full(self.m, np.inf)
        pos = rate > _PIVOT_TOL
        neg = rate < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            ratios[pos] = np.maximum(self.xB[pos] - self.lo_b[pos], 0.0) / rate[pos]
            ratios[neg] = np.maximum(self.up_b[neg] - self.xB[neg], 0.0) / (-rate[neg])
        rmin = float(ratios.min(initial=math.inf))

        if t_own <= rmin:
            if math.isinf(t_own):
                # no blocking bound: either a genuine ray or a numerically
                # vanishing pivot column
                shaky = (np.abs(rate) > _PIVOT_FLOOR) & (np.abs(rate) <= _PIVOT_TOL)
                if shaky.any():
                    return None, -1
                return math.inf, -1
            return t_own, -1
        cand = np.flatnonzero(ratios <= rmin + 1e-12)
        r = int(cand[np.argmin(self.basis[cand])])
        return max(rmin, 0.0), r

    def _apply_pivot(self, j, step, r, w, leave_status, rho=None) -> None:
        """Column ``j`` moves by ``step`` and replaces the variable basic in
        row ``r``, which leaves with ``leave_status``.  ``rho`` is row ``r``
        of ``B^-1`` when the caller has it; the update needs it when a slack
        leaves, and computes it then if not given."""
        wr = w[r]
        if abs(wr) < _PIVOT_FLOOR:
            raise NumericalInstabilityError(f"pivot magnitude {abs(wr):.3e} below 1e-10")
        leaving = self.basis[r]
        if rho is None and leaving >= self.nstruct:
            rho = self._inverse_row(r)
        s = self.status[j]
        enter_val = (self.up[j] if s == _AT_UP else self.lo[j] if s == _AT_LO else 0.0) + step
        self.xB -= step * w
        self._set_status(leaving, leave_status)
        self._set_status(j, _BASIC)
        self.basis[r] = j
        self.lo_b[r], self.up_b[r] = self.lo[j], self.up[j]
        self.xB[r] = enter_val
        self._update_inverse(j, leaving, r, w, rho)

    def _update_inverse(self, j, leaving, r, w, rho) -> None:
        """Carry ``inner`` across the pivot that put ``j`` in position ``r``
        in place of ``leaving``, in O(k^2).  Row ``r`` of the inverse becomes
        ``rho / w[r]`` and every other row q loses ``w[q]`` times it; on the
        entries ``inner`` holds that is one rule per case.  Only the rows of
        ``inner`` where ``w`` is nonzero change; the rest would subtract
        zeros.  A leaving structural's entries stay in C's arrays as zeros
        until the next refactorization."""
        n, k, wr = self.nstruct, len(self.spos), w[r]
        ws = w[self.spos]
        touched = ws.nonzero()[0]
        if leaving < n:
            a = self.inrow[leaving]
            self.inrow[leaving] = -1
            # row 0 owns the zeros, since any k >= 1 has it
            dead = slice(self.cstart[a], self.cstart[a] + self.col_count[leaving])
            self.cval[dead], self.cown[dead] = 0.0, 0
        if j < n and leaving < n:
            # a structural replaces a structural: Sherman-Morrison on row a
            row = self.inner[a] / wr
            self.inner[touched] -= ws[touched, None] * row
            self.inner[a] = row
            self._add_column(j, a)
        elif j < n:
            # a structural replaces the slack of row i: i joins U as column k,
            # and position r's row k is the pivot row, 1 / w[r] at i (a border)
            i = leaving - n
            if k == len(self._store):
                store = np.empty((min(self.m, k + 16),) * 2)
                store[:k, :k] = self.inner
                self._store = store
            self._spos_buf[k], self._urow_buf[k] = r, i
            self.ucol[i], self.cover[r] = k, -1
            self._resize(k + 1)
            row = rho[self.urows[:k]] / wr
            self.inner[touched, :k] -= ws[touched, None] * row
            self.inner[:k, k] = ws / -wr
            self.inner[k, :k] = row
            self.inner[k, k] = 1.0 / wr
            self._add_column(j, k)
        elif leaving < n:
            # the slack of bump row i replaces a structural: inner loses row
            # a and i's column c, whose entries the update makes zero (a shrink)
            i = j - n
            keep_row, keep_col = np.arange(k) != a, np.arange(k) != self.ucol[i]
            inner = self.inner
            self._store = inner[np.ix_(keep_row, keep_col)] - np.outer(ws[keep_row], inner[a, keep_col] / wr)
            self._spos_buf[:k - 1], self._urow_buf[:k - 1] = self.spos[keep_row], self.urows[keep_col]
            self._resize(k - 1)
            self.inrow[self.basis[self.spos]] = np.arange(k - 1)
            self.ucol[i] = -1
            self.ucol[self.urows] = np.arange(k - 1)
            self.cover[r] = i
            del self.cstart[a]
            if k == 1:
                self._cview(0)  # every entry left was a's
            else:
                self.cown -= self.cown > a
        else:
            # the slack of bump row i replaces the slack of row i': i' takes
            # i's column c of inner, 1 / w[r] in the pivot row
            i, c = j - n, self.ucol[j - n]
            self.inner[touched] -= ws[touched, None] * (rho[self.urows] / wr)
            self.inner[:, c] = ws / -wr
            self._urow_buf[c] = leaving - n
            self.ucol[leaving - n], self.ucol[i], self.cover[r] = c, -1, i

    def _resize(self, k: int) -> None:
        """Read ``inner``, ``spos`` and ``urows`` as the first k of their
        buffers."""
        self.inner = self._store[:k, :k]
        self.spos, self.urows = self._spos_buf[:k], self._urow_buf[:k]

    def _cview(self, end: int) -> None:
        """Read C's entries as the first ``end`` of each buffer."""
        crow, cval, cown = self._cbuf
        self.crow, self.cval, self.cown = crow[:end], cval[:end], cown[:end]

    def _add_column(self, j: int, a: int) -> None:
        """Append structural ``j``'s entries to C's arrays as row ``a`` of
        ``inner``; a full buffer doubles."""
        e = slice(self.ptr[j], self.ptr[j + 1])
        start = len(self.crow)
        end = start + e.stop - e.start
        if end > len(self._cbuf[0]):
            self._cbuf = tuple(np.concatenate([buf[:start], np.zeros(2 * end, buf.dtype)]) for buf in self._cbuf)
        crow, cval, cown = self._cbuf
        crow[start:end], cval[start:end], cown[start:end] = self.rows[e], self.vals[e], a
        if a == len(self.cstart):
            self.cstart.append(start)
        else:
            self.cstart[a] = start
        self._cview(end)
        self.inrow[j] = a

    # -- main loops -----------------------------------------------------------

    def _primal(self) -> str:
        """Primal simplex under the true costs from a primal-feasible basis;
        returns "optimal" or "unbounded"."""
        degen_run = 0
        self._price()
        while True:
            j, direction = self._choose_entering(bland=degen_run >= _BLAND_AFTER)
            if j is None:
                if self._fresh():
                    return "optimal"
                continue
            w = self._column(j)
            delta, r = self._ratio_test(j, direction, w)
            if delta is None or math.isinf(delta):
                if not self._fresh():
                    continue
                if delta is None:
                    raise NumericalInstabilityError("pivot magnitude below 1e-10 after refactorization")
                return "unbounded"
            if r < 0:
                # bound flip: the entering variable crosses to its other bound
                self.xB -= delta * direction * w
                self._set_status(j, _AT_UP if self.status[j] == _AT_LO else _AT_LO)
            else:
                # the leaving variable stops at the bound it ran into
                self._apply_pivot(j, direction * delta, r, w,
                                  _AT_LO if direction * w[r] > 0 else _AT_UP)
            self._count()
            if self._since_refactor:  # a refactorization has priced already
                self._price()
            degen_run = degen_run + 1 if delta <= _DEGEN_TOL else 0

    def _dual(self) -> bool:
        """Bounded dual simplex from the loaded basis to a primal-feasible one.
        Returns False when a row proves the bounds infeasible.

        On entry the cost of every column in ``_wrong_sign`` is shifted by its
        reduced cost, which makes the basis dual feasible; ``cost`` keeps the
        shifted costs until the basis is primal feasible, so a refactorization
        prices with them, and then returns to the true costs.

        The leaving row is the most bound-violating basic variable (lowest
        row on ties), which leaves at the bound it violates.  The entering
        column minimises ``|d_j| / |alpha_j|`` over the nonbasics that can
        move it there (largest ``|alpha_j|``, then lowest index, on ties), so
        every reduced cost keeps its sign.  The reduced costs are updated in
        place after each pivot and priced afresh at each refactorization.
        """
        shift = np.where(self._wrong_sign(self.d), self.d, 0.0)
        self.cost = self.c - shift
        self.d -= shift
        while True:
            violation = np.maximum(self.lo_b - self.xB, self.xB - self.up_b)
            if violation.max(initial=0.0) <= FEASIBILITY_TOL:
                self.cost = self.c
                return True
            r = int(np.argmax(violation))
            rise = self.xB[r] < self.lo_b[r]  # the leaving variable climbs to its lower bound
            rho = self._inverse_row(r)
            alpha = self._pivot_row(rho)
            # raising x_j moves x_B[r] toward its violated bound where the
            # signed row (alpha if rise else -alpha) is negative: the
            # _wrong_sign of that row, read from alpha's signs
            pos, neg = alpha > _ENTER_TOL, alpha < -_ENTER_TOL
            eligible = ((self.can_rise & (neg if rise else pos))
                        | (self.can_fall & (pos if rise else neg))).nonzero()[0]
            if not eligible.size:
                if self._fresh():
                    return False
                continue
            ratios = np.abs(self.d[eligible] / alpha[eligible])
            cand = eligible[ratios <= ratios.min() + 1e-12]
            j = int(cand[np.abs(alpha[cand]).argmax()])
            w = self._column(j)
            target = self.lo_b[r] if rise else self.up_b[r]
            self._apply_pivot(j, (self.xB[r] - target) / w[r], r, w, _AT_LO if rise else _AT_UP, rho)
            self.d -= (self.d[j] / alpha[j]) * alpha
            self._count()

    def solve(self, basis=None) -> LpSolution:
        self._load(basis)
        if not self._dual():
            return LpSolution("infeasible", None, math.inf, None, None, self.pivots)
        if self._primal() == "unbounded":
            return LpSolution("unbounded", None, -math.inf, None, None, self.pivots)

        n = self.nstruct
        full = self._nonbasic_values()
        full[self.basis] = self.xB
        return LpSolution(
            "optimal",
            full[:n].copy(),
            float(self.c[:n] @ full[:n] + self.offset),
            self.y.copy(),
            self.d[:n].copy(),
            self.pivots,
            (self.basis.copy(), self.status.copy()),
        )
