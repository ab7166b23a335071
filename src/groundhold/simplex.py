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
vector e_i and is never stored.  The entering column ``Binv @ a_j`` and
``A @ x_N`` read the columns and touch only the stored nonzeros, so a
product costs in proportion to them and not to m * (n + m).  Every
``u @ [A | I]`` (pricing ``y``, and the dual's pivot row ``Binv[r]``)
reads the rows instead, only those where ``u`` is nonzero (for the pivot
row about 4% of them in the median on the benchmark's largest LPs),
gathered in one pass, rows ascending, and summed per column.  Which
nonbasic columns may rise and which may fall are two masks kept across
pivots, updated for the one or two columns a pivot or bound flip moves.

The basis inverse is kept explicitly as a dense m x m array.  A
refactorization inverts only the bump: each basic slack e_i covers row i,
so of the basis only the k basic structural columns on the k rows no slack
covers form a block that needs inverting, and the rest of the inverse
follows from it in closed form.  The all-slack basis, where every solve
without a stored basis starts, has k = 0 and inverts nothing.  Between
refactorizations (every 100 pivots) each pivot is a rank-1 update of only
the rows of the inverse where the entering column is nonzero; the other
rows would subtract zeros, so the values are those of updating every row
(only the sign of an exact zero can differ).  An answer
(optimal, unbounded, infeasible, or a pivot too small to take) is given
only from a fresh factorization: if a pivot has happened since the last
one, the basis is refactorized and the loop looks again, so the values,
duals and reduced costs returned all come from a fresh inverse.

The dense inverse sets the limit.  On the dr-SAGHP root of ``gen
--flights 60 --horizon 32 --seed 3`` (2,841 rows, 1,138 columns; one BLAS
thread, 2-vCPU VM) the solve takes about 148 s over 2,628 pivots, 56 ms per
pivot: 95% of it is the rank-1 update of the touched rows, and the 27 bump
inversions take 0.2 s in all.  The benchmark's root LPs (up to 421 rows)
take about 0.1 ms per pivot.
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
    starts from it.  ``None`` starts from the all-slack basis.  A basis
    that is not m distinct columns of the n + m with n + m statuses raises
    ``ValueError``.
    """
    if basis is not None:
        m, n = len(arrays.b), len(arrays.c)
        cols = np.asarray(basis[0])
        fits = len(cols) == m and len(basis[1]) == n + m and np.all((cols >= 0) & (cols < n + m))
        if not fits or np.bincount(cols).max(initial=0) > 1:
            raise ValueError(f"basis does not fit a model of {m} rows and {n} columns")
    return _Simplex(arrays, lower, upper).solve(basis)


class _Simplex:
    def __init__(self, arrays, lower, upper):
        self.m, self.nstruct = m, n = len(arrays.b), len(arrays.c)
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError(f"lower and upper must have one entry per column of the model ({n}), "
                             f"got shapes {lower.shape} and {upper.shape}")
        self.offset = float(arrays.offset)
        self.b = arrays.b
        # structural column j holds vals[ptr[j]:ptr[j+1]] in rows
        # rows[ptr[j]:ptr[j+1]]; entry k lies in column cols[k]
        self.ptr, self.rows, self.cols, self.vals = arrays.ptr, arrays.rows, arrays.cols, arrays.vals
        # row i holds row_vals[row_ptr[i]:row_ptr[i+1]] in columns row_cols[...]
        self.row_ptr, self.row_cols, self.row_vals = arrays.row_ptr, arrays.row_cols, arrays.row_vals

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

    def _pivot_row(self, u: np.ndarray) -> np.ndarray:
        """``u @ [A | I]``, one entry per structural and slack column, from
        the rows where ``u`` is nonzero: their entries are gathered from the
        row view in one pass, rows ascending, so each column sums its terms
        in ascending row order."""
        nz = u.nonzero()[0]
        starts = self.row_ptr[nz]
        counts = self.row_ptr[nz + 1] - starts
        ends = counts.cumsum()
        # the view positions of row nz[i]'s entries follow on from ends[i-1]
        at = np.arange(ends[-1] if len(ends) else 0) + (starts + counts - ends).repeat(counts)
        terms = u[nz].repeat(counts) * self.row_vals[at]
        return np.concatenate([np.bincount(self.row_cols[at], weights=terms, minlength=self.nstruct), u])

    def _column(self, j: int) -> np.ndarray:
        """``Binv @ a_j`` for a structural or slack column ``j``."""
        if j >= self.nstruct:
            return self.Binv[:, j - self.nstruct].copy()
        k = slice(self.ptr[j], self.ptr[j + 1])
        return self.Binv[:, self.rows[k]] @ self.vals[k]

    def _refactor(self) -> None:
        """Invert the basis afresh from the column storage, inverting only the
        bump.  A basic slack e_i covers row i, so the basis is nonsingular
        exactly when the k x k block C[U] of the k basic structural columns
        C on the k rows U no slack covers is, and only C[U] is inverted.
        The rest of the inverse is written down: 1 at each slack's own row,
        ``C[U]^-1`` in the structural positions' U columns,
        ``-C[S] C[U]^-1`` in the slack positions' U columns (S the covered
        rows), zero elsewhere.  The all-slack basis has k = 0 and inverts
        nothing."""
        n, m = self.nstruct, self.m
        slack = np.flatnonzero(self.basis >= n)  # basis positions of the slacks
        covered = self.basis[slack] - n
        struct = np.flatnonzero(self.basis < n)
        bump = np.ones(m, dtype=bool)
        bump[covered] = False
        Binv = np.zeros((m, m))
        Binv[slack, covered] = 1.0
        if len(struct):
            at = np.full(n, -1)
            at[self.basis[struct]] = np.arange(len(struct))  # each basic structural's column of C
            e = at[self.cols] >= 0
            C = np.zeros((m, len(struct)))
            C[self.rows[e], at[self.cols[e]]] = self.vals[e]
            try:
                inner = np.linalg.inv(C[bump])
            except np.linalg.LinAlgError as exc:
                raise NumericalInstabilityError("singular basis") from exc
            Binv[np.ix_(struct, bump)] = inner
            Binv[np.ix_(slack, bump)] = -(C[covered] @ inner)
        self.Binv = Binv

        x = self._nonbasic_values()
        Ax = np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=m) + x[n:]
        self.xB = Binv @ (self.b - Ax)
        self._since_refactor = 0
        self._price()

    def _price(self) -> None:
        """Duals ``y`` and reduced costs ``d`` of the basis under ``cost``."""
        self.y = self.cost[self.basis] @ self.Binv
        self.d = self.cost - self._pivot_row(self.y)

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

    def _apply_pivot(self, j, step, r, w, leave_status) -> None:
        """Column ``j`` moves by ``step`` and replaces the variable basic in
        row ``r``, which leaves with ``leave_status``."""
        s = self.status[j]
        enter_val = (self.up[j] if s == _AT_UP else self.lo[j] if s == _AT_LO else 0.0) + step
        self.xB -= step * w
        self._set_status(self.basis[r], leave_status)
        self._set_status(j, _BASIC)
        self.basis[r] = j
        self.lo_b[r], self.up_b[r] = self.lo[j], self.up[j]
        self.xB[r] = enter_val

        wr = w[r]
        if abs(wr) < _PIVOT_FLOOR:
            raise NumericalInstabilityError(f"pivot magnitude {abs(wr):.3e} below 1e-10")
        self.Binv[r] /= wr
        # only the rows where the entering column is nonzero change; the
        # rest would subtract zeros
        touched = w.nonzero()[0]
        touched = touched[touched != r]
        self.Binv[touched] -= w[touched, None] * self.Binv[r]

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
            below = self.lo_b - self.xB
            above = self.xB - self.up_b
            violation = np.maximum(below, above)
            if violation.max(initial=0.0) <= FEASIBILITY_TOL:
                self.cost = self.c
                return True
            r = int(np.argmax(violation))
            rise = below[r] > 0.0  # the leaving variable climbs to its lower bound
            alpha = self._pivot_row(self.Binv[r])
            # raising x_j moves x_B[r] toward its violated bound where the
            # signed row (alpha if rise else -alpha) is negative
            eligible = self._wrong_sign(alpha if rise else -alpha).nonzero()[0]
            if not eligible.size:
                if self._fresh():
                    return False
                continue
            ratios = np.abs(self.d[eligible]) / np.abs(alpha[eligible])
            cand = eligible[ratios <= ratios.min() + 1e-12]
            j = int(cand[np.abs(alpha[cand]).argmax()])
            w = self._column(j)
            target = self.lo_b[r] if rise else self.up_b[r]
            self._apply_pivot(j, (self.xB[r] - target) / w[r], r, w, _AT_LO if rise else _AT_UP)
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
