"""Bounded-variable primal simplex.

Two-phase revised simplex over the standard form ``A x + s = b`` with
sense-dependent slack bounds; free variables are handled natively (nonbasic
at zero) rather than split.  Pricing is Dantzig with a permanent-for-the-run
Bland's-rule fallback after a run of 1000 degenerate pivots; all ties break
toward the lowest variable index, so solves are deterministic.

The basis inverse is maintained explicitly with product-form updates and
periodic refactorization.  Adequate at desk scale (hundreds of rows), which
is the regime every ground holding model here lives in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LpSolution", "NumericalInstabilityError", "solve_lp_arrays"]

_AT_LO, _AT_UP, _FREE, _BASIC = 0, 1, 2, 3

_ENTER_TOL = 1e-9      # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-9      # smallest acceptable ratio-test denominator
_PIVOT_FLOOR = 1e-10   # below this a pivot is reported as numerical trouble
_DEGEN_TOL = 1e-9      # step sizes at or below this count as degenerate
_BLAND_AFTER = 1000    # consecutive degenerate pivots before Bland's rule
_REFACTOR_EVERY = 100  # pivots between basis refactorizations
FEASIBILITY_TOL = 1e-7  # bound violation a slack or phase-1 total may carry


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
    pivots: int = 0


def solve_lp_arrays(
    c: np.ndarray,
    offset: float,
    A: np.ndarray,
    senses: np.ndarray,
    b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> LpSolution:
    """Solve ``min c.x + offset`` s.t. ``A x (senses) b``, ``lower <= x <= upper``.

    ``senses`` holds -1 for ``<=``, 0 for ``=``, +1 for ``>=`` per row.
    """
    return _Simplex(c, offset, A, senses, b, lower, upper).solve()


class _Simplex:
    def __init__(self, c, offset, A, senses, b, lower, upper):
        A = np.asarray(A, dtype=float)
        self.m, self.nstruct = A.shape
        m = self.m
        self.offset = float(offset)
        self.cstruct = np.asarray(c, dtype=float)
        self.b = np.asarray(b, dtype=float)

        slack_lo = np.where(senses > 0, -np.inf, 0.0)
        slack_up = np.where(senses < 0, np.inf, 0.0)
        self.A = np.hstack([A, np.eye(m)])
        self.lo = np.concatenate([np.asarray(lower, dtype=float), slack_lo])
        self.up = np.concatenate([np.asarray(upper, dtype=float), slack_up])

        self.pivots = 0
        self._since_refactor = 0

    # -- setup ---------------------------------------------------------------

    def _initial_status(self, ncols: int) -> np.ndarray:
        status = np.full(ncols, _FREE, dtype=np.int8)
        status[np.isfinite(self.lo[:ncols])] = _AT_LO
        at_up = ~np.isfinite(self.lo[:ncols]) & np.isfinite(self.up[:ncols])
        status[at_up] = _AT_UP
        return status

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.status == _AT_UP, self.up, np.where(self.status == _AT_LO, self.lo, 0.0))
        vals[self.status == _BASIC] = 0.0
        return vals

    def _crash(self) -> None:
        """Slack basis where the slack value is in bounds, artificials elsewhere."""
        m, n = self.m, self.nstruct
        self.status = self._initial_status(n + m)
        resid = self.b - self.A @ self._nonbasic_values()

        self.basis = np.empty(m, dtype=int)
        self.xB = np.zeros(m)
        art_rows: list[int] = []
        for i in range(m):
            s = n + i
            if self.lo[s] - FEASIBILITY_TOL <= resid[i] <= self.up[s] + FEASIBILITY_TOL:
                self.basis[i] = s
                self.status[s] = _BASIC
                self.xB[i] = resid[i]
            else:
                art_rows.append(i)

        self.nart = len(art_rows)
        if self.nart:
            art = np.zeros((m, self.nart))
            for k, i in enumerate(art_rows):
                sign = 1.0 if resid[i] >= 0.0 else -1.0
                art[i, k] = sign
                col = n + m + k
                self.basis[i] = col
                self.xB[i] = abs(resid[i])
            self.A = np.hstack([self.A, art])
            self.lo = np.concatenate([self.lo, np.zeros(self.nart)])
            self.up = np.concatenate([self.up, np.full(self.nart, np.inf)])
            self.status = np.concatenate([self.status, np.full(self.nart, _BASIC, dtype=np.int8)])
        self._refactor()

    # -- linear algebra --------------------------------------------------------

    def _refactor(self) -> None:
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NumericalInstabilityError("singular basis") from exc
        vals = self._nonbasic_values()
        self.xB = self.Binv @ (self.b - self.A @ vals)
        self._since_refactor = 0

    # -- pivoting ----------------------------------------------------------------

    def _choose_entering(self, d: np.ndarray, bland: bool):
        not_fixed = self.up > self.lo
        can_lo = (self.status == _AT_LO) & (d < -_ENTER_TOL) & not_fixed
        can_up = (self.status == _AT_UP) & (d > _ENTER_TOL) & not_fixed
        can_fr = (self.status == _FREE) & (np.abs(d) > _ENTER_TOL)
        eligible = can_lo | can_up | can_fr
        if not eligible.any():
            return None, 0
        if bland:
            j = int(np.flatnonzero(eligible)[0])
        else:
            score = np.where(eligible, np.abs(d), 0.0)
            j = int(np.argmax(score))
        if can_lo[j] or (can_fr[j] and d[j] < 0.0):
            return j, 1
        return j, -1

    def _ratio_test(self, j: int, direction: int, w: np.ndarray):
        """Largest step for entering column ``j``; returns (delta, leaving_row).

        ``leaving_row`` is -1 for a bound flip.  ``delta`` of +inf signals an
        unbounded ray; a None delta signals a too-small pivot.
        """
        t_own = self.up[j] - self.lo[j]
        rate = direction * w
        ratios = np.full(self.m, np.inf)
        lo_b = self.lo[self.basis]
        up_b = self.up[self.basis]
        pos = rate > _PIVOT_TOL
        neg = rate < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            ratios[pos] = np.maximum(self.xB[pos] - lo_b[pos], 0.0) / rate[pos]
            ratios[neg] = np.maximum(up_b[neg] - self.xB[neg], 0.0) / (-rate[neg])
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

    def _value_of(self, j: int) -> float:
        if self.status[j] == _AT_LO:
            return self.lo[j]
        if self.status[j] == _AT_UP:
            return self.up[j]
        return 0.0

    def _apply_pivot(self, j, direction, delta, r, w) -> None:
        enter_val = self._value_of(j) + direction * delta
        self.xB -= delta * direction * w
        leaving = self.basis[r]
        rate = direction * w[r]
        self.status[leaving] = _AT_LO if rate > 0 else _AT_UP
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xB[r] = enter_val

        wr = w[r]
        if abs(wr) < _PIVOT_FLOOR:
            raise NumericalInstabilityError(f"pivot magnitude {abs(wr):.3e} below 1e-10")
        self.Binv[r] /= wr
        others = w.copy()
        others[r] = 0.0
        self.Binv -= np.outer(others, self.Binv[r])

    # -- main loop ------------------------------------------------------------

    def _run(self, cvec: np.ndarray, phase: int) -> str:
        degen_run = 0
        limit = 2000 + 200 * (self.m + self.A.shape[1])
        retried_after_refactor = False
        while True:
            if self.pivots > limit:  # pragma: no cover - defensive
                raise NumericalInstabilityError("pivot limit exceeded, presumed cycling")
            if self._since_refactor >= _REFACTOR_EVERY:
                self._refactor()
            y = cvec[self.basis] @ self.Binv
            d = cvec - y @ self.A
            j, direction = self._choose_entering(d, bland=degen_run >= _BLAND_AFTER)
            if j is None:
                return "optimal"
            w = self.Binv @ self.A[:, j]
            delta, r = self._ratio_test(j, direction, w)
            if delta is None:
                if retried_after_refactor:
                    raise NumericalInstabilityError("pivot magnitude below 1e-10 after refactorization")
                self._refactor()
                retried_after_refactor = True
                continue
            retried_after_refactor = False
            if math.isinf(delta):
                if phase == 1:  # pragma: no cover - defensive
                    raise NumericalInstabilityError("phase-1 objective reported unbounded")
                return "unbounded"
            if r < 0:
                # bound flip: the entering variable crosses to its other bound
                self.xB -= delta * direction * w
                self.status[j] = _AT_UP if self.status[j] == _AT_LO else _AT_LO
            else:
                self._apply_pivot(j, direction, delta, r, w)
            self.pivots += 1
            self._since_refactor += 1
            degen_run = degen_run + 1 if delta <= _DEGEN_TOL else 0

    def _drive_out_artificials(self) -> None:
        n_real = self.nstruct + self.m
        for r in range(self.m):
            if self.basis[r] < n_real:
                continue
            row = self.Binv[r] @ self.A[:, :n_real]
            pivot_cols = np.flatnonzero((np.abs(row) > 1e-7) & (self.status[:n_real] != _BASIC))
            if pivot_cols.size:
                j = int(pivot_cols[0])
                w = self.Binv @ self.A[:, j]
                self._apply_pivot(j, 1, 0.0, r, w)
            # else: redundant row, the artificial stays basic pinned at zero
        self.lo[n_real:] = 0.0
        self.up[n_real:] = 0.0
        self._refactor()

    def solve(self) -> LpSolution:
        self._crash()
        ncols = self.A.shape[1]

        if self.nart:
            c1 = np.zeros(ncols)
            c1[self.nstruct + self.m:] = 1.0
            self._run(c1, phase=1)
            art_total = float(self.xB[self.basis >= self.nstruct + self.m].sum())
            if art_total > FEASIBILITY_TOL:
                return LpSolution("infeasible", None, math.inf, None, None, self.pivots)
            self._drive_out_artificials()

        c2 = np.zeros(ncols)
        c2[: self.nstruct] = self.cstruct
        status = self._run(c2, phase=2)
        if status == "unbounded":
            return LpSolution("unbounded", None, -math.inf, None, None, self.pivots)

        self._refactor()
        full = self._nonbasic_values()
        full[self.basis] = self.xB
        y = c2[self.basis] @ self.Binv
        reduced = c2 - y @ self.A
        objective = float(self.cstruct @ full[: self.nstruct] + self.offset)
        return LpSolution(
            "optimal",
            full[: self.nstruct].copy(),
            objective,
            y.copy(),
            reduced[: self.nstruct].copy(),
            self.pivots,
        )
