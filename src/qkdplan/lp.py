"""Self-contained dense linear-programming solver.

Minimizes c.x subject to inequality rows A_ub x <= b_ub, equality rows
A_eq x = b_eq, and x >= 0; an absent block is a 0-row array.  Two-phase
tableau simplex: phase 1 drives artificial variables out with a
feasibility objective, phase 2 optimizes the real cost.  Each phase
pivots by Dantzig's rule for speed and, after a run of degenerate pivots,
by Bland's rule for the rest of that phase, which guarantees termination
on the highly degenerate flow LPs this package produces.

Two shortcuts skip work whose result is known exactly:

- A phase whose cost has at most one nonzero, cost[k], prices from one
  tableau row: the reduced costs are cost - cost[k] * (row of k) when k
  is basic, and cost itself when it is not.  The full product
  cost[basis] @ T adds that one rounded product to exact zeros, in any
  summation order, so the reduced costs are the same bits.  Phase 2 of
  such a program (every max-min demand LP, whose cost is -t) keeps its
  tableau in column-major (Fortran) order; every other phase keeps
  row-major order, so its pricing product runs as before.
- A pivot updates only the lines along the tableau's contiguous axis that
  can change: in a row-major tableau the rows whose pivot-column entry is
  nonzero, in a column-major one the columns whose pivot-row entry is
  nonzero, or the whole tableau when those are more than half.  A skipped
  line would have had exact zeros subtracted.

So the layout and the shortcuts change no pivot and no bit of the result.
Everything is deterministic: identical inputs take identical pivot
sequences and return identical solutions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LpStatus", "LinearProgram", "LpSolution", "solve"]

_PIVOT_TOL = 1e-10
_OPT_TOL = 1e-9  # reduced-cost optimality tolerance
_FEAS_TOL = 1e-8  # relative feasibility tolerance of rows and the result
_DEGENERATE_SWITCH = 24  # consecutive degenerate pivots before Bland engages


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0.

    An absent (None) a_ub/b_ub or a_eq/b_eq pair is stored as a 0-row array.
    """

    objective: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    # Not a field: benchmark/tracing.py and benchmark/test_bench.py still read
    # it, and the next benchmark change drops it.
    bounds = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        _require_finite("objective", c)
        object.__setattr__(self, "objective", c)
        n = c.size
        for name in ("ub", "eq"):
            a = getattr(self, f"a_{name}")
            b = getattr(self, f"b_{name}")
            if (a is None) != (b is None):
                raise ValueError(f"a_{name} and b_{name} must be given together")
            if a is None:
                a, b = np.zeros((0, n)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.asarray(b, dtype=float).reshape(-1)
            if a.shape != (b.size, n):
                raise ValueError(
                    f"a_{name} shape {a.shape} does not match "
                    f"{b.size} rows x {n} variables"
                )
            _require_finite(f"a_{name}", a)
            _require_finite(f"b_{name}", b)
            object.__setattr__(self, f"a_{name}", a)
            object.__setattr__(self, f"b_{name}", b)

    @property
    def num_variables(self) -> int:
        return self.objective.size


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds NaN or infinity")


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; returns Optimal/Infeasible/Unbounded with x and value.

    Reduced costs count as optimal above -1e-9; rows and the returned
    point, x >= 0 included, are held to 1e-8 relative to their scale.
    """
    n = lp.num_variables
    m_ub = lp.b_ub.size
    b = np.concatenate([lp.b_ub, lp.b_eq])
    negative = b < 0

    # Columns: structural | ub slacks | artificials | rhs.  A <= row with a
    # nonnegative rhs starts on its slack; every other row gets an
    # artificial, in row order.  Phase 1 is row-major; phase 2 is
    # column-major when its cost has at most one nonzero.
    first_artificial = n + m_ub
    artificial_rows = np.flatnonzero(negative | (np.arange(b.size) >= m_ub))
    artificial_cols = first_artificial + np.arange(artificial_rows.size)
    phase2_order = "F" if np.count_nonzero(lp.objective) <= 1 else "C"
    t = np.zeros(
        (b.size, first_artificial + artificial_rows.size + 1),
        order="C" if artificial_rows.size else phase2_order,
    )
    t[:m_ub, :n] = lp.a_ub
    t[np.arange(m_ub), np.arange(n, first_artificial)] = 1.0
    t[m_ub:, :n] = lp.a_eq
    t[negative, :first_artificial] *= -1.0
    t[:, -1] = np.where(negative, -b, b)
    t[artificial_rows, artificial_cols] = 1.0
    basis = np.arange(n, n + b.size)
    basis[artificial_rows] = artificial_cols
    basis = basis.tolist()

    if artificial_rows.size:
        phase1_cost = np.zeros(t.shape[1] - 1)
        phase1_cost[first_artificial:] = 1.0
        if _run(t, basis, phase1_cost) is not LpStatus.OPTIMAL:  # pragma: no cover - cannot be unbounded
            raise RuntimeError("phase 1 terminated abnormally")
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        if float(phase1_cost[basis] @ t[:, -1]) > _FEAS_TOL * scale:
            return LpSolution(status=LpStatus.INFEASIBLE)
        t, basis = _evict_artificials(t, basis, first_artificial, phase2_order)

    phase2_cost = np.zeros(t.shape[1] - 1)
    phase2_cost[:n] = lp.objective
    if _run(t, basis, phase2_cost) is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)

    values = np.zeros(t.shape[1] - 1)
    values[basis] = t[:, -1]
    x = values[:n] + 0.0  # no -0.0 entries
    if not _feasible(lp, x):  # pragma: no cover - numerical safety net
        raise ArithmeticError("simplex returned an infeasible point")
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective_value=float(lp.objective @ x))


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make column col basic in row, in place.

    Every entry gets t[i, j] - column[i] * pivot_row[j].  Where either
    factor is zero that subtracts an exact zero (the tableau is finite),
    which changes no value, at most the sign of a zero.  One rule runs on
    whichever of t and t.T is C-contiguous: its lines are the rows of t,
    each scaled by its pivot-column entry, or the columns of t, each scaled
    by its pivot-row entry.  Only the lines with a nonzero factor are
    updated, or all of them when those are more than half, since gathering
    and scattering cost about twice a full update per line.  Either way
    the tableau, the pivot sequence and the solution are those of the full
    update.
    """
    t[row] /= t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    lines, factor, line = (t, column, t[row]) if t.flags.c_contiguous else (t.T, t[row], column)
    hit = np.flatnonzero(factor)
    if 2 * hit.size > lines.shape[0]:
        lines -= np.outer(factor, line)
    else:
        lines[hit] -= np.outer(factor[hit], line)
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _run(t: np.ndarray, basis: list[int], cost: np.ndarray) -> LpStatus:
    """Pivot the tableau [A | b] in place until cost is optimal or unbounded.

    Dantzig's rule picks the entering column until _DEGENERATE_SWITCH
    degenerate pivots come in a row; Bland's rule then holds for the rest
    of this run.  The reduced costs are cost - cost[basis] @ T.  When cost
    has at most one nonzero, cost[k], that product is cost[k] times the row
    where k is basic plus exact zeros, or all zeros when k is nonbasic, so
    it is taken from that one row: the same bits in either tableau order.
    """
    costed = np.flatnonzero(cost)
    single_cost = costed.size <= 1
    k = int(costed[0]) if costed.size else -1  # -1 is never basic
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (t.shape[0] + t.shape[1] - 1) + 10_000):
        if not single_cost:
            reduced = cost - cost[basis] @ t[:, :-1]
        elif k in basis:
            reduced = cost - cost[k] * t[basis.index(k), :-1]
        else:
            reduced = cost
        candidates = np.where(reduced < -_OPT_TOL)[0]
        if candidates.size == 0:
            return LpStatus.OPTIMAL
        if blands_rule:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])
        column = t[:, col]
        rows = np.where(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = t[rows, -1] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12 + 1e-9 * abs(best)]
        # Bland tie-break: leave on the row whose basic variable has the
        # smallest index (also keeps Dantzig mode deterministic).
        leave = int(min(near, key=lambda r: basis[r]))
        if best <= _PIVOT_TOL:
            degenerate_run += 1
            blands_rule = blands_rule or degenerate_run >= _DEGENERATE_SWITCH
        else:
            degenerate_run = 0
        _pivot(t, basis, leave, col)
    raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover


def _evict_artificials(
    t: np.ndarray, basis: list[int], first_artificial: int, order: str
) -> tuple[np.ndarray, list[int]]:
    """Pivot zero-level artificial variables out of the basis after phase 1.

    Rows whose artificial cannot be replaced are redundant constraints and
    are dropped.  Returns the phase-2 tableau (kept rows, artificial
    columns removed) in ``order`` ("C" or "F"), built in one copy, and its
    basis; the F copy is gathered from the transpose.
    """
    keep = []
    for row in range(t.shape[0]):
        if basis[row] >= first_artificial:
            candidates = np.where(np.abs(t[row, :first_artificial]) > _PIVOT_TOL)[0]
            if candidates.size == 0:
                continue
            _pivot(t, basis, row, int(candidates[0]))
        keep.append(row)
    cols = np.r_[:first_artificial, -1]
    t = t[np.ix_(keep, cols)] if order == "C" else t.T[np.ix_(cols, keep)].T
    return t, [basis[row] for row in keep]


def _feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    tol = _FEAS_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
    if np.any(lp.a_ub @ x - lp.b_ub > tol):
        return False
    if np.any(np.abs(lp.a_eq @ x - lp.b_eq) > tol):
        return False
    return bool(np.all(x >= -tol))
