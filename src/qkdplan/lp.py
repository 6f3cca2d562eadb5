"""Self-contained dense linear-programming solver.

Minimizes c.x subject to inequality rows A_ub x <= b_ub, equality rows
A_eq x = b_eq, and per-variable bounds lo <= x <= hi (hi may be
unbounded).  Two-phase tableau simplex: phase 1 drives artificial
variables out with a feasibility objective, phase 2 optimizes the real
cost.  Each phase pivots by Dantzig's rule for speed and, after a run of
degenerate pivots, by Bland's rule for the rest of that phase, which
guarantees termination on the highly degenerate flow LPs this package
produces.  A pivot updates only the rows whose pivot-column entry is
nonzero, or the whole tableau when those are more than half of it: on
the sparse flow LPs most rows have a zero there, and for them the full
update would subtract exact zeros.

Everything is deterministic: identical inputs take identical pivot
sequences and return identical solutions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["LpStatus", "LinearProgram", "LpSolution", "solve"]

_PIVOT_TOL = 1e-10
_OPT_TOL = 1e-9  # reduced-cost optimality tolerance
_FEAS_TOL = 1e-8  # relative feasibility tolerance of rows, bounds and the result
_DEGENERATE_SWITCH = 24  # consecutive degenerate pivots before Bland engages


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  bounds."""

    objective: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[Sequence[tuple[float, Optional[float]]]] = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        object.__setattr__(self, "objective", c)
        n = c.size
        for name in ("ub", "eq"):
            a = getattr(self, f"a_{name}")
            b = getattr(self, f"b_{name}")
            if (a is None) != (b is None):
                raise ValueError(f"a_{name} and b_{name} must be given together")
            if a is None:
                continue
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.asarray(b, dtype=float).reshape(-1)
            if a.shape != (b.size, n):
                raise ValueError(
                    f"a_{name} shape {a.shape} does not match "
                    f"{b.size} rows x {n} variables"
                )
            object.__setattr__(self, f"a_{name}", a)
            object.__setattr__(self, f"b_{name}", b)
        if self.bounds is not None:
            bounds = tuple((float(lo), None if hi is None else float(hi)) for lo, hi in self.bounds)
            if len(bounds) != n:
                raise ValueError(f"{len(bounds)} bounds given for {n} variables")
            for j, (lo, hi) in enumerate(bounds):
                if not np.isfinite(lo):
                    raise ValueError(f"variable {j}: lower bound must be finite, got {lo}")
                if hi is not None and hi < lo:
                    raise ValueError(f"variable {j}: bounds [{lo}, {hi}] are inverted")
            object.__setattr__(self, "bounds", bounds)

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; returns Optimal/Infeasible/Unbounded with x and value.

    Reduced costs count as optimal above -1e-9; rows, bounds and the
    returned point are held to 1e-8 relative to their scale.
    """
    n = lp.num_variables
    bounds = lp.bounds if lp.bounds is not None else tuple((0.0, None) for _ in range(n))

    c = lp.objective.copy()
    a_ub = lp.a_ub.copy() if lp.a_ub is not None else np.zeros((0, n))
    b_ub = lp.b_ub.copy() if lp.b_ub is not None else np.zeros(0)
    a_eq = lp.a_eq.copy() if lp.a_eq is not None else np.zeros((0, n))
    b_eq = lp.b_eq.copy() if lp.b_eq is not None else np.zeros(0)

    # Substitute fixed variables out, shift the rest to a zero lower bound,
    # and turn finite upper bounds into extra inequality rows.
    lows = np.array([lo for lo, _ in bounds], dtype=float)
    fixed = np.array([hi is not None and hi == lo for lo, hi in bounds], dtype=bool)
    free_idx = np.where(~fixed)[0]
    b_ub = b_ub - a_ub @ lows
    b_eq = b_eq - a_eq @ lows
    a_ub = a_ub[:, free_idx]
    a_eq = a_eq[:, free_idx]
    c_free = c[free_idx]
    upper_rows = []
    upper_rhs = []
    for pos, j in enumerate(free_idx):
        lo, hi = bounds[j]
        if hi is not None:
            row = np.zeros(free_idx.size)
            row[pos] = 1.0
            upper_rows.append(row)
            upper_rhs.append(hi - lo)
    if upper_rows:
        a_ub = np.vstack([a_ub, np.array(upper_rows)])
        b_ub = np.concatenate([b_ub, np.array(upper_rhs)])

    n_free = free_idx.size
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # Columns: structural | ub slacks | artificials (appended as needed).
    a = np.zeros((m, n_free + m_ub))
    a[:m_ub, :n_free] = a_ub
    a[:m_ub, n_free : n_free + m_ub] = np.eye(m_ub)
    a[m_ub:, :n_free] = a_eq
    b = np.concatenate([b_ub, b_eq])
    negative = b < 0
    a[negative] *= -1.0
    b[negative] = -b[negative]

    basis: list[int] = []
    artificial_cols: list[np.ndarray] = []
    next_col = n_free + m_ub
    for i in range(m):
        if i < m_ub and not negative[i]:
            basis.append(n_free + i)  # slack enters the basis directly
        else:
            col = np.zeros(m)
            col[i] = 1.0
            artificial_cols.append(col)
            basis.append(next_col)
            next_col += 1
    if artificial_cols:
        a = np.hstack([a, np.column_stack(artificial_cols)])
    t = np.hstack([a, b.reshape(-1, 1)])

    if artificial_cols:
        phase1_cost = np.zeros(t.shape[1] - 1)
        phase1_cost[n_free + m_ub :] = 1.0
        if _run(t, basis, phase1_cost) is not LpStatus.OPTIMAL:  # pragma: no cover - cannot be unbounded
            raise RuntimeError("phase 1 terminated abnormally")
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        if float(phase1_cost[basis] @ t[:, -1]) > _FEAS_TOL * scale:
            return LpSolution(status=LpStatus.INFEASIBLE)
        t, basis = _evict_artificials(t, basis, n_free + m_ub)

    phase2_cost = np.zeros(t.shape[1] - 1)
    phase2_cost[:n_free] = c_free
    if _run(t, basis, phase2_cost) is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)

    x = lows.copy()
    x_free = np.zeros(t.shape[1] - 1)
    x_free[basis] = t[:, -1]
    x[free_idx] += x_free[:n_free]
    if not _feasible(lp, x):  # pragma: no cover - numerical safety net
        raise ArithmeticError("simplex returned an infeasible point")
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective_value=float(lp.objective @ x))


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make column col basic in row, in place.

    A row whose entry in column col is zero would have zero times the
    (finite) pivot row subtracted, which changes none of its values (at
    most the sign of a zero), so only the other rows need the update.  Gathering
    and scattering those rows costs about twice a full update per row,
    so when they are most of the tableau the whole tableau is updated.
    Either way the tableau, the pivot sequence and the solution are those
    of the full update.
    """
    t[row] /= t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    rows = np.flatnonzero(column)
    if 2 * rows.size > t.shape[0]:
        t -= np.outer(column, t[row])
    else:
        t[rows] -= np.outer(column[rows], t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def _run(t: np.ndarray, basis: list[int], cost: np.ndarray) -> LpStatus:
    """Pivot the tableau [A | b] in place until cost is optimal or unbounded.

    Dantzig's rule picks the entering column until _DEGENERATE_SWITCH
    degenerate pivots come in a row; Bland's rule then holds for the rest
    of this run.
    """
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (t.shape[0] + t.shape[1] - 1) + 10_000):
        reduced = cost - cost[basis] @ t[:, :-1]
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
    t: np.ndarray, basis: list[int], first_artificial: int
) -> tuple[np.ndarray, list[int]]:
    """Pivot zero-level artificial variables out of the basis after phase 1.

    Rows whose artificial cannot be replaced are redundant constraints and
    are dropped.  Returns the phase-2 tableau (kept rows, artificial
    columns removed) and its basis.
    """
    keep = []
    for row in range(t.shape[0]):
        if basis[row] >= first_artificial:
            candidates = np.where(np.abs(t[row, :first_artificial]) > _PIVOT_TOL)[0]
            if candidates.size == 0:
                continue
            _pivot(t, basis, row, int(candidates[0]))
        keep.append(row)
    t = np.delete(t[keep], np.s_[first_artificial:-1], axis=1)
    return t, [basis[row] for row in keep]


def _feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    tol = _FEAS_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
    if lp.a_ub is not None:
        if np.any(lp.a_ub @ x - lp.b_ub > tol):
            return False
    if lp.a_eq is not None:
        if np.any(np.abs(lp.a_eq @ x - lp.b_eq) > tol):
            return False
    bounds = lp.bounds if lp.bounds is not None else tuple((0.0, None) for _ in range(x.size))
    for j, (lo, hi) in enumerate(bounds):
        if x[j] < lo - tol:
            return False
        if hi is not None and x[j] > hi + tol:
            return False
    return True
