"""Self-contained dense linear-programming solver.

Minimizes c.x subject to inequality rows A_ub x <= b_ub, equality rows
A_eq x = b_eq, and x >= 0; an absent block is a 0-row array.  Two-phase
tableau simplex: phase 1 drives artificial variables out with a
feasibility objective, phase 2 optimizes the real cost.  Each phase
pivots by Dantzig's rule for speed and, after a run of degenerate pivots,
by Bland's rule for the rest of that phase, which guarantees termination
on the highly degenerate flow LPs this package produces.

Phase 1, the eviction of artificials that follows it, and every phase
whose cost has two or more nonzeros run on the full row-major tableau and
price with the full product cost[basis] @ T.  A phase whose cost has at
most one nonzero, cost[k] (phase 2 of every max-min demand LP, whose cost
is -t), runs on a condensed tableau instead: one C-contiguous line per
nonbasic column, the rhs last, and an array naming each line's variable.
The basic columns are unit vectors and are not stored.  Such a phase
prices from one tableau row, read across the lines: the reduced costs
are -cost[k] * (row of k) when k is basic, and cost itself when it is
not.
The full product adds that one rounded product to exact zeros, so the
reduced costs are the same values.  The other phases keep the full width
because a BLAS product's bits depend on where each column sits (with
OpenBLAS, most random tableaux priced differently once their columns were
permuted), and a condensed tableau moves a column at every pivot.

Every pivot updates only the lines that can change: the rows whose
pivot-column entry is nonzero, or on the condensed tableau the lines
whose pivot-row entry is nonzero; all of them when those are more than
half.  A skipped line would have had exact zeros subtracted.  The rank-1
product comes from np.einsum, one rounded multiplication per entry as in
np.outer; on a 450 x 200 update it takes about 55% of np.outer's time.
The row-major pivot writes no unit column: the update itself leaves one,
since the pivot entry becomes p / p = 1 and every other entry of its
column x - x * 1 = +0 (or stays a zero it already was).

So the layouts and the shortcuts change no pivot and no value: at most
the sign of a zero, and the returned x holds no -0.0.  Everything is
deterministic: identical inputs take identical pivot sequences and
return identical solutions.
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
    # artificial, in row order.
    first_artificial = n + m_ub
    artificial_rows = np.flatnonzero(negative | (np.arange(b.size) >= m_ub))
    artificial_cols = first_artificial + np.arange(artificial_rows.size)
    t = np.zeros((b.size, first_artificial + artificial_rows.size + 1))
    t[:m_ub, :n] = lp.a_ub
    t[np.arange(m_ub), np.arange(n, first_artificial)] = 1.0
    t[m_ub:, :n] = lp.a_eq
    t[negative, :first_artificial] *= -1.0
    t[:, -1] = np.where(negative, -b, b)
    t[artificial_rows, artificial_cols] = 1.0
    basis = np.arange(n, n + b.size)
    basis[artificial_rows] = artificial_cols
    keep = np.arange(b.size)

    if artificial_rows.size:
        phase1_cost = np.zeros(t.shape[1] - 1)
        phase1_cost[first_artificial:] = 1.0
        if _run(t, basis, phase1_cost) is not LpStatus.OPTIMAL:  # pragma: no cover - cannot be unbounded
            raise RuntimeError("phase 1 terminated abnormally")
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        if float(phase1_cost[basis] @ t[:, -1]) > _FEAS_TOL * scale:
            return LpSolution(status=LpStatus.INFEASIBLE)
        keep = _evict_artificials(t, basis, first_artificial)

    # Phase 2 runs on the kept rows without the artificial columns: in
    # place when there are none, else on one copy, full width and
    # row-major; or on one condensed copy for a single cost.
    basis = basis[keep]
    cost = np.zeros(first_artificial)
    cost[:n] = lp.objective
    if np.count_nonzero(cost) <= 1:
        nonbasic = np.ones(first_artificial, dtype=bool)
        nonbasic[basis] = False
        var = np.flatnonzero(nonbasic)
        t = t.T[np.ix_(np.r_[var, -1], keep)]
        status = _run_single_cost(t, var, basis, cost)
        rhs = t[-1]
    else:
        if artificial_rows.size:
            t = t[np.ix_(keep, np.r_[:first_artificial, -1])]
        status = _run(t, basis, cost)
        rhs = t[:, -1]
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)

    values = np.zeros(first_artificial)
    values[basis] = rhs
    x = values[:n] + 0.0  # no -0.0 entries
    if not _feasible(lp, x):  # pragma: no cover - numerical safety net
        raise ArithmeticError("simplex returned an infeasible point")
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective_value=float(lp.objective @ x))


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make column col basic in row of the row-major tableau t, in place.

    Every entry gets t[i, j] - column[i] * pivot_row[j].  Where the column
    entry is zero that subtracts exact zeros (the tableau is finite), which
    changes no value, at most the sign of a zero.  So only the rows with a
    nonzero column entry are updated, or all of them when those are more
    than half, since gathering and scattering cost about twice a full
    update per row.  Either way the tableau, the pivot sequence and the
    solution are those of the full update.  Column col comes out as e_row
    without being written: the pivot row's entry is p / p = 1, and every
    other row's is x - x * 1 = +0, or the zero it was when skipped.
    """
    t[row] /= t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    hit = column.nonzero()[0]
    if 2 * hit.size > t.shape[0]:
        t -= np.einsum("i,j->ij", column, t[row])
    else:
        t[hit] -= np.einsum("i,j->ij", column[hit], t[row])
    basis[row] = col


def _pivot_condensed(lines: np.ndarray, var: np.ndarray, basis: np.ndarray, row: int, slot: int) -> None:
    """Swap var[slot] into the basis at row and basis[row] into slot, in place.

    lines holds one C-contiguous line per nonbasic column, lines[s] being
    column var[s] of the full tableau, and the rhs last.  The entering
    column is saved and the leaving variable's unit column e_row takes its
    slot; then the full tableau's pivot runs on what is stored: divide the
    pivot row, subtract the rank-1 product from every line whose pivot-row
    entry is nonzero (or from all of them when those are more than half).
    Each stored entry gets the full tableau's float operations.  The basic
    columns left out are unit vectors, which that update leaves as they
    are, and the entering column's new value is a unit vector too.
    """
    column = lines[slot].copy()
    lines[slot] = 0.0
    lines[slot, row] = 1.0
    lines[:, row] /= column[row]
    column[row] = 0.0
    factor = lines[:, row]
    hit = factor.nonzero()[0]  # np.flatnonzero would copy the strided factor first
    if 2 * hit.size > lines.shape[0]:
        lines -= np.einsum("i,j->ij", factor, column)
    else:
        lines[hit] -= np.einsum("i,j->ij", factor[hit], column)
    var[slot], basis[row] = basis[row], var[slot]


def _leaving_row(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> tuple[int, float]:
    """The ratio test: the leaving row and its ratio, or (-1, 0.0) if unbounded.

    Among the rows within tolerance of the least ratio, Bland's tie-break
    leaves on the one whose basic variable has the smallest index (which
    also keeps Dantzig mode deterministic).
    """
    rows = (column > _PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        return -1, 0.0
    if rows.size == 1:  # no tie to break
        leave = int(rows[0])
        return leave, float(rhs[leave] / column[leave])
    ratios = rhs[rows] / column[rows]
    best = float(ratios.min())
    near = rows[ratios <= best + 1e-12 + 1e-9 * abs(best)]
    leave = near[0] if near.size == 1 else near[basis[near].argmin()]
    return int(leave), best


def _simplex(basis: np.ndarray, variables: int, rhs: np.ndarray, enter, pivot) -> LpStatus:
    """Pivot until cost is optimal or unbounded; the rules shared by both layouts.

    enter(blands_rule) prices the tableau and returns the entering index
    and its column, or None when no reduced cost is below -_OPT_TOL;
    pivot(row, index) makes that index basic in row, updating rhs, a view
    of the tableau's right-hand side, in place.  Dantzig's rule picks
    the entering index until _DEGENERATE_SWITCH degenerate pivots come in a
    row; Bland's rule then holds for the rest of this run.
    """
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (basis.size + variables) + 10_000):
        entering = enter(blands_rule)
        if entering is None:
            return LpStatus.OPTIMAL
        index, column = entering
        leave, best = _leaving_row(column, rhs, basis)
        if leave < 0:
            return LpStatus.UNBOUNDED
        if best <= _PIVOT_TOL:
            degenerate_run += 1
            blands_rule = blands_rule or degenerate_run >= _DEGENERATE_SWITCH
        else:
            degenerate_run = 0
        pivot(leave, index)
    raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover


def _run(t: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> LpStatus:
    """_simplex on the row-major tableau [A | b], in place.

    The reduced costs are cost - cost[basis] @ T.
    """

    def enter(blands_rule: bool):
        reduced = cost - cost[basis] @ t[:, :-1]
        col = int((reduced < -_OPT_TOL).argmax() if blands_rule else reduced.argmin())
        return (col, t[:, col]) if reduced[col] < -_OPT_TOL else None

    return _simplex(basis, t.shape[1] - 1, t[:, -1], enter, lambda row, col: _pivot(t, basis, row, col))


def _run_single_cost(lines: np.ndarray, var: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> LpStatus:
    """_simplex for a cost with at most one nonzero, cost[k], on the condensed lines.

    lines[s] is the column of variable var[s], and lines[-1] the rhs.  The
    nonbasic columns' reduced costs are -cost[k] * (row where k is basic),
    or cost itself when k is nonbasic; the basic columns' are zero, never
    a candidate.  The rules see the variables through var, so they pick
    what _run picks on the full tableau: Dantzig's rule the smallest
    variable among the exact minima, Bland's the smallest candidate.
    """
    if var.size == 0:
        return LpStatus.OPTIMAL
    costed = np.flatnonzero(cost)
    k = int(costed[0]) if costed.size else -1  # -1 is never basic
    weight = -cost[k]
    at = np.flatnonzero(basis == k)
    row_k = int(at[0]) if at.size else -1  # where k is basic, or -1

    def enter(blands_rule: bool):
        reduced = cost[var] if row_k < 0 else lines[:-1, row_k] * weight
        if blands_rule:
            slot = int(np.where(reduced < -_OPT_TOL, var, cost.size).argmin())
        else:
            slot = int(reduced.argmin())
        if not reduced[slot] < -_OPT_TOL:
            return None
        if not blands_rule:
            ties = (reduced == reduced[slot]).nonzero()[0]
            if ties.size > 1:
                slot = int(ties[var[ties].argmin()])
        return slot, lines[slot]

    def pivot(row: int, slot: int) -> None:
        nonlocal row_k
        if var[slot] == k:
            row_k = row
        elif basis[row] == k:
            row_k = -1
        _pivot_condensed(lines, var, basis, row, slot)

    return _simplex(basis, basis.size + var.size, lines[-1], enter, pivot)


def _evict_artificials(t: np.ndarray, basis: np.ndarray, first_artificial: int) -> np.ndarray:
    """Pivot zero-level artificial variables out of the basis after phase 1.

    Rows whose artificial cannot be replaced are redundant constraints;
    returns the rows to keep.
    """
    keep = []
    for row in range(t.shape[0]):
        if basis[row] >= first_artificial:
            candidates = (np.abs(t[row, :first_artificial]) > _PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                continue
            _pivot(t, basis, row, int(candidates[0]))
        keep.append(row)
    return np.array(keep, dtype=int)


def _feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    tol = _FEAS_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
    if np.any(lp.a_ub @ x - lp.b_ub > tol):
        return False
    if np.any(np.abs(lp.a_eq @ x - lp.b_eq) > tol):
        return False
    return bool(np.all(x >= -tol))
