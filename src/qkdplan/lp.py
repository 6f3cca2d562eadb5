"""Self-contained dense linear-programming solver.

Minimizes c.x subject to inequality rows A_ub x <= b_ub, equality rows
A_eq x = b_eq, and x >= 0; an absent block is a 0-row array.  Two-phase
tableau simplex: phase 1 drives artificial variables out with a
feasibility objective, phase 2 optimizes the real cost.  Each phase
pivots by Dantzig's rule for speed and, after a run of degenerate pivots,
by Bland's rule for the rest of that phase, which guarantees termination
on the highly degenerate flow LPs this package produces.

The tableau is condensed: one C-contiguous line per nonbasic column, the
rhs last, and an array naming each line's variable.  The basic columns
are unit vectors and are not stored, so the slacks and artificials that
start basic are never written; an artificial gets a line only when it
leaves the basis, and those lines go before phase 2.  Phase 1, the
eviction of artificials that follows it and phase 2 all run on these
lines.  Every phase prices the nonbasic columns at
cost[var] - lines @ cost[basis].  While one basic cost is nonzero, as in
phase 2 of every max-min demand LP (whose cost is -t), the product is read
from that one row: a sum whose other terms are exact zeros is that one
rounded product, so the reduced costs are the same values.

Every pivot updates only the lines whose pivot-row entry is nonzero, or
all of them when those are more than half.  A skipped line would have had
exact zeros subtracted.  The rank-1 product comes from np.einsum, one
rounded multiplication per entry as in np.outer; on a 450 x 200 update it
takes about 55% of np.outer's time.

So the shortcuts change no pivot and no value: at most the sign of a
zero, and the returned x holds no -0.0.  Everything is deterministic:
identical inputs take identical pivot sequences and return identical
solutions.
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

    Reduced costs count as optimal above -1e-9.  Phase 1 is feasible when
    every artificial left in the basis is within 1e-8 of its own row's
    scale, max(1, |b_i|); rows and the returned point, x >= 0 included, are
    held to 1e-8 relative to their scale.
    """
    n = lp.num_variables
    m_ub = lp.b_ub.size
    b = np.concatenate([lp.b_ub, lp.b_eq])
    negative = b < 0

    # Variables: structural | ub slacks | artificials.  A <= row with a
    # nonnegative rhs starts on its slack; every other row on an
    # artificial, in row order.  The lines: every structural column, the
    # slacks of the <= rows that start on an artificial, and the rhs.
    first_artificial = n + m_ub
    artificial_rows = np.flatnonzero(negative | (np.arange(b.size) >= m_ub))
    slack_rows = artificial_rows[artificial_rows < m_ub]
    var = np.r_[np.arange(n), n + slack_rows]
    lines = np.zeros((var.size + 1, b.size))
    lines[:n, :m_ub] = lp.a_ub.T
    lines[:n, m_ub:] = lp.a_eq.T
    lines[np.arange(n, var.size), slack_rows] = 1.0
    lines[-1] = b
    lines[:, negative] *= -1.0
    basis = np.arange(n, n + b.size)
    basis[artificial_rows] = first_artificial + np.arange(artificial_rows.size)

    if artificial_rows.size:
        cost = np.zeros(first_artificial + artificial_rows.size)
        cost[first_artificial:] = 1.0
        if _run(lines, var, basis, cost) is not LpStatus.OPTIMAL:  # pragma: no cover - cannot be unbounded
            raise RuntimeError("phase 1 terminated abnormally")
        # A basic artificial's level is what its own row still lacks.
        left = basis >= first_artificial
        own_row = artificial_rows[basis[left] - first_artificial]
        if np.any(lines[-1, left] > _FEAS_TOL * np.maximum(1.0, np.abs(b[own_row]))):
            return LpSolution(status=LpStatus.INFEASIBLE)
        keep = _evict(lines, var, basis, first_artificial)
        # Phase 2 gets the lines in variable order, where one commodity's
        # flow lines sit together: its pivots gather them measurably faster.
        live = (var < first_artificial).nonzero()[0]
        live = live[var[live].argsort()]
        lines = lines[np.ix_(np.r_[live, -1], keep)]
        var, basis = var[live], basis[keep]

    cost = np.zeros(first_artificial)
    cost[:n] = lp.objective
    if _run(lines, var, basis, cost) is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)

    values = np.zeros(first_artificial)
    values[basis] = lines[-1]
    x = values[:n] + 0.0  # no -0.0 entries
    if not _feasible(lp, x):  # pragma: no cover - numerical safety net
        raise ArithmeticError("simplex returned an infeasible point")
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective_value=float(lp.objective @ x))


def _pivot(lines: np.ndarray, var: np.ndarray, basis: np.ndarray, row: int, slot: int) -> None:
    """Swap var[slot] into the basis at row and basis[row] into slot, in place.

    lines holds one C-contiguous line per nonbasic column, lines[s] being
    column var[s] of the full tableau, and the rhs last.  The entering
    column is saved and the leaving variable's unit column e_row takes its
    slot; then the full tableau's pivot runs on what is stored: divide the
    pivot row (x / 1.0 is x, so a pivot of 1.0 skips it), subtract the
    rank-1 product from every line whose pivot-row entry is nonzero (or
    from all of them when those are more than half).  Each stored entry
    gets the full tableau's float operations.  The basic columns left out
    are unit vectors, which that update leaves as they are, and the
    entering column's new value is a unit vector too.
    """
    column = lines[slot].copy()
    lines[slot] = 0.0
    lines[slot, row] = 1.0
    if column[row] != 1.0:
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


def _run(lines: np.ndarray, var: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> LpStatus:
    """Pivot the condensed lines until cost is optimal or unbounded, in place.

    lines[s] is the column of variable var[s], and lines[-1] the rhs.  The
    nonbasic columns' reduced costs are cost[var] - lines[:-1] @ cost[basis];
    the basic columns' are zero, never a candidate.  cost[var], cost[basis]
    and the rows whose basic cost is nonzero are kept across pivots: with
    no such row the reduced costs are cost[var], with one they come from
    that row alone.  The rules see the variables through var, so they pick
    what they would on the full tableau: Dantzig's rule the smallest
    variable among the exact minima, Bland's the smallest candidate.
    Dantzig's rule holds until _DEGENERATE_SWITCH degenerate pivots come in
    a row; Bland's rule then holds for the rest of this run.
    """
    if var.size == 0:
        return LpStatus.OPTIMAL
    cost_var, cost_basis = cost[var], cost[basis]
    costed = cost_basis.nonzero()[0]
    nonzero_costs = np.count_nonzero(cost_var) + costed.size  # pivots only swap costs
    rhs = lines[-1]
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (2 * basis.size + var.size) + 10_000):  # 200 per row and variable
        if costed.size == 0:
            reduced = cost_var
        elif costed.size == 1:
            reduced = lines[:-1, costed[0]] * -cost_basis[costed[0]]
            if nonzero_costs > 1:
                reduced += cost_var
        else:
            reduced = cost_var - lines[:-1] @ cost_basis
        if blands_rule:
            slot = int(np.where(reduced < -_OPT_TOL, var, cost.size).argmin())
        else:
            slot = int(reduced.argmin())
        if not reduced[slot] < -_OPT_TOL:
            return LpStatus.OPTIMAL
        if not blands_rule:
            ties = (reduced == reduced[slot]).nonzero()[0]
            if ties.size > 1:
                slot = int(ties[var[ties].argmin()])
        row, best = _leaving_row(lines[slot], rhs, basis)
        if row < 0:
            return LpStatus.UNBOUNDED
        if best <= _PIVOT_TOL:
            degenerate_run += 1
            blands_rule = blands_rule or degenerate_run >= _DEGENERATE_SWITCH
        else:
            degenerate_run = 0
        if cost_var[slot] or cost_basis[row]:
            cost_var[slot], cost_basis[row] = cost_basis[row], cost_var[slot]
            costed = cost_basis.nonzero()[0]
        _pivot(lines, var, basis, row, slot)
    raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover


def _evict(lines: np.ndarray, var: np.ndarray, basis: np.ndarray, first_artificial: int) -> np.ndarray:
    """Pivot the zero-level artificials out of the basis after phase 1, in place.

    Row by row, each basic artificial leaves for the structural or slack
    line of smallest variable whose entry in its row exceeds _PIVOT_TOL.
    A row with no such entry is a redundant constraint.  Returns the rows
    to keep; the artificials' lines are left for solve to drop.
    """
    keep = basis < first_artificial
    for row in (~keep).nonzero()[0].tolist():
        slots = (np.abs(lines[:-1, row]) > _PIVOT_TOL).nonzero()[0]
        if slots.size:
            slot = int(slots[var[slots].argmin()])
            if var[slot] < first_artificial:  # else every candidate is an artificial
                _pivot(lines, var, basis, row, slot)
                keep[row] = True
    return keep


def _feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    tol = _FEAS_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
    if np.any(lp.a_ub @ x - lp.b_ub > tol):
        return False
    if np.any(np.abs(lp.a_eq @ x - lp.b_eq) > tol):
        return False
    return bool(np.all(x >= -tol))
