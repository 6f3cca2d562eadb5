"""The simplex takes the row-major dense solver's every step.

``lp._pivot`` updates only the rows of the row-major tableau that can
change (the whole tableau when those are most of it);
``oracles.pivot_dense`` always updates the whole tableau.  ``lp.solve``
runs a phase whose cost has one nonzero on a condensed tableau, one line
per nonbasic column, pivoted by ``lp._pivot_condensed``, which updates only
the lines that can change; ``oracles.pivot_condensed_dense`` updates every
line.  ``oracles.solve_row_major`` keeps every tableau full and row-major,
computes the full reduced-cost product every iteration and pivots with
``pivot_dense``.  Each program here is solved three ways: by ``lp.solve``,
by ``lp.solve`` with the dense pivots in place of its own, and by
``solve_row_major``, recording every pivot as ``(row, entering variable)``
and where artificial eviction starts and ends.  The three must take the
same pivots and return the same status, the same ``x`` bytes and the same
objective.  After every row-major pivot the entering column must equal
the unit vector of its row, which ``lp._pivot`` does not write itself.
"""
import collections
import random

import numpy as np
import pytest

from qkdplan import lp
from qkdplan.router import Commodity, build_lp

from oracles import (
    EVICT,
    PHASE2,
    build_graph,
    pivot_condensed_dense,
    pivot_dense,
    random_instance,
    solve_row_major,
)


def update_kind(t, row, col):
    """The update ``lp._pivot`` makes: "rows" or "all rows"."""
    return ("" if 2 * (np.count_nonzero(t[:, col]) - 1) <= t.shape[0] else "all ") + "rows"


def condensed_update_kind(lines, row):
    """The update ``lp._pivot_condensed`` makes: "columns" or "all columns"."""
    return ("" if 2 * np.count_nonzero(lines[:, row]) <= lines.shape[0] else "all ") + "columns"


def solve_recording(monkeypatch, program, dense=False):
    """Solve with the dense pivots in place of ``lp.solve``'s own when ``dense``.

    Returns the trace, a count of the pivots by the update ``lp.solve``'s
    own pivots make for them (``update_kind``, ``condensed_update_kind``)
    and the solution.  The trace lists the pivots in order as
    ``(row, entering variable)``, with ``EVICT`` and ``PHASE2`` marking the
    start and the end of artificial eviction.
    """
    trace = []
    kinds = collections.Counter()
    pivot = pivot_dense if dense else lp._pivot
    pivot_condensed = pivot_condensed_dense if dense else lp._pivot_condensed
    evict = lp._evict_artificials

    def recording_pivot(t, basis, row, col):
        trace.append((row, col))
        kinds[update_kind(t, row, col)] += 1
        pivot(t, basis, row, col)
        # the update itself leaves the entering column at e_row (-0.0 == 0.0)
        unit = np.zeros(t.shape[0])
        unit[row] = 1.0
        assert np.array_equal(t[:, col], unit), (row, col)

    def recording_pivot_condensed(lines, var, basis, row, slot):
        trace.append((row, int(var[slot])))
        kinds[condensed_update_kind(lines, row)] += 1
        pivot_condensed(lines, var, basis, row, slot)

    def recording_evict(*args):
        trace.append(EVICT)
        result = evict(*args)
        trace.append(PHASE2)
        return result

    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", recording_pivot)
        m.setattr(lp, "_pivot_condensed", recording_pivot_condensed)
        m.setattr(lp, "_evict_artificials", recording_evict)
        solution = lp.solve(program)
    return trace, kinds, solution


def outcome(solution):
    x = None if solution.x is None else solution.x.tobytes()
    value = None if solution.objective_value is None else solution.objective_value.hex()
    return solution.status, x, value


def assert_same_as_dense(monkeypatch, program):
    """Solve all three ways, assert equal traces and outcomes, return the first run."""
    trace, kinds, solution = solve_recording(monkeypatch, program)
    dense_trace, _, dense_solution = solve_recording(monkeypatch, program, dense=True)
    row_major_trace = []
    row_major_solution = solve_row_major(program, row_major_trace)
    assert trace == dense_trace == row_major_trace
    assert outcome(solution) == outcome(dense_solution) == outcome(row_major_solution)
    return trace, kinds, solution


def pivot_count(trace):
    return sum(1 for step in trace if step not in (EVICT, PHASE2))


def random_program(rng):
    """A small sparse program mixing <= and = rows with negative right-hand sides.

    Many equality rows have a zero right-hand side, and some repeat the sum
    of two others, so phase 1 often ends with a zero-level artificial that
    must be evicted or dropped.
    """
    n = rng.randint(1, 8)

    def row():
        return [rng.choice((0, 0, 0, 1, -1, 2, 0.5, -3)) for _ in range(n)]

    a_ub = [row() for _ in range(rng.randint(0, 6))]
    b_ub = [float(rng.randint(-2, 9)) for _ in a_ub]
    a_eq = [row() for _ in range(rng.randint(0, 4))]
    b_eq = [float(rng.choice((0, 0, 0, -2, 1, 3))) for _ in a_eq]
    if len(a_eq) >= 2 and rng.random() < 0.4:
        a_eq.append([u + w for u, w in zip(a_eq[0], a_eq[1])])
        b_eq.append(b_eq[0] + b_eq[1])
    objective = [float(rng.randint(-3, 3)) for _ in range(n)]
    return lp.LinearProgram(
        objective=objective,
        a_ub=a_ub or None,
        b_ub=b_ub or None,
        a_eq=a_eq or None,
        b_eq=b_eq or None,
    )


def single_cost_program(rng):
    """A program whose objective has one nonzero, with non-dyadic coefficients.

    Products and quotients of 1/3, 0.7 and -1.1 round, so a different
    summation order or a skipped update would show in the bits.
    """
    n = rng.randint(1, 12)

    def row():
        return [rng.choice((0, 0, 0, 0, 0, 1, -1, 1 / 3, 0.7, -1.1, 2.5)) for _ in range(n)]

    a_ub = [row() for _ in range(rng.randint(0, 8))]
    b_ub = [rng.choice((-1.1, 0.0, 1 / 3, 0.7, 2.0, 5.3, 7.7)) for _ in a_ub]
    a_eq = [row() for _ in range(rng.randint(0, 4))]
    b_eq = [rng.choice((0.0, 0.0, -0.7, 1 / 3, 1.1)) for _ in a_eq]
    if len(a_eq) >= 2 and rng.random() < 0.3:
        a_eq.append([u + w for u, w in zip(a_eq[0], a_eq[1])])
        b_eq.append(b_eq[0] + b_eq[1])
    objective = [0.0] * n
    objective[rng.randrange(n)] = rng.choice((-1 / 3, -0.7, -1.1, 0.7, 1 / 3))
    return lp.LinearProgram(
        objective=objective,
        a_ub=a_ub or None,
        b_ub=b_ub or None,
        a_eq=a_eq or None,
        b_eq=b_eq or None,
    )


def test_random_programs_take_the_dense_pivots(monkeypatch):
    rng = random.Random(7100)
    statuses = {status: 0 for status in lp.LpStatus}
    evictions = eviction_pivots = pivots = gathered = 0
    for _ in range(600):
        trace, kinds, solution = assert_same_as_dense(monkeypatch, random_program(rng))
        statuses[solution.status] += 1
        pivots += pivot_count(trace)
        gathered += kinds["rows"] + kinds["columns"]
        if EVICT in trace:
            evictions += 1
            eviction_pivots += trace.index(PHASE2) - trace.index(EVICT) - 1
    # every outcome, artificial eviction and both kinds of update all occur
    assert min(statuses.values()) >= 20, statuses
    assert evictions >= 50 and eviction_pivots >= 20, (evictions, eviction_pivots)
    assert 100 <= gathered <= pivots - 100, (gathered, pivots)


def test_single_cost_programs_take_the_row_major_pivots(monkeypatch):
    rng = random.Random(7400)
    statuses = {status: 0 for status in lp.LpStatus}
    kinds = collections.Counter()
    for _ in range(4000):
        _, program_kinds, solution = assert_same_as_dense(monkeypatch, single_cost_program(rng))
        statuses[solution.status] += 1
        kinds += program_kinds
    assert min(statuses.values()) >= 200, statuses
    # both updates of the condensed phase 2 occur, and both of phase 1's
    assert min(kinds.values()) >= 200 and len(kinds) == 4, kinds


@pytest.mark.parametrize("gs_relay", [True, False])
@pytest.mark.parametrize("objective", ["mmd", "mr"])
def test_flow_programs_take_the_dense_pivots(monkeypatch, objective, gs_relay):
    rng = random.Random(7200 + 2 * gs_relay + (objective == "mr"))
    pivots = 0
    kinds = collections.Counter()
    for _ in range(80):
        graph, pairs = random_instance(rng, max_commodities=6, max_paths=None)
        pool_total = sum(link.pool_bits for link in graph.links)
        commodities = [
            Commodity(a, b, None if objective == "mmd" else rng.randint(0, pool_total))
            for a, b in pairs
        ]
        program, _ = build_lp(graph, commodities, objective, gs_relay=gs_relay)
        trace, program_kinds, _ = assert_same_as_dense(monkeypatch, program)
        pivots += pivot_count(trace)
        kinds += program_kinds
    gathered = kinds["rows"] + kinds["columns"]
    assert pivots > 200 and gathered > pivots / 2, (kinds, pivots)
    if objective == "mmd":  # phase 2 (cost -t) runs on the condensed tableau
        assert kinds["columns"] > 50, kinds
    else:  # every mr phase is row-major
        assert kinds["columns"] + kinds["all columns"] == 0, kinds


def test_rows_with_a_zero_pivot_entry_are_left_alone():
    rng = np.random.default_rng(7300)
    sparse = 0
    for _ in range(200):
        t = rng.standard_normal((7, 10))
        t[rng.random((7, 10)) < 0.5] = 0.0
        row, col = int(rng.integers(7)), int(rng.integers(9))
        t[row, col] = rng.choice((-2.5, 0.75, 3.0))
        untouched = np.flatnonzero(t[:, col] == 0.0)
        sparse += 2 * (7 - untouched.size - 1) <= 7
        before = t.copy()
        basis, dense_basis = list(range(7)), list(range(7))
        dense = t.copy()
        lp._pivot(t, basis, row, col)
        pivot_dense(dense, dense_basis, row, col)
        # value for value: -0.0 == 0.0, so only the sign of a zero may differ
        assert np.array_equal(t[untouched], before[untouched])
        assert np.array_equal(t, dense)
        assert basis == dense_basis and basis[row] == col
    assert 50 <= sparse <= 150, sparse  # both kinds of update occur


def test_columns_with_a_zero_pivot_row_entry_are_left_alone():
    rng = np.random.default_rng(7301)
    sparse = 0
    for _ in range(200):
        # a 7-row tableau over 17 variables, 7 of them basic, and the rhs
        t = rng.standard_normal((7, 18))
        t[rng.random((7, 18)) < 0.5] = 0.0
        basis = rng.permutation(17)[:7]
        t[:, basis] = np.eye(7)
        var = np.setdiff1d(np.arange(17), basis)
        lines = t.T[np.r_[var, -1]].copy()
        row, slot = int(rng.integers(7)), int(rng.integers(var.size))
        t[row, var[slot]] = lines[slot, row] = rng.choice((-2.5, 0.75, 3.0))
        untouched = np.flatnonzero(lines[:, row] == 0.0)
        sparse += 2 * (lines.shape[0] - untouched.size) <= lines.shape[0]
        before = lines.copy()
        dense_basis = basis.copy()
        lp._pivot_condensed(lines, var, basis, row, slot)
        pivot_dense(t, dense_basis, row, int(basis[row]))
        # value for value: -0.0 == 0.0, so only the sign of a zero may differ
        assert np.array_equal(lines[untouched], before[untouched])
        assert np.array_equal(lines, t.T[np.r_[var, -1]])
        assert np.array_equal(t[:, basis], np.eye(7))
        assert np.array_equal(basis, dense_basis)
        assert sorted(np.r_[var, basis].tolist()) == list(range(17))
    assert 50 <= sparse <= 150, sparse  # both kinds of update occur


def test_a_benchmark_size_max_min_program_takes_the_dense_pivots(monkeypatch):
    """6 GS / 3 LEO / 2 GEO, every pair: the LP of one benchmark plan.

    As in the benchmark's constellations, the GEO links hold a few bits
    and the LEO links thousands.
    """
    rng = random.Random(7500)
    stations = [f"g{i}" for i in range(6)]
    node_spec = dict.fromkeys(stations, "gs")
    node_spec.update({"l0": "leo", "l1": "leo", "l2": "leo", "e0": "geo", "e1": "geo"})
    links = []
    for i, gs in enumerate(rng.sample(stations, 6)):
        links += [(gs, f"l{i % 3}"), (gs, f"l{(i + 1) % 3}"), (gs, f"e{i % 2}")]
    links += [("l0", "l1"), ("l1", "l2"), ("l2", "l0")]
    pools = [rng.randint(0, 16) if b[0] == "e" else rng.randint(2_500, 5_500) for _, b in links]
    graph = build_graph(node_spec, [(a, b, pool) for (a, b), pool in zip(links, pools)])
    pairs = [(a, b) for i, a in enumerate(stations) for b in stations[i + 1:]]
    program, _ = build_lp(graph, [Commodity(a, b) for a, b in pairs], "mmd", gs_relay=True)
    assert program.num_variables == 646 and program.b_ub.size + program.b_eq.size == 201
    trace, kinds, solution = assert_same_as_dense(monkeypatch, program)
    assert solution.status is lp.LpStatus.OPTIMAL
    # 150 eviction pivots, then phase 2 updates both ways
    assert kinds["rows"] + kinds["all rows"] == 150 and pivot_count(trace) > 500, kinds
    assert min(kinds["columns"], kinds["all columns"]) > 200, kinds
