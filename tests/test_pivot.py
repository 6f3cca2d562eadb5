"""The simplex takes the dense condensed solver's every step.

``lp.solve`` keeps one line per nonbasic column, the rhs last, each line
ending in its reduced cost, which ``lp._run`` prices once per phase, as
``cost[var] - lines[:-1, :-1] @ cost[basis]``, and ``lp._pivot`` then
updates with the rest of the line.  ``lp._pivot`` updates only the lines
whose pivot-row entry is nonzero (all of them when those are more than
half).  ``oracles.pivot_condensed_dense`` updates every line, and
``oracles.solve_condensed_dense`` runs the same two phases with its own
rule code, the same once-per-phase price and that pivot.  Each program
here is solved three ways: by ``lp.solve``, by ``lp.solve`` with
``pivot_condensed_dense`` in place of its own pivot, and by
``solve_condensed_dense``, recording every pivot as ``(row, entering
variable)`` and where artificial eviction starts and ends.  The three
must take the same pivots and return the same status, the same ``x``
bytes and the same objective.  At the end of every phase the carried
reduced costs must equal a fresh product on the flow programs, whose
arithmetic is exact, and come within ``CARRIED_COST_TOL`` of it on the
random and the non-dyadic single-cost programs.

``oracles.solve_row_major`` keeps the full row-major tableau, artificial
columns included, with a reduced-cost row under it, priced once per
phase as ``cost - cost[basis] @ T`` and pivoted with the rest.  That
product sums in another order than the condensed one, so where the
arithmetic rounds, the last bits of a reduced cost, and then a pivot,
can differ.  It must match the whole trace and the outcome on the
random programs, the flow programs and the benchmark-size program, and
the status and the objective on the non-dyadic single-cost programs,
where it must match the whole trace on all but a few.
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
    solve_condensed_dense,
    solve_row_major,
)


def update_kind(lines, row):
    """The update ``lp._pivot`` makes: "columns" or "all columns"."""
    return ("" if 2 * np.count_nonzero(lines[:, row]) <= lines.shape[0] else "all ") + "columns"


def solve_recording(monkeypatch, program, dense=False):
    """Solve with ``pivot_condensed_dense`` in place of ``lp._pivot`` when ``dense``.

    Returns the trace, a count of the pivots by stage ("phase 1", "evict"
    or "phase 2") and by the update ``lp._pivot`` makes for them
    (``update_kind``), the solution, and the largest gap at the end of a
    phase between a carried reduced cost ``lines[:-1, -1]`` and a fresh
    ``cost[var] - lines[:-1, :-1] @ cost[basis]``.  The trace lists the
    pivots in order as ``(row, entering variable)``, with ``EVICT`` and
    ``PHASE2`` marking the start and the end of artificial eviction.
    """
    trace = []
    kinds = collections.Counter()
    gaps = []
    stage = ["phase 2"]
    pivot = pivot_condensed_dense if dense else lp._pivot
    evict, run = lp._evict, lp._run
    first_artificial = program.num_variables + program.b_ub.size

    def recording_pivot(lines, var, basis, row, slot):
        trace.append((row, int(var[slot])))
        kinds[stage[0], update_kind(lines, row)] += 1
        pivot(lines, var, basis, row, slot)

    def recording_evict(*args):
        trace.append(EVICT)
        stage[0] = "evict"
        result = evict(*args)
        trace.append(PHASE2)
        return result

    def staged_run(lines, var, basis, cost):
        stage[0] = "phase 1" if cost.size > first_artificial else "phase 2"
        status = run(lines, var, basis, cost)
        fresh = cost[var] - lines[:-1, :-1] @ cost[basis]
        gaps.append(np.abs(lines[:-1, -1] - fresh).max(initial=0.0))
        return status

    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", recording_pivot)
        m.setattr(lp, "_evict", recording_evict)
        m.setattr(lp, "_run", staged_run)
        solution = lp.solve(program)
    return trace, kinds, solution, float(np.max(gaps, initial=0.0))  # a NaN stays


def outcome(solution):
    x = None if solution.x is None else solution.x.tobytes()
    value = None if solution.objective_value is None else solution.objective_value.hex()
    return solution.status, x, value


def assert_same_as_dense(monkeypatch, program, row_major="trace", cost_drift=0.0):
    """Solve all the ways, assert equal traces and outcomes, return the first run.

    ``row_major`` says how far ``solve_row_major`` must agree: "trace" (the
    whole trace and the outcome: status, ``x`` bytes and objective) or
    "objective" (the status, and the objective to 1e-9).
    At the end of every phase of ``lp.solve`` the carried reduced costs
    must be within ``cost_drift`` of a fresh product; 0.0 asks for equal
    values.  Returns the trace, the pivot counts, the solution and whether
    the row-major trace was the same.
    """
    trace, kinds, solution, drift = solve_recording(monkeypatch, program)
    assert drift <= cost_drift, drift
    dense_trace, _, dense_solution, _ = solve_recording(monkeypatch, program, dense=True)
    reference_trace = []
    reference = solve_condensed_dense(program, reference_trace)
    assert trace == dense_trace == reference_trace
    assert outcome(solution) == outcome(dense_solution) == outcome(reference)

    row_major_trace = []
    row_major_solution = solve_row_major(program, row_major_trace)
    if row_major == "trace":
        assert row_major_trace == trace
        assert outcome(row_major_solution) == outcome(solution)
    else:
        assert row_major_solution.status is solution.status
        if solution.objective_value is not None:
            assert row_major_solution.objective_value == pytest.approx(
                solution.objective_value, rel=1e-9, abs=1e-9)
    return trace, kinds, solution, row_major_trace == trace


# How far a carried reduced cost may drift from a fresh product on the
# non-dyadic programs: a tenth of the optimality tolerance.
CARRIED_COST_TOL = lp._OPT_TOL / 10


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


def sparse_share(kinds, stage=None):
    """The pivots (of one stage, or all) that update only some lines, and all of them."""
    counted = [(key, count) for key, count in kinds.items() if stage in (None, key[0])]
    return sum(c for (_, kind), c in counted if kind == "columns"), sum(c for _, c in counted)


def test_random_programs_take_the_dense_pivots(monkeypatch):
    rng = random.Random(7100)
    statuses = {status: 0 for status in lp.LpStatus}
    evictions = eviction_pivots = pivots = gathered = 0
    for _ in range(600):
        trace, kinds, solution, _ = assert_same_as_dense(
            monkeypatch, random_program(rng), cost_drift=CARRIED_COST_TOL)
        statuses[solution.status] += 1
        pivots += pivot_count(trace)
        gathered += sparse_share(kinds)[0]
        if EVICT in trace:
            evictions += 1
            eviction_pivots += trace.index(PHASE2) - trace.index(EVICT) - 1
    # every outcome, artificial eviction and both kinds of update all occur
    assert min(statuses.values()) >= 20, statuses
    assert evictions >= 50 and eviction_pivots >= 20, (evictions, eviction_pivots)
    assert 100 <= gathered <= pivots - 100, (gathered, pivots)


def test_single_cost_programs_take_the_dense_pivots(monkeypatch):
    rng = random.Random(7400)
    statuses = {status: 0 for status in lp.LpStatus}
    kinds = collections.Counter()
    row_major_traces = 0
    for _ in range(4000):
        _, program_kinds, solution, same = assert_same_as_dense(
            monkeypatch, single_cost_program(rng), row_major="objective",
            cost_drift=CARRIED_COST_TOL)
        statuses[solution.status] += 1
        kinds += program_kinds
        row_major_traces += same
    assert min(statuses.values()) >= 200, statuses
    # both updates occur in phase 1 and in phase 2
    for stage in ("phase 1", "phase 2"):
        assert min(kinds[stage, "columns"], kinds[stage, "all columns"]) >= 200, kinds
    # the row-major trace differs only where the two phase prices round apart
    assert row_major_traces >= 3990, row_major_traces


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
        trace, program_kinds, _, _ = assert_same_as_dense(monkeypatch, program)
        pivots += pivot_count(trace)
        kinds += program_kinds
    gathered, _ = sparse_share(kinds)
    assert pivots > 200 and gathered > pivots / 2, (kinds, pivots)
    # max-min pivots in phase 2 (cost -t) and min-resource mostly in phase 1
    assert sparse_share(kinds, "phase 2" if objective == "mmd" else "phase 1")[0] > 50, kinds


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
        t[row, var[slot]] = lines[slot, row] = rng.choice((-2.5, 0.75, 1.0, 3.0))
        untouched = np.flatnonzero(lines[:, row] == 0.0)
        sparse += 2 * (lines.shape[0] - untouched.size) <= lines.shape[0]
        before = lines.copy()
        dense_basis = basis.copy()
        lp._pivot(lines, var, basis, row, slot)
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
    trace, kinds, solution, _ = assert_same_as_dense(monkeypatch, program)
    assert solution.status is lp.LpStatus.OPTIMAL
    # 150 eviction pivots, then phase 2 updates both ways
    assert trace.index(PHASE2) - trace.index(EVICT) - 1 == 150 and pivot_count(trace) > 500, kinds
    assert min(kinds["phase 2", "columns"], kinds["phase 2", "all columns"]) > 200, kinds
