"""Independent brute-force oracles, reference models and random instances.

Nothing here reuses the package's LP or routing machinery: max-flow values
come from cut enumeration, integral optima from exhaustive path-flow
search, and fractional LP references from scipy's HiGHS solver.  The
exceptions are the key-by-key reference for greedy rounding's stage 2
and the search-and-push reference for the sequential baseline: they
share the router's min-hop search (itself checked against
``simple_paths``), and the first also its stage 1, so that only the
filling loop is under test.  ``pivot_condensed_dense`` is the simplex
pivot with every line updated, which the line-skipping ``lp._pivot`` must
equal, and ``solve_condensed_dense`` the two-phase simplex on those lines
with its own rule code and the full reduced-cost product in every phase,
which ``lp.solve`` must equal pivot for pivot.  ``solve_row_major`` keeps
the full row-major tableau, pivoted by ``pivot_dense``, as a second
reference.
``build_lp_loop`` fills the flow LP one column at a time, which
``router.build_lp``'s index-array fill must equal byte for byte.
The reference models check the planner's assumptions from first principles:
drawing bits from one link's pool, trusted-relay forwarding with
hop-by-hop XOR, and gains/QBERs summed over photon numbers from the
per-photon-number statistics, yields and error rates.  ``transmittance``
and ``forward_key_rate`` are the rate model's steps taken one at a time,
which ``linkbudget.link_performance`` must equal, and ``solution_from_csv``
reads ``router.solution_to_csv`` output back for the round-trip checks.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import random
import warnings
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from qkdplan import lp as lp_module
from qkdplan.decoy import (
    DEFAULT_PROTOCOL,
    BoundCollapseError,
    DecoyProtocolParams,
    DegenerateChannelError,
    forward_observables,
    secret_key_rate,
    single_photon_bounds,
)
from qkdplan.linkbudget import FsoLinkParams, total_attenuation
from qkdplan.lp import LinearProgram, LpSolution, LpStatus
from qkdplan.netmodel import Link, Node, NodeKind, QkdGraph, canonical_pair
from qkdplan.router import (
    Commodity,
    FlowKey,
    FlowSolution,
    _floor_paths,
    _min_hop_path,
)

# --- graph helpers -----------------------------------------------------------


def build_graph(node_spec: dict[str, str], links: list[tuple[str, str, int]]) -> QkdGraph:
    """node_spec maps id -> 'gs'|'geo'|'leo'; links carry pool bits directly."""
    nodes = tuple(Node(id=i, kind=NodeKind(k)) for i, k in node_spec.items())
    link_objs = tuple(Link(a=a, b=b, rate_bps=0.0, pool_bits=pool) for a, b, pool in links)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return QkdGraph(nodes=nodes, links=link_objs)


def min_cut_single(graph: QkdGraph, source: str, sink: str) -> int:
    """Single-commodity max flow = min edge cut, by subset enumeration."""
    others = [n.id for n in graph.nodes if n.id not in (source, sink)]
    best = None
    for r in range(len(others) + 1):
        for subset in itertools.combinations(others, r):
            side = {source, *subset}
            capacity = sum(
                link.pool_bits
                for link in graph.links
                if (link.a in side) != (link.b in side)
            )
            if best is None or capacity < best:
                best = capacity
    return best


def mmd_cut_bound(graph: QkdGraph, pairs: list[tuple[str, str]]) -> float:
    """Upper bound on the fractional max-min demand from edge cuts."""
    node_ids = [n.id for n in graph.nodes]
    bound = float("inf")
    for r in range(1, len(node_ids)):
        for subset in itertools.combinations(node_ids, r):
            side = set(subset)
            split = sum(1 for a, b in pairs if (a in side) != (b in side))
            if split == 0:
                continue
            capacity = sum(
                link.pool_bits
                for link in graph.links
                if (link.a in side) != (link.b in side)
            )
            bound = min(bound, capacity / split)
    return bound


def simple_paths(
    graph: QkdGraph, source: str, sink: str, gs_relay: bool = True
) -> list[list[str]]:
    """All simple source->sink paths, honoring the ground-station transit rule."""
    station = {n.id for n in graph.nodes if n.kind == NodeKind.GROUND_STATION}
    blocked = station - {source, sink} if not gs_relay else set()
    adjacency: dict[str, list[str]] = {}
    for link in graph.links:
        adjacency.setdefault(link.a, []).append(link.b)
        adjacency.setdefault(link.b, []).append(link.a)
    paths: list[list[str]] = []

    def walk(node: str, seen: list[str]) -> None:
        if node == sink:
            paths.append(list(seen))
            return
        for nxt in sorted(adjacency.get(node, ())):
            if nxt in seen or nxt in blocked:
                continue
            seen.append(nxt)
            walk(nxt, seen)
            seen.pop()

    walk(source, [source])
    return paths


def _path_edges(path: list[str]) -> list[tuple[str, str]]:
    return [tuple(sorted((a, b))) for a, b in zip(path, path[1:])]


def _route_ways(paths, pools, amount):
    """Yield pool dicts left after routing `amount` bits over `paths`."""

    def rec(idx, remaining, pools):
        if remaining == 0:
            yield pools
            return
        if idx == len(paths):
            return
        edges = _path_edges(paths[idx])
        cap = min((pools[e] for e in edges), default=0)
        for take in range(min(cap, remaining), -1, -1):
            if take == 0:
                yield from rec(idx + 1, remaining, pools)
                continue
            nxt = dict(pools)
            for e in edges:
                nxt[e] -= take
            yield from rec(idx + 1, remaining - take, nxt)

    yield from rec(0, amount, pools)


def mmd_integral_optimum(
    graph: QkdGraph,
    commodities: list[Commodity],
    upper: int,
    gs_relay: bool = True,
) -> int:
    """Largest t such that every commodity can integrally route t bits."""
    all_paths = [
        simple_paths(graph, c.source, c.sink, gs_relay) for c in commodities
    ]
    pools0 = {link.endpoints: link.pool_bits for link in graph.links}

    def feasible(t: int) -> bool:
        if t == 0:
            return True
        dead: set = set()

        def rec(i, pools) -> bool:
            if i == len(commodities):
                return True
            key = (i, tuple(sorted(pools.items())))
            if key in dead:
                return False
            for left in _route_ways(all_paths[i], pools, t):
                if rec(i + 1, left):
                    return True
            dead.add(key)
            return False

        return rec(0, pools0)

    for t in range(upper, -1, -1):
        if feasible(t):
            return t
    return 0


def mr_integral_optimum(
    graph: QkdGraph,
    requests: list[tuple[str, str, int]],
    gs_relay: bool = True,
) -> Optional[int]:
    """Minimum total pool bits consumed by any integral routing, None if infeasible.

    Branch-and-bound over per-commodity path-flow assignments; paths are
    used in a fixed order within a commodity so each flow multiset is
    enumerated once.  Every relayed bit crosses at least two links, which
    gives the admissible lower bound used for pruning.
    """
    all_paths = [sorted(simple_paths(graph, s, t, gs_relay), key=len) for s, t, _ in requests]
    demands = [d for _, _, d in requests]
    pools0 = {link.endpoints: link.pool_bits for link in graph.links}
    best: list[Optional[int]] = [None]

    def tail_bound(idx: int, remaining: int) -> int:
        return 2 * (remaining + sum(demands[idx + 1 :]))

    def spread(idx: int, path_pos: int, remaining: int, pools, cost) -> None:
        if best[0] is not None and cost + tail_bound(idx, remaining) >= best[0]:
            return
        if remaining == 0:
            rec(idx + 1, pools, cost)
            return
        paths = all_paths[idx]
        if path_pos == len(paths):
            return
        edges = _path_edges(paths[path_pos])
        cap = min((pools[e] for e in edges), default=0)
        for take in range(min(cap, remaining), -1, -1):
            if take == 0:
                spread(idx, path_pos + 1, remaining, pools, cost)
                continue
            nxt = dict(pools)
            for e in edges:
                nxt[e] -= take
            spread(idx, path_pos + 1, remaining - take, nxt, cost + take * len(edges))

    def rec(idx: int, pools, cost) -> None:
        if idx == len(requests):
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        spread(idx, 0, demands[idx], pools, cost)

    rec(0, pools0, 0)
    return best[0]


# --- filling-loop references ---------------------------------------------------


def _residual_path(
    graph: QkdGraph, residual: dict[tuple[str, str], int], source: str, sink: str, gs_relay: bool
) -> Optional[list[str]]:
    """The router's min-hop path over the links whose residual pool is >= 1.

    With ``gs_relay`` off, no hop may enter a ground station other than
    ``source`` and ``sink``.
    """
    barred = set() if gs_relay else set(graph.ground_stations()) - {source, sink}
    return _min_hop_path(
        graph,
        lambda u, w: w not in barred and residual[canonical_pair(u, w)] >= 1,
        source,
        sink,
    )


def greedy_round_one_key(
    graph: QkdGraph,
    fractional: FlowSolution,
    gs_relay: bool = True,
) -> tuple[dict[FlowKey, int], tuple[float, ...]]:
    """Stage 2 of ``greedy_round`` literally, one key per step.

    Reuses the router's stage 1 and residual path search and returns the
    positive flows and the demands; ``greedy_round``, which applies whole
    rounds at once, must give exactly these.  Each commodity's
    ``demand_bits`` caps its demand.
    """
    commodities = fractional.commodities
    caps = [commodity.demand_bits for commodity in commodities]
    flows, demands, residual = _floor_paths(graph, fractional)
    active = [i for i, cap in enumerate(caps) if cap is None or demands[i] < cap]
    while active:
        i = min(active, key=lambda idx: (demands[idx], idx))
        path = _residual_path(graph, residual, *commodities[i].pair, gs_relay)
        if path is None:
            active.remove(i)
            continue
        demands[i] += 1
        for a, b in zip(path, path[1:]):
            flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + 1
            residual[canonical_pair(a, b)] -= 1
        if caps[i] is not None and demands[i] >= caps[i]:
            active.remove(i)
    return {key: v for key, v in flows.items() if v > 0}, tuple(float(d) for d in demands)


def sequential_dijkstra_push(
    graph: QkdGraph,
    requests: Sequence[tuple[str, str, int]],
    gs_relay: bool = True,
) -> FlowSolution:
    """The sequential baseline as its own search-and-push loop.

    Each request in turn takes its residual min-hop path and pushes the
    path's bottleneck, capped by the remaining demand, until the demand is
    met or no path is left; ``route_sequential_dijkstra``, which runs the
    rounding's progressive filling one request at a time, must give
    exactly this solution.
    """
    commodities = [
        Commodity(source=src, sink=dst, demand_bits=demand) for src, dst, demand in requests
    ]
    residual = {link.endpoints: link.pool_bits for link in graph.links}
    flows: dict[FlowKey, int] = {}
    fulfilled = []
    for i, commodity in enumerate(commodities):
        remaining = commodity.demand_bits
        while remaining > 0:
            path = _residual_path(graph, residual, *commodity.pair, gs_relay)
            if path is None:
                break
            bottleneck = min(residual[canonical_pair(a, b)] for a, b in zip(path, path[1:]))
            push = min(bottleneck, remaining)
            for a, b in zip(path, path[1:]):
                flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + push
                residual[canonical_pair(a, b)] -= push
            remaining -= push
        fulfilled.append(commodity.demand_bits - remaining)
    return FlowSolution(
        kind="dijkstra",
        status=LpStatus.OPTIMAL,
        commodities=tuple(commodities),
        flows=flows,
        demands=tuple(float(d) for d in fulfilled),
    )


# --- scipy reference ----------------------------------------------------------


def scipy_solve(lp: LinearProgram) -> tuple[LpStatus, Optional[float]]:
    """Solve the same LP with scipy's HiGHS as an independent reference.

    A program with no columns has the one point x = () and is judged from
    its rows: feasible iff every ``b_ub >= 0`` and every ``b_eq == 0``.
    """
    from scipy.optimize import linprog

    if lp.num_variables == 0:
        tol = 1e-9
        if np.all(lp.b_ub >= -tol) and np.all(np.abs(lp.b_eq) <= tol):
            return LpStatus.OPTIMAL, 0.0
        return LpStatus.INFEASIBLE, None
    res = linprog(  # HiGHS's default bounds are x >= 0
        lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        method="highs",
    )
    if res.status == 0:
        return LpStatus.OPTIMAL, float(res.fun)
    if res.status == 2:
        return LpStatus.INFEASIBLE, None
    if res.status == 3:
        return LpStatus.UNBOUNDED, None
    raise RuntimeError(f"scipy linprog failed: {res.status} {res.message}")


# --- LP vertex enumeration -----------------------------------------------------


def vertex_enumeration_optimum(lp: LinearProgram) -> Optional[float]:
    """Minimum objective over basic feasible points, by enumerating vertices.

    Every vertex of a pointed polytope activates n linearly independent
    constraints; equality rows are always active, the rest are chosen from
    inequality rows and the rows x_j >= 0.  Returns None when no feasible
    vertex exists.
    """
    n = lp.num_variables
    must = list(zip(lp.a_eq, lp.b_eq))
    rows: list[tuple[np.ndarray, float]] = list(zip(lp.a_ub, lp.b_ub))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, 0.0))

    def feasible(x: np.ndarray) -> bool:
        if np.any(lp.a_ub @ x - lp.b_ub > 1e-7):
            return False
        if np.any(np.abs(lp.a_eq @ x - lp.b_eq) > 1e-7):
            return False
        return bool(np.all(x >= -1e-7))

    need = n - len(must)
    best = None
    for combo in itertools.combinations(rows, need):
        a = np.array([r[0] for r in must] + [r[0] for r in combo])
        b = np.array([r[1] for r in must] + [r[1] for r in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if feasible(x):
            value = float(lp.objective @ x)
            if best is None or value < best:
                best = value
    return best


# --- LP build reference ---------------------------------------------------------


def build_lp_loop(
    graph: QkdGraph, commodities: Sequence[Commodity], objective: str, *, gs_relay: bool
) -> tuple[LinearProgram, tuple[FlowKey, ...]]:
    """``router.build_lp`` filling its flow columns one scalar store at a time.

    The same columns, rows and order, built from the documented layout with
    no index arrays; ``build_lp`` must give the same bytes.
    """
    k = len(commodities)
    if k == 0:
        return LinearProgram(objective=np.zeros(0)), ()
    link_row = {link.endpoints: j for j, link in enumerate(graph.links)}
    rows = itertools.count()
    row_of = [
        {
            node.id: next(rows)
            for node in graph.nodes
            if gs_relay or node.id in c.pair or node.kind != NodeKind.GROUND_STATION
        }
        for c in commodities
    ]
    num_rows = sum(map(len, row_of))
    columns: list[FlowKey] = []
    for i, usable in enumerate(row_of):
        for a, b in link_row:
            if a in usable and b in usable:
                columns += [(i, (a, b)), (i, (b, a))]
    offset = 1 + k if objective == "mmd" else 0
    n = offset + len(columns)

    if objective == "mr":
        cost = np.ones(n)
    else:
        cost = np.zeros(n)
        cost[0] = -1.0
    a_ub = np.zeros((len(link_row) + (k if objective == "mmd" else 0), n))
    b_ub = np.zeros(a_ub.shape[0])
    a_eq = np.zeros((num_rows, n))
    b_eq = np.zeros(num_rows)
    for col, (i, (u, v)) in enumerate(columns, start=offset):
        a_ub[link_row[canonical_pair(u, v)], col] = 1.0
        a_eq[row_of[i][u], col] += 1.0  # flow out of u
        a_eq[row_of[i][v], col] -= 1.0  # flow into v
    b_ub[: len(link_row)] = [link.pool_bits for link in graph.links]
    for i, commodity in enumerate(commodities):
        source_row = row_of[i][commodity.source]
        sink_row = row_of[i][commodity.sink]
        if objective == "mmd":
            a_ub[len(link_row) + i, 0] = 1.0
            a_ub[len(link_row) + i, 1 + i] = -1.0
            a_eq[source_row, 1 + i] = -1.0
            a_eq[sink_row, 1 + i] = 1.0
        else:
            b_eq[source_row] = float(commodity.demand_bits)
            b_eq[sink_row] = -float(commodity.demand_bits)
    lp = LinearProgram(objective=cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return lp, tuple(columns)


# --- simplex references ---------------------------------------------------------


def pivot_dense(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """The simplex pivot on a full row-major tableau: every row, zero entry or not."""
    t[row] /= t[row, col]
    column = t[:, col].copy()
    column[row] = 0.0
    t -= np.outer(column, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


def pivot_condensed_dense(lines, var, basis, row: int, slot: int) -> None:
    """``lp._pivot`` with the full update: every line, zero pivot-row entry or not."""
    column = lines[slot].copy()
    lines[slot] = 0.0
    lines[slot, row] = 1.0
    lines[:, row] /= column[row]
    column[row] = 0.0
    lines -= np.outer(lines[:, row], column)
    var[slot], basis[row] = basis[row], var[slot]


EVICT, PHASE2 = "evict", "phase 2"


def _phase1_tableau(lp: LinearProgram):
    """The full row-major phase-1 tableau [A | slacks | artificials | b] and its basis.

    A <= row with a nonnegative rhs starts on its slack; every other row is
    negated where its rhs is negative and starts on an artificial, in row
    order.  Returns the tableau, the basis, the first artificial column,
    the rows that got an artificial, and the right-hand sides.
    """
    n = lp.num_variables
    m_ub = lp.b_ub.size
    b = np.concatenate([lp.b_ub, lp.b_eq])
    negative = b < 0
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
    return t, basis, first_artificial, artificial_rows, b


def _phase1_infeasible(levels, basis, first_artificial, artificial_rows, b) -> bool:
    """Whether an artificial left basic after phase 1 exceeds its own row's tolerance."""
    for level, variable in zip(levels, basis):
        if variable >= first_artificial:
            scale = max(1.0, abs(float(b[artificial_rows[variable - first_artificial]])))
            if level > lp_module._FEAS_TOL * scale:
                return True
    return False


def _optimal(lp: LinearProgram, values: np.ndarray) -> LpSolution:
    """The optimal solution whose variable values are ``values``, checked as ``lp.solve`` checks it."""
    x = values[: lp.num_variables] + 0.0
    if not lp_module._feasible(lp, x):
        raise ArithmeticError("simplex returned an infeasible point")
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective_value=float(lp.objective @ x))


def solve_row_major(lp: LinearProgram, trace: Optional[list] = None) -> LpSolution:
    """The two-phase simplex on a full row-major tableau.

    Every phase keeps the whole tableau, artificial columns included,
    computes its reduced costs with the full product ``cost[basis] @ T`` on
    every iteration and pivots with ``pivot_dense``.  ``trace``, when given,
    receives every ``(row, col)`` pivoted, with ``EVICT`` and ``PHASE2``
    marking the start and the end of artificial eviction.
    """
    record = [] if trace is None else trace

    def pivot(t, basis, row, col):
        record.append((row, col))
        pivot_dense(t, basis, row, col)

    t, basis, first_artificial, artificial_rows, b = _phase1_tableau(lp)
    basis = basis.tolist()
    if artificial_rows.size:
        phase1_cost = np.zeros(t.shape[1] - 1)
        phase1_cost[first_artificial:] = 1.0
        if _run_row_major(t, basis, phase1_cost, pivot) is not LpStatus.OPTIMAL:
            raise RuntimeError("phase 1 terminated abnormally")
        if _phase1_infeasible(t[:, -1], basis, first_artificial, artificial_rows, b):
            return LpSolution(status=LpStatus.INFEASIBLE)
        record.append(EVICT)
        keep = []
        for row in range(t.shape[0]):
            if basis[row] >= first_artificial:
                candidates = np.where(
                    np.abs(t[row, :first_artificial]) > lp_module._PIVOT_TOL)[0]
                if candidates.size == 0:
                    continue
                pivot(t, basis, row, int(candidates[0]))
            keep.append(row)
        t = np.delete(t[keep], np.s_[first_artificial:-1], axis=1)
        basis = [basis[row] for row in keep]
        record.append(PHASE2)

    phase2_cost = np.zeros(t.shape[1] - 1)
    phase2_cost[: lp.num_variables] = lp.objective
    if _run_row_major(t, basis, phase2_cost, pivot) is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)
    values = np.zeros(t.shape[1] - 1)
    values[basis] = t[:, -1]
    return _optimal(lp, values)


def _run_row_major(t, basis, cost, pivot) -> LpStatus:
    """The pivoting loop of ``solve_row_major``: Dantzig, then Bland."""
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (t.shape[0] + t.shape[1] - 1) + 10_000):
        reduced = cost - cost[basis] @ t[:, :-1]
        candidates = np.where(reduced < -lp_module._OPT_TOL)[0]
        if candidates.size == 0:
            return LpStatus.OPTIMAL
        if blands_rule:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])
        column = t[:, col]
        rows = np.where(column > lp_module._PIVOT_TOL)[0]
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = t[rows, -1] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12 + 1e-9 * abs(best)]
        leave = int(min(near, key=lambda r: basis[r]))
        if best <= lp_module._PIVOT_TOL:
            degenerate_run += 1
            blands_rule = blands_rule or degenerate_run >= lp_module._DEGENERATE_SWITCH
        else:
            degenerate_run = 0
        pivot(t, basis, leave, col)
    raise RuntimeError("simplex iteration limit exceeded")


def solve_condensed_dense(lp: LinearProgram, trace: Optional[list] = None) -> LpSolution:
    """The two-phase simplex on condensed lines, every line updated at every pivot.

    The lines are the nonbasic columns of ``_phase1_tableau``'s tableau,
    one C-contiguous line each in variable order, and its rhs last.  Each
    iteration prices with the full product ``cost[var] - lines @ cost[basis]``
    and pivots with ``pivot_condensed_dense``.  An artificial that leaves
    the basis keeps its line; after eviction the artificials' lines and
    the redundant rows are dropped and the rest sorted by variable.
    ``trace``, when given, receives every ``(row, entering variable)``
    pivoted, with ``EVICT`` and ``PHASE2`` marking the start and the end of
    artificial eviction.
    """
    record = [] if trace is None else trace

    def pivot(lines, var, basis, row, slot):
        record.append((row, int(var[slot])))
        pivot_condensed_dense(lines, var, basis, row, slot)

    t, basis, first_artificial, artificial_rows, b = _phase1_tableau(lp)
    var = np.setdiff1d(np.arange(t.shape[1] - 1), basis)
    lines = t.T[np.r_[var, -1]].copy()
    if artificial_rows.size:
        phase1_cost = np.zeros(t.shape[1] - 1)
        phase1_cost[first_artificial:] = 1.0
        if _run_condensed(lines, var, basis, phase1_cost, pivot) is not LpStatus.OPTIMAL:
            raise RuntimeError("phase 1 terminated abnormally")
        if _phase1_infeasible(lines[-1], basis, first_artificial, artificial_rows, b):
            return LpSolution(status=LpStatus.INFEASIBLE)
        record.append(EVICT)
        keep = []
        for row in range(basis.size):
            if basis[row] >= first_artificial:
                candidates = [
                    s for s in range(var.size)
                    if var[s] < first_artificial
                    and abs(lines[s, row]) > lp_module._PIVOT_TOL
                ]
                if not candidates:
                    continue
                pivot(lines, var, basis, row, min(candidates, key=lambda s: var[s]))
            keep.append(row)
        kept = sorted((s for s in range(var.size) if var[s] < first_artificial),
                      key=lambda s: var[s])
        lines = lines[kept + [-1]][:, keep]
        var, basis = var[kept], basis[keep]
        record.append(PHASE2)

    phase2_cost = np.zeros(first_artificial)
    phase2_cost[: lp.num_variables] = lp.objective
    if _run_condensed(lines, var, basis, phase2_cost, pivot) is LpStatus.UNBOUNDED:
        return LpSolution(status=LpStatus.UNBOUNDED)
    values = np.zeros(first_artificial)
    values[basis] = lines[-1]
    return _optimal(lp, values)


def _run_condensed(lines, var, basis, cost, pivot) -> LpStatus:
    """The pivoting loop of ``solve_condensed_dense``: Dantzig, then Bland.

    Both rules pick among the variables, not the line positions: Dantzig's
    the smallest variable among the least reduced costs, Bland's the
    smallest variable with a negative one.
    """
    blands_rule = False
    degenerate_run = 0
    for _ in range(200 * (2 * basis.size + var.size) + 10_000):
        reduced = cost[var] - lines[:-1] @ cost[basis]
        candidates = np.where(reduced < -lp_module._OPT_TOL)[0]
        if candidates.size == 0:
            return LpStatus.OPTIMAL
        if not blands_rule:
            candidates = candidates[reduced[candidates] == reduced[candidates].min()]
        slot = int(candidates[np.argmin(var[candidates])])
        column = lines[slot]
        rows = np.where(column > lp_module._PIVOT_TOL)[0]
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = lines[-1, rows] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12 + 1e-9 * abs(best)]
        leave = int(min(near, key=lambda r: basis[r]))
        if best <= lp_module._PIVOT_TOL:
            degenerate_run += 1
            blands_rule = blands_rule or degenerate_run >= lp_module._DEGENERATE_SWITCH
        else:
            degenerate_run = 0
        pivot(lines, var, basis, leave, slot)
    raise RuntimeError("simplex iteration limit exceeded")


# --- random flow instances ------------------------------------------------------


def random_instance(
    rng: random.Random,
    max_commodities: int = 3,
    max_paths: Optional[int] = 6,
) -> tuple[QkdGraph, list[tuple[str, str]]]:
    """Random graph (<= 6 nodes, <= 8 links, pools <= 12) plus GS pairs.

    ``max_paths`` caps the simple-path count per pair so the exhaustive
    integral oracles stay tractable; pass None to skip that filter.
    """
    sat_kinds = ("geo", "leo")
    while True:
        n_gs = rng.randint(2, 4)
        n_sat = rng.randint(1, min(3, 6 - n_gs))
        node_spec = {f"g{i}": "gs" for i in range(n_gs)}
        node_spec.update({f"s{i}": rng.choice(sat_kinds) for i in range(n_sat)})
        stations = [f"g{i}" for i in range(n_gs)]
        sats = [f"s{i}" for i in range(n_sat)]
        candidates = [(g, s) for g in stations for s in sats]
        candidates += list(itertools.combinations(sats, 2))
        rng.shuffle(candidates)
        count = rng.randint(min(2, len(candidates)), min(8, len(candidates)))
        links = [(a, b, rng.randint(0, 12)) for a, b in candidates[:count]]
        graph = build_graph(node_spec, links)
        pairs = list(itertools.combinations(stations, 2))
        rng.shuffle(pairs)
        pairs = sorted(pairs[: rng.randint(1, min(max_commodities, len(pairs)))])
        if max_paths is not None:
            counts = [len(simple_paths(graph, a, b)) for a, b in pairs]
            if any(c > max_paths for c in counts):
                continue
        return graph, pairs


# --- reference models ---------------------------------------------------------


class InsufficientKeysError(ValueError):
    """A consume operation would overdraw a link's key pool."""


def link_of(graph: QkdGraph, a: str, b: str) -> Link:
    """The link between ``a`` and ``b`` in either order; KeyError if there is none."""
    pair = canonical_pair(a, b)
    for link in graph.links:
        if link.endpoints == pair:
            return link
    raise KeyError(f"no link between {a!r} and {b!r}")


def consume(graph: QkdGraph, endpoints: tuple[str, str], bits: int) -> QkdGraph:
    """Draw ``bits`` from one link's pool; overdraw raises, naming the link."""
    if bits < 0 or bits != int(bits):
        raise ValueError(f"consumed bits must be a nonnegative integer, got {bits}")
    target = link_of(graph, *endpoints)
    if bits > target.pool_bits:
        raise InsufficientKeysError(
            f"link {target.a}-{target.b} holds {target.pool_bits} bits, "
            f"cannot consume {bits}"
        )
    new_links = tuple(
        replace(l, pool_bits=l.pool_bits - int(bits)) if l.endpoints == target.endpoints else l
        for l in graph.links
    )
    return replace(graph, links=new_links)


class RelayTrace(NamedTuple):
    transmitted: tuple[str, ...]
    recovered: str
    consumed_bits: int


def _xor_bits(x: str, y: str) -> str:
    return "".join("1" if cx != cy else "0" for cx, cy in zip(x, y))


def relay_chain_demo(
    key: str, path: Sequence[str], link_keys: Sequence[str]
) -> RelayTrace:
    """Forward a key along a trusted-relay chain with hop-by-hop XOR.

    Each hop transmits key XOR link_key over the classical channel and the
    next node recovers the key with a second XOR, consuming one pool bit
    per key bit per hop.  Returns the per-hop transmitted strings, the key
    recovered at the destination, and the total pool consumption.
    """
    if not key or any(c not in "01" for c in key):
        raise ValueError(f"key must be a nonempty bit string, got {key!r}")
    hops = len(path) - 1
    if hops < 1:
        raise ValueError("path must contain at least two nodes")
    if len(link_keys) != hops:
        raise ValueError(f"path has {hops} hops but {len(link_keys)} link keys were given")
    for i, lk in enumerate(link_keys):
        if len(lk) != len(key) or any(c not in "01" for c in lk):
            raise ValueError(f"link key {i} must be a bit string of length {len(key)}")
    transmitted = []
    carried = key
    for lk in link_keys:
        sent = _xor_bits(carried, lk)
        transmitted.append(sent)
        carried = _xor_bits(sent, lk)  # receiving node recovers the key
    return RelayTrace(tuple(transmitted), carried, len(key) * hops)


def poisson_pn(n: int, mu: float) -> float:
    """Probability that a phase-randomized pulse of intensity mu has n photons."""
    if n < 0 or n != int(n):
        raise ValueError(f"photon number must be a nonnegative integer, got {n}")
    if mu < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {mu}")
    n = int(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def _photon_arrival(n: int, delta: float) -> float:
    # Probability that at least one of n photons survives the channel,
    # 1 - (1 - delta)^n, written to avoid cancellation at small delta.
    if n == 0:
        return 0.0
    if delta == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-delta))


def yield_n(n: int, delta: float, y0: float) -> float:
    """Probability of a conclusive detection for an n-photon pulse.

    Uses the exact inclusion-exclusion form Yn = Y0 + dn - Y0*dn, which
    stays within [0, 1] for all inputs.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"photon number must be a nonnegative integer, got {n}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {delta}")
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"background yield must be in [0, 1], got {y0}")
    dn = _photon_arrival(int(n), delta)
    return min(y0 + dn - y0 * dn, 1.0)  # clamp a possible 1-ulp overshoot


def error_rate_n(n: int, delta: float, y0: float) -> float:
    """Error rate of n-photon signals under the dark-count-only model.

    Errors come exclusively from background clicks, half of which land on
    the wrong detector, so e_n = Y0 / (2 Yn) and e_0 = 1/2 by construction.
    """
    yn = yield_n(n, delta, y0)
    if yn == 0.0:
        raise DegenerateChannelError(
            f"yield of {n}-photon pulses is zero; error rate undefined"
        )
    return y0 / (2.0 * yn)


# Photon numbers beyond this contribute < 1e-40 for intensities <= 2.
SERIES_TERMS = 50


def gain_and_qber_series(
    intensity: float,
    delta: float,
    params: DecoyProtocolParams = DEFAULT_PROTOCOL,
    terms: int = SERIES_TERMS,
) -> tuple[float, float]:
    """Gain and QBER via the truncated photon-number expansion.

    Cross-check for :func:`qkdplan.decoy.gain_and_qber`; the two agree to
    ~1e-12 relative for intensities <= 2 at 50 terms.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    gain = 0.0
    errors = 0.0
    for n in range(terms + 1):
        pn = poisson_pn(n, intensity)
        yn = yield_n(n, delta, params.y0)
        gain += pn * yn
        # Yn * en = Y0 / 2; written out to keep the zero-yield case exact.
        errors += pn * (params.y0 / 2.0 if yn > 0.0 else 0.0)
    if gain == 0.0:
        raise DegenerateChannelError(
            "gain is zero (vacuum input and no background); QBER undefined"
        )
    return gain, errors / gain


# --- rate model, one step at a time -------------------------------------------


def transmittance(params: FsoLinkParams) -> float:
    """End-to-end single-photon detection probability, 1 / total_attenuation."""
    return 1.0 / total_attenuation(params)


def forward_key_rate(
    delta: float, params: DecoyProtocolParams = DEFAULT_PROTOCOL
) -> float:
    """End-to-end modelled key rate (bits/s) for a channel of transmittance delta.

    Collapsed bounds are reported as a rate of zero rather than an error.
    """
    obs = forward_observables(delta, params)
    try:
        bounds = single_photon_bounds(obs, params)
    except BoundCollapseError:
        return 0.0
    return secret_key_rate(obs, bounds, params)


# --- CSV reader ------------------------------------------------------------------

_CSV_SUM_TOL = 1e-9  # relative slack when flow rows add up to a summary's consumed value


def _parse_number(text: str) -> float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def solution_from_csv(text: str) -> FlowSolution:
    """Rebuild a FlowSolution from :func:`qkdplan.router.solution_to_csv` output."""
    sections: list[list[list[str]]] = [[]]
    for row in csv.reader(io.StringIO(text)):
        if not row:
            sections.append([])
        else:
            sections[-1].append(row)
    sections = [s for s in sections if s]
    if len(sections) != 3:
        raise ValueError(f"expected 3 CSV sections, found {len(sections)}")
    header, flow_rows, summary_rows = sections

    if header[0] != ["kind", "status", "objective"] or len(header) != 2:
        raise ValueError("malformed solution header section")
    kind, status_text, objective_text = header[1]
    status = LpStatus(status_text)
    objective = None if objective_text == "" else float(_parse_number(objective_text))

    if summary_rows[0] != ["pair", "fulfilled_demand", "consumed", "consumption_rate"]:
        raise ValueError("malformed summary section")
    commodities = []
    demands = []
    consumed = []
    for row in summary_rows[1:]:
        src, dst = row[0].split("->", 1)
        commodities.append(Commodity(source=src, sink=dst))
        demands.append(float(_parse_number(row[1])))
        consumed.append(float(_parse_number(row[2])))

    if flow_rows[0] != ["commodity_src", "commodity_dst", "edge_from", "edge_to", "bits"]:
        raise ValueError("malformed flows section")
    # Rows come grouped in commodity order and a commodity's rows add up to
    # its consumed value, so a commodity's block ends once that sum is
    # reached; this also splits two commodities that share a pair.
    flows: dict[FlowKey, float] = {}
    cursor = 0
    total = 0.0
    for src, dst, edge_from, edge_to, bits in flow_rows[1:]:
        while cursor < len(commodities) and total >= consumed[cursor] * (1 - _CSV_SUM_TOL):
            cursor += 1
            total = 0.0
        if cursor >= len(commodities) or commodities[cursor].pair != (src, dst):
            raise ValueError(f"flow row {src}->{dst} does not match the summary's consumed bits")
        value = float(_parse_number(bits))
        flows[(cursor, (edge_from, edge_to))] = value
        total += value

    solution = FlowSolution(
        kind=kind,
        status=status,
        commodities=tuple(commodities),
        flows=flows,
        demands=tuple(demands),
    )
    if solution.objective != objective:
        raise ValueError(f"header objective {objective} != {solution.objective} from the rows")
    return solution
