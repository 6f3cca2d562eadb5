"""Multi-commodity key-flow routing over a QkdGraph.

Encodes the key-exchange requests, each a
:class:`~qkdplan.netmodel.Commodity`, as a multi-commodity flow LP over
the link key pools and provides three planners, each taking a sequence
of commodities:

* :func:`route_mmd` maximizes the minimum fulfilled demand across
  commodities without ``demand_bits`` (via a dummy variable t with rows
  t <= d_i),
* :func:`route_mr` minimizes total key consumption at fixed demands
  (unit cost per flow variable: a relay hop spends one pool bit per key bit),
* :func:`route_sequential_dijkstra` is the order-dependent baseline that
  serves fixed requests one at a time over min-hop paths with residual
  pools.

Every path the module takes is the lexicographically smallest min-hop
path over the links still usable (:func:`_min_hop_path`).  Fractional LP
solutions are made integral by :func:`greedy_round`: floor a path
decomposition of each commodity's flow, then top the demands up by
progressive filling.  The commodities tied at the lowest fulfilled demand
each ship one more key, in index order, along their residual paths until
no commodity can grow; every stretch of identical rounds is applied in
one step.  The baseline runs the same filling for one request at a time.

Every entry point requires ``gs_relay`` by keyword.  One node list per
commodity (:func:`_usable_nodes`; with ``gs_relay`` off it leaves out the
ground stations other than the commodity's endpoints)
gives the commodity its conservation rows, its two directed flow variables
per link with both ends usable, and the nodes its path searches may enter.
A link's single pool caps the sum of both directions over all commodities,
because the shared secret bits on a link are usable either way.  All
tie-breaking is deterministic (commodity index, then lexicographic node
ids), so identical inputs give identical plans.  A :class:`FlowSolution`
stores only its flows and demands: its objective, totals and per-pair
totals, which the CSV export and the markdown report read, are derived
from them.  The CSV export has no reader here; the tests hold the
reference one.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .lp import LinearProgram, LpStatus, solve
from .netmodel import Commodity, NodeKind, QkdGraph, canonical_pair

__all__ = [
    "FlowSolution",
    "gs_pairs",
    "build_lp",
    "solve_fractional",
    "greedy_round",
    "route_mmd",
    "route_mr",
    "route_sequential_dijkstra",
    "verify_solution",
    "solution_to_csv",
]

_FLOW_EPS = 1e-9
_FLOOR_EPS = 1e-6
_VERIFY_TOL = 1e-6  # relative slack of the verifier's checks on a fractional solution

DirectedEdge = tuple[str, str]
FlowKey = tuple[int, DirectedEdge]


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Per-commodity directed key flows and fulfilled demands; every total derives from them."""

    kind: str  # "mmd" | "mr" | "dijkstra"
    status: LpStatus
    commodities: tuple[Commodity, ...]
    flows: dict[FlowKey, float]
    demands: tuple[float, ...]

    @property
    def objective(self) -> Optional[float]:
        """The least demand (mmd), the pool bits consumed (mr) or the bits
        delivered (dijkstra); None unless the status is Optimal."""
        if self.status is not LpStatus.OPTIMAL:
            return None
        if self.kind == "mmd":
            return float(self.min_demand)
        return float(self.total_flow if self.kind == "mr" else self.total_demand)

    @property
    def total_flow(self) -> float:
        return sum(self.flows.values())

    def pair_totals(self) -> tuple[tuple[float, float, float], ...]:
        """Per commodity: (bits delivered, pool bits consumed, consumed per
        delivered bit or 0), the consumed bits summed in one pass over the flows."""
        consumed: dict[int, float] = {}
        for (i, _), v in self.flows.items():
            consumed[i] = consumed.get(i, 0) + v
        totals = []
        for i, delivered in enumerate(self.demands):
            used = consumed.get(i, 0)
            totals.append((delivered, used, used / delivered if delivered > 0 else 0.0))
        return tuple(totals)

    @property
    def min_demand(self) -> float:
        return min(self.demands) if self.demands else 0.0

    @property
    def total_demand(self) -> float:
        return sum(self.demands)

    @property
    def consumption_rate(self) -> float:
        """Pool bits consumed per key bit delivered end to end (0 if nothing sent)."""
        delivered = self.total_demand
        return self.total_flow / delivered if delivered > 0 else 0.0

    @property
    def integral(self) -> bool:
        return all(float(v).is_integer() for v in self.flows.values()) and all(
            float(d).is_integer() for d in self.demands
        )


def gs_pairs(graph: QkdGraph) -> tuple[tuple[str, str], ...]:
    """All unordered ground-station pairs, lexicographically sorted."""
    stations = graph.ground_stations()
    return tuple(
        (stations[i], stations[j])
        for i in range(len(stations))
        for j in range(i + 1, len(stations))
    )


def _check_commodities(graph: QkdGraph, commodities: Sequence[Commodity], kind: str) -> None:
    """Raise ValueError unless every endpoint is a ground station and the
    demands fit ``kind``: none fixed for ``mmd``, all fixed otherwise."""
    for i, commodity in enumerate(commodities):
        for node_id in commodity.pair:
            node = graph.node(node_id)  # raises KeyError for unknown nodes
            if node.kind != NodeKind.GROUND_STATION:
                raise ValueError(
                    f"commodity {i} endpoint {node_id!r} is a {node.kind.value}; "
                    "only ground stations exchange keys"
                )
    fixed = [c.demand_bits is not None for c in commodities]
    if kind == "mmd" and any(fixed):
        raise ValueError("max-min demand uses variable demands; do not fix demand_bits")
    if kind != "mmd" and not all(fixed):
        name = "min-resource" if kind == "mr" else "the sequential baseline"
        raise ValueError(f"{name} needs a fixed demand on every commodity")


def _usable_nodes(graph: QkdGraph, pair: tuple[str, str], gs_relay: bool) -> list[str]:
    """The nodes a commodity between ``pair`` may touch, in graph node order.

    All of them, or with ``gs_relay`` off all but the other ground stations.
    """
    return [
        node.id
        for node in graph.nodes
        if gs_relay or node.id in pair or node.kind != NodeKind.GROUND_STATION
    ]


def _flows_by_commodity(flows: dict[FlowKey, float]) -> dict[int, dict[DirectedEdge, float]]:
    """Each commodity's flows keyed by directed edge, grouped in one pass in dict order."""
    grouped: dict[int, dict[DirectedEdge, float]] = {}
    for (i, edge), value in flows.items():
        grouped.setdefault(i, {})[edge] = value
    return grouped


def build_lp(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    objective: str,
    *,
    gs_relay: bool,
) -> tuple[LinearProgram, tuple[FlowKey, ...]]:
    """Encode the flow problem as a linear program.

    ``objective`` is ``"mmd"`` (maximize the minimum demand; demands are
    variables, cost (-1, 0, ..., 0) on the dummy t with rows t - d_i <= 0)
    or ``"mr"`` (minimize total flow at fixed demands; unit cost per flow
    variable).

    Variables: t and d_1..d_k (max-min only), then the flow columns per
    commodity and per link, forward (from the link's lexicographically
    smaller endpoint) before reverse.  A commodity gets the two columns of
    a link only when both ends are among its :func:`_usable_nodes`; with
    ``gs_relay=False`` that excludes every link touching a ground station
    other than its own endpoints, so ground-station transit is never created.

    Constraints: one capacity row per link bounding the sum of both
    directions over all commodities by the pool, and flow conservation at
    every node the commodity may use, per commodity in graph node order;
    all variables are nonnegative.  Returns the program and the
    ``(commodity, directed edge)`` key of every flow column, in column order.
    """
    if objective not in ("mmd", "mr"):
        raise ValueError(f"objective must be 'mmd' or 'mr', got {objective!r}")
    commodities = tuple(commodities)
    _check_commodities(graph, commodities, objective)
    k = len(commodities)
    if k == 0:
        return LinearProgram(objective=np.zeros(0)), ()
    link_row = {link.endpoints: j for j, link in enumerate(graph.links)}

    rows = itertools.count()  # per commodity, each usable node's conservation row
    row_of = [{v: next(rows) for v in _usable_nodes(graph, c.pair, gs_relay)} for c in commodities]
    num_rows = sum(map(len, row_of))
    columns: list[FlowKey] = []
    link_rows: list[int] = []  # per column: its link's capacity row,
    out_rows: list[int] = []  # the conservation row it leaves
    in_rows: list[int] = []  # and the one it enters
    for i, usable in enumerate(row_of):
        for (a, b), j in link_row.items():
            if a in usable and b in usable:
                columns += [(i, (a, b)), (i, (b, a))]
                link_rows += [j, j]
                out_rows += [usable[a], usable[b]]
                in_rows += [usable[b], usable[a]]
    offset = 1 + k if objective == "mmd" else 0
    n = offset + len(columns)

    if objective == "mr":
        cost = np.ones(n)
    else:
        cost = np.zeros(n)
        cost[0] = -1.0  # maximize t
    a_ub = np.zeros((len(link_row) + (k if objective == "mmd" else 0), n))
    b_ub = np.zeros(a_ub.shape[0])
    a_eq = np.zeros((num_rows, n))
    b_eq = np.zeros(num_rows)
    flow_cols = np.arange(offset, n)
    a_ub[link_rows, flow_cols] = 1.0
    a_eq[out_rows, flow_cols] = 1.0  # the two rows of a column differ
    a_eq[in_rows, flow_cols] = -1.0
    b_ub[: len(link_row)] = [link.pool_bits for link in graph.links]
    for i, commodity in enumerate(commodities):
        source_row = row_of[i][commodity.source]
        sink_row = row_of[i][commodity.sink]
        if objective == "mmd":
            a_ub[len(link_row) + i, 0] = 1.0  # t - d_i <= 0
            a_ub[len(link_row) + i, 1 + i] = -1.0
            a_eq[source_row, 1 + i] = -1.0
            a_eq[sink_row, 1 + i] = 1.0
        else:
            b_eq[source_row] = float(commodity.demand_bits)
            b_eq[sink_row] = -float(commodity.demand_bits)

    lp = LinearProgram(objective=cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return lp, tuple(columns)


def solve_fractional(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    objective: str,
    *,
    gs_relay: bool,
) -> FlowSolution:
    """Solve the flow LP and decode it, without the integral rounding stage."""
    commodities = tuple(commodities)
    lp, columns = build_lp(graph, commodities, objective, gs_relay=gs_relay)
    solution = solve(lp)
    if solution.status is not LpStatus.OPTIMAL:
        flows, demands = {}, (0.0,) * len(commodities)
    else:
        x = solution.x
        flow_values = x[x.size - len(columns):]  # the flow columns come last
        flows = {key: float(v) for key, v in zip(columns, flow_values) if v > _FLOW_EPS}
        if objective == "mmd":
            demands = tuple(float(x[1 + i]) for i in range(len(commodities)))
        else:
            demands = tuple(float(c.demand_bits) for c in commodities)
    return FlowSolution(
        kind=objective,
        status=solution.status,
        commodities=commodities,
        flows=flows,
        demands=demands,
    )


# --- min-hop path search ---------------------------------------------------

def _min_hop_path(
    graph: QkdGraph,
    usable: Callable[[str, str], bool],
    source: str,
    sink: str,
) -> Optional[list[str]]:
    """The lexicographically smallest min-hop source->sink path, or None.

    The link u-w may be taken from u when ``usable(u, w)``, which also bars
    nodes (a foreign ground station under the ban is never entered).  A
    breadth-first search from the source visits each node's neighbours in
    sorted order and keeps the first parent it finds, so every node's
    parent chain is its lexicographically smallest min-hop path.
    """
    parents: dict[str, Optional[str]] = {source: None}
    frontier = [source]
    while frontier and sink not in parents:
        next_frontier = []
        for v in frontier:
            for w in graph._neighbours[v]:
                if w not in parents and usable(v, w):
                    parents[w] = v
                    next_frontier.append(w)
        frontier = next_frontier
    if sink not in parents:
        return None
    path = [sink]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


# --- greedy rounding --------------------------------------------------------

def _decompose_paths(
    graph: QkdGraph, flows: dict[DirectedEdge, float], source: str, sink: str
) -> list[tuple[list[str], float]]:
    """Split one commodity's edge flow into source->sink paths (cycles dropped)."""
    work = {edge: value for edge, value in flows.items() if value > _FLOW_EPS}
    paths = []
    while True:
        path = _min_hop_path(graph, lambda u, w: (u, w) in work, source, sink)
        if path is None:
            return paths
        edges = list(zip(path, path[1:]))
        bottleneck = min(work[edge] for edge in edges)
        for edge in edges:
            work[edge] -= bottleneck
            if work[edge] <= _FLOW_EPS:
                del work[edge]
        paths.append((path, bottleneck))


def _floor_paths(
    graph: QkdGraph, fractional: FlowSolution
) -> tuple[dict[FlowKey, int], list[int], dict[tuple[str, str], int]]:
    """Rounding stage 1: floor each commodity's path decomposition.

    Returns the integral flows, the demands they deliver and every link's
    residual pool, in link order.
    """
    flows: dict[FlowKey, int] = {}
    demands = [0] * len(fractional.commodities)
    by_commodity = _flows_by_commodity(fractional.flows)
    for i, commodity in enumerate(fractional.commodities):
        mine = by_commodity.get(i, {})
        for path, weight in _decompose_paths(graph, mine, commodity.source, commodity.sink):
            whole = int(math.floor(weight + _FLOOR_EPS))
            if whole <= 0:
                continue
            demands[i] += whole
            for a, b in zip(path, path[1:]):
                flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + whole

    residual = {link.endpoints: link.pool_bits for link in graph.links}
    for (_, (a, b)), v in flows.items():
        residual[canonical_pair(a, b)] -= v
    overdrawn = [pair for pair, left in residual.items() if left < 0]
    if overdrawn:  # pragma: no cover - flooring cannot overdraw
        raise ArithmeticError(f"rounding overdrew link {'-'.join(overdrawn[0])}")
    return flows, demands, residual


def _fill(
    graph: QkdGraph,
    commodities: tuple[Commodity, ...],
    indices: Iterable[int],
    flows: dict[FlowKey, int],
    demands: list[int],
    residual: dict[tuple[str, str], int],
    gs_relay: bool,
) -> None:
    """Progressive filling in whole keys over the commodities in ``indices``.

    Repeatedly gives one more key to the commodity with the lowest
    fulfilled demand (ties by index) over its residual min-hop path through
    its usable nodes, retiring the commodity when no path is left or its
    ``demand_bits`` cap is reached.  Updates ``flows``, ``demands`` and
    ``residual`` in place.

    That key-by-key sequence is a round-robin over the tied set T (the
    active commodities at the lowest demand, in index order), and r of its
    rounds are applied at once: r is the least over T's links of
    residual // (number of T's paths on the link), capped by the gap to
    the next demand level and by T's cap headroom; when r is 0 only T's
    first commodity ships a key.  The result is the same as key by key:
    the set of links with residual >= 1 only shrinks, so a commodity's
    lexicographically smallest min-hop path stays its choice while all of
    its links keep residual >= 1 (and a commodity without a path never
    gets one back); the residual term keeps every link of every path at
    >= 1 up to its last use in round r; the gap keeps every other
    commodity above T's level, so none of them is picked; and the index
    order within a round is the order of the lowest-(demand, index) pick.
    """
    caps = [commodity.demand_bits for commodity in commodities]

    def links_into_usable_nodes(i: int) -> Callable[[str, str], bool]:
        nodes = set(_usable_nodes(graph, commodities[i].pair, gs_relay))
        return lambda u, w: w in nodes and residual[canonical_pair(u, w)] >= 1

    active = [i for i in indices if caps[i] is None or demands[i] < caps[i]]
    usable = {i: links_into_usable_nodes(i) for i in active}
    while active:
        level = min(demands[i] for i in active)
        tied = [i for i in active if demands[i] == level]
        paths: dict[int, list[str]] = {}
        for i in tied:
            path = _min_hop_path(graph, usable[i], *commodities[i].pair)
            if path is None:
                active.remove(i)
            else:
                paths[i] = path
        if not paths:
            continue
        load: dict[tuple[str, str], int] = {}
        for path in paths.values():
            for a, b in zip(path, path[1:]):
                pair = canonical_pair(a, b)
                load[pair] = load.get(pair, 0) + 1
        rounds = min(residual[pair] // n for pair, n in load.items())
        above = [demands[j] for j in active if demands[j] > level]
        if above:
            rounds = min(rounds, min(above) - level)
        for i in paths:
            if caps[i] is not None:
                rounds = min(rounds, caps[i] - level)
        if rounds == 0:  # a link holds fewer keys than T's paths on it
            first = min(paths)
            paths = {first: paths[first]}
            rounds = 1
        for i, path in paths.items():
            demands[i] += rounds
            for a, b in zip(path, path[1:]):
                flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + rounds
                residual[canonical_pair(a, b)] -= rounds
            if caps[i] is not None and demands[i] >= caps[i]:
                active.remove(i)


def greedy_round(
    graph: QkdGraph,
    fractional: FlowSolution,
    *,
    gs_relay: bool,
) -> FlowSolution:
    """Round a fractional flow to integers and greedily re-grow demands.

    Stage 1 floors a path decomposition of every commodity (flooring whole
    paths keeps conservation intact) and subtracts the integral flows from
    the pools.  Stage 2 is the progressive filling of :func:`_fill` over all
    commodities, each capped by its ``demand_bits`` (the requested amount
    in fixed-demand routing; max-min commodities have none).  ``gs_relay``
    must be the value ``fractional`` was solved with.
    """
    if fractional.status is not LpStatus.OPTIMAL:
        return fractional
    commodities = fractional.commodities
    flows, demands, residual = _floor_paths(graph, fractional)
    _fill(graph, commodities, range(len(commodities)), flows, demands, residual, gs_relay)
    return FlowSolution(
        kind=fractional.kind,
        status=LpStatus.OPTIMAL,
        commodities=commodities,
        flows={key: value for key, value in flows.items() if value > 0},
        demands=tuple(float(d) for d in demands),
    )


# --- planners ----------------------------------------------------------------

def route_mmd(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    *,
    gs_relay: bool,
) -> FlowSolution:
    """Maximize the minimum fulfilled demand over commodities without ``demand_bits``.

    Give one commodity per ground-station pair to plan (:func:`gs_pairs`
    lists every pair); solves the max-min LP, then rounds greedily.
    """
    fractional = solve_fractional(graph, commodities, "mmd", gs_relay=gs_relay)
    return greedy_round(graph, fractional, gs_relay=gs_relay)


def route_mr(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    *,
    gs_relay: bool,
) -> FlowSolution:
    """Fulfill fixed requests with the least total key consumption.

    Returns a solution with Infeasible status (and no flows) when the
    demands exceed what the pools can carry; otherwise rounds greedily,
    topping commodities back up to at most their requested amount.
    """
    fractional = solve_fractional(graph, commodities, "mr", gs_relay=gs_relay)
    return greedy_round(graph, fractional, gs_relay=gs_relay)


def route_sequential_dijkstra(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    *,
    gs_relay: bool,
) -> FlowSolution:
    """Serve fixed requests one at a time over min-hop paths (the baseline).

    Each request in turn runs rounding stage 2 (:func:`_fill`) alone, on
    the pools earlier requests left: it pushes its residual path's
    bottleneck, capped by the remaining demand, until the demand is met or
    no path is left.  So the outcome depends on the request order.
    """
    commodities = tuple(commodities)
    _check_commodities(graph, commodities, "dijkstra")
    residual = {link.endpoints: link.pool_bits for link in graph.links}
    flows: dict[FlowKey, int] = {}
    demands = [0] * len(commodities)
    for i in range(len(commodities)):
        _fill(graph, commodities, [i], flows, demands, residual, gs_relay)
    return FlowSolution(
        kind="dijkstra",
        status=LpStatus.OPTIMAL,
        commodities=commodities,
        flows=flows,
        demands=tuple(float(d) for d in demands),
    )


# --- verification ------------------------------------------------------------

def verify_solution(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    solution: FlowSolution,
    *,
    gs_relay: bool,
) -> tuple[str, ...]:
    """Independently re-check capacity, nonnegativity, conservation and limits.

    Walks the raw flow map without reusing any LP machinery and returns
    the violation lines, one per violating link or (node, commodity)
    entry and none when the plan is valid.  With the required
    ``gs_relay=False`` any positive flow touching a ground station other
    than the commodity's endpoints is a violation, reported once per
    commodity and station; a commodity with ``demand_bits`` set may not be
    delivered more than that, and in an ``mr`` plan not less either (the
    ``dijkstra`` baseline may fall short by design).  Flows of a commodity
    index outside ``commodities`` are reported once per index.  The plan
    must carry ``commodities`` themselves, in order, and give one finite,
    nonnegative demand per commodity, and every flow must be finite.  An
    integral plan, as the CLI reports, is checked with no slack, since
    float sums of whole numbers up to 2**53 are exact; a fractional one
    within a relative _VERIFY_TOL.
    """
    commodities, demands = tuple(commodities), solution.demands
    tol = 0.0 if solution.integral else _VERIFY_TOL
    violations: list[str] = []
    if tuple(solution.commodities) != commodities:
        violations.append("the plan's commodities differ from the requested ones")
    if len(demands) != len(commodities):
        violations.append(f"demand count {len(demands)} != commodity count {len(commodities)}")
    transits: set[tuple[int, str]] = set()  # (commodity, foreign ground station)
    unknown: set[int] = set()  # commodity indices that name no commodity

    used: dict[tuple[str, str], float] = {link.endpoints: 0.0 for link in graph.links}
    # Each commodity's net outflow per node, counting flows on links that do
    # not exist as long as both of their ends are nodes.
    net = [{node.id: 0.0 for node in graph.nodes} for _ in commodities]
    for (i, (a, b)), value in solution.flows.items():
        if not 0 <= i < len(commodities):
            if i not in unknown:
                unknown.add(i)
                violations.append(f"flow references unknown commodity index {i}")
            continue
        if not math.isfinite(value):
            violations.append(f"non-finite flow {value} on {a}->{b} (commodity {i})")
            continue
        if a in net[i] and b in net[i]:
            net[i][a] += value
            net[i][b] -= value
        pair = canonical_pair(a, b)
        if pair not in used:
            violations.append(f"flow on nonexistent link {a}-{b} (commodity {i})")
            continue
        if value < -tol:
            violations.append(f"negative flow {value} on {a}->{b} (commodity {i})")
        used[pair] += value
        commodity = commodities[i]
        if not gs_relay and value > tol:
            for end in (a, b):
                if end in commodity.pair or (i, end) in transits:
                    continue
                if graph.node(end).kind == NodeKind.GROUND_STATION:
                    transits.add((i, end))
                    violations.append(
                        f"commodity {i} ({commodity.source}->{commodity.sink}) "
                        f"transits ground station {end}"
                    )

    for link in graph.links:
        total = used[link.endpoints]
        if total > link.pool_bits + tol * max(1.0, link.pool_bits):
            violations.append(
                f"capacity exceeded on link {link.a}-{link.b}: "
                f"{total} used > {link.pool_bits} pooled"
            )

    for i, commodity in enumerate(commodities):
        demand = demands[i] if i < len(demands) else 0.0
        if not (math.isfinite(demand) and demand >= 0):
            violations.append(f"commodity {i} demand {demand} is not a finite number >= 0")
        for node in graph.nodes:
            expected = 0.0
            if node.id == commodity.source:
                expected = demand
            elif node.id == commodity.sink:
                expected = -demand
            if abs(net[i][node.id] - expected) > tol * max(1.0, abs(demand)):
                violations.append(
                    f"conservation violated at node {node.id} for commodity {i} "
                    f"({commodity.source}->{commodity.sink}): net {net[i][node.id]}, "
                    f"expected {expected}"
                )
        requested = commodity.demand_bits
        if requested is not None and demand > requested + tol * max(1.0, requested):
            violations.append(
                f"commodity {i} ({commodity.source}->{commodity.sink}) delivers "
                f"{demand:g} > requested {requested}"
            )
        if solution.kind == "mr" and requested is not None and demand < requested:
            violations.append(
                f"commodity {i} ({commodity.source}->{commodity.sink}) delivers "
                f"{demand:.0f} < requested {requested}"
            )

    return tuple(violations)


# --- CSV export ------------------------------------------------------

def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def solution_to_csv(solution: FlowSolution) -> str:
    """Serialize a solution to CSV: header, per-edge flows, per-pair summary.

    Three blank-line-separated sections: (kind, status, objective), the
    flow rows (commodity_src, commodity_dst, edge_from, edge_to, bits)
    grouped in commodity order, and the summary rows
    (pair, fulfilled_demand, consumed, consumption_rate).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "status", "objective"])
    writer.writerow(
        [
            solution.kind,
            solution.status.value,
            "" if solution.objective is None else _format_number(solution.objective),
        ]
    )
    writer.writerow([])
    writer.writerow(["commodity_src", "commodity_dst", "edge_from", "edge_to", "bits"])
    by_commodity = _flows_by_commodity(solution.flows)
    for i, commodity in enumerate(solution.commodities):
        mine = by_commodity.get(i, {})
        for edge in sorted(mine):
            writer.writerow(
                [commodity.source, commodity.sink, edge[0], edge[1], _format_number(mine[edge])]
            )
    writer.writerow([])
    writer.writerow(["pair", "fulfilled_demand", "consumed", "consumption_rate"])
    for commodity, (delivered, consumed, rate) in zip(solution.commodities, solution.pair_totals()):
        writer.writerow(
            [
                f"{commodity.source}->{commodity.sink}",
                _format_number(delivered),
                _format_number(consumed),
                repr(rate),
            ]
        )
    return buffer.getvalue()
