"""Multi-commodity key-flow routing over a QkdGraph.

Encodes the key-exchange requests as a multi-commodity flow LP over the
link key pools and provides three planners:

* :func:`route_mmd` maximizes the minimum fulfilled demand across all
  ground-station pairs (via a dummy variable t with rows t <= d_i),
* :func:`route_mr` minimizes total key consumption at fixed demands,
* :func:`route_sequential_dijkstra` is the order-dependent baseline that
  serves requests one at a time over min-hop paths with residual pools.

Fractional LP solutions are made integral by :func:`greedy_round`: floor a
path decomposition of each commodity's flow, then repeatedly give one more
key to the commodity with the lowest fulfilled demand along the residual
path that consumes the fewest pool bits, until no commodity can grow.

Every undirected link contributes two directed flow variables to each
commodity that may use both of its ends (with ``gs_relay`` off, ground
stations other than the commodity's endpoints are off limits); a link's
single pool caps the sum of both directions over all commodities, because
the shared secret bits on a link are usable either way.  All tie-breaking
is deterministic (commodity index, then lexicographic node ids), so
identical inputs give identical plans.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .lp import LinearProgram, LpSolution, LpStatus, solve
from .netmodel import NodeKind, QkdGraph

__all__ = [
    "Commodity",
    "FlowSolution",
    "VerificationReport",
    "gs_pairs",
    "build_lp",
    "solve_fractional",
    "greedy_round",
    "route_mmd",
    "route_mr",
    "route_sequential_dijkstra",
    "verify_solution",
    "solution_to_csv",
    "solution_from_csv",
]

_FLOW_EPS = 1e-9
_FLOOR_EPS = 1e-6

DirectedEdge = tuple[str, str]
FlowKey = tuple[int, DirectedEdge]


@dataclass(frozen=True)
class Commodity:
    """One key-exchange request; demand None means variable (max-min)."""

    source: str
    sink: str
    demand_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise ValueError(f"commodity endpoints must differ, got {self.source!r} twice")
        if self.demand_bits is not None and self.demand_bits < 0:
            raise ValueError(f"demand must be >= 0, got {self.demand_bits}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.sink)


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Per-commodity directed key flows plus the fulfilled demands."""

    kind: str  # "mmd" | "mr" | "dijkstra"
    status: LpStatus
    commodities: tuple[Commodity, ...]
    flows: dict[FlowKey, float]
    demands: tuple[float, ...]
    objective: Optional[float]

    @property
    def total_flow(self) -> float:
        return sum(self.flows.values())

    def consumed_for(self, index: int) -> float:
        return sum(v for (i, _), v in self.flows.items() if i == index)

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


def _check_commodities(graph: QkdGraph, commodities: Sequence[Commodity]) -> None:
    for i, commodity in enumerate(commodities):
        for node_id in commodity.pair:
            node = graph.node(node_id)  # raises KeyError for unknown nodes
            if node.kind != NodeKind.GROUND_STATION:
                raise ValueError(
                    f"commodity {i} endpoint {node_id!r} is a {node.kind.value}; "
                    "only ground stations exchange keys"
                )


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _transit_allowed(graph: QkdGraph, node_id: str, endpoints: set[str], gs_relay: bool) -> bool:
    if node_id in endpoints:
        return True
    if graph.node(node_id).kind != NodeKind.GROUND_STATION:
        return True
    return gs_relay


def build_lp(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    objective: str,
    edge_weights: Optional[dict[tuple[str, str], float]] = None,
    gs_relay: bool = True,
) -> tuple[LinearProgram, tuple[FlowKey, ...]]:
    """Encode the flow problem as a linear program.

    ``objective`` is ``"mmd"`` (maximize the minimum demand; demands are
    variables, cost (-1, 0, ..., 0) on the dummy t with rows t - d_i <= 0)
    or ``"mr"`` (minimize total flow at fixed demands; unit cost per flow
    variable unless ``edge_weights`` overrides a link's relative cost).

    Variables: t and d_1..d_k (max-min only), then the flow columns per
    commodity and per link, forward (from the link's lexicographically
    smaller endpoint) before reverse.  A commodity gets the two columns of
    a link only when it may use both ends; with ``gs_relay=False`` that
    excludes every link touching a ground station other than its own
    endpoints, so ground-station transit is never created.

    Constraints: one capacity row per link bounding the sum of both
    directions over all commodities by the pool, and flow conservation at
    every node per commodity; all variables are nonnegative.  Returns the
    program and the ``(commodity, directed edge)`` key of every flow
    column, in column order.
    """
    if objective not in ("mmd", "mr"):
        raise ValueError(f"objective must be 'mmd' or 'mr', got {objective!r}")
    commodities = tuple(commodities)
    _check_commodities(graph, commodities)
    if objective == "mmd" and any(c.demand_bits is not None for c in commodities):
        raise ValueError("max-min demand uses variable demands; do not fix demand_bits")
    if objective == "mr" and any(c.demand_bits is None for c in commodities):
        raise ValueError("min-resource needs a fixed demand on every commodity")
    k = len(commodities)
    if k == 0:
        return LinearProgram(objective=np.zeros(0)), ()
    link_row = {link.endpoints: j for j, link in enumerate(graph.links)}

    weights = {}
    if edge_weights:
        for pair, weight in edge_weights.items():
            a, b = sorted(pair)
            if weight < 0:
                raise ValueError(f"edge weight for {a}-{b} must be >= 0, got {weight}")
            if (a, b) not in link_row:
                raise KeyError(f"edge weight given for unknown link {a}-{b}")
            weights[(a, b)] = float(weight)

    columns: list[FlowKey] = []
    for i, commodity in enumerate(commodities):
        endpoints = set(commodity.pair)
        for a, b in link_row:
            if all(_transit_allowed(graph, v, endpoints, gs_relay) for v in (a, b)):
                columns += [(i, (a, b)), (i, (b, a))]
    offset = 1 + k if objective == "mmd" else 0
    n = offset + len(columns)

    num_nodes = len(graph.nodes)
    node_order = {node.id: pos for pos, node in enumerate(graph.nodes)}
    cost = np.zeros(n)
    a_ub = np.zeros((len(link_row) + (k if objective == "mmd" else 0), n))
    b_ub = np.zeros(a_ub.shape[0])
    a_eq = np.zeros((k * num_nodes, n))
    b_eq = np.zeros(k * num_nodes)
    for col, (i, (u, v)) in enumerate(columns, start=offset):
        pair = _pair_key(u, v)
        if objective == "mr":
            cost[col] = weights.get(pair, 1.0)
        a_ub[link_row[pair], col] = 1.0
        a_eq[i * num_nodes + node_order[u], col] += 1.0  # flow out of u
        a_eq[i * num_nodes + node_order[v], col] -= 1.0  # flow into v
    b_ub[: len(link_row)] = [link.pool_bits for link in graph.links]
    for i, commodity in enumerate(commodities):
        source_row = i * num_nodes + node_order[commodity.source]
        sink_row = i * num_nodes + node_order[commodity.sink]
        if objective == "mmd":
            a_ub[len(link_row) + i, 0] = 1.0  # t - d_i <= 0
            a_ub[len(link_row) + i, 1 + i] = -1.0
            a_eq[source_row, 1 + i] = -1.0
            a_eq[sink_row, 1 + i] = 1.0
        else:
            b_eq[source_row] = float(commodity.demand_bits)
            b_eq[sink_row] = -float(commodity.demand_bits)
    if objective == "mmd":
        cost[0] = -1.0

    lp = LinearProgram(objective=cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return lp, tuple(columns)


def _decode(
    objective: str,
    commodities: tuple[Commodity, ...],
    columns: tuple[FlowKey, ...],
    solution: LpSolution,
) -> FlowSolution:
    if solution.status is not LpStatus.OPTIMAL:
        return FlowSolution(
            kind=objective,
            status=solution.status,
            commodities=commodities,
            flows={},
            demands=tuple(0.0 for _ in commodities),
            objective=None,
        )
    x = solution.x
    flow_values = x[x.size - len(columns):]  # the flow columns come last
    flows = {key: float(v) for key, v in zip(columns, flow_values) if v > _FLOW_EPS}
    if objective == "mmd":
        demands = tuple(float(x[1 + i]) for i in range(len(commodities)))
        value = min(demands) if demands else 0.0
    else:
        demands = tuple(float(c.demand_bits) for c in commodities)
        value = float(solution.objective_value)
    return FlowSolution(
        kind=objective,
        status=LpStatus.OPTIMAL,
        commodities=commodities,
        flows=flows,
        demands=demands,
        objective=value,
    )


def solve_fractional(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    objective: str,
    edge_weights: Optional[dict[tuple[str, str], float]] = None,
    gs_relay: bool = True,
    lp_tol: Optional[float] = None,
) -> FlowSolution:
    """Solve the flow LP and decode it, without the integral rounding stage."""
    commodities = tuple(commodities)
    lp, columns = build_lp(graph, commodities, objective, edge_weights, gs_relay)
    lp_solution = solve(lp, tol=lp_tol) if lp_tol is not None else solve(lp)
    return _decode(objective, commodities, columns, lp_solution)


# --- residual-graph path search -------------------------------------------

def _shortest_residual_path(
    graph: QkdGraph,
    residual: dict[tuple[str, str], int],
    source: str,
    sink: str,
    gs_relay: bool,
) -> Optional[list[str]]:
    """Min-hop path from source to sink over links with residual pool >= 1.

    Deterministic: among equal-length paths the lexicographically smallest
    node sequence is returned.  Ground stations other than the endpoints
    are traversed only when ``gs_relay`` allows it.
    """
    endpoints = {source, sink}
    adjacency: dict[str, list[str]] = {}
    for (a, b), left in residual.items():
        if left >= 1:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)

    distance = {sink: 0}
    frontier = [sink]
    while frontier:
        next_frontier = []
        for v in frontier:
            if v != sink and not _transit_allowed(graph, v, endpoints, gs_relay):
                continue  # may terminate a path here but not extend through
            for w in adjacency.get(v, ()):
                if w not in distance:
                    distance[w] = distance[v] + 1
                    next_frontier.append(w)
        frontier = next_frontier
    if source not in distance:
        return None

    path = [source]
    current = source
    while current != sink:
        step = None
        for w in sorted(adjacency.get(current, ())):
            if distance.get(w, -1) != distance[current] - 1:
                continue
            if w != sink and not _transit_allowed(graph, w, endpoints, gs_relay):
                continue
            step = w
            break
        assert step is not None, "BFS distance labels admit a next hop"
        path.append(step)
        current = step
    return path


# --- greedy rounding --------------------------------------------------------

def _decompose_paths(
    flows: dict[DirectedEdge, float], source: str, sink: str
) -> list[tuple[list[str], float]]:
    """Split one commodity's edge flow into source->sink paths (cycles dropped)."""
    work = {edge: value for edge, value in flows.items() if value > _FLOW_EPS}
    paths = []
    while True:
        # BFS over the positive-flow digraph, deterministic neighbor order.
        parents = {source: None}
        frontier = [source]
        while frontier and sink not in parents:
            next_frontier = []
            for v in frontier:
                for (u, w), value in sorted(work.items()):
                    if u == v and w not in parents:
                        parents[w] = v
                        next_frontier.append(w)
            frontier = next_frontier
        if sink not in parents:
            return paths
        path = [sink]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        path.reverse()
        bottleneck = min(work[(path[i], path[i + 1])] for i in range(len(path) - 1))
        for i in range(len(path) - 1):
            edge = (path[i], path[i + 1])
            work[edge] -= bottleneck
            if work[edge] <= _FLOW_EPS:
                del work[edge]
        paths.append((path, bottleneck))


def greedy_round(
    graph: QkdGraph,
    fractional: FlowSolution,
    *,
    demand_caps: Optional[Sequence[Optional[int]]] = None,
    gs_relay: bool = True,
) -> FlowSolution:
    """Round a fractional flow to integers and greedily re-grow demands.

    Stage 1 floors a path decomposition of every commodity (flooring whole
    paths keeps conservation intact) and subtracts the integral flows from
    the pools.  Stage 2 repeatedly picks the commodity with the lowest
    fulfilled demand (ties by index) and ships one more key over the
    residual min-hop path, retiring the commodity when no path is left or
    its cap is reached.  ``demand_caps`` carries the requested amounts for
    fixed-demand routing; max-min routing passes no caps.

    Consecutive single-key augmentations that provably pick the same
    commodity and path are batched, which changes nothing in the outcome
    but keeps large pools fast.
    """
    if fractional.status is not LpStatus.OPTIMAL:
        return fractional
    commodities = fractional.commodities
    k = len(commodities)
    caps: list[Optional[int]] = list(demand_caps) if demand_caps is not None else [None] * k
    if len(caps) != k:
        raise ValueError(f"{len(caps)} caps for {k} commodities")

    flows: dict[FlowKey, int] = {}
    demands = [0] * k
    for i, commodity in enumerate(commodities):
        mine = {edge: v for (ci, edge), v in fractional.flows.items() if ci == i}
        for path, weight in _decompose_paths(mine, commodity.source, commodity.sink):
            whole = int(math.floor(weight + _FLOOR_EPS))
            if whole <= 0:
                continue
            demands[i] += whole
            for a, b in zip(path, path[1:]):
                flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + whole

    residual: dict[tuple[str, str], int] = {}
    for link in graph.links:
        used = sum(
            v for (ci, (a, b)), v in flows.items() if _pair_key(a, b) == link.endpoints
        )
        if used > link.pool_bits:  # pragma: no cover - flooring cannot overdraw
            raise ArithmeticError(f"rounding overdrew link {link.a}-{link.b}")
        residual[link.endpoints] = link.pool_bits - used

    active = [i for i in range(k) if caps[i] is None or demands[i] < caps[i]]
    while active:
        i = min(active, key=lambda idx: (demands[idx], idx))
        commodity = commodities[i]
        path = _shortest_residual_path(
            graph, residual, commodity.source, commodity.sink, gs_relay
        )
        if path is None:
            active.remove(i)
            continue
        bottleneck = min(residual[_pair_key(a, b)] for a, b in zip(path, path[1:]))
        push = bottleneck
        others = [(demands[j], j) for j in active if j != i]
        if others:
            other_demand, j = min(others)
            window = other_demand - demands[i] + (1 if i < j else 0)
            push = min(push, max(window, 1))
        if caps[i] is not None:
            push = min(push, caps[i] - demands[i])
        demands[i] += push
        for a, b in zip(path, path[1:]):
            flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + push
            residual[_pair_key(a, b)] -= push
        if caps[i] is not None and demands[i] >= caps[i]:
            active.remove(i)

    if fractional.kind == "mmd":
        objective = float(min(demands)) if demands else 0.0
    else:
        objective = float(sum(flows.values()))
    return FlowSolution(
        kind=fractional.kind,
        status=LpStatus.OPTIMAL,
        commodities=commodities,
        flows={key: value for key, value in flows.items() if value > 0},
        demands=tuple(float(d) for d in demands),
        objective=objective,
    )


# --- planners ----------------------------------------------------------------

def route_mmd(
    graph: QkdGraph,
    pairs: Optional[Iterable[tuple[str, str]]] = None,
    *,
    gs_relay: bool = True,
    lp_tol: Optional[float] = None,
) -> FlowSolution:
    """Maximize the minimum fulfilled demand over ground-station pairs.

    One variable-demand commodity per unordered pair (all pairs when
    ``pairs`` is omitted); solves the max-min LP, then rounds greedily.
    """
    if pairs is None:
        pairs = gs_pairs(graph)
    commodities = [Commodity(source=a, sink=b) for a, b in pairs]
    fractional = solve_fractional(
        graph, commodities, "mmd", gs_relay=gs_relay, lp_tol=lp_tol
    )
    return greedy_round(graph, fractional, gs_relay=gs_relay)


def route_mr(
    graph: QkdGraph,
    requests: Sequence[tuple[str, str, int]],
    edge_weights: Optional[dict[tuple[str, str], float]] = None,
    *,
    gs_relay: bool = True,
    lp_tol: Optional[float] = None,
) -> FlowSolution:
    """Fulfill fixed requests with the least total key consumption.

    Returns a solution with Infeasible status (and no flows) when the
    demands exceed what the pools can carry; otherwise rounds greedily,
    topping commodities back up to at most their requested amount.
    """
    commodities = [
        Commodity(source=src, sink=dst, demand_bits=int(demand))
        for src, dst, demand in requests
    ]
    fractional = solve_fractional(
        graph, commodities, "mr", edge_weights, gs_relay=gs_relay, lp_tol=lp_tol
    )
    if fractional.status is not LpStatus.OPTIMAL:
        return fractional
    caps = [c.demand_bits for c in commodities]
    return greedy_round(graph, fractional, demand_caps=caps, gs_relay=gs_relay)


def route_sequential_dijkstra(
    graph: QkdGraph,
    requests: Sequence[tuple[str, str, int]],
    *,
    gs_relay: bool = True,
) -> FlowSolution:
    """Serve requests one at a time over min-hop paths (the baseline).

    Each request repeatedly takes the lexicographically smallest min-hop
    path with positive residual pools and pushes its bottleneck, capped by
    the remaining demand, until the demand is met or the request is cut
    off.  Pools consumed by one request are gone before the next starts,
    so the outcome depends on the request order.
    """
    commodities = [
        Commodity(source=src, sink=dst, demand_bits=int(demand))
        for src, dst, demand in requests
    ]
    _check_commodities(graph, commodities)
    residual = {link.endpoints: link.pool_bits for link in graph.links}
    flows: dict[FlowKey, int] = {}
    fulfilled = []
    for i, commodity in enumerate(commodities):
        remaining = commodity.demand_bits
        while remaining > 0:
            path = _shortest_residual_path(
                graph, residual, commodity.source, commodity.sink, gs_relay
            )
            if path is None:
                break
            bottleneck = min(residual[_pair_key(a, b)] for a, b in zip(path, path[1:]))
            push = min(bottleneck, remaining)
            for a, b in zip(path, path[1:]):
                flows[(i, (a, b))] = flows.get((i, (a, b)), 0) + push
                residual[_pair_key(a, b)] -= push
            remaining -= push
        fulfilled.append(commodity.demand_bits - remaining)
    return FlowSolution(
        kind="dijkstra",
        status=LpStatus.OPTIMAL,
        commodities=tuple(commodities),
        flows=flows,
        demands=tuple(float(d) for d in fulfilled),
        objective=float(sum(fulfilled)),
    )


# --- verification ------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...]


def verify_solution(
    graph: QkdGraph,
    commodities: Sequence[Commodity],
    solution: FlowSolution,
    tol: float = 1e-6,
    *,
    gs_relay: bool = True,
) -> VerificationReport:
    """Independently re-check capacity, nonnegativity, conservation and limits.

    Walks the raw flow map without reusing any LP machinery and reports
    every violating link or (node, commodity) entry.  With
    ``gs_relay=False`` any positive flow touching a ground station other
    than the commodity's endpoints is a violation; a commodity with
    ``demand_bits`` set may not be delivered more than that.
    """
    commodities = tuple(commodities)
    violations: list[str] = []

    used: dict[tuple[str, str], float] = {link.endpoints: 0.0 for link in graph.links}
    for (i, (a, b)), value in solution.flows.items():
        if not 0 <= i < len(commodities):
            violations.append(f"flow references unknown commodity index {i}")
            continue
        pair = _pair_key(a, b)
        if pair not in used:
            violations.append(f"flow on nonexistent link {a}-{b} (commodity {i})")
            continue
        if value < -tol:
            violations.append(f"negative flow {value} on {a}->{b} (commodity {i})")
        used[pair] += value
        commodity = commodities[i]
        if not gs_relay and value > tol:
            for end in (a, b):
                if end not in commodity.pair and graph.node(end).kind == NodeKind.GROUND_STATION:
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
        net: dict[str, float] = {node.id: 0.0 for node in graph.nodes}
        for (ci, (a, b)), value in solution.flows.items():
            if ci != i or a not in net or b not in net:
                continue
            net[a] += value
            net[b] -= value
        demand = solution.demands[i] if i < len(solution.demands) else 0.0
        for node in graph.nodes:
            expected = 0.0
            if node.id == commodity.source:
                expected = demand
            elif node.id == commodity.sink:
                expected = -demand
            if abs(net[node.id] - expected) > tol * max(1.0, abs(demand)):
                violations.append(
                    f"conservation violated at node {node.id} for commodity {i} "
                    f"({commodity.source}->{commodity.sink}): net {net[node.id]}, "
                    f"expected {expected}"
                )
        requested = commodity.demand_bits
        if requested is not None and demand > requested + tol * max(1.0, requested):
            violations.append(
                f"commodity {i} ({commodity.source}->{commodity.sink}) delivers "
                f"{demand:g} > requested {requested}"
            )

    return VerificationReport(ok=not violations, violations=tuple(violations))


# --- CSV export / import ------------------------------------------------------

def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _parse_number(text: str) -> float:
    try:
        return int(text)
    except ValueError:
        return float(text)


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
    for i, commodity in enumerate(solution.commodities):
        rows = sorted(
            (edge for (ci, edge) in solution.flows if ci == i),
        )
        for edge in rows:
            writer.writerow(
                [
                    commodity.source,
                    commodity.sink,
                    edge[0],
                    edge[1],
                    _format_number(solution.flows[(i, edge)]),
                ]
            )
    writer.writerow([])
    writer.writerow(["pair", "fulfilled_demand", "consumed", "consumption_rate"])
    for i, commodity in enumerate(solution.commodities):
        delivered = solution.demands[i]
        consumed = solution.consumed_for(i)
        rate = consumed / delivered if delivered > 0 else 0.0
        writer.writerow(
            [
                f"{commodity.source}->{commodity.sink}",
                _format_number(delivered),
                _format_number(consumed),
                repr(rate),
            ]
        )
    return buffer.getvalue()


def solution_from_csv(text: str) -> FlowSolution:
    """Rebuild a FlowSolution from :func:`solution_to_csv` output."""
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
    for row in summary_rows[1:]:
        src, dst = row[0].split("->", 1)
        commodities.append(Commodity(source=src, sink=dst))
        demands.append(float(_parse_number(row[1])))

    if flow_rows[0] != ["commodity_src", "commodity_dst", "edge_from", "edge_to", "bits"]:
        raise ValueError("malformed flows section")
    # Rows are grouped per commodity with edges sorted, so a pair mismatch or
    # a non-increasing edge marks the start of the next commodity's block.
    flows: dict[FlowKey, float] = {}
    cursor = 0
    last_edge: Optional[DirectedEdge] = None
    for src, dst, edge_from, edge_to, bits in flow_rows[1:]:
        edge = (edge_from, edge_to)
        if (
            cursor >= len(commodities)
            or commodities[cursor].pair != (src, dst)
            or (last_edge is not None and edge <= last_edge)
        ):
            cursor += 1
            last_edge = None
            while cursor < len(commodities) and commodities[cursor].pair != (src, dst):
                cursor += 1
        if cursor >= len(commodities):
            raise ValueError(f"flow row for unknown commodity {src}->{dst}")
        flows[(cursor, edge)] = float(_parse_number(bits))
        last_edge = edge

    return FlowSolution(
        kind=kind,
        status=status,
        commodities=tuple(commodities),
        flows=flows,
        demands=tuple(demands),
        objective=objective,
    )
