"""Network snapshot model: typed nodes, links with secret-key pools.

A :class:`QkdGraph` is an immutable snapshot of the QKD network for one
time window.  Ground stations exchange keys; GEO/LEO satellites only
relay.  Every undirected link carries a secret-key generation rate and a
key pool that grows while the network is up and is consumed by relaying.
Pools are undirected: the shared secret on a link is symmetric between
its two holders, so flow in either direction draws from the same pool.

A :class:`Commodity` is one key-exchange request between two ground
stations, the one request type from a scenario file's ``requests`` to the
planners and the verifier.  Also provides the scenario JSON loader used by
the CLI.
"""
from __future__ import annotations

import copy
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from . import linkbudget

__all__ = [
    "NodeKind",
    "Node",
    "Link",
    "QkdGraph",
    "GraphError",
    "Commodity",
    "Scenario",
    "ScenarioError",
    "canonical_pair",
    "accumulate_pools",
    "load_scenario",
]

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_\-]+$")
# Every whole number up to 2**53 is exactly a float.  The planners carry
# pools, flows and demands as floats, so a larger request could be planned
# short, and pools totalling more could give a plan that is off by a bit.
_MAX_EXACT = 2**53


class ScenarioError(ValueError):
    """A scenario file violates the schema; the message names the field."""


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """The unordered pair {a, b} as a sorted tuple: the key of the link a-b."""
    return (a, b) if a <= b else (b, a)


class NodeKind(str, Enum):
    GROUND_STATION = "gs"
    GEO_SATELLITE = "geo"
    LEO_SATELLITE = "leo"


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind


@dataclass(frozen=True)
class Link:
    """Undirected link between two nodes; endpoints are kept sorted."""

    a: str
    b: str
    rate_bps: float
    pool_bits: int = 0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"link endpoints must be distinct, got {self.a!r} twice")
        first, second = canonical_pair(self.a, self.b)
        object.__setattr__(self, "a", first)
        object.__setattr__(self, "b", second)
        if not 0.0 <= self.rate_bps < math.inf:
            raise ValueError(f"link rate must be finite and >= 0, got {self.rate_bps}")
        if self.pool_bits < 0 or self.pool_bits != int(self.pool_bits):
            raise ValueError(f"pool must be a nonnegative integer bit count, got {self.pool_bits}")

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)


class GraphError(ValueError):
    """A QkdGraph fault; ``entry`` is the Node or Link that caused it."""

    def __init__(self, message: str, entry: Union[Node, Link]):
        super().__init__(message)
        self.entry = entry


@dataclass(frozen=True)
class QkdGraph:
    """Snapshot of the network: nodes and links."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        links = tuple(sorted(self.links, key=lambda l: l.endpoints))
        object.__setattr__(self, "links", links)
        by_id = {}
        for node in self.nodes:
            if node.id in by_id:
                raise GraphError(f"duplicate node id {node.id!r}", node)
            by_id[node.id] = node
        seen = set()
        # Links come sorted by endpoints, so every neighbour list is built sorted.
        neighbours: dict[str, list[str]] = {node_id: [] for node_id in by_id}
        for link in links:
            for end in link.endpoints:
                if end not in by_id:
                    raise GraphError(f"link {link.endpoints} references unknown node {end!r}", link)
            neighbours[link.a].append(link.b)
            neighbours[link.b].append(link.a)
            if link.endpoints in seen:
                raise GraphError(f"duplicate link between {link.a!r} and {link.b!r}", link)
            seen.add(link.endpoints)
            if (
                by_id[link.a].kind == NodeKind.GROUND_STATION
                and by_id[link.b].kind == NodeKind.GROUND_STATION
            ):
                raise GraphError(
                    f"ground stations {link.a!r} and {link.b!r} cannot share a direct link", link
                )
        object.__setattr__(self, "_nodes_by_id", by_id)
        object.__setattr__(self, "_neighbours", neighbours)
        self._warn_degree_limits()

    def _warn_degree_limits(self) -> None:
        # Transceiver counts: a GS carries one GEO- and two LEO-capable
        # terminals; a LEO carries two inter-satellite and two ground links.
        counts: dict[str, dict[NodeKind, int]] = {n.id: {} for n in self.nodes}
        for link in self.links:
            ka = self.node(link.a).kind
            kb = self.node(link.b).kind
            counts[link.a][kb] = counts[link.a].get(kb, 0) + 1
            counts[link.b][ka] = counts[link.b].get(ka, 0) + 1
        messages = []
        for node in self.nodes:
            c = counts[node.id]
            if node.kind == NodeKind.GROUND_STATION:
                if c.get(NodeKind.GEO_SATELLITE, 0) > 1:
                    messages.append(
                        f"ground station {node.id!r} has {c[NodeKind.GEO_SATELLITE]} GEO links "
                        "(1 transceiver expected)"
                    )
                if c.get(NodeKind.LEO_SATELLITE, 0) > 2:
                    messages.append(
                        f"ground station {node.id!r} has {c[NodeKind.LEO_SATELLITE]} LEO links "
                        "(2 transceivers expected)"
                    )
            elif node.kind == NodeKind.LEO_SATELLITE:
                if c.get(NodeKind.LEO_SATELLITE, 0) + c.get(NodeKind.GEO_SATELLITE, 0) > 2:
                    messages.append(f"LEO {node.id!r} has more than 2 inter-satellite links")
                if c.get(NodeKind.GROUND_STATION, 0) > 2:
                    messages.append(f"LEO {node.id!r} has more than 2 ground links")
        for message in messages:
            # Skip this method, __post_init__ and the generated __init__ so
            # the warning names the code that built the graph.
            warnings.warn(message, stacklevel=4)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def ground_stations(self) -> tuple[str, ...]:
        return tuple(
            sorted(n.id for n in self.nodes if n.kind == NodeKind.GROUND_STATION)
        )


def accumulate_pools(graph: QkdGraph, duration_s: float) -> QkdGraph:
    """Grow every pool by floor(rate * duration); returns a new snapshot.

    Raises ValueError when a pool is not finite or the pools total more
    than 2**53 bits, beyond which plans are not exact.
    """
    if duration_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    new_links = []
    for link in graph.links:
        grown = link.rate_bps * duration_s
        if not math.isfinite(grown):
            raise ValueError(f"link {link.a}-{link.b}: a pool of {grown} bits is not finite")
        new_links.append(replace(link, pool_bits=link.pool_bits + math.floor(grown)))
    total = sum(link.pool_bits for link in new_links)
    if total > _MAX_EXACT:
        raise ValueError(
            f"the key pools total {total} bits, more than 2**53 = {_MAX_EXACT}, "
            "beyond which plans are not exact"
        )
    # Same nodes and endpoints, checked and warned about when graph was built.
    snapshot = copy.copy(graph)
    object.__setattr__(snapshot, "links", tuple(new_links))
    return snapshot


@dataclass(frozen=True)
class Commodity:
    """One key-exchange request; demand None means variable (max-min), else whole bits."""

    source: str
    sink: str
    demand_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise ValueError(f"commodity endpoints must differ, got {self.source!r} twice")
        demand = self.demand_bits
        whole = isinstance(demand, int) and not isinstance(demand, bool)
        if demand is not None and not (whole and demand >= 0):
            raise ValueError(f"demand must be an integer >= 0, got {demand!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.sink)

    # The scenario file's names for the endpoints, which
    # benchmark/test_bench.py reads from Scenario.requests.
    src = property(lambda self: self.source)
    dst = property(lambda self: self.sink)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: graph (pools empty), window length, requests, options.

    Each request is a :class:`Commodity` with its ``demand_bits`` set.
    """

    graph: QkdGraph
    window_seconds: float
    requests: tuple[Commodity, ...]
    gs_relay: bool


def _is_number(value) -> bool:
    # JSON true/false load as bools, and Infinity and NaN as floats: neither counts.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


# Each check below formats its message only when it fails: a load runs
# every check on every entry, and a passing one must not pay for sorting
# choices or repr'ing values.
def _check_id(value, where: str, field: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where}.{field}: expected a string id, got {value!r}")
    if not _ID_PATTERN.match(value):
        raise ScenarioError(f"{where}.{field}: id {value!r} must match [A-Za-z0-9_-]+")
    return value


def _parse_link(entry: dict, where: str) -> Link:
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: expected an object")
    for field in ("a", "b"):
        if field not in entry:
            raise ScenarioError(f"{where}: missing field {field!r}")
    a = _check_id(entry["a"], where, "a")
    b = _check_id(entry["b"], where, "b")
    if a == b:
        raise ScenarioError(f"{where}: endpoints must be distinct, got {a!r} twice")
    extra = set(entry) - {"a", "b", "rate_bps", "preset", "distance_m"}
    if extra:
        raise ScenarioError(f"{where}: unknown fields {sorted(extra)}")
    if "rate_bps" in entry:
        if "preset" in entry or "distance_m" in entry:
            raise ScenarioError(f"{where}: give either rate_bps or preset+distance_m, not both")
        rate = entry["rate_bps"]
        if not (_is_number(rate) and rate >= 0):
            raise ScenarioError(f"{where}.rate_bps: expected a finite number >= 0, got {rate!r}")
        return Link(a=a, b=b, rate_bps=float(rate))
    if "preset" not in entry:
        raise ScenarioError(f"{where}: link needs rate_bps or preset+distance_m")
    preset = entry["preset"]
    if not (isinstance(preset, str) and preset in linkbudget.PRESETS):
        raise ScenarioError(
            f"{where}.preset: unknown preset {preset!r}; known: {sorted(linkbudget.PRESETS)}"
        )
    distance = entry.get("distance_m")
    if not (distance is None or (_is_number(distance) and distance > 0)):
        raise ScenarioError(
            f"{where}.distance_m: expected a finite positive number, got {distance!r}"
        )
    overrides = {} if distance is None else {"distance_m": distance}
    params = linkbudget.preset_link(preset, **overrides)
    try:
        rate = linkbudget.link_performance(params).rate_bps
    except linkbudget.NearFieldError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    except ArithmeticError as exc:
        raise ScenarioError(f"{where}: rate model out of numeric range: {exc}") from exc
    return Link(a=a, b=b, rate_bps=rate)


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """Load and validate a scenario from a JSON file or an equivalent dict.

    Schema::

        {"nodes": [{"id": ..., "kind": "gs"|"geo"|"leo"}, ...],
         "links": [{"a":..., "b":..., "rate_bps":...}
                   | {"a":..., "b":..., "preset":..., "distance_m":...}, ...],
         "elapsed_seconds": N,
         "requests": [{"src":..., "dst":..., "demand_bits":...}, ...],
         "options": {"gs_relay": true|false}}

    Preset links get their rate from the link budget and the rate model
    with the default protocol.
    Raises :class:`ScenarioError` naming the offending field.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, a huge integer
            raise ScenarioError(f"{path}: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: top level must be an object")
    extra = set(raw) - {"nodes", "links", "elapsed_seconds", "requests", "options"}
    if extra:
        raise ScenarioError(f"scenario: unknown fields {sorted(extra)}")
    for field in ("nodes", "links"):
        if not (field in raw and isinstance(raw[field], list)):
            raise ScenarioError(f"scenario.{field}: expected a list")

    kinds = {k.value: k for k in NodeKind}
    nodes = []
    for i, entry in enumerate(raw["nodes"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"nodes[{i}]: expected an object")
        if set(entry) != {"id", "kind"}:
            raise ScenarioError(f"nodes[{i}]: expected exactly the fields id, kind")
        node_id = _check_id(entry["id"], f"nodes[{i}]", "id")
        kind = entry["kind"]
        if not (isinstance(kind, str) and kind in kinds):
            raise ScenarioError(f"nodes[{i}].kind: expected one of {sorted(kinds)}, got {kind!r}")
        nodes.append(Node(id=node_id, kind=kinds[kind]))

    links = [
        _parse_link(entry, f"links[{i}]") for i, entry in enumerate(raw["links"])
    ]

    elapsed = raw.get("elapsed_seconds", 0)
    if not (_is_number(elapsed) and elapsed >= 0):
        raise ScenarioError(
            f"scenario.elapsed_seconds: expected a finite number >= 0, got {elapsed!r}"
        )

    listed = raw.get("requests", [])
    if not isinstance(listed, list):
        raise ScenarioError("scenario.requests: expected a list")
    requests = []
    for i, entry in enumerate(listed):
        if not isinstance(entry, dict):
            raise ScenarioError(f"requests[{i}]: expected an object")
        if set(entry) != {"src", "dst", "demand_bits"}:
            raise ScenarioError(
                f"requests[{i}]: expected exactly the fields src, dst, demand_bits"
            )
        src = _check_id(entry["src"], f"requests[{i}]", "src")
        dst = _check_id(entry["dst"], f"requests[{i}]", "dst")
        demand = entry["demand_bits"]
        if not (isinstance(demand, int) and _is_number(demand) and 0 <= demand <= _MAX_EXACT):
            raise ScenarioError(
                f"requests[{i}].demand_bits: expected an integer from 0 to 2**53 = "
                f"{_MAX_EXACT}, got {demand!r}"
            )
        requests.append((src, dst, demand))

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError("scenario.options: expected an object")
    extra = set(options) - {"gs_relay"}
    if extra:
        raise ScenarioError(f"scenario.options: unknown fields {sorted(extra)}")
    gs_relay = options.get("gs_relay", True)
    if not isinstance(gs_relay, bool):
        raise ScenarioError("scenario.options.gs_relay: expected a boolean")

    try:
        graph = QkdGraph(nodes=tuple(nodes), links=tuple(links))
    except GraphError as exc:
        field, entries = ("nodes", nodes) if isinstance(exc.entry, Node) else ("links", links)
        i = next(i for i, entry in enumerate(entries) if entry is exc.entry)
        raise ScenarioError(f"{field}[{i}]: {exc}") from exc

    node_kinds = {n.id: n.kind for n in nodes}
    for i, (src, dst, _) in enumerate(requests):
        for role, node_id in (("src", src), ("dst", dst)):
            if node_id not in node_kinds:
                raise ScenarioError(f"requests[{i}].{role}: unknown node {node_id!r}")
            if node_kinds[node_id] != NodeKind.GROUND_STATION:
                raise ScenarioError(f"requests[{i}].{role}: node {node_id!r} is not a ground station")
        if src == dst:
            raise ScenarioError(f"requests[{i}]: src and dst must differ")

    return Scenario(
        graph=graph,
        window_seconds=float(elapsed),
        requests=tuple(Commodity(*request) for request in requests),
        gs_relay=gs_relay,
    )
