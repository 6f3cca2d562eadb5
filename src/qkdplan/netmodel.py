"""Network snapshot model: typed nodes, links with secret-key pools.

A :class:`QkdGraph` is an immutable snapshot of the QKD network for one
time window.  Ground stations exchange keys; GEO/LEO satellites only
relay.  Every undirected link carries a secret-key generation rate and a
key pool that grows while the network is up and is consumed by relaying.
Pools are undirected: the shared secret on a link is symmetric between
its two holders, so flow in either direction draws from the same pool.

Also provides the scenario JSON loader used by the CLI.
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
from typing import NamedTuple, Union

from . import linkbudget

__all__ = [
    "NodeKind",
    "Node",
    "Link",
    "QkdGraph",
    "Request",
    "Scenario",
    "ScenarioError",
    "canonical_pair",
    "accumulate_pools",
    "load_scenario",
]

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_\-]+$")


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
                raise ValueError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        seen = set()
        # Links come sorted by endpoints, so every neighbour list is built sorted.
        neighbours: dict[str, list[str]] = {node_id: [] for node_id in by_id}
        for link in links:
            for end in link.endpoints:
                if end not in by_id:
                    raise ValueError(f"link {link.endpoints} references unknown node {end!r}")
            neighbours[link.a].append(link.b)
            neighbours[link.b].append(link.a)
            if link.endpoints in seen:
                raise ValueError(f"duplicate link between {link.a!r} and {link.b!r}")
            seen.add(link.endpoints)
            if (
                by_id[link.a].kind == NodeKind.GROUND_STATION
                and by_id[link.b].kind == NodeKind.GROUND_STATION
            ):
                raise ValueError(
                    f"ground stations {link.a!r} and {link.b!r} cannot share a direct link"
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
    """Grow every pool by floor(rate * duration); returns a new snapshot."""
    if duration_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    new_links = []
    for link in graph.links:
        grown = link.rate_bps * duration_s
        if not math.isfinite(grown):
            raise ValueError(f"link {link.a}-{link.b}: a pool of {grown} bits is not finite")
        new_links.append(replace(link, pool_bits=link.pool_bits + math.floor(grown)))
    # Same nodes and endpoints, checked and warned about when graph was built.
    snapshot = copy.copy(graph)
    object.__setattr__(snapshot, "links", tuple(new_links))
    return snapshot


class Request(NamedTuple):
    src: str
    dst: str
    demand_bits: int


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: graph (pools empty), window length, requests, options."""

    graph: QkdGraph
    window_seconds: float
    requests: tuple[Request, ...]
    gs_relay: bool


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ScenarioError(f"{where}: {message}")


def _is_number(value) -> bool:
    # JSON true/false load as bools, and Infinity and NaN as floats: neither counts.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _check_id(value, where: str) -> str:
    _require(isinstance(value, str), where, f"expected a string id, got {value!r}")
    _require(bool(_ID_PATTERN.match(value)), where, f"id {value!r} must match [A-Za-z0-9_-]+")
    return value


def _parse_link(entry: dict, where: str) -> Link:
    _require(isinstance(entry, dict), where, "expected an object")
    for field in ("a", "b"):
        _require(field in entry, where, f"missing field {field!r}")
    a = _check_id(entry["a"], f"{where}.a")
    b = _check_id(entry["b"], f"{where}.b")
    _require(a != b, where, f"endpoints must be distinct, got {a!r} twice")
    known = {"a", "b", "rate_bps", "preset", "distance_m"}
    extra = set(entry) - known
    _require(not extra, where, f"unknown fields {sorted(extra)}")
    if "rate_bps" in entry:
        _require(
            "preset" not in entry and "distance_m" not in entry,
            where,
            "give either rate_bps or preset+distance_m, not both",
        )
        rate = entry["rate_bps"]
        _require(
            _is_number(rate) and rate >= 0, f"{where}.rate_bps",
            f"expected a finite number >= 0, got {rate!r}",
        )
        return Link(a=a, b=b, rate_bps=float(rate))
    _require("preset" in entry, where, "link needs rate_bps or preset+distance_m")
    preset = entry["preset"]
    _require(
        isinstance(preset, str) and preset in linkbudget.PRESETS,
        f"{where}.preset",
        f"unknown preset {preset!r}; known: {sorted(linkbudget.PRESETS)}",
    )
    distance = entry.get("distance_m")
    _require(
        distance is None or (_is_number(distance) and distance > 0),
        f"{where}.distance_m",
        f"expected a finite positive number, got {distance!r}",
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
    else:
        raw = source
    _require(isinstance(raw, dict), "scenario", "top level must be an object")
    extra = set(raw) - {"nodes", "links", "elapsed_seconds", "requests", "options"}
    _require(not extra, "scenario", f"unknown fields {sorted(extra)}")
    _require("nodes" in raw and isinstance(raw["nodes"], list), "scenario.nodes", "expected a list")
    _require("links" in raw and isinstance(raw["links"], list), "scenario.links", "expected a list")

    kinds = {k.value: k for k in NodeKind}
    nodes = []
    for i, entry in enumerate(raw["nodes"]):
        where = f"nodes[{i}]"
        _require(isinstance(entry, dict), where, "expected an object")
        _require(set(entry) == {"id", "kind"}, where, "expected exactly the fields id, kind")
        node_id = _check_id(entry["id"], f"{where}.id")
        _require(
            isinstance(entry["kind"], str) and entry["kind"] in kinds, f"{where}.kind",
            f"expected one of {sorted(kinds)}, got {entry['kind']!r}",
        )
        nodes.append(Node(id=node_id, kind=kinds[entry["kind"]]))

    links = [
        _parse_link(entry, f"links[{i}]") for i, entry in enumerate(raw["links"])
    ]

    elapsed = raw.get("elapsed_seconds", 0)
    _require(
        _is_number(elapsed) and elapsed >= 0,
        "scenario.elapsed_seconds",
        f"expected a finite number >= 0, got {elapsed!r}",
    )

    listed = raw.get("requests", [])
    _require(isinstance(listed, list), "scenario.requests", "expected a list")
    requests = []
    for i, entry in enumerate(listed):
        where = f"requests[{i}]"
        _require(isinstance(entry, dict), where, "expected an object")
        _require(
            set(entry) == {"src", "dst", "demand_bits"},
            where,
            "expected exactly the fields src, dst, demand_bits",
        )
        src = _check_id(entry["src"], f"{where}.src")
        dst = _check_id(entry["dst"], f"{where}.dst")
        demand = entry["demand_bits"]
        _require(
            isinstance(demand, int) and _is_number(demand) and demand >= 0,
            f"{where}.demand_bits",
            f"expected an integer from 0 to {sys.float_info.max:.3g}, got {demand!r}",
        )
        requests.append(Request(src=src, dst=dst, demand_bits=demand))

    options = raw.get("options", {})
    _require(isinstance(options, dict), "scenario.options", "expected an object")
    extra = set(options) - {"gs_relay"}
    _require(not extra, "scenario.options", f"unknown fields {sorted(extra)}")
    gs_relay = options.get("gs_relay", True)
    _require(isinstance(gs_relay, bool), "scenario.options.gs_relay", "expected a boolean")

    try:
        graph = QkdGraph(nodes=tuple(nodes), links=tuple(links))
    except ValueError as exc:
        raise ScenarioError(f"scenario graph: {exc}") from exc

    node_kinds = {n.id: n.kind for n in nodes}
    for i, req in enumerate(requests):
        where = f"requests[{i}]"
        for role, node_id in (("src", req.src), ("dst", req.dst)):
            _require(node_id in node_kinds, f"{where}.{role}", f"unknown node {node_id!r}")
            _require(
                node_kinds[node_id] == NodeKind.GROUND_STATION,
                f"{where}.{role}",
                f"node {node_id!r} is not a ground station",
            )
        _require(req.src != req.dst, where, "src and dst must differ")

    return Scenario(
        graph=graph,
        window_seconds=float(elapsed),
        requests=tuple(requests),
        gs_relay=gs_relay,
    )
