"""Independent plan checker (standard library only).

Re-checks one integral plan against the scenario document it was made
from, without any of the package's LP or routing code:

* the graph handed to the verifier has the document's nodes and links;
* the commodities are the ones the objective asks for;
* every flow is a nonnegative integer on an existing link;
* no link carries more than its pool, summed over both directions and
  all commodities;
* per commodity, net outflow is the delivered amount at the source, its
  negative at the sink and zero elsewhere;
* with ``gs_relay`` false, no flow touches a ground station other than
  the commodity's own endpoints (the transit ban);
* fixed-demand planners (``mr``, ``dijkstra``) deliver at most what was
  requested.

The plan arrives as duck-typed objects (``graph.nodes``/``graph.links``,
``solution.commodities``/``flows``/``demands``), so nothing here imports
the package.
"""
from __future__ import annotations

import math


def expected_commodities(doc: dict, objective: str) -> list[tuple[str, str, int | None]]:
    """(source, sink, requested bits or None) in the order the CLI builds them."""
    requests = doc.get("requests", [])
    if objective != "mmd":
        return [(r["src"], r["dst"], r["demand_bits"]) for r in requests]
    if not requests:
        stations = sorted(n["id"] for n in doc["nodes"] if n["kind"] == "gs")
        return [(a, b, None) for i, a in enumerate(stations) for b in stations[i + 1 :]]
    pairs: list[tuple[str, str]] = []
    for r in requests:
        pair = tuple(sorted((r["src"], r["dst"])))
        if pair not in pairs:
            pairs.append(pair)
    return [(a, b, None) for a, b in pairs]


def _is_whole(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and float(value).is_integer()


def check_plan(doc: dict, objective: str, graph, solution) -> list[str]:
    """Return every violation found; an empty list means the plan is valid."""
    problems: list[str] = []
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    if {n.id: n.kind.value for n in graph.nodes} != kinds:
        problems.append("graph nodes differ from the scenario document")
    doc_links = {tuple(sorted((l["a"], l["b"]))) for l in doc["links"]}
    pools = {}
    for link in graph.links:
        pair = tuple(sorted((link.a, link.b)))
        pools[pair] = link.pool_bits
        if not (_is_whole(link.pool_bits) and link.pool_bits >= 0):
            problems.append(f"link {pair} has pool {link.pool_bits!r}")
    if set(pools) != doc_links:
        problems.append("graph links differ from the scenario document")

    wanted = expected_commodities(doc, objective)
    got = [(c.source, c.sink, c.demand_bits) for c in solution.commodities]
    if objective == "mmd":
        got = [(s, t, None) for s, t, _ in got]
    if got != wanted:
        return problems + [f"commodities {got} differ from the requested {wanted}"]
    if len(solution.demands) != len(wanted):
        return problems + [f"{len(solution.demands)} demands for {len(wanted)} commodities"]

    used = dict.fromkeys(pools, 0)
    net = [dict.fromkeys(kinds, 0) for _ in wanted]
    for key, value in solution.flows.items():
        index, (a, b) = key
        pair = tuple(sorted((a, b)))
        if not (isinstance(index, int) and 0 <= index < len(wanted)) or pair not in used:
            problems.append(f"flow {key} names no commodity or no link")
            continue
        if not _is_whole(value) or value < 0:
            problems.append(f"flow {key} is {value!r}, not a nonnegative integer")
            continue
        used[pair] += int(value)
        net[index][a] += int(value)
        net[index][b] -= int(value)
        source, sink, _ = wanted[index]
        if not doc.get("options", {}).get("gs_relay", True) and value > 0:
            for end in (a, b):
                if kinds[end] == "gs" and end not in (source, sink):
                    problems.append(
                        f"commodity {index} ({source}->{sink}) transits ground station {end}"
                    )

    for pair, total in used.items():
        if total > pools[pair]:
            problems.append(f"link {pair} carries {total} bits > pool {pools[pair]}")

    for index, (source, sink, requested) in enumerate(wanted):
        delivered = solution.demands[index]
        if not _is_whole(delivered) or delivered < 0:
            problems.append(f"commodity {index} delivers {delivered!r}")
            continue
        for node, value in net[index].items():
            expected = delivered if node == source else -delivered if node == sink else 0
            if value != expected:
                problems.append(
                    f"commodity {index} ({source}->{sink}) net outflow {value} "
                    f"at {node}, expected {expected:g}"
                )
        if requested is not None and delivered > requested:
            problems.append(
                f"commodity {index} ({source}->{sink}) delivers {delivered:g} "
                f"> requested {requested}"
            )
    return problems
