"""Seeded inputs of the benchmark workloads.

Each workload turns ``--seed`` into scenario documents and a list of
plans over them.  Generation uses only ``random.Random`` and the standard
library, so a change in the program cannot change its inputs; the digest
of the documents is recorded with the expected outputs, so a change in
generation shows as a mismatch.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Inputs repeat every SEED_SPACE seeds; expected/ records the exit codes
# and report digests of every plan of each of them.
SEED_SPACE = 32

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "qkdplan" / "scenarios"

# Preset link classes and the ranges their distances are drawn from (m).
DISTANCE_RANGE = {
    "leo-gs": (800e3, 1200e3),
    "geo-gs": (36000e3, 42000e3),
    "leo-leo": (3000e3, 4000e3),
}

SYNTH_INSTANCES = 32
SYNTH_WINDOW_S = 0.5
PASS_WINDOW_S = 10.0
PASS_REQUESTS = 12
PASS_DEMAND_BITS = (20, 80)
# A burst asks for more than a ground station's two LEO links can pool in
# the window (at most 2 x 10 s x 11.1 kbit/s at 800 km), so it is infeasible.
PASS_BURST_BITS = (300_000, 600_000)
PASS_BURST_SHARE = 0.1

# One plan: (scenario index, objective, report format) per ``qkdplan plan``
# call; the first call is the workload's primary planner.
Plan = tuple[tuple[int, str, str], ...]


@dataclass(frozen=True)
class Inputs:
    scenarios: tuple[dict, ...]
    bundled: tuple[str | None, ...]  # bundled scenario name, or None for a file
    plans: tuple[Plan, ...]

    def digest(self) -> str:
        text = json.dumps([self.scenarios, self.bundled, self.plans], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _pick(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = _pick(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One draw from each of n equal slices of [lo, hi), in random order."""
    return [lo + (hi - lo) * (slot + rng.random()) / n for slot in _shuffled(rng, range(n))]


def _names(ground: int, leo: int) -> tuple[list[str], list[str], list[str]]:
    return [f"gs{i}" for i in range(ground)], [f"leo{i}" for i in range(leo)], ["geo0", "geo1"]


def _topology(rng: random.Random, ground: int, leo: int) -> list[tuple[str, str, str]]:
    """GS / LEO / 2 GEO: the LEOs form a ring, each GS links to two
    neighbouring LEOs and to one GEO, and the GEOs serve equal shares."""
    stations, leos, geos = _names(ground, leo)
    order = _shuffled(rng, stations)
    geo_of = _shuffled(rng, [geos[p % 2] for p in range(ground)])
    links = []
    for p, gs in enumerate(order):
        links += [(gs, leos[p % leo], "leo-gs"), (gs, leos[(p + 1) % leo], "leo-gs"),
                  (gs, geo_of[p], "geo-gs")]
    links += [(leos[i], leos[(i + 1) % leo], "leo-leo") for i in range(leo)]
    return links


def _distances(rng: random.Random, links, stratified: bool) -> list[float]:
    out = [0.0] * len(links)
    for preset, (lo, hi) in DISTANCE_RANGE.items():
        members = [i for i, link in enumerate(links) if link[2] == preset]
        if stratified:
            draws = _stratified(rng, lo, hi, len(members))
        else:
            draws = [lo + (hi - lo) * rng.random() for _ in members]
        for i, d in zip(members, draws):
            out[i] = round(d, 3)
    return out


def _scenario(ground, leo, links, distances, window_s, requests=(), gs_relay=True) -> dict:
    stations, leos, geos = _names(ground, leo)
    return {
        "nodes": [{"id": g, "kind": "gs"} for g in stations]
        + [{"id": s, "kind": "leo"} for s in leos]
        + [{"id": s, "kind": "geo"} for s in geos],
        "links": [
            {"a": a, "b": b, "preset": preset, "distance_m": d}
            for (a, b, preset), d in zip(links, distances)
        ],
        "elapsed_seconds": window_s,
        "requests": [{"src": s, "dst": t, "demand_bits": bits} for s, t, bits in requests],
        "options": {"gs_relay": gs_relay},
    }


def fig3_mmd(seed: int) -> Inputs:
    """The bundled fig3like scenario; the seed does not change it."""
    doc = json.loads((BUNDLED / "fig3like.json").read_text())
    return Inputs(scenarios=(doc,), bundled=("fig3like",), plans=(((0, "mmd", "md"),),))


def synth6_mmd(seed: int) -> Inputs:
    """SYNTH_INSTANCES constellations of 6 GS / 3 LEO / 2 GEO, mmd over all 15 pairs."""
    scenarios = []
    for i in range(SYNTH_INSTANCES):
        # Instance 0, which every fresh process plans first, is the same for
        # every seed, so first_plan_s measures the cold start, not the draw.
        rng = random.Random(f"synth6-mmd/{seed % SEED_SPACE if i else 'first'}/{i}")
        links = _topology(rng, 6, 3)
        scenarios.append(_scenario(6, 3, links, _distances(rng, links, True), SYNTH_WINDOW_S))
    plans = tuple(((i, "mmd", "md"),) for i in range(len(scenarios)))
    return Inputs(scenarios=tuple(scenarios), bundled=(None,) * len(scenarios), plans=plans)


def pass_mr(seed: int) -> Inputs:
    """100-120 snapshots of one 8 GS / 4 LEO / 2 GEO constellation with fresh
    link distances and 12 fixed requests (a tenth of the snapshots carry an
    infeasible burst), planned with mr and then dijkstra; gs_relay off."""
    # The constellation, its requests and snapshot 0 (which every fresh
    # process plans first) are the same for every seed; the seed draws the
    # distances of the other snapshots and where the bursts fall.
    rng = random.Random("pass-mr/constellation")
    links = _topology(rng, 8, 4)
    stations = _names(8, 4)[0]
    pairs = [(a, b) for i, a in enumerate(stations) for b in stations[i + 1 :]]
    chosen = _shuffled(rng, pairs)[:PASS_REQUESTS]
    demands = [round(d) for d in _stratified(rng, *PASS_DEMAND_BITS, PASS_REQUESTS)]
    first = _distances(rng, links, False)
    rng = random.Random(f"pass-mr/{seed % SEED_SPACE}")
    count = 100 + _pick(rng, 21)
    bursts = set(_shuffled(rng, range(1, count))[: round(count * PASS_BURST_SHARE)])
    scenarios = []
    for snapshot in range(count):
        wanted = list(demands)
        if snapshot in bursts:
            lo, hi = PASS_BURST_BITS
            wanted[_pick(rng, PASS_REQUESTS)] = lo + _pick(rng, hi - lo)
        requests = [(a, b, d) for (a, b), d in zip(chosen, wanted)]
        distances = _distances(rng, links, False) if snapshot else first
        scenarios.append(_scenario(8, 4, links, distances, PASS_WINDOW_S, requests,
                                   gs_relay=False))
    plans = tuple(((i, "mr", "csv"), (i, "dijkstra", "csv")) for i in range(count))
    return Inputs(scenarios=tuple(scenarios), bundled=(None,) * count, plans=plans)


WORKLOADS = {"fig3-mmd": fig3_mmd, "synth6-mmd": synth6_mmd, "pass-mr": pass_mr}
