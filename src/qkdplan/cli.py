"""Command-line front end.

Two subcommands:

* ``qkdplan rate PRESET [--distance M] [overrides]`` prints the modelled
  link budget, gains/QBERs and secret-key rate for one link class.
* ``qkdplan plan SCENARIO --objective {mmd,mr,dijkstra}`` loads a scenario
  file (a path, or the name of a bundled scenario in the package's
  ``scenarios`` directory), accumulates the key pools over the declared
  window, runs the selected planner, verifies the solution independently
  against the commodities it was asked for, and emits a markdown or CSV
  report.

Exit codes: 0 success, 1 input error (including a report that cannot be
written, a non-finite ``rate`` number, and a scenario link whose preset
rate model overflows, named as ``links[i]``), 2 infeasible request set,
3 model-domain error (e.g. a near-field distance, or ``rate`` numbers
whose model leaves the float range, named by the quantity), 4 solver
failure (the simplex hit its iteration limit or returned an infeasible
point, or the plan fails :func:`~qkdplan.router.verify_solution`, which
also refuses a plan that is not Optimal or not whole numbers).  Timing goes
to stderr so stdout stays byte-identical for identical inputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import linkbudget, netmodel, router
from .decoy import DEFAULT_PROTOCOL, DecoyProtocolParams
from .lp import LpStatus

__all__ = ["main", "entrypoint", "build_markdown"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_MODEL_DOMAIN = 3
EXIT_SOLVER_FAILURE = 4


def _error(code: int, message: object) -> int:
    """Write the one-line ``error: <message>`` to stderr and return ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _table(columns: Sequence[str], rows: Iterable[str]) -> str:
    """A markdown table: the header, its ``| --- |`` rule, then one line per row."""
    return "\n".join((f"| {' | '.join(columns)} |", "|" + " --- |" * len(columns), *rows))


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which this tool reserves for
    # infeasible plans; usage problems are input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """A usage error; its message is argparse's."""


@functools.cache  # argparse builds a help formatter per flag; build once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="qkdplan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="link budget and key rate for a preset link class")
    rate.add_argument("preset", help="link class: leo-gs, geo-gs or leo-leo")
    # Each override's dest is the DecoyProtocolParams or FsoLinkParams field it sets.
    rate.add_argument("--distance", dest="distance_m", type=float, help="link distance in meters")
    rate.add_argument("--mu", type=float, help="signal intensity override")
    rate.add_argument("--nu", type=float, help="decoy intensity override")
    rate.add_argument("--y0", type=float, help="background yield override")
    rate.add_argument("--q", type=float, help="protocol efficiency override")
    rate.add_argument("--f-ec", type=float, help="error-correction efficiency")
    rate.add_argument("--pulse-rate", dest="pulse_rate_hz", type=float, help="pulses per second")
    rate.add_argument(
        "--atm-db", dest="atm_loss_db", type=float, help="atmospheric loss override (dB)"
    )
    rate.add_argument(
        "--pointing-db", dest="pointing_loss_db", type=float, help="pointing loss override (dB)"
    )
    rate.add_argument("--rx-efficiency", type=float, help="detector efficiency")
    rate.add_argument(
        "--fried-parameter", dest="fried_parameter_m", type=float, help="Fried parameter (m)"
    )

    plan = sub.add_parser("plan", help="route key-exchange requests over a scenario")
    plan.add_argument("scenario", help="scenario file path or bundled scenario name")
    plan.add_argument(
        "--objective", required=True, choices=("mmd", "mr", "dijkstra"),
        help="mmd: maximize minimum demand; mr: minimize consumption; "
        "dijkstra: sequential shortest-path baseline",
    )
    plan.add_argument("--format", choices=("md", "csv"), default="md")
    plan.add_argument("--out", type=Path, default=None, help="write the report to this file")
    return parser


def _given(args, model) -> dict:
    """The given ``rate`` flags that name a field of the dataclass ``model``."""
    given = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(model)}
    return {name: value for name, value in given.items() if value is not None}


def _cmd_rate(args) -> int:
    try:
        params = linkbudget.preset_link(args.preset, **_given(args, linkbudget.FsoLinkParams))
        protocol = dataclasses.replace(DEFAULT_PROTOCOL, **_given(args, DecoyProtocolParams))
        perf = linkbudget.link_performance(params, protocol)
    except linkbudget.NearFieldError as exc:
        return _error(EXIT_MODEL_DOMAIN, exc)
    except ValueError as exc:
        return _error(EXIT_INPUT_ERROR, exc)
    except ArithmeticError as exc:
        return _error(EXIT_MODEL_DOMAIN, f"rate model out of numeric range: {exc}")

    print(_table(("quantity", "value"), (
        f"| preset | {args.preset} |",
        f"| wavelength_nm | {params.wavelength_m * 1e9:g} |",
        f"| distance_km | {params.distance_m / 1e3:g} |",
        f"| total_attenuation_db | {perf.attenuation_db:.2f} |",
        f"| transmittance | {perf.transmittance:.4e} |",
        f"| gain_signal_q_mu | {perf.q_mu:.4e} |",
        f"| qber_signal_e_mu_percent | {perf.e_mu * 100:.4g} |",
        f"| gain_decoy_q_nu | {perf.q_nu:.4e} |",
        f"| qber_decoy_e_nu_percent | {perf.e_nu * 100:.4g} |",
        f"| secret_key_rate_bps | {perf.rate_bps:.4g} |",
    )))
    return EXIT_OK


_SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


def _resolve_scenario(token: str) -> netmodel.Scenario:
    path = Path(token)
    if not path.exists():
        path = _SCENARIO_DIR / (token if token.endswith(".json") else f"{token}.json")
        if not path.is_file():
            raise netmodel.ScenarioError(
                f"scenario {token!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_scenarios())})"
            )
    return netmodel.load_scenario(path)


def bundled_scenarios() -> tuple[str, ...]:
    return tuple(sorted(path.stem for path in _SCENARIO_DIR.glob("*.json")))


def _commodities(scenario: netmodel.Scenario, objective: str) -> tuple[netmodel.Commodity, ...]:
    """What a plan is asked for: the scenario's requests, or for ``mmd`` one
    demand-less commodity per requested pair in first-request order (every
    ground-station pair when nothing is requested)."""
    if objective != "mmd":
        return scenario.requests
    if not scenario.requests:
        pairs = router.gs_pairs(scenario.graph)
    else:
        pairs = dict.fromkeys(netmodel.canonical_pair(*c.pair) for c in scenario.requests)
    return tuple(netmodel.Commodity(a, b) for a, b in pairs)


def build_markdown(
    scenario_name: str,
    scenario: netmodel.Scenario,
    graph: netmodel.QkdGraph,
    solution: router.FlowSolution,
) -> str:
    consumed_by_link = dict.fromkeys((link.endpoints for link in graph.links), 0.0)
    for (_, (a, b)), value in solution.flows.items():
        consumed_by_link[netmodel.canonical_pair(a, b)] += value
    # QkdGraph refuses a second link between two nodes, so the values follow graph.links
    link_rows = [
        f"| {link.a}-{link.b} | {link.rate_bps:g} | {link.pool_bits} "
        f"| {used:g} | {link.pool_bits - used:g} |"
        for link, used in zip(graph.links, consumed_by_link.values())
    ]
    pair_rows = [
        f"| {commodity.source}->{commodity.sink} | {delivered:g} | {consumed:g} | {rate:.4g} |"
        for commodity, (delivered, consumed, rate)
        in zip(solution.commodities, solution.pair_totals())
    ]
    return "\n".join((
        "# qkdplan plan report",
        "",
        f"- scenario: {scenario_name}",
        f"- objective: {solution.kind}",
        f"- status: {solution.status.value}",
        f"- gs_relay: {str(scenario.gs_relay).lower()}",
        f"- elapsed_seconds: {scenario.window_seconds:g}",
        "",
        "## Links",
        "",
        _table(("link", "rate_bps", "pool_bits", "consumed_bits", "remaining_bits"), link_rows),
        "",
        "## Pairs",
        "",
        _table(("pair", "fulfilled_bits", "consumed_bits", "consumption_rate"), pair_rows),
        "",
        "## Totals",
        "",
        _table(
            ("delivered_bits", "consumed_bits", "consumption_rate", "min_fulfilled_bits"),
            (f"| {solution.total_demand:g} | {solution.total_flow:g} "
             f"| {solution.consumption_rate:.4g} | {solution.min_demand:g} |",),
        ),
        "",
    ))


def _cmd_plan(args) -> int:
    started = time.perf_counter()
    try:
        scenario = _resolve_scenario(args.scenario)
        graph = netmodel.accumulate_pools(scenario.graph, scenario.window_seconds)
    except ValueError as exc:  # ScenarioError, or a pool that is not finite
        return _error(EXIT_INPUT_ERROR, exc)

    commodities = _commodities(scenario, args.objective)
    planner = {
        "mmd": router.route_mmd,
        "mr": router.route_mr,
        "dijkstra": router.route_sequential_dijkstra,
    }[args.objective]
    try:
        solution = planner(graph, commodities, gs_relay=scenario.gs_relay)
    except (RuntimeError, ArithmeticError) as exc:
        return _error(EXIT_SOLVER_FAILURE, f"solver failed: {exc}")

    if solution.status is LpStatus.INFEASIBLE:
        print(
            "infeasible: the requested demands exceed what the key pools can carry",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE

    violations = router.verify_solution(graph, commodities, solution, gs_relay=scenario.gs_relay)
    if violations:  # a planner fault
        more = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        return _error(EXIT_SOLVER_FAILURE, f"verification failed: {violations[0]}{more}")

    wall_seconds = time.perf_counter() - started
    if args.format == "md":
        text = build_markdown(Path(args.scenario).name, scenario, graph, solution)
    else:
        text = router.solution_to_csv(solution)
    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            return _error(EXIT_INPUT_ERROR, f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    print(f"wall-clock: {wall_seconds:.3f} s", file=sys.stderr)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        return _error(EXIT_INPUT_ERROR, exc)
    if args.command == "rate":
        return _cmd_rate(args)
    return _cmd_plan(args)


def entrypoint() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())
