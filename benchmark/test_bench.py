"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest benchmark/test_bench.py -q
"""
from __future__ import annotations

import dataclasses
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import SELF_TIME_LAYERS, Tracer  # noqa: E402
from worker import Runner, _load_expected  # noqa: E402

from qkdplan import netmodel, router  # noqa: E402
from qkdplan.lp import LpStatus, solve  # noqa: E402


@pytest.fixture
def runner_for(tmp_path):
    runners = []

    def make(workload: str, seed: int = 0) -> tuple[Runner, list[str]]:
        inputs = workloads.WORKLOADS[workload](seed)
        runner = Runner(inputs, tmp_path)
        runners.append(runner)
        expected, missing = _load_expected(workload, inputs.digest())
        assert missing is None, missing
        return runner, expected

    yield make
    for runner in reversed(runners):
        runner.close()


def _graph(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario = netmodel.load_scenario(doc)
    return scenario, netmodel.accumulate_pools(scenario.graph, scenario.window_seconds)


@pytest.mark.parametrize("workload, plans", [("pass-mr", range(12)), ("synth6-mmd", [0])])
def test_layer_self_times_add_up_to_plan_time(runner_for, workload, plans):
    runner, expected = runner_for(workload)
    tracer = Tracer()
    for index in plans:
        tracer.install()
        try:
            outcome = runner.run(index, tracer, expected)
        finally:
            tracer.uninstall()
        assert outcome.problems == []
        layers = outcome.layers
        covered = sum(layers[name] for name in SELF_TIME_LAYERS)
        assert covered == pytest.approx(layers["plan_s"], rel=1e-9, abs=1e-12)
        assert layers["plan_s"] == pytest.approx(outcome.seconds, rel=0.01, abs=1e-4)
        assert all(layers[name] >= 0 for name in SELF_TIME_LAYERS)
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    names = {span.name for span in tracer.spans}
    assert {"router.solve", "router.build_lp", "linkbudget.link_performance"} <= names


def test_recorded_outputs_cover_every_seed():
    for workload, generate in workloads.WORKLOADS.items():
        for seed in range(workloads.SEED_SPACE):
            inputs = generate(seed)
            expected, missing = _load_expected(workload, inputs.digest())
            assert missing is None, f"{workload} seed {seed}: {missing}"
            assert len(expected) == len(inputs.plans)


def test_pass_has_a_tenth_infeasible_snapshots():
    inputs = workloads.pass_mr(0)
    expected, _ = _load_expected("pass-mr", inputs.digest())
    infeasible = sum(key.startswith("2") for key in expected)
    assert infeasible == round(len(expected) * workloads.PASS_BURST_SHARE)


def _highs(lp):
    from scipy.optimize import linprog

    return linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                   bounds=lp.bounds, method="highs")


def _lp_cases():
    synth = workloads.synth6_mmd(0)
    for doc in synth.scenarios[:3]:
        yield doc, "mmd"
    passes = workloads.pass_mr(0)
    expected, _ = _load_expected("pass-mr", passes.digest())
    infeasible = [i for i, key in enumerate(expected) if key.startswith("2")]
    for i in sorted(set(infeasible[:3] + list(range(0, len(expected), 15)))):
        yield passes.scenarios[i], "mr"


@pytest.mark.parametrize("doc, objective", list(_lp_cases()))
def test_simplex_agrees_with_highs_at_benchmark_size(doc, objective):
    pytest.importorskip("scipy.optimize")
    scenario, graph = _graph(doc)
    if objective == "mmd":
        commodities = [router.Commodity(a, b) for a, b in router.gs_pairs(graph)]
    else:
        commodities = [router.Commodity(r.src, r.dst, r.demand_bits) for r in scenario.requests]
    lp, _ = router.build_lp(graph, commodities, objective, gs_relay=scenario.gs_relay)
    ours = solve(lp)
    reference = _highs(lp)
    if reference.status == 2:
        assert ours.status is LpStatus.INFEASIBLE
    else:
        assert reference.status == 0, reference.message
        assert ours.status is LpStatus.OPTIMAL
        assert ours.objective_value == pytest.approx(reference.fun, rel=1e-7, abs=1e-6)


def _captured_plan(runner_for):
    runner, expected = runner_for("pass-mr")
    index = next(i for i, key in enumerate(expected) if key.startswith("00:"))
    outcome = runner.run(index, expected=expected)
    assert outcome.problems == []
    args, _ = runner.captured[0]
    return runner.inputs.scenarios[index], args[0], args[2]


def test_checker_accepts_the_recorded_plan(runner_for):
    doc, graph, solution = _captured_plan(runner_for)
    assert checker.check_plan(doc, "mr", graph, solution) == []


def _with_flows(solution, extra, demands=None):
    flows = dict(solution.flows)
    for key, value in extra.items():
        flows[key] = flows.get(key, 0) + value
    return dataclasses.replace(solution, flows=flows, demands=demands or solution.demands)


def test_checker_flags_each_violation(runner_for):
    doc, graph, solution = _captured_plan(runner_for)
    link = max(graph.links, key=lambda l: l.pool_bits)
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    ground, sat = (link.a, link.b) if kinds[link.a] == "gs" else (link.b, link.a)
    foreign = next(i for i, c in enumerate(solution.commodities) if ground not in c.pair)

    def problems(changed):
        return " | ".join(checker.check_plan(doc, "mr", graph, changed))

    # a balanced detour through a ground station the commodity does not own
    detour = {(foreign, (sat, ground)): 1, (foreign, (ground, sat)): 1}
    assert f"transits ground station {ground}" in problems(_with_flows(solution, detour))
    overdraw = {(foreign, (sat, ground)): link.pool_bits, (foreign, (ground, sat)): link.pool_bits}
    assert "> pool" in problems(_with_flows(solution, overdraw))
    assert "not a nonnegative integer" in problems(
        _with_flows(solution, {(foreign, (sat, ground)): 0.5}))
    more = list(solution.demands)
    more[0] += 1
    assert "> requested" in problems(_with_flows(solution, {}, tuple(more)))
    assert "net outflow" in problems(_with_flows(solution, {}, tuple(more)))
