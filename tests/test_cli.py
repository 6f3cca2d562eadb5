"""Command-line interface: outputs, exit codes, determinism."""
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qkdplan import cli, netmodel, router
from qkdplan.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_MODEL_DOMAIN,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    bundled_scenarios,
    main,
)
from qkdplan.lp import LpStatus

from oracles import scipy_solve, solution_from_csv


def table_value(stdout: str, key: str) -> str:
    match = re.search(rf"\| {re.escape(key)} \| ([^|]+) \|", stdout)
    assert match, f"{key} not found in:\n{stdout}"
    return match.group(1).strip()


class TestRateCommand:
    def test_geo_column(self, capsys):
        assert main(["rate", "geo-gs", "--distance", "39000e3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(table_value(out, "gain_signal_q_mu")) == pytest.approx(1.27e-5, rel=0.10)
        assert float(table_value(out, "qber_signal_e_mu_percent")) == pytest.approx(6.68, rel=0.02)
        assert 5 <= float(table_value(out, "secret_key_rate_bps")) <= 20

    def test_leo_column_gain(self, capsys):
        assert main(["rate", "leo-gs", "--distance", "1000e3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(table_value(out, "gain_signal_q_mu")) == pytest.approx(1.96e-3, rel=0.10)
        assert float(table_value(out, "qber_signal_e_mu_percent")) == pytest.approx(0.04, abs=0.01)
        assert float(table_value(out, "total_attenuation_db")) == pytest.approx(21.9, abs=0.1)

    def test_decoy_override_matches_reference_cell(self, capsys):
        # the published leo-gs decoy gain corresponds to nu = 0.05
        assert main(["rate", "leo-gs", "--nu", "0.05"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(table_value(out, "gain_decoy_q_nu")) == pytest.approx(3.28e-4, rel=0.05)

    def test_near_field_distance_exits_3(self, capsys):
        assert main(["rate", "leo-gs", "--distance", "1"]) == EXIT_MODEL_DOMAIN
        assert "far-field" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, capsys):
        assert main(["rate", "meo-gs"]) == EXIT_INPUT_ERROR
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_flag_exits_1(self, capsys):
        assert main(["rate", "geo-gs", "--warp", "9"]) == EXIT_INPUT_ERROR

    def test_invalid_protocol_override_exits_1(self, capsys):
        assert main(["rate", "geo-gs", "--nu", "0.7"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--f-ec", "nan", EXIT_INPUT_ERROR),
            ("--f-ec", "inf", EXIT_INPUT_ERROR),
            ("--pulse-rate", "inf", EXIT_INPUT_ERROR),
            ("--distance", "inf", EXIT_INPUT_ERROR),
            ("--distance", "nan", EXIT_INPUT_ERROR),
            ("--atm-db", "inf", EXIT_INPUT_ERROR),
            ("--pointing-db", "inf", EXIT_INPUT_ERROR),
            ("--fried-parameter", "inf", EXIT_INPUT_ERROR),
            ("--mu", "1e300", EXIT_MODEL_DOMAIN),
            ("--pointing-db", "1e5", EXIT_MODEL_DOMAIN),
            ("--distance", "1e300", EXIT_MODEL_DOMAIN),
        ],
    )
    def test_out_of_range_numbers_exit_with_one_line(self, capsys, flag, value, code):
        # non-finite inputs are input errors; finite ones the model cannot
        # evaluate are model-domain errors; neither prints a table or a traceback
        assert main(["rate", "leo-gs", flag, value]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if code == EXIT_INPUT_ERROR:
            assert "must be finite" in captured.err


class TestPlanCommand:
    def test_bundled_names_resolve(self):
        names = bundled_scenarios()
        assert "fig3like" in names and "overdemand" in names

    def test_mmd_on_fig3like(self, capsys):
        assert main(["plan", "fig3like", "--objective", "mmd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# qkdplan plan report" in out
        assert "| A->B |" in out
        assert out.rstrip().splitlines()[-1].endswith("| 600 |")  # min fulfilled

    def test_mr_with_no_requests_is_trivial(self, capsys):
        assert main(["plan", "empty-pairs", "--objective", "mr"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| 0 | 0 | 0 | 0 |" in out

    def test_overdemand_exits_2(self, capsys):
        assert main(["plan", "overdemand", "--objective", "mr"]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_missing_scenario_exits_1(self, capsys):
        assert main(["plan", "no-such-file.json", "--objective", "mmd"]) == EXIT_INPUT_ERROR
        assert "bundled" in capsys.readouterr().err

    def test_schema_error_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [{"id": "g1", "kind": "blimp"}], "links": []}))
        assert main(["plan", str(bad), "--objective", "mmd"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "nodes[0].kind" in err

    def test_malformed_scenario_exits_1_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [{"id": "g1", "kind": ["gs"]}], "links": []}))
        run = subprocess.run(
            [sys.executable, "-m", "qkdplan", "plan", str(bad), "--objective", "mmd"],
            env={**os.environ, "PYTHONPATH": str(Path(router.__file__).resolve().parents[1])},
            capture_output=True, text=True,
        )
        assert run.returncode == EXIT_INPUT_ERROR
        assert run.stdout == ""
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: nodes[0].kind") and run.stderr.count("\n") == 1

    def test_undecodable_scenario_exits_1_with_one_line(self, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 200_000 + "]" * 200_000)
        run = subprocess.run(
            [sys.executable, "-m", "qkdplan", "plan", str(nested), "--objective", "mmd"],
            env={**os.environ, "PYTHONPATH": str(Path(router.__file__).resolve().parents[1])},
            capture_output=True, text=True,
        )
        assert run.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith(f"error: {nested}: ") and run.stderr.count("\n") == 1

    def test_deterministic_stdout(self, capsys):
        assert main(["plan", "fig3like", "--objective", "mmd"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["plan", "fig3like", "--objective", "mmd"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_csv_output_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "plan.csv"
        rc = main(
            ["plan", "fig3like", "--objective", "mr", "--format", "csv", "--out", str(out_file)]
        )
        assert rc == EXIT_OK
        parsed = solution_from_csv(out_file.read_text())
        assert parsed.total_flow == 15600
        assert parsed.demands == tuple([600.0] * 10)

    def test_csv_to_stdout(self, capsys):
        assert main(["plan", "micro-line", "--objective", "mr", "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        parsed = solution_from_csv(out)
        assert parsed.demands == (6.0,)

    def test_dijkstra_objective(self, capsys):
        assert main(["plan", "order-demo", "--objective", "dijkstra"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| A->D | 2000 |" in out
        assert "| B->D | 1600 |" in out

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.md"
        argv = ["plan", "micro-line", "--objective", "mmd", "--out", str(target)]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert captured.err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("objective", ["mmd", "mr"])
    @pytest.mark.parametrize(
        "error",
        [RuntimeError("simplex iteration limit exceeded"),
         ArithmeticError("simplex returned an infeasible point")],
    )
    def test_solver_failure_exits_4(self, capsys, monkeypatch, objective, error):
        def fail(lp):
            raise error

        monkeypatch.setattr("qkdplan.router.solve", fail)
        assert main(["plan", "fig3like", "--objective", objective]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: solver failed: {error}\n"

    def test_verification_failure_exits_4(self, capsys, monkeypatch):
        def overdrawn(graph, commodities, gs_relay):
            flows = {(0, ("g1", "s1")): 100, (0, ("s1", "g2")): 100}
            return router.FlowSolution("mmd", LpStatus.OPTIMAL, tuple(commodities), flows, (100.0,))

        monkeypatch.setattr(router, "route_mmd", overdrawn)
        assert main(["plan", "micro-line", "--objective", "mmd"]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verification failed: capacity exceeded on link g1-s1: "
            "100.0 used > 10 pooled (+1 more)\n"
        )

    def test_plan_without_demands_exits_4(self, capsys, monkeypatch):
        def no_demands(graph, commodities, gs_relay):
            return router.FlowSolution("mmd", LpStatus.OPTIMAL, tuple(commodities), {}, ())

        monkeypatch.setattr(router, "route_mmd", no_demands)
        assert main(["plan", "micro-line", "--objective", "mmd"]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verification failed: demand count 0 != commodity count 1\n"
        )

    def test_fractional_plan_exits_4(self, tmp_path, capsys, monkeypatch):
        # three stations share one GEO's one-bit pools: half a key per pair
        doc = {
            "nodes": [{"id": n, "kind": "gs"} for n in ("a", "b", "c")]
            + [{"id": "geo", "kind": "geo"}],
            "links": [{"a": n, "b": "geo", "rate_bps": 1} for n in ("a", "b", "c")],
            "elapsed_seconds": 1,
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))

        def unrounded(graph, commodities, gs_relay):
            return router.solve_fractional(graph, commodities, "mmd", gs_relay=gs_relay)

        monkeypatch.setattr(router, "route_mmd", unrounded)
        assert main(["plan", str(path), "--objective", "mmd"]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verification failed: the plan has a fractional flow or demand\n"
        )

    @pytest.mark.parametrize(
        "objective, planner",
        [("mmd", "route_mmd"), ("mr", "route_mr"), ("dijkstra", "route_sequential_dijkstra")],
    )
    @pytest.mark.parametrize("alter", [lambda c: c[:-1], lambda c: c[::-1]], ids=["drop", "reorder"])
    def test_plan_of_other_commodities_exits_4(self, capsys, monkeypatch, objective, planner,
                                               alter):
        # the plan is valid for what the planner chose to plan, but that is
        # not what the scenario asked for
        plan = getattr(router, planner)
        plans = []

        def unfaithful(graph, commodities, gs_relay):
            solution = plan(graph, alter(tuple(commodities)), gs_relay=gs_relay)
            plans.append((graph, gs_relay, solution))
            return solution

        monkeypatch.setattr(router, planner, unfaithful)
        assert main(["plan", "fig3like", "--objective", objective]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: verification failed: the plan's commodities differ from the requested ones"
        )
        assert captured.err.count("\n") == 1
        (graph, gs_relay, solution), = plans
        assert router.verify_solution(graph, solution.commodities, solution, gs_relay=gs_relay).ok

    def test_bundled_file_that_cannot_be_decoded_exits_1(self, tmp_path, capsys, monkeypatch):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "x.json").write_text("{")
        monkeypatch.setattr(cli, "_SCENARIO_DIR", bundle)
        monkeypatch.chdir(tmp_path)
        assert bundled_scenarios() == ("x",)
        assert main(["plan", "x", "--objective", "mmd"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bundle / 'x.json'}: invalid JSON at line 1: "
            "Expecting property name enclosed in double quotes\n"
        )

    def test_mr_plan_short_of_a_request_exits_4(self, tmp_path, capsys):
        # a ring g1-s1-g2-s2-g3-s3-g4-s4 of one-bit pools: the LP sends half
        # a bit each way round for both requests, which no integral plan meets
        ring = ["g1", "s1", "g2", "s2", "g3", "s3", "g4", "s4"]
        doc = {
            "nodes": [{"id": n, "kind": "gs" if n[0] == "g" else "leo"} for n in ring],
            "links": [{"a": a, "b": b, "rate_bps": 1} for a, b in zip(ring, ring[1:] + ring[:1])],
            "elapsed_seconds": 1,
            "requests": [
                {"src": "g1", "dst": "g3", "demand_bits": 1},
                {"src": "g2", "dst": "g4", "demand_bits": 1},
            ],
        }
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--objective", "mr"]) == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verification failed: commodity 1 (g2->g4) delivers 0 < requested 1\n"
        )

    @pytest.mark.parametrize("big_rate", [10.0**e for e in range(6, 14)])
    @pytest.mark.parametrize("small_rate, demand", [(6, 7), (1000, 1001), (1000, 1100)])
    def test_a_large_pool_does_not_hide_a_short_one(self, tmp_path, capsys, big_rate, small_rate,
                                                    demand):
        # g1-s1 pools big_rate bits and s1-g2 too few for the request: phase 1
        # ends with the shortfall on an artificial, which must count as
        # infeasible however large the other pool is
        doc = {
            "nodes": [{"id": "g1", "kind": "gs"}, {"id": "s1", "kind": "leo"},
                      {"id": "g2", "kind": "gs"}],
            "links": [{"a": "g1", "b": "s1", "rate_bps": big_rate},
                      {"a": "s1", "b": "g2", "rate_bps": small_rate}],
            "elapsed_seconds": 1,
            "requests": [{"src": "g1", "dst": "g2", "demand_bits": demand}],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--objective", "mr"]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "infeasible: the requested demands exceed what the key pools can carry\n"
        )
        scenario = netmodel.load_scenario(path)
        graph = netmodel.accumulate_pools(scenario.graph, scenario.window_seconds)
        program, _ = router.build_lp(graph, scenario.requests, "mr", gs_relay=scenario.gs_relay)
        assert scipy_solve(program)[0] is LpStatus.INFEASIBLE

    def test_request_beyond_exact_float_range_exits_1(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "g1", "kind": "gs"}, {"id": "s1", "kind": "leo"},
                      {"id": "g2", "kind": "gs"}],
            "links": [{"a": "g1", "b": "s1", "rate_bps": 2.0**62},
                      {"a": "s1", "b": "g2", "rate_bps": 2.0**62}],
            "elapsed_seconds": 1,
            "requests": [{"src": "g1", "dst": "g2", "demand_bits": 2**60 + 1}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--objective", "mr"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: requests[0].demand_bits: expected an integer from 0 to 2**53 = "
            "9007199254740992, got 1152921504606846977\n"
        )

    def test_pools_beyond_exact_float_range_exit_1(self, tmp_path, capsys):
        # fig3like's pools grown 1e12-fold total 3.7e17 bits; planned in
        # floats, its max-min plan came out a bit off at two relays
        doc = json.loads((Path(router.__file__).parent / "scenarios" / "fig3like.json").read_text())
        for link in doc["links"]:
            link["rate_bps"] *= 10**12
        path = tmp_path / "huge-pools.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--objective", "mmd"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the key pools total 367800000000000000 bits, more than 2**53 = "
            "9007199254740992, beyond which plans are not exact\n"
        )

    @pytest.mark.parametrize(
        "elapsed, rate, distance, fragment",
        [
            ("Infinity", "10", "1000e3", "elapsed_seconds"),
            ("NaN", "10", "1000e3", "elapsed_seconds"),
            ("true", "10", "1000e3", "elapsed_seconds"),
            ("10", "1e308", "1000e3", "not finite"),
            ("10", "Infinity", "1000e3", "rate_bps"),
            ("10", "true", "1000e3", "rate_bps"),
            ("10", "10", "Infinity", "distance_m"),
            ("10", "10", "true", "distance_m"),
            ("10", "10", "1e300", "links[1]: rate model out of numeric range"),
        ],
    )
    def test_bad_numbers_exit_1(self, tmp_path, capsys, elapsed, rate, distance, fragment):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"nodes": [{"id": "g1", "kind": "gs"}, {"id": "s1", "kind": "leo"},'
            ' {"id": "g2", "kind": "gs"}],'
            f' "links": [{{"a": "g1", "b": "s1", "rate_bps": {rate}}},'
            f' {{"a": "s1", "b": "g2", "preset": "leo-gs", "distance_m": {distance}}}],'
            f' "elapsed_seconds": {elapsed}}}'
        )
        assert main(["plan", str(path), "--objective", "mmd"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_timing_goes_to_stderr(self, capsys):
        assert main(["plan", "micro-line", "--objective", "mmd"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "wall-clock" in captured.err
        assert "wall-clock" not in captured.out

    def test_gs_relay_false_scenario(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": "a", "kind": "gs"},
                {"id": "b", "kind": "gs"},
                {"id": "c", "kind": "gs"},
                {"id": "s1", "kind": "leo"},
                {"id": "s2", "kind": "leo"},
            ],
            "links": [
                {"a": "a", "b": "s1", "rate_bps": 10},
                {"a": "s1", "b": "c", "rate_bps": 10},
                {"a": "c", "b": "s2", "rate_bps": 10},
                {"a": "s2", "b": "b", "rate_bps": 10},
            ],
            "elapsed_seconds": 1,
            "requests": [{"src": "a", "dst": "b", "demand_bits": 5}],
            "options": {"gs_relay": False},
        }
        path = tmp_path / "norelay.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--objective", "mr"]) == EXIT_INFEASIBLE

    def test_degree_warning_once_per_plan(self, tmp_path, capsys):
        # building the accumulated graph used to warn a second time
        doc = {
            "nodes": [
                {"id": "a", "kind": "gs"},
                {"id": "b", "kind": "gs"},
                {"id": "c", "kind": "gs"},
                {"id": "l1", "kind": "leo"},
            ],
            "links": [{"a": g, "b": "l1", "rate_bps": 10} for g in "abc"],
            "elapsed_seconds": 1,
        }
        path = tmp_path / "busy-leo.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["plan", str(path), "--objective", "mmd"]) == EXIT_OK
        messages = [str(w.message) for w in record]
        assert messages == ["LEO 'l1' has more than 2 ground links"]


class TestMicroScenarios:
    """The bundled micro scenarios carry brute-force-verified optima."""

    def test_micro_line_optimum(self, capsys):
        assert main(["plan", "micro-line", "--objective", "mmd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| g1->g2 | 6 |" in out

    def test_micro_shared_optimum(self, capsys):
        assert main(["plan", "micro-shared", "--objective", "mmd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| a->b | 5 |" in out
        assert "| c->d | 5 |" in out

    def test_micro_diamond_optimum(self, capsys):
        assert main(["plan", "micro-diamond", "--objective", "mmd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| a->b | 6 |" in out


# (exit code, SHA-256 of stdout) of every bundled scenario, objective and
# format.  A change here means the reports changed, which is a contract break.
STDOUT_DIGESTS = {
    ("empty-pairs", "mmd", "md"): (0, "3d7f249169aa89b7cbff5e6e849a8023b976eed38619848375812990a075c74d"),
    ("empty-pairs", "mmd", "csv"): (0, "5a2e97b5e63a6baab23ca18a796884fe3f18c0023bbec543764b0e02e76e995c"),
    ("empty-pairs", "mr", "md"): (0, "7a117b9bb1d01ff8bf6c9d2b0e412cbf8d7d67dcb8dcc2d6865e74f2e6274ff0"),
    ("empty-pairs", "mr", "csv"): (0, "8e68e8c4431f3260607fd0ee00e325b06c8c52534bcc96640c68bec9d39c39aa"),
    ("empty-pairs", "dijkstra", "md"): (0, "880818506f741a9ad6893c03b41dbe68c0633ff74b27a8a91b35a16a35f8dc2a"),
    ("empty-pairs", "dijkstra", "csv"): (0, "f44453f8802db9b0462f0731d44dc45a5c01bdac8fb35833bfdcf62d969d58ab"),
    ("fig3like", "mmd", "md"): (0, "49a1bb5ae0d9cc68ca252e4dada2b65098fc10503f4ccd272397098bf4cb56a0"),
    ("fig3like", "mmd", "csv"): (0, "de9e5dcf561edffa9737cba26355b5f1cd819b38cd0e90f78d0e6ac8d179eb66"),
    ("fig3like", "mr", "md"): (0, "a6d211026c8a9ff13af027068888fb063aeae9401f87c675a4b4b2d65646abda"),
    ("fig3like", "mr", "csv"): (0, "1b92d0aef86398be00e008290044d8fe7a7663758c35670b0241567097c85cf8"),
    ("fig3like", "dijkstra", "md"): (0, "1c3217230d18434797db375402379af1311e5c9a8556a846789af44983e88444"),
    ("fig3like", "dijkstra", "csv"): (0, "e8eaf10adb6add71f7387fdd3113fbb003fd9154fdb09bba494a717d7c328688"),
    ("micro-diamond", "mmd", "md"): (0, "eee9071d80e967eb72eec78dc3115df3c13b9cc4c666e1976ee694700bafaa08"),
    ("micro-diamond", "mmd", "csv"): (0, "f74aa984fca89d87e795f0648c751bc920a531090111c5167ea5cd5fb65eec56"),
    ("micro-diamond", "mr", "md"): (0, "90e02601e4c185ea223222dbab4e15093bb4c39f2af160a4e60a348d2b3b0be8"),
    ("micro-diamond", "mr", "csv"): (0, "c8919a18e89a423bcafbddf43d08b3265ecf7a484b33533754c86b5865afc8db"),
    ("micro-diamond", "dijkstra", "md"): (0, "696e2b8bcf043d4cd722336b3ed08f4571dcd590195b26dd004e68733a8cb2be"),
    ("micro-diamond", "dijkstra", "csv"): (0, "f14378399f8fd9f9249e16dc8154f590317b7bec95046a183b67adcf6bed83db"),
    ("micro-line", "mmd", "md"): (0, "3e86a32c36614b6fd43f1f43cb42cbe72772ad0c305495b886f01098dd969c5a"),
    ("micro-line", "mmd", "csv"): (0, "f85497827ecd3af2d2f2f037b884b59c8411c39ce66bef4d24d0b23176551497"),
    ("micro-line", "mr", "md"): (0, "992d8d4e8ccc33a287c8f75b1eac447c60140facec428c85368d0bed0464a1d3"),
    ("micro-line", "mr", "csv"): (0, "4a23140087082da012a5d1e6448b740df7f97dfe89e93f0b51fd83de8800db2d"),
    ("micro-line", "dijkstra", "md"): (0, "a54c7390b4196c55f9f134ce3d6ea3048821e2f388744e738769e38e2c337177"),
    ("micro-line", "dijkstra", "csv"): (0, "468688cadf456d3713c3e08a8051d6050921b59dda8cd709c3ebd4d5b3ba1883"),
    ("micro-shared", "mmd", "md"): (0, "334690ac2230ea0aad4f4bedbcd615a68f079a639dfdd4e38cfb8672b47111f8"),
    ("micro-shared", "mmd", "csv"): (0, "58f260269900ad0ad986557d87629942ef0004475a631e50fddf07c02ce6d424"),
    ("micro-shared", "mr", "md"): (0, "6aa3de204d986c54055c628563e176169c99a15118947e39c8976e185ea28f23"),
    ("micro-shared", "mr", "csv"): (0, "45a2c271543bffa2072a0026c1107fc4425762320acebebe37574f7e37df9d09"),
    ("micro-shared", "dijkstra", "md"): (0, "4524692f44db3fceac50420835ea1958fd2a94340e668b12d50e42b128f45582"),
    ("micro-shared", "dijkstra", "csv"): (0, "6a01fbbfbfd3c5c08d67db48cc058089dc4e3041c1e0334210fdcf49a8846f4b"),
    ("order-demo", "mmd", "md"): (0, "9a36db27eeb248e6ac0578b956d4bde91c03533d049ad8411f4dbb8744a34ed5"),
    ("order-demo", "mmd", "csv"): (0, "d1b8cbac27469ef3bba0be8c117aeb7a0f8707c4476b83f6c54ccc6e369e16ed"),
    ("order-demo", "mr", "md"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("order-demo", "mr", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("order-demo", "dijkstra", "md"): (0, "4fb94718d29c0c50a6caee61642e20845112e801723cdc6443acfbab9b410a77"),
    ("order-demo", "dijkstra", "csv"): (0, "a1e053388e3443d75e28d4ae659361d121a191109894b4f9a3f606f0dbf8e1ab"),
    ("overdemand", "mmd", "md"): (0, "5cbc87c09109c205843424515ece84ee83f5c265c15dcba6c21b456d12642f9e"),
    ("overdemand", "mmd", "csv"): (0, "f85497827ecd3af2d2f2f037b884b59c8411c39ce66bef4d24d0b23176551497"),
    ("overdemand", "mr", "md"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("overdemand", "mr", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("overdemand", "dijkstra", "md"): (0, "9a2e7c1782fa39eece8052779d0525804ecb2a3ae1490ca550e9c8989e256c96"),
    ("overdemand", "dijkstra", "csv"): (0, "468688cadf456d3713c3e08a8051d6050921b59dda8cd709c3ebd4d5b3ba1883"),
}


# (exit code, SHA-256 of stdout) of `qkdplan rate` for each preset alone and
# for leo-gs with each override flag set to a valid non-default value.
RATE_STDOUT_DIGESTS = {
    ("leo-gs",): (0, "a59340e4e6440a4cecf0ef7fbcd3c4a3ec5064f8d5ced6c5c9c0533223dd1127"),
    ("geo-gs",): (0, "d977e85406bc9328d83706a4f9fa7169c2110aeff39bab96000cdbd1b2ae9b2a"),
    ("leo-leo",): (0, "193c1c12d9fabb033f8f61e68dccced1b9b5d43ee9ad47d430e9b081f8733410"),
    ("leo-gs", "--distance", "800e3"): (0, "8391b03d58d70c843a3a757dee6058f271068bd0463e51b02a00fd2f5e2408a3"),
    ("leo-gs", "--mu", "0.4"): (0, "2ee8677f004e2d312d6a3819c2f44c6be683b3cd96cc06631b585bea28059e28"),
    ("leo-gs", "--nu", "0.05"): (0, "2de042e4fc3f1686249521da0954b9fdecc82ea1450125905fe9a3f49e6ac0db"),
    ("leo-gs", "--y0", "3e-6"): (0, "dbc6567a9f1120f7dfc7a7cedd616ee96c1b410fec57002c9361719a26fe6638"),
    ("leo-gs", "--q", "0.25"): (0, "bfc03032b20debb5de0f24855d5dddea33e4ec3d4137cdeaf5dadc062d926ff4"),
    ("leo-gs", "--f-ec", "1.16"): (0, "6294c783f10064027c810c114921cb836c82a1f5ebb323863a0a5bbda6f72580"),
    ("leo-gs", "--pulse-rate", "2e7"): (0, "a064f49eb1f23f63b1c1218a5bd8d1d7a23733240094a516f51d5f6455af66cd"),
    ("leo-gs", "--atm-db", "5"): (0, "9abb76e96ebd80e16c674feebb0251f610bbe4de7ba0b03cc27732c0f789d0e4"),
    ("leo-gs", "--pointing-db", "4"): (0, "e153db640ccbb13ef6ec162abdffaf9fedb301b524a08c37d320bd13ab6bc751"),
    ("leo-gs", "--rx-efficiency", "0.3"): (0, "228cad9dae35c396919d56ea1a9f5ad26d2c5615e212ad44681e9135ed7b72db"),
    ("leo-gs", "--fried-parameter", "0.1"): (0, "ccb90edb5369f8ee045ce5c851c10629d81317f90fb9f08aeeead092d949c763"),
}


class TestOutputContract:
    def test_every_bundled_scenario_is_pinned(self):
        assert {name for name, _, _ in STDOUT_DIGESTS} == set(bundled_scenarios())

    @pytest.mark.parametrize(
        "scenario, objective", [(name, obj) for name, obj, fmt in STDOUT_DIGESTS if fmt == "csv"]
    )
    def test_bundled_name_and_its_path_print_the_same(self, capsys, scenario, objective):
        # the markdown report names its argument, so compare the CSV
        path = Path(router.__file__).parent / "scenarios" / f"{scenario}.json"
        reports = []
        for token in (scenario, str(path)):
            code = main(["plan", token, "--objective", objective, "--format", "csv"])
            reports.append((code, capsys.readouterr().out))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("scenario, objective, fmt", list(STDOUT_DIGESTS))
    def test_stdout_digest(self, capsys, scenario, objective, fmt):
        code = main(["plan", scenario, "--objective", objective, "--format", fmt])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == STDOUT_DIGESTS[(scenario, objective, fmt)]

    def test_rate_pins_every_override_flag(self):
        flags = {arg for args in RATE_STDOUT_DIGESTS for arg in args if arg.startswith("--")}
        assert len(flags) == 11  # --distance and the ten overrides
        assert len(set(RATE_STDOUT_DIGESTS.values())) == len(RATE_STDOUT_DIGESTS)

    @pytest.mark.parametrize("args", list(RATE_STDOUT_DIGESTS))
    def test_rate_stdout_digest(self, capsys, args):
        code = main(["rate", *args])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == RATE_STDOUT_DIGESTS[args]
