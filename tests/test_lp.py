"""Dense two-phase simplex: basics, oracle equivalence, determinism, scale."""
import random
import time

import numpy as np
import pytest

from qkdplan.lp import LinearProgram, LpStatus, solve

from oracles import build_graph, scipy_solve, vertex_enumeration_optimum


class TestBasics:
    def test_single_variable_maximization(self):
        lp = LinearProgram(objective=[-1.0], a_ub=[[1.0]], b_ub=[5.0])
        result = solve(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.x[0] == pytest.approx(5.0, abs=1e-9)
        assert result.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_binding_equality(self):
        lp = LinearProgram(objective=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        result = solve(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_inequalities(self):
        lp = LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_infeasible_equalities(self):
        lp = LinearProgram(
            objective=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 2.0],
        )
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(objective=[-1.0])
        assert solve(lp).status is LpStatus.UNBOUNDED

    def test_empty_program(self):
        result = solve(LinearProgram(objective=np.zeros(0)))
        assert result.status is LpStatus.OPTIMAL
        assert result.objective_value == 0.0

    def test_degenerate_rows_handled(self):
        # duplicated equality row is redundant, not infeasible
        lp = LinearProgram(
            objective=[1.0, 2.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 1.0],
        )
        result = solve(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.objective_value == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_matrix_without_rhs(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], a_ub=[[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["objective", "a_ub", "b_ub", "a_eq", "b_eq"])
    def test_non_finite_entry(self, field, bad):
        # without the check, solve returned Optimal: x = [0, 0] for a NaN
        # objective, x = [inf] for b_eq = [inf]
        fields = dict(
            objective=[1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0],
            a_eq=[[1.0, -1.0]], b_eq=[0.0],
        )
        fields[field] = np.array(fields[field])
        fields[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{field} holds NaN or infinity$"):
            LinearProgram(**fields)


def random_bounded_lp(rng: random.Random, n_vars=10, n_eq=5, n_ub=3):
    """Random LP with a box row, so the feasible set is a bounded polytope."""
    np_rng = np.random.default_rng(rng.randrange(2**32))
    a_eq = np_rng.uniform(-1, 1, size=(n_eq, n_vars))
    x0 = np_rng.uniform(0, 2, size=n_vars)  # a known feasible point
    b_eq = a_eq @ x0
    a_ub = np_rng.uniform(-1, 1, size=(n_ub, n_vars))
    b_ub = a_ub @ x0 + np_rng.uniform(0.1, 2.0, size=n_ub)
    box = np.ones((1, n_vars))
    a_ub = np.vstack([a_ub, box])
    b_ub = np.append(b_ub, x0.sum() + rng.uniform(1.0, 10.0))
    c = np_rng.uniform(-1, 1, size=n_vars)
    lp = LinearProgram(objective=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return lp, x0


class TestOracleEquivalence:
    def test_against_vertex_enumeration(self):
        rng = random.Random(20240817)
        for case in range(30):
            lp, _ = random_bounded_lp(rng)
            result = solve(lp)
            assert result.status is LpStatus.OPTIMAL, f"case {case}"
            oracle = vertex_enumeration_optimum(lp)
            assert oracle is not None, f"case {case}"
            assert result.objective_value == pytest.approx(oracle, abs=1e-6), f"case {case}"

    def test_weak_duality_feasible_points(self):
        rng = random.Random(7)
        for case in range(40):
            lp, x0 = random_bounded_lp(rng)
            result = solve(lp)
            assert result.status is LpStatus.OPTIMAL
            # any feasible point scores no better than the reported optimum
            assert float(lp.objective @ x0) >= result.objective_value - 1e-6, f"case {case}"

    @pytest.mark.parametrize(
        "rows, status",
        [
            ({}, LpStatus.OPTIMAL),
            ({"a_ub": np.zeros((2, 0)), "b_ub": [0.0, 3.0]}, LpStatus.OPTIMAL),
            ({"a_ub": np.zeros((1, 0)), "b_ub": [-1.0]}, LpStatus.INFEASIBLE),
            ({"a_eq": np.zeros((2, 0)), "b_eq": [0.0, 0.0]}, LpStatus.OPTIMAL),
            ({"a_eq": np.zeros((2, 0)), "b_eq": [6.0, -6.0]}, LpStatus.INFEASIBLE),
        ],
        ids=["no-rows", "ub-slack", "ub-negative", "eq-zero", "eq-nonzero"],
    )
    def test_programs_without_columns_match_highs_oracle(self, rows, status):
        lp = LinearProgram(objective=np.zeros(0), **rows)
        assert solve(lp).status is scipy_solve(lp)[0] is status

    def test_request_with_no_usable_link_matches_highs_oracle(self):
        # with gs_relay off, g0->g2 may not touch g1, and neither end has a link
        from qkdplan.router import Commodity, build_lp

        graph = build_graph({"g0": "gs", "g1": "gs", "g2": "gs", "s1": "leo"}, [("g1", "s1", 10)])
        lp, columns = build_lp(graph, [Commodity("g0", "g2", demand_bits=6)], "mr", gs_relay=False)
        assert lp.num_variables == 0 == len(columns)
        assert solve(lp).status is scipy_solve(lp)[0] is LpStatus.INFEASIBLE


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = random.Random(99)
        lp, _ = random_bounded_lp(rng)
        first = solve(lp)
        second = solve(lp)
        assert first.status is second.status
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)


class TestFeasibilityResiduals:
    def test_optimal_points_satisfy_all_rows(self):
        rng = random.Random(4242)
        for _ in range(20):
            lp, _ = random_bounded_lp(rng)
            result = solve(lp)
            x = result.x
            assert np.all(lp.a_ub @ x - lp.b_ub <= 1e-8 * max(1.0, np.abs(x).max()))
            assert np.max(np.abs(lp.a_eq @ x - lp.b_eq)) <= 1e-8 * max(1.0, np.abs(x).max())
            assert np.all(x >= -1e-8)


@pytest.mark.slow
class TestScale:
    def test_desk_scale_runtime(self):
        # 500 variables, 300 rows, nontrivial optimum, under five seconds
        np_rng = np.random.default_rng(20240818)
        n, n_eq, n_ub = 500, 20, 280
        a_eq = np_rng.uniform(0, 1, size=(n_eq, n))
        x0 = np_rng.uniform(0, 1, size=n)
        b_eq = a_eq @ x0
        a_ub = np_rng.uniform(0, 1, size=(n_ub, n))
        b_ub = a_ub @ x0 + np_rng.uniform(0.5, 1.5, size=n_ub)
        c = np_rng.uniform(-1, 1, size=n)
        lp = LinearProgram(objective=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        started = time.perf_counter()
        result = solve(lp)
        elapsed = time.perf_counter() - started
        assert result.status is LpStatus.OPTIMAL
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
