"""Flow routing: LP encoding, rounding, planners, verification, CSV."""
import dataclasses
import math
import random

import pytest

from qkdplan import router
from qkdplan.lp import LpStatus
from qkdplan.router import (
    Commodity,
    FlowSolution,
    build_lp,
    greedy_round,
    gs_pairs,
    route_mmd,
    route_mr,
    route_sequential_dijkstra,
    solution_to_csv,
    solve_fractional,
    verify_solution,
)

from oracles import (
    build_graph,
    build_lp_loop,
    greedy_round_one_key,
    min_cut_single,
    mmd_cut_bound,
    random_instance,
    sequential_dijkstra_push,
    simple_paths,
    solution_from_csv,
)


@pytest.fixture(scope="module")
def fig3like():
    from qkdplan.netmodel import accumulate_pools, load_scenario

    scenario = load_scenario("src/qkdplan/scenarios/fig3like.json")
    return accumulate_pools(scenario.graph, scenario.window_seconds)


def all_pairs(graph):
    """One commodity without a demand per ground-station pair, as ``mmd`` plans."""
    return [Commodity(a, b) for a, b in gs_pairs(graph)]


def line_pools(pool_a=10, pool_b=6):
    return build_graph(
        {"g1": "gs", "s1": "leo", "g2": "gs"},
        [("g1", "s1", pool_a), ("s1", "g2", pool_b)],
    )


def shared_pools(middle=10):
    return build_graph(
        {"a": "gs", "b": "gs", "c": "gs", "d": "gs", "s1": "leo", "s2": "leo"},
        [
            ("a", "s1", 100),
            ("c", "s1", 100),
            ("s1", "s2", middle),
            ("s2", "b", 100),
            ("s2", "d", 100),
        ],
    )


def diamond_pools(pool=3):
    return build_graph(
        {"a": "gs", "b": "gs", "s1": "leo", "s2": "leo"},
        [("a", "s1", pool), ("s1", "b", pool), ("a", "s2", pool), ("s2", "b", pool)],
    )


def scaled_pools(graph, scale):
    return build_graph(
        {node.id: node.kind.value for node in graph.nodes},
        [(link.a, link.b, link.pool_bits * scale) for link in graph.links],
    )


@pytest.fixture()
def relay_graph():
    # the only route from a to b passes through ground station c
    return build_graph(
        {"a": "gs", "b": "gs", "c": "gs", "s1": "leo", "s2": "leo"},
        [("a", "s1", 10), ("s1", "c", 10), ("c", "s2", 10), ("s2", "b", 10)],
    )


class TestBuildLp:
    def test_single_commodity_path_graph(self):
        graph = line_pools(10, 6)
        assert min_cut_single(graph, "g1", "g2") == 6  # the independent bound
        solution = solve_fractional(graph, [Commodity("g1", "g2")], "mmd", gs_relay=True)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.demands[0] == pytest.approx(6.0, abs=1e-8)

    def test_no_commodities_is_trivially_optimal(self):
        graph = line_pools()
        solution = solve_fractional(graph, [], "mmd", gs_relay=True)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.flows == {} and solution.objective == 0.0

    def test_two_commodities_split_shared_pool(self):
        solution = solve_fractional(
            shared_pools(10), [Commodity("a", "b"), Commodity("c", "d")], "mmd", gs_relay=True
        )
        assert solution.demands[0] == pytest.approx(5.0, abs=1e-8)
        assert solution.demands[1] == pytest.approx(5.0, abs=1e-8)

    def test_satellite_endpoint_rejected(self):
        with pytest.raises(ValueError, match="ground stations"):
            build_lp(line_pools(), [Commodity("g1", "s1")], "mmd", gs_relay=True)

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            build_lp(line_pools(), [Commodity("g1", "nowhere")], "mmd", gs_relay=True)

    def test_demand_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_lp(line_pools(), [Commodity("g1", "g2", demand_bits=4)], "mmd", gs_relay=True)
        with pytest.raises(ValueError):
            build_lp(line_pools(), [Commodity("g1", "g2")], "mr", gs_relay=True)

    def test_inexact_request_refused(self):
        # 2**60 + 1 has no float: the LP would plan 2**60, one bit short
        assert Commodity("g1", "g2", 2**53).demand_bits == 2**53
        for demand in (2**53 + 1, 2**60 + 1):
            with pytest.raises(ValueError, match="demand_bits must be an integer from 0 to 2"):
                Commodity("g1", "g2", demand)

    @pytest.mark.parametrize("demand", [10**5000, -10**5000], ids=["huge", "huge-negative"])
    def test_request_beyond_str_range_is_refused_by_size(self, demand):
        # str() refuses an integer of more than 4,300 digits; the line gives its size
        with pytest.raises(ValueError) as refused:
            Commodity("g1", "g2", demand)
        assert str(refused.value) == (
            "demand_bits must be an integer from 0 to 2**53 = 9007199254740992, "
            "got a 16610-bit integer"
        )

    def test_variable_layout_shape(self, relay_graph):
        graph = line_pools()
        lp, columns = build_lp(graph, [Commodity("g1", "g2")], "mmd", gs_relay=True)
        # t + one demand + 2 flow directions on each of 2 links
        assert lp.num_variables == 1 + 1 + 4 == 2 + len(columns)
        assert columns == (
            (0, ("g1", "s1")),
            (0, ("s1", "g1")),
            (0, ("g2", "s1")),
            (0, ("s1", "g2")),
        )
        lp_mr, columns_mr = build_lp(
            graph, [Commodity("g1", "g2", demand_bits=3)], "mr", gs_relay=True
        )
        assert lp_mr.num_variables == 4 == len(columns_mr)
        assert lp_mr.objective.tolist() == [1.0] * 4  # unit cost per flow column
        assert lp.objective.tolist() == [-1.0] + [0.0] * 5  # maximize t
        assert lp.bounds is None and lp_mr.bounds is None

        commodities = [Commodity("a", "b"), Commodity("a", "c")]
        lp_ban, columns = build_lp(relay_graph, commodities, "mmd", gs_relay=False)
        assert lp_ban.bounds is None
        assert lp_ban.num_variables == 1 + 2 + len(columns)
        # with the transit ban, a->b gets no column touching c, a->c none touching b
        assert [edge for i, edge in columns if i == 0] == [
            ("a", "s1"), ("s1", "a"), ("b", "s2"), ("s2", "b"),
        ]
        assert [edge for i, edge in columns if i == 1] == [
            ("a", "s1"), ("s1", "a"), ("c", "s1"), ("s1", "c"), ("c", "s2"), ("s2", "c"),
        ]

        def conservation_row(i, node):
            row = [0.0] * lp_ban.num_variables
            for col, (j, (u, v)) in enumerate(columns, start=3):
                if j == i:
                    row[col] = (u == node) - (v == node)  # flow out minus flow in
            if node in commodities[i].pair:
                row[1 + i] = -1.0 if node == commodities[i].source else 1.0
            return row

        # and a conservation row only at each node it may use, in graph node order
        assert [node.id for node in relay_graph.nodes] == ["a", "b", "c", "s1", "s2"]
        assert lp_ban.a_eq.tolist() == [
            conservation_row(i, node)
            for i, usable in enumerate([("a", "b", "s1", "s2"), ("a", "c", "s1", "s2")])
            for node in usable
        ]
        assert lp_ban.b_eq.tolist() == [0.0] * 8
        relayed_lp, relayed = build_lp(relay_graph, commodities, "mmd", gs_relay=True)
        assert len(relayed) == 2 * 2 * 4
        assert relayed_lp.a_eq.shape == (2 * 5, 1 + 2 + len(relayed))

    def test_options_are_keyword_only(self):
        commodities = [Commodity("g1", "g2", demand_bits=3)]
        with pytest.raises(TypeError):
            build_lp(
                line_pools(), commodities, "mr", edge_weights={("g1", "s1"): 2.0}, gs_relay=True
            )
        # a positional fourth argument is not taken as gs_relay
        with pytest.raises(TypeError):
            build_lp(line_pools(), commodities, "mr", False)
        with pytest.raises(TypeError):
            solve_fractional(line_pools(), commodities, "mr", False)

    def test_fill_equals_the_per_column_loop(self):
        """The index-array fill gives the bytes of one scalar store at a time,
        on the LP oracle gate's 200 random instances (its seed and draws)."""
        rng = random.Random(424242)
        demands = random.Random(424243)
        for _ in range(200):
            graph, pairs = random_instance(rng, max_paths=6)
            rng.random()  # the gate's over-demand draw
            requests = [(a, b, demands.randint(0, 40)) for a, b in pairs]
            for gs_relay in (True, False):
                for objective in ("mmd", "mr"):
                    commodities = [
                        Commodity(a, b, None if objective == "mmd" else d) for a, b, d in requests
                    ]
                    program, columns = build_lp(graph, commodities, objective, gs_relay=gs_relay)
                    reference, reference_columns = build_lp_loop(
                        graph, commodities, objective, gs_relay=gs_relay
                    )
                    assert columns == reference_columns
                    for name in ("objective", "a_ub", "b_ub", "a_eq", "b_eq"):
                        got, want = getattr(program, name), getattr(reference, name)
                        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestMinHopPath:
    @pytest.mark.parametrize("gs_relay", [True, False])
    def test_matches_brute_force(self, gs_relay):
        # the oracle: the lexicographically smallest among the shortest
        # simple paths whose every hop is usable in its direction
        rng = random.Random(6000 + gs_relay)
        found_paths = 0
        for case in range(300):
            graph, pairs = random_instance(rng, max_commodities=6, max_paths=None)
            hops = [hop for link in graph.links for hop in (link.endpoints, link.endpoints[::-1])]
            usable = {hop for hop in hops if rng.random() < 0.7}
            for a, b in pairs:
                for source, sink in ((a, b), (b, a)):
                    paths = [
                        path
                        for path in simple_paths(graph, source, sink, gs_relay)
                        if all(hop in usable for hop in zip(path, path[1:]))
                    ]
                    expected = min(paths, key=lambda path: (len(path), path), default=None)
                    # the ban enters the search only through the hop predicate
                    barred = set() if gs_relay else set(graph.ground_stations()) - {source, sink}
                    found = router._min_hop_path(
                        graph, lambda u, w: (u, w) in usable and w not in barred, source, sink
                    )
                    assert found == expected, f"case {case}: {source}->{sink}"
                    found_paths += found is not None
        assert found_paths > 300


class TestGreedyRound:
    def test_saturated_integral_input_is_fixed_point(self):
        graph = line_pools(5, 5)
        commodities = (Commodity("g1", "g2"),)
        integral = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 5, (0, ("s1", "g2")): 5},
            demands=(5.0,),
        )
        rounded = greedy_round(graph, integral, gs_relay=True)
        assert rounded.flows == integral.flows
        assert rounded.demands == integral.demands

    def test_fractional_diamond_recovers_full_capacity(self):
        # two disjoint 2-hop paths carrying 2.5 each; flooring leaves one
        # residual key on every link, and the greedy loop ships them all
        graph = diamond_pools(3)
        commodities = (Commodity("a", "b"),)
        fractional = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={
                (0, ("a", "s1")): 2.5,
                (0, ("s1", "b")): 2.5,
                (0, ("a", "s2")): 2.5,
                (0, ("s2", "b")): 2.5,
            },
            demands=(5.0,),
        )
        rounded = greedy_round(graph, fractional, gs_relay=True)
        assert rounded.demands == (6.0,)
        assert rounded.integral
        assert not verify_solution(graph, commodities, rounded, gs_relay=True)

    def test_caps_stop_the_top_up(self):
        graph = diamond_pools(3)
        commodities = (Commodity("a", "b", demand_bits=5),)
        fractional = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={
                (0, ("a", "s1")): 2.5,
                (0, ("s1", "b")): 2.5,
                (0, ("a", "s2")): 2.5,
                (0, ("s2", "b")): 2.5,
            },
            demands=(5.0,),
        )
        rounded = greedy_round(graph, fractional, gs_relay=True)
        assert rounded.demands == (5.0,)

    def test_rounding_never_decreases_floored_demand(self):
        rng = random.Random(1234)
        for _ in range(40):
            graph, pairs = random_instance(rng, max_paths=None)
            commodities = [Commodity(a, b) for a, b in pairs]
            fractional = solve_fractional(graph, commodities, "mmd", gs_relay=True)
            rounded = greedy_round(graph, fractional, gs_relay=True)
            for frac, whole in zip(fractional.demands, rounded.demands):
                assert whole >= int(frac + 1e-6) - 1e-9

    @pytest.mark.parametrize("gs_relay", [True, False])
    @pytest.mark.parametrize("scale", [1, 7, 50, 300])
    def test_rounds_equal_one_key_at_a_time(self, scale, gs_relay):
        # larger pools leave more top-up: multi-round batches, rounds cut
        # short by a shared link, and gaps between demand levels
        rng = random.Random(4000 + scale)
        for case in range(40):
            graph, pairs = random_instance(rng, max_commodities=6, max_paths=None)
            graph = scaled_pools(graph, scale)
            caps = [rng.randint(0, 6 * scale) for _ in pairs]
            mmd = solve_fractional(
                graph, [Commodity(a, b) for a, b in pairs], "mmd", gs_relay=gs_relay
            )
            mr = solve_fractional(
                graph,
                [Commodity(a, b, cap) for (a, b), cap in zip(pairs, caps)],
                "mr",
                gs_relay=gs_relay,
            )
            # mr optima are mostly integral and leave nothing to top up, so
            # the caps also bound a top-up of the mmd flow
            capped_mmd = dataclasses.replace(mmd, commodities=mr.commodities)
            for fractional in (mmd, capped_mmd, mr):
                if fractional.status is not LpStatus.OPTIMAL:
                    continue
                rounded = greedy_round(graph, fractional, gs_relay=gs_relay)
                flows, demands = greedy_round_one_key(graph, fractional, gs_relay)
                assert list(rounded.flows.items()) == list(flows.items()), f"case {case}"
                assert rounded.demands == demands, f"case {case}"

    def test_fig3like_top_up_needs_few_path_searches(self, fig3like, monkeypatch):
        # the top-up ships 144,300 keys here; one search per key takes
        # seconds (the count includes stage 1's decomposition searches)
        calls = []
        search = router._min_hop_path

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(router, "_min_hop_path", counting)
        route_mmd(fig3like, all_pairs(fig3like), gs_relay=True)
        assert len(calls) < 200


class TestRouteMmd:
    def test_fig3like_all_pairs_floor(self, fig3like):
        solution = route_mmd(fig3like, all_pairs(fig3like), gs_relay=True)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.min_demand == 600.0
        # the cut bound certifies 600 is optimal, not just achieved
        assert mmd_cut_bound(fig3like, list(gs_pairs(fig3like))) == pytest.approx(600.0)
        assert not verify_solution(fig3like, solution.commodities, solution, gs_relay=True)

    def test_fig3like_near_triple(self, fig3like):
        pairs = [("A", "B"), ("A", "C"), ("B", "C")]
        solution = route_mmd(fig3like, [Commodity(a, b) for a, b in pairs], gs_relay=True)
        assert solution.min_demand == 30300.0
        assert mmd_cut_bound(fig3like, pairs) == pytest.approx(30300.0)

    def test_disconnected_pair_gets_zero(self):
        graph = build_graph(
            {"g1": "gs", "s1": "leo", "g2": "gs", "s2": "leo"},
            [("g1", "s1", 50), ("g2", "s2", 50)],
        )
        solution = route_mmd(graph, [Commodity("g1", "g2")], gs_relay=True)
        assert solution.demands == (0.0,)
        assert solution.status is LpStatus.OPTIMAL

    def test_default_pairs_cover_all_stations(self, fig3like):
        solution = route_mmd(fig3like, all_pairs(fig3like), gs_relay=True)
        assert len(solution.commodities) == 10

    def test_rounded_solution_is_integral(self, fig3like):
        solution = route_mmd(fig3like, all_pairs(fig3like), gs_relay=True)
        assert solution.integral


class TestRouteMr:
    def test_fig3like_uniform_requests(self, fig3like):
        requests = [Commodity(a, b, 600) for a, b in gs_pairs(fig3like)]
        solution = route_mr(fig3like, requests, gs_relay=True)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.demands == tuple(600.0 for _ in requests)
        assert solution.total_flow == 15600.0  # frozen; must stay >= 2 bits/bit
        assert solution.consumption_rate == pytest.approx(2.6)
        assert not verify_solution(fig3like, solution.commodities, solution, gs_relay=True)

    def test_zero_demand_is_free(self):
        solution = route_mr(line_pools(), [Commodity("g1", "g2", 0)], gs_relay=True)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.total_flow == 0
        assert solution.consumption_rate == 0.0

    def test_overdemand_is_infeasible(self):
        solution = route_mr(line_pools(10, 6), [Commodity("g1", "g2", 7)], gs_relay=True)
        assert solution.status is LpStatus.INFEASIBLE
        assert solution.flows == {}

    def test_takes_no_per_link_weights(self):
        # every relay hop costs one pool bit per key bit; there is no cost knob
        with pytest.raises(TypeError):
            route_mr(
                line_pools(), [("g1", "g2", 1)], edge_weights={("g1", "s1"): 2.0}, gs_relay=True
            )


class TestSequentialDijkstra:
    def test_first_request_drains_shared_bottleneck(self):
        graph = build_graph(
            {"x": "gs", "y": "gs", "z": "gs", "s1": "leo", "s2": "leo"},
            [
                ("x", "s1", 10**6),
                ("z", "s1", 10**6),
                ("s1", "s2", 2400),
                ("s2", "y", 10**6),
            ],
        )
        solution = route_sequential_dijkstra(
            graph, [Commodity("x", "y", 10**6), Commodity("z", "y", 10**6)], gs_relay=True
        )
        assert solution.demands == (2400.0, 0.0)

    def test_single_request_takes_bottleneck(self):
        graph = line_pools(10, 6)
        served = route_sequential_dijkstra(graph, [Commodity("g1", "g2", 4)], gs_relay=True)
        assert served.demands == (4.0,)
        capped = route_sequential_dijkstra(graph, [Commodity("g1", "g2", 100)], gs_relay=True)
        assert capped.demands == (6.0,)

    def test_order_swap_swaps_outcomes(self, fig3like):
        forward = route_sequential_dijkstra(
            fig3like, [Commodity("A", "D", 2000), Commodity("B", "D", 2000)], gs_relay=True
        )
        backward = route_sequential_dijkstra(
            fig3like, [Commodity("B", "D", 2000), Commodity("A", "D", 2000)], gs_relay=True
        )
        by_pair_fwd = dict(zip((c.pair for c in forward.commodities), forward.demands))
        by_pair_bwd = dict(zip((c.pair for c in backward.commodities), backward.demands))
        assert by_pair_fwd[("A", "D")] == by_pair_bwd[("B", "D")]
        assert by_pair_fwd[("B", "D")] == by_pair_bwd[("A", "D")]
        assert by_pair_fwd != by_pair_bwd

    def test_splits_across_paths_after_saturation(self):
        solution = route_sequential_dijkstra(
            diamond_pools(3), [Commodity("a", "b", 6)], gs_relay=True
        )
        assert solution.demands == (6.0,)

    def test_solution_verifies(self, fig3like):
        requests = [Commodity(a, b, 600) for a, b in gs_pairs(fig3like)]
        solution = route_sequential_dijkstra(fig3like, requests, gs_relay=True)
        assert not verify_solution(fig3like, solution.commodities, solution, gs_relay=True)

    @pytest.mark.parametrize("gs_relay", [True, False])
    @pytest.mark.parametrize("scale", [1, 7, 50, 300])
    def test_equals_search_and_push_reference(self, scale, gs_relay):
        rng = random.Random(5000 + scale)
        for case in range(60):
            graph, pairs = random_instance(rng, max_commodities=6, max_paths=None)
            graph = scaled_pools(graph, scale)
            requests = [Commodity(a, b, rng.randint(0, 8 * scale)) for a, b in pairs]
            requests += [
                Commodity(b, a, rng.randint(0, 8 * scale)) for a, b in pairs if rng.random() < 0.3
            ]
            rng.shuffle(requests)
            solution = route_sequential_dijkstra(graph, requests, gs_relay=gs_relay)
            reference = sequential_dijkstra_push(graph, requests, gs_relay)
            assert list(solution.flows.items()) == list(reference.flows.items()), f"case {case}"
            assert solution.demands == reference.demands, f"case {case}"
            assert solution.objective == reference.objective, f"case {case}"


class TestFixedDemands:
    @pytest.mark.parametrize("demand", [5.7, 5.0, True, "5"])
    def test_commodity_demand_must_be_an_integer(self, demand):
        with pytest.raises(ValueError, match="integer"):
            Commodity("g1", "g2", demand_bits=demand)

    @pytest.mark.parametrize(
        "plan, name",
        [(route_mr, "min-resource"), (route_sequential_dijkstra, "the sequential baseline")],
    )
    def test_fixed_demand_planners_refuse_a_variable_demand(self, plan, name):
        # uncapped, the baseline used to fill the pools: a 6-bit plan here
        with pytest.raises(ValueError, match=f"^{name} needs a fixed demand on every commodity$"):
            plan(line_pools(), [Commodity("g1", "g2")], gs_relay=True)

    @pytest.mark.parametrize("demand", [5.7, True])
    @pytest.mark.parametrize("plan", [route_mr, route_sequential_dijkstra])
    def test_planners_do_not_truncate_a_demand(self, plan, demand):
        # a planner's requests are commodities, which refuse such a demand
        with pytest.raises(ValueError, match="integer"):
            plan(line_pools(), [Commodity("g1", "g2", demand)], gs_relay=True)


class TestGsRelayFlag:
    def test_lp_honors_gs_transit_ban(self, relay_graph):
        with_relay = route_mmd(relay_graph, [Commodity("a", "b")], gs_relay=True)
        assert with_relay.min_demand == 10.0
        banned = route_mmd(relay_graph, [Commodity("a", "b")], gs_relay=False)
        assert banned.min_demand == 0.0

    def test_dijkstra_honors_gs_transit_ban(self, relay_graph):
        with_relay = route_sequential_dijkstra(relay_graph, [Commodity("a", "b", 5)], gs_relay=True)
        assert with_relay.demands == (5.0,)
        banned = route_sequential_dijkstra(relay_graph, [Commodity("a", "b", 5)], gs_relay=False)
        assert banned.demands == (0.0,)

    def test_endpoints_still_usable_when_banned(self, relay_graph):
        solution = route_mmd(relay_graph, [Commodity("a", "c")], gs_relay=False)
        assert solution.min_demand == 10.0

    @pytest.mark.parametrize(
        "plan",
        [
            lambda g: build_lp(g, [Commodity("a", "b")], "mmd"),
            lambda g: solve_fractional(g, [Commodity("a", "b")], "mmd"),
            lambda g: route_mmd(g, [Commodity("a", "b")]),
            lambda g: route_mr(g, [Commodity("a", "b", 1)]),
            lambda g: route_sequential_dijkstra(g, [Commodity("a", "b", 1)]),
        ],
        ids=["build_lp", "solve_fractional", "route_mmd", "route_mr", "route_sequential_dijkstra"],
    )
    def test_planners_need_the_ban_setting(self, relay_graph, plan):
        # no entry point falls back to allowing transit through station c
        with pytest.raises(TypeError, match="gs_relay"):
            plan(relay_graph)

    def test_route_mmd_needs_its_commodities(self, relay_graph):
        with pytest.raises(TypeError, match="commodities"):
            route_mmd(relay_graph, gs_relay=True)

    def test_rounding_needs_the_ban_setting(self, relay_graph):
        fractional = solve_fractional(relay_graph, [Commodity("a", "b")], "mmd", gs_relay=False)
        with pytest.raises(TypeError):
            greedy_round(relay_graph, fractional)

    def test_verification_needs_the_ban_setting(self, relay_graph):
        # leaving gs_relay out must not silently skip the transit-ban check
        through_c = route_mmd(relay_graph, [Commodity("a", "b")], gs_relay=True)
        with pytest.raises(TypeError):
            verify_solution(relay_graph, through_c.commodities, through_c)

    def test_banned_rounding_tops_up_nothing_through_c(self, relay_graph):
        # the LP delivers 0; a top-up without the ban would ship 10 keys via c
        fractional = solve_fractional(relay_graph, [Commodity("a", "b")], "mmd", gs_relay=False)
        assert fractional.demands == (0.0,)
        rounded = greedy_round(relay_graph, fractional, gs_relay=False)
        assert rounded.demands == (0.0,)
        assert not verify_solution(relay_graph, rounded.commodities, rounded, gs_relay=False)


class TestVerifySolution:
    def test_foreign_station_detour_detected(self):
        # conservation and capacity hold, but a->b passes through station c
        graph = build_graph(
            {"a": "gs", "b": "gs", "c": "gs", "s1": "leo"},
            [("a", "s1", 10), ("s1", "b", 10), ("c", "s1", 10)],
        )
        commodities = (Commodity("a", "b"),)
        detour = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={
                (0, ("a", "s1")): 5,
                (0, ("s1", "b")): 5,
                (0, ("s1", "c")): 1,
                (0, ("c", "s1")): 1,
            },
            demands=(5.0,),
        )
        assert not verify_solution(graph, commodities, detour, gs_relay=True)
        violations = verify_solution(graph, commodities, detour, gs_relay=False)
        assert violations
        assert any("transits ground station c" in v for v in violations)
        assert not any("station a" in v or "station b" in v for v in violations)

    def test_transit_reported_once_per_station(self, relay_graph):
        # the path a-s1-c-s2-b has two flows touching c: one violation
        through_c = route_mmd(relay_graph, [Commodity("a", "b")], gs_relay=True)
        violations = verify_solution(relay_graph, through_c.commodities, through_c, gs_relay=False)
        assert violations == ("commodity 0 (a->b) transits ground station c",)

    def test_mr_delivery_below_request_detected(self):
        # the LP sends half a bit each way round the ring for both requests;
        # no integral plan meets both
        ring = ["g1", "s1", "g2", "s2", "g3", "s3", "g4", "s4"]
        graph = build_graph(
            {n: "gs" if n[0] == "g" else "leo" for n in ring},
            [(a, b, 1) for a, b in zip(ring, ring[1:] + ring[:1])],
        )
        short = route_mr(graph, [Commodity("g1", "g3", 1), Commodity("g2", "g4", 1)], gs_relay=True)
        assert short.demands == (1.0, 0.0)
        violations = verify_solution(graph, short.commodities, short, gs_relay=True)
        assert violations == ("commodity 1 (g2->g4) delivers 0 < requested 1",)

    def test_plan_of_other_commodities_detected(self):
        # a valid 3-bit plan for g1->g2, checked against a request for 5
        graph = line_pools(10, 10)
        solution = route_sequential_dijkstra(graph, [Commodity("g1", "g2", 3)], gs_relay=True)
        assert not verify_solution(graph, solution.commodities, solution, gs_relay=True)
        violations = verify_solution(graph, [Commodity("g1", "g2", 5)], solution, gs_relay=True)
        assert violations == ("the plan's commodities differ from the requested ones",)

    def test_dijkstra_may_deliver_below_request(self):
        # the baseline serves what the pools allow; a shortfall is its outcome
        solution = route_sequential_dijkstra(
            line_pools(10, 6), [Commodity("g1", "g2", 9)], gs_relay=True
        )
        assert solution.demands == (6.0,)
        assert not verify_solution(line_pools(10, 6), solution.commodities, solution, gs_relay=True)

    def test_delivery_above_request_detected(self):
        graph = line_pools(10, 6)
        commodities = (Commodity("g1", "g2", demand_bits=3),)
        bogus = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 4, (0, ("s1", "g2")): 4},
            demands=(4.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert violations
        assert any("delivers 4 > requested 3" in v for v in violations)
        exact = route_mr(graph, [Commodity("g1", "g2", 3)], gs_relay=True)
        assert not verify_solution(graph, commodities, exact, gs_relay=True)

    def test_integral_plans_are_checked_exactly(self):
        # a relative slack of 1e-6 lets 3 bits through on 3,000,000-bit pools
        graph = line_pools(3_000_000, 3_000_000)
        commodities = (Commodity("g1", "g2", demand_bits=3_000_000),)
        over = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 3_000_003, (0, ("s1", "g2")): 3_000_003},
            demands=(3_000_003.0,),
        )
        violations = verify_solution(graph, commodities, over, gs_relay=True)
        assert violations == (
            "capacity exceeded on link g1-s1: 3000003.0 used > 3000000 pooled",
            "capacity exceeded on link g2-s1: 3000003.0 used > 3000000 pooled",
            "commodity 0 (g1->g2) delivers 3e+06 > requested 3000000",
        )
        # a relay that loses 2 bits breaks conservation, even for the baseline
        lossy = FlowSolution(
            kind="dijkstra",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 2_999_998, (0, ("s1", "g2")): 2_999_996},
            demands=(2_999_998.0,),
        )
        violations = verify_solution(graph, commodities, lossy, gs_relay=True)
        assert any("conservation violated at node s1" in v for v in violations)
        assert any("conservation violated at node g2" in v for v in violations)

    def test_fractional_plan_is_refused(self):
        # within its pools and balanced at every node, but half a key is no key
        graph = line_pools(3_000_001, 3_000_001)
        fractional = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=(Commodity("g1", "g2"),),
            flows={(0, ("g1", "s1")): 3_000_000.5, (0, ("s1", "g2")): 3_000_000.5},
            demands=(3_000_000.5,),
        )
        violations = verify_solution(graph, fractional.commodities, fractional, gs_relay=True)
        assert violations == ("the plan has a fractional flow or demand",)

    def test_status_other_than_optimal_is_reported_first(self):
        graph = line_pools(10, 6)
        commodities = (Commodity("g1", "g2", 20),)
        infeasible = FlowSolution("mr", LpStatus.INFEASIBLE, commodities, {}, (0.0,))
        violations = verify_solution(graph, commodities, infeasible, gs_relay=True)
        assert violations == (
            "the plan's status is Infeasible",
            "commodity 0 (g1->g2) delivers 0 < requested 20",
        )

    def test_overdrawn_fractional_plan_rounds_to_a_reported_one(self):
        # the rounding floors 7.5 to 7 keys on pools of 6 and 10, and the
        # top-up never enters the overdrawn g2-s1; the verifier names it
        graph = line_pools(10, 6)
        commodities = (Commodity("g1", "g2"),)
        over = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 7.5, (0, ("s1", "g2")): 7.5},
            demands=(7.5,),
        )
        rounded = greedy_round(graph, over, gs_relay=True)
        assert rounded.demands == (7.0,)
        violations = verify_solution(graph, commodities, rounded, gs_relay=True)
        assert violations == ("capacity exceeded on link g2-s1: 7.0 used > 6 pooled",)

    def test_tampered_conservation_detected(self, fig3like):
        solution = route_mmd(fig3like, [Commodity("A", "B")], gs_relay=True)
        flows = dict(solution.flows)
        flows[(0, ("leo1", "B"))] = flows.get((0, ("leo1", "B")), 0) + 1
        tampered = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=solution.commodities,
            flows=flows,
            demands=solution.demands,
        )
        violations = verify_solution(fig3like, solution.commodities, tampered, gs_relay=True)
        assert violations
        assert any("conservation" in v and "leo1" in v for v in violations)

    def test_capacity_violation_names_link(self):
        graph = line_pools(10, 6)
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): 7, (0, ("s1", "g2")): 7},
            demands=(7.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert violations
        assert any("capacity exceeded on link g2-s1" in v for v in violations)

    def test_negative_flow_detected(self):
        graph = line_pools()
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "s1")): -1, (0, ("s1", "g2")): -1},
            demands=(-1.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert any("negative flow" in v for v in violations)

    def test_unknown_edge_detected(self):
        graph = line_pools()
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution(
            kind="mr",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "g2")): 1},
            demands=(0.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert any("nonexistent link" in v for v in violations)

    def test_flow_on_nonexistent_link_counts_for_conservation(self):
        # g1 and g2 are nodes without a link between them: the flow is
        # reported once and still balances the delivered key at both ends
        graph = line_pools()
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(0, ("g1", "g2")): 1},
            demands=(1.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert violations == ("flow on nonexistent link g1-g2 (commodity 0)",)

    @pytest.mark.parametrize(
        "flows, demands, violation",
        [
            (
                {(0, ("g1", "s1")): math.nan, (0, ("s1", "g2")): math.nan},
                (5.0,),
                "non-finite flow nan on g1->s1 (commodity 0)",
            ),
            (
                {(0, ("g1", "s1")): 5, (0, ("s1", "g2")): 5},
                (math.nan,),
                "commodity 0 demand nan is not a finite number >= 0",
            ),
            (  # reversed flows balance a negative demand
                {(0, ("g2", "s1")): 3, (0, ("s1", "g1")): 3},
                (-3.0,),
                "commodity 0 demand -3.0 is not a finite number >= 0",
            ),
            (
                {(0, ("g1", "s1")): 5, (0, ("s1", "g2")): 5},
                (5.0, 7.0),
                "demand count 2 != commodity count 1",
            ),
            ({}, (), "demand count 0 != commodity count 1"),
        ],
        ids=["nan-flows", "nan-demand", "negative-demand", "extra-demand", "no-demands"],
    )
    def test_malformed_plan_detected(self, flows, demands, violation):
        graph = line_pools()
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution("mmd", LpStatus.OPTIMAL, commodities, flows, demands)
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert violation in violations

    def test_unknown_commodity_reported_once_per_index(self):
        graph = line_pools()
        commodities = (Commodity("g1", "g2"),)
        bogus = FlowSolution(
            kind="mmd",
            status=LpStatus.OPTIMAL,
            commodities=commodities,
            flows={(3, ("g1", "s1")): 1, (3, ("s1", "g2")): 1},
            demands=(0.0,),
        )
        violations = verify_solution(graph, commodities, bogus, gs_relay=True)
        assert violations == ("flow references unknown commodity index 3",)


class TestDerivedValues:
    @pytest.mark.parametrize("kind, objective", [("mmd", 2.0), ("mr", 14.0), ("dijkstra", 7.0)])
    def test_objective_follows_the_kind(self, kind, objective):
        flows = {
            (0, ("g1", "s1")): 2, (0, ("s1", "g2")): 2,
            (1, ("g1", "s1")): 5, (1, ("s1", "g2")): 5,
        }
        commodities = (Commodity("g1", "g2"), Commodity("g1", "g2"))
        solution = FlowSolution(kind, LpStatus.OPTIMAL, commodities, flows, (2.0, 5.0))
        assert solution.objective == objective
        assert dataclasses.replace(solution, status=LpStatus.INFEASIBLE).objective is None

    def test_replaced_flows_and_demands_update_every_total(self):
        requests = [Commodity("g1", "g2", 3), Commodity("g1", "g2", 0)]
        plan = route_mr(line_pools(10, 10), requests, gs_relay=True)
        assert plan.objective == 6.0
        assert plan.pair_totals() == ((3.0, 6, 2.0), (0.0, 0, 0.0))
        doubled = {key: 2 * value for key, value in plan.flows.items()}
        more = dataclasses.replace(plan, flows=doubled, demands=(6.0, 0.0))
        assert more.objective == 12.0
        assert more.pair_totals() == ((6.0, 12, 2.0), (0.0, 0, 0.0))



class TestCsvRoundTrip:
    @pytest.mark.parametrize("objective", ["mmd", "mr", "dijkstra"])
    def test_round_trip_is_exact(self, fig3like, objective):
        requests = [Commodity(a, b, 600) for a, b in gs_pairs(fig3like)]
        if objective == "mmd":
            solution = route_mmd(fig3like, all_pairs(fig3like), gs_relay=True)
        elif objective == "mr":
            solution = route_mr(fig3like, requests, gs_relay=True)
        else:
            solution = route_sequential_dijkstra(fig3like, requests, gs_relay=True)
        text = solution_to_csv(solution)
        parsed = solution_from_csv(text)
        assert parsed.kind == solution.kind
        assert parsed.status is solution.status
        assert parsed.objective == solution.objective
        assert parsed.demands == solution.demands
        assert parsed.flows == solution.flows
        assert [c.pair for c in parsed.commodities] == [c.pair for c in solution.commodities]

    def test_fractional_values_survive(self):
        graph = shared_pools(11)
        commodities = [Commodity("a", "b"), Commodity("c", "d")]
        fractional = solve_fractional(graph, commodities, "mmd", gs_relay=True)
        text = solution_to_csv(fractional)
        parsed = solution_from_csv(text)
        assert parsed.flows == fractional.flows
        assert parsed.demands == fractional.demands

    def test_duplicate_pair_commodities_round_trip(self):
        graph = line_pools(10, 10)
        requests = [Commodity("g1", "g2", 3), Commodity("g1", "g2", 4)]
        solution = route_mr(graph, requests, gs_relay=True)
        parsed = solution_from_csv(solution_to_csv(solution))
        assert parsed.demands == solution.demands
        assert parsed.flows == solution.flows

    def test_duplicate_pair_on_disjoint_paths_round_trips(self):
        # Commodity 0 takes m->a->q and commodity 1 m->z->q, so the sorted
        # flow rows keep increasing across the boundary between them.
        graph = build_graph(
            {"m": "gs", "q": "gs", "a": "leo", "z": "leo"},
            [("m", "a", 5), ("a", "q", 5), ("m", "z", 5), ("z", "q", 5)],
        )
        requests = [Commodity("m", "q", 5), Commodity("m", "q", 5)]
        solution = route_sequential_dijkstra(graph, requests, gs_relay=True)
        assert solution.flows == {
            (0, ("m", "a")): 5, (0, ("a", "q")): 5,
            (1, ("m", "z")): 5, (1, ("z", "q")): 5,
        }
        parsed = solution_from_csv(solution_to_csv(solution))
        assert parsed.flows == solution.flows
        assert parsed.demands == solution.demands

    def test_rows_that_do_not_add_up_are_rejected(self):
        text = solution_to_csv(route_mmd(line_pools(), [Commodity("g1", "g2")], gs_relay=True))
        with pytest.raises(ValueError, match="consumed"):
            solution_from_csv(text.replace("g1->g2,6,12,", "g1->g2,6,5,"))


class TestRandomizedProperties:
    def test_all_planners_verify_on_random_instances(self):
        rng = random.Random(2025)
        for case in range(60):
            graph, pairs = random_instance(rng, max_paths=None)
            mmd = route_mmd(graph, [Commodity(a, b) for a, b in pairs], gs_relay=True)
            assert not verify_solution(graph, mmd.commodities, mmd, gs_relay=True), f"case {case}"
            assert mmd.integral, f"case {case}"
            requests = [
                Commodity(c.source, c.sink, int(d)) for c, d in zip(mmd.commodities, mmd.demands)
            ]
            mr = route_mr(graph, requests, gs_relay=True)
            assert mr.status is LpStatus.OPTIMAL, f"case {case}"
            assert not verify_solution(graph, mr.commodities, mr, gs_relay=True), f"case {case}"
            dijkstra = route_sequential_dijkstra(graph, requests, gs_relay=True)
            violations = verify_solution(graph, dijkstra.commodities, dijkstra, gs_relay=True)
            assert not violations, f"case {case}"

    def test_mmd_dominates_sequential_baseline(self):
        rng = random.Random(31415)
        for case in range(50):
            graph, pairs = random_instance(rng, max_paths=None)
            total = sum(link.pool_bits for link in graph.links) + 1
            mmd = route_mmd(graph, [Commodity(a, b) for a, b in pairs], gs_relay=True)
            baseline = route_sequential_dijkstra(
                graph, [Commodity(a, b, total) for a, b in pairs], gs_relay=True
            )
            assert mmd.min_demand >= baseline.min_demand, f"case {case}"

    def test_rounded_minimum_reaches_the_lp_floor(self):
        rng = random.Random(8675309)
        for case in range(80):
            graph, pairs = random_instance(rng, max_paths=None)
            commodities = [Commodity(a, b) for a, b in pairs]
            fractional = solve_fractional(graph, commodities, "mmd", gs_relay=True)
            rounded = greedy_round(graph, fractional, gs_relay=True)
            assert rounded.min_demand >= int(fractional.objective + 1e-9), f"case {case}"

    def test_relayed_bits_cost_at_least_two(self):
        rng = random.Random(777)
        for case in range(40):
            graph, pairs = random_instance(rng, max_paths=None)
            mmd = route_mmd(graph, [Commodity(a, b) for a, b in pairs], gs_relay=True)
            for delivered, consumed, _ in mmd.pair_totals():
                if delivered > 0:
                    assert consumed >= 2 * delivered, f"case {case}"
