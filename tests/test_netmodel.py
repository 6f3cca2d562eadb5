"""Graph snapshots, pool accounting, XOR relay demo, scenario loading."""
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdplan.linkbudget import link_performance, preset_link
from qkdplan.netmodel import (
    Commodity,
    Link,
    Node,
    NodeKind,
    QkdGraph,
    ScenarioError,
    accumulate_pools,
    load_scenario,
)

from oracles import InsufficientKeysError, consume, link_of, relay_chain_demo


def line_graph(rate_a=10.0, rate_b=6.0, pool_a=0, pool_b=0) -> QkdGraph:
    return QkdGraph(
        nodes=(
            Node("g1", NodeKind.GROUND_STATION),
            Node("s1", NodeKind.LEO_SATELLITE),
            Node("g2", NodeKind.GROUND_STATION),
        ),
        links=(
            Link("g1", "s1", rate_a, pool_a),
            Link("s1", "g2", rate_b, pool_b),
        ),
    )


class TestAccumulate:
    def test_one_minute_of_leo_rate(self):
        graph = line_graph(rate_a=1000.0)
        grown = accumulate_pools(graph, 60.0)
        assert link_of(grown, "g1", "s1").pool_bits == 60000

    def test_snapshot_equals_a_graph_built_from_its_parts(self):
        # every attribute __post_init__ derives, lookup tables included
        grown = accumulate_pools(line_graph(rate_a=3.0, rate_b=2.0, pool_b=4), 5.0)
        built = QkdGraph(grown.nodes, grown.links)
        assert vars(grown) == vars(built)
        assert [field.name for field in dataclasses.fields(QkdGraph)] == ["nodes", "links"]
        assert set(vars(built)) > {"_neighbours", "_nodes_by_id"}

    def test_zero_duration_is_identity(self):
        graph = line_graph(pool_a=17)
        again = accumulate_pools(graph, 0.0)
        assert link_of(again, "g1", "s1").pool_bits == 17

    def test_intersatellite_rate(self):
        graph = line_graph(rate_a=40.0)
        assert link_of(accumulate_pools(graph, 60.0), "g1", "s1").pool_bits == 2400

    def test_fractional_bits_floored(self):
        graph = line_graph(rate_a=1.5)
        assert link_of(accumulate_pools(graph, 1.0), "g1", "s1").pool_bits == 1

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            accumulate_pools(line_graph(), -1.0)

    @pytest.mark.parametrize(
        "rate, duration", [(1e308, 10.0), (1.0, float("inf")), (1.0, float("nan"))]
    )
    def test_non_finite_pool_rejected(self, rate, duration):
        with pytest.raises(ValueError, match="g1-s1: a pool of .* bits is not finite"):
            accumulate_pools(line_graph(rate_a=rate), duration)

    def test_pools_beyond_exact_range_rejected(self):
        # 2**52 + 2**52 bits is the most whose sums stay exact in floats
        at_limit = accumulate_pools(line_graph(rate_a=2.0**52, rate_b=2.0**52), 1.0)
        assert sum(link.pool_bits for link in at_limit.links) == 2**53
        with pytest.raises(ValueError, match=r"pools total 9007199254740993 bits, more than 2\*\*53"):
            accumulate_pools(line_graph(rate_a=2.0**52, rate_b=2.0**52, pool_b=1), 1.0)

    @given(
        st.floats(min_value=0.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=150)
    def test_split_accumulation_within_one_bit_per_call(self, rate, t1, t2):
        graph = line_graph(rate_a=rate)
        split = accumulate_pools(accumulate_pools(graph, t1), t2)
        joint = accumulate_pools(graph, t1 + t2)
        diff = abs(
            link_of(split, "g1", "s1").pool_bits
            - link_of(joint, "g1", "s1").pool_bits
        )
        assert diff <= 2  # one flooring per call

    def test_original_snapshot_untouched(self):
        graph = line_graph()
        accumulate_pools(graph, 60.0)
        assert link_of(graph, "g1", "s1").pool_bits == 0


class TestConsume:
    def test_full_drain(self):
        graph = line_graph(pool_a=600)
        assert link_of(consume(graph, ("g1", "s1"), 600), "g1", "s1").pool_bits == 0

    def test_overdraw_names_link(self):
        graph = line_graph(pool_a=600)
        with pytest.raises(InsufficientKeysError, match="g1-s1"):
            consume(graph, ("g1", "s1"), 601)

    def test_partial_consumption(self):
        graph = line_graph(pool_a=2400)
        assert link_of(consume(graph, ("g1", "s1"), 900), "g1", "s1").pool_bits == 1500

    def test_endpoint_order_irrelevant(self):
        graph = line_graph(pool_a=10)
        assert link_of(consume(graph, ("s1", "g1"), 4), "g1", "s1").pool_bits == 6

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            consume(line_graph(), ("g1", "g2"), 1)

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=8))
    def test_pools_never_go_negative(self, amounts):
        graph = line_graph(pool_a=100)
        for amount in amounts:
            try:
                graph = consume(graph, ("g1", "s1"), amount)
            except InsufficientKeysError:
                break
        assert link_of(graph, "g1", "s1").pool_bits >= 0


class TestRelayChain:
    def test_single_hop_example(self):
        trace = relay_chain_demo("1010", ["S", "D"], ["1100"])
        assert trace.transmitted == ("0110",)
        assert trace.recovered == "1010"
        assert trace.consumed_bits == 4

    def test_consumption_scales_with_hops(self):
        trace = relay_chain_demo("10110", ["S", "I1", "I2", "D"], ["00111", "11011", "10101"])
        assert trace.consumed_bits == 5 * 3
        assert trace.recovered == "10110"

    def test_zero_key_transmits_link_keys(self):
        trace = relay_chain_demo("0000", ["S", "I", "D"], ["1100", "0011"])
        assert trace.transmitted == ("1100", "0011")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relay_chain_demo("1010", ["S", "D"], ["110"])
        with pytest.raises(ValueError):
            relay_chain_demo("1010", ["S", "I", "D"], ["1100"])

    def test_non_bit_strings_rejected(self):
        with pytest.raises(ValueError):
            relay_chain_demo("10a0", ["S", "D"], ["1100"])

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_property(self, length, hops, rng):
        key = "".join(rng.choice("01") for _ in range(length))
        link_keys = ["".join(rng.choice("01") for _ in range(length)) for _ in range(hops)]
        path = [f"n{i}" for i in range(hops + 1)]
        trace = relay_chain_demo(key, path, link_keys)
        assert trace.recovered == key
        assert trace.consumed_bits == length * hops


class TestGraphValidation:
    def test_direct_gs_gs_link_rejected(self):
        with pytest.raises(ValueError, match="cannot share a direct link"):
            QkdGraph(
                nodes=(Node("a", NodeKind.GROUND_STATION), Node("b", NodeKind.GROUND_STATION)),
                links=(Link("a", "b", 1.0),),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate node"):
            QkdGraph(
                nodes=(Node("a", NodeKind.GROUND_STATION), Node("a", NodeKind.LEO_SATELLITE)),
                links=(),
            )

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="duplicate link"):
            QkdGraph(
                nodes=(Node("a", NodeKind.GROUND_STATION), Node("s", NodeKind.LEO_SATELLITE)),
                links=(Link("a", "s", 1.0), Link("s", "a", 2.0)),
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            QkdGraph(nodes=(Node("a", NodeKind.GROUND_STATION),), links=(Link("a", "x", 1.0),))

    @pytest.mark.parametrize("rate", [-1.0, float("inf"), float("nan")])
    def test_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="link rate"):
            Link("g1", "s1", rate)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a", 1.0)

    def test_gs_with_two_geo_links_warns(self):
        with pytest.warns(UserWarning, match="GEO links"):
            QkdGraph(
                nodes=(
                    Node("a", NodeKind.GROUND_STATION),
                    Node("x", NodeKind.GEO_SATELLITE),
                    Node("y", NodeKind.GEO_SATELLITE),
                ),
                links=(Link("a", "x", 1.0), Link("a", "y", 1.0)),
            )

    def test_leo_with_three_ground_links_warns(self):
        with pytest.warns(UserWarning, match="ground links") as record:
            QkdGraph(
                nodes=(
                    Node("a", NodeKind.GROUND_STATION),
                    Node("b", NodeKind.GROUND_STATION),
                    Node("c", NodeKind.GROUND_STATION),
                    Node("s", NodeKind.LEO_SATELLITE),
                ),
                links=(Link("a", "s", 1.0), Link("b", "s", 1.0), Link("c", "s", 1.0)),
            )
        # the warning names the code that built the graph, not the
        # dataclass-generated __init__ ("<string>")
        assert [w.filename for w in record] == [__file__]

    def test_links_sorted_canonically(self):
        graph = line_graph()
        assert [l.endpoints for l in graph.links] == [("g1", "s1"), ("g2", "s1")]


SCENARIO = {
    "nodes": [
        {"id": "g1", "kind": "gs"},
        {"id": "s1", "kind": "leo"},
        {"id": "g2", "kind": "gs"},
    ],
    "links": [
        {"a": "g1", "b": "s1", "rate_bps": 10},
        {"a": "s1", "b": "g2", "rate_bps": 6},
    ],
    "elapsed_seconds": 60,
    "requests": [{"src": "g1", "dst": "g2", "demand_bits": 100}],
    "options": {"gs_relay": False},
}


def scenario_with(**patch):
    doc = json.loads(json.dumps(SCENARIO))
    doc.update(patch)
    return doc


class TestScenarioLoading:
    def test_valid_scenario(self):
        scenario = load_scenario(SCENARIO)
        assert scenario.window_seconds == 60
        assert scenario.gs_relay is False
        assert scenario.requests == (Commodity("g1", "g2", 100),)
        assert link_of(scenario.graph, "g1", "s1").rate_bps == 10

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        assert load_scenario(path).window_seconds == 60

    def test_preset_link_gets_model_rate(self):
        doc = scenario_with(
            links=[
                {"a": "g1", "b": "s1", "preset": "geo-gs", "distance_m": 39000e3},
                {"a": "s1", "b": "g2", "rate_bps": 6},
            ]
        )
        scenario = load_scenario(doc)
        expected = link_performance(preset_link("geo-gs", distance_m=39000e3)).rate_bps
        assert link_of(scenario.graph, "g1", "s1").rate_bps == expected

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"nodes": "zap"}, "scenario.nodes"),
            ({"nodes": [{"id": "g1"}]}, "nodes[0]"),
            ({"nodes": [{"id": "g1", "kind": "balloon"}]}, "nodes[0].kind"),
            ({"nodes": [{"id": "a b", "kind": "gs"}]}, "nodes[0].id"),
            ({"surprise": 1}, "unknown fields"),
            ({"elapsed_seconds": -2}, "elapsed_seconds"),
            ({"options": {"gs_relay": "yes"}}, "gs_relay"),
            ({"options": {"turbo": True}}, "options"),
            ({"requests": [{"src": "g1", "dst": "g2"}]}, "requests[0]"),
            (
                {"requests": [{"src": "g1", "dst": "g2", "demand_bits": True}]},
                "requests[0].demand_bits",
            ),
            (
                {"requests": [{"src": "g1", "dst": "s1", "demand_bits": 5}]},
                "not a ground station",
            ),
            (
                {"requests": [{"src": "g1", "dst": "g1", "demand_bits": 5}]},
                "must differ",
            ),
            ({"links": [{"a": "g1", "b": "s1"}]}, "links[0]"),
            (
                {"links": [{"a": "g1", "b": "s1", "rate_bps": 5, "preset": "geo-gs"}]},
                "not both",
            ),
            (
                {"links": [{"a": "g1", "b": "s1", "preset": "meo"}]},
                "links[0].preset",
            ),
            (
                {"links": [{"a": "g1", "b": "g2", "rate_bps": 5}]},
                "direct link",
            ),
            (
                {"requests": [{"src": "g1", "dst": "g2", "demand_bits": 10**400}]},
                "requests[0].demand_bits",
            ),
            (
                {"links": [{"a": "g1", "b": "s1", "preset": "leo-gs", "distance_m": 1e300}]},
                "links[0]: rate model out of numeric range",
            ),
            ({"nodes": [{"id": "g1", "kind": ["gs"]}]}, "nodes[0].kind"),
            ({"requests": None}, "scenario.requests: expected a list"),
            ({"requests": 5}, "scenario.requests: expected a list"),
            ({"requests": {}}, "scenario.requests: expected a list"),
            ({"requests": {"x": 1}}, "scenario.requests: expected a list"),
            (
                {"links": [{"a": "g1", "b": "g1", "rate_bps": 5}]},
                "links[0]: endpoints must be distinct",
            ),
            (
                {"nodes": SCENARIO["nodes"] + [{"id": "g1", "kind": "gs"}]},
                "nodes[3]: duplicate node id 'g1'",
            ),
            (
                {"links": [{"a": "g1", "b": "s1", "rate_bps": 5}, {"a": "zz", "b": "s1", "rate_bps": 5}]},
                "links[1]: .* references unknown node 'zz'",
            ),
            (
                {"links": [{"a": "g1", "b": "s1", "rate_bps": 5}, {"a": "s1", "b": "g1", "rate_bps": 5}]},
                "links[1]: duplicate link between 'g1' and 's1'",
            ),
            (
                {"requests": [{"src": "g1", "dst": "g2", "demand_bits": 2**53 + 1}]},
                "requests[0].demand_bits: expected an integer from 0 to 2\\*\\*53 = 9007199254740992, "
                "got 9007199254740993",
            ),
            (
                {"links": [{"a": "g2", "b": "g1", "rate_bps": 5}]},
                "links[0]: ground stations 'g1' and 'g2' cannot share a direct link",
            ),
            (
                {"links": [{"a": "g1", "b": "s1", "preset": "meo"}]},
                "^links[0].preset: unknown preset 'meo'; known presets: geo-gs, leo-gs, leo-leo$",
            ),
            ({"links": [{"a": "g1", "b": "s1", "preset": 5}]}, "^links[0].preset: "),
            (
                {"links": [{"a": "g1", "b": "s1", "preset": "meo", "distance_m": -1}]},
                "^links[0].distance_m: ",
            ),
        ],
    )
    def test_schema_violations_name_the_field(self, patch, fragment):
        with pytest.raises(ScenarioError, match="(?s)" + fragment.replace("[", r"\[")):
            load_scenario(scenario_with(**patch))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [,]}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b"[" * 200_000 + b"]" * 200_000, "recursion"),
            ('{"nodes": [], "links": []}'.encode("utf-16"), "codec can't decode"),
            (b'{"requests": [{"src": "g1", "dst": "g2", "demand_bits": ' + b"7" * 5001 + b"}]}",
             "digits"),
        ],
        ids=["nested", "utf-16", "long-integer"],
    )
    def test_undecodable_file_names_the_path(self, tmp_path, content, fragment):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError) as raised:
            load_scenario(path)
        message = str(raised.value)
        assert message.startswith(f"{path}: ") and fragment in message, message

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_near_field_preset_distance_rejected(self):
        doc = scenario_with(
            links=[{"a": "g1", "b": "s1", "preset": "leo-gs", "distance_m": 1.0}]
        )
        with pytest.raises(ScenarioError, match="far-field"):
            load_scenario(doc)
