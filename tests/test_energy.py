"""Per-message energy attribution, path sums, and error-class costs."""

import numpy as np
import pytest

import discrete_sim
from daqflow.classifier import ClassifierModel, ParametricScores
from daqflow.energy import (
    build_ledger,
    energy_balance,
    error_costs,
    mean_total_energy,
    total_energy,
)
from daqflow.errors import ModelError
from daqflow.functions import ConstantFn, LinearFn
from daqflow.graph import (
    CommLink,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    propagate_flows,
)


def _link(i, src, dst, e=0.0, bw=1e10):
    return CommLink(id=i, source=src, target=dst, energy_per_bit=e, bandwidth_per_channel=bw)


def _classifier(sep=2.0):
    return ClassifierModel(
        positive=ParametricScores("normal", loc=sep, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )


def _count_paths(graph, src, dst):
    # exhaustive DAG path enumeration; fine at this size
    if src == dst:
        return 1
    return sum(_count_paths(graph, link.target, dst) for link in graph.links_out(src))


def test_ledger_attribution_by_hand():
    g = PipelineGraph(
        nodes=(
            SensorNode(
                id="sen", sample_size=1000.0, sample_rate=1e6,
                relevant_fraction=0.25, constant_power_w=500.0,
            ),
            ProcessNode(
                id="proc", complexity=LinearFn(slope=2.0), energy_per_op=1e-9,
                output_size=LinearFn(slope=0.5), constant_power_w=3000.0,
            ),
            OutputNode(id="out"),
        ),
        links=(_link("l0", "sen", "proc", e=1e-12), _link("l1", "proc", "out", e=2e-12)),
    )
    a = propagate_flows(g)
    led = build_ledger(g, a)

    assert led.link_energy["l0"] == pytest.approx(1000.0 * 1e-12)
    assert led.link_energy["l1"] == pytest.approx(500.0 * 2e-12)
    assert led.node_energy["sen"] == pytest.approx(500.0 / 1e6)
    # compute + incoming transfer + constant-draw share
    assert led.node_energy["proc"] == pytest.approx(2000.0 * 1e-9 + 1e-9 + 3000.0 / 1e6)
    assert led.node_energy["out"] == pytest.approx(1e-9)
    assert dict(led.counts) == {"sen": 1e6, "proc": 1e6, "out": 1e6}

    te_out = total_energy(g, led, "out")
    assert te_out == pytest.approx(sum(led.node_energy.values()), rel=1e-12)
    assert energy_balance(g, led, a) == pytest.approx(a.total_power, rel=1e-12)


def test_diamond_total_energy_matches_path_enumeration():
    # one sensor fans out to two branches that re-merge, and one branch
    # also feeds the archive directly, so path multiplicities are 1..3
    g = PipelineGraph(
        nodes=(
            SensorNode(
                id="s", sample_size=1000.0, sample_rate=1e6,
                relevant_fraction=0.25, constant_power_w=500.0,
            ),
            ProcessNode(
                id="a", complexity=LinearFn(slope=1.0), energy_per_op=1e-9,
                output_size=LinearFn(slope=0.5),
            ),
            ProcessNode(
                id="b", complexity=ConstantFn(2000.0), energy_per_op=1e-9,
                output_size=LinearFn(slope=1.0),
            ),
            ProcessNode(
                id="m", complexity=LinearFn(slope=2.0), energy_per_op=1e-9,
                output_size=LinearFn(slope=0.2),
            ),
            OutputNode(id="out"),
        ),
        links=(
            _link("sa", "s", "a", e=1e-12),
            _link("sb", "s", "b", e=3e-12),
            _link("am", "a", "m", e=2e-12),
            _link("bm", "b", "m", e=1e-12),
            _link("mo", "m", "out", e=4e-12),
            _link("ao", "a", "out", e=5e-12),
        ),
    )
    a = propagate_flows(g)
    led = build_ledger(g, a)

    assert _count_paths(g, "s", "out") == 3  # sanity on the oracle itself
    for node in g.nodes:
        expected = sum(
            _count_paths(g, other.id, node.id) * led.node_energy[other.id]
            for other in g.nodes
        )
        assert total_energy(g, led, node.id) == pytest.approx(expected, rel=1e-12)

    # the archive mean splits the equal-rate streams evenly, unlike the path sum
    want = led.node_energy["out"] + 0.5 * (
        total_energy(g, led, "m") + total_energy(g, led, "a")
    )
    assert mean_total_energy(g, led, a, "out") == pytest.approx(want, rel=1e-12)


def test_total_energy_matches_path_enumeration_on_shuffled_random_graphs():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = discrete_sim.shuffled(discrete_sim.random_pipeline(rng), rng)
        led = build_ledger(g, propagate_flows(g))
        for node in g.nodes:
            expected = sum(
                _count_paths(g, other.id, node.id) * led.node_energy[other.id]
                for other in g.nodes
            )
            assert total_energy(g, led, node.id) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ModelError, match="unknown node"):
        total_energy(g, led, "nope")


def test_fan_in_mean_energy_weights_by_traffic_share():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=8.0, sample_rate=100.0),
            SensorNode(id="s1", sample_size=8.0, sample_rate=300.0),
            ProcessNode(
                id="p0", complexity=ConstantFn(4.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0),
            ),
            ProcessNode(
                id="p1", complexity=ConstantFn(8.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(
            _link("a", "s0", "p0"),
            _link("b", "s1", "p1"),
            _link("c", "p0", "out"),
            _link("d", "p1", "out"),
        ),
    )
    a = propagate_flows(g)
    led = build_ledger(g, a)
    assert total_energy(g, led, "p0") == 4.0
    assert total_energy(g, led, "p1") == 8.0
    # 100 msg/s arrive at 4 J and 300 msg/s at 8 J, so an archived message
    # has spent 0.25 * 4 + 0.75 * 8 on average
    assert mean_total_energy(g, led, a, "out") == 7.0


def test_cascade_error_costs_match_message_walk():
    # three stages at 1, 10, and 100 J per message; the first two classify
    g = PipelineGraph(
        nodes=(
            SensorNode(id="sen", sample_size=100.0, sample_rate=1e6, relevant_fraction=0.3),
            ProcessNode(
                id="a", complexity=ConstantFn(1.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0), classifier=_classifier(1.8),
                reduction_target=10.0,
            ),
            ProcessNode(
                id="b", complexity=ConstantFn(10.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0), classifier=_classifier(2.2),
                reduction_target=1.0 / 0.91,
            ),
            ProcessNode(
                id="c", complexity=ConstantFn(100.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(
            _link("l0", "sen", "a"),
            _link("l1", "a", "b"),
            _link("l2", "b", "c"),
            _link("l3", "c", "out"),
        ),
    )
    assert discrete_sim.compare(g, n_events=1_000_000, seed=777) == []

    # cross-check the discard-weighted mean against its definition
    a = propagate_flows(g)
    led = build_ledger(g, a)
    costs = error_costs(g, led, a)
    tn_total = sum(cm.tn for cm in a.confusions.values())
    want = (
        sum(
            cm.tn * mean_total_energy(g, led, a, nid)
            for nid, cm in a.confusions.items()
        )
        / tn_total
    )
    assert costs.e_tn_j == pytest.approx(want, rel=1e-12)
    assert costs.e_fp_j == costs.e_tp_j - costs.e_tn_j
    assert costs.e_fn_j == pytest.approx(
        costs.e_tn_j * (1.0 + costs.tn_tp_ratio) + costs.e_tp_j, rel=1e-12
    )


def test_fan_in_classifier_discard_carries_every_fragment():
    # two sensors each spend 1 mJ per event (1 kW at 1 MHz) and merge into
    # one classifier: a discarded event has spent 2 mJ, not the 1 mJ mean
    sensor = dict(sample_size=1000.0, sample_rate=1e6, relevant_fraction=0.2, constant_power_w=1e3)
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", **sensor),
            SensorNode(id="s1", **sensor),
            ProcessNode(
                id="p", complexity=ConstantFn(0.0), energy_per_op=0.0,
                output_size=LinearFn(slope=1.0), classifier=_classifier(),
                reduction_target=4.0,
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "p"), _link("b", "s1", "p"), _link("c", "p", "out", e=1e-12)),
    )
    assert discrete_sim.compare(g, n_events=1_000_000, seed=5) == []

    a = propagate_flows(g)
    led = build_ledger(g, a)
    assert total_energy(g, led, "p") == pytest.approx(2e-3, rel=1e-12)
    assert mean_total_energy(g, led, a, "p") == total_energy(g, led, "p")
    assert error_costs(g, led, a).e_tn_j == pytest.approx(2e-3, rel=1e-12)


def test_energy_balance_reproduces_total_power(eval_fixture):
    for name in ("cms_run3", "cms_run5_phase1"):
        res = eval_fixture(name)
        led = build_ledger(res.graph, res.assignment)
        assert energy_balance(res.graph, led, res.assignment) == pytest.approx(
            res.assignment.total_power, rel=1e-9
        )

    rng = np.random.default_rng(424242)
    for _ in range(5):
        g = discrete_sim.random_pipeline(rng)
        a = propagate_flows(g)
        led = build_ledger(g, a)
        assert energy_balance(g, led, a) == pytest.approx(a.total_power, rel=1e-9)


def test_total_energy_is_monotone_along_links(eval_fixture):
    res = eval_fixture("cms_run3")
    led = build_ledger(res.graph, res.assignment)
    for link in res.graph.links:
        te_src = total_energy(res.graph, led, link.source)
        te_dst = total_energy(res.graph, led, link.target)
        assert te_dst >= te_src


def test_costs_degenerate_without_relevant_traffic():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="sen", sample_size=100.0, sample_rate=1e6, relevant_fraction=0.0),
            ProcessNode(
                id="sel", complexity=ConstantFn(1.0), energy_per_op=1.0,
                output_size=LinearFn(slope=1.0), classifier=_classifier(),
                reduction_target=10.0,
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "sen", "sel"), _link("b", "sel", "out")),
    )
    a = propagate_flows(g)
    assert a.output_true_rate == 0.0
    led = build_ledger(g, a)
    costs = error_costs(g, led, a)
    assert costs.degenerate
    assert costs.e_fn_j is None
    assert costs.tn_tp_ratio is None
    assert costs.e_tp_j > 0.0
    assert costs.e_fp_j == costs.e_tp_j - costs.e_tn_j
