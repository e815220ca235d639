"""Per-message energy attribution, path sums, and error-class costs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discrete_sim
from daqflow.classifier import ClassifierModel, ParametricScores
from daqflow.energy import (
    ErrorCosts,
    build_ledger,
    energy_balance,
    error_costs,
    mean_total_energy,
    total_energy,
)
from daqflow.errors import ModelError
from daqflow.functions import ConstantFn, LinearFn, PowerLawFn
from daqflow.graph import (
    CommLink,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    propagate_flows,
)
from daqflow.metrics import score_system


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


def _fanin_graph(family, separations, n_sensors=64):
    """The fan-in benchmark's shape: sensors -> readout -> l1t -> hlt -> storage."""

    def model(separation):
        return ClassifierModel(
            positive=ParametricScores(family, separation, 1.0),
            negative=ParametricScores(family, 0.0, 1.0),
        )

    sensors = [
        SensorNode(
            id=f"s{i:02d}", sample_size=_fanin_size(i), sample_rate=40e6, relevant_fraction=1e-4
        )
        for i in range(n_sensors)
    ]
    linear = LinearFn(1.0)
    process = [
        ProcessNode(
            id="readout", role="readout", complexity=ConstantFn(0.0), energy_per_op=0.0,
            output_size=linear,
        ),
        ProcessNode(
            id="l1t", role="l1t", complexity=LinearFn(25.0), energy_per_op=7.5e-12,
            output_size=linear, classifier=model(separations[0]), reduction_target=400.0,
        ),
        ProcessNode(
            id="hlt", role="hlt", complexity=PowerLawFn(2.4, 8.0e11, 1.6e7), energy_per_op=20e-12,
            output_size=linear, classifier=model(separations[1]), reduction_target=100.0,
            unit_power_w=530.0,
        ),
    ]
    links = [_link(f"{s.id}_readout", s.id, "readout", 22e-12, 10.24e9) for s in sensors]
    links += [
        _link("readout_l1t", "readout", "l1t", 22e-12, 10.24e9),
        _link("l1t_hlt", "l1t", "hlt", 25e-12, 100e9),
        _link("hlt_storage", "hlt", "storage", 25e-12, 100e9),
    ]
    return PipelineGraph(
        nodes=tuple(sensors + process + [OutputNode("storage")]), links=tuple(links)
    )


def _fanin_size(i):
    return 8e3 + 16e3 * ((37 * i) % 64) / 63  # 64 distinct sizes, 8 to 24 kbit, not all integers


# family -> (separations, output true rate, output false rate, error costs);
# recorded from the per-call implementation this one replaced
FANIN_PINS = {
    "normal": (
        (2.0, 3.0), 546.1452162456719, 453.8547837543281,
        ErrorCosts(
            e_tp_j=0.022113138800115655, e_tn_j=0.0002909834933114206,
            e_fp_j=0.021822155306804234, e_fn_j=21.33183499900373,
            tn_tp_ratio=73232.43883770483,
        ),
    ),
    "logistic": (
        (2.5, 3.5), 29.043525653904904, 970.9564743460951,
        ErrorCosts(
            e_tp_j=0.022113138800115655, e_tn_j=0.00029109385557198427,
            e_fp_j=0.02182204494454367, e_fn_j=400.8796330253338,
            tn_tp_ratio=1377072.1061941157,
        ),
    ),
    "uniform": (
        (0.002, 0.05), 1.0797898796614431, 998.9202101203385,
        ErrorCosts(
            e_tp_j=0.022113138800115655, e_tn_j=0.00029113346072226574,
            e_fp_j=0.02182200533939339, e_fn_j=10783.49361035617,
            tn_tp_ratio=37039614.68163592,
        ),
    ),
}


@pytest.mark.parametrize("family", sorted(FANIN_PINS))
def test_fan_in_at_scale_is_bit_identical(family):
    separations, out_true, out_false, costs = FANIN_PINS[family]
    g = _fanin_graph(family, separations)
    a = propagate_flows(g)
    assert a.total_power == 11667.313880011565
    assert a.storage_rate == 1023999999.9999999
    assert (a.output_true_rate, a.output_false_rate) == (out_true, out_false)
    want = {f"s{i:02d}_readout": 40e6 * _fanin_size(i) * 22e-12 for i in range(64)}
    want.update(
        readout_l1t=901.1199999999999, l1t_hlt=2.5599999999999996, hlt_storage=0.025599999999999998
    )
    assert dict(a.link_powers) == want
    assert error_costs(g, build_ledger(g, a), a) == costs


def _with_fan_in(g, rng):
    """g with its sensors replaced by 2-64 that feed its first stage, about a
    third of them drawing constant power."""
    sensors = [n for n in g.nodes if isinstance(n, SensorNode)]
    sensor_ids = {n.id for n in sensors}
    entry = g.links_out(sensors[0].id)[0]
    fan = []
    links = []
    for i in range(int(rng.integers(2, 65))):
        fan.append(
            replace(
                sensors[0],
                id=f"fan{i}",
                sample_size=float(rng.integers(1_000, 64_000)),
                constant_power_w=float(rng.uniform(0.1, 10.0)) if rng.random() < 0.3 else 0.0,
            )
        )
        links.append(
            replace(
                entry,
                id=f"fan{i}-{entry.target}",
                source=f"fan{i}",
                energy_per_bit=10.0 ** float(rng.uniform(-12, -10)),
            )
        )
    return PipelineGraph(
        nodes=tuple(fan) + tuple(n for n in g.nodes if n.id not in sensor_ids),
        links=tuple(links) + tuple(l for l in g.links if l.source not in sensor_ids),
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_graphs_meet_the_audit_identities(seed):
    rng = np.random.default_rng(seed)
    g = discrete_sim.random_pipeline(rng)
    for graph in (g, _with_fan_in(g, rng)):
        a = propagate_flows(graph)
        score = score_system(graph, a)
        # relevant messages entering the pipeline: one event's worth, however many fragments
        relevant = next(
            a.node_inputs[link.target].n_true
            for link in graph.links
            if isinstance(graph.node(link.source), SensorNode)
        )
        # F1 = 2 tp / (2 tp + fp + fn), with tp + fn the relevant input; 0 if nothing relevant survives
        rate = a.output_true_rate + a.output_false_rate
        f1 = 2.0 * a.output_true_rate / (rate + relevant)
        assert math.isclose(score.productivity_per_j, rate / a.total_power * f1, rel_tol=1e-9)
        for nid, cm in a.confusions.items():
            want = a.node_inputs[nid].rate / graph.node(nid).reduction_target
            assert math.isclose(cm.tp + cm.fp, want, rel_tol=1e-9), nid
        balance = energy_balance(graph, build_ledger(graph, a), a)
        assert math.isclose(balance, a.total_power, rel_tol=1e-9)
