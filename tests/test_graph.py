"""DAG structure, validation, and flow propagation."""

import copy
import inspect
import math
import pickle
import re
from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, make_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import discrete_sim
from daqflow.classifier import ClassifierModel, ParametricScores
from daqflow.errors import FlowConsistencyError, GraphValidationError, ModelError
from daqflow.functions import ConstantFn, ConstantScaling, LinearFn, PowerLawFn, is_nondecreasing_cost
from daqflow.graph import (
    MERGE_RTOL,
    CommLink,
    MessageFlow,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    _merge_incoming,
    _slot_init,
    propagate_flows,
    required_channels,
    validate_graph,
)


def _link(i, src, dst, e=1e-12, bw=1e10):
    return CommLink(id=i, source=src, target=dst, energy_per_bit=e, bandwidth_per_channel=bw)


def _classifier(sep=2.0):
    return ClassifierModel(
        positive=ParametricScores("normal", loc=sep, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )


def _chain_graph():
    # 0.25 keeps the population split float-exact for the equality asserts
    return PipelineGraph(
        nodes=(
            SensorNode(id="sen", sample_size=1000.0, sample_rate=1e6, relevant_fraction=0.25),
            ProcessNode(
                id="proc",
                complexity=LinearFn(slope=2.0),
                energy_per_op=1e-9,
                output_size=LinearFn(slope=0.5),
            ),
            OutputNode(id="out"),
        ),
        links=(_link("l0", "sen", "proc", e=1e-12), _link("l1", "proc", "out", e=2e-12)),
    )


def test_chain_propagation_by_hand():
    a = propagate_flows(_chain_graph())
    f0 = a.flows["l0"]
    assert (f0.rate, f0.size, f0.n_true, f0.n_false) == (1e6, 1000.0, 2.5e5, 7.5e5)
    f1 = a.flows["l1"]
    assert (f1.rate, f1.size) == (1e6, 500.0)
    assert f1.n_true == 2.5e5  # no classifier: populations pass through

    assert a.node_powers["proc"] == pytest.approx(1e6 * 2000.0 * 1e-9)  # 2 mW
    assert a.link_powers["l0"] == pytest.approx(1e6 * 1000.0 * 1e-12)
    assert a.link_powers["l1"] == pytest.approx(1e6 * 500.0 * 2e-12)
    assert a.storage_rate == pytest.approx(1e6 * 500.0)
    assert a.output_true_rate == pytest.approx(2.5e5)
    assert a.total_power == pytest.approx(sum(a.node_powers.values()) + sum(a.link_powers.values()))


def test_a_cost_overflow_names_the_function_its_input_and_the_node():
    g = _chain_graph()
    steep = PowerLawFn(exponent=400.0, value_at_reference=1.0, reference=1.0)
    for label in ("complexity", "output_size"):
        proc = replace(g.nodes[1], **{label: steep})
        message = rf"^OverflowError: {label} at an input of 1000 bits \(node 'proc'\)$"
        with pytest.raises(ModelError, match=message):
            propagate_flows(replace(g, nodes=(g.nodes[0], proc, g.nodes[2])))


def test_synchronized_fan_in_concatenates_fragments():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=1000.0, sample_rate=1e6, relevant_fraction=0.2),
            SensorNode(id="s1", sample_size=2000.0, sample_rate=1e6, relevant_fraction=0.2),
            ProcessNode(
                id="mrg",
                complexity=ConstantFn(0.0),
                energy_per_op=0.0,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "mrg"), _link("b", "s1", "mrg"), _link("c", "mrg", "out")),
    )
    a = propagate_flows(g)
    merged = a.node_inputs["mrg"]
    assert merged.rate == 1e6  # rates agree, so the merged rate stays put
    assert merged.size == 3000.0  # fragment sizes add
    assert merged.n_true == pytest.approx(2e5)


def test_fan_in_rate_mismatch_is_rejected():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=1000.0, sample_rate=1e6),
            SensorNode(id="s1", sample_size=1000.0, sample_rate=2e6),
            ProcessNode(
                id="mrg", complexity=ConstantFn(0.0), energy_per_op=0.0,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "mrg"), _link("b", "s1", "mrg"), _link("c", "mrg", "out")),
    )
    with pytest.raises(FlowConsistencyError, match="rate"):
        propagate_flows(g)


def test_fan_in_population_mismatch_is_rejected():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=1000.0, sample_rate=1e6, relevant_fraction=0.1),
            SensorNode(id="s1", sample_size=1000.0, sample_rate=1e6, relevant_fraction=0.3),
            ProcessNode(
                id="mrg", complexity=ConstantFn(0.0), energy_per_op=0.0,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "mrg"), _link("b", "s1", "mrg"), _link("c", "mrg", "out")),
    )
    with pytest.raises(FlowConsistencyError, match="n_true"):
        propagate_flows(g)


def test_classifying_fan_in_matches_message_walk():
    # two sensor branches into one classifying merge: the edge flows must
    # agree with a million-message brute-force walk
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=1500.0, sample_rate=2e6, relevant_fraction=0.15),
            SensorNode(id="s1", sample_size=2500.0, sample_rate=2e6, relevant_fraction=0.15),
            ProcessNode(
                id="sel",
                complexity=LinearFn(slope=3.0),
                energy_per_op=1e-11,
                output_size=LinearFn(slope=0.25),
                classifier=_classifier(sep=2.0),
                reduction_target=5.0,
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "sel"), _link("b", "s1", "sel"), _link("c", "sel", "out")),
    )
    assert discrete_sim.compare(g, n_events=1_000_000, seed=314) == []

    a = propagate_flows(g)
    out_flow = a.flows["c"]
    assert out_flow.rate == pytest.approx(2e6 / 5.0, rel=1e-12)
    assert out_flow.size == pytest.approx(1000.0)


def test_classifier_reduction_is_exact_through_cascade():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="sen", sample_size=4000.0, sample_rate=4e7, relevant_fraction=1e-4),
            ProcessNode(
                id="l1", complexity=ConstantFn(10.0), energy_per_op=1e-12,
                output_size=LinearFn(slope=1.0), classifier=_classifier(1.5),
                reduction_target=400.0,
            ),
            ProcessNode(
                id="hlt", complexity=ConstantFn(100.0), energy_per_op=1e-12,
                output_size=LinearFn(slope=1.0), classifier=_classifier(2.0),
                reduction_target=100.0,
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "sen", "l1"), _link("b", "l1", "hlt"), _link("c", "hlt", "out")),
    )
    a = propagate_flows(g)
    assert a.flows["b"].rate == pytest.approx(1e5, rel=1e-9)
    assert a.flows["c"].rate == pytest.approx(1e3, rel=1e-9)
    assert a.output_true_rate + a.output_false_rate == pytest.approx(1e3, rel=1e-9)


def test_topological_order_is_deterministic():
    def build(node_order, link_order):
        nodes = {
            "s0": SensorNode(id="s0", sample_size=1.0, sample_rate=1e6),
            "s1": SensorNode(id="s1", sample_size=1.0, sample_rate=1e6),
            "m": ProcessNode(
                id="m", complexity=ConstantFn(0.0), energy_per_op=0.0,
                output_size=LinearFn(slope=1.0),
            ),
            "out": OutputNode(id="out"),
        }
        links = {
            "a": _link("a", "s0", "m"),
            "b": _link("b", "s1", "m"),
            "c": _link("c", "m", "out"),
        }
        return PipelineGraph(
            nodes=tuple(nodes[k] for k in node_order),
            links=tuple(links[k] for k in link_order),
        )

    g1 = build(("s0", "s1", "m", "out"), ("a", "b", "c"))
    g2 = build(("out", "m", "s1", "s0"), ("c", "b", "a"))
    assert g1.topological_order() == g2.topological_order() == ("s0", "s1", "m", "out")


def _reference_order(graph):
    # Kahn without the index: repeatedly emit the smallest id whose
    # predecessors have all been emitted, scanning every link each time
    emitted = []
    remaining = {n.id for n in graph.nodes}
    while remaining:
        ready = [
            nid for nid in remaining
            if all(l.source in emitted for l in graph.links if l.target == nid)
        ]
        emitted.append(min(ready))
        remaining.remove(emitted[-1])
    return tuple(emitted)


def test_index_matches_brute_force_on_shuffled_random_graphs():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = discrete_sim.shuffled(discrete_sim.random_pipeline(rng), rng)
        for node in g.nodes:
            assert g.node(node.id) is node
            assert g.links_in(node.id) == tuple(l for l in g.links if l.target == node.id)
            assert g.links_out(node.id) == tuple(l for l in g.links if l.source == node.id)
        assert g.topological_order() == _reference_order(g)


def test_a_node_ready_later_sorts_between_the_initially_ready_ones():
    # b becomes ready after a and sorts before the still-waiting sensors c and e
    sensors = {nid: SensorNode(id=nid, sample_size=1.0, sample_rate=1e6) for nid in "ace"}
    proc = ProcessNode(
        id="b", complexity=ConstantFn(1.0), energy_per_op=1e-12, output_size=LinearFn(slope=1.0)
    )
    g = PipelineGraph(
        nodes=(sensors["e"], proc, OutputNode(id="f"), sensors["c"], sensors["a"]),
        links=(_link("l0", "a", "b"), _link("l1", "b", "f"), _link("l2", "c", "f"),
               _link("l3", "e", "f")),
    )
    assert g.topological_order() == _reference_order(g) == ("a", "b", "c", "e", "f")


def test_graphs_pickle_and_compare_by_nodes_and_links_only():
    g = _chain_graph()
    assert [f.name for f in fields(PipelineGraph)] == ["nodes", "links"]
    twin = PipelineGraph(nodes=g.nodes, links=g.links)
    assert twin == g
    assert hash(twin) == hash(g)
    assert repr(twin) == repr(g)
    assert repr(g) == f"PipelineGraph(nodes={g.nodes!r}, links={g.links!r})"

    # the index is built on first read; a graph pickled before that and one
    # pickled after both restore to the same graph and index
    cold = pickle.dumps(g)
    assert g.topological_order() == ("sen", "proc", "out")
    warm = pickle.dumps(g)
    for restored in (pickle.loads(cold), pickle.loads(warm)):
        assert restored == twin
        assert restored.topological_order() == g.topological_order()
        assert restored.links_in("out") == g.links_in("out") == (g.links[1],)

    # a replaced graph indexes its own links, not the indexed original's
    bypass = _link("l2", "sen", "out")
    rewired = replace(g, links=(bypass,))
    assert rewired.links_in("out") == (bypass,)
    assert rewired.links_in("proc") == ()
    assert rewired.topological_order() == ("proc", "sen", "out")
    assert g.links_in("out") == (g.links[1],)


def test_default_sensors_share_one_constant_scaling():
    a, b = SensorNode("a", 1.0, 1e6), SensorNode("b", 1.0, 1e6)
    assert a.pileup_scaling is b.pileup_scaling
    explicit = SensorNode("a", 1.0, 1e6, pileup_scaling=ConstantScaling())
    assert explicit.pileup_scaling is not a.pileup_scaling
    assert explicit == a and hash(explicit) == hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
    assert replace(b, id="a") == a


def test_validation_catalog():
    sen = SensorNode(id="sen", sample_size=1.0, sample_rate=1e6)
    proc = ProcessNode(
        id="proc", complexity=ConstantFn(1.0), energy_per_op=1e-12,
        output_size=LinearFn(slope=1.0),
    )
    out = OutputNode(id="out")

    dup = PipelineGraph(nodes=(sen, sen, out), links=())
    assert any("duplicate node ids" in v for v in validate_graph(dup).violations)

    self_loop = PipelineGraph(
        nodes=(sen, proc, out),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "proc"), _link("c", "proc", "out")),
    )
    assert any("self-loop" in v for v in validate_graph(self_loop).violations)

    no_output = PipelineGraph(nodes=(sen, proc), links=(_link("a", "sen", "proc"),))
    assert any("exactly one output" in v for v in validate_graph(no_output).violations)
    with pytest.raises(GraphValidationError, match="graph has 0 output nodes"):
        no_output.output()
    two_outputs = PipelineGraph(nodes=(sen, out, OutputNode(id="out2")), links=())
    with pytest.raises(GraphValidationError, match="graph has 2 output nodes"):
        two_outputs.output()

    dangling = PipelineGraph(nodes=(sen, out), links=(_link("a", "sen", "ghost"),))
    assert any("is not a node" in v for v in validate_graph(dangling).violations)

    p2 = ProcessNode(
        id="p2", complexity=ConstantFn(1.0), energy_per_op=1e-12,
        output_size=LinearFn(slope=1.0),
    )
    cycle = PipelineGraph(
        nodes=(sen, proc, p2, out),
        links=(
            _link("a", "sen", "proc"), _link("b", "proc", "p2"),
            _link("c", "p2", "proc"), _link("d", "p2", "out"),
        ),
    )
    assert any("cycle" in v for v in validate_graph(cycle).violations)
    with pytest.raises(GraphValidationError, match="graph contains a cycle"):
        cycle.topological_order()

    two_l1t = PipelineGraph(
        nodes=(sen, replace(proc, role="l1t"), replace(p2, role="l1t"), out),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "p2"), _link("c", "p2", "out")),
    )
    assert validate_graph(two_l1t).violations == ("role 'l1t' is assigned to multiple nodes",)

    s2 = SensorNode(id="s2", sample_size=1.0, sample_rate=1e6)
    twice_named = PipelineGraph(
        nodes=(
            replace(sen, role="det"), replace(s2, role="det"),
            replace(proc, role="l1t"), replace(p2, role="l1t"), out,
        ),
        links=(
            _link("a", "sen", "proc"), _link("a", "s2", "proc"),
            _link("b", "proc", "p2"), _link("b", "p2", "out"),
        ),
    )
    assert validate_graph(twice_named).violations == (
        "duplicate link ids: a, b",
        "role 'det' is assigned to multiple nodes",
        "role 'l1t' is assigned to multiple nodes",
    )

    into_sensor = PipelineGraph(
        nodes=(s2, sen, out),
        links=(_link("a", "s2", "sen"), _link("b", "sen", "out")),
    )
    assert any("incoming links" in v for v in validate_graph(into_sensor).violations)

    orphan = PipelineGraph(
        nodes=(sen, proc, out),
        links=(_link("a", "sen", "out"), _link("b", "sen", "proc")),
    )
    assert any("no path to the output" in v for v in validate_graph(orphan).violations)

    classifier_no_target = PipelineGraph(
        nodes=(
            sen,
            ProcessNode(
                id="proc", complexity=ConstantFn(1.0), energy_per_op=1e-12,
                output_size=LinearFn(slope=1.0), classifier=_classifier(),
            ),
            out,
        ),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "out")),
    )
    assert any("no reduction_target" in v for v in validate_graph(classifier_no_target).violations)

    target_no_classifier = PipelineGraph(
        nodes=(
            sen,
            ProcessNode(
                id="proc", complexity=ConstantFn(1.0), energy_per_op=1e-12,
                output_size=LinearFn(slope=1.0), reduction_target=10.0,
            ),
            out,
        ),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "out")),
    )
    report = validate_graph(target_no_classifier)
    assert any("no classifier" in v for v in report.violations)
    # a later classifier attachment declared by reference silences it
    assert validate_graph(target_no_classifier, classifier_ids={"proc"}).ok

    shrinking = PipelineGraph(
        nodes=(
            sen,
            ProcessNode(
                id="proc", complexity=LinearFn(slope=-1.0, intercept=2e9),
                energy_per_op=1e-12, output_size=LinearFn(slope=1.0),
            ),
            out,
        ),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "out")),
    )
    assert any("nondecreasing" in v for v in validate_graph(shrinking).violations)

    good = _chain_graph()
    report = validate_graph(good)
    assert report.ok
    assert str(report) == "graph OK"


def test_cost_forms_are_judged_by_their_parameters():
    # a negative exponent divides by zero at x = 0, and a bare callable has no
    # parameters to read: both are violations, not crashes
    for bad in (PowerLawFn(exponent=-1.0, value_at_reference=1.0, reference=1.0), lambda x: x):
        g = PipelineGraph(
            nodes=(
                SensorNode(id="sen", sample_size=1.0, sample_rate=1e6),
                ProcessNode(
                    id="proc", complexity=bad, energy_per_op=1e-12, output_size=bad,
                ),
                OutputNode(id="out"),
            ),
            links=(_link("a", "sen", "proc"), _link("b", "proc", "out")),
        )
        assert validate_graph(g).violations == (
            "process 'proc': complexity must be nonnegative and nondecreasing",
            "process 'proc': output_size must be nonnegative and nondecreasing",
        )


def test_propagate_refuses_invalid_graphs():
    g = PipelineGraph(
        nodes=(SensorNode(id="sen", sample_size=1.0, sample_rate=1e6),), links=()
    )
    with pytest.raises(GraphValidationError):
        propagate_flows(g)


def test_required_channels():
    link = _link("l", "a", "b", bw=10.24e9)
    flow = MessageFlow(rate=40e6, size=64e6, n_true=0.0, n_false=40e6)
    # 2.56e15 b/s over 10.24 Gb/s lanes
    assert required_channels(link, flow) == 250_000
    assert required_channels(link, flow) == math.ceil(40e6 * 64e6 / 10.24e9)

    exact = MessageFlow(rate=1e6, size=10240.0, n_true=0.0, n_false=1e6)
    assert required_channels(link, exact) == 1  # exact division, no spare lane
    just_over = MessageFlow(rate=1e6, size=10241.0, n_true=0.0, n_false=1e6)
    assert required_channels(link, just_over) == 2

    # 1e26 bit/s over 1e-291 bit/s lanes: the count overflows
    thin = _link("thin", "a", "b", bw=1e-291)
    huge = MessageFlow(rate=1e6, size=1e20, n_true=0.0, n_false=1e6)
    with pytest.raises(ModelError, match=r"link 'thin': channel demand is not finite"):
        required_channels(thin, huge)


def test_message_flow_invariants():
    with pytest.raises(ValueError, match="add up"):
        MessageFlow(rate=10.0, size=1.0, n_true=5.0, n_false=4.0)
    with pytest.raises(ValueError):
        MessageFlow(rate=10.0, size=-1.0, n_true=5.0, n_false=5.0)
    # a NaN field fails the sign check, and does not hide a negative one behind it
    with pytest.raises(ValueError, match="must be >= 0"):
        MessageFlow(rate=math.nan, size=1.0, n_true=-1.0, n_false=2.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        MessageFlow(rate=1.0, size=math.nan, n_true=-1.0, n_false=2.0)


def test_unknown_ids_raise_model_errors():
    g = _chain_graph()
    with pytest.raises(ModelError, match="unknown node"):
        g.node("nope")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SensorNode("s", 1.0, 1.0, constant_power_w=math.inf), "must be finite"),
        (lambda: SensorNode("s", 0.0, 1.0), "sample_size and sample_rate must be positive"),
        (lambda: SensorNode("s", 1.0, -1.0), "sample_size and sample_rate must be positive"),
        (lambda: SensorNode("s", 1.0, 1.0, relevant_fraction=1.5), r"relevant_fraction must lie in \[0, 1\]"),
        (lambda: SensorNode("s", 1.0, 1.0, constant_power_w=-1.0), "constant_power_w must be >= 0"),
        (lambda: ProcessNode("p", ConstantFn(1.0), math.nan, ConstantFn(1.0)), "must be finite"),
        (lambda: ProcessNode("p", ConstantFn(1.0), -1.0, ConstantFn(1.0)), "energy_per_op must be >= 0"),
        (
            lambda: ProcessNode("p", ConstantFn(1.0), 1.0, ConstantFn(1.0), reduction_target=1.0),
            "reduction_target must exceed 1",
        ),
        (lambda: CommLink("l", "a", "b", math.inf, 1.0), "must be finite"),
        (lambda: CommLink("l", "a", "b", -1.0, 1.0), "energy_per_bit must be >= 0"),
        (lambda: CommLink("l", "a", "b", 1.0, 0.0), "bandwidth_per_channel must be positive"),
    ],
    ids=[
        "sensor_inf_power", "sensor_zero_size", "sensor_negative_rate", "sensor_fraction_above_1",
        "sensor_negative_power", "process_nan_energy", "process_negative_energy",
        "process_target_1", "link_inf_energy", "link_negative_energy", "link_zero_bandwidth",
    ],
)
def test_node_and_link_constructors_reject_bad_numbers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


_HUGE = 10**400  # an int beyond the float range: float(_HUGE) raises OverflowError


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SensorNode("s", _HUGE, 1e6), r"^sensor 's': numeric fields must be finite$"),
        (lambda: SensorNode("s", 1.0, 1.0, relevant_fraction=_HUGE), "sensor 's': numeric fields"),
        (lambda: SensorNode("s", 1.0, 1.0, enabled_min_pileup=-_HUGE), "sensor 's': numeric fields"),
        (lambda: SensorNode("s", 1.0, 1.0, constant_power_w=_HUGE), "sensor 's': numeric fields"),
        (
            lambda: ProcessNode("p", ConstantFn(1.0), 1.0, ConstantFn(1.0), reduction_target=_HUGE),
            r"^process 'p': numeric fields must be finite$",
        ),
        (lambda: CommLink("l", "a", "b", 1.0, _HUGE), r"^link 'l': numeric fields must be finite$"),
        (lambda: CommLink("l", "a", "b", -_HUGE, 1.0), "link 'l': numeric fields"),
        (lambda: MessageFlow(_HUGE, 1.0, _HUGE, 0), r"^flow numeric fields must be finite$"),
        (lambda: MessageFlow(1.0, 1.0, 0.0, _HUGE), r"^flow numeric fields must be finite$"),
        # each population is in range and their sum is not
        (lambda: MessageFlow(1.0, 1.0, 10**308, 10**308), r"^flow numeric fields must be finite$"),
    ],
    ids=[
        "sensor_size", "sensor_fraction", "sensor_min_pileup", "sensor_power", "process_target",
        "link_bandwidth", "link_energy", "flow_rate", "flow_n_false", "flow_population_sum",
    ],
)
def test_records_refuse_an_int_beyond_the_float_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_required_channels_on_an_int_size_beyond_the_float_range():
    # MessageFlow leaves its size unconverted, so the demand's product overflows
    flow = MessageFlow(1.0, _HUGE, 1.0, 0.0)
    with pytest.raises(ModelError, match=r"^link 'l': channel demand is not finite \(inf bit/s"):
        required_channels(_link("l", "a", "b", bw=10.24e9), flow)


def test_int_fields_in_the_float_range_propagate():
    # int/float comparisons are exact, so ints pass the chained tests as floats do
    def chain(number):
        return PipelineGraph(
            nodes=(
                SensorNode("sen", number(10**3), number(40 * 10**6)),
                ProcessNode("proc", ConstantFn(0.0), number(0), LinearFn(slope=1.0)),
                OutputNode("out"),
            ),
            links=(
                CommLink("a", "sen", "proc", number(0), number(10**10)),
                CommLink("b", "proc", "out", number(0), number(10**10)),
            ),
        )

    assert dict(propagate_flows(chain(int)).flows) == dict(propagate_flows(chain(float)).flows)


def test_find_role():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="sen", sample_size=1.0, sample_rate=1e6, role="inner_tracker"),
            ProcessNode(
                id="proc", complexity=ConstantFn(0.0), energy_per_op=0.0,
                output_size=LinearFn(slope=1.0), role="l1t",
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "sen", "proc"), _link("b", "proc", "out")),
    )
    assert g.find_role("l1t").id == "proc"
    assert g.find_role("hlt") is None
    dup = PipelineGraph(
        nodes=(
            SensorNode(id="s0", sample_size=1.0, sample_rate=1e6, role="l1t"),
            SensorNode(id="s1", sample_size=1.0, sample_rate=1e6, role="l1t"),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s0", "out"), _link("b", "s1", "out")),
    )
    with pytest.raises(GraphValidationError, match="multiple"):
        dup.find_role("l1t")


def test_random_graphs_satisfy_structural_checks():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        g = discrete_sim.random_pipeline(rng)
        assert len(g.nodes) <= 5
        assert validate_graph(g).ok


# one record of each class, every optional field set where it has one
RECORDS = [
    SensorNode(
        "s", 1e3, 40e6, relevant_fraction=1e-4, role="tracker", enabled_min_pileup=140.0,
        constant_power_w=2.0,
    ),
    ProcessNode(
        "p", ConstantFn(1.0), 1e-12, LinearFn(slope=1.0), classifier=_classifier(),
        reduction_target=10.0, role="l1t", unit_power_w=5.0, constant_power_w=1.0,
    ),
    OutputNode("out"),
    _link("l", "a", "b"),
    MessageFlow(10.0, 2.0, 4.0, 6.0),
]


def _plain_twin(cls):
    """`cls` as a plain frozen slots dataclass: the same fields, dataclasses' own `__init__`."""
    spec = [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default) for f in fields(cls)
    ]
    return make_dataclass(cls.__name__, spec, frozen=True, slots=True)


def test_the_sensor_signature_and_doc_are_the_dataclass_ones():
    params = (
        "id: 'str', sample_size: 'float', sample_rate: 'float', relevant_fraction: 'float' = 0.0, "
        "pileup_scaling: 'object' = ConstantScaling(), role: 'str | None' = None, "
        "enabled_min_pileup: 'float | None' = None, constant_power_w: 'float' = 0.0"
    )
    assert str(inspect.signature(SensorNode)) == f"({params}) -> None"
    assert SensorNode.__doc__ == f"SensorNode({params})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_keep_the_dataclass_contract(record):
    cls = type(record)
    twin = _plain_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__doc__ == twin.__doc__
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    # repr and hash as a plain dataclass of the same values has them
    plain = twin(**{f.name: getattr(record, f.name) for f in fields(cls)})
    assert repr(record) == repr(plain)
    assert hash(record) == hash(plain)
    assert record == cls(*(getattr(record, f.name) for f in fields(cls)))
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    first = fields(cls)[0].name
    for copied in (
        replace(record),
        replace(record, **{first: getattr(record, first)}),
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(copied) is cls
        assert copied == record and hash(copied) == hash(record)


def test_replace_still_runs_the_checks():
    with pytest.raises(ValueError, match="sample_size and sample_rate must be positive"):
        replace(RECORDS[0], sample_size=-1.0)
    with pytest.raises(ValueError, match="add up"):
        replace(RECORDS[-1], n_true=5.0)


@pytest.mark.parametrize(
    "spec",
    [field(default_factory=list), field(default=0, init=False), field(default=0, kw_only=True)],
    ids=["default_factory", "init_false", "kw_only"],
)
def test_the_slot_init_refuses_fields_it_does_not_handle(spec):
    @dataclass(frozen=True, slots=True)
    class Throwaway:
        a: int
        b: object = spec

    with pytest.raises(TypeError, match=r"Throwaway\.b: a field with a default_factory"):
        _slot_init(Throwaway)


# The validity checks of SensorNode, CommLink and MessageFlow as they read
# before valid records were passed by one chained test: the reference that
# each constructor must match, verdict and message.
def _reference_sensor_checks(s):
    if not (
        math.isfinite(s.sample_size)
        and math.isfinite(s.sample_rate)
        and math.isfinite(s.relevant_fraction)
        and (s.enabled_min_pileup is None or math.isfinite(s.enabled_min_pileup))
        and math.isfinite(s.constant_power_w)
    ):
        raise ValueError(f"sensor {s.id!r}: numeric fields must be finite")
    if s.sample_size <= 0 or s.sample_rate <= 0:
        raise ValueError(f"sensor {s.id!r}: sample_size and sample_rate must be positive")
    if not 0.0 <= s.relevant_fraction <= 1.0:
        raise ValueError(f"sensor {s.id!r}: relevant_fraction must lie in [0, 1]")
    if s.constant_power_w < 0:
        raise ValueError(f"sensor {s.id!r}: constant_power_w must be >= 0")


def _reference_link_checks(l):
    if not (math.isfinite(l.energy_per_bit) and math.isfinite(l.bandwidth_per_channel)):
        raise ValueError(f"link {l.id!r}: numeric fields must be finite")
    if l.energy_per_bit < 0:
        raise ValueError(f"link {l.id!r}: energy_per_bit must be >= 0")
    if l.bandwidth_per_channel <= 0:
        raise ValueError(f"link {l.id!r}: bandwidth_per_channel must be positive")


def _reference_flow_checks(f):
    if not (f.rate >= 0 and f.size >= 0 and f.n_true >= 0 and f.n_false >= 0):
        raise ValueError("flow fields must be >= 0")
    if abs((f.n_true + f.n_false) - f.rate) > 1e-9 * max(f.rate, 1.0):
        raise ValueError(f"flow populations do not add up: {f.n_true} + {f.n_false} != {f.rate}")


def _verdict(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return "ok"


def _same_verdict(cls, reference, **values):
    assert _verdict(lambda: cls(**values)) == _verdict(lambda: reference(SimpleNamespace(**values)))


_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1.0000000000000002,
    0.9999999999999999, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
    math.nan,
]
# any float (subnormals, ±0, ±inf and nan included), unit-interval ones and the edges above
NUMBERS = st.floats() | st.floats(0.0, 1.0) | st.sampled_from(_EDGES)


@settings(max_examples=500, deadline=None)
@given(
    size=NUMBERS, rate=NUMBERS, fraction=NUMBERS, min_pileup=st.none() | NUMBERS, power=NUMBERS,
)
@example(size=1.0, rate=1.0, fraction=0.0, min_pileup=None, power=0.0)
@example(size=-0.0, rate=1.0, fraction=-0.0, min_pileup=-0.0, power=-0.0)
def test_sensor_checks_match_the_reference(size, rate, fraction, min_pileup, power):
    _same_verdict(
        SensorNode, _reference_sensor_checks, id="s", sample_size=size, sample_rate=rate,
        relevant_fraction=fraction, enabled_min_pileup=min_pileup, constant_power_w=power,
    )


@settings(max_examples=300, deadline=None)
@given(energy=NUMBERS, bandwidth=NUMBERS)
@example(energy=-0.0, bandwidth=5e-324)
def test_link_checks_match_the_reference(energy, bandwidth):
    _same_verdict(
        CommLink, _reference_link_checks, id="l", source="a", target="b", energy_per_bit=energy,
        bandwidth_per_channel=bandwidth,
    )


@settings(max_examples=500, deadline=None)
@given(rate=NUMBERS, size=NUMBERS, n_true=NUMBERS, n_false=NUMBERS | st.none())
@example(rate=1.0, size=0.0, n_true=0.5, n_false=None)
@example(rate=1.0, size=0.0, n_true=0.0, n_false=1.0 + 1e-9)
@example(rate=1e9, size=0.0, n_true=1e9, n_false=1.1)
def test_flow_checks_match_the_reference(rate, size, n_true, n_false):
    if n_false is None:  # the populations add up, up to rounding
        n_false = rate - n_true
    _same_verdict(
        MessageFlow, _reference_flow_checks, rate=rate, size=size, n_true=n_true, n_false=n_false,
    )


# validate_graph as it read when it made one pass over the nodes per check:
# the reference whose violations, in order, the one-pass function must match.
def _reference_validate(graph, classifier_ids=None):
    v = []
    by_id, links_in, links_out = graph._by_id, graph._in, graph._out
    if len(by_id) < len(graph.nodes):
        dupes = sorted(i for i, c in Counter(n.id for n in graph.nodes).items() if c > 1)
        return (f"duplicate node ids: {', '.join(dupes)}",)
    link_dupes = sorted(i for i, c in Counter(l.id for l in graph.links).items() if c > 1)
    if link_dupes:
        v.append(f"duplicate link ids: {', '.join(link_dupes)}")
    roles = Counter(n.role for n in graph.nodes if getattr(n, "role", None) is not None)
    v.extend(f"role {r!r} is assigned to multiple nodes" for r in sorted(roles) if roles[r] > 1)

    dangling = False
    for link in graph.links:
        if link.source not in by_id:
            v.append(f"link {link.id!r}: source {link.source!r} is not a node")
            dangling = True
        if link.target not in by_id:
            v.append(f"link {link.id!r}: target {link.target!r} is not a node")
            dangling = True
        if link.source == link.target:
            v.append(f"link {link.id!r}: self-loop")
    if dangling:
        return tuple(v)

    outputs = [n for n in graph.nodes if isinstance(n, OutputNode)]
    if len(outputs) != 1:
        v.append(f"graph must have exactly one output node, found {len(outputs)}")
    if graph._order is None:
        v.append("graph contains a cycle")
        return tuple(v)

    for node in graph.nodes:
        incoming = node.id in links_in
        if isinstance(node, SensorNode):
            if incoming:
                v.append(f"sensor {node.id!r} has incoming links")
        elif not incoming:
            v.append(f"node {node.id!r} has no predecessors")
        if isinstance(node, OutputNode) and node.id in links_out:
            v.append(f"output {node.id!r} has outgoing links")

    if len(outputs) == 1:
        reaches = {outputs[0].id}
        for nid in reversed(graph._order):
            if any(l.target in reaches for l in links_out.get(nid, ())):
                reaches.add(nid)
        v.extend(f"node {n.id!r} has no path to the output" for n in graph.nodes if n.id not in reaches)

    for node in graph.nodes:
        if not isinstance(node, ProcessNode):
            continue
        has_classifier = node.classifier is not None or (
            classifier_ids is not None and node.id in classifier_ids
        )
        if has_classifier and node.reduction_target is None:
            v.append(f"process {node.id!r} has a classifier but no reduction_target")
        if node.reduction_target is not None and not has_classifier:
            v.append(f"process {node.id!r} has a reduction_target but no classifier")
        for fn, label in ((node.complexity, "complexity"), (node.output_size, "output_size")):
            if not is_nondecreasing_cost(fn):
                v.append(f"process {node.id!r}: {label} must be nonnegative and nondecreasing")
    return tuple(v)


def _mutate(rng, kind, nodes, links):
    """(nodes, links) with one structural fault of the given kind, its details drawn from rng."""
    def pick(items):
        return items[rng.integers(len(items))]

    ids = [n.id for n in nodes] or ["ghost"]
    nid, tag = pick(ids), f"{kind}{len(links)}"
    procs = [i for i, n in enumerate(nodes) if isinstance(n, ProcessNode)]
    sensors = [i for i, n in enumerate(nodes) if isinstance(n, SensorNode)]
    outputs = [n.id for n in nodes if isinstance(n, OutputNode)]
    how = rng.integers(5)
    if kind == "duplicate_node_id":
        twin = [OutputNode(nid), SensorNode(nid, 1.0, 1e6), *nodes][how % (2 + len(nodes))]
        return nodes + [twin], links
    if kind == "duplicate_link_id" and links:
        return nodes, links + [_link(pick(links).id, pick(ids), pick(ids))]
    if kind == "duplicate_role" and procs + sensors:
        role = ("l1t", "hlt")[how % 2]
        for i in rng.choice(procs + sensors, size=rng.integers(1, 4)):
            nodes = nodes[:i] + [replace(nodes[i], role=role)] + nodes[i + 1:]
        return nodes, links
    if kind == "dangling":
        ends = [("ghost", nid), (nid, "phantom"), ("ghost", "phantom")][how % 3]
        return nodes, links + [_link(tag, *ends)]
    if kind == "self_loop":
        return nodes, links + [_link(tag, nid, nid)]
    if kind == "cycle" and procs:
        # an edge from any node, the output included, back to a process node
        return nodes, links + [_link(tag, nid, nodes[pick(procs)].id)]
    if kind == "zero_outputs":
        if how % 2:  # with the output's links, or leaving them dangling
            links = [l for l in links if l.source not in outputs and l.target not in outputs]
        return [n for n in nodes if not isinstance(n, OutputNode)], links
    if kind == "two_outputs":
        extra = OutputNode(f"out{len(nodes)}")
        return nodes + [extra], links + ([_link(tag, nid, extra.id)] if how % 2 else [])
    if kind == "orphan":
        if how == 0:
            return nodes + [ProcessNode(tag, ConstantFn(1.0), 0.0, LinearFn(1.0))], links
        if how == 1:
            return nodes + [SensorNode(tag, 1.0, 1e6)], links
        if how == 2 and links:
            i = rng.integers(len(links))
            return nodes, links[:i] + links[i + 1:]
        if how == 3 and sensors:
            return nodes, links + [_link(tag, nid, nodes[pick(sensors)].id)]
        if outputs:
            return nodes, links + [_link(tag, outputs[0], nid)]
    if kind == "mismatch" and procs:
        i = pick(procs)
        node = nodes[i]
        node = [
            replace(node, classifier=None, reduction_target=node.reduction_target or 4.0),
            replace(node, classifier=node.classifier or _classifier(), reduction_target=None),
            replace(node, complexity=ConstantFn(-1.0)),
            replace(node, output_size=LinearFn(slope=-1.0)),
        ][how % 4]
        return nodes[:i] + [node] + nodes[i + 1:], links
    return nodes, links


_FAULTS = [
    "duplicate_node_id", "duplicate_link_id", "duplicate_role", "dangling", "self_loop", "cycle",
    "zero_outputs", "two_outputs", "orphan", "mismatch",
]


def _faulty_graph(seed, faults):
    """A random pipeline with the faults applied in turn, shuffled, and a classifier_ids choice."""
    rng = np.random.default_rng(seed)
    g = discrete_sim.random_pipeline(rng)
    nodes, links = list(g.nodes), list(g.links)
    for kind in faults:
        nodes, links = _mutate(rng, kind, nodes, links)
    g = discrete_sim.shuffled(PipelineGraph(tuple(nodes), tuple(links)), rng)
    ids = [n.id for n in g.nodes]
    return g, set(rng.choice(ids, size=rng.integers(0, 3))) if ids else set()


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), faults=st.lists(st.sampled_from(_FAULTS), max_size=3))
def test_validation_matches_the_multi_pass_reference(seed, faults):
    g, declared = _faulty_graph(seed, faults)
    for classifier_ids in (None, declared):
        # the reference reads a fresh graph, so neither call reuses the other's index
        want = _reference_validate(PipelineGraph(g.nodes, g.links), classifier_ids)
        assert validate_graph(g, classifier_ids).violations == want


def test_the_faulty_graphs_reach_every_violation():
    messages = set()
    for seed in range(400):
        faults = [_FAULTS[seed % len(_FAULTS)], _FAULTS[seed // len(_FAULTS) % len(_FAULTS)]]
        g, declared = _faulty_graph(seed, faults[: 1 + seed % 2])
        for classifier_ids in (None, declared):
            messages.update(validate_graph(g, classifier_ids).violations)
    for pattern in [
        r"duplicate node ids: ", r"duplicate link ids: ", r"role '.+' is assigned to multiple",
        r"link '.+': source '.+' is not a node", r"link '.+': target '.+' is not a node",
        r"link '.+': self-loop", r"exactly one output node, found 0",
        r"exactly one output node, found 2", r"graph contains a cycle", r"sensor '.+' has incoming",
        r"node '.+' has no predecessors", r"output '.+' has outgoing", r"has no path to the output",
        r"has a classifier but no reduction_target", r"has a reduction_target but no classifier",
        r"complexity must be nonnegative", r"output_size must be nonnegative",
    ]:
        assert any(re.search(pattern, m) for m in messages), pattern


# _merge_incoming as it read when it tested every flow against the maxima:
# the reference for verdict, merged flow and message.
def _reference_merge(node_id, incoming):
    rate = max(f.rate for f in incoming)
    n_true = max(f.n_true for f in incoming)
    rate_tol = MERGE_RTOL * max(rate, 1e-300)
    n_true_tol = MERGE_RTOL * max(n_true, 1e-300)
    for f in incoming:
        if abs(f.rate - rate) > rate_tol:
            got, want, what = f.rate, rate, "rate"
        elif abs(f.n_true - n_true) > n_true_tol:
            got, want, what = f.n_true, n_true, "n_true"
        else:
            continue
        raise FlowConsistencyError(
            f"node {node_id!r}: predecessor {what}s disagree "
            f"({got!r} vs {want!r}); synchronized fan-in needs equal rates"
        )
    return MessageFlow(rate, sum(f.size for f in incoming), n_true, rate - n_true)


def _outcome(merge, incoming):
    try:
        return "ok", repr(merge("m", incoming))  # repr: a nan field compares equal
    except (FlowConsistencyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _near_the_tolerance(value, sign, ulps):
    """A value off `value` by about MERGE_RTOL of the larger of the two, `ulps` steps from that."""
    off = value * (1 - MERGE_RTOL) if sign < 0 else value / (1 - MERGE_RTOL)
    for _ in range(abs(ulps)):
        off = math.nextafter(off, math.copysign(math.inf, ulps))
    return off


def _fan_in(k, rate, fraction, sizes, which, index, sign, ulps):
    """k equal flows, one of them (`index`) off in `which` ("rate" or "n_true") near the tolerance."""
    n_true = rate * fraction if fraction else 0.0
    flows = [MessageFlow(rate, s, n_true, rate - n_true if n_true < math.inf else 0.0) for s in sizes[:k]]
    f = flows[index % k]
    if which == "rate":
        r = _near_the_tolerance(rate, sign, ulps)
        flows[index % k] = MessageFlow(r, f.size, min(n_true, r), r - min(n_true, r))
    elif which == "n_true":
        t = min(_near_the_tolerance(n_true, sign, ulps), rate)
        flows[index % k] = MessageFlow(rate, f.size, t, rate - t)
    return flows


@settings(max_examples=600, deadline=None)
@given(
    k=st.integers(1, 40),
    rate=st.floats(1e-6, 1e15) | st.sampled_from([0.0, 5e-324, 1.0, 40e6, math.inf]),
    fraction=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1e-4, 1.0]),
    sizes=st.lists(st.floats(0.0, 1e6), min_size=40, max_size=40),
    which=st.sampled_from(["none", "rate", "n_true"]),
    index=st.integers(0, 39),
    sign=st.sampled_from([-1, 1]),
    ulps=st.integers(-3, 3),
)
@example(k=3, rate=40e6, fraction=1e-4, sizes=[1.0] * 40, which="rate", index=1, sign=-1, ulps=-1)
@example(k=3, rate=40e6, fraction=1e-4, sizes=[1.0] * 40, which="rate", index=1, sign=-1, ulps=1)
@example(k=3, rate=40e6, fraction=1e-4, sizes=[1.0] * 40, which="n_true", index=2, sign=1, ulps=1)
@example(k=3, rate=40e6, fraction=1e-4, sizes=[1.0] * 40, which="n_true", index=2, sign=1, ulps=-1)
@example(k=4, rate=math.inf, fraction=1.0, sizes=[1.0] * 40, which="none", index=0, sign=1, ulps=0)
@example(k=4, rate=math.inf, fraction=0.0, sizes=[1.0] * 40, which="rate", index=3, sign=-1, ulps=-1)
def test_merge_matches_the_per_flow_reference(k, rate, fraction, sizes, which, index, sign, ulps):
    try:
        flows = _fan_in(k, rate, fraction, sizes, which, index, sign, ulps)
    except ValueError:  # the off value made no valid flow
        return
    assert _outcome(_merge_incoming, flows) == _outcome(_reference_merge, flows)


def test_merge_accepts_just_under_and_names_the_first_flow_just_over_the_tolerance():
    # 40 MHz flows with one rate a few ulps either side of MERGE_RTOL below the others
    outcomes = {}
    for ulps in range(-3, 4):
        flows = _fan_in(4, 40e6, 1e-4, [1.0] * 4, "rate", 2, -1, ulps)
        outcomes[ulps] = _outcome(_merge_incoming, flows)
        assert outcomes[ulps] == _outcome(_reference_merge, flows)
    assert {o[0] for o in outcomes.values()} == {"ok", "FlowConsistencyError"}
    assert any("predecessor rates disagree" in o[1] for o in outcomes.values())


_VALID = {
    SensorNode: dict(
        id="s", sample_size=1.0, sample_rate=1.0, relevant_fraction=0.5, enabled_min_pileup=1.0,
        constant_power_w=1.0,
    ),
    CommLink: dict(id="l", source="a", target="b", energy_per_bit=1.0, bandwidth_per_channel=1.0),
    MessageFlow: dict(rate=1.0, size=1.0, n_true=0.5, n_false=0.5),
}
_FINITE = {
    SensorNode: "sensor 's': numeric fields must be finite",
    CommLink: "link 'l': numeric fields must be finite",
}
_NEGATIVE = {
    "sample_size": "sensor 's': sample_size and sample_rate must be positive",
    "sample_rate": "sensor 's': sample_size and sample_rate must be positive",
    "relevant_fraction": "sensor 's': relevant_fraction must lie in [0, 1]",
    "enabled_min_pileup": "ok",  # a pile-up threshold may be negative
    "constant_power_w": "sensor 's': constant_power_w must be >= 0",
    "energy_per_bit": "link 'l': energy_per_bit must be >= 0",
    "bandwidth_per_channel": "link 'l': bandwidth_per_channel must be positive",
}
_FLOW = {  # nan, inf, -inf, -1.0, 10**400
    "rate": ("flow fields must be >= 0", "ok", "flow fields must be >= 0", "flow fields must be >= 0",
             "flow numeric fields must be finite"),  # an inf rate's tolerance is inf
    "size": ("flow fields must be >= 0", "ok", "flow fields must be >= 0", "flow fields must be >= 0",
             "ok"),  # a size is never added to the populations, so an int beyond the range passes
    "n_true": ("flow fields must be >= 0", "flow populations do not add up: inf + 0.5 != 1.0",
               "flow fields must be >= 0", "flow fields must be >= 0", "flow numeric fields must be finite"),
    "n_false": ("flow fields must be >= 0", "flow populations do not add up: 0.5 + inf != 1.0",
                "flow fields must be >= 0", "flow fields must be >= 0", "flow numeric fields must be finite"),
}
_BAD = (math.nan, math.inf, -math.inf, -1.0, 10**400)


def _record_cases():
    for cls, valid in _VALID.items():
        numeric = [name for name, value in valid.items() if isinstance(value, float)]
        for name in numeric:
            if cls is MessageFlow:
                expected = _FLOW[name]
            else:
                expected = (_FINITE[cls],) * 3 + (_NEGATIVE[name], _FINITE[cls])
            for bad, message in zip(_BAD, expected):
                yield pytest.param(cls, name, bad, message, id=f"{cls.__name__}.{name}={bad!r:.8}")


@pytest.mark.parametrize("cls, name, bad, message", list(_record_cases()))
def test_each_numeric_field_out_of_range_gets_its_records_message(cls, name, bad, message):
    assert _verdict(lambda: cls(**{**_VALID[cls], name: bad})) == message
