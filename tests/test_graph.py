"""DAG structure, validation, and flow propagation."""

import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

import discrete_sim
from daqflow.classifier import ClassifierModel, ParametricScores
from daqflow.errors import FlowConsistencyError, GraphValidationError, ModelError
from daqflow.functions import ConstantFn, ConstantScaling, LinearFn, PowerLawFn
from daqflow.graph import (
    CommLink,
    MessageFlow,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
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
