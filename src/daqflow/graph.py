"""Pipeline DAG and flow-statistics propagation.

The system under study is a directed acyclic graph: sensor nodes emit fixed-
rate message streams, process nodes transform and optionally classify them,
communication links carry them, and a single output node archives whatever
survives.  Propagation pushes per-edge flow statistics (rate, size, true and
false population rates) from the sensors to the output in topological order
and records the power drawn by every node and link along the way.

Statistics, not individual messages, are propagated: with large message
counts the steady-state averages are exact, fast, and deterministic.

Fan-in nodes are synchronizers (event builders): every predecessor must
deliver the same message rate, and the merged message concatenates the
incoming fragments, so sizes add while the rate stays put.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from types import MappingProxyType

from .classifier import ClassifierModel, ConfusionMatrix, OperatingPoint, solve_operating_point
from .errors import (
    FlowConsistencyError,
    GraphValidationError,
    ModelError,
    OperatingPointError,
)
from .functions import ConstantScaling, is_nondecreasing

__all__ = [
    "SensorNode",
    "ProcessNode",
    "OutputNode",
    "CommLink",
    "PipelineGraph",
    "MessageFlow",
    "FlowAssignment",
    "ValidationReport",
    "validate_graph",
    "propagate_flows",
    "required_channels",
]

# relative tolerance for synchronized fan-in rate agreement
MERGE_RTOL = 1e-6


@dataclass(frozen=True)
class SensorNode:
    id: str
    sample_size: float  # bits per sample
    sample_rate: float  # Hz
    relevant_fraction: float = 0.0
    pileup_scaling: object = field(default_factory=ConstantScaling)  # pile-up -> size multiplier
    role: str | None = None
    enabled_min_pileup: float | None = None
    constant_power_w: float = 0.0

    def __post_init__(self) -> None:
        values = (
            self.sample_size,
            self.sample_rate,
            self.relevant_fraction,
            self.enabled_min_pileup,
            self.constant_power_w,
        )
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError(f"sensor {self.id!r}: numeric fields must be finite")
        if self.sample_size <= 0 or self.sample_rate <= 0:
            raise ValueError(f"sensor {self.id!r}: sample_size and sample_rate must be positive")
        if not 0.0 <= self.relevant_fraction <= 1.0:
            raise ValueError(f"sensor {self.id!r}: relevant_fraction must lie in [0, 1]")
        if self.constant_power_w < 0:
            raise ValueError(f"sensor {self.id!r}: constant_power_w must be >= 0")


@dataclass(frozen=True)
class ProcessNode:
    id: str
    complexity: object  # input bits -> ops
    energy_per_op: float  # J/op
    output_size: object  # input bits -> output bits
    classifier: ClassifierModel | None = None
    reduction_target: float | None = None
    role: str | None = None
    unit_power_w: float | None = None  # per-device dissipation of the installed hardware
    constant_power_w: float = 0.0

    def __post_init__(self) -> None:
        values = (self.energy_per_op, self.reduction_target, self.unit_power_w, self.constant_power_w)
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError(f"process {self.id!r}: numeric fields must be finite")
        if self.energy_per_op < 0:
            raise ValueError(f"process {self.id!r}: energy_per_op must be >= 0")
        if self.reduction_target is not None and self.reduction_target <= 1.0:
            raise ValueError(f"process {self.id!r}: reduction_target must exceed 1")


@dataclass(frozen=True)
class OutputNode:
    id: str


Node = SensorNode | ProcessNode | OutputNode


@dataclass(frozen=True)
class CommLink:
    id: str
    source: str
    target: str
    energy_per_bit: float  # J/bit
    bandwidth_per_channel: float  # bit/s per channel

    def __post_init__(self) -> None:
        if not (math.isfinite(self.energy_per_bit) and math.isfinite(self.bandwidth_per_channel)):
            raise ValueError(f"link {self.id!r}: numeric fields must be finite")
        if self.energy_per_bit < 0:
            raise ValueError(f"link {self.id!r}: energy_per_bit must be >= 0")
        if self.bandwidth_per_channel <= 0:
            raise ValueError(f"link {self.id!r}: bandwidth_per_channel must be positive")


@dataclass(frozen=True)
class MessageFlow:
    rate: float  # messages/second
    size: float  # bits/message
    n_true: float  # relevant messages/second
    n_false: float  # irrelevant messages/second

    def __post_init__(self) -> None:
        if min(self.rate, self.size, self.n_true, self.n_false) < 0:
            raise ValueError("flow fields must be >= 0")
        if abs((self.n_true + self.n_false) - self.rate) > 1e-9 * max(self.rate, 1.0):
            raise ValueError(
                f"flow populations do not add up: {self.n_true} + {self.n_false} != {self.rate}"
            )


@dataclass(frozen=True)
class PipelineGraph:
    nodes: tuple[Node, ...]
    links: tuple[CommLink, ...]

    def node(self, node_id: str) -> Node:
        try:
            return self._node_map[node_id]
        except KeyError:
            raise ModelError(f"unknown node {node_id!r}") from None

    def link(self, link_id: str) -> CommLink:
        try:
            return self._link_map[link_id]
        except KeyError:
            raise ModelError(f"unknown link {link_id!r}") from None

    @property
    def _node_map(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @property
    def _link_map(self) -> dict[str, CommLink]:
        return {l.id: l for l in self.links}

    def links_in(self, node_id: str) -> tuple[CommLink, ...]:
        return tuple(l for l in self.links if l.target == node_id)

    def links_out(self, node_id: str) -> tuple[CommLink, ...]:
        return tuple(l for l in self.links if l.source == node_id)

    def sensors(self) -> tuple[SensorNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, SensorNode))

    def output(self) -> OutputNode:
        outs = [n for n in self.nodes if isinstance(n, OutputNode)]
        if len(outs) != 1:
            raise GraphValidationError(f"graph has {len(outs)} output nodes, expected exactly 1")
        return outs[0]

    def find_role(self, role: str) -> Node | None:
        matches = [n for n in self.nodes if getattr(n, "role", None) == role]
        if len(matches) > 1:
            raise GraphValidationError(f"role {role!r} is assigned to multiple nodes")
        return matches[0] if matches else None

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ties broken by node id for determinism."""
        indegree = {n.id: 0 for n in self.nodes}
        for link in self.links:
            if link.target in indegree:
                indegree[link.target] += 1
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for link in self.links_out(nid):
                indegree[link.target] -= 1
                if indegree[link.target] == 0:
                    heapq.heappush(ready, link.target)
        if len(order) != len(self.nodes):
            raise GraphValidationError("graph contains a cycle")
        return tuple(order)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "graph OK"
        return "\n".join(f"- {v}" for v in self.violations)


def validate_graph(graph: PipelineGraph, classifier_ids: set[str] | None = None) -> ValidationReport:
    """Structural validation; returns a report instead of raising.

    classifier_ids optionally names process nodes whose classifier model is
    attached later (declared by reference), so the classifier/reduction
    pairing can be checked before models are built.
    """
    v: list[str] = []
    ids = [n.id for n in graph.nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        v.append(f"duplicate node ids: {', '.join(dupes)}")
        return ValidationReport(tuple(v))
    link_ids = [l.id for l in graph.links]
    if len(set(link_ids)) != len(link_ids):
        dupes = sorted({i for i in link_ids if link_ids.count(i) > 1})
        v.append(f"duplicate link ids: {', '.join(dupes)}")

    node_ids = set(ids)
    for link in graph.links:
        for end, name in ((link.source, "source"), (link.target, "target")):
            if end not in node_ids:
                v.append(f"link {link.id!r}: {name} {end!r} is not a node")
        if link.source == link.target:
            v.append(f"link {link.id!r}: self-loop")
    if any(end not in node_ids for l in graph.links for end in (l.source, l.target)):
        return ValidationReport(tuple(v))

    outputs = [n for n in graph.nodes if isinstance(n, OutputNode)]
    if len(outputs) != 1:
        v.append(f"graph must have exactly one output node, found {len(outputs)}")

    try:
        graph.topological_order()
    except GraphValidationError:
        v.append("graph contains a cycle")
        return ValidationReport(tuple(v))

    for node in graph.nodes:
        incoming = graph.links_in(node.id)
        if isinstance(node, SensorNode) and incoming:
            v.append(f"sensor {node.id!r} has incoming links")
        if not isinstance(node, SensorNode) and not incoming:
            v.append(f"node {node.id!r} has no predecessors")
        if isinstance(node, OutputNode) and graph.links_out(node.id):
            v.append(f"output {node.id!r} has outgoing links")

    if len(outputs) == 1:
        # every node must reach the output
        reachable = {outputs[0].id}
        frontier = [outputs[0].id]
        while frontier:
            nid = frontier.pop()
            for link in graph.links_in(nid):
                if link.source not in reachable:
                    reachable.add(link.source)
                    frontier.append(link.source)
        for node in graph.nodes:
            if node.id not in reachable:
                v.append(f"node {node.id!r} has no path to the output")

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
            if fn(0.0) < 0 or not is_nondecreasing(fn, 0.0, 1e9):
                v.append(f"process {node.id!r}: {label} must be nonnegative and nondecreasing")

    return ValidationReport(tuple(v))


@dataclass(frozen=True)
class FlowAssignment:
    """Result of one propagation: per-edge flows plus per-element powers."""

    flows: MappingProxyType  # link id -> MessageFlow
    node_inputs: MappingProxyType  # node id -> merged incoming MessageFlow
    node_powers: MappingProxyType  # node id -> W
    link_powers: MappingProxyType  # link id -> W
    confusions: MappingProxyType  # classifier node id -> ConfusionMatrix
    operating_points: MappingProxyType  # classifier node id -> OperatingPoint
    storage_rate: float  # bit/s into the output node
    output_true_rate: float  # messages/s
    output_false_rate: float  # messages/s

    @property
    def total_power(self) -> float:
        return sum(self.node_powers.values()) + sum(self.link_powers.values())


def _merge_incoming(node_id: str, incoming: list[MessageFlow]) -> MessageFlow:
    """Synchronized fan-in: equal rates required, fragment sizes add."""
    rate = max(f.rate for f in incoming)
    n_true = max(f.n_true for f in incoming)
    for f in incoming:
        for got, want, what in (
            (f.rate, rate, "rate"),
            (f.n_true, n_true, "n_true"),
        ):
            if abs(got - want) > MERGE_RTOL * max(want, 1e-300):
                raise FlowConsistencyError(
                    f"node {node_id!r}: predecessor {what}s disagree "
                    f"({got!r} vs {want!r}); synchronized fan-in needs equal rates"
                )
    size = sum(f.size for f in incoming)
    return MessageFlow(rate=rate, size=size, n_true=n_true, n_false=rate - n_true)


def propagate_flows(graph: PipelineGraph) -> FlowAssignment:
    """Propagate flow statistics from sensors to the output.

    Classifying nodes place their threshold to meet the reduction target, so
    their outgoing rate is incoming/reduction exactly and the split of the
    survivors into true/false populations follows the solved confusion
    matrix.  Raises OperatingPointError (naming the node) when a classifier
    cannot reach its target, FlowConsistencyError on fan-in rate mismatch.
    """
    report = validate_graph(graph)
    if not report.ok:
        raise GraphValidationError(f"invalid graph:\n{report}")

    flows: dict[str, MessageFlow] = {}
    node_inputs: dict[str, MessageFlow] = {}
    node_powers: dict[str, float] = {}
    link_powers: dict[str, float] = {}
    confusions: dict[str, ConfusionMatrix] = {}
    operating_points: dict[str, OperatingPoint] = {}
    storage_rate = 0.0
    out_true = 0.0
    out_false = 0.0

    for nid in graph.topological_order():
        node = graph.node(nid)
        if isinstance(node, SensorNode):
            n_true = node.sample_rate * node.relevant_fraction
            produced = MessageFlow(
                rate=node.sample_rate,
                size=node.sample_size,
                n_true=n_true,
                n_false=node.sample_rate - n_true,
            )
            node_inputs[nid] = produced
            node_powers[nid] = node.constant_power_w
            out_flow = produced
        elif isinstance(node, ProcessNode):
            incoming = [flows[l.id] for l in graph.links_in(nid)]
            merged = _merge_incoming(nid, incoming)
            node_inputs[nid] = merged
            ops = node.complexity(merged.size)
            node_powers[nid] = merged.rate * ops * node.energy_per_op + node.constant_power_w
            out_size = node.output_size(merged.size)
            if node.classifier is not None:
                try:
                    op = solve_operating_point(node.classifier, merged, node.reduction_target)
                except OperatingPointError as exc:
                    raise OperatingPointError(f"node {nid!r}: {exc}") from exc
                confusions[nid] = op.confusion
                operating_points[nid] = op
                cm = op.confusion
                out_flow = MessageFlow(
                    rate=cm.tp + cm.fp, size=out_size, n_true=cm.tp, n_false=cm.fp
                )
            else:
                out_flow = MessageFlow(
                    rate=merged.rate, size=out_size, n_true=merged.n_true, n_false=merged.n_false
                )
        else:  # OutputNode: archive every incoming stream
            incoming = [flows[l.id] for l in graph.links_in(nid)]
            storage_rate = sum(f.rate * f.size for f in incoming)
            out_true = sum(f.n_true for f in incoming)
            out_false = sum(f.n_false for f in incoming)
            total_rate = sum(f.rate for f in incoming)
            total_size = sum(f.size for f in incoming)
            node_inputs[nid] = MessageFlow(
                rate=total_rate, size=total_size, n_true=out_true, n_false=out_false
            )
            node_powers[nid] = 0.0
            continue

        for link in graph.links_out(nid):
            flows[link.id] = out_flow
            link_powers[link.id] = out_flow.rate * out_flow.size * link.energy_per_bit

    return FlowAssignment(
        flows=MappingProxyType(flows),
        node_inputs=MappingProxyType(node_inputs),
        node_powers=MappingProxyType(node_powers),
        link_powers=MappingProxyType(link_powers),
        confusions=MappingProxyType(confusions),
        operating_points=MappingProxyType(operating_points),
        storage_rate=storage_rate,
        output_true_rate=out_true,
        output_false_rate=out_false,
    )


def required_channels(link: CommLink, flow: MessageFlow) -> int:
    """Channel count needed to carry the flow's bit rate."""
    return math.ceil(flow.rate * flow.size / link.bandwidth_per_channel)
