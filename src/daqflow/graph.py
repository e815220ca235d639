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

The five records (nodes, links, flows) are frozen slots dataclasses, and a
fan-in graph builds thousands of them.  `_slot_init` swaps in an `__init__`,
generated from `dataclasses.fields`, that stores each field through its slot
descriptor's `__set__` (a frozen dataclass's own finds the slot by name on
every store; a sensor is built in ~0.6 of the time, `BENCH_29.json`), then
runs the record's chained valid-case test inline and calls `__post_init__`,
which names the fault, only when it fails.  The records stay frozen and keep
the dataclass's signature, repr, equality, hash and pickling.

A fan-in op validates in one pass over the nodes, merges by the extremes and
runs Kahn over the sorted ready ids; reverting each alone, or the inline record
tests, costs a `fanin_scale` op 0.37, 0.08, 0.12 and 0.19 ms (`BENCH_34.json`).
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter, defaultdict
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .classifier import ClassifierModel, ConfusionMatrix, OperatingPoint, solve_operating_point
from .errors import (
    FlowConsistencyError,
    GraphValidationError,
    ModelError,
    OperatingPointError,
)
from .functions import ConstantScaling, CostFn, is_nondecreasing_cost

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

# An int compares exactly with a float, so a field above _MAX fails the
# chained tests, where an int beyond the float range would pass `< inf`.
_MAX = sys.float_info.max


def _finite(*values: float | None) -> bool:
    """Whether every value that is not None is a finite float, or an int within the float range."""
    return all(v is None or -_MAX <= v <= _MAX for v in values)


def _slot_init(cls: type | None = None, *, valid: str | None = None):
    """Give a frozen slots dataclass an `__init__` that stores each field
    through its slot descriptor's `__set__`.

    Parameters, their order and defaults come from `fields(cls)`, and the
    dataclass's annotations and `__doc__` stay; `__post_init__` runs last if
    the class has one, or only when `valid` is false: a test over the parameters
    that every valid record passes, raising only where `__post_init__` would.
    A `default_factory`, `init=False` or `kw_only` field is refused.
    """
    if cls is None:
        return lambda cls: _slot_init(cls, valid=valid)
    env = {"__name__": cls.__module__, "_MAX": _MAX}
    params, body = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(
                f"{cls.__name__}.{f.name}: a field with a default_factory, "
                "init=False or kw_only=True is not supported"
            )
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if valid is not None:
        body.append(f"    if not ({valid}):\n        self.__post_init__()")
    elif hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@_slot_init(
    valid="0.0 < sample_size <= _MAX and 0.0 < sample_rate <= _MAX"
    " and 0.0 <= relevant_fraction <= 1.0 and 0.0 <= constant_power_w <= _MAX"
    " and (enabled_min_pileup is None or -_MAX <= enabled_min_pileup <= _MAX)"
)
@dataclass(frozen=True, slots=True)
class SensorNode:
    id: str
    sample_size: float  # bits per sample
    sample_rate: float  # Hz
    relevant_fraction: float = 0.0
    pileup_scaling: object = ConstantScaling()  # pile-up -> size multiplier
    role: str | None = None
    enabled_min_pileup: float | None = None
    constant_power_w: float = 0.0

    def __post_init__(self) -> None:
        if not _finite(
            self.sample_size,
            self.sample_rate,
            self.relevant_fraction,
            self.enabled_min_pileup,
            self.constant_power_w,
        ):
            raise ValueError(f"sensor {self.id!r}: numeric fields must be finite")
        if self.sample_size <= 0 or self.sample_rate <= 0:
            raise ValueError(f"sensor {self.id!r}: sample_size and sample_rate must be positive")
        if not 0.0 <= self.relevant_fraction <= 1.0:
            raise ValueError(f"sensor {self.id!r}: relevant_fraction must lie in [0, 1]")
        if self.constant_power_w < 0:
            raise ValueError(f"sensor {self.id!r}: constant_power_w must be >= 0")


@_slot_init
@dataclass(frozen=True, slots=True)
class ProcessNode:
    id: str
    complexity: CostFn  # input bits -> ops
    energy_per_op: float  # J/op
    output_size: CostFn  # input bits -> output bits
    classifier: ClassifierModel | None = None
    reduction_target: float | None = None
    role: str | None = None
    unit_power_w: float | None = None  # per-device dissipation of the installed hardware
    constant_power_w: float = 0.0

    def __post_init__(self) -> None:
        if not _finite(
            self.energy_per_op, self.reduction_target, self.unit_power_w, self.constant_power_w
        ):
            raise ValueError(f"process {self.id!r}: numeric fields must be finite")
        if self.energy_per_op < 0:
            raise ValueError(f"process {self.id!r}: energy_per_op must be >= 0")
        if self.reduction_target is not None and self.reduction_target <= 1.0:
            raise ValueError(f"process {self.id!r}: reduction_target must exceed 1")


@_slot_init
@dataclass(frozen=True, slots=True)
class OutputNode:
    id: str


Node = SensorNode | ProcessNode | OutputNode


@_slot_init(valid="0.0 <= energy_per_bit <= _MAX and 0.0 < bandwidth_per_channel <= _MAX")
@dataclass(frozen=True, slots=True)
class CommLink:
    id: str
    source: str
    target: str
    energy_per_bit: float  # J/bit
    bandwidth_per_channel: float  # bit/s per channel

    def __post_init__(self) -> None:
        if not _finite(self.energy_per_bit, self.bandwidth_per_channel):
            raise ValueError(f"link {self.id!r}: numeric fields must be finite")
        if self.energy_per_bit < 0:
            raise ValueError(f"link {self.id!r}: energy_per_bit must be >= 0")
        if self.bandwidth_per_channel <= 0:
            raise ValueError(f"link {self.id!r}: bandwidth_per_channel must be positive")


# n_true, n_false <= _MAX / 2 keep an int sum convertible to float, so the test cannot raise
@_slot_init(
    valid="0 <= rate <= _MAX and 0 <= size"
    f" and 0 <= n_true <= {_MAX / 2} and 0 <= n_false <= {_MAX / 2}"
    " and abs((n_true + n_false) - rate) <= 1e-9 * (rate if rate > 1.0 else 1.0)"
)
@dataclass(frozen=True, slots=True)
class MessageFlow:
    rate: float  # messages/second
    size: float  # bits/message
    n_true: float  # relevant messages/second
    n_false: float  # irrelevant messages/second

    def __post_init__(self) -> None:
        rate, n_true, n_false = self.rate, self.n_true, self.n_false
        # `>=` is False for NaN, so a NaN field fails here too
        if not (rate >= 0 and self.size >= 0 and n_true >= 0 and n_false >= 0):
            raise ValueError("flow fields must be >= 0")
        try:
            if abs((n_true + n_false) - rate) > 1e-9 * (rate if rate > 1.0 else 1.0):
                raise ValueError(f"flow populations do not add up: {n_true} + {n_false} != {rate}")
        except OverflowError:  # a rate that is an int beyond the float range
            raise ValueError("flow numeric fields must be finite") from None


def _ready_ids(initial: list[str], later: list[str]) -> Iterable[str]:
    """Merge the sorted ids `initial` with the heap `later`, which grows as they are taken."""
    for first in initial:
        while later and later[0] < first:
            yield heapq.heappop(later)
        yield first
    while later:
        yield heapq.heappop(later)


def _kahn_order(graph: PipelineGraph) -> list[str]:
    """Kahn's algorithm, ties broken by node id; short if a cycle or missing node blocks it.

    Only nodes that become ready later go through a heap; the sorted,
    initially ready ids are merged with it.
    """
    links_in, links_out = graph._in, graph._out
    indegree = dict.fromkeys(graph._by_id, 0)
    indegree.update({nid: len(ls) for nid, ls in links_in.items() if nid in indegree})
    later: list[str] = []
    order: list[str] = []
    for nid in _ready_ids(sorted([nid for nid, deg in indegree.items() if deg == 0]), later):
        order.append(nid)
        for link in links_out.get(nid, ()):
            deg = indegree.get(link.target)
            if deg is not None:
                indegree[link.target] = deg - 1
                if deg == 1:
                    heapq.heappush(later, link.target)
    return order


@dataclass(frozen=True)
class PipelineGraph:
    """Nodes and links, with an index built map by map on first read.

    The index holds the id -> node map, each endpoint's in/out links (in
    `links` order) and the topological order (None if cyclic).  Construction
    never raises; `validate_graph` reports a malformed graph.
    """

    nodes: tuple[Node, ...]
    links: tuple[CommLink, ...]

    @cached_property
    def _by_id(self) -> Mapping[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _in(self) -> Mapping[str, tuple[CommLink, ...]]:
        incoming: dict[str, list[CommLink]] = defaultdict(list)
        for link in self.links:
            incoming[link.target].append(link)
        return {nid: tuple(ls) for nid, ls in incoming.items()}

    @cached_property
    def _out(self) -> Mapping[str, tuple[CommLink, ...]]:
        # most sources feed one link: a list only for the links after a source's first
        outgoing: dict[str, tuple[CommLink, ...]] = {}
        more: dict[str, list[CommLink]] = defaultdict(list)
        for link in self.links:
            if link.source in outgoing:
                more[link.source].append(link)
            else:
                outgoing[link.source] = (link,)
        for nid, ls in more.items():
            outgoing[nid] += tuple(ls)
        return outgoing

    @cached_property
    def _order(self) -> tuple[str, ...] | None:
        order = _kahn_order(self)
        return tuple(order) if len(order) == len(self.nodes) else None

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ModelError(f"unknown node {node_id!r}") from None

    def links_in(self, node_id: str) -> tuple[CommLink, ...]:
        return self._in.get(node_id, ())

    def links_out(self, node_id: str) -> tuple[CommLink, ...]:
        return self._out.get(node_id, ())

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
        """Kahn order with the node-id tie-break, computed on first read."""
        if self._order is None:
            raise GraphValidationError("graph contains a cycle")
        return self._order


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


def _duplicates(ids: Iterable[str]) -> list[str]:
    return sorted(i for i, count in Counter(ids).items() if count > 1)


def validate_graph(graph: PipelineGraph, classifier_ids: set[str] | None = None) -> ValidationReport:
    """Structural validation; returns a report instead of raising.

    classifier_ids optionally names process nodes whose classifier model is
    attached later (declared by reference), so the classifier/reduction
    pairing can be checked before models are built.
    """
    v: list[str] = []
    by_id, links_in, links_out = graph._by_id, graph._in, graph._out
    if len(by_id) < len(graph.nodes):  # the index keeps one node per id
        dupes = _duplicates(n.id for n in graph.nodes)
        return ValidationReport((f"duplicate node ids: {', '.join(dupes)}",))
    # a Counter only when the set sizes show a duplicate
    if len({l.id for l in graph.links}) < len(graph.links):
        v.append(f"duplicate link ids: {', '.join(_duplicates(l.id for l in graph.links))}")

    # one pass over the nodes (the index holds an id only if it has a link at that end)
    roles, outputs, processes, structure = [], [], [], []
    for node in graph.nodes:
        nid = node.id
        if isinstance(node, SensorNode):
            if nid in links_in:
                structure.append(f"sensor {nid!r} has incoming links")
        else:
            if nid not in links_in:
                structure.append(f"node {nid!r} has no predecessors")
            if isinstance(node, OutputNode):
                outputs.append(node)
                if nid in links_out:
                    structure.append(f"output {nid!r} has outgoing links")
                continue
            processes.append(node)
        if node.role is not None:
            roles.append(node.role)
    if len(set(roles)) < len(roles):
        v.extend(f"role {role!r} is assigned to multiple nodes" for role in _duplicates(roles))

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
        return ValidationReport(tuple(v))

    if len(outputs) != 1:
        v.append(f"graph must have exactly one output node, found {len(outputs)}")

    if graph._order is None:
        v.append("graph contains a cycle")
        return ValidationReport(tuple(v))

    v += structure
    if len(outputs) == 1:
        # every node must reach the output
        reaches = {outputs[0].id}
        for nid in reversed(graph._order):
            for link in links_out.get(nid, ()):
                if link.target in reaches:
                    reaches.add(nid)
                    break
        if len(reaches) < len(graph.nodes):  # ids are unique here
            v.extend(f"node {i!r} has no path to the output" for i in by_id if i not in reaches)

    for node in processes:
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
    rates = [f.rate for f in incoming]
    n_trues = [f.n_true for f in incoming]
    rate, n_true = max(rates), max(n_trues)
    rate_tol = MERGE_RTOL * max(rate, 1e-300)
    n_true_tol = MERGE_RTOL * max(n_true, 1e-300)
    # the extremes decide, as max - x rounds monotonically; the loop names the first misfit
    if rate - min(rates) > rate_tol or n_true - min(n_trues) > n_true_tol:
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
    size = sum([f.size for f in incoming])
    return MessageFlow(rate=rate, size=size, n_true=n_true, n_false=rate - n_true)


def propagate_flows(graph: PipelineGraph) -> FlowAssignment:
    """Propagate flow statistics from sensors to the output.

    Classifying nodes place their threshold to meet the reduction target, so
    their outgoing rate is incoming/reduction exactly and the split of the
    survivors into true/false populations follows the solved confusion
    matrix.  Raises OperatingPointError (naming the node) when a classifier
    cannot reach its target, FlowConsistencyError on fan-in rate mismatch,
    and ModelError (naming the exception type, the cost function, its input
    and the node) when a cost function fails arithmetically.
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

    by_id, links_in, links_out = graph._by_id, graph._in, graph._out
    for nid in graph.topological_order():
        node = by_id[nid]
        if isinstance(node, SensorNode):
            n_true = node.sample_rate * node.relevant_fraction
            out_flow = node_inputs[nid] = MessageFlow(
                node.sample_rate, node.sample_size, n_true, node.sample_rate - n_true
            )
            node_powers[nid] = node.constant_power_w
        elif isinstance(node, ProcessNode):
            merged = _merge_incoming(nid, [flows[l.id] for l in links_in[nid]])
            node_inputs[nid] = merged
            label = "complexity"
            try:
                ops = node.complexity(merged.size)
                label = "output_size"
                out_size = node.output_size(merged.size)
            except ArithmeticError as exc:
                # not str(exc): a float overflow words it as the C library's errno text
                what = f"{label} at an input of {merged.size:.6g} bits (node {nid!r})"
                raise ModelError(f"{type(exc).__name__}: {what}") from exc
            node_powers[nid] = merged.rate * ops * node.energy_per_op + node.constant_power_w
            if node.classifier is not None:
                try:
                    op = solve_operating_point(node.classifier, merged, node.reduction_target)
                except OperatingPointError as exc:
                    raise OperatingPointError(f"node {nid!r}: {exc}") from exc
                confusions[nid] = cm = op.confusion
                operating_points[nid] = op
                out_flow = MessageFlow(cm.tp + cm.fp, out_size, cm.tp, cm.fp)
            else:
                out_flow = replace(merged, size=out_size)
        else:  # OutputNode: archive every incoming stream
            incoming = [flows[l.id] for l in links_in[nid]]
            storage_rate = sum(f.rate * f.size for f in incoming)
            out_true = sum(f.n_true for f in incoming)
            out_false = sum(f.n_false for f in incoming)
            total_rate = sum(f.rate for f in incoming)
            total_size = sum(f.size for f in incoming)
            node_inputs[nid] = MessageFlow(total_rate, total_size, out_true, out_false)
            node_powers[nid] = 0.0
            continue

        for link in links_out.get(nid, ()):
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
    """Channel count needed to carry the flow's bit rate; ModelError if it is not finite."""
    try:
        bits = flow.rate * flow.size
    except OverflowError:  # an int size beyond the float range
        bits = math.inf
    channels = bits / link.bandwidth_per_channel
    if not math.isfinite(channels):
        raise ModelError(
            f"link {link.id!r}: channel demand is not finite "
            f"({bits!r} bit/s over {link.bandwidth_per_channel!r} bit/s per channel)"
        )
    return math.ceil(channels)
