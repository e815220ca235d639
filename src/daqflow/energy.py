"""Per-message energy attribution and error-class costs.

Every message that reaches a node has consumed energy at each element along
its path: compute at the nodes, transfer on the links, plus each element's
share of any constant draw.  The ledger attributes to a node the energy one
message costs *at* that node (incoming transfers included); total energy then
sums the attribution along the paths from the sensors, and the per-class
costs price what a kept or discarded message is worth in joules.

Cost conventions:

- a true positive costs the mean total energy at the output (the full chain),
- a true negative costs the total energy at each classifier node (every
  fragment merged into the dropped event included), averaged over the
  classifiers by how many irrelevant messages each one rejects,
- a false positive wastes what the full chain adds beyond a justified
  discard, e_fp = e_tp - e_tn,
- a false negative costs the dropped message's own spend plus the work
  needed to recover it: the rejected-message budget scaled up by how many
  discards accompany each keeper, plus one full re-acquisition,
  e_fn = e_tn * (1 + tn/tp) + e_tp.

With no true positives at the output the false-negative price diverges; the
costs are then flagged degenerate and e_fn is None.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Mapping

from .graph import FlowAssignment, OutputNode, PipelineGraph, ProcessNode, SensorNode

__all__ = [
    "EnergyLedger",
    "ErrorCosts",
    "build_ledger",
    "total_energy",
    "mean_total_energy",
    "error_costs",
    "energy_balance",
]


@dataclass(frozen=True)
class EnergyLedger:
    node_energy: Mapping[str, float]  # J per message, attributed at the node
    link_energy: Mapping[str, float]  # J per message carried, per link
    counts: Mapping[str, float]  # messages/s seen by the node
    totals: Mapping[str, float]  # J per message accumulated by the time it leaves the node


def build_ledger(graph: PipelineGraph, assignment: FlowAssignment) -> EnergyLedger:
    node_energy: dict[str, float] = {}
    link_energy: dict[str, float] = {}
    counts: dict[str, float] = {}
    # the graph's in-link index, read directly: a method call per node costs more than the sums
    flows, node_inputs, links_in = assignment.flows, assignment.node_inputs, graph._in

    for link in graph.links:
        link_energy[link.id] = flows[link.id].size * link.energy_per_bit

    for node in graph.nodes:
        flow_in = node_inputs[node.id]
        counts[node.id] = flow_in.rate
        if isinstance(node, SensorNode):
            e = 0.0
            if node.constant_power_w > 0.0 and flow_in.rate > 0.0:
                e = node.constant_power_w / flow_in.rate
            node_energy[node.id] = e
        elif isinstance(node, ProcessNode):
            e = node.complexity(flow_in.size) * node.energy_per_op
            for link in links_in.get(node.id, ()):
                e += link_energy[link.id]
            if node.constant_power_w > 0.0 and flow_in.rate > 0.0:
                e += node.constant_power_w / flow_in.rate
            node_energy[node.id] = e
        else:
            # Output: incoming streams are archived independently, so the
            # per-message transfer cost is the rate-weighted stream mean.
            incoming = links_in.get(node.id, ())
            total_rate = sum(flows[l.id].rate for l in incoming)
            e = 0.0
            if total_rate > 0.0:
                for link in incoming:
                    f = flows[link.id]
                    e += f.rate * f.size * link.energy_per_bit
                e /= total_rate
            node_energy[node.id] = e

    # path sums in one topological pass: a node's own attribution plus the
    # total at every predecessor, one term per incoming link
    totals: dict[str, float] = {}
    for nid in graph.topological_order():
        te = node_energy[nid]
        for link in links_in.get(nid, ()):
            te += totals[link.source]
        totals[nid] = te

    return EnergyLedger(
        node_energy=MappingProxyType(node_energy),
        link_energy=MappingProxyType(link_energy),
        counts=MappingProxyType(counts),
        totals=MappingProxyType(totals),
    )


def total_energy(graph: PipelineGraph, ledger: EnergyLedger, node_id: str) -> float:
    """Energy one message has consumed by the time it leaves node_id.

    Path sum: the node's own attribution plus the total energy accumulated
    at every predecessor, one term per incoming link (see `build_ledger`).
    """
    graph.node(node_id)  # ModelError for an unknown id
    return ledger.totals[node_id]


def mean_total_energy(
    graph: PipelineGraph,
    ledger: EnergyLedger,
    assignment: FlowAssignment,
    node_id: str,
) -> float:
    """Expected accumulated energy of a message at node_id.

    Inside the pipeline a message is one synchronized event, so a merge
    carries every fragment's spend: the path sum `ledger.totals`.  Only the
    output archives its incoming streams independently; there the
    predecessor totals are weighted by each stream's share of the traffic.
    """
    if not isinstance(graph.node(node_id), OutputNode):
        return ledger.totals[node_id]
    incoming = graph.links_in(node_id)
    e = ledger.node_energy[node_id]
    if not incoming:
        return e
    rates = [assignment.flows[l.id].rate for l in incoming]
    total = sum(rates)
    if total <= 0.0:
        weights = [1.0 / len(incoming)] * len(incoming)
    else:
        weights = [r / total for r in rates]
    for link, w in zip(incoming, weights):
        e += w * total_energy(graph, ledger, link.source)
    return e


@dataclass(frozen=True)
class ErrorCosts:
    e_tp_j: float
    e_tn_j: float
    e_fp_j: float
    e_fn_j: float | None
    tn_tp_ratio: float | None
    degenerate: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def error_costs(
    graph: PipelineGraph, ledger: EnergyLedger, assignment: FlowAssignment
) -> ErrorCosts:
    output = graph.output()
    e_tp = mean_total_energy(graph, ledger, assignment, output.id)

    # true negatives: mean energy of the irrelevant messages each classifier
    # rejects, weighted by how many it rejects
    tn_total = 0.0
    e_tn_weighted = 0.0
    for node_id, cm in assignment.confusions.items():
        mte = mean_total_energy(graph, ledger, assignment, node_id)
        tn_total += cm.tn
        e_tn_weighted += cm.tn * mte
    e_tn = e_tn_weighted / tn_total if tn_total > 0.0 else 0.0

    e_fp = e_tp - e_tn

    tp_sys = assignment.output_true_rate
    if tp_sys > 0.0:
        ratio = tn_total / tp_sys
        return ErrorCosts(e_tp, e_tn, e_fp, e_fn_j=e_tn * (1.0 + ratio) + e_tp, tn_tp_ratio=ratio)
    return ErrorCosts(e_tp, e_tn, e_fp, e_fn_j=None, tn_tp_ratio=None, degenerate=True)


def energy_balance(graph: PipelineGraph, ledger: EnergyLedger, assignment: FlowAssignment) -> float:
    """Rate-weighted per-message attributions, in watts.

    Should reproduce the propagated total power; exposed for auditing.
    """
    return sum(ledger.node_energy[nid] * ledger.counts[nid] for nid in ledger.node_energy)
