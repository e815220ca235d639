"""Brute-force per-message oracle for small pipelines.

propagate_flows pushes closed-form flow statistics through the graph; this
module instead draws individual synchronized events and walks each one from
the sensors to the output, re-deriving message sizes and per-message energy
from the node parameters alone (nothing here calls the energy module, and
score families are mapped to scipy independently).  Classifying nodes apply
the solved operating point's threshold to freshly sampled scores, so which
events survive where is the Monte Carlo content; the energy a surviving
event has consumed at a given node is deterministic given the topology.

compare() runs both sides on one graph and returns a list of discrepancy
messages: empty means every edge flow, every confusion count, and all four
error-class costs agree within 3 sigma of the Monte Carlo error (plus a
tiny float-arithmetic allowance for the deterministic quantities).

random_pipeline() generates the graphs this oracle is meant for: at most
five nodes, parametric score models, fan-in fed directly by sensors, and a
single stream into the output.  Its sensors draw no constant power, so at
a merge the predecessors have spent nothing and a path sum cannot be told
from a mean; test_energy's fan-in classifier graph gives its sensors a draw
to check that a discard at a merge carries every fragment's spend.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from daqflow.classifier import ClassifierModel, EmpiricalScores, ParametricScores
from daqflow.energy import build_ledger, error_costs
from daqflow.functions import ConstantFn, LinearFn
from daqflow.graph import (
    CommLink,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    propagate_flows,
)
from daqflow.metrics import system_confusion

# independent family mapping so a wrong table in the package cannot hide
_FAMILIES = {"normal": stats.norm, "logistic": stats.logistic, "uniform": stats.uniform}


def _draw_scores(dist, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(dist, ParametricScores):
        return _FAMILIES[dist.family](loc=dist.loc, scale=dist.scale).rvs(
            size=n, random_state=rng
        )
    if isinstance(dist, EmpiricalScores):
        # the sorted sample array the atoms stand for
        samples = np.repeat(dist.values, np.diff(dist.cumulative, prepend=0))
        return rng.choice(samples, size=n, replace=True)
    raise TypeError(f"cannot sample {type(dist).__name__}")


def simulate(graph: PipelineGraph, assignment, n_events: int, seed: int) -> dict:
    """Walk n_events synchronized events through the graph.

    Uses the operating points the analytic side solved (threshold and
    boundary keep share); everything else is recomputed from scratch.
    Returns raw counts and the deterministic per-message energy ledger.
    """
    rng = np.random.default_rng(seed)
    sensors = [n for n in graph.nodes if isinstance(n, SensorNode)]
    rate = sensors[0].sample_rate
    fraction = sensors[0].relevant_fraction
    for s in sensors:
        assert s.sample_rate == rate, "oracle assumes one synchronized event rate"
        assert s.relevant_fraction == fraction, "relevance is a per-event property"

    is_true = rng.random(n_events) < fraction
    alive: dict[str, np.ndarray] = {}
    out_size: dict[str, float] = {}
    acc: dict[str, float] = {}  # J one message has consumed on leaving the node
    node_confusion: dict[str, tuple[int, int, int, int]] = {}
    link_alive: dict[str, int] = {}
    link_true: dict[str, int] = {}
    sys_counts = None
    tn_spend = []  # (count, J) per classifier, for the discard-price estimate

    for nid in graph.topological_order():
        node = graph.node(nid)
        if isinstance(node, SensorNode):
            survivors = np.ones(n_events, dtype=bool)
            out_size[nid] = node.sample_size
            acc[nid] = node.constant_power_w / rate if node.constant_power_w else 0.0
        elif isinstance(node, ProcessNode):
            in_links = graph.links_in(nid)
            survivors = alive[in_links[0].source].copy()
            for link in in_links[1:]:
                survivors &= alive[link.source]
            # constant draw at a reduced-rate stage would need the analytic
            # rate to price per message, which the oracle must not consult
            assert node.constant_power_w == 0.0, "oracle graphs keep process draw rate-borne"
            in_size = sum(out_size[l.source] for l in in_links)
            own = node.complexity(in_size) * node.energy_per_op
            own += sum(out_size[l.source] * l.energy_per_bit for l in in_links)
            acc[nid] = own + sum(acc[l.source] for l in in_links)
            out_size[nid] = node.output_size(in_size)

            if node.classifier is not None:
                op = assignment.operating_points[nid]
                scores = np.where(
                    is_true,
                    _draw_scores(node.classifier.positive, rng, n_events),
                    _draw_scores(node.classifier.negative, rng, n_events),
                )
                keep = scores > op.threshold
                if op.boundary_keep > 0.0:
                    at = scores == op.threshold
                    keep |= at & (rng.random(n_events) < op.boundary_keep)
                discarded = survivors & ~keep
                tp = int(np.count_nonzero(survivors & keep & is_true))
                fp = int(np.count_nonzero(survivors & keep & ~is_true))
                tn = int(np.count_nonzero(discarded & ~is_true))
                fn = int(np.count_nonzero(discarded & is_true))
                node_confusion[nid] = (tp, fp, tn, fn)
                tn_spend.append((tn, acc[nid]))
                survivors = survivors & keep
        else:  # output: archive whatever arrives on each stream
            in_links = graph.links_in(nid)
            assert len(in_links) == 1, "oracle graphs keep a single archive stream"
            link = in_links[0]
            arrived = alive[link.source]
            acc[nid] = out_size[link.source] * link.energy_per_bit + acc[link.source]
            sys_tp = int(np.count_nonzero(arrived & is_true))
            sys_fp = int(np.count_nonzero(arrived & ~is_true))
            sys_tn = sum(c[2] for c in node_confusion.values())
            sys_fn = sum(c[3] for c in node_confusion.values())
            sys_counts = (sys_tp, sys_fp, sys_tn, sys_fn)
            continue

        alive[nid] = survivors
        for link in graph.links_out(nid):
            link_alive[link.id] = int(np.count_nonzero(survivors))
            link_true[link.id] = int(np.count_nonzero(survivors & is_true))

    tn_total = sum(c for c, _ in tn_spend)
    if tn_total > 0:
        e_tn = sum(c * a for c, a in tn_spend) / tn_total
        var = sum(c * (a - e_tn) ** 2 for c, a in tn_spend) / tn_total
        e_tn_sigma = math.sqrt(var / tn_total)
    else:
        e_tn, e_tn_sigma = 0.0, 0.0

    output_id = graph.output().id
    return {
        "rate": rate,
        "n_events": n_events,
        "link_alive": link_alive,
        "link_true": link_true,
        "node_confusion": node_confusion,
        "sys_counts": sys_counts,
        "e_tp_j": acc[output_id],
        "e_tn_j": e_tn,
        "e_tn_sigma": e_tn_sigma,
        "tn_count": tn_total,
    }


def _check_count(failures, label, observed, n, p):
    expected = n * p
    sigma = math.sqrt(max(n * p * (1.0 - p), 0.0))
    # +1 absorbs pure discreteness when p sits at 0 or 1
    if abs(observed - expected) > 3.0 * sigma + 1.0:
        failures.append(
            f"{label}: observed {observed}, expected {expected:.1f} (sigma {sigma:.1f})"
        )


def compare(graph: PipelineGraph, n_events: int = 1_000_000, seed: int = 0) -> list[str]:
    """Analytic propagation vs the per-message walk; [] when they agree."""
    assignment = propagate_flows(graph)
    ledger = build_ledger(graph, assignment)
    costs = error_costs(graph, ledger, assignment)
    sim = simulate(graph, assignment, n_events, seed)

    failures: list[str] = []
    rate = sim["rate"]
    n = sim["n_events"]

    for link in graph.links:
        flow = assignment.flows[link.id]
        _check_count(failures, f"link {link.id} rate", sim["link_alive"][link.id], n, flow.rate / rate)
        _check_count(failures, f"link {link.id} n_true", sim["link_true"][link.id], n, flow.n_true / rate)

    for nid, counts in sim["node_confusion"].items():
        cm = assignment.confusions[nid]
        for label, got, rate_part in zip(
            ("tp", "fp", "tn", "fn"), counts, (cm.tp, cm.fp, cm.tn, cm.fn)
        ):
            _check_count(failures, f"node {nid} {label}", got, n, rate_part / rate)

    ana = system_confusion(assignment)
    for label, got, rate_part in zip(("tp", "fp", "tn", "fn"), sim["sys_counts"], ana):
        _check_count(failures, f"system {label}", got, n, rate_part / rate)

    # e_tp is deterministic on these graphs: both sides must re-derive the
    # same path energy from independent arithmetic
    if not math.isclose(costs.e_tp_j, sim["e_tp_j"], rel_tol=1e-9, abs_tol=1e-15):
        failures.append(f"e_tp: analytic {costs.e_tp_j!r} vs walk {sim['e_tp_j']!r}")

    slack = 3.0 * sim["e_tn_sigma"] + 1e-9 * abs(costs.e_tn_j)
    if abs(costs.e_tn_j - sim["e_tn_j"]) > slack:
        failures.append(
            f"e_tn: analytic {costs.e_tn_j!r} vs walk {sim['e_tn_j']!r} "
            f"(sigma {sim['e_tn_sigma']:.3e})"
        )

    e_fp_sim = sim["e_tp_j"] - sim["e_tn_j"]
    if abs(costs.e_fp_j - e_fp_sim) > 3.0 * sim["e_tn_sigma"] + 1e-9 * abs(costs.e_fp_j):
        failures.append(f"e_fp: analytic {costs.e_fp_j!r} vs walk {e_fp_sim!r}")

    tp_count = sim["sys_counts"][0]
    if costs.e_fn_j is not None and tp_count > 0 and sim["tn_count"] > 0:
        ratio = sim["tn_count"] / tp_count
        e_fn_sim = sim["e_tn_j"] * (1.0 + ratio) + sim["e_tp_j"]
        ratio_sigma = ratio * math.sqrt(1.0 / sim["tn_count"] + 1.0 / tp_count)
        sigma = (1.0 + ratio) * sim["e_tn_sigma"] + sim["e_tn_j"] * ratio_sigma
        if abs(costs.e_fn_j - e_fn_sim) > 3.0 * sigma + 1e-9 * abs(costs.e_fn_j):
            failures.append(
                f"e_fn: analytic {costs.e_fn_j!r} vs walk {e_fn_sim!r} (sigma {sigma:.3e})"
            )

    return failures


# === random graph generation ===


def _random_classifier(rng: np.random.Generator) -> ClassifierModel:
    separation = float(rng.uniform(0.8, 2.5))
    families = tuple(_FAMILIES)

    def make(family: str, mean: float, scale: float) -> ParametricScores:
        loc = mean - scale / 2.0 if family == "uniform" else mean
        return ParametricScores(family=family, loc=loc, scale=scale)

    negative = make(str(rng.choice(families)), 0.0, float(rng.uniform(0.5, 1.5)))
    positive = make(str(rng.choice(families)), separation, float(rng.uniform(0.5, 1.5)))
    return ClassifierModel(positive=positive, negative=negative)


def random_pipeline(rng: np.random.Generator) -> PipelineGraph:
    """Random pipeline of at most 5 nodes with at least one classifier.

    Cumulative keep fraction stays above 1% so a million events leave every
    population with enough survivors for tight confusion statistics.
    """
    rate = float(rng.integers(1, 6)) * 1e6
    fraction = float(rng.uniform(0.05, 0.4))
    n_sensors = int(rng.integers(1, 3))
    n_stages = int(rng.integers(1, 5 - n_sensors))

    nodes: list = []
    links: list[CommLink] = []
    for i in range(n_sensors):
        nodes.append(
            SensorNode(
                id=f"sen{i}",
                sample_size=float(rng.integers(1_000, 64_000)),
                sample_rate=rate,
                relevant_fraction=fraction,
            )
        )

    classify = np.zeros(n_stages, dtype=bool)
    classify[rng.integers(0, n_stages)] = True
    if n_stages > 1 and rng.random() < 0.4:
        classify[rng.integers(0, n_stages)] = True
    keeps = rng.uniform(0.1, 0.7, size=n_stages)
    if classify.sum() > 1:
        keeps = np.maximum(keeps, 0.15)  # keeps the cascade product above 1%

    prev = [f"sen{i}" for i in range(n_sensors)]
    for j in range(n_stages):
        complexity = (
            LinearFn(slope=float(rng.uniform(0.5, 20.0)))
            if rng.random() < 0.5
            else ConstantFn(float(rng.uniform(1e3, 1e5)))
        )
        node = ProcessNode(
            id=f"proc{j}",
            complexity=complexity,
            energy_per_op=10.0 ** float(rng.uniform(-12, -10)),
            output_size=LinearFn(slope=float(rng.uniform(0.2, 1.0))),
            classifier=_random_classifier(rng) if classify[j] else None,
            reduction_target=float(1.0 / keeps[j]) if classify[j] else None,
        )
        nodes.append(node)
        for src in prev:
            links.append(
                CommLink(
                    id=f"{src}-proc{j}",
                    source=src,
                    target=f"proc{j}",
                    energy_per_bit=10.0 ** float(rng.uniform(-12, -10)),
                    bandwidth_per_channel=1e10,
                )
            )
        prev = [f"proc{j}"]

    nodes.append(OutputNode(id="out"))
    links.append(
        CommLink(
            id=f"{prev[0]}-out",
            source=prev[0],
            target="out",
            energy_per_bit=10.0 ** float(rng.uniform(-12, -10)),
            bandwidth_per_channel=1e10,
        )
    )
    return PipelineGraph(nodes=tuple(nodes), links=tuple(links))


def shuffled(graph: PipelineGraph, rng: np.random.Generator) -> PipelineGraph:
    """The same graph with its nodes and its links each in a random order."""
    nodes = tuple(graph.nodes[i] for i in rng.permutation(len(graph.nodes)))
    links = tuple(graph.links[i] for i in rng.permutation(len(graph.links)))
    return PipelineGraph(nodes=nodes, links=links)
