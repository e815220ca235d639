"""Scenario machinery: conditions, hardware eras, upgrade variants, sweeps.

A scenario is a pure transformation of the baseline pipeline graph.  Beam
conditions rescale sensor payloads and retarget the reduction stages, a
technology era divides compute (and optionally link) energy per operation,
and upgrade variants swap hardware or capabilities on specific roles.  All
transformations return new graphs; nothing is mutated, so variants compose
in any order with identical results.

evaluate() runs one fully configured scenario end to end; sweep() walks the
Cartesian grid of a config's sweep axes, optionally fanning points out to
worker processes, and never lets one failed point abort the rest.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

from .classifier import apply_skill
from .energy import ErrorCosts, build_ledger, error_costs
from .errors import ConfigError, DaqflowError, ModelError, ModelWarning
from .functions import TableScaling
from .graph import (
    CommLink,
    FlowAssignment,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    propagate_flows,
    required_channels,
)
from .metrics import SystemScore, score_system

__all__ = [
    "ExperimentConditions",
    "TechnologyEra",
    "GpuHlt",
    "L1Tracks",
    "SmartPixels",
    "VariantConfig",
    "apply_conditions",
    "apply_era",
    "apply_variant",
    "evaluate",
    "sweep",
    "ResultRow",
    "EvaluationResult",
    "CSV_COLUMNS",
    "VARIANT_NAMES",
]


@dataclass(frozen=True)
class ExperimentConditions:
    pileup: float
    bunch_rate: float | None = None  # Hz; None keeps each sensor's own rate
    l1_reduction: float | None = None
    hlt_reduction: float | None = None
    relevant_fraction: float | None = None

    def __post_init__(self) -> None:
        values = (
            self.pileup,
            self.bunch_rate,
            self.l1_reduction,
            self.hlt_reduction,
            self.relevant_fraction,
        )
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError("condition values must be finite")
        if self.pileup <= 0:
            raise ValueError("pileup values must be positive")
        if self.bunch_rate is not None and self.bunch_rate <= 0:
            raise ValueError("bunch_rate must be positive")
        for r in (self.l1_reduction, self.hlt_reduction):
            if r is not None and r <= 1.0:
                raise ValueError("reduction targets must exceed 1")
        if self.relevant_fraction is not None and not 0.0 <= self.relevant_fraction <= 1.0:
            raise ValueError("relevant_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class TechnologyEra:
    year: int
    efficiency_factor: float
    baseline_year: int = 2024
    scale_links: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.efficiency_factor):
            raise ValueError("efficiency_factor must be finite")
        if self.efficiency_factor < 1.0:
            raise ValueError("efficiency_factor must be >= 1")
        if self.year < self.baseline_year:
            raise ValueError("era year precedes the baseline year")
        if self.year == self.baseline_year and self.efficiency_factor != 1.0:
            raise ValueError("efficiency_factor must be 1 at the baseline year")


@dataclass(frozen=True)
class GpuHlt:
    enabled: bool = False
    throughput_gain: float = 0.5  # fractional speedup per event over the CPU farm
    unit_power_w: float = 400.0  # per-device draw of the replacement hardware

    def __post_init__(self) -> None:
        if not (math.isfinite(self.throughput_gain) and math.isfinite(self.unit_power_w)):
            raise ValueError("throughput_gain and unit_power_w must be finite")
        if self.throughput_gain <= -1.0:
            raise ValueError("throughput_gain must exceed -1")
        if self.unit_power_w <= 0:
            raise ValueError("unit_power_w must be positive")


@dataclass(frozen=True)
class L1Tracks:
    enabled: bool = False
    skill_factor: float = 1.4

    def __post_init__(self) -> None:
        if not math.isfinite(self.skill_factor) or self.skill_factor < 0:
            raise ValueError("skill_factor must be finite and >= 0")


@dataclass(frozen=True)
class SmartPixels:
    enabled: bool = False
    data_reduction: float = 0.54  # fraction of pixel payload culled on-detector
    detector_power_w: float = 2300.0  # added on-detector processing draw

    def __post_init__(self) -> None:
        if not math.isfinite(self.detector_power_w):
            raise ValueError("detector_power_w must be finite")
        if not 0.0 <= self.data_reduction < 1.0:
            raise ValueError("data_reduction must lie in [0, 1)")
        if self.detector_power_w < 0:
            raise ValueError("detector_power_w must be >= 0")


VARIANT_NAMES = ("gpu_hlt", "l1_tracks", "smart_pixels")


@dataclass(frozen=True)
class VariantConfig:
    gpu_hlt: GpuHlt = field(default_factory=GpuHlt)
    l1_tracks: L1Tracks = field(default_factory=L1Tracks)
    smart_pixels: SmartPixels = field(default_factory=SmartPixels)

    def enabled_names(self) -> tuple[str, ...]:
        return tuple(n for n in VARIANT_NAMES if getattr(self, n).enabled)

    def with_enabled(self, names: tuple[str, ...]) -> "VariantConfig":
        """Same parameters, but exactly the given variants switched on."""
        unknown = sorted(set(names) - set(VARIANT_NAMES))
        if unknown:
            raise ConfigError(f"unknown variant names: {', '.join(unknown)}")
        return VariantConfig(
            gpu_hlt=replace(self.gpu_hlt, enabled="gpu_hlt" in names),
            l1_tracks=replace(self.l1_tracks, enabled="l1_tracks" in names),
            smart_pixels=replace(self.smart_pixels, enabled="smart_pixels" in names),
        )

    def label(self) -> str:
        names = self.enabled_names()
        return "+".join(names) if names else "none"


def _require_role(graph: PipelineGraph, role: str, why: str):
    node = graph.find_role(role)
    if node is None:
        raise ModelError(f"{why} needs a node with role {role!r}")
    return node


def apply_conditions(graph: PipelineGraph, conditions: ExperimentConditions) -> PipelineGraph:
    """Rescale the graph to the given beam conditions.

    Sensors below their enabling pile-up are removed together with their
    links; payload sizes follow each sensor's pile-up scaling; the l1t/hlt
    roles pick up new reduction targets when the conditions carry them.
    At the reference pile-up with no overrides this is the identity.
    """
    dropped: set[str] = set()
    nodes: list = []
    for node in graph.nodes:
        if isinstance(node, SensorNode):
            if node.enabled_min_pileup is not None and conditions.pileup < node.enabled_min_pileup:
                dropped.add(node.id)
                continue
            scaling = node.pileup_scaling
            if isinstance(scaling, TableScaling) and not scaling.in_domain(conditions.pileup):
                warnings.warn(
                    f"sensor {node.id!r}: pile-up {conditions.pileup} outside the scaling "
                    "table domain, clamping to the nearest entry",
                    ModelWarning,
                    stacklevel=2,
                )
            changes: dict = {"sample_size": scaling.scale(node.sample_size, conditions.pileup)}
            if conditions.bunch_rate is not None:
                changes["sample_rate"] = conditions.bunch_rate
            if conditions.relevant_fraction is not None:
                changes["relevant_fraction"] = conditions.relevant_fraction
            nodes.append(replace(node, **changes))
        elif isinstance(node, ProcessNode):
            role = node.role
            if role == "l1t" and conditions.l1_reduction is not None:
                nodes.append(replace(node, reduction_target=conditions.l1_reduction))
            elif role == "hlt" and conditions.hlt_reduction is not None:
                nodes.append(replace(node, reduction_target=conditions.hlt_reduction))
            else:
                nodes.append(node)
        else:
            nodes.append(node)
    links = tuple(l for l in graph.links if l.source not in dropped and l.target not in dropped)
    return PipelineGraph(nodes=tuple(nodes), links=links)


def apply_era(graph: PipelineGraph, era: TechnologyEra) -> PipelineGraph:
    """Divide compute energy per op (and optionally link energy per bit)."""
    factor = era.efficiency_factor
    if factor == 1.0 and not era.scale_links:
        return graph
    nodes = tuple(
        replace(n, energy_per_op=n.energy_per_op / factor) if isinstance(n, ProcessNode) else n
        for n in graph.nodes
    )
    links: tuple[CommLink, ...] = graph.links
    if era.scale_links:
        links = tuple(replace(l, energy_per_bit=l.energy_per_bit / factor) for l in links)
    return PipelineGraph(nodes=nodes, links=links)


def apply_variant(graph: PipelineGraph, variants: VariantConfig) -> PipelineGraph:
    """Apply the enabled upgrade variants in one rewrite of the graph.

    Each variant replaces the node of its own role, so enabled variants
    commute; they are applied in a fixed order regardless.
    """
    replaced: dict = {}  # node id -> replacement node
    if variants.gpu_hlt.enabled:
        v = variants.gpu_hlt
        node = _require_role(graph, "hlt", "gpu_hlt variant")
        if not isinstance(node, ProcessNode) or node.unit_power_w is None:
            raise ModelError("gpu_hlt variant needs an hlt process node with unit_power_w set")
        # same op count finishes (1 + gain) times faster on a device drawing
        # unit_power_w, so the effective energy per op rescales
        energy_scale = (v.unit_power_w / node.unit_power_w) / (1.0 + v.throughput_gain)
        replaced[node.id] = replace(
            node, energy_per_op=node.energy_per_op * energy_scale, unit_power_w=v.unit_power_w
        )
    if variants.l1_tracks.enabled:
        v = variants.l1_tracks
        node = _require_role(graph, "l1t", "l1_tracks variant")
        if not isinstance(node, ProcessNode) or node.classifier is None:
            raise ModelError("l1_tracks variant needs a classifying l1t node")
        replaced[node.id] = replace(node, classifier=apply_skill(node.classifier, v.skill_factor))
    if variants.smart_pixels.enabled:
        v = variants.smart_pixels
        node = _require_role(graph, "inner_tracker", "smart_pixels variant")
        if not isinstance(node, SensorNode):
            raise ModelError("smart_pixels variant needs an inner_tracker sensor")
        replaced[node.id] = replace(
            node,
            sample_size=node.sample_size * (1.0 - v.data_reduction),
            constant_power_w=node.constant_power_w + v.detector_power_w,
        )
    if not replaced:
        return graph
    nodes = tuple(replaced.get(n.id, n) for n in graph.nodes)
    return PipelineGraph(nodes=nodes, links=graph.links)


@dataclass(frozen=True)
class ResultRow:
    pileup: float | None
    reduction_ratio: float | None
    skill: float | None
    variant: str
    power_w: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    output_rate_hz: float | None = None
    productivity_per_kj: float | None = None
    error: str = ""

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class EvaluationResult:
    graph: PipelineGraph
    assignment: FlowAssignment
    score: SystemScore
    costs: ErrorCosts
    row: ResultRow
    channels: MappingProxyType  # link id -> channels needed to carry its flow


def _effective_seed(cfg, seed: int | None) -> int:
    if seed is not None:
        return seed
    return cfg.seeds.get("calibration", 0)


def evaluate(
    cfg,
    *,
    pileup: float | None = None,
    reduction: float | None = None,
    skill: float | None = None,
    variant_names: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> EvaluationResult:
    """Run one scenario end to end.

    Keyword overrides replace the config's conditions axis-by-axis;
    variant_names, when given, selects exactly those variants (keeping their
    configured parameters).  The skill override composes onto whatever the
    variants produced at the l1t classifier.  Raises only DaqflowErrors: an
    ArithmeticError or guard ValueError inside is re-raised as a ModelError.
    """
    try:
        base = cfg.build_graph(_effective_seed(cfg, seed))
        axes = {k: v for k, v in (("pileup", pileup), ("l1_reduction", reduction)) if v is not None}
        conditions = replace(cfg.conditions, **axes)

        variants: VariantConfig = cfg.variants
        if variant_names is not None:
            variants = variants.with_enabled(tuple(variant_names))

        g = apply_conditions(base, conditions)
        g = apply_era(g, cfg.era)
        g = apply_variant(g, variants)
        if skill is not None and skill != 1.0:
            skill_only = VariantConfig(l1_tracks=L1Tracks(enabled=True, skill_factor=skill))
            g = apply_variant(g, skill_only)

        assignment = propagate_flows(g)
        flows = assignment.flows
        # a link no finite channel count can carry fails the scenario
        channels = MappingProxyType({l.id: required_channels(l, flows[l.id]) for l in g.links})
        score = score_system(g, assignment)
        ledger = build_ledger(g, assignment)
        costs = error_costs(g, ledger, assignment)
    except (ArithmeticError, ValueError) as exc:
        raise ModelError(f"{type(exc).__name__}: {exc}") from exc

    l1t = g.find_role("l1t")
    if isinstance(l1t, ProcessNode) and l1t.classifier is not None:
        skill_out = l1t.classifier.skill_factor
    else:
        skill_out = skill if skill is not None else 1.0
    row = ResultRow(
        pileup=conditions.pileup,
        reduction_ratio=conditions.l1_reduction,
        skill=skill_out,
        variant=variants.label(),
        power_w=score.total_power_w,
        precision=score.precision,
        recall=score.recall,
        f1=score.f1,
        output_rate_hz=score.output_rate_hz,
        productivity_per_kj=score.productivity_per_j * 1e3,
    )
    for name, value in row.as_dict().items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"scenario result {name} is not finite ({value!r})")
    return EvaluationResult(
        graph=g, assignment=assignment, score=score, costs=costs, row=row, channels=channels
    )


def _sweep_point(args) -> ResultRow:
    cfg, pileup, reduction, skill, names, seed = args
    try:
        result = evaluate(
            cfg,
            pileup=pileup,
            reduction=reduction,
            skill=skill,
            variant_names=names,
            seed=seed,
        )
        return result.row
    except DaqflowError as exc:
        return ResultRow(
            pileup=pileup,
            reduction_ratio=reduction,
            skill=skill,
            variant="config" if names is None else "+".join(names) or "none",
            error=f"{type(exc).__name__}: {exc}",
        )


def sweep(cfg, *, jobs: int = 1, seed: int | None = None) -> list[ResultRow]:
    """Evaluate the config's sweep grid, one row per point, grid-ordered.

    Points fail individually: a failed point carries its error message in
    the row and the sweep continues.  jobs > 1 distributes points over
    processes, at most one per point, as one contiguous chunk per worker:
    a task carries the whole config, and pickling it plus the pool's
    per-task bookkeeping costs about as much as a warm point, so a chunk
    pays that once per worker, not once per point.  Results come back in
    grid order.
    """
    axes = getattr(cfg, "sweep", None)
    if axes is None:
        raise ConfigError("config has no sweep section")
    eff_seed = _effective_seed(cfg, seed)
    points = [
        (cfg, pu, red, sk, var, eff_seed)
        for pu, red, sk, var in itertools.product(
            axes.pileup, axes.reduction, axes.skill, axes.variants
        )
    ]
    workers = min(jobs, len(points))  # the pool starts every worker at once
    if workers > 1:
        chunk = math.ceil(len(points) / workers)
        workers = math.ceil(len(points) / chunk)  # no worker left without a chunk
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, points, chunksize=chunk))
    return [_sweep_point(p) for p in points]
