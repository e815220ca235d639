"""Analytical flow, power, and selection-quality model of trigger/DAQ pipelines.

The package propagates message-flow statistics through a directed acyclic
pipeline graph, solves classifier operating points against reduction
targets, prices energy per message and per error class, and scores whole
scenarios, with a YAML-based config format and a CLI on top.

Typical use:

    from daqflow import load_config, evaluate

    cfg = load_config("cms_run3.cfg")
    result = evaluate(cfg)
    print(result.score.f1, result.score.total_power_w)
"""

from .calibration import (
    EfficiencyCurve,
    MenuSpec,
    TriggerPath,
    build_menu,
    fit_lambda,
    sample_scores,
    trigger_rate,
)
from .classifier import (
    ClassifierModel,
    ConfusionMatrix,
    EmpiricalScores,
    OperatingPoint,
    ParametricScores,
    apply_skill,
    confusion_at_threshold,
    solve_operating_point,
    solve_threshold,
    weighted_cdf,
)
from .config import (
    ModelConfig,
    ReportSpec,
    SweepAxes,
    load_config,
    parse_config,
)
from .energy import (
    EnergyLedger,
    ErrorCosts,
    build_ledger,
    energy_balance,
    error_costs,
    mean_total_energy,
    total_energy,
)
from .errors import (
    ConfigError,
    DaqflowError,
    DegeneratePopulationError,
    FitInfeasibleError,
    FlowConsistencyError,
    GraphValidationError,
    ModelError,
    ModelWarning,
    OperatingPointError,
)
from .functions import (
    ConstantFn,
    ConstantScaling,
    LinearFn,
    PowerLawFn,
    ProportionalScaling,
    TableFn,
    TableScaling,
)
from .graph import (
    CommLink,
    FlowAssignment,
    MessageFlow,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
    ValidationReport,
    propagate_flows,
    required_channels,
    validate_graph,
)
from .metrics import SystemScore, score_system, system_confusion
from .scenario import (
    EvaluationResult,
    ExperimentConditions,
    GpuHlt,
    L1Tracks,
    ResultRow,
    SmartPixels,
    TechnologyEra,
    VariantConfig,
    apply_conditions,
    apply_era,
    apply_variant,
    evaluate,
    sweep,
)
from .units import UnitError, parse_quantity, parse_ratio

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # units
    "UnitError", "parse_quantity", "parse_ratio",
    # errors
    "DaqflowError", "ConfigError", "ModelError", "ModelWarning",
    "GraphValidationError", "FlowConsistencyError", "OperatingPointError",
    "DegeneratePopulationError", "FitInfeasibleError",
    # function forms
    "ConstantFn", "LinearFn", "PowerLawFn", "TableFn",
    "ConstantScaling", "ProportionalScaling", "TableScaling",
    # classifier
    "ClassifierModel", "ConfusionMatrix", "OperatingPoint",
    "ParametricScores", "EmpiricalScores",
    "weighted_cdf", "solve_threshold", "confusion_at_threshold",
    "solve_operating_point", "apply_skill",
    # calibration
    "EfficiencyCurve", "TriggerPath", "MenuSpec",
    "trigger_rate", "fit_lambda", "sample_scores", "build_menu",
    # graph
    "SensorNode", "ProcessNode", "OutputNode", "CommLink", "PipelineGraph",
    "MessageFlow", "FlowAssignment", "ValidationReport",
    "validate_graph", "propagate_flows",
    "required_channels",
    # energy
    "EnergyLedger", "ErrorCosts", "build_ledger", "total_energy",
    "mean_total_energy", "error_costs", "energy_balance",
    # metrics
    "SystemScore", "system_confusion", "score_system",
    # scenario
    "ExperimentConditions", "TechnologyEra",
    "GpuHlt", "L1Tracks", "SmartPixels", "VariantConfig",
    "apply_conditions", "apply_era", "apply_variant",
    "evaluate", "sweep", "ResultRow", "EvaluationResult",
    # config
    "ModelConfig", "SweepAxes", "ReportSpec",
    "load_config", "parse_config",
]
