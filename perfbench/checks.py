"""Output checks: the Run-3 pin check and the per-op audit.

The audit restates the model's own identities from the outside, so a fast
but wrong op is a failed op:

- every row or score field is finite;
- productivity = output rate / power * f1;
- at every classifier, tp + fp = incoming rate / reduction_target;
- the energy ledger's balance = the propagated total power.

Audit problems are returned as strings; an empty list means the op passed.
"""

from __future__ import annotations

import math

from daqflow import config, energy, scenario
from daqflow.graph import ProcessNode

# Frozen values of tests/test_scenario.py::test_run3_regression_values
# (cms_run3.cfg at its configured calibration seed).
RUN3_PINS = {"power_w": 292775.94678267883, "productivity_per_kj": 0.9211615995991268}
PIN_RTOL = 1e-12
AUDIT_RTOL = 1e-9

ROW_FIELDS = (
    "pileup",
    "reduction_ratio",
    "skill",
    "power_w",
    "precision",
    "recall",
    "f1",
    "output_rate_hz",
    "productivity_per_kj",
)
SCORE_FIELDS = (
    "tp",
    "fp",
    "tn",
    "fn",
    "precision",
    "recall",
    "f1",
    "output_rate_hz",
    "total_power_w",
    "productivity_per_j",
)
COST_FIELDS = ("e_tp_j", "e_tn_j", "e_fp_j", "e_fn_j", "tn_tp_ratio")


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def pin_check(config_dir) -> list[str]:
    """Evaluate cms_run3 at its configured seed against the regression pins."""
    result = scenario.evaluate(config.load_config(config_dir / "cms_run3.cfg"))
    problems = []
    for field, want in RUN3_PINS.items():
        got = getattr(result.row, field)
        if not _close(got, want, PIN_RTOL):
            problems.append(f"pin {field}: got {got!r}, want {want!r} (rel {PIN_RTOL})")
    return problems


def _finite(owner, fields, label: str) -> list[str]:
    out = []
    for name in fields:
        value = getattr(owner, name)
        if value is None or not math.isfinite(value):
            out.append(f"{label}.{name} is not finite: {value!r}")
    return out


def audit_flows(graph, assignment) -> list[str]:
    """Classifier rate identity and energy balance of one propagation."""
    problems = []
    for node in graph.nodes:
        if not isinstance(node, ProcessNode) or node.classifier is None:
            continue
        cm = assignment.confusions[node.id]
        want = assignment.node_inputs[node.id].rate / node.reduction_target
        if not _close(cm.tp + cm.fp, want, AUDIT_RTOL):
            problems.append(f"classifier {node.id}: tp+fp {cm.tp + cm.fp!r} != rate/R {want!r}")
    ledger = energy.build_ledger(graph, assignment)
    balance = energy.energy_balance(graph, ledger, assignment)
    if not _close(balance, assignment.total_power, AUDIT_RTOL):
        problems.append(f"energy balance {balance!r} != total power {assignment.total_power!r}")
    return problems


def audit_row(row) -> list[str]:
    """A ResultRow: finite fields and the productivity identity (per kJ)."""
    problems = _finite(row, ROW_FIELDS, "row")
    if row.error:
        problems.append(f"row carries an error: {row.error}")
    if not problems:
        want = row.output_rate_hz / row.power_w * row.f1 * 1e3
        if not _close(row.productivity_per_kj, want, AUDIT_RTOL):
            problems.append(f"productivity {row.productivity_per_kj!r} != rate/power*f1 {want!r}")
    return problems


def audit_evaluation(result) -> list[str]:
    """An EvaluationResult from scenario.evaluate."""
    problems = audit_row(result.row)
    if not problems and not _close(result.row.power_w, result.assignment.total_power, AUDIT_RTOL):
        problems.append("row power differs from the propagated total power")
    return problems + audit_flows(result.graph, result.assignment)


def audit_system(graph, assignment, score, costs) -> list[str]:
    """A hand-built graph's score and error costs (no ResultRow)."""
    problems = _finite(score, SCORE_FIELDS, "score") + _finite(costs, COST_FIELDS, "costs")
    if score.degenerate or costs.degenerate:
        problems.append("degenerate result: no true positives reach the output")
    if not problems:
        want = score.output_rate_hz / score.total_power_w * score.f1
        if not _close(score.productivity_per_j, want, AUDIT_RTOL):
            problems.append(f"productivity {score.productivity_per_j!r} != rate/power*f1 {want!r}")
    return problems + audit_flows(graph, assignment)
