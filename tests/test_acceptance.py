"""Acceptance gate: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` to get a single pass/fail line per
criterion.  Tolerances are part of the contract and appear inline next to
each anchor value.  Anything checked here is also covered in finer grain by
the per-module suites; this file is the go/no-go summary.
"""

import math

import numpy as np
import pytest

from daqflow.calibration import (
    EfficiencyCurve,
    MomentumDistribution,
    TriggerPath,
    fit_lambda,
    sample_scores,
    trigger_rate,
)
from daqflow.classifier import (
    ClassifierModel,
    ParametricScores,
    apply_skill,
    confusion_at_threshold,
    solve_operating_point,
    solve_threshold,
)
from daqflow.energy import build_ledger, total_energy
from daqflow.graph import MessageFlow, SensorNode, required_channels
from daqflow.scenario import (
    VARIANT_NAMES,
    TechnologyEra,
    VariantConfig,
    apply_era,
    apply_variant,
)

from conftest import TABLE_FIXTURES


def _within(value, anchor, rel, what):
    assert abs(value - anchor) <= rel * anchor, (
        f"{what}: {value:.6g} outside {anchor:.6g} +/- {rel:.0%}"
    )


def test_criterion_1_run3_baseline_anchors(eval_fixture):
    """The Run-3 configuration lands on the published operating figures."""
    row = eval_fixture("cms_run3").row
    _within(row.power_w, 0.32e6, 0.10, "run3 power")
    assert row.output_rate_hz == 1000.0  # archive rate is met exactly, not approximately
    _within(row.productivity_per_kj, 0.86, 0.15, "run3 productivity")


def test_criterion_2_run5_scaling_anchors(eval_fixture):
    """Scaling to Run-5 conditions reproduces both projected baselines."""
    relaxed = eval_fixture("cms_run5_pu200_r400").row
    _within(relaxed.power_w, 7.0e6, 0.15, "run5 relaxed-reduction power")
    _within(relaxed.productivity_per_kj, 0.034, 0.25, "run5 relaxed-reduction productivity")

    phase1 = eval_fixture("cms_run5_phase1").row
    _within(phase1.power_w, 52e6, 0.15, "run5 phase-1 power")
    _within(phase1.productivity_per_kj, 0.060, 0.25, "run5 phase-1 productivity")


def test_criterion_3_productivity_identity_audit(eval_fixture, sweep_rows_pair):
    """Every emitted score satisfies productivity == (rate / power) * f1.

    Recomputed from each row's own fields, to 1e-9 relative, across all
    bundled configurations and every sweep row.
    """

    def audit_row(row, origin):
        recomputed = row.output_rate_hz / row.power_w * row.f1 * 1e3
        assert math.isclose(
            row.productivity_per_kj, recomputed, rel_tol=1e-9, abs_tol=1e-15
        ), f"{origin}: row productivity {row.productivity_per_kj} != {recomputed}"

    for name in TABLE_FIXTURES:
        res = eval_fixture(name)
        score = res.score
        recomputed = score.output_rate_hz / score.total_power_w * score.f1
        assert math.isclose(
            score.productivity_per_j, recomputed, rel_tol=1e-9, abs_tol=1e-15
        ), f"{name}: score productivity {score.productivity_per_j} != {recomputed}"
        audit_row(res.row, name)

    serial_rows, _ = sweep_rows_pair
    audited = 0
    for row in serial_rows:
        if not row.error:
            audit_row(row, f"sweep[{audited}]")
            audited += 1
    assert audited > 0


def test_criterion_4_variant_power_deltas_and_skill_gains(eval_fixture):
    """Upgrade variants move system power to the projected levels.

    GPU-offload rows sit near 26 MW, the payload-trimming row near 41 MW,
    and the combined rows near 20 MW, all within 15%.  Tracking-skill rows
    are checked for direction, not magnitude: strictly better precision and
    recall than their skill-1.0 counterparts.
    """
    _within(eval_fixture("cms_run5_gpu").row.power_w, 26e6, 0.15, "gpu power")
    _within(eval_fixture("cms_run5_phase2").row.power_w, 26e6, 0.15, "phase-2 power")
    _within(eval_fixture("cms_run5_smart").row.power_w, 41e6, 0.15, "smart-pixel power")
    _within(eval_fixture("cms_run5_smart_gpu").row.power_w, 20e6, 0.15, "smart+gpu power")
    _within(eval_fixture("cms_run5_smart_phase2").row.power_w, 20e6, 0.15, "smart phase-2 power")

    for upgraded, baseline in (
        ("cms_run5_l1tracks", "cms_run5_phase1"),
        ("cms_run5_smart_l1", "cms_run5_smart"),
    ):
        up, base = eval_fixture(upgraded).row, eval_fixture(baseline).row
        assert up.precision > base.precision, f"{upgraded} precision did not improve"
        assert up.recall > base.recall, f"{upgraded} recall did not improve"


def test_criterion_5_discrete_event_equivalence(equivalence_battery):
    """Analytic propagation matches a per-message simulator on random graphs.

    At least 20 randomized pipelines of up to 5 nodes, 10^6 messages each:
    flows, system confusion counts, and all four error costs agree within
    3 sigma, and the whole battery stays under its runtime budget.
    """
    assert equivalence_battery["n_graphs"] >= 20
    assert equivalence_battery["failures"] == []
    assert equivalence_battery["elapsed_s"] <= 60.0, (
        f"battery took {equivalence_battery['elapsed_s']:.1f} s"
    )


def test_criterion_6_spectrum_fit_round_trip_and_determinism():
    """Spectrum fitting inverts the step-turn-on closed form and is seeded.

    For a sharp turn-on the accepted rate is input * plateau * exp(-lam * T),
    so lam = ln(R0 / R) / T must come back to 1e-6 relative, and the full
    numerical fit must round-trip lam -> rate -> lam to 1e-3 relative across
    lam in [1e-3, 1].  Sampling the fitted menu twice with one seed must be
    bit-identical.
    """
    input_rate, plateau, turn_on = 40e6, 0.95, 30.0
    step = EfficiencyCurve("mu", threshold=turn_on, width=0.0, plateau=plateau)
    r0 = input_rate * plateau

    for lam in np.geomspace(1e-3, 1.0, 7):
        lam = float(lam)
        rate_closed = r0 * math.exp(-lam * turn_on)
        path = TriggerPath("mu", step, empirical_rate=rate_closed, input_rate=input_rate)
        assert math.isclose(trigger_rate(path, lam), rate_closed, rel_tol=1e-9)
        recovered = math.log(r0 / rate_closed) / turn_on
        assert math.isclose(recovered, lam, rel_tol=1e-6)
        fitted = fit_lambda(path)
        assert math.isclose(fitted.lam, lam, rel_tol=1e-3), (
            f"fit returned {fitted.lam} for lam={lam}"
        )

    smooth = EfficiencyCurve("eg", threshold=20.0, width=3.0, plateau=0.9)
    paths = (
        TriggerPath("mu", step, empirical_rate=1e4, input_rate=input_rate,
                    momentum=MomentumDistribution(0.12)),
        TriggerPath("eg", smooth, empirical_rate=5e5, input_rate=input_rate,
                    momentum=MomentumDistribution(0.21)),
    )
    first = sample_scores(paths, "summed", n=20_000, seed=20240)
    second = sample_scores(paths, "summed", n=20_000, seed=20240)
    for a, b, side in zip(first, second, ("negative", "positive")):
        assert a == b, f"{side} scores differ across runs"


def test_criterion_7_structural_property_suite(eval_fixture, sweep_rows_pair):
    """Conservation, monotonicity, and composition laws hold together.

    Confusion rows conserve their populations; thresholds rise with the
    rejection target; ROC counts move the right way with the threshold;
    skill never loses true positives; energy only grows along links;
    e_fp == e_tp - e_tn exactly; era factors compose multiplicatively;
    variants commute; sweeps are deterministic across worker counts.
    """
    rng = np.random.default_rng(550271)

    # Population conservation and exact reduction across random models.
    for _ in range(25):
        family = str(rng.choice(("normal", "logistic", "uniform")))
        model = ClassifierModel(
            positive=ParametricScores(family, loc=float(rng.uniform(0.6, 2.5)),
                                      scale=float(rng.uniform(0.7, 1.3))),
            negative=ParametricScores(family, loc=0.0, scale=float(rng.uniform(0.7, 1.3))),
        )
        frac = float(rng.uniform(0.05, 0.4))
        flow = MessageFlow(rate=1e6, size=1e4, n_true=1e6 * frac, n_false=1e6 * (1 - frac))
        reduction = float(rng.uniform(2.0, 50.0))
        cm = solve_operating_point(model, flow, reduction).confusion
        assert math.isclose(cm.tp + cm.fn, flow.n_true, rel_tol=1e-9)
        assert math.isclose(cm.fp + cm.tn, flow.n_false, rel_tol=1e-9)
        assert math.isclose(cm.tp + cm.fp, flow.rate / reduction, rel_tol=1e-9)
        assert min(cm.tp, cm.fp, cm.tn, cm.fn) >= -1e-12

    probe = ClassifierModel(
        positive=ParametricScores("normal", loc=1.8, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )
    flow = MessageFlow(rate=1e6, size=1e4, n_true=2e5, n_false=8e5)

    # Threshold monotone in the rejection target.
    thresholds = [solve_threshold(probe, flow, q) for q in np.linspace(0.05, 0.95, 10)]
    assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    # ROC direction: raising the threshold can only shed accepts.
    cms = [confusion_at_threshold(probe, flow, z) for z in np.linspace(-3.0, 5.0, 17)]
    assert all(b.tp <= a.tp + 1e-9 for a, b in zip(cms, cms[1:]))
    assert all(b.fp <= a.fp + 1e-9 for a, b in zip(cms, cms[1:]))
    assert all(b.tn >= a.tn - 1e-9 for a, b in zip(cms, cms[1:]))

    # More skill never costs true positives at a fixed reduction target.
    tps = [
        solve_operating_point(apply_skill(probe, k), flow, 10.0).confusion.tp
        for k in (1.0, 1.1, 1.25, 1.5)
    ]
    assert all(b >= a - 1e-9 * flow.n_true for a, b in zip(tps, tps[1:]))

    # Total energy is nondecreasing along every link of a real pipeline.
    res = eval_fixture("cms_run3")
    ledger = build_ledger(res.graph, res.assignment)
    for link in res.graph.links:
        upstream = total_energy(res.graph, ledger, link.source)
        downstream = total_energy(res.graph, ledger, link.target)
        assert downstream >= upstream * (1 - 1e-12), f"energy shrank across {link.id}"

    # Error-cost identity holds exactly on every bundled configuration.
    for name in TABLE_FIXTURES:
        costs = eval_fixture(name).costs
        assert costs.e_fp_j == costs.e_tp_j - costs.e_tn_j, name

    # Era efficiency factors compose multiplicatively.
    base = res.graph
    stepped = apply_era(apply_era(base, TechnologyEra(year=2030, efficiency_factor=2.0)),
                        TechnologyEra(year=2032, efficiency_factor=3.25))
    direct = apply_era(base, TechnologyEra(year=2032, efficiency_factor=6.5))
    for node_s, node_d in zip(stepped.nodes, direct.nodes):
        e_s = getattr(node_s, "energy_per_op", None)
        if e_s is not None:
            assert math.isclose(e_s, node_d.energy_per_op, rel_tol=1e-12), node_s.id

    # Variants commute pairwise on a graph that carries all three roles.
    run5 = eval_fixture("cms_run5_phase1").graph
    singles = {name: VariantConfig().with_enabled((name,)) for name in VARIANT_NAMES}
    for i, first in enumerate(VARIANT_NAMES):
        for second in VARIANT_NAMES[i + 1:]:
            ab = apply_variant(apply_variant(run5, singles[first]), singles[second])
            ba = apply_variant(apply_variant(run5, singles[second]), singles[first])
            assert ab == ba, f"{first} and {second} do not commute"

    # The sweep grid is deterministic regardless of worker count.
    serial_rows, parallel_rows = sweep_rows_pair
    assert serial_rows == parallel_rows


def test_criterion_8_run5_detector_bandwidth(eval_fixture):
    """The Run-5 sensor complement produces exactly 320 TB/s of raw data.

    Six front-end links at 40 MHz with event fragments summing to 8.0 MB
    give an aggregate of exactly 2.56e15 bit/s (all terms are float-exact),
    and shipping that stream over 10.24 Gbit/s links takes 250000 channels.
    """
    res = eval_fixture("cms_run5_pu200_r400")
    graph, flows = res.graph, res.assignment.flows

    sensors = [node for node in graph.nodes if isinstance(node, SensorNode)]
    assert sum(node.sample_size for node in sensors) == 64_000_000.0  # bits == 8.0 MB
    assert all(node.sample_rate == 40e6 for node in sensors)

    sensor_ids = {node.id for node in sensors}
    aggregate = sum(
        flows[link.id].rate * flows[link.id].size
        for link in graph.links
        if link.source in sensor_ids
    )
    assert aggregate == 2.56e15
    assert aggregate == 320e12 * 8.0  # 320 TB/s expressed in bit/s

    front_end = next(l for l in graph.links if l.source == "readout" and l.target == "l1t")
    assert flows[front_end.id].rate * flows[front_end.id].size == 2.56e15
    assert required_channels(front_end, flows[front_end.id]) == 250_000
