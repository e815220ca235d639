"""Condition rescaling, eras, upgrade variants, and sweep behavior."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from daqflow import scenario
from daqflow.calibration import EfficiencyCurve, TriggerPath
from daqflow.config import parse_config
from daqflow.errors import ModelError, ModelWarning
from daqflow.functions import ConstantFn, TableScaling
from daqflow.graph import (
    CommLink,
    OutputNode,
    PipelineGraph,
    ProcessNode,
    SensorNode,
)
from daqflow.scenario import (
    CSV_COLUMNS,
    ExperimentConditions,
    GpuHlt,
    L1Tracks,
    SmartPixels,
    TechnologyEra,
    VariantConfig,
    apply_conditions,
    apply_era,
    apply_variant,
    evaluate,
    sweep,
)


def test_conditions_are_identity_at_reference(eval_fixture):
    g = eval_fixture("cms_run3").graph
    assert apply_conditions(g, ExperimentConditions(pileup=60)) == g


def test_pileup_gated_sensor_appears_with_its_links(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    ids = {n.id for n in base.nodes}
    assert "hgcal" in ids  # declared in the topology

    g60 = apply_conditions(base, cfg.conditions)
    assert "hgcal" not in {n.id for n in g60.nodes}
    assert not [l for l in g60.links if "hgcal" in (l.source, l.target)]

    g200 = apply_conditions(base, replace(cfg.conditions, pileup=200))
    hgcal = g200.node("hgcal")
    # payloads grow linearly in pile-up from the reference at 60
    assert hgcal.sample_size == 3201000.0 * 200 / 60
    assert g200.node("pixel").sample_size == 11440000.0
    assert [l for l in g200.links if l.source == "hgcal"]


def test_conditions_override_rates_fractions_and_reductions(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    cond = replace(
        cfg.conditions, pileup=200, bunch_rate=30e6, relevant_fraction=2e-4,
        l1_reduction=160.0 / 3.0, hlt_reduction=50.0,
    )
    g = apply_conditions(base, cond)
    pixel = g.node("pixel")
    assert pixel.sample_rate == 30e6
    assert pixel.relevant_fraction == 2e-4
    assert g.node("l1t").reduction_target == pytest.approx(160.0 / 3.0)
    assert g.node("hlt").reduction_target == 50.0


def test_out_of_domain_scaling_table_warns_and_clamps():
    g = PipelineGraph(
        nodes=(
            SensorNode(
                id="s", sample_size=1000.0, sample_rate=1e6,
                pileup_scaling=TableScaling(pileups=(50.0, 100.0), multipliers=(1.0, 2.0)),
            ),
            OutputNode(id="out"),
        ),
        links=(
            CommLink(
                id="a", source="s", target="out",
                energy_per_bit=1e-12, bandwidth_per_channel=1e10,
            ),
        ),
    )
    with pytest.warns(ModelWarning, match="outside the scaling"):
        scaled = apply_conditions(g, ExperimentConditions(pileup=200))
    assert scaled.node("s").sample_size == 2000.0  # clamped to the table edge


def test_era_identity_and_scaling(eval_fixture):
    g = eval_fixture("cms_run3").graph
    assert apply_era(g, TechnologyEra(year=2024, efficiency_factor=1.0)) is g

    newer = apply_era(g, TechnologyEra(year=2032, efficiency_factor=6.5))
    assert newer.node("hlt").energy_per_op == g.node("hlt").energy_per_op / 6.5
    assert newer.links == g.links  # links untouched unless asked

    linked = apply_era(g, TechnologyEra(year=2032, efficiency_factor=6.5, scale_links=True))
    assert linked.links[0].energy_per_bit == g.links[0].energy_per_bit / 6.5


def test_era_factors_compose_multiplicatively(eval_fixture):
    g = eval_fixture("cms_run3").graph
    stepped = apply_era(
        apply_era(g, TechnologyEra(year=2028, efficiency_factor=2.0)),
        TechnologyEra(year=2032, efficiency_factor=3.25),
    )
    direct = apply_era(g, TechnologyEra(year=2032, efficiency_factor=6.5))
    for node in direct.nodes:
        if hasattr(node, "energy_per_op"):
            assert stepped.node(node.id).energy_per_op == pytest.approx(
                node.energy_per_op, rel=1e-12
            )


def test_era_validation():
    with pytest.raises(ValueError, match=">= 1"):
        TechnologyEra(year=2032, efficiency_factor=0.5)
    with pytest.raises(ValueError, match="precedes"):
        TechnologyEra(year=2020, efficiency_factor=2.0)
    with pytest.raises(ValueError, match="baseline"):
        TechnologyEra(year=2024, efficiency_factor=2.0)


def test_guards_reject_non_finite_values():
    nan, inf = math.nan, math.inf
    curve = EfficiencyCurve(threshold=30.0, width=2.0, plateau=0.9)
    for build in (
        lambda: ExperimentConditions(pileup=nan),
        lambda: ExperimentConditions(pileup=60.0, bunch_rate=inf),
        lambda: TechnologyEra(year=2030, efficiency_factor=nan),
        lambda: GpuHlt(throughput_gain=inf),
        lambda: L1Tracks(skill_factor=nan),
        lambda: SmartPixels(detector_power_w=inf),
        lambda: SensorNode("s", sample_size=1.0, sample_rate=inf),
        lambda: ProcessNode("p", ConstantFn(0.0), nan, ConstantFn(0.0)),
        lambda: CommLink("l", "a", "b", nan, 1e9),
        lambda: EfficiencyCurve(threshold=inf, width=2.0, plateau=0.9),
        lambda: TriggerPath("x", curve, empirical_rate=1.0, input_rate=inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_gpu_variant_rescales_hlt_energy(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    v = cfg.variants.with_enabled(("gpu_hlt",))
    g = apply_variant(base, v)
    hlt0 = base.node("hlt")
    hlt1 = g.node("hlt")
    # 400 W devices at 1.5x throughput replace 530 W CPUs
    assert hlt1.energy_per_op == pytest.approx(
        hlt0.energy_per_op * (400.0 / 530.0) / 1.5, rel=1e-12
    )
    assert hlt1.unit_power_w == 400.0
    assert g.node("l1t") == base.node("l1t")  # other roles untouched


def test_l1_tracks_variant_scales_separation(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    g = apply_variant(base, cfg.variants.with_enabled(("l1_tracks",)))
    before = base.node("l1t").classifier
    after = g.node("l1t").classifier
    assert after.skill_factor == 1.4
    sep0 = before.positive.mean() - before.negative.mean()
    sep1 = after.positive.mean() - after.negative.mean()
    assert sep1 == pytest.approx(1.4 * sep0, rel=1e-9)
    assert after.negative == before.negative  # rejection side stays put


def test_smart_pixels_variant_trims_payload_and_adds_draw(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    g = apply_variant(base, cfg.variants.with_enabled(("smart_pixels",)))
    pixel0 = base.node("pixel")
    pixel1 = g.node("pixel")
    assert pixel1.sample_size == pytest.approx(pixel0.sample_size * 0.46, rel=1e-12)
    assert pixel1.constant_power_w == pixel0.constant_power_w + 2300.0


def test_variants_commute(load_fixture):
    cfg = load_fixture("cms_run3")
    base = cfg.build_graph(seed=20240)
    singles = {
        name: cfg.variants.with_enabled((name,))
        for name in ("gpu_hlt", "l1_tracks", "smart_pixels")
    }
    ab = apply_variant(apply_variant(base, singles["gpu_hlt"]), singles["smart_pixels"])
    ba = apply_variant(apply_variant(base, singles["smart_pixels"]), singles["gpu_hlt"])
    assert ab == ba
    abc = apply_variant(apply_variant(ab, singles["l1_tracks"]), VariantConfig())
    cab = apply_variant(apply_variant(base, singles["l1_tracks"]), singles["smart_pixels"])
    cab = apply_variant(cab, singles["gpu_hlt"])
    assert abc == cab
    # the combined config equals the sequence of singles
    combo = cfg.variants.with_enabled(("gpu_hlt", "l1_tracks", "smart_pixels"))
    assert apply_variant(base, combo) == abc


def test_variants_require_their_roles():
    g = PipelineGraph(
        nodes=(
            SensorNode(id="s", sample_size=1000.0, sample_rate=1e6),
            OutputNode(id="out"),
        ),
        links=(
            CommLink(
                id="a", source="s", target="out",
                energy_per_bit=1e-12, bandwidth_per_channel=1e10,
            ),
        ),
    )
    with pytest.raises(ModelError, match="role 'hlt'"):
        apply_variant(g, VariantConfig().with_enabled(("gpu_hlt",)))
    with pytest.raises(ModelError, match="role 'l1t'"):
        apply_variant(g, VariantConfig().with_enabled(("l1_tracks",)))
    with pytest.raises(ModelError, match="role 'inner_tracker'"):
        apply_variant(g, VariantConfig().with_enabled(("smart_pixels",)))


def test_evaluate_row_mirrors_the_score(eval_fixture):
    res = eval_fixture("cms_run5_phase2")
    assert res.row.variant == "gpu_hlt+l1_tracks"
    assert res.row.skill == pytest.approx(1.4)
    assert res.row.power_w == res.score.total_power_w
    assert res.row.f1 == res.score.f1
    assert res.row.productivity_per_kj == res.score.productivity_per_j * 1e3
    assert res.row.error == ""
    assert set(res.row.as_dict()) == set(CSV_COLUMNS)


def test_evaluate_refuses_non_finite_rows(load_fixture, monkeypatch):
    real = scenario.score_system
    monkeypatch.setattr(
        scenario, "score_system", lambda g, a: replace(real(g, a), total_power_w=math.inf)
    )
    with pytest.raises(ModelError, match="power_w is not finite"):
        evaluate(load_fixture("cms_run3"))


def test_skill_override_composes_with_the_variant(load_fixture):
    cfg = load_fixture("cms_run5_l1tracks")
    res = evaluate(cfg, skill=1.2)
    assert res.row.skill == pytest.approx(1.4 * 1.2, rel=1e-12)


def test_run3_regression_values(eval_fixture):
    # frozen against the bundled config at its configured seed (20240)
    row = eval_fixture("cms_run3").row
    assert row.power_w == pytest.approx(292775.94678267883, rel=1e-12)
    assert row.output_rate_hz == 1000.0
    assert row.productivity_per_kj == pytest.approx(0.9211615995991268, rel=1e-12)


def test_sweep_walks_the_grid_in_order(sweep_rows_pair):
    serial, parallel = sweep_rows_pair
    assert len(serial) == 4
    assert [(r.pileup, round(r.reduction_ratio, 6)) for r in serial] == [
        (60.0, 400.0),
        (60.0, round(160.0 / 3.0, 6)),
        (200.0, 400.0),
        (200.0, round(160.0 / 3.0, 6)),
    ]
    assert all(r.error == "" for r in serial)
    assert all(r.variant == "none" for r in serial)


def test_parallel_sweep_matches_serial(sweep_rows_pair):
    serial, parallel = sweep_rows_pair
    assert parallel == serial


def test_sweep_starts_no_more_workers_than_points(load_fixture, sweep_rows_pair, monkeypatch):
    # the pool starts all of its workers at the first submit; this stand-in
    # records the count and maps in this process, so no process starts
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", InProcessPool)
    rows = sweep(load_fixture("cms_sweep"), jobs=64)
    assert started == [4]  # the bundled grid has four points
    assert rows == sweep_rows_pair[0]


def test_sweep_rows_fail_individually():
    text = (
        "schema_version: 1\n"
        "conditions: {pileup: 1}\n"
        "nodes:\n"
        '  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz"}\n'
        "  - {kind: output, id: out}\n"
        "links:\n"
        '  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit",'
        ' bandwidth_per_channel: "1 Gb/s"}\n'
        "sweep:\n"
        "  skill: [1.0, 1.2]\n"
    )
    cfg = parse_config(text)
    rows = sweep(cfg)
    assert len(rows) == 2
    assert rows[0].error == ""  # baseline skill needs no l1t role
    assert "ModelError" in rows[1].error and "l1t" in rows[1].error
    assert rows[1].skill == 1.2


def test_one_overflowing_point_does_not_abort_the_sweep(load_fixture):
    base = Path(load_fixture("cms_base").source_path)
    text = f"extends: {base.name}\nsweep: {{pileup: [60, 1.0e+300], skill: [0.0, 1.0]}}\n"
    cfg = parse_config(text, base_dir=base.parent)
    rows = sweep(cfg)
    assert [(r.pileup, r.skill) for r in rows] == [
        (60.0, 0.0), (60.0, 1.0), (1e300, 0.0), (1e300, 1.0)
    ]
    for row in rows[2:]:
        assert row.error.startswith("ModelError: OverflowError: ")
        assert row.error.endswith("(node 'hlt')")
        assert row.power_w is None
    seed = cfg.seeds["calibration"]
    for row, skill in zip(rows[:2], (0.0, 1.0)):
        assert row == evaluate(cfg, pileup=60.0, skill=skill, seed=seed).row


def test_evaluate_raises_arithmetic_and_guard_failures_as_model_errors(load_fixture):
    cfg = load_fixture("cms_run3")
    with pytest.raises(ModelError, match="^OverflowError: ") as info:
        evaluate(cfg, pileup=1e300)
    assert isinstance(info.value.__cause__, OverflowError)
    with pytest.raises(ModelError, match="^ValueError: pileup values must be positive$"):
        evaluate(cfg, pileup=-1.0)
    with pytest.raises(ModelError, match="^ValueError: skill_factor must be finite"):
        evaluate(cfg, skill=math.nan)


def test_higher_skill_never_hurts_productivity(load_fixture):
    cfg = load_fixture("cms_run5_pu200_r400")
    prods = [
        evaluate(cfg, skill=s).row.productivity_per_kj
        for s in (1.0, 1.1, 1.2, 1.3, 1.4)
    ]
    assert all(b >= a for a, b in zip(prods, prods[1:]))
