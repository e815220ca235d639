"""Config parsing: strictness, locations, extends, round-tripping."""

from pathlib import Path

import pytest
import yaml

import daqflow
from daqflow.classifier import EmpiricalScores
from daqflow.config import SCHEMA_VERSION, load_config, parse_config, serialize_config
from daqflow.errors import ConfigError
from daqflow.graph import ProcessNode

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"

MINIMAL = """\
schema_version: 1
conditions: {pileup: 1, reference_pileup: 1}
nodes:
  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz"}
  - {kind: output, id: out}
links:
  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
"""


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.schema_version == SCHEMA_VERSION
    assert len(cfg.nodes) == 2 and len(cfg.links) == 1
    assert cfg.nodes[0].sample_size == 1000.0
    assert cfg.conditions.pileup == 1.0
    assert cfg.era.year == 2024 and cfg.era.efficiency_factor == 1.0
    assert not cfg.variants.gpu_hlt.enabled
    assert cfg.menus == {} and cfg.seeds == {}
    assert cfg.sweep is None and cfg.report is None
    assert cfg.source_path is None


def test_all_problems_reported_with_locations():
    bad = (
        "schema_version: 1\n"
        "conditions: {pileup: 1, reference_pileup: 1}\n"
        "nodes:\n"
        '  - {kind: sensor, id: s, sample_size: 1000, sample_rate: "1 kHz"}\n'
        "  - {kind: output, id: out}\n"
        "links:\n"
        '  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit",'
        ' bandwidth_per_channel: "1 Gb/s", frobnicate: 3}\n'
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(bad)
    exc = ei.value
    assert "invalid configuration (2 problems)" in str(exc)
    by_msg = {msg: loc for loc, msg in exc.locations}
    (size_msg,) = [m for m in by_msg if "sample_size" in m]
    assert by_msg[size_msg] == "<config>:4"
    (unknown_msg,) = [m for m in by_msg if "frobnicate" in m]
    assert "unknown field" in unknown_msg
    assert by_msg[unknown_msg] == "<config>:7"


def test_missing_required_sections():
    with pytest.raises(ConfigError, match="conditions"):
        parse_config("schema_version: 1\nnodes: [{kind: output, id: o}]\nlinks: [{id: a, source: o, target: o, energy_per_bit: \"1 pJ/bit\", bandwidth_per_channel: \"1 Gb/s\"}]\n")
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(MINIMAL.replace("schema_version: 1\n", ""))


def test_schema_version_must_match():
    with pytest.raises(ConfigError, match="expected 1, got 2"):
        parse_config(MINIMAL.replace("schema_version: 1", "schema_version: 2"))


def test_unknown_menu_reference_is_an_error():
    text = MINIMAL.replace(
        '  - {kind: output, id: out}',
        '  - {kind: process, id: p, complexity: {form: constant, value: 1},'
        ' energy_per_op: "1 pJ/op", output_size: {form: linear, slope: 1},'
        ' classifier: ghost, reduction_target: 10}\n'
        '  - {kind: output, id: out}',
    )
    with pytest.raises(ConfigError, match="menu 'ghost' is not defined"):
        parse_config(text)


def _staged(role, mode):
    return MINIMAL.replace(
        "  - {kind: output, id: out}",
        f"  - {{kind: process, id: p, role: {role}, complexity: {{form: constant, value: 1}},"
        ' energy_per_op: "1 pJ/op", output_size: {form: linear, slope: 1},'
        " classifier: m, reduction_target: 10}\n"
        "  - {kind: output, id: out}",
    ) + (
        f"calibration:\n  menus:\n    m:\n      mode: {mode}\n      paths:\n"
        '        - {name: x, threshold: "30 GeV", width: "2 GeV", plateau: 0.95,'
        ' empirical_rate: "10 kHz", input_rate: "40 MHz"}\n'
    )


def test_stage_roles_enforce_menu_modes():
    for role, stage, good, bad in (
        ("l1t", "first-stage", "summed", "one-at-a-time"),
        ("hlt", "second-stage", "one-at-a-time", "summed"),
    ):
        assert parse_config(_staged(role, good)).classifier_refs == {"p": "m"}
        with pytest.raises(ConfigError, match=f"{stage} menu 'm' must use {good} scores") as ei:
            parse_config(_staged(role, bad))
        assert [loc for loc, _ in ei.value.locations] == ["<config>:5"]
    # a classifying node in no staged role may use either mode
    assert parse_config(_staged("trigger", "one-at-a-time")).classifier_refs == {"p": "m"}


@pytest.mark.parametrize(
    "override, field",
    [
        ("conditions: {pileup: .nan}", "conditions.pileup"),
        ("era: {efficiency_factor: .nan}", "era.efficiency_factor"),
        ('conditions: {bunch_rate: "1e999 Hz"}', "conditions.bunch_rate"),
        ("variants: {l1_tracks: {enabled: true, skill_factor: .nan}}", "variants.l1_tracks.skill_factor"),
    ],
)
def test_non_finite_inputs_are_located_errors(tmp_path, override, field):
    path = tmp_path / "bad.cfg"
    path.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{override}\n")
    with pytest.raises(ConfigError) as ei:
        load_config(path)
    [(loc, msg)] = ei.value.locations
    assert loc == "bad.cfg:2"
    assert msg.startswith(f"{field}: must be finite")


def test_ratios_accept_fractions_and_colons():
    text = MINIMAL.replace(
        "conditions: {pileup: 1, reference_pileup: 1}",
        'conditions: {pileup: 1, reference_pileup: 1, l1_reduction: "160/3", hlt_reduction: "400:1"}',
    )
    cfg = parse_config(text)
    assert cfg.conditions.l1_reduction == pytest.approx(160.0 / 3.0, rel=1e-15)
    assert cfg.conditions.hlt_reduction == 400.0


def test_sweep_axes_default_to_as_configured():
    cfg = parse_config(MINIMAL + "sweep:\n  pileup: [1, 2]\n")
    assert cfg.sweep.pileup == (1.0, 2.0)
    assert cfg.sweep.reduction == (None,)
    assert cfg.sweep.skill == (None,)
    assert cfg.sweep.variants == (None,)


def test_sweep_variant_combos_are_validated():
    ok = parse_config(MINIMAL + 'sweep:\n  variants: ["none", "gpu_hlt+l1_tracks"]\n')
    assert ok.sweep.variants == ("none", "gpu_hlt+l1_tracks")
    with pytest.raises(ConfigError, match="unknown variant 'warp_drive'"):
        parse_config(MINIMAL + 'sweep:\n  variants: ["warp_drive"]\n')


def test_report_needs_resolvable_files(tmp_path):
    report = "report:\n  tables:\n    - title: T\n      rows:\n        - {label: L, config: nope.cfg}\n"
    with pytest.raises(ConfigError, match="file-based config"):
        parse_config(MINIMAL + report)
    with pytest.raises(ConfigError, match="referenced config not found"):
        parse_config(MINIMAL + report, base_dir=tmp_path)
    (tmp_path / "nope.cfg").write_text(MINIMAL)
    cfg = parse_config(MINIMAL + report, base_dir=tmp_path)
    assert cfg.report.tables[0].rows[0].config_path == str(tmp_path / "nope.cfg")


def test_extends_merges_child_over_parent(tmp_path):
    (tmp_path / "parent.cfg").write_text(
        "schema_version: 1\n"
        "description: parent\n"
        "seeds: {calibration: 7}\n"
        "conditions: {pileup: 60, reference_pileup: 60, l1_reduction: 400}\n"
        + MINIMAL.split("conditions: {pileup: 1, reference_pileup: 1}\n", 1)[1]
    )
    (tmp_path / "child.cfg").write_text(
        "extends: parent.cfg\ndescription: child\nconditions: {pileup: 200}\n"
    )
    cfg = load_config(tmp_path / "child.cfg")
    assert cfg.description == "child"  # scalar replaced
    assert cfg.conditions.pileup == 200.0  # overridden key
    assert cfg.conditions.reference_pileup == 60.0  # sibling keys survive the merge
    assert cfg.conditions.l1_reduction == 400.0
    assert cfg.seeds == {"calibration": 7}
    assert len(cfg.nodes) == 2  # topology inherited wholesale


def test_extends_chains_are_rejected(tmp_path):
    (tmp_path / "base.cfg").write_text(MINIMAL)
    (tmp_path / "mid.cfg").write_text("extends: base.cfg\n")
    (tmp_path / "leaf.cfg").write_text("extends: mid.cfg\n")
    with pytest.raises(ConfigError, match="one level"):
        load_config(tmp_path / "leaf.cfg")
    with pytest.raises(ConfigError, match="extended config not found"):
        load_config_text = tmp_path / "orphan.cfg"
        load_config_text.write_text("extends: missing.cfg\n")
        load_config(load_config_text)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="config file not found"):
        load_config("/no/such/place.cfg")


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_serialization_round_trips(name, load_fixture):
    cfg = load_fixture(name)
    text = serialize_config(cfg)
    again = parse_config(text, base_dir=CONFIG_DIR)
    assert again == cfg


# Every optional key of every section at a non-default value, every function
# and scaling form, and table xs given both as numbers and as size strings.
ALL_KEYS = """\
schema_version: 1
description: every key
seeds: {calibration: 5}
conditions:
  pileup: 80
  reference_pileup: 60
  bunch_rate: "30 MHz"
  l1_reduction: "160/3"
  hlt_reduction: "50:1"
  relevant_fraction: 0.002
era: {year: 2030, efficiency_factor: 2.5, baseline_year: 2020, scale_links: true}
variants:
  gpu_hlt: {enabled: true, throughput_gain: 0.7, unit_power: "300 W"}
  l1_tracks: {enabled: true, skill_factor: 1.2}
  smart_pixels: {enabled: true, data_reduction: 0.4, detector_power: "1 kW"}
nodes:
  - kind: sensor
    id: pix
    role: inner_tracker
    sample_size: "2 kB"
    sample_rate: "30 MHz"
    relevant_fraction: 0.01
    pileup_scaling: {form: proportional, reference: 60}
    enabled_min_pileup: 10
    constant_power: "5 W"
  - kind: sensor
    id: cal
    sample_size: "1 kb"
    sample_rate: "30 MHz"
    pileup_scaling: {form: table, pileups: [20, 100], multipliers: [0.5, 2.0]}
  - kind: sensor
    id: mu
    sample_size: "1 kb"
    sample_rate: "30 MHz"
    pileup_scaling: {form: constant}
  - kind: process
    id: ro
    role: readout
    complexity: {form: constant, value: 2}
    energy_per_op: "1 pJ/op"
    output_size: {form: table, xs: [0, "2 kb", 1.0e+6], ys: [0, 1500, 9.0e+5]}
    constant_power: "3 W"
  - kind: process
    id: l1
    role: l1t
    complexity: {form: linear, slope: 2, intercept: 5}
    energy_per_op: "2 pJ/op"
    output_size: {form: power_law, exponent: 1, value_at_reference: 1000, reference: "1 kb"}
    classifier: l1_menu
    reduction_target: 10
    unit_power: "100 W"
  - kind: process
    id: hl
    role: hlt
    complexity: {form: linear, slope: 3}
    energy_per_op: "3 pJ/op"
    output_size: {form: linear, slope: 1}
    classifier: hlt_menu
    reduction_target: "20:1"
  - {kind: output, id: out}
links:
  - {id: a, source: pix, target: ro, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
  - {id: b, source: cal, target: ro, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
  - {id: c, source: mu, target: ro, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
  - {id: d, source: ro, target: l1, energy_per_bit: "2 pJ/bit", bandwidth_per_channel: "10 Gb/s"}
  - {id: e, source: l1, target: hl, energy_per_bit: "3 pJ/bit", bandwidth_per_channel: "10 Gb/s"}
  - {id: f, source: hl, target: out, energy_per_bit: "4 pJ/bit", bandwidth_per_channel: "10 Gb/s"}
calibration:
  menus:
    l1_menu:
      mode: summed
      sample_count: 2000
      paths:
        - {name: eg, threshold: "30 GeV", width: "3 GeV", plateau: 0.9, empirical_rate: "150 kHz", input_rate: "30 MHz"}
        - {name: mu, threshold: "500 MeV", width: "0 GeV", plateau: 1, empirical_rate: "100 kHz", input_rate: "30 MHz"}
    hlt_menu:
      mode: one-at-a-time
      sample_count: 3000
      paths:
        - {name: h, threshold: "0.125 TeV", width: "4 GeV", plateau: 0.95, empirical_rate: "67 Hz", input_rate: "100 kHz"}
sweep:
  pileup: [60, 80]
  reduction: ["160/3", 400]
  skill: [1.0, 1.5]
  variants: [none, "gpu_hlt+l1_tracks"]
report:
  tables:
    - title: T
      rows:
        - {label: L, config: cms_run3.cfg}
"""


def _keys(obj) -> set:
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


def test_every_key_and_form_round_trips():
    cfg = parse_config(ALL_KEYS, base_dir=CONFIG_DIR)
    text = serialize_config(cfg)
    assert parse_config(text, base_dir=CONFIG_DIR) == cfg
    # the writer leaves out only default values, and the fixture sets none
    assert _keys(yaml.safe_load(text)) == _keys(yaml.safe_load(ALL_KEYS))


def test_build_graph_attaches_fitted_classifiers(load_fixture):
    cfg = load_fixture("cms_run3")
    g = cfg.build_graph(seed=20240)
    l1t = g.find_role("l1t")
    hlt = g.find_role("hlt")
    assert l1t.classifier is not None and hlt.classifier is not None
    assert isinstance(l1t.classifier.positive, EmpiricalScores)
    assert isinstance(l1t.classifier.negative, EmpiricalScores)
    assert l1t.classifier.skill_factor == 1.0
    readout = g.find_role("readout")
    assert isinstance(readout, ProcessNode) and readout.classifier is None

    # menu fitting is seeded: same seed, same samples; the raw config is untouched
    again = cfg.build_graph(seed=20240)
    assert again.find_role("l1t").classifier == l1t.classifier
    assert all(
        n.classifier is None for n in cfg.nodes if isinstance(n, ProcessNode)
    )
