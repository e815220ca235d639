"""Config parsing: strictness, locations, extends, every key's value."""

import sys
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import daqflow
from daqflow import cli, config
from daqflow.calibration import EfficiencyCurve, MenuSpec, TriggerPath
from daqflow.classifier import EmpiricalScores
from daqflow.config import (
    SCHEMA_VERSION,
    ModelConfig,
    ReportRow,
    ReportSpec,
    ReportTable,
    SweepAxes,
    load_config,
    parse_config,
)
from daqflow.errors import ConfigError
from daqflow.functions import (
    ConstantFn,
    ConstantScaling,
    LinearFn,
    PowerLawFn,
    ProportionalScaling,
    TableFn,
    TableScaling,
)
from daqflow.graph import CommLink, OutputNode, ProcessNode, SensorNode
from daqflow.scenario import (
    ExperimentConditions,
    GpuHlt,
    L1Tracks,
    SmartPixels,
    TechnologyEra,
    VariantConfig,
    evaluate,
    sweep,
)

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"

MINIMAL = """\
schema_version: 1
conditions: {pileup: 1}
nodes:
  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz"}
  - {kind: output, id: out}
links:
  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
"""


# Each kind of object with its required keys only (and a variant's `enabled`)
REQUIRED_ONLY = """\
schema_version: 1
conditions: {pileup: 1}
variants: {gpu_hlt: {enabled: true}, l1_tracks: {enabled: true}, smart_pixels: {enabled: true}}
nodes:
  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz"}
  - kind: process
    id: p
    complexity: {form: constant, value: 1}
    energy_per_op: "1 pJ/op"
    output_size: {form: linear, slope: 1}
  - {kind: output, id: out}
links:
  - {id: a, source: s, target: p, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
  - {id: b, source: p, target: out, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
calibration:
  menus:
    m:
      mode: summed
      paths:
        - {name: x, threshold: "30 GeV", width: "2 GeV", plateau: 0.95, empirical_rate: "10 kHz", input_rate: "40 MHz"}
sweep: {}
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

    # a key left out takes its constructor's own default, whatever that is
    cfg = parse_config(REQUIRED_ONLY)
    expected = ModelConfig(
        schema_version=1,
        conditions=ExperimentConditions(pileup=1.0),
        era=TechnologyEra(year=2024, efficiency_factor=1.0),
        variants=VariantConfig(GpuHlt(enabled=True), L1Tracks(enabled=True), SmartPixels(enabled=True)),
        nodes=(
            SensorNode(id="s", sample_size=1000.0, sample_rate=1000.0),
            ProcessNode(
                id="p",
                complexity=ConstantFn(value=1.0),
                energy_per_op=1e-12,
                output_size=LinearFn(slope=1.0),
            ),
            OutputNode(id="out"),
        ),
        links=(_link("a", "s", "p", 1, 1), _link("b", "p", "out", 1, 1)),
        classifier_refs={},
        menus={"m": MenuSpec(name="m", mode="summed", paths=(_path("x", 30.0, 2.0, 0.95, 10e3, 40e6),))},
        seeds={},
        sweep=SweepAxes(),
    )
    for f in fields(ModelConfig):
        assert getattr(cfg, f.name) == getattr(expected, f.name), f.name
    assert cfg == expected


def test_all_problems_reported_with_locations():
    bad = (
        "schema_version: 1\n"
        "conditions: {pileup: 1}\n"
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
    "override, problem",
    [
        ("conditions: {pileup: .nan}", "conditions.pileup: must be finite"),
        ("era: {efficiency_factor: .nan}", "era.efficiency_factor: must be finite"),
        ('conditions: {bunch_rate: "1e999 Hz"}', "conditions.bunch_rate: must be finite"),
        (
            "variants: {l1_tracks: {enabled: true, skill_factor: .nan}}",
            "variants.l1_tracks.skill_factor: must be finite",
        ),
        ('conditions: {bunch_rate: "0 Hz"}', "conditions: bunch_rate must be positive"),
        # an int beyond the float range, written out or in hex; no message prints it
        pytest.param(
            "conditions: {pileup: 1" + "0" * 400 + "}",
            "conditions.pileup: int too large to convert to float",
            id="pileup-401-digits",
        ),
        pytest.param(
            "conditions: {l1_reduction: 0x" + "f" * 300 + "}",
            "conditions.l1_reduction: int too large to convert to float",
            id="l1_reduction-300-hex-digits",
        ),
    ],
)
def test_non_finite_inputs_are_located_errors(tmp_path, override, problem):
    path = tmp_path / "bad.cfg"
    path.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{override}\n")
    with pytest.raises(ConfigError) as ei:
        load_config(path)
    [(loc, msg)] = ei.value.locations
    assert loc == "bad.cfg:2"
    assert msg.startswith(problem)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts ints of any length"
)
@pytest.mark.parametrize(
    "override",
    [
        "conditions: {pileup: 1" + "0" * 4400 + "}",
        # ints that str() cannot print, in a field whose messages would print them
        "seeds: {calibration: -0x" + "f" * 4000 + "}",
        "schema_version: 0x" + "f" * 4000,
    ],
    ids=["decimal-4401-digits", "negative-seed-4000-hex-digits", "schema_version-4000-hex-digits"],
)
def test_an_int_past_the_str_digit_limit_is_a_parse_error(tmp_path, override):
    path = tmp_path / "bad.cfg"
    path.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{override}\n")
    with pytest.raises(ConfigError, match=r"^cannot parse bad\.cfg: Exceeds the limit") as ei:
        load_config(path)
    assert "line 2," in str(ei.value)


@pytest.mark.parametrize(
    "override, problem",
    [
        ("seeds: {calibraton: 5}", "seeds: unknown field 'calibraton'"),
        ("seeds: {calibration: -1}", "seeds.calibration: must be >= 0"),
        ("conditions: {reference_pileup: 60}", "conditions: unknown field 'reference_pileup'"),
        ("sweep: {pileup: [60, lots]}", "sweep.pileup[1]: expected a number, got 'lots'"),
        ("sweep: {variants: [none, gpu_hlt+warp]}", "sweep.variants[1]: unknown variant 'warp'"),
        ("sweep: {variants: [none, 3]}", "sweep.variants[1]: expected a variant name string, got 3"),
    ],
)
def test_unread_and_bad_keys_are_located_errors(tmp_path, override, problem):
    path = tmp_path / "bad.cfg"
    path.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{override}\n")
    with pytest.raises(ConfigError) as ei:
        load_config(path)
    [(loc, msg)] = ei.value.locations
    assert loc == "bad.cfg:2"
    assert msg.startswith(problem)


class _PureTaggedLoader(yaml.SafeLoader):
    """The tagged loader as built when PyYAML has no libyaml."""


_PureTaggedLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, config._tagged_mapping
)
_PureTaggedLoader.add_constructor("tag:yaml.org,2002:int", config._printable_int)

_needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


@_needs_libyaml
def test_tagged_loader_uses_libyaml_when_present():
    assert issubclass(config._TaggedLoader, yaml.CSafeLoader)


@_needs_libyaml
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_both_loaders_read_the_same_dicts_and_lines(name, monkeypatch):
    text = (CONFIG_DIR / name).read_text()
    fast = config._load_yaml(text, name)
    monkeypatch.setattr(config, "_TaggedLoader", _PureTaggedLoader)
    # equal dicts include equal "__loc__" line stamps on every mapping
    assert config._load_yaml(text, name) == fast
    assert fast[config._LOC].startswith(f"{name}:")


@pytest.mark.parametrize(
    "loader", [pytest.param("libyaml", marks=_needs_libyaml), "pure"]
)
def test_yaml_syntax_errors_name_a_line_under_each_loader(loader, monkeypatch):
    if loader == "pure":
        monkeypatch.setattr(config, "_TaggedLoader", _PureTaggedLoader)
    with pytest.raises(ConfigError, match=r"(?s)cannot parse bad\.cfg: .*line 2, column \d+"):
        config._load_yaml("nodes: [1, 2\nlinks: 3\n", "bad.cfg")


@pytest.mark.parametrize("loader", [pytest.param("libyaml", marks=_needs_libyaml), "pure"])
@pytest.mark.parametrize("broken", ["case.cfg", "base.cfg"])
def test_yaml_syntax_error_marks_name_the_file(tmp_path, broken, loader, monkeypatch):
    # a child that fails to parse, or the parent it extends
    if loader == "pure":
        monkeypatch.setattr(config, "_TaggedLoader", _PureTaggedLoader)
    bad = "conditions: {pileup: [1, 2\n"
    (tmp_path / "base.cfg").write_text(bad if broken == "base.cfg" else "description: base\n")
    (tmp_path / "case.cfg").write_text("extends: base.cfg\n" + (bad if broken == "case.cfg" else ""))
    line = 2 if broken == "case.cfg" else 1
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "case.cfg")
    message = str(info.value)
    assert f'in "{broken}", line {line}, column 22' in message
    assert "<unicode string>" not in message


def test_ratios_accept_fractions_and_colons():
    text = MINIMAL.replace(
        "conditions: {pileup: 1}",
        'conditions: {pileup: 1, l1_reduction: "160/3", hlt_reduction: "400:1"}',
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
    ok = parse_config(
        MINIMAL + 'sweep:\n  variants: ["none", "gpu_hlt+l1_tracks", " smart_pixels + gpu_hlt "]\n'
    )
    assert ok.sweep.variants == ((), ("gpu_hlt", "l1_tracks"), ("smart_pixels", "gpu_hlt"))
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
        "conditions: {pileup: 60, l1_reduction: 400}\n"
        + MINIMAL.split("conditions: {pileup: 1}\n", 1)[1]
    )
    (tmp_path / "child.cfg").write_text(
        "extends: parent.cfg\ndescription: child\nconditions: {pileup: 200}\n"
    )
    cfg = load_config(tmp_path / "child.cfg")
    assert cfg.description == "child"  # scalar replaced
    assert cfg.conditions.pileup == 200.0  # overridden key
    assert cfg.conditions.l1_reduction == 400.0  # sibling keys survive the merge
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


@pytest.mark.parametrize(
    "kind, cause",
    [("undecodable", "not UTF-8 (byte 0xff at offset 20)"), ("directory", "")],
)
def test_an_unreadable_config_or_parent_is_one_config_error(tmp_path, kind, cause):
    bad = tmp_path / "bad.cfg"
    if kind == "undecodable":
        bad.write_bytes(b"schema_version: 1\n# \xff\n")
    else:
        bad.mkdir()
    (tmp_path / "child.cfg").write_text("extends: bad.cfg\n")
    for path, prefix in (
        (bad, f"cannot read config file {bad}: "),
        (tmp_path / "child.cfg", "child.cfg: cannot read extended config bad.cfg: "),
    ):
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(prefix + cause)
        assert "\n" not in str(info.value) and info.value.__cause__ is None


def test_a_parent_reached_through_a_symlink_keeps_the_name_the_child_wrote(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    (real / "parent.cfg").write_text(MINIMAL)
    (tmp_path / "alias.cfg").symlink_to(real / "parent.cfg")
    (tmp_path / "via_alias.cfg").write_text("extends: alias.cfg\ndescription: child\n")
    (tmp_path / "via_real.cfg").write_text("extends: real/parent.cfg\ndescription: child\n")
    assert load_config(tmp_path / "via_alias.cfg") == load_config(tmp_path / "via_real.cfg")

    # a located error inside the parent names the file as the child wrote it
    (real / "parent.cfg").write_text(MINIMAL.replace('sample_rate: "1 kHz"', 'sample_rate: "1 kb"'))
    for child, name in (("via_alias.cfg", "alias.cfg"), ("via_real.cfg", "parent.cfg")):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / child)
        assert [loc for loc, _ in info.value.locations] == [f"{name}:4"]


def test_extends_in_text_needs_a_base_dir():
    with pytest.raises(ConfigError, match="<config>: extends needs a file-based config"):
        parse_config("extends: cms_base.cfg\n" + MINIMAL)


def test_a_report_parses_its_shared_parent_once(tmp_path, monkeypatch):
    tables = load_config(CONFIG_DIR / "cms_tables.cfg").report.tables
    parsed = []
    load_yaml = config._load_yaml

    def counted(text, filename):
        parsed.append(filename)
        return load_yaml(text, filename)

    monkeypatch.setattr(config, "_load_yaml", counted)
    config._parsed_parent.cache_clear()
    assert cli.main(["report", str(CONFIG_DIR / "cms_tables.cfg"), "--out", str(tmp_path)]) == 0
    # cms_tables.cfg and its ten rows each extend cms_base.cfg; each row is parsed itself
    assert sorted(parsed) == sorted(
        ["cms_base.cfg", "cms_tables.cfg"]
        + [Path(row.config_path).name for table in tables for row in table.rows]
    )


def test_an_edited_parent_is_read_afresh(tmp_path):
    parent = tmp_path / "parent.cfg"
    parent.write_text(MINIMAL)
    (tmp_path / "child.cfg").write_text("extends: parent.cfg\n")
    assert load_config(tmp_path / "child.cfg").conditions.pileup == 1.0
    # same name and size, rewritten at once: a (mtime, size) key could serve the old data
    parent.write_text(MINIMAL.replace("{pileup: 1}", "{pileup: 2}"))
    assert load_config(tmp_path / "child.cfg").conditions.pileup == 2.0
    # and the first text again gets the sections built from that text
    parent.write_text(MINIMAL)
    assert load_config(tmp_path / "child.cfg").conditions.pileup == 1.0


def _nested_overrides() -> list[str]:
    """Child bodies that override nested keys of every section a child merges over cms_base."""
    base = yaml.safe_load((CONFIG_DIR / "cms_base.cfg").read_text())
    nodes, links = base["nodes"], base["links"]
    nodes[0]["sample_rate"] = "20 MHz"
    links[0]["energy_per_bit"] = "3 pJ/bit"
    paths = base["calibration"]["menus"]["hlt_menu"]["paths"][:2]
    paths[0]["threshold"] = "600 GeV"
    return [
        "conditions: {pileup: 200, l1_reduction: 160}\n",
        "era: {year: 2030}\nvariants: {gpu_hlt: {enabled: true, unit_power: 300 W}}\n",
        yaml.safe_dump({"calibration": {"menus": {"hlt_menu": {"sample_count": 2000, "paths": paths}}}}),
        yaml.safe_dump({"nodes": nodes, "links": links}),
    ]


def test_children_leave_the_shared_parent_data_unchanged(tmp_path):
    text = (CONFIG_DIR / "cms_base.cfg").read_text()
    shared = config._parsed_parent(text, "cms_base.cfg")
    child = tmp_path / "child.cfg"
    for body in _nested_overrides():
        child.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{body}")
        load_config(child)
    # a child whose sections fail to read, including a calibration that is not a mapping
    child.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\ncalibration: 5\nnodes: {{}}\n")
    with pytest.raises(ConfigError):
        load_config(child)
    assert config._parsed_parent(text, "cms_base.cfg") is shared
    assert shared[0] == config._load_yaml(text, "cms_base.cfg")


def test_the_parent_memo_is_bounded():
    assert config._parsed_parent.cache_info().maxsize is not None


BUNDLED = sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("name", BUNDLED)
def test_a_config_built_from_shared_sections_equals_an_uncached_one(name):
    config._parsed_parent.cache_clear()
    for other in BUNDLED:
        if other != name:
            load_config(CONFIG_DIR / other)
    served = load_config(CONFIG_DIR / name)  # inherited sections built by another child
    config._parsed_parent.cache_clear()
    fresh = load_config(CONFIG_DIR / name)
    assert served == fresh
    assert evaluate(served).row == evaluate(fresh).row


def test_report_rows_share_the_sections_they_inherit():
    tables = load_config(CONFIG_DIR / "cms_tables.cfg").report.tables
    first, second = (load_config(row.config_path) for row in tables[0].rows[:2])
    assert first.conditions != second.conditions
    assert first.nodes is second.nodes
    assert first.links is second.links
    assert first.menus is second.menus


def test_a_broken_inherited_section_reports_the_same_errors_on_every_load(tmp_path):
    bad_node = MINIMAL.replace('sample_rate: "1 kHz"', 'sample_rate: "1 kb"')
    (tmp_path / "parent.cfg").write_text(bad_node)
    (tmp_path / "child.cfg").write_text("extends: parent.cfg\nconditions: {pileup: 2}\n")
    reports = []
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / "child.cfg")
        reports.append(info.value.locations)
    assert reports[0] == reports[1]
    assert [loc for loc, _ in reports[0]] == ["parent.cfg:4"]
    assert "nodes[0] (s).sample_rate" in reports[0][0][1]


def test_each_child_resolves_an_inherited_report_against_its_own_directory(tmp_path):
    report = "report:\n  tables:\n    - title: T\n      rows:\n        - {label: L, config: row.cfg}\n"
    (tmp_path / "parent.cfg").write_text(MINIMAL + report)
    with_row, without_row = tmp_path / "a", tmp_path / "b"
    for child_dir in (with_row, without_row):
        child_dir.mkdir()
        (child_dir / "child.cfg").write_text("extends: ../parent.cfg\n")
    (with_row / "row.cfg").write_text(MINIMAL)
    rows = load_config(with_row / "child.cfg").report.tables[0].rows
    assert rows[0].config_path == str(with_row / "row.cfg")
    with pytest.raises(ConfigError, match="referenced config not found: row.cfg"):
        load_config(without_row / "child.cfg")
    # whether a row file exists is read on every load, never remembered
    (with_row / "row.cfg").unlink()
    with pytest.raises(ConfigError, match="referenced config not found: row.cfg"):
        load_config(with_row / "child.cfg")


def test_evaluating_and_sweeping_leave_the_shared_menus_unchanged():
    row = load_config(CONFIG_DIR / "cms_run3.cfg")
    menus = dict(row.menus)
    evaluate(row, seed=11)
    cfg = load_config(CONFIG_DIR / "cms_sweep.cfg")
    assert cfg.menus is row.menus
    sweep(cfg, seed=12)
    assert row.menus == menus
    assert all(row.menus[name] is menu for name, menu in menus.items())
    assert load_config(CONFIG_DIR / "cms_run5_smart.cfg").menus is row.menus


def test_missing_config_file():
    with pytest.raises(ConfigError, match="config file not found"):
        load_config("/no/such/place.cfg")


def _raw_config(name: str) -> dict:
    """A bundled file as plain YAML, its `extends` parent deep-merged under it."""

    def merge(parent, child):
        out = dict(parent)
        for key, value in child.items():
            both = isinstance(value, dict) and isinstance(out.get(key), dict)
            out[key] = merge(out[key], value) if both else value
        return out

    raw = yaml.safe_load((CONFIG_DIR / name).read_text())
    parent = raw.pop("extends", None)
    return merge(yaml.safe_load((CONFIG_DIR / parent).read_text()), raw) if parent else raw


_KINDS = {SensorNode: "sensor", ProcessNode: "process", OutputNode: "output"}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_bundled_config_reads_its_file(name, load_fixture):
    # Every item of the file lands in the config in order, under its own name.
    raw = _raw_config(name)
    cfg = load_fixture(name.removesuffix(".cfg"))
    assert cfg.description == raw["description"]
    assert cfg.seeds == raw["seeds"]
    assert cfg.conditions.pileup == raw["conditions"]["pileup"]
    assert cfg.era.year == raw["era"]["year"]
    for variant, spec in raw["variants"].items():
        assert getattr(cfg.variants, variant).enabled is spec["enabled"]
    assert [(_KINDS[type(n)], n.id, getattr(n, "role", None)) for n in cfg.nodes] == [
        (n["kind"], n["id"], n.get("role")) for n in raw["nodes"]
    ]
    assert [(l.id, l.source, l.target) for l in cfg.links] == [
        (l["id"], l["source"], l["target"]) for l in raw["links"]
    ]
    assert cfg.classifier_refs == {n["id"]: n["classifier"] for n in raw["nodes"] if "classifier" in n}
    menus = raw["calibration"]["menus"]
    assert {
        key: (m.name, m.mode, m.sample_count, [p.object_name for p in m.paths])
        for key, m in cfg.menus.items()
    } == {
        key: (key, m["mode"], m["sample_count"], [p["name"] for p in m["paths"]])
        for key, m in menus.items()
    }
    assert (cfg.sweep is None) == ("sweep" not in raw)
    if "report" in raw:
        assert [(t.title, [(r.label, Path(r.config_path).name) for r in t.rows])
                for t in cfg.report.tables] == [
            (t["title"], [(r["label"], r["config"]) for r in t["rows"]])
            for t in raw["report"]["tables"]
        ]
    else:
        assert cfg.report is None


# Every optional key of every section at a non-default value, every function
# and scaling form, and table xs given both as numbers and as size strings.
ALL_KEYS = """\
schema_version: 1
description: every key
seeds: {calibration: 5}
conditions:
  pileup: 80
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


def _path(name, threshold, width, plateau, empirical_rate, input_rate):
    curve = EfficiencyCurve(threshold=threshold, width=width, plateau=plateau)
    return TriggerPath(name, curve, empirical_rate=empirical_rate, input_rate=input_rate)


def _link(id, source, target, pj_per_bit, gbit_per_s):
    return CommLink(id, source, target, pj_per_bit * 1e-12, gbit_per_s * 1e9)


# ALL_KEYS as written out by hand: every unit converted, every key in its field
ALL_KEYS_VALUE = ModelConfig(
    schema_version=1,
    description="every key",
    seeds={"calibration": 5},
    conditions=ExperimentConditions(
        pileup=80.0,
        bunch_rate=30e6,
        l1_reduction=160 / 3,
        hlt_reduction=50.0,
        relevant_fraction=0.002,
    ),
    era=TechnologyEra(year=2030, efficiency_factor=2.5, baseline_year=2020, scale_links=True),
    variants=VariantConfig(
        gpu_hlt=GpuHlt(enabled=True, throughput_gain=0.7, unit_power_w=300.0),
        l1_tracks=L1Tracks(enabled=True, skill_factor=1.2),
        smart_pixels=SmartPixels(enabled=True, data_reduction=0.4, detector_power_w=1000.0),
    ),
    nodes=(
        SensorNode(
            id="pix",
            role="inner_tracker",
            sample_size=16000.0,
            sample_rate=30e6,
            relevant_fraction=0.01,
            pileup_scaling=ProportionalScaling(reference=60.0),
            enabled_min_pileup=10.0,
            constant_power_w=5.0,
        ),
        SensorNode(
            id="cal",
            sample_size=1000.0,
            sample_rate=30e6,
            pileup_scaling=TableScaling(pileups=(20.0, 100.0), multipliers=(0.5, 2.0)),
        ),
        SensorNode(id="mu", sample_size=1000.0, sample_rate=30e6, pileup_scaling=ConstantScaling()),
        ProcessNode(
            id="ro",
            role="readout",
            complexity=ConstantFn(value=2.0),
            energy_per_op=1e-12,
            output_size=TableFn(xs=(0.0, 2000.0, 1e6), ys=(0.0, 1500.0, 9e5)),
            constant_power_w=3.0,
        ),
        ProcessNode(
            id="l1",
            role="l1t",
            complexity=LinearFn(slope=2.0, intercept=5.0),
            energy_per_op=2e-12,
            output_size=PowerLawFn(exponent=1.0, value_at_reference=1000.0, reference=1000.0),
            reduction_target=10.0,
            unit_power_w=100.0,
        ),
        ProcessNode(
            id="hl",
            role="hlt",
            complexity=LinearFn(slope=3.0),
            energy_per_op=3e-12,
            output_size=LinearFn(slope=1.0),
            reduction_target=20.0,
        ),
        OutputNode(id="out"),
    ),
    links=(
        _link("a", "pix", "ro", 1, 1),
        _link("b", "cal", "ro", 1, 1),
        _link("c", "mu", "ro", 1, 1),
        _link("d", "ro", "l1", 2, 10),
        _link("e", "l1", "hl", 3, 10),
        _link("f", "hl", "out", 4, 10),
    ),
    classifier_refs={"l1": "l1_menu", "hl": "hlt_menu"},
    menus={
        "l1_menu": MenuSpec(
            name="l1_menu",
            mode="summed",
            sample_count=2000,
            paths=(
                _path("eg", 30.0, 3.0, 0.9, 150e3, 30e6),
                _path("mu", 0.5, 0.0, 1.0, 100e3, 30e6),
            ),
        ),
        "hlt_menu": MenuSpec(
            name="hlt_menu",
            mode="one-at-a-time",
            sample_count=3000,
            paths=(_path("h", 125.0, 4.0, 0.95, 67.0, 100e3),),
        ),
    },
    sweep=SweepAxes(
        pileup=(60.0, 80.0),
        reduction=(160 / 3, 400.0),
        skill=(1.0, 1.5),
        variants=((), ("gpu_hlt", "l1_tracks")),
    ),
    report=ReportSpec(
        tables=(
            ReportTable(
                title="T",
                rows=(ReportRow("L", str((CONFIG_DIR / "cms_run3.cfg").resolve())),),
            ),
        ),
    ),
)


def test_every_key_and_form_parses_to_its_value():
    # a key swapped into another field, or dropped from the schema, fails here
    cfg = parse_config(ALL_KEYS, base_dir=CONFIG_DIR)
    for f in fields(ModelConfig):
        assert getattr(cfg, f.name) == getattr(ALL_KEYS_VALUE, f.name), f.name
    assert cfg == ALL_KEYS_VALUE


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
