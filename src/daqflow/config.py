"""Strict YAML-based .cfg parsing, building, and serialization.

A config file declares one complete scenario: the pipeline topology, trigger
menus, beam conditions, hardware era, upgrade variants, and optionally sweep
axes or report tables.  Parsing is strict: every dimensioned quantity must
carry a unit suffix, unknown fields are rejected, non-finite numbers are
refused, and all problems are collected and reported together with
file:line locations instead of stopping at the first one.

Every table-shaped section (seeds, conditions, era, variants, trigger paths,
menus, function and scaling forms, nodes, links, sweep, report) is described
once, as a _Table of _Field records.  _read_table() walks a table to check a
mapping and build its object; _write_table() walks the same table to emit the
object again.

A file may name a single parent via `extends:`; the child's sections are
deep-merged over the parent's (scalars and lists replace, mappings merge).
Parents may not themselves extend.

serialize_config() emits canonical YAML that parses back into an equal
config, so programmatic edits can round-trip through files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

import yaml

from .calibration import DEFAULT_SAMPLE_COUNT, EfficiencyCurve, MenuSpec, TriggerPath, build_menu
from .classifier import MIN_EMPIRICAL_SAMPLES
from .errors import ConfigError
from .functions import (
    ConstantFn,
    ConstantScaling,
    LinearFn,
    PowerLawFn,
    ProportionalScaling,
    TableFn,
    TableScaling,
)
from .graph import CommLink, OutputNode, PipelineGraph, ProcessNode, SensorNode
from .scenario import (
    VARIANT_NAMES,
    ExperimentConditions,
    GpuHlt,
    L1Tracks,
    SmartPixels,
    TechnologyEra,
    VariantConfig,
)
from .units import KINDS, UnitError, format_quantity, parse_quantity, parse_ratio

__all__ = [
    "ModelConfig",
    "SweepAxes",
    "ReportSpec",
    "ReportTable",
    "ReportRow",
    "load_config",
    "parse_config",
    "serialize_config",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

_LOC = "__loc__"


class _TaggedLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml's when PyYAML has it) that stamps every mapping with its line."""


def _tagged_mapping(loader, node, deep=False):
    mapping = yaml.constructor.SafeConstructor.construct_mapping(loader, node, deep=deep)
    mapping[_LOC] = node.start_mark.line + 1
    return mapping


_TaggedLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _tagged_mapping)


def _stamp_filename(obj, filename: str):
    """Rewrite integer line stamps into 'file:line' strings, recursively."""
    if isinstance(obj, dict):
        if isinstance(obj.get(_LOC), int):
            obj[_LOC] = f"{filename}:{obj[_LOC]}"
        for v in obj.values():
            _stamp_filename(v, filename)
    elif isinstance(obj, list):
        for v in obj:
            _stamp_filename(v, filename)


def _load_yaml(text: str, filename: str) -> dict:
    try:
        data = yaml.load(text, Loader=_TaggedLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {filename}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{filename}: top level must be a mapping")
    _stamp_filename(data, filename)
    return data


def _merge(parent: dict, child: dict) -> dict:
    out = dict(parent)
    for key, value in child.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


class _Ctx:
    """Collects (location, message) pairs so one parse reports everything.

    base_dir is the directory report references resolve against (None when
    the config text has no file).
    """

    def __init__(self, base_dir: Path | None) -> None:
        self.base_dir = base_dir
        self.errors: list[tuple[str, str]] = []

    def error(self, loc: str, message: str) -> None:
        self.errors.append((str(loc), message))

    def fail_if_errors(self) -> None:
        if self.errors:
            raise ConfigError(
                f"invalid configuration ({len(self.errors)} problem"
                f"{'s' if len(self.errors) != 1 else ''})",
                locations=self.errors,
            )


def _loc(mapping) -> str:
    if isinstance(mapping, dict):
        return str(mapping.get(_LOC, "?"))
    return "?"


def _check_fields(ctx: _Ctx, mapping: dict, section: str, allowed, required=()) -> bool:
    loc = _loc(mapping)
    for key in mapping:
        if key != _LOC and key not in allowed:
            ctx.error(loc, f"{section}: unknown field {key!r}")
    ok = True
    for key in required:
        if key not in mapping:
            ctx.error(loc, f"{section}: missing required field {key!r}")
            ok = False
    return ok


def _expect_mapping(ctx: _Ctx, value, section: str, loc: str) -> dict:
    if not isinstance(value, dict):
        ctx.error(loc, f"{section}: expected a mapping, got {type(value).__name__}")
        return {_LOC: loc}
    return value


# === section tables ===


@dataclass(frozen=True)
class _Field:
    """One key of a table-shaped section.

    attr is the attribute the writer reads, dotted for a nested object; its
    last component is the keyword the table's constructor takes.  attr None
    marks a key the section accepts but its object does not hold; the caller
    reads that key itself.  kind is "number", "int", "bool", "str", "ratio",
    "bits" (a size string or a bare number of bits), "variants" (names joined
    by '+', or 'none'; read as a tuple of names), "config" (a path to another
    config, read as the resolved path), a units.KINDS name, or a nested
    _Table, _OneOf or _ListOf.  minimum is an inclusive lower bound.
    """

    key: str
    attr: str | None
    kind: object
    default: object = None
    required: bool = False
    minimum: float | None = None


class _Table:
    def __init__(self, build, fields: tuple[_Field, ...]):
        self.build = build  # class, or function taking the fields as keywords
        self.fields = fields
        self.keys = {f.key for f in fields}
        self.required = tuple(f.key for f in fields if f.required)
        # (field, constructor keyword or None) in field order
        self.slots = tuple((f, f.attr and f.attr.rpartition(".")[2]) for f in fields)


@dataclass(frozen=True)
class _OneOf:
    """Tagged union: the value under `tag` picks the table."""

    tag: str
    tables: dict[str, _Table]


@dataclass(frozen=True)
class _ListOf:
    item: object


def _trigger_path(object_name, threshold, width, plateau, empirical_rate, input_rate):
    curve = EfficiencyCurve(threshold=threshold, width=width, plateau=plateau)
    return TriggerPath(
        object_name=object_name,
        curve=curve,
        empirical_rate=empirical_rate,
        input_rate=input_rate,
    )


_CONDITIONS = _Table(ExperimentConditions, (
    _Field("pileup", "pileup", "number", required=True),
    _Field("bunch_rate", "bunch_rate", "rate"),
    _Field("l1_reduction", "l1_reduction", "ratio"),
    _Field("hlt_reduction", "hlt_reduction", "ratio"),
    _Field("relevant_fraction", "relevant_fraction", "number"),
))

_ERA = _Table(TechnologyEra, (
    _Field("year", "year", "int", required=True),
    _Field("efficiency_factor", "efficiency_factor", "number", required=True),
    _Field("baseline_year", "baseline_year", "int", default=2024),
    _Field("scale_links", "scale_links", "bool", default=False),
))

_ENABLED = _Field("enabled", "enabled", "bool", default=False)

_VARIANTS = _Table(VariantConfig, (
    _Field("gpu_hlt", "gpu_hlt", _Table(GpuHlt, (
        _ENABLED,
        _Field("throughput_gain", "throughput_gain", "number", default=0.5),
        _Field("unit_power", "unit_power_w", "power", default=400.0),
    )), default=GpuHlt()),
    _Field("l1_tracks", "l1_tracks", _Table(L1Tracks, (
        _ENABLED,
        _Field("skill_factor", "skill_factor", "number", default=1.4),
    )), default=L1Tracks()),
    _Field("smart_pixels", "smart_pixels", _Table(SmartPixels, (
        _ENABLED,
        _Field("data_reduction", "data_reduction", "number", default=0.54),
        _Field("detector_power", "detector_power_w", "power", default=2300.0),
    )), default=SmartPixels()),
))

_PATH = _Table(_trigger_path, (
    _Field("name", "object_name", "str", required=True),
    _Field("threshold", "curve.threshold", "momentum", required=True),
    _Field("width", "curve.width", "momentum", required=True),
    _Field("plateau", "curve.plateau", "number", required=True),
    _Field("empirical_rate", "empirical_rate", "rate", required=True),
    _Field("input_rate", "input_rate", "rate", required=True),
))

# the menu's name is its key under calibration.menus, passed in by the caller
_MENU = _Table(MenuSpec, (
    _Field("mode", "mode", "str", required=True),
    # the sampler itself refuses fewer samples; catch that here with a location
    _Field(
        "sample_count", "sample_count", "int",
        default=DEFAULT_SAMPLE_COUNT, minimum=MIN_EMPIRICAL_SAMPLES,
    ),
    _Field("paths", "paths", _ListOf(_PATH), required=True),
))

_FUNCTION = _OneOf("form", {
    "constant": _Table(ConstantFn, (
        _Field("value", "value", "number", required=True, minimum=0.0),
    )),
    "linear": _Table(LinearFn, (
        _Field("slope", "slope", "number", required=True, minimum=0.0),
        _Field("intercept", "intercept", "number", default=0.0, minimum=0.0),
    )),
    "power_law": _Table(PowerLawFn, (
        _Field("exponent", "exponent", "number", required=True, minimum=0.0),
        _Field("value_at_reference", "value_at_reference", "number", required=True, minimum=0.0),
        _Field("reference", "reference", "size", required=True),
    )),
    "table": _Table(TableFn, (
        _Field("xs", "xs", _ListOf("bits"), required=True),
        _Field("ys", "ys", _ListOf("number"), required=True),
    )),
})

_SCALING = _OneOf("form", {
    "constant": _Table(ConstantScaling, ()),
    "proportional": _Table(ProportionalScaling, (
        _Field("reference", "reference", "number", required=True, minimum=1e-12),
    )),
    "table": _Table(TableScaling, (
        _Field("pileups", "pileups", _ListOf("number"), required=True),
        _Field("multipliers", "multipliers", _ListOf("number"), required=True),
    )),
})

_ID = _Field("id", "id", "str", required=True)
_ROLE = _Field("role", "role", "str")
_CONSTANT_POWER = _Field("constant_power", "constant_power_w", "power", default=0.0)

_NODE = _OneOf("kind", {
    "sensor": _Table(SensorNode, (
        _ID,
        _ROLE,
        _Field("sample_size", "sample_size", "size", required=True),
        _Field("sample_rate", "sample_rate", "rate", required=True),
        _Field("relevant_fraction", "relevant_fraction", "number", default=0.0),
        _Field("pileup_scaling", "pileup_scaling", _SCALING, default=ConstantScaling()),
        _Field("enabled_min_pileup", "enabled_min_pileup", "number"),
        _CONSTANT_POWER,
    )),
    "process": _Table(ProcessNode, (
        _ID,
        _ROLE,
        _Field("complexity", "complexity", _FUNCTION, required=True),
        _Field("energy_per_op", "energy_per_op", "energy_per_op", required=True),
        _Field("output_size", "output_size", _FUNCTION, required=True),
        _Field("classifier", None, "str"),  # a calibration.menus name, see _read_nodes
        _Field("reduction_target", "reduction_target", "ratio"),
        _Field("unit_power", "unit_power_w", "power"),
        _CONSTANT_POWER,
    )),
    "output": _Table(OutputNode, (_ID,)),
})

_LINK = _Table(CommLink, (
    _ID,
    _Field("source", "source", "str", required=True),
    _Field("target", "target", "str", required=True),
    _Field("energy_per_bit", "energy_per_bit", "energy_per_bit", required=True),
    _Field("bandwidth_per_channel", "bandwidth_per_channel", "bandwidth", required=True),
))

_SEEDS = _Table(
    lambda calibration: {} if calibration is None else {"calibration": calibration},
    (_Field("calibration", "calibration", "int", minimum=0),),
)


@dataclass(frozen=True)
class SweepAxes:
    """Grid axes; a None entry means 'as configured' for that point.

    A variants entry is the tuple of variant names switched on at that point.
    """

    pileup: tuple = (None,)
    reduction: tuple = (None,)
    skill: tuple = (None,)
    variants: tuple = (None,)


_SWEEP = _Table(SweepAxes, (
    _Field("pileup", "pileup", _ListOf("number"), default=(None,)),
    _Field("reduction", "reduction", _ListOf("ratio"), default=(None,)),
    _Field("skill", "skill", _ListOf("number"), default=(None,)),
    _Field("variants", "variants", _ListOf("variants"), default=(None,)),
))


@dataclass(frozen=True)
class ReportRow:
    label: str
    config_path: str


@dataclass(frozen=True)
class ReportTable:
    title: str
    rows: tuple[ReportRow, ...]


@dataclass(frozen=True)
class ReportSpec:
    tables: tuple[ReportTable, ...]


_REPORT_ROW = _Table(ReportRow, (
    _Field("label", "label", "str", required=True),
    _Field("config", "config_path", "config", required=True),
))

_REPORT = _Table(ReportSpec, (
    _Field("tables", "tables", _ListOf(_Table(ReportTable, (
        _Field("title", "title", "str", required=True),
        _Field("rows", "rows", _ListOf(_REPORT_ROW), required=True),
    ))), required=True),
))

# Stage role -> (menu mode it needs, stage name for the message).
_STAGE_MODES = {"l1t": ("summed", "first-stage"), "hlt": ("one-at-a-time", "second-stage")}


# === generic reader ===

_BAD = object()  # a value that failed to read; its problem is already recorded


def _read_scalar(kind: str, v, base_dir: Path | None):
    if kind in KINDS:
        return parse_quantity(v, kind)
    if kind == "ratio":
        return parse_ratio(v)
    if kind == "bits" and isinstance(v, str):
        return parse_quantity(v, "size")
    if kind == "bool":
        if not isinstance(v, bool):
            raise ValueError(f"expected true/false, got {v!r}")
        return v
    if kind == "str":
        if not isinstance(v, str) or not v:
            raise ValueError(f"expected a non-empty string, got {v!r}")
        return v
    if kind == "int":
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"expected an integer, got {v!r}")
        return v
    if kind == "variants":
        if not isinstance(v, str):
            raise ValueError(f"expected a variant name string, got {v!r}")
        entry = v.strip()
        names = () if entry in ("", "none") else tuple(n.strip() for n in entry.split("+"))
        for name in names:
            if name not in VARIANT_NAMES:
                raise ValueError(
                    f"unknown variant {name!r} "
                    f"(known: {', '.join(VARIANT_NAMES)}, combine with '+')"
                )
        return names
    if kind == "config":
        ref = _read_scalar("str", v, base_dir)
        if base_dir is None:
            raise ValueError("report references need a file-based config")
        path = (base_dir / ref).resolve()
        if not path.is_file():
            raise ValueError(f"referenced config not found: {ref}")
        return str(path)
    return _number(v)


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}{_exponent_hint(v)}")
    return float(v)


def _exponent_hint(v) -> str:
    """Advice for a number that YAML 1.1 resolved to a string, such as 1e2."""
    if not isinstance(v, str) or "e" not in v.lower():
        return ""
    try:
        float(v)
    except ValueError:
        return ""
    mantissa, exponent = v.strip().lower().split("e")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent[0] not in "+-":
        exponent = "+" + exponent
    return (
        "; YAML reads an exponent number as text unless it has a decimal point and a "
        f"signed exponent: write {mantissa}e{exponent}"
    )


def _read_value(ctx: _Ctx, kind, v, loc: str, where: str):
    """Read one value of any kind; _BAD (with the problem recorded) on failure."""
    if isinstance(kind, str):
        try:
            value = _read_scalar(kind, v, ctx.base_dir)
        except (UnitError, ValueError) as exc:
            ctx.error(loc, f"{where}: {exc}")
            return _BAD
        if isinstance(value, float) and not math.isfinite(value):
            ctx.error(loc, f"{where}: must be finite, got {value!r}")
            return _BAD
        return value
    if isinstance(kind, _Table):
        return _read_table(ctx, kind, v, where, loc)
    if isinstance(kind, _OneOf):
        if not isinstance(v, dict):
            ctx.error(loc, f"{where}: expected a mapping, got {type(v).__name__}")
            return _BAD
        if kind.tag not in v:
            ctx.error(_loc(v), f"{where}: missing required field {kind.tag!r}")
            return _BAD
        table = kind.tables.get(v[kind.tag]) if isinstance(v[kind.tag], str) else None
        if table is None:
            ctx.error(_loc(v), f"{where}.{kind.tag}: unknown {kind.tag} {v[kind.tag]!r}")
            return _BAD
        return _read_table(ctx, table, v, where, loc, tag=kind.tag)
    # _ListOf
    if not isinstance(v, list) or not v:
        ctx.error(loc, f"{where}: expected a non-empty list")
        return _BAD
    items = [_read_value(ctx, kind.item, x, loc, f"{where}[{i}]") for i, x in enumerate(v)]
    return _BAD if any(x is _BAD for x in items) else tuple(items)


def _read_table(ctx: _Ctx, table: _Table, mapping, where: str, loc: str, tag=None, **fixed):
    """Check a mapping against a table and build its object.

    Reports unknown and missing keys and one problem per bad field; the
    object is built only when every field read cleanly, so a bad field
    never causes a follow-on error from a stand-in value.
    """
    if not isinstance(mapping, dict):
        ctx.error(loc, f"{where}: expected a mapping, got {type(mapping).__name__}")
        return _BAD
    loc = _loc(mapping)
    allowed = table.keys if tag is None else table.keys | {tag}
    ok = _check_fields(ctx, mapping, where, allowed, table.required)
    kwargs = dict(fixed)
    for f, name in table.slots:
        if f.key not in mapping:
            value = f.default
        else:
            value = _read_value(ctx, f.kind, mapping[f.key], loc, f"{where}.{f.key}")
            if value is not _BAD and f.minimum is not None and value < f.minimum:
                ctx.error(loc, f"{where}.{f.key}: must be >= {f.minimum}, got {value!r}")
                value = _BAD
        if value is _BAD:
            ok = False
        elif name is not None:
            kwargs[name] = value
    if not ok:
        return _BAD
    try:
        return table.build(**kwargs)
    except ValueError as exc:
        ctx.error(loc, f"{where}: {exc}")
        return _BAD


def _list_section(ctx: _Ctx, data: dict, key: str) -> list:
    raw = data.get(key)
    if key in data and (not isinstance(raw, list) or not raw):
        ctx.error(_loc(data), f"{key}: expected a non-empty list")
    return raw if isinstance(raw, list) else []


def _item_name(section: str, i: int, raw) -> str:
    item_id = raw.get("id") if isinstance(raw, dict) else None
    return f"{section}[{i}] ({item_id})" if isinstance(item_id, str) else f"{section}[{i}]"


def _read_menus(ctx: _Ctx, data: dict) -> dict:
    if "calibration" not in data:
        return {}
    cal = _expect_mapping(ctx, data["calibration"], "calibration", _loc(data))
    _check_fields(ctx, cal, "calibration", allowed={"menus"}, required=("menus",))
    menus_map = _expect_mapping(ctx, cal.get("menus", {}), "calibration.menus", _loc(cal))
    return {
        name: _read_table(
            ctx, _MENU, raw, f"calibration.menus.{name}", _loc(menus_map), name=name
        )
        for name, raw in menus_map.items()
        if name != _LOC
    }


def _read_nodes(ctx: _Ctx, data: dict, menus: dict):
    """Nodes, plus the classifier menu each process node references."""
    nodes = []
    classifier_refs: dict[str, str] = {}
    for i, raw in enumerate(_list_section(ctx, data, "nodes")):
        where = _item_name("nodes", i, raw)
        node = _read_value(ctx, _NODE, raw, _loc(data), where)
        if node is _BAD:
            continue
        nodes.append(node)
        menu_name = raw.get("classifier") if isinstance(node, ProcessNode) else None
        if menu_name is None:
            continue
        if menu_name not in menus:
            ctx.error(
                _loc(raw),
                f"{where}.classifier: menu {menu_name!r} is not defined under calibration.menus",
            )
            continue
        classifier_refs[node.id] = menu_name
        mode, stage = _STAGE_MODES.get(node.role, (None, None))
        menu = menus[menu_name]
        if mode is not None and menu is not _BAD and menu.mode != mode:
            ctx.error(
                _loc(raw),
                f"{where}.classifier: {stage} menu {menu_name!r} must use {mode} scores",
            )
    return tuple(nodes), classifier_refs


@dataclass(frozen=True)
class ModelConfig:
    schema_version: int
    conditions: ExperimentConditions
    era: TechnologyEra
    variants: VariantConfig
    nodes: tuple
    links: tuple[CommLink, ...]
    classifier_refs: dict
    menus: dict
    seeds: dict
    description: str = ""
    sweep: SweepAxes | None = None
    report: ReportSpec | None = None
    source_path: str | None = field(default=None, compare=False)

    def build_graph(self, seed: int = 0) -> PipelineGraph:
        """Materialize the pipeline: fit menus at `seed`, attach classifiers."""
        models = {
            name: build_menu(self.menus[name], seed)
            for name in sorted(set(self.classifier_refs.values()))
        }
        nodes = tuple(
            replace(n, classifier=models[self.classifier_refs[n.id]])
            if isinstance(n, ProcessNode) and n.id in self.classifier_refs
            else n
            for n in self.nodes
        )
        return PipelineGraph(nodes=nodes, links=self.links)


_TOP_LEVEL = {
    "schema_version",
    "description",
    "seeds",
    "conditions",
    "era",
    "variants",
    "nodes",
    "links",
    "calibration",
    "sweep",
    "report",
}


def _build_config(data: dict, base_dir: Path | None, source: str | None) -> ModelConfig:
    ctx = _Ctx(base_dir)
    _check_fields(
        ctx,
        data,
        "config",
        allowed=_TOP_LEVEL,
        required=("schema_version", "conditions", "nodes", "links"),
    )
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        ctx.error(
            _loc(data),
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}",
        )
        version = SCHEMA_VERSION

    description = data.get("description", "")
    if not isinstance(description, str):
        ctx.error(_loc(data), f"description: expected a string, got {description!r}")
        description = ""

    def section(key, table, default):
        return _read_value(ctx, table, data[key], _loc(data), key) if key in data else default

    seeds = section("seeds", _SEEDS, {})
    conditions = section("conditions", _CONDITIONS, _BAD)
    era = section("era", _ERA, TechnologyEra(year=2024, efficiency_factor=1.0))
    variants = section("variants", _VARIANTS, VariantConfig())
    menus = _read_menus(ctx, data)
    nodes, classifier_refs = _read_nodes(ctx, data, menus)
    links = tuple(
        link
        for link in (
            _read_value(ctx, _LINK, raw, _loc(data), _item_name("links", i, raw))
            for i, raw in enumerate(_list_section(ctx, data, "links"))
        )
        if link is not _BAD
    )
    sweep_axes = section("sweep", _SWEEP, None)
    report = section("report", _REPORT, None)
    ctx.fail_if_errors()
    return ModelConfig(
        schema_version=version,
        conditions=conditions,
        era=era,
        variants=variants,
        nodes=nodes,
        links=links,
        classifier_refs=classifier_refs,
        menus=menus,
        seeds=seeds,
        description=description,
        sweep=sweep_axes,
        report=report,
        source_path=source,
    )


def _resolve_extends(data: dict, base_dir: Path | None, filename: str) -> dict:
    ref = data.pop("extends", None)
    if ref is None:
        return data
    if not isinstance(ref, str):
        raise ConfigError(f"{filename}: extends must be a path string, got {ref!r}")
    if base_dir is None:
        raise ConfigError(f"{filename}: extends needs a file-based config to resolve against")
    parent_path = (base_dir / ref).resolve()
    if not parent_path.is_file():
        raise ConfigError(f"{filename}: extended config not found: {ref}")
    parent = _load_yaml(parent_path.read_text(), parent_path.name)
    if "extends" in parent:
        raise ConfigError(
            f"{filename}: extends chains are limited to one level, "
            f"but {parent_path.name} itself extends another config"
        )
    return _merge(parent, data)


def load_config(path) -> ModelConfig:
    """Parse a .cfg file into a ModelConfig, resolving a single extends level."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = _load_yaml(p.read_text(), p.name)
    data = _resolve_extends(data, p.parent, p.name)
    return _build_config(data, base_dir=p.parent, source=str(p))


def parse_config(text: str, *, base_dir=None, filename: str = "<config>") -> ModelConfig:
    """Parse config text directly; extends resolves against base_dir if given."""
    data = _load_yaml(text, filename)
    base = Path(base_dir) if base_dir is not None else None
    data = _resolve_extends(data, base, filename)
    return _build_config(data, base_dir=base, source=None)


# === generic writer ===


def _write_value(kind, value):
    if isinstance(kind, _Table):
        return _write_table(kind, value)
    if isinstance(kind, _OneOf):
        for tag, table in kind.tables.items():
            if type(value) is table.build:
                return {kind.tag: tag, **_write_table(table, value)}
        raise ConfigError(f"cannot serialize {type(value).__name__} as a config {kind.tag}")
    if isinstance(kind, _ListOf):
        return [_write_value(kind.item, v) for v in value]
    if kind == "variants":
        return "+".join(value) or "none"
    if kind == "bits":
        return format_quantity(value, "size")
    if kind in KINDS:
        return format_quantity(value, kind)
    return value


def _write_table(table: _Table, obj) -> dict:
    """Emit the object's fields; optional fields at their default are left out."""
    out = {}
    for f in table.fields:
        if f.attr is None:
            continue
        value = attrgetter(f.attr)(obj)
        if f.required or value != f.default:
            out[f.key] = _write_value(f.kind, value)
    return out


def serialize_config(cfg: ModelConfig) -> str:
    """Emit canonical YAML that parses back into an equal ModelConfig."""
    data: dict = {"schema_version": cfg.schema_version}
    if cfg.description:
        data["description"] = cfg.description
    if cfg.seeds:
        data["seeds"] = dict(cfg.seeds)
    data["conditions"] = _write_table(_CONDITIONS, cfg.conditions)
    data["era"] = _write_table(_ERA, cfg.era)
    data["variants"] = _write_table(_VARIANTS, cfg.variants)

    data["nodes"] = []
    for n in cfg.nodes:
        spec = _write_value(_NODE, n)
        if n.id in cfg.classifier_refs:
            spec["classifier"] = cfg.classifier_refs[n.id]
        data["nodes"].append(spec)
    data["links"] = [_write_table(_LINK, link) for link in cfg.links]

    if cfg.menus:
        menus = {name: _write_table(_MENU, menu) for name, menu in cfg.menus.items()}
        data["calibration"] = {"menus": menus}

    if cfg.sweep is not None:
        data["sweep"] = _write_table(_SWEEP, cfg.sweep)
    if cfg.report is not None:
        data["report"] = _write_table(_REPORT, cfg.report)

    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
