"""Strict YAML-based .cfg parsing into a ModelConfig.

A config file declares one complete scenario: the pipeline topology, trigger
menus, beam conditions, hardware era, upgrade variants, and optionally sweep
axes or report tables.  Parsing is strict: every dimensioned quantity must
carry a unit suffix, unknown fields are rejected, non-finite numbers are
refused, and all problems are collected and reported together with
file:line locations instead of stopping at the first one.

The file and every table-shaped section in it (seeds, conditions, era,
variants, calibration and its menus, trigger paths, function and scaling
forms, nodes, links, sweep, report) is described once, as a _Table of _Field
records, and _read_table() walks a table to check a mapping and build its
object.  A field's keyword is its key unless it names another, and a key
left out passes nothing, so the constructor's own default applies.  Three
checks stay outside the tables: `extends`, the schema_version value, and one
pass over the nodes that resolves each `classifier:` name against
calibration.menus and applies the stage-mode rule.

A file may name a single parent via `extends:`; the child's sections are
deep-merged over the parent's (scalars and lists replace, mappings merge).
Parents may not themselves extend.

Read once: _read_text opens a config or parent once, as UTF-8, with no stat
or path resolution first, and ends any failure as one ConfigError.  So a
parent reached through a symlink keeps the name the child wrote: its located
errors and memo key name the link, not its target.

Parse once: an `extends` parent's line-stamped data is memoised
(_parsed_parent) under its text and name, of which _load_yaml is a pure
function, so an edited parent is never served stale and nothing needs
clearing; the parent file is still read on every load.  Children share the
cached dict uncopied: _merge builds new dicts and only shares the parent's
sub-objects, the table reader only reads, and `extends` is popped from the
child's own dict.

Build once: the same memo entry keeps the objects built from the parent's
top-level sections.  A section a child inherits unchanged (its merged value
*is* the parent's object) is built by the first child that reads it without
a problem and shared, never mutated, by the rest; a broken one is read
again, so it reports the same located errors on every load.  `report` is
always read: its rows resolve against the child's directory and must exist.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import yaml

from .calibration import EfficiencyCurve, MenuSpec, TriggerPath, build_menu
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
from .units import KINDS, UnitError, parse_quantity, parse_ratio

__all__ = [
    "ModelConfig",
    "SweepAxes",
    "ReportSpec",
    "ReportTable",
    "ReportRow",
    "load_config",
    "parse_config",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

_LOC = "__loc__"


class _TaggedLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml's when PyYAML has it) that stamps every mapping with its file:line."""


def _tagged_mapping(loader, node, deep=False):
    mapping = yaml.constructor.SafeConstructor.construct_mapping(loader, node, deep=deep)
    mapping[_LOC] = f"{loader.filename}:{node.start_mark.line + 1}"
    return mapping


def _printable_int(loader, node):
    # an int that str() cannot print, from a decimal literal that int() refuses
    # or a long hex one, is a located parse error: no message has to print it
    try:
        value = loader.construct_yaml_int(node)
        repr(value)
    except ValueError as exc:
        raise yaml.constructor.ConstructorError(None, None, str(exc), node.start_mark) from None
    return value


_TaggedLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _tagged_mapping)
_TaggedLoader.add_constructor("tag:yaml.org,2002:int", _printable_int)


def _load_yaml(text: str, filename: str) -> dict:
    stream = io.StringIO(text)
    stream.name = filename  # the file each parse error's mark names
    loader = _TaggedLoader(stream)  # as yaml.load drives it, with the file name set
    loader.filename = filename
    try:
        data = loader.get_single_data()
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {filename}: {exc}") from exc
    finally:
        loader.dispose()
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{filename}: top level must be a mapping")
    return data


@functools.lru_cache(maxsize=16)
def _parsed_parent(text: str, name: str) -> tuple[dict, dict]:
    """An extends parent's data and its built sections, shared by every child.

    Read the data, never mutate it; _read_fields fills the sections.
    """
    return _load_yaml(text, name), {}


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


# === section tables ===


class _Field(NamedTuple):
    """One key of a table-shaped section.

    kind is "number", "int", "bool", "str", "text" (a string that may be
    empty), "ratio", "bits" (a size string or a bare number of bits),
    "variants" (names joined by '+', or 'none'; read as a tuple of names),
    "config" (a path to another config, read as the resolved path), a
    units.KINDS name, a nested _Table, _OneOf, _ListOf or _MapOf, or None (the
    value as written, for the caller to check).  arg is the constructor's
    keyword, the key itself when empty, or None for a key the caller reads
    itself.  A missing key passes default, or nothing if that is None, so the
    constructor's own default applies.  minimum is an inclusive lower bound.
    """

    key: str
    kind: object
    arg: str | None = ""
    default: object = None
    required: bool = False
    minimum: float | None = None


class _Table:
    """A section's fields and the constructor that takes them as keywords.

    A key the mapping leaves out passes nothing unless its _Field has a
    default, so the constructor's own default applies.
    """

    def __init__(self, build, fields: tuple[_Field, ...]):
        self.build = build
        self.fields = fields
        self.keys = {f.key for f in fields}
        self.required = tuple(f.key for f in fields if f.required)


class _OneOf(NamedTuple):
    """Tagged union: the value under `tag` picks the table."""

    tag: str
    tables: dict[str, _Table]


class _ListOf(NamedTuple):
    item: object


class _MapOf(NamedTuple):
    """A mapping of named items; each key reaches the item's table as `name`."""

    item: _Table


def _trigger_path(object_name, threshold, width, plateau, empirical_rate, input_rate):
    curve = EfficiencyCurve(threshold=threshold, width=width, plateau=plateau)
    return TriggerPath(object_name, curve, empirical_rate=empirical_rate, input_rate=input_rate)


_CONDITIONS = _Table(ExperimentConditions, (
    _Field("pileup", "number", required=True),
    _Field("bunch_rate", "rate"),
    _Field("l1_reduction", "ratio"),
    _Field("hlt_reduction", "ratio"),
    _Field("relevant_fraction", "number"),
))

_ERA = _Table(TechnologyEra, (
    _Field("year", "int", required=True),
    _Field("efficiency_factor", "number", required=True),
    _Field("baseline_year", "int"),
    _Field("scale_links", "bool"),
))

_ENABLED = _Field("enabled", "bool")

_VARIANTS = _Table(VariantConfig, (
    _Field("gpu_hlt", _Table(GpuHlt, (
        _ENABLED,
        _Field("throughput_gain", "number"),
        _Field("unit_power", "power", arg="unit_power_w"),
    ))),
    _Field("l1_tracks", _Table(L1Tracks, (
        _ENABLED,
        _Field("skill_factor", "number"),
    ))),
    _Field("smart_pixels", _Table(SmartPixels, (
        _ENABLED,
        _Field("data_reduction", "number"),
        _Field("detector_power", "power", arg="detector_power_w"),
    ))),
))

_PATH = _Table(_trigger_path, (
    _Field("name", "str", arg="object_name", required=True),
    _Field("threshold", "momentum", required=True),
    _Field("width", "momentum", required=True),
    _Field("plateau", "number", required=True),
    _Field("empirical_rate", "rate", required=True),
    _Field("input_rate", "rate", required=True),
))

# the menu's name is its key under calibration.menus, passed in by _MapOf
_MENU = _Table(MenuSpec, (
    _Field("mode", "str", required=True),
    # the sampler itself refuses fewer samples; catch that here with a location
    _Field("sample_count", "int", minimum=MIN_EMPIRICAL_SAMPLES),
    _Field("paths", _ListOf(_PATH), required=True),
))

_CALIBRATION = _Table(lambda menus: menus, (_Field("menus", _MapOf(_MENU), required=True),))

_FUNCTION = _OneOf("form", {
    "constant": _Table(ConstantFn, (
        _Field("value", "number", required=True, minimum=0.0),
    )),
    "linear": _Table(LinearFn, (
        _Field("slope", "number", required=True, minimum=0.0),
        _Field("intercept", "number", minimum=0.0),
    )),
    "power_law": _Table(PowerLawFn, (
        _Field("exponent", "number", required=True, minimum=0.0),
        _Field("value_at_reference", "number", required=True, minimum=0.0),
        _Field("reference", "size", required=True),
    )),
    "table": _Table(TableFn, (
        _Field("xs", _ListOf("bits"), required=True),
        _Field("ys", _ListOf("number"), required=True),
    )),
})

_SCALING = _OneOf("form", {
    "constant": _Table(ConstantScaling, ()),
    "proportional": _Table(ProportionalScaling, (
        _Field("reference", "number", required=True, minimum=1e-12),
    )),
    "table": _Table(TableScaling, (
        _Field("pileups", _ListOf("number"), required=True),
        _Field("multipliers", _ListOf("number"), required=True),
    )),
})

_ID = _Field("id", "str", required=True)
_ROLE = _Field("role", "str")
_CONSTANT_POWER = _Field("constant_power", "power", arg="constant_power_w")

_NODE = _OneOf("kind", {
    "sensor": _Table(SensorNode, (
        _ID,
        _ROLE,
        _Field("sample_size", "size", required=True),
        _Field("sample_rate", "rate", required=True),
        _Field("relevant_fraction", "number"),
        _Field("pileup_scaling", _SCALING),
        _Field("enabled_min_pileup", "number"),
        _CONSTANT_POWER,
    )),
    "process": _Table(ProcessNode, (
        _ID,
        _ROLE,
        _Field("complexity", _FUNCTION, required=True),
        _Field("energy_per_op", "energy_per_op", required=True),
        _Field("output_size", _FUNCTION, required=True),
        _Field("classifier", "str", arg=None),  # a calibration.menus name, see _classifier_refs
        _Field("reduction_target", "ratio"),
        _Field("unit_power", "power", arg="unit_power_w"),
        _CONSTANT_POWER,
    )),
    "output": _Table(OutputNode, (_ID,)),
})

_LINK = _Table(CommLink, (
    _ID,
    _Field("source", "str", required=True),
    _Field("target", "str", required=True),
    _Field("energy_per_bit", "energy_per_bit", required=True),
    _Field("bandwidth_per_channel", "bandwidth", required=True),
))

_SEEDS = _Table(
    lambda calibration=None: {} if calibration is None else {"calibration": calibration},
    (_Field("calibration", "int", minimum=0),),
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
    _Field("pileup", _ListOf("number")),
    _Field("reduction", _ListOf("ratio")),
    _Field("skill", _ListOf("number")),
    _Field("variants", _ListOf("variants")),
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
    _Field("label", "str", required=True),
    _Field("config", "config", arg="config_path", required=True),
))

_REPORT = _Table(ReportSpec, (
    _Field("tables", _ListOf(_Table(ReportTable, (
        _Field("title", "str", required=True),
        _Field("rows", _ListOf(_REPORT_ROW), required=True),
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
    if kind == "text":
        if not isinstance(v, str):
            raise ValueError(f"expected a string, got {v!r}")
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
    if kind is None:
        return v
    if isinstance(kind, str):
        try:
            value = _read_scalar(kind, v, ctx.base_dir)
        except (UnitError, ValueError, OverflowError) as exc:  # Overflow: an int beyond float
            ctx.error(loc, f"{where}: {exc}")
            return _BAD
        if isinstance(value, float) and not math.isfinite(value):
            ctx.error(loc, f"{where}: must be finite, got {value!r}")
            return _BAD
        return value
    if isinstance(kind, _Table):
        return _read_table(ctx, kind, v, where, loc)
    if isinstance(kind, (_OneOf, _MapOf)) and not isinstance(v, dict):
        ctx.error(loc, f"{where}: expected a mapping, got {type(v).__name__}")
        return _BAD
    if isinstance(kind, _OneOf):
        if kind.tag not in v:
            ctx.error(_loc(v), f"{where}: missing required field {kind.tag!r}")
            return _BAD
        table = kind.tables.get(v[kind.tag]) if isinstance(v[kind.tag], str) else None
        if table is None:
            ctx.error(_loc(v), f"{where}.{kind.tag}: unknown {kind.tag} {v[kind.tag]!r}")
            return _BAD
        return _read_table(ctx, table, v, where, loc, tag=kind.tag)
    if isinstance(kind, _MapOf):
        # a bad item stays _BAD in place, so _classifier_refs still checks the others
        return {
            name: _read_table(ctx, kind.item, x, f"{where}.{name}", _loc(v), name=name)
            for name, x in v.items()
            if name != _LOC
        }
    # _ListOf
    if not isinstance(v, list) or not v:
        ctx.error(loc, f"{where}: expected a non-empty list")
        return _BAD
    items = [_read_value(ctx, kind.item, x, loc, _item_name(where, i, x)) for i, x in enumerate(v)]
    return _BAD if any(x is _BAD for x in items) else tuple(items)


def _item_name(where: str, i: int, raw) -> str:
    """A list item's label; an item with a string id carries it, as in nodes[3] (l1t)."""
    item_id = raw.get("id") if isinstance(raw, dict) else None
    return f"{where}[{i}] ({item_id})" if isinstance(item_id, str) else f"{where}[{i}]"


def _read_fields(ctx: _Ctx, table: _Table, mapping: dict, where: str, tag=None, parent=None):
    """(constructor keywords, whether every field read) for a mapping.

    Reports unknown and missing keys and one problem per bad field, which is
    left out of the keywords.  An empty `where` reads the file itself.
    parent is an extends parent's _parsed_parent entry when mapping is
    merged over it: a field whose value is the parent's own object is built
    from there once (see the module notes).
    """
    loc = _loc(mapping)
    allowed = table.keys if tag is None else table.keys | {tag}
    ok = _check_fields(ctx, mapping, where or "config", allowed, table.required)
    prefix = f"{where}." if where else ""
    inherited, built = parent if parent is not None else ({}, None)
    kwargs = {}
    for f in table.fields:
        shared = (
            built is not None
            and f.kind is not _REPORT
            and f.key in mapping
            and mapping[f.key] is inherited.get(f.key, _BAD)
        )
        if shared and f.key in built:
            value = built[f.key]
        elif f.key not in mapping:
            value = f.default
        else:
            problems = len(ctx.errors)
            value = _read_value(ctx, f.kind, mapping[f.key], loc, prefix + f.key)
            if value is not _BAD and f.minimum is not None and value < f.minimum:
                ctx.error(loc, f"{prefix}{f.key}: must be >= {f.minimum}, got {value!r}")
                value = _BAD
            if shared and len(ctx.errors) == problems:
                built[f.key] = value
        if value is _BAD:
            ok = False
        elif f.arg is not None and value is not None:  # None: the constructor's default
            kwargs[f.arg or f.key] = value
    return kwargs, ok


def _read_table(ctx: _Ctx, table: _Table, mapping, where: str, loc: str, tag=None, **fixed):
    """Check a mapping against a table and build its object.

    Only a mapping whose every field read is built, so a bad field never
    causes a follow-on error from a stand-in value.
    """
    if not isinstance(mapping, dict):
        ctx.error(loc, f"{where}: expected a mapping, got {type(mapping).__name__}")
        return _BAD
    kwargs, ok = _read_fields(ctx, table, mapping, where, tag)
    if not ok:
        return _BAD
    try:
        return table.build(**fixed, **kwargs)
    except ValueError as exc:
        ctx.error(_loc(mapping), f"{where}: {exc}")
        return _BAD


def _classifier_refs(ctx: _Ctx, raw_nodes, menus) -> list[tuple[str, str]]:
    """(node id, menu name) per process node naming a menu; checks each name.

    Walks the nodes as written, so a node with another bad field still has
    its menu checked.  A stage role needs the menu mode _STAGE_MODES gives.
    """
    menus = menus if isinstance(menus, dict) else {}
    refs = []
    for i, raw in enumerate(raw_nodes if isinstance(raw_nodes, list) else ()):
        if not isinstance(raw, dict) or raw.get("kind") != "process":
            continue
        name = raw.get("classifier")
        if not isinstance(name, str) or not name:
            continue  # absent, or already reported by the node's table
        where = f"{_item_name('nodes', i, raw)}.classifier"
        if name not in menus:
            ctx.error(_loc(raw), f"{where}: menu {name!r} is not defined under calibration.menus")
            continue
        refs.append((raw.get("id"), name))
        role = raw.get("role")
        if isinstance(role, str) and role in _STAGE_MODES and menus[name] is not _BAD:
            mode, stage = _STAGE_MODES[role]
            if menus[name].mode != mode:
                ctx.error(_loc(raw), f"{where}: {stage} menu {name!r} must use {mode} scores")
    return refs


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


# The file itself; classifier_refs and source_path come from outside the table,
# and the four defaults are for ModelConfig fields that have none.
_CONFIG = _Table(ModelConfig, (
    _Field("schema_version", None, required=True),  # see _build_config
    _Field("description", "text"),
    _Field("seeds", _SEEDS, default={}),
    _Field("conditions", _CONDITIONS, required=True),
    _Field("era", _ERA, default=TechnologyEra(year=2024, efficiency_factor=1.0)),
    _Field("variants", _VARIANTS, default=VariantConfig()),
    _Field("calibration", _CALIBRATION, arg="menus", default={}),
    _Field("nodes", _ListOf(_NODE), required=True),
    _Field("links", _ListOf(_LINK), required=True),
    _Field("sweep", _SWEEP),
    _Field("report", _REPORT),
))


def _build_config(
    data: dict, base_dir: Path | None, source: str | None, parent: tuple | None
) -> ModelConfig:
    ctx = _Ctx(base_dir)
    kwargs, _ = _read_fields(ctx, _CONFIG, data, "", parent=parent)
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        ctx.error(_loc(data), f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    refs = _classifier_refs(ctx, data.get("nodes"), kwargs.get("menus"))
    ctx.fail_if_errors()
    return _CONFIG.build(**kwargs, classifier_refs=dict(refs), source_path=source)


def _read_text(path: Path, missing: str, unreadable: str) -> str:
    """The file's text as UTF-8 (YAML's encoding); `missing` or `unreadable` if it has none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(missing) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{unreadable}: not UTF-8 (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None
    except OSError as exc:
        raise ConfigError(f"{unreadable}: {exc.strerror or type(exc).__name__}") from None


def _resolve_extends(data: dict, base_dir: Path | None, filename: str):
    """(the merged data, the parent's _parsed_parent entry or None)."""
    ref = data.pop("extends", None)
    if ref is None:
        return data, None
    if not isinstance(ref, str):
        raise ConfigError(f"{filename}: extends must be a path string, got {ref!r}")
    if base_dir is None:
        raise ConfigError(f"{filename}: extends needs a file-based config to resolve against")
    parent_path = base_dir / ref
    missing = f"{filename}: extended config not found: {ref}"
    text = _read_text(parent_path, missing, f"{filename}: cannot read extended config {ref}")
    parent = _parsed_parent(text, parent_path.name)
    if "extends" in parent[0]:
        raise ConfigError(
            f"{filename}: extends chains are limited to one level, "
            f"but {parent_path.name} itself extends another config"
        )
    return _merge(parent[0], data), parent


def load_config(path) -> ModelConfig:
    """Parse a .cfg file into a ModelConfig, resolving a single extends level."""
    p = Path(path)
    text = _read_text(p, f"config file not found: {path}", f"cannot read config file {path}")
    data, parent = _resolve_extends(_load_yaml(text, p.name), p.parent, p.name)
    return _build_config(data, base_dir=p.parent, source=str(p), parent=parent)


def parse_config(text: str, *, base_dir=None, filename: str = "<config>") -> ModelConfig:
    """Parse config text directly; extends resolves against base_dir if given."""
    base = Path(base_dir) if base_dir is not None else None
    data, parent = _resolve_extends(_load_yaml(text, filename), base, filename)
    return _build_config(data, base_dir=base, source=None, parent=parent)

