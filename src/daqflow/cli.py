"""Command-line front end.

Five subcommands: validate (parse + structural checks), run (one scenario),
sweep (the config's sweep grid), costs (per-error-class energy prices), and
report (evaluate the table layouts a config references).

Results print to stdout in human-readable form; --out writes them to a file
as CSV or JSON (--format).  When --out names a directory, or is omitted but
DAQFLOW_OUT is set, the file lands there under a default name derived from
the config and subcommand.  Exit codes: 0 success, 1 model error, 2 config
error.  --strict escalates model warnings to errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from contextlib import ExitStack
from pathlib import Path

from .config import load_config
from .energy import ErrorCosts
from .errors import ConfigError, DaqflowError, ModelWarning
from .graph import PipelineGraph, required_channels, validate_graph
from .scenario import CSV_COLUMNS, EvaluationResult, ResultRow, evaluate, sweep

__all__ = ["main"]

_SI_STEPS = (
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
)


def _si(value: float, unit: str) -> str:
    if value == 0:
        return f"0 {unit}"
    mag = abs(value)
    for scale, prefix in _SI_STEPS:
        if mag >= scale:
            return f"{value / scale:.4g} {prefix}{unit}"
    return f"{value:.4g} {unit}"


COSTS_COLUMNS = ("e_tp_j", "e_tn_j", "e_fp_j", "e_fn_j", "tn_tp_ratio", "degenerate")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daqflow",
        description="analytical flow, power, and selection-quality model of "
        "trigger/data-acquisition pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, jobs: bool = False) -> None:
        p.add_argument("config", help="path to a .cfg file")
        p.add_argument("--out", help="output file or directory (default: $DAQFLOW_OUT if set)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument("--seed", type=int, default=None, help="calibration seed override")
        p.add_argument(
            "--strict", action="store_true", help="treat model warnings as errors"
        )
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")

    p_validate = sub.add_parser("validate", help="parse a config and check the graph")
    p_validate.add_argument("config", help="path to a .cfg file")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="evaluate one scenario")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate the config's sweep grid")
    common(p_sweep, jobs=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_costs = sub.add_parser("costs", help="per-error-class energy prices")
    common(p_costs)
    p_costs.set_defaults(func=_cmd_costs)

    p_report = sub.add_parser("report", help="evaluate the config's report tables")
    common(p_report)
    p_report.set_defaults(func=_cmd_report)

    return parser


def _out_target(args, command: str) -> Path | None:
    out = args.out if args.out is not None else os.environ.get("DAQFLOW_OUT")
    if not out:
        return None
    p = Path(out)
    if p.suffix.lower() in (".csv", ".json"):
        p.parent.mkdir(parents=True, exist_ok=True)
        return p
    p.mkdir(parents=True, exist_ok=True)
    return p / f"{Path(args.config).stem}_{command}.{args.format}"


def _write_rows(path: Path, rows: list[ResultRow], fmt: str, extra_cols=(), extras=None) -> None:
    if fmt == "json":
        payload = []
        for i, row in enumerate(rows):
            d = dict(zip(extra_cols, extras[i])) if extras else {}
            d.update(row.as_dict())
            payload.append(d)
        path.write_text(json.dumps({"rows": payload}, indent=2) + "\n")
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(extra_cols) + list(CSV_COLUMNS))
        for i, row in enumerate(rows):
            prefix = [str(v) for v in extras[i]] if extras else []
            writer.writerow(prefix + row.csv_fields())


def _print_rows(rows: list[ResultRow], extra_cols=(), extras=None) -> None:
    header = list(extra_cols) + list(CSV_COLUMNS)
    table = [header]
    for i, row in enumerate(rows):
        prefix = [str(v) for v in extras[i]] if extras else []
        fields = []
        for col in CSV_COLUMNS:
            v = getattr(row, col)
            if v is None:
                fields.append("")
            elif isinstance(v, float):
                fields.append(f"{v:.6g}")
            else:
                fields.append(str(v))
        table.append(prefix + fields)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    graph = PipelineGraph(nodes=cfg.nodes, links=cfg.links)
    report = validate_graph(graph, classifier_ids=set(cfg.classifier_refs))
    if report.ok:
        n_cls = len(cfg.classifier_refs)
        print(
            f"{args.config}: OK ({len(cfg.nodes)} nodes, {len(cfg.links)} links, "
            f"{n_cls} classifier{'s' if n_cls != 1 else ''})"
        )
        return 0
    print(f"{args.config}: invalid graph", file=sys.stderr)
    print(str(report), file=sys.stderr)
    return 2


def _run_json(result: EvaluationResult, cfg_path: str) -> dict:
    graph = result.graph
    assignment = result.assignment
    edges = []
    for link in graph.links:
        flow = assignment.flows[link.id]
        edges.append(
            {
                "link": link.id,
                "source": link.source,
                "target": link.target,
                "rate_hz": flow.rate,
                "size_bits": flow.size,
                "n_true_hz": flow.n_true,
                "n_false_hz": flow.n_false,
                "power_w": assignment.link_powers[link.id],
                "required_channels": required_channels(link, flow),
            }
        )
    nodes = []
    for node in graph.nodes:
        entry: dict = {"node": node.id, "power_w": assignment.node_powers[node.id]}
        cm = assignment.confusions.get(node.id)
        if cm is not None:
            op = assignment.operating_points[node.id]
            entry.update(
                {
                    "tp_hz": cm.tp,
                    "fp_hz": cm.fp,
                    "tn_hz": cm.tn,
                    "fn_hz": cm.fn,
                    "threshold": op.threshold,
                    "boundary_keep": op.boundary_keep,
                }
            )
        nodes.append(entry)
    return {
        "config": cfg_path,
        "row": result.row.as_dict(),
        "score": result.score.as_dict(),
        "costs": result.costs.as_dict(),
        "storage_rate_bit_s": assignment.storage_rate,
        "nodes": nodes,
        "edges": edges,
    }


def _print_run(result: EvaluationResult, cfg_path: str) -> None:
    score = result.score
    assignment = result.assignment
    row = result.row
    node_w = sum(assignment.node_powers.values())
    link_w = sum(assignment.link_powers.values())
    print(f"scenario: {cfg_path}")
    print(
        f"  conditions: pileup {row.pileup:g}, reduction "
        f"{'-' if row.reduction_ratio is None else f'{row.reduction_ratio:g}'}, "
        f"skill {row.skill:g}, variants {row.variant}"
    )
    print(
        f"  power: {_si(score.total_power_w, 'W')} "
        f"(nodes {_si(node_w, 'W')}, links {_si(link_w, 'W')})"
    )
    print(
        f"  output: {_si(score.output_rate_hz, 'Hz')}, storage "
        f"{_si(assignment.storage_rate, 'bit/s')}"
    )
    quality = (
        f"  quality: precision {score.precision:.4f}, recall {score.recall:.4f}, "
        f"f1 {score.f1:.4f}"
    )
    if score.degenerate:
        quality += "  [degenerate: no relevant messages survive]"
    print(quality)
    print(f"  productivity: {row.productivity_per_kj:.6g} /kJ")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = evaluate(cfg, seed=args.seed)
    _print_run(result, args.config)
    target = _out_target(args, "run")
    if target is not None:
        if args.format == "json":
            target.write_text(json.dumps(_run_json(result, args.config), indent=2) + "\n")
        else:
            _write_rows(target, [result.row], "csv")
        print(f"wrote {target}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = sweep(cfg, jobs=args.jobs, seed=args.seed)
    _print_rows(rows)
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"({failed} of {len(rows)} points failed; see the error column)")
    target = _out_target(args, "sweep")
    if target is not None:
        _write_rows(target, rows, args.format)
        print(f"wrote {target}")
    return 0


def _cmd_costs(args) -> int:
    cfg = load_config(args.config)
    result = evaluate(cfg, seed=args.seed)
    costs: ErrorCosts = result.costs
    print(f"scenario: {args.config}")
    print(f"  true positive:  {_si(costs.e_tp_j, 'J')}")
    print(f"  true negative:  {_si(costs.e_tn_j, 'J')}")
    print(f"  false positive: {_si(costs.e_fp_j, 'J')}")
    if costs.e_fn_j is None:
        print("  false negative: undefined (no true positives reach the output)")
    else:
        print(f"  false negative: {_si(costs.e_fn_j, 'J')}")
    target = _out_target(args, "costs")
    if target is not None:
        if args.format == "json":
            target.write_text(json.dumps(costs.as_dict(), indent=2) + "\n")
        else:
            with target.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(COSTS_COLUMNS)
                writer.writerow(
                    ["" if getattr(costs, c) is None else str(getattr(costs, c)) for c in COSTS_COLUMNS]
                )
        print(f"wrote {target}")
    return 0


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    if cfg.report is None:
        raise ConfigError("config has no report section")
    all_rows: list[ResultRow] = []
    extras: list[tuple[str, str]] = []
    for table in cfg.report.tables:
        print(f"\n== {table.title} ==")
        table_rows = []
        table_extras = []
        for row_spec in table.rows:
            row_cfg = load_config(row_spec.config_path)
            try:
                result = evaluate(row_cfg, seed=args.seed)
                row = result.row
            except DaqflowError as exc:
                row = ResultRow(
                    pileup=None, reduction_ratio=None, skill=None, variant="",
                    error=f"{type(exc).__name__}: {exc}",
                )
            table_rows.append(row)
            table_extras.append((table.title, row_spec.label))
        _print_rows(table_rows, extra_cols=("table", "label"), extras=table_extras)
        all_rows.extend(table_rows)
        extras.extend(table_extras)
    target = _out_target(args, "report")
    if target is not None:
        _write_rows(target, all_rows, args.format, extra_cols=("table", "label"), extras=extras)
        print(f"\nwrote {target}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with ExitStack() as stack:
            if getattr(args, "strict", False):
                stack.enter_context(warnings.catch_warnings())
                warnings.simplefilter("error", ModelWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModelWarning as exc:
        print(f"error (strict): {exc}", file=sys.stderr)
        return 1
    except DaqflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
