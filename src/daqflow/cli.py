"""Command-line front end.

Five subcommands: validate (parse + structural checks), run (one scenario),
sweep (the config's sweep grid), costs (per-error-class energy prices), and
report (evaluate the table layouts a config references).

Results print to stdout in human-readable form.  Each command turns its
results into records, plain dicts in column order, and one writer, _emit,
puts them in the --out file as CSV or JSON (--format).  When --out names a
directory, or is omitted but DAQFLOW_OUT is set, the file lands there under
a default name derived from the config and subcommand.  Exit codes: 0
success, 1 model error or an output file that cannot be written, 2 config
error; also 1, with no traceback, when stdout is closed before the output
ends (a reader such as `head` quit early).  --strict escalates model
warnings to errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DaqflowError, ModelWarning
from .graph import PipelineGraph, validate_graph
from .scenario import EvaluationResult, ResultRow, evaluate, sweep

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


def _int_from(low: int):
    """argparse type: an integer no smaller than low."""

    def read(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    read.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return read


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
        p.add_argument("--seed", type=_int_from(0), help="calibration seed override")
        p.add_argument(
            "--strict", action="store_true", help="treat model warnings as errors"
        )
        if jobs:
            p.add_argument("--jobs", type=_int_from(1), default=1, help="worker processes")

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
        return p
    return p / f"{Path(args.config).stem}_{command}.{args.format}"


@contextmanager
def _out_file(path: Path):
    """Open an output file for writing, making its directory; a failure is an error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DaqflowError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(args, command: str, records: list[dict], payload=None, lead: str = "") -> None:
    """Write the records to the --out target, if any, and print "wrote <target>".

    CSV: a header of the first record's keys, then one line per record, None
    written as "".  JSON: payload() if the command has one (built only when
    written), else {"rows": records}.  lead goes before "wrote".
    """
    target = _out_target(args, command)
    if target is None:
        return
    if args.format == "json":
        # built before the file is opened, so a failing payload leaves no file behind
        document = {"rows": records} if payload is None else payload()
        text = json.dumps(document, indent=2) + "\n"
    with _out_file(target) as fh:
        if args.format == "json":
            fh.write(text)
        else:
            writer = csv.writer(fh)
            writer.writerow(records[0])
            writer.writerows(["" if v is None else str(v) for v in r.values()] for r in records)
    print(f"{lead}wrote {target}")


def _print_table(records: list[dict]) -> None:
    """Print records as aligned columns: None blank, floats to 6 digits."""
    table = [list(records[0])] + [
        ["" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v) for v in r.values()]
        for r in records
    ]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(table[0]))]
    for cells in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())


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
                "required_channels": result.channels[link.id],
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
    _emit(args, "run", [result.row.as_dict()], payload=lambda: _run_json(result, args.config))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = sweep(cfg, jobs=args.jobs, seed=args.seed)
    records = [row.as_dict() for row in rows]
    _print_table(records)
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"({failed} of {len(rows)} points failed; see the error column)")
    _emit(args, "sweep", records)
    return 0


def _cmd_costs(args) -> int:
    cfg = load_config(args.config)
    result = evaluate(cfg, seed=args.seed)
    costs = result.costs
    print(f"scenario: {args.config}")
    print(f"  true positive:  {_si(costs.e_tp_j, 'J')}")
    print(f"  true negative:  {_si(costs.e_tn_j, 'J')}")
    print(f"  false positive: {_si(costs.e_fp_j, 'J')}")
    if costs.e_fn_j is None:
        print("  false negative: undefined (no true positives reach the output)")
    else:
        print(f"  false negative: {_si(costs.e_fn_j, 'J')}")
    _emit(args, "costs", [costs.as_dict()], payload=costs.as_dict)
    return 0


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    if cfg.report is None:
        raise ConfigError("config has no report section")
    records: list[dict] = []
    for table in cfg.report.tables:
        print(f"\n== {table.title} ==")
        table_records = []
        for row_spec in table.rows:
            row_cfg = load_config(row_spec.config_path)
            try:
                row = evaluate(row_cfg, seed=args.seed).row
            except DaqflowError as exc:
                row = ResultRow(
                    pileup=None, reduction_ratio=None, skill=None, variant="",
                    error=f"{type(exc).__name__}: {exc}",
                )
            table_records.append({"table": table.title, "label": row_spec.label, **row.as_dict()})
        _print_table(table_records)
        records.extend(table_records)
    _emit(args, "report", records, lead="\n")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with ExitStack() as stack:
            if getattr(args, "strict", False):
                stack.enter_context(warnings.catch_warnings())
                warnings.simplefilter("error", ModelWarning)
            status = args.func(args)
            sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
            return status
    except BrokenPipeError:
        # stdout's reader has gone (an output file's failure is reported as
        # an error by _out_file).  Python's documented idiom: point stdout at
        # devnull, so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE.  A stdout replaced in process is the caller's.
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
