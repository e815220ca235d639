"""Command-line interface: exit codes, output files, formats."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import daqflow
from daqflow.cli import COSTS_COLUMNS, main
from daqflow.config import load_config
from daqflow.energy import build_ledger, energy_balance
from daqflow.scenario import CSV_COLUMNS, evaluate

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"

# small sample_count keeps the menu fit cheap; the node roles make the
# skill axis and variant machinery reachable
FULL = """\
schema_version: 1
conditions: {pileup: 1}
nodes:
  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 MHz", relevant_fraction: 0.3}
  - kind: process
    id: sel
    role: l1t
    complexity: {form: linear, slope: 2}
    energy_per_op: "10 pJ/op"
    output_size: {form: linear, slope: 1}
    classifier: m
    reduction_target: 4
  - {kind: output, id: out}
links:
  - {id: a, source: s, target: sel, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
  - {id: b, source: sel, target: out, energy_per_bit: "1 pJ/bit", bandwidth_per_channel: "1 Gb/s"}
calibration:
  menus:
    m:
      mode: summed
      sample_count: 1000
      paths:
        - {name: x, threshold: "30 GeV", width: "2 GeV", plateau: 0.95, empirical_rate: "10 kHz", input_rate: "40 MHz"}
sweep:
  skill: [1.0, 1.1]
"""


@pytest.fixture()
def full_cfg(tmp_path):
    p = tmp_path / "full.cfg"
    p.write_text(FULL)
    return p


def test_validate_reports_ok(capsys):
    assert main(["validate", str(CONFIG_DIR / "cms_run3.cfg")]) == 0
    out = capsys.readouterr().out
    assert ": OK (" in out and "2 classifiers" in out


def test_validate_rejects_broken_topology(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "schema_version: 1\n"
        "conditions: {pileup: 1}\n"
        "nodes:\n"
        '  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz"}\n'
        "  - {kind: output, id: out}\n"
        "links:\n"
        '  - {id: a, source: s, target: ghost, energy_per_bit: "1 pJ/bit",'
        ' bandwidth_per_channel: "1 Gb/s"}\n'
    )
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid graph" in err and "ghost" in err


def test_validate_rejects_a_role_held_by_two_nodes(tmp_path, capsys):
    path = tmp_path / "two_l1t.cfg"
    path.write_text(
        FULL.replace(
            "  - {kind: output, id: out}\n",
            "  - {kind: process, id: sel2, role: l1t, complexity: {form: constant, value: 1},"
            ' energy_per_op: "1 pJ/op", output_size: {form: linear, slope: 1}}\n'
            "  - {kind: output, id: out}\n",
        ).replace(
            "  - {id: b, source: sel, target: out,",
            "  - {id: c, source: sel2, target: out, energy_per_bit: \"1 pJ/bit\","
            " bandwidth_per_channel: \"1 Gb/s\"}\n"
            "  - {id: b, source: sel, target: sel2,",
        )
    )
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid graph" in err and "role 'l1t' is assigned to multiple nodes" in err


def test_zero_power_law_reference_is_a_located_error(tmp_path, capsys):
    # graph validation evaluates complexity at x = 0, which divides by the reference
    good = 'reference: "16000000 bit"'
    lines = (CONFIG_DIR / "cms_base.cfg").read_text().splitlines()
    [lineno] = [i for i, line in enumerate(lines, 1) if good in line]
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines).replace(good, 'reference: "0 bit"') + "\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{lineno}" in err and "reference must be finite and positive" in err


def test_validate_rejects_a_dip_between_table_knots(tmp_path, capsys):
    # the dip lies between any two points of a coarse sample over [0, 1e9]
    good = "complexity: {form: linear, slope: 25}"
    dip = "complexity: {form: table, xs: [0, 1.0e+6, 2.0e+6], ys: [0, 1.0e+10, 0]}"
    text = (CONFIG_DIR / "cms_base.cfg").read_text()
    assert text.count(good) == 1
    bad = tmp_path / "dip.cfg"
    bad.write_text(text.replace(good, dip))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "process 'l1t': complexity must be nonnegative and nondecreasing" in err


def test_validate_judges_a_table_from_x_0_up(tmp_path, capsys):
    # ys[0] < 0 sits at x = -5 bit, left of every input size the graph can carry
    good = "complexity: {form: linear, slope: 25}"
    below = 'complexity: {form: table, xs: ["-5 bit", "10 bit"], ys: [-1, 250]}'
    path = tmp_path / "below.cfg"
    path.write_text((CONFIG_DIR / "cms_base.cfg").read_text().replace(good, below))
    assert main(["validate", str(path)]) == 0
    assert ": OK (" in capsys.readouterr().out


def _extending_base(tmp_path, body: str) -> Path:
    path = tmp_path / "case.cfg"
    path.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\n{body}")
    return path


def _summed_menu(k: int) -> str:
    paths = "".join(
        f'        - {{name: p{i}, threshold: "{30 + i} GeV", width: "3 GeV", plateau: 0.95,'
        f' empirical_rate: "5 kHz", input_rate: "40 MHz"}}\n'
        for i in range(k)
    )
    return (
        "calibration:\n  menus:\n    l1_menu:\n      mode: summed\n"
        f"      sample_count: 1000\n      paths:\n{paths}"
    )


@pytest.mark.parametrize(
    "body, cause",
    [
        ("conditions: {pileup: 1.0e+300}\n", "OverflowError"),
        (_summed_menu(21), "ValueError: summed mode enumerates"),
    ],
    ids=["pileup_1e300", "summed_menu_21_paths"],
)
def test_model_failures_end_as_one_error_line(tmp_path, capsys, body, cause):
    assert main(["run", str(_extending_base(tmp_path, body))]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: {cause}")


def test_a_reduction_target_past_double_precision_is_named(tmp_path, capsys):
    # 1 - 1/R rounds to 1 for R above ~1.8e16: the error names the target the
    # user set, not the rejection fraction derived from it
    cfg_path = _extending_base(tmp_path, "conditions: {l1_reduction: 1.0e+17}\n")
    assert main(["run", str(cfg_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert "node 'l1t'" in line and "reduction target 1e+17" in line


def test_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(CONFIG_DIR / "cms_sweep.cfg"), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err


def test_skill_zero_runs_and_meets_the_audit_identities(tmp_path, capsys):
    cfg_path = _extending_base(
        tmp_path, "variants: {l1_tracks: {enabled: true, skill_factor: 0.0}}\n"
    )
    out = tmp_path / "run.json"
    assert main(["run", str(cfg_path), "--format", "json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["row"]

    res = evaluate(load_config(cfg_path))
    assert row == res.row.as_dict()
    assert row["skill"] == 0.0 and row["error"] == ""
    numbers = [v for v in row.values() if isinstance(v, float)]
    assert len(numbers) == 9 and all(map(math.isfinite, numbers))
    # productivity = rate / power * f1
    assert row["productivity_per_kj"] == pytest.approx(
        row["output_rate_hz"] / row["power_w"] * row["f1"] * 1e3, rel=1e-9
    )
    # tp + fp = incoming rate / reduction at every classifier
    a = res.assignment
    for nid, cm in a.confusions.items():
        target = res.graph.node(nid).reduction_target
        assert cm.tp + cm.fp == pytest.approx(a.node_inputs[nid].rate / target, rel=1e-9)
    assert len(a.confusions) == 2
    # energy balance = total power
    ledger = build_ledger(res.graph, a)
    assert energy_balance(res.graph, ledger, a) == pytest.approx(row["power_w"], rel=1e-9)


@pytest.mark.parametrize(
    "written, advised", [("1e2", "1.0e+2"), ("1.5e3", "1.5e+3"), ("4E-2", "4.0e-2")]
)
def test_exponent_numbers_read_as_text_are_located_errors_with_advice(
    tmp_path, capsys, written, advised
):
    # YAML 1.1 reads an exponent number as a float only with a decimal point
    # and a signed exponent; the advised spelling must read as the same float
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"extends: {CONFIG_DIR / 'cms_base.cfg'}\nconditions: {{pileup: {written}}}\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and f"expected a number, got '{written}'" in err
    assert f"write {advised}" in err
    assert yaml.safe_load(f"x: {advised}") == {"x": float(written)}


def test_cli_import_does_not_load_scipy_stats():
    # score families are closed forms over scipy.special; importing
    # scipy.stats would add about half a second to every command's start-up.
    # Calibration imports quadrature and root finding only when it fits, so
    # `validate` and graph-only work never pay for them either.
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    src = str(Path(daqflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"import sys, daqflow.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_missing_and_malformed_configs_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err

    garbled = tmp_path / "garbled.cfg"
    garbled.write_text("nodes: [unclosed\n")
    assert main(["validate", str(garbled)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_csv(full_cfg, tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(["run", str(full_cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "productivity" in stdout and f"wrote {out}" in stdout
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    by_col = dict(zip(rows[0], rows[1]))
    assert float(by_col["power_w"]) > 0
    assert by_col["error"] == ""


def test_run_json_payload(full_cfg, tmp_path):
    out = tmp_path / "row.json"
    assert main(["run", str(full_cfg), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "config", "row", "score", "costs", "storage_rate_bit_s", "nodes", "edges",
    }
    assert set(payload["row"]) == set(CSV_COLUMNS)
    sel = next(n for n in payload["nodes"] if n["node"] == "sel")
    assert {"tp_hz", "fp_hz", "tn_hz", "fn_hz", "threshold", "boundary_keep"} <= set(sel)
    for edge in payload["edges"]:
        assert edge["required_channels"] >= 1
    out_edge = next(e for e in payload["edges"] if e["target"] == "out")
    assert out_edge["rate_hz"] == pytest.approx(1e6 / 4.0, rel=1e-9)
    assert payload["storage_rate_bit_s"] == pytest.approx(out_edge["rate_hz"] * 1000.0)


def test_seeded_runs_are_reproducible(full_cfg, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["run", str(full_cfg), "--format", "json", "--out", str(a), "--seed", "7"]) == 0
    assert main(["run", str(full_cfg), "--format", "json", "--out", str(b), "--seed", "7"]) == 0
    assert main(["run", str(full_cfg), "--format", "json", "--out", str(c), "--seed", "8"]) == 0
    assert a.read_text() == b.read_text()
    assert json.loads(a.read_text())["row"] != json.loads(c.read_text())["row"]


def test_sweep_default_filename_in_directory(full_cfg, tmp_path, capsys):
    outdir = tmp_path / "results"
    assert main(["sweep", str(full_cfg), "--out", str(outdir)]) == 0
    target = outdir / "full_sweep.csv"
    assert target.is_file()
    with target.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3  # two skill points
    assert {r[2] for r in rows[1:]} == {"1.0", "1.1"}
    assert all(r[-1] == "" for r in rows[1:])


def test_out_falls_back_to_environment(full_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DAQFLOW_OUT", str(tmp_path / "envdir"))
    assert main(["run", str(full_cfg)]) == 0
    assert (tmp_path / "envdir" / "full_run.csv").is_file()


def test_costs_csv(full_cfg, tmp_path):
    out = tmp_path / "costs.csv"
    assert main(["costs", str(full_cfg), "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(COSTS_COLUMNS)
    values = dict(zip(rows[0], rows[1]))
    assert float(values["e_fp_j"]) == pytest.approx(
        float(values["e_tp_j"]) - float(values["e_tn_j"]), rel=1e-9
    )
    assert values["degenerate"] == "False"


def test_report_prefixes_table_and_label(tmp_path, capsys):
    mini = (
        "schema_version: 1\n"
        "conditions: {pileup: 1}\n"
        "nodes:\n"
        '  - {kind: sensor, id: s, sample_size: "1 kb", sample_rate: "1 kHz", relevant_fraction: 0.5}\n'
        "  - {kind: output, id: out}\n"
        "links:\n"
        '  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit",'
        ' bandwidth_per_channel: "1 Gb/s"}\n'
    )
    (tmp_path / "mini.cfg").write_text(mini)
    (tmp_path / "tables.cfg").write_text(
        mini
        + "report:\n"
        "  tables:\n"
        "    - title: T\n"
        "      rows:\n"
        "        - {label: A, config: mini.cfg}\n"
        "        - {label: B, config: mini.cfg}\n"
    )
    out = tmp_path / "report.csv"
    assert main(["report", str(tmp_path / "tables.cfg"), "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["table", "label"] + list(CSV_COLUMNS)
    assert [r[:2] for r in rows[1:]] == [["T", "A"], ["T", "B"]]

    # a config without a report section cannot be reported on
    assert main(["report", str(tmp_path / "mini.cfg")]) == 2


def test_strict_escalates_model_warnings(tmp_path, capsys):
    clamped = tmp_path / "clamped.cfg"
    clamped.write_text(
        "schema_version: 1\n"
        "conditions: {pileup: 200}\n"
        "nodes:\n"
        "  - kind: sensor\n"
        "    id: s\n"
        '    sample_size: "1 kb"\n'
        '    sample_rate: "1 kHz"\n'
        "    relevant_fraction: 0.5\n"
        "    pileup_scaling: {form: table, pileups: [50, 100], multipliers: [1, 2]}\n"
        "  - {kind: output, id: out}\n"
        "links:\n"
        '  - {id: a, source: s, target: out, energy_per_bit: "1 pJ/bit",'
        ' bandwidth_per_channel: "1 Gb/s"}\n'
    )
    with pytest.warns(daqflow.errors.ModelWarning):
        assert main(["run", str(clamped)]) == 0
    capsys.readouterr()
    assert main(["run", str(clamped), "--strict"]) == 1
    assert "error (strict)" in capsys.readouterr().err
