"""Command-line interface: exit codes, output files, formats."""

import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import daqflow
from daqflow.cli import main
from daqflow.config import load_config
from daqflow.energy import build_ledger, energy_balance
from daqflow.errors import ModelError
from daqflow.scenario import CSV_COLUMNS, evaluate, sweep

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"

# the CSV headers, in order
ROW_COLUMNS = [
    "pileup", "reduction_ratio", "skill", "variant", "power_w", "precision", "recall", "f1",
    "output_rate_hz", "productivity_per_kj", "error",
]
COSTS_HEADER = ["e_tp_j", "e_tn_j", "e_fp_j", "e_fn_j", "tn_tp_ratio", "degenerate"]

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
        (_summed_menu(21), "ValueError: summed mode enumerates 2^k - 1 subsets; menu too large"),
    ],
    ids=["pileup_1e300", "summed_menu_21_paths"],
)
def test_model_failures_end_as_one_error_line(tmp_path, capsys, body, cause):
    assert main(["run", str(_extending_base(tmp_path, body))]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: {cause}")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            FULL.replace("role: l1t", "role: hlt").replace("mode: summed", "mode: one-at-a-time")
            + "variants: {gpu_hlt: {enabled: true}}\n",
            "gpu_hlt variant needs an hlt process node with unit_power_w set",
        ),
        (
            FULL.replace("    classifier: m\n    reduction_target: 4\n", "")
            + "variants: {l1_tracks: {enabled: true}}\n",
            "l1_tracks variant needs a classifying l1t node",
        ),
        (
            FULL.replace("role: l1t", "role: inner_tracker")
            + "variants: {smart_pixels: {enabled: true}}\n",
            "smart_pixels variant needs an inner_tracker sensor",
        ),
    ],
    ids=["gpu_hlt_without_unit_power", "l1_tracks_without_classifier", "smart_pixels_on_a_process"],
)
def test_a_variant_without_its_node_ends_as_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "variant.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("- schema_version\n- 1\n", "shape.cfg: top level must be a mapping"),
        ("extends: 5\nschema_version: 1\n", "shape.cfg: extends must be a path string, got 5"),
    ],
    ids=["top_level_list", "extends_number"],
)
def test_a_config_of_the_wrong_shape_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "shape.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("via_extends", [False, True], ids=["config", "extends_parent"])
def test_an_undecodable_config_exits_2(tmp_path, capsys, via_extends):
    path = tmp_path / "bytes.cfg"
    path.write_bytes(b"\xff")
    cause = "not UTF-8 (byte 0xff at offset 0)"
    message = f"cannot read config file {path}: {cause}"
    if via_extends:
        path = tmp_path / "child.cfg"
        path.write_text("extends: bytes.cfg\n")
        message = f"child.cfg: cannot read extended config bytes.cfg: {cause}"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize(
    "override, problem",
    [
        ("description: 5\n", "case.cfg:1: description: expected a string, got 5"),
        (
            "sweep: {variants: [5]}\n",
            "case.cfg:2: sweep.variants[0]: expected a variant name string, got 5",
        ),
        (
            "calibration: {menus: {l1_menu: {mode: 5}}}\n",
            "case.cfg:2: calibration.menus.l1_menu.mode: expected a non-empty string, got 5",
        ),
    ],
    ids=["description_number", "sweep_variant_number", "menu_mode_number"],
)
def test_a_non_string_in_a_text_field_is_a_located_error(tmp_path, capsys, override, problem):
    assert main(["validate", str(_extending_base(tmp_path, override))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid configuration (1 problem)",
        f"  at {problem}",
    ]


def test_a_fraction_in_an_integer_field_is_a_located_error(tmp_path, capsys):
    assert main(["validate", str(_extending_base(tmp_path, "seeds: {calibration: 1.5}\n"))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid configuration (1 problem)",
        "  at case.cfg:2: seeds.calibration: expected an integer, got 1.5",
    ]


def test_a_vanishing_turn_on_width_runs_with_an_empty_stderr(tmp_path, capsys):
    # (p - T)/w overflows for every sampled p off the threshold: the curve is a step
    paths = "".join(
        f'        - {{name: {name}, threshold: "{t} GeV", width: "{w} GeV", plateau: 0.95,'
        f' empirical_rate: "150 kHz", input_rate: "40 MHz"}}\n'
        for name, t, w in (("egamma", 30, "1.0e-310"), ("muon", 22, 2.2))
    )
    body = f"calibration:\n  menus:\n    l1_menu:\n      paths:\n{paths}"
    assert main(["run", str(_extending_base(tmp_path, body))]) == 0
    assert capsys.readouterr().err == ""


def test_a_summed_menu_with_nothing_above_threshold_is_one_error_line(tmp_path, capsys):
    # both paths fit exp(-lam * 500 GeV) == 0: no positive event can be drawn
    paths = "".join(
        f'        - {{name: {name}, threshold: "500 GeV", width: "15 GeV", plateau: 0.95,'
        f' empirical_rate: "{rate} Hz", input_rate: "100 kHz"}}\n'
        for name, rate in (("a", "3.25e-10"), ("b", "3.2e-10"))
    )
    body = f"calibration:\n  menus:\n    l1_menu:\n      mode: summed\n      paths:\n{paths}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(_extending_base(tmp_path, body))]) == 1
    assert caught == []
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: summed menu of paths 'a', 'b': no object can land above")


def test_a_non_boolean_variant_switch_is_a_located_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(
        f"extends: {CONFIG_DIR / 'cms_base.cfg'}\nvariants:\n  gpu_hlt:\n    enabled: 5\n"
    )
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid configuration (1 problem)",
        "  at bad.cfg:4: variants.gpu_hlt.enabled: expected true/false, got 5",
    ]


def test_sweep_without_a_sweep_section_exits_2(capsys):
    assert main(["sweep", str(CONFIG_DIR / "cms_run3.cfg")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: config has no sweep section"]


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


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_is_a_usage_error(command, capsys):
    for seed in ("-1", "-5"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(CONFIG_DIR / "cms_sweep.cfg"), "--seed", seed])
        assert exit_info.value.code == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err


def _key_paths(obj, prefix=()):
    """Every key and list index path in a parsed YAML document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _key_paths(v, prefix + (k,))


_BASE = yaml.safe_load((CONFIG_DIR / "cms_base.cfg").read_text())
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's is ~4x faster
_DELETE = object()
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(list(_key_paths(_BASE))),
        st.sampled_from(
            [_DELETE, None, 5, -1, "x", "", [], {}, [1], True, 1.0e300, 10**400, math.nan, "3 furlongs"]
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(_MUTATIONS)
# values the node pass must not hash or call .get on; nodes[7] is l1t
@example([(("nodes", 7, "role"), [1])])
@example([(("nodes", 7, "kind"), {})])
@example([(("nodes", 7, "classifier"), [1])])
@example([(("nodes", 7, "id"), []), (("nodes", 8), "x")])
@example([(("calibration", "menus", "l1_menu"), [1])])
@example([(("calibration",), None), (("nodes",), {})])
def test_validate_survives_mutated_configs(mutations):
    # each mutation deletes a key or overwrites a value of cms_base.cfg;
    # validate must end in a verdict (0) or a located config error (2)
    data = copy.deepcopy(_BASE)
    for path, value in mutations:
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "mutated.cfg"
        cfg_path.write_text(yaml.dump(data, Dumper=_DUMPER, sort_keys=False))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["validate", str(cfg_path)])
    assert code in (0, 2)


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


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout's daqflow."""
    src = str(Path(daqflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy_stats():
    # score families are closed forms in `math`, trigger rates and their fits
    # too, and nothing imports quadrature: scipy is a test-only dependency,
    # and importing scipy.stats would add about half a second to every
    # command's start-up.
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.special")
    probe = f"import sys, daqflow.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _fresh_python(probe) == "[]"


@pytest.mark.parametrize("command, cfg", [("run", "cms_run3.cfg"), ("report", "cms_tables.cfg")])
def test_bundled_runs_and_reports_load_no_scipy(command, cfg):
    # every bundled config calibrates empirical scores with math and numpy;
    # test_the_runtime_needs_no_scipy below also blocks scipy outright
    probe = (
        "import contextlib, io, sys\n"
        "from daqflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main([{command!r}, {str(CONFIG_DIR / cfg)!r}])\n"
        "print(code, [m for m in sys.modules if m.startswith('scipy')])"
    )
    assert _fresh_python(probe) == "0 []"


# Builds a fan-in graph shaped like perfbench's fanin_scale with parametric
# classifiers of each family, propagates, scores and prices it.
_FANIN_PROBE = """
from daqflow import energy, functions, graph, metrics
from daqflow.classifier import ClassifierModel, ParametricScores

def model(family, separation):
    return ClassifierModel(
        positive=ParametricScores(family, separation, 1.0),
        negative=ParametricScores(family, 0.0, 1.0),
    )

linear = functions.LinearFn(1.0)
for family in ("normal", "logistic", "uniform"):
    sensors = [
        graph.SensorNode(f"s{i}", sample_size=1e4, sample_rate=40e6, relevant_fraction=1e-4)
        for i in range(64)
    ]
    stages = [
        graph.ProcessNode("readout", complexity=functions.ConstantFn(0.0), energy_per_op=0.0,
                          output_size=linear, role="readout"),
        graph.ProcessNode("l1t", complexity=functions.LinearFn(25.0), energy_per_op=7.5e-12,
                          output_size=linear, role="l1t", classifier=model(family, 2.5),
                          reduction_target=400.0),
        graph.ProcessNode("hlt", complexity=functions.LinearFn(1e3), energy_per_op=20e-12,
                          output_size=linear, role="hlt", classifier=model(family, 2.0),
                          reduction_target=100.0),
    ]
    chain = ["readout", "l1t", "hlt", "storage"]
    links = [graph.CommLink(f"{s.id}_readout", s.id, "readout", 22e-12, 10.24e9) for s in sensors]
    links += [graph.CommLink(f"{a}_{b}", a, b, 25e-12, 100e9) for a, b in zip(chain, chain[1:])]
    g = graph.PipelineGraph(nodes=(*sensors, *stages, graph.OutputNode("storage")),
                            links=tuple(links))
    flows = graph.propagate_flows(g)
    metrics.score_system(g, flows)
    energy.error_costs(g, energy.build_ledger(g, flows), flows)
"""

# Runs with every scipy import failing: the package imports, runs the fan-in
# probe, and runs every bundled config, the bundled report, sweep and costs.
_NO_SCIPY_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None  # `import scipy` and its submodules now raise
from daqflow import cli
""" + _FANIN_PROBE + """
commands = [["run", cfg] for cfg in sorted(CONFIG_DIR.glob("*.cfg"))]
commands += [[command, CONFIG_DIR / cfg] for command, cfg in
             [("report", "cms_tables.cfg"), ("sweep", "cms_sweep.cfg"), ("costs", "cms_run3.cfg")]]
codes = set()
for command, cfg in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.add(cli.main([command, str(cfg)]))
print(len(commands), codes)
"""


def test_the_runtime_needs_no_scipy():
    probe = f"from pathlib import Path\nCONFIG_DIR = Path({str(CONFIG_DIR)!r})\n{_NO_SCIPY_PROBE}"
    runs = len(list(CONFIG_DIR.glob("*.cfg"))) + 3
    assert _fresh_python(probe) == f"{runs} {{0}}"


# A plain `import daqflow.cli` loads no numpy; with every numpy import failing
# after it, the fan-in probe runs and every bundled config validates.  numpy
# loads only when a trigger menu is sampled or a table is interpolated.
_NO_NUMPY_PROBE = """
import contextlib, io, sys
from daqflow import cli
loaded = "numpy" in sys.modules
sys.modules["numpy"] = None  # `import numpy` and its submodules now raise
""" + _FANIN_PROBE + """
codes = []
for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["validate", str(cfg)]))
print(loaded, len(codes), set(codes))
"""


def test_import_and_validate_need_no_numpy():
    probe = f"from pathlib import Path\nCONFIG_DIR = Path({str(CONFIG_DIR)!r})\n{_NO_NUMPY_PROBE}"
    configs = len(list(CONFIG_DIR.glob("*.cfg")))
    assert _fresh_python(probe) == f"False {configs} {{0}}"


def test_commands_import_only_what_they_run():
    # statistics serves only a parametric normal quantile and a process pool
    # only `sweep --jobs` > 1; no bundled run or report needs either
    probe = (
        "import contextlib, io, sys\n"
        "from daqflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['run', {str(CONFIG_DIR / 'cms_run3.cfg')!r}]),\n"
        f"             cli.main(['report', {str(CONFIG_DIR / 'cms_tables.cfg')!r}])]\n"
        "unused = ('statistics', 'concurrent.futures.process')\n"
        "print(codes, [m for m in unused if m in sys.modules])"
    )
    assert _fresh_python(probe) == "[0, 0] []"


def test_cli_and_a_numeric_run_load_no_exact_arithmetic():
    # only a ratio string such as "160/3" needs `fractions` (and the `decimal`
    # it imports); cms_run3.cfg writes its reductions as numbers
    probe = (
        "import contextlib, io, sys\n"
        "from daqflow import cli\n"
        "exact = ('fractions', 'decimal')\n"
        "after_import = [m for m in exact if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['run', {str(CONFIG_DIR / 'cms_run3.cfg')!r}])\n"
        "print(after_import, code, [m for m in exact if m in sys.modules])"
    )
    assert _fresh_python(probe) == "[] 0 []"


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader goes away before the first line: `daqflow run ... | true`
    src = str(Path(daqflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = str(CONFIG_DIR / "cms_run3.cfg")
    proc = subprocess.Popen(
        [sys.executable, "-m", "daqflow.cli", "run", cfg],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_broken_pipe_is_reported(tmp_path, monkeypatch, capsys, fmt):
    # `--out` naming a FIFO whose reader left: an error on stderr, not the
    # silent exit that a closed stdout gets
    real_open = Path.open

    def broken_open(self, mode="r", *args, **kwargs):
        if "w" in mode:
            raise BrokenPipeError(32, "Broken pipe")
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", broken_open)
    target = tmp_path / f"out.{fmt}"
    cfg = str(CONFIG_DIR / "cms_run3.cfg")
    for command in ("run", "costs"):
        assert main([command, cfg, "--out", str(target), "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: cannot write {target}: Broken pipe\n"
        assert out.startswith("scenario: ")


@pytest.mark.parametrize("out", ["taken.csv", "afile/x.csv", "afile/dir"])
def test_unwritable_output_file_is_reported(tmp_path, capsys, out):
    # a directory where the file goes, or a file where a directory goes
    (tmp_path / "taken.csv").mkdir()
    (tmp_path / "afile").write_text("")
    target = tmp_path / out
    assert main(["sweep", str(CONFIG_DIR / "cms_sweep.cfg"), "--out", str(target)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot write {target}")


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


# 1e26 bit/s over 1e-291 bit/s lanes overflows the channel count
_THIN_CFG = (
    "schema_version: 1\n"
    "conditions: {pileup: 1}\n"
    "nodes:\n"
    '  - {kind: sensor, id: s, sample_size: "1.0e+20 bit", sample_rate: "1 MHz",'
    " relevant_fraction: 0.5}\n"
    "  - {kind: output, id: out}\n"
    "links:\n"
    '  - {id: thin, source: s, target: out, energy_per_bit: "1 pJ/bit",'
    ' bandwidth_per_channel: "1.0e-300 Gb/s"}\n'
)
_THIN_ERROR = (
    "link 'thin': channel demand is not finite (1e+26 bit/s over 1e-291 bit/s per channel)"
)


@pytest.mark.parametrize("form", [None, "csv", "json"])
def test_every_run_format_refuses_a_channel_demand_that_is_not_finite(
    form, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("DAQFLOW_OUT", raising=False)
    path = tmp_path / "thin.cfg"
    path.write_text(_THIN_CFG)
    out = tmp_path / "row.out"
    written = [] if form is None else ["--format", form, "--out", str(out)]
    assert main(["run", str(path), *written]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {_THIN_ERROR}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["thin.cfg"]
    with pytest.raises(ModelError, match=re.escape(_THIN_ERROR)):
        evaluate(load_config(path))


def test_a_sweep_point_whose_channel_demand_is_not_finite_carries_the_error(tmp_path):
    path = tmp_path / "thin.cfg"
    path.write_text(_THIN_CFG + "sweep: {pileup: [1, 2]}\n")
    rows = sweep(load_config(path))
    assert [row.error for row in rows] == [f"ModelError: {_THIN_ERROR}"] * 2
    assert all(row.power_w is None for row in rows)


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
    assert rows[0] == COSTS_HEADER
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


WRITER_CASES = {
    "run": ("cms_run3", ROW_COLUMNS),
    "costs": ("cms_run3", COSTS_HEADER),
    "sweep": ("cms_sweep", ROW_COLUMNS),
    "report": ("cms_tables", ["table", "label", *ROW_COLUMNS]),
}


def _expected_records(command, load_fixture, eval_fixture, sweep_rows_pair):
    """The records a command writes, built in process from evaluate and sweep."""
    if command == "run":
        return [eval_fixture("cms_run3").row.as_dict()]
    if command == "costs":
        return [eval_fixture("cms_run3").costs.as_dict()]
    if command == "sweep":
        return [row.as_dict() for row in sweep_rows_pair[0]]
    return [
        {"table": table.title, "label": spec.label,
         **eval_fixture(Path(spec.config_path).stem).row.as_dict()}
        for table in load_fixture("cms_tables").report.tables
        for spec in table.rows
    ]


def test_the_row_columns_are_the_result_row_fields():
    assert CSV_COLUMNS == tuple(ROW_COLUMNS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(WRITER_CASES))
def test_every_command_writes_its_records(
    command, fmt, tmp_path, capsys, load_fixture, eval_fixture, sweep_rows_pair
):
    name, header = WRITER_CASES[command]
    out = tmp_path / f"out.{fmt}"
    cfg = str(CONFIG_DIR / f"{name}.cfg")
    assert main([command, cfg, "--format", fmt, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"wrote {out}"
    assert (lines[-2] == "") == (command == "report")  # report's tables end in a blank line
    expected = _expected_records(command, load_fixture, eval_fixture, sweep_rows_pair)
    assert all(list(record) == header for record in expected)
    if fmt == "csv":
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert rows[1:] == [
            ["" if v is None else str(v) for v in record.values()] for record in expected
        ]
        return
    text = out.read_text()
    assert text.endswith("}\n")
    payload = json.loads(text)
    if command == "run":
        assert set(payload) == {
            "config", "row", "score", "costs", "storage_rate_bit_s", "nodes", "edges",
        }
        assert payload["row"] == expected[0]
        assert list(payload["row"]) == header
    elif command == "costs":
        assert payload == expected[0]
        assert list(payload) == header
    else:
        assert payload == {"rows": expected}
        assert [list(row) for row in payload["rows"]] == [header] * len(expected)


def test_a_failed_sweep_point_is_blank_in_print_and_csv(tmp_path, capsys):
    cfg = _extending_base(tmp_path, "sweep: {pileup: [60, 1.0e+300], skill: [1.0]}\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    header, ok, failed, note, wrote = capsys.readouterr().out.splitlines()
    assert note == "(1 of 2 points failed; see the error column)"
    assert wrote == f"wrote {out}"
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    assert header.split() == ROW_COLUMNS

    def cells(line):
        return [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]

    rows = sweep(load_config(cfg))
    assert cells(ok) == [
        f"{v:.6g}" if isinstance(v, float) else str(v) for v in rows[0].as_dict().values()
    ]
    assert cells(failed)[:4] == ["1e+300", "", "1", "config"]
    assert cells(failed)[4:-1] == [""] * 6
    assert cells(failed)[-1].startswith("ModelError: OverflowError: ")
    with out.open(newline="") as fh:
        written = list(csv.reader(fh))
    assert written[1:] == [
        ["" if v is None else str(v) for v in row.as_dict().values()] for row in rows
    ]
    assert written[2][1:10] == ["", "1.0", "config", "", "", "", "", "", ""]


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
