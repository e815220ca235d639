"""The README's examples against what the code prints.

Each value the README shows is compared at the digits it prints, and its
`python` blocks run whole. Each speed figure in the performance table is
compared, at its printed digits, with the BENCH file value that its row
names.
"""

import json
import re
from pathlib import Path

import pytest

from daqflow.cli import main
from daqflow.config import load_config
from daqflow.scenario import evaluate

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_validate_example_shows_what_validate_prints(capsys, monkeypatch):
    examples = re.findall(r"^daqflow validate (\S+)\n# (.+)$", README, re.MULTILINE)
    assert examples
    monkeypatch.chdir(ROOT)  # the README's paths are relative to the checkout
    for path, shown in examples:
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.splitlines() == [shown]


def test_the_library_example_shows_the_values_evaluate_returns(monkeypatch):
    shown = re.findall(r"^print\(res\.row\.(\w+)\)\s+# (\d[\d.]*)\.\.\.$", README, re.MULTILINE)
    assert {name for name, _ in shown} == {"power_w", "productivity_per_kj"}
    monkeypatch.chdir(ROOT)
    row = evaluate(load_config("src/daqflow/configs/cms_run3.cfg")).row
    for name, digits in shown:
        assert repr(getattr(row, name)).startswith(digits), (name, getattr(row, name))


def test_the_python_blocks_run_whole_in_readme_order(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # Library use, then menu calibration, which reuses its `cfg`
    monkeypatch.chdir(ROOT)
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def _listed_keys(command, lead):
    # the backticked names in the README sentence that starts with `lead`
    # inside the `command` bullet of the command list
    bullet = re.search(rf"^- `{command}` .*?(?=^- |^$)", README, re.MULTILINE | re.DOTALL)
    assert bullet, command
    sentence = re.search(rf"{lead}[^.]*\.", " ".join(bullet.group().split()))
    assert sentence, (command, lead)
    return re.findall(r"`(\w+)`", sentence.group())


@pytest.mark.parametrize(
    ("command", "lead"),
    [("run", "JSON is one object with keys"), ("costs", "both with the keys")],
    ids=["run", "costs"],
)
def test_the_json_keys_listed_are_the_keys_written(command, lead, tmp_path, capsys):
    out = tmp_path / f"{command}.json"
    config = ROOT / "src" / "daqflow" / "configs" / "cms_run3.cfg"
    assert main([command, str(config), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _listed_keys(command, lead) == list(json.loads(out.read_text(encoding="utf-8")))


def test_the_sweep_and_report_columns_listed_are_the_keys_written(tmp_path, capsys):
    sweep_columns = _listed_keys("sweep", "CSV has one line per grid point, with the columns")
    report_lead = _listed_keys("report", "Its rows have the columns")  # then the sweep ones
    configs = ROOT / "src" / "daqflow" / "configs"
    for command, config, listed in [
        ("sweep", "cms_sweep.cfg", sweep_columns),
        ("report", "cms_tables.cfg", report_lead + sweep_columns),
    ]:
        out = tmp_path / f"{command}.json"
        assert main([command, str(configs / config), "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        assert rows and all(list(row) == listed for row in rows), (command, listed)


# a performance-table row: | what | figure unit | `BENCH_nn.json:key/path` |
_FIGURE_ROW = re.compile(r"^\| .+? \| (\d+\.\d+) (ms|s) \| `(BENCH_\d+\.json):([^`]+)` \|$", re.MULTILINE)


def test_each_speed_figure_is_the_bench_value_it_names():
    rows = _FIGURE_ROW.findall(README)
    assert len(rows) >= 9  # evaluate x3, a report row, two cold starts, three workloads
    for figure, unit, name, path in rows:
        assert re.search(rf"_{unit}(?![a-z])", path), (unit, path)  # the key names its unit
        value = json.loads((ROOT / name).read_text(encoding="utf-8"))
        for key in path.split("/"):
            value = value[key]
        digits = len(figure.partition(".")[2])
        assert f"{value:.{digits}f}" == figure, (name, path, value, figure)


def test_the_opening_milliseconds_claim_cites_the_table():
    claim = re.search(r"takes milliseconds(.*?)\(table below\)", " ".join(README.split()))
    assert claim
    cited = re.findall(r"(\d+\.\d+) ms", claim.group(1))
    table = {figure for figure, unit, _, _ in _FIGURE_ROW.findall(README) if unit == "ms"}
    assert cited and set(cited) <= table, (cited, table)
