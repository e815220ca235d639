"""The README's examples against what the code prints.

Each value the README shows is compared at the digits it prints; speed
figures are tied to BENCH files instead and are not checked here.
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
