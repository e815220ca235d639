"""Regenerate the bundled-output corpus in tests/golden/.

Not a test module (pytest collects only test_*.py): run it from the root of a
checkout,

    PYTHONPATH=src python tests/make_golden.py

It runs every case in CASES through `cli.main` in process and writes, per
case, a directory tests/golden/<case>/ holding `stdout`, `exit_code` and
every file the command wrote.  Paths are written as <configs> (the bundled
config directory) and <tmp> (the scratch directory that holds the generated
inputs and the out/ directory the command writes into), so the corpus does
not depend on where the checkout lives.  tests/test_golden.py runs the same
cases and compares.  A change that regenerates the corpus says which files
moved and why.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import daqflow
from daqflow import cli
from daqflow.errors import ModelWarning

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Generated inputs for the failing cases, written into the scratch directory.
# {base} is the bundled parent config.  A pile-up of 1e300 overflows the
# sensor payload, so those sweep points and that report row carry an error.
INPUTS = {
    "overflow_sweep.cfg": "extends: {base}\nsweep: {{pileup: [60, 1.0e+300], skill: [1.0, 1.2]}}\n",
    "overflow.cfg": "extends: {base}\nconditions: {{pileup: 1.0e+300}}\n",
    "quoted_report.cfg": (
        "extends: {base}\n"
        "report:\n"
        "  tables:\n"
        "    - title: 'Run 3, \"quoted\"'\n"
        "      rows:\n"
        "        - {{label: 'PU 60, \"400:1\"', config: {configs}/cms_run3.cfg}}\n"
        "        - {{label: 'overflow, \"1e300\"', config: overflow.cfg}}\n"
    ),
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, with <configs> and <tmp> standing for their directories."""
    cases = {}
    for fmt in ("csv", "json"):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            for command in ("run", "costs"):
                cases[f"{command}-{cfg.stem}-{fmt}"] = [command, f"<configs>/{cfg.name}"]
        cases[f"sweep-cms_sweep-{fmt}"] = ["sweep", "<configs>/cms_sweep.cfg"]
        cases[f"report-cms_tables-{fmt}"] = ["report", "<configs>/cms_tables.cfg"]
        cases[f"sweep-overflow-{fmt}"] = ["sweep", "<tmp>/overflow_sweep.cfg"]
        cases[f"report-quoted-{fmt}"] = ["report", "<tmp>/quoted_report.cfg"]
    return {name: argv + ["--format", name.rsplit("-", 1)[1], "--out", "<tmp>/out"]
            for name, argv in sorted(cases.items())}


CASES = _cases()


def run_case(argv: list[str]) -> dict[str, str]:
    """Run one case; return {"stdout": ..., "exit_code": ..., <written file>: ...}."""
    with tempfile.TemporaryDirectory() as tmp:
        base = str(CONFIG_DIR / "cms_base.cfg")
        for name, text in INPUTS.items():
            (Path(tmp) / name).write_text(text.format(base=base, configs=CONFIG_DIR))
        args = [a.replace("<configs>", str(CONFIG_DIR)).replace("<tmp>", tmp) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelWarning)  # stderr is not recorded
            code = cli.main(args)
        out = {"stdout": stdout.getvalue(), "exit_code": f"{code}\n"}
        for path in sorted(Path(tmp, "out").glob("*")):
            out[path.name] = path.read_bytes().decode()  # CSV rows end in \r\n
        return {
            name: text.replace(tmp, "<tmp>").replace(str(CONFIG_DIR), "<configs>")
            for name, text in out.items()
        }


def main() -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for name, argv in CASES.items():
        case_dir = GOLDEN / name
        case_dir.mkdir(parents=True)
        for file_name, text in run_case(argv).items():
            (case_dir / file_name).write_bytes(text.encode())
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
