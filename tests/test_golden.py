"""Bundled output against the committed corpus in tests/golden/.

Each case of make_golden.CASES runs through `cli.main` in process.  Its
stdout, exit code and written files must match the corpus: text and
integers exactly, floats to rel 1e-12 (the Run-3 pin tolerance), so a
platform whose `exp` differs in the last bits still passes.
`PYTHONPATH=src python tests/make_golden.py` regenerates the corpus.
"""

import math
import re

import pytest

from make_golden import CASES, GOLDEN, run_case

# a decimal literal: its digits, an optional fraction and an optional exponent
_NUMBER = re.compile(r"(\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _same_text(expected: str, actual: str) -> bool:
    """Equal outside numbers; integers equal, floats within rel 1e-12."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return False
    for i, (w, g) in enumerate(zip(want, got)):
        if i % 2 == 0 or w.isdigit() or g.isdigit():
            if w != g:
                return False
        elif not math.isclose(float(w), float(g), rel_tol=1e-12, abs_tol=0.0):
            return False
    return True


def test_the_corpus_holds_every_case_and_nothing_else():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
    size = sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file())
    assert size < 300_000


@pytest.mark.parametrize("case", list(CASES))
def test_bundled_output_matches_the_corpus(case):
    expected = {p.name: p.read_bytes().decode() for p in (GOLDEN / case).iterdir()}
    actual = run_case(CASES[case])
    assert sorted(actual) == sorted(expected)
    differ = [name for name in expected if not _same_text(expected[name], actual[name])]
    assert differ == [], f"{case}: {differ} differ from the corpus"


@pytest.mark.parametrize(
    "expected, actual, same",
    [
        ("power 292775.94678267883 W", "power 292775.94678267883 W", True),
        ("power 292775.94678267883 W", "power 292775.9467826790 W", True),  # rel ~6e-16
        ("power 292775.94678267883 W", "power 292775.946790 W", False),  # rel ~2e-11
        ("count 1000", "count 1001", False),
        ("count 1000", "count 1000.0", False),  # an integer printed as a float
        ('"variant": "none"', '"variant": "gpu"', False),
        ("a,1.5\r\n", "a,1.5\n", False),
        ("1e+300", "1e+300", True),
        ("x", "x 1", False),
    ],
)
def test_the_comparison_is_exact_outside_float_rounding(expected, actual, same):
    assert _same_text(expected, actual) is same
