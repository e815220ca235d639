"""Function forms and pile-up scalings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqflow.functions import (
    ConstantFn,
    ConstantScaling,
    LinearFn,
    PowerLawFn,
    ProportionalScaling,
    TableFn,
    TableScaling,
    is_nondecreasing_cost,
)


def test_basic_forms():
    assert ConstantFn(3.0)(123.0) == 3.0
    assert LinearFn(slope=2.0, intercept=1.0)(10.0) == 21.0
    assert LinearFn(slope=25.0)(16e6) == 400e6
    fn = PowerLawFn(exponent=2.4, value_at_reference=8e11, reference=16e6)
    assert fn(16e6) == 8e11
    assert fn(32e6) == pytest.approx(8e11 * 2**2.4, rel=1e-12)


def test_table_fn_interpolates_and_clamps():
    fn = TableFn(xs=(0.0, 10.0, 20.0), ys=(1.0, 2.0, 4.0))
    assert fn(5.0) == 1.5
    assert fn(15.0) == 3.0
    assert fn(-5.0) == 1.0  # clamped below
    assert fn(100.0) == 4.0  # clamped above


def test_table_fn_validation():
    with pytest.raises(ValueError):
        TableFn(xs=(0.0,), ys=(1.0,))
    with pytest.raises(ValueError):
        TableFn(xs=(0.0, 0.0), ys=(1.0, 2.0))
    with pytest.raises(ValueError):
        TableFn(xs=(0.0, 1.0), ys=(1.0,))


@pytest.mark.parametrize(
    "fn, ok",
    [
        (ConstantFn(5.0), True),
        (ConstantFn(0.0), True),
        (ConstantFn(-1.0), False),
        (LinearFn(slope=1.0), True),
        (LinearFn(slope=0.0), True),
        (LinearFn(slope=-1.0), False),
        (LinearFn(slope=1.0, intercept=-1.0), False),  # negative at 0, rising after
        (LinearFn(slope=-1e-12, intercept=1e9), False),  # any fall counts, however slow
        (PowerLawFn(exponent=2.4, value_at_reference=8e11, reference=16e6), True),
        (PowerLawFn(exponent=0.0, value_at_reference=3.0, reference=1.0), True),
        (PowerLawFn(exponent=0.0, value_at_reference=-3.0, reference=1.0), False),
        (PowerLawFn(exponent=1.0, value_at_reference=-3.0, reference=1.0), False),
        (PowerLawFn(exponent=-1.0, value_at_reference=1.0, reference=1.0), False),  # x = 0 divides
        (TableFn(xs=(0.0, 1e6, 2e6), ys=(0.0, 1e10, 0.0)), False),  # dip between samples
        (TableFn(xs=(0.0, 2e9, 3e9), ys=(0.0, 5.0, 1.0)), False),  # dip beyond 1e9
        (TableFn(xs=(0.0, 10.0, 20.0), ys=(1.0, 1.0, 1.0)), True),
        (TableFn(xs=(0.0, 10.0), ys=(-1.0, 5.0)), False),  # ys[0] < 0 at x = 0
        (TableFn(xs=(1.0, 10.0), ys=(-1.0, 5.0)), False),  # clamps to ys[0] < 0 at x = 0
        (TableFn(xs=(-5.0, 5.0), ys=(-1.0, 1.0)), True),  # ys[0] < 0 only below x = 0
        (TableFn(xs=(-5.0, 0.0, 10.0), ys=(3.0, 1.0, 2.0)), True),  # falls only below 0
        (TableFn(xs=(-5.0, 5.0), ys=(1.0, -1.0)), False),  # fn(0) = 0, then falls
        (TableFn(xs=(-10.0, -5.0), ys=(-1.0, 2.0)), True),  # flat at 2 for x >= 0
        (lambda x: x, False),  # not one of the four forms
    ],
)
def test_closed_form_monotonicity(fn, ok):
    assert is_nondecreasing_cost(fn) is ok


def _oracle(fn, knots=(), hi=1e10) -> bool:
    """>= 0 at 0 and nondecreasing, judged by evaluating fn at 0, every knot
    above 0 and a dense grid, up to a few ulps of rounding."""
    xs = sorted({0.0, *(x for x in knots if x > 0), *np.linspace(0.0, hi, 513).tolist()})
    try:
        ys = [fn(x) for x in xs]
    except ZeroDivisionError:  # a negative exponent at x = 0
        return False
    return ys[0] >= 0 and all(b >= a - 1e-12 * max(abs(a), abs(b)) for a, b in zip(ys, ys[1:]))


_signed = st.builds(lambda k, m: k * m, st.integers(-4, 4), st.sampled_from([1e-3, 1.0, 1e6]))


@st.composite
def _tables(draw):
    xs = sorted(draw(st.sets(st.integers(-5, 10), min_size=2, max_size=6)))
    unit = draw(st.sampled_from([1.0, 1e6, 1e9]))
    ys = draw(st.lists(st.integers(-3, 3), min_size=len(xs), max_size=len(xs)))
    return TableFn(xs=tuple(x * unit for x in xs), ys=tuple(float(y) for y in ys))


_forms = st.one_of(
    st.builds(ConstantFn, _signed),
    st.builds(LinearFn, _signed, _signed),
    st.builds(
        PowerLawFn,
        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 2.4]),
        _signed,
        st.sampled_from([1.0, 1e3, 1.6e7]),
    ),
    _tables(),
)


@settings(max_examples=300, deadline=None)
@given(_forms)
def test_closed_form_agrees_with_evaluating_the_form(fn):
    if isinstance(fn, TableFn):
        oracle = _oracle(fn, fn.xs, hi=2.0 * max(fn.xs[-1], 1.0))
    else:
        oracle = _oracle(fn)
    assert is_nondecreasing_cost(fn) is oracle


def test_constant_scaling_is_identity():
    s = ConstantScaling()
    assert s(200.0) == 1.0
    assert s.scale(3432000.0, 200.0) == 3432000.0


def test_proportional_scaling_keeps_integral_sizes_exact():
    s = ProportionalScaling(reference=60.0)
    assert s(60.0) == 1.0
    # size * pileup runs first so the rational factor 200/60 lands exactly
    assert s.scale(3432000.0, 200.0) == 11440000.0
    assert s.scale(3432000.0, 60.0) == 3432000.0


def test_table_scaling():
    s = TableScaling(pileups=(50.0, 100.0, 200.0), multipliers=(1.0, 2.0, 5.0))
    assert s(75.0) == 1.5
    assert s.scale(1000.0, 100.0) == 2000.0
    assert s.in_domain(60.0)
    assert not s.in_domain(300.0)
    assert s(300.0) == 5.0  # clamps; callers warn on out-of-domain use
    with pytest.raises(ValueError):
        TableScaling(pileups=(100.0, 50.0), multipliers=(1.0, 2.0))
    for pileups, multipliers in [((50.0,), (1.0,)), ((50.0, 100.0), (1.0, 2.0, 3.0))]:
        with pytest.raises(ValueError, match=">= 2 points of equal length"):
            TableScaling(pileups=pileups, multipliers=multipliers)
