"""Function forms and pile-up scalings."""

import pytest

from daqflow.functions import (
    ConstantFn,
    ConstantScaling,
    LinearFn,
    PowerLawFn,
    ProportionalScaling,
    TableFn,
    TableScaling,
    is_nondecreasing,
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


def test_is_nondecreasing():
    assert is_nondecreasing(LinearFn(slope=1.0), 0.0, 1e9)
    assert is_nondecreasing(ConstantFn(5.0), 0.0, 1e9)
    assert not is_nondecreasing(LinearFn(slope=-1.0), 0.0, 1e9)


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
