"""Quantity parsing: unit tables, rejection rules, ratio forms."""

import math

import pytest

from daqflow.units import UnitError, parse_quantity, parse_ratio


def test_size_units_are_decimal_bits():
    assert parse_quantity("1 bit", "size") == 1.0
    assert parse_quantity("8 bits", "size") == 8.0
    assert parse_quantity("1 kb", "size") == 1e3
    assert parse_quantity("2.0 MB", "size") == 16e6  # bytes are 8 bits, decimal
    assert parse_quantity("8.0 MB", "size") == 64e6
    assert parse_quantity("1 GB", "size") == 8e9


def test_rate_power_energy_bandwidth():
    assert parse_quantity("40 MHz", "rate") == 40e6
    assert parse_quantity("100 kHz", "rate") == 100e3
    assert parse_quantity("530 W", "power") == 530.0
    assert parse_quantity("2.3 kW", "power") == 2300.0
    assert parse_quantity("22 pJ/bit", "energy_per_bit") == pytest.approx(22e-12)
    assert parse_quantity("7.5 pJ/op", "energy_per_op") == pytest.approx(7.5e-12)
    assert parse_quantity("10.24 Gb/s", "bandwidth") == pytest.approx(10.24e9)
    assert parse_quantity("1 GB/s", "bandwidth") == 8e9
    assert parse_quantity("30 GeV", "momentum") == 30.0
    assert parse_quantity("500 MeV", "momentum") == 0.5


def test_micro_prefix_spellings():
    assert parse_quantity("5 uW", "power") == parse_quantity("5 µW", "power")
    assert parse_quantity("5 uW", "power") == pytest.approx(5e-6)


def test_bare_numbers_are_rejected():
    with pytest.raises(UnitError, match="bare number"):
        parse_quantity(40e6, "rate")
    with pytest.raises(UnitError):
        parse_quantity(True, "rate")


def test_unit_of_wrong_kind_is_rejected():
    with pytest.raises(UnitError, match="unknown rate unit"):
        parse_quantity("3 W", "rate")
    with pytest.raises(UnitError, match="unknown power unit"):
        parse_quantity("3 Hz", "power")


def test_malformed_quantity():
    with pytest.raises(UnitError, match="malformed"):
        parse_quantity("fast", "rate")
    with pytest.raises(UnitError):
        parse_quantity("3.0.2 Hz", "rate")
    with pytest.raises(UnitError):
        parse_quantity(None, "rate")


def test_parse_ratio_forms():
    assert parse_ratio(400) == 400.0
    assert parse_ratio(2.5) == 2.5
    assert parse_ratio("160/3") == pytest.approx(160.0 / 3.0, rel=1e-15)
    assert parse_ratio("400:1") == 400.0
    assert parse_ratio(" 3/2 ") == 1.5
    # exact arithmetic rounds a fraction once; every string goes through
    # Fraction, so "-0" reads as 0.0
    assert parse_ratio("160/3") == 160 / 3
    assert parse_ratio("2.5e2") == 250.0
    assert math.copysign(1.0, parse_ratio("-0")) == 1.0


def test_parse_ratio_rejections():
    with pytest.raises(UnitError):
        parse_ratio(True)
    with pytest.raises(UnitError):
        parse_ratio("1/0")
    with pytest.raises(UnitError):
        parse_ratio("a/b")
    for text in ("inf", "nan", "1e400", "x", "1:2:3"):
        with pytest.raises(UnitError, match="malformed ratio"):
            parse_ratio(text)
    with pytest.raises(UnitError):
        parse_ratio(object())
