"""Unit-suffixed quantity parsing.

Every dimensioned config value is written as a string with an explicit unit
suffix ("22 pJ/bit", "2.0 MB", "40 MHz") and parsed here into canonical SI
semantics: sizes in bits, rates in Hz, power in W, bandwidth in bit/s,
energies in J/bit or J/op, momentum in GeV.
Bare numbers are rejected for dimensioned fields so a magnitude typo cannot
slip through as a silently-wrong scale.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["UnitError", "parse_quantity", "format_quantity", "parse_ratio", "KINDS"]


class UnitError(ValueError):
    """A quantity string is malformed or its unit does not match the field."""


_SI_PREFIX = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "µ": 1e-6,
    "m": 1e-3,
    "": 1.0,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
}


def _prefixed(base: str, prefixes: str, scale: float = 1.0) -> dict[str, float]:
    table = {}
    for p in prefixes.split("|"):
        table[p + base] = _SI_PREFIX[p] * scale
    return table


# Canonical unit tables per quantity kind.  Values are multipliers into the
# canonical unit named in the comment.
KINDS: dict[str, tuple[str, dict[str, float]]] = {
    # bits; bytes are decimal (1 MB = 1e6 bytes = 8e6 bits)
    "size": (
        "bit",
        {
            "bit": 1.0,
            "bits": 1.0,
            **_prefixed("b", "k|M|G|T"),
            **_prefixed("B", "|k|M|G|T", 8.0),
        },
    ),
    "rate": ("Hz", _prefixed("Hz", "|k|M|G")),
    "power": ("W", _prefixed("W", "µ|u|m||k|M|G")),
    "energy_per_bit": ("J/bit", _prefixed("J/bit", "f|p|n|µ|u|m|")),
    "energy_per_op": ("J/op", _prefixed("J/op", "f|p|n|µ|u|m|")),
    "bandwidth": (
        "bit/s",
        {
            "bit/s": 1.0,
            **_prefixed("b/s", "|k|M|G|T"),
            **_prefixed("B/s", "|k|M|G|T", 8.0),
        },
    ),
    "momentum": ("GeV", {"MeV": 1e-3, "GeV": 1.0, "TeV": 1e3}),
}

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*(\S+)\s*$")


def parse_quantity(value: object, kind: str) -> float:
    """Parse a unit-suffixed string into the canonical unit for `kind`.

    Raises UnitError for bare numbers, unknown units, or units belonging to
    a different kind.
    """
    canonical, table = KINDS[kind]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise UnitError(
            f"expected a unit-suffixed string in {canonical} "
            f"(e.g. '1 {canonical}'), got bare number {value!r}"
        )
    if not isinstance(value, str):
        raise UnitError(f"expected a quantity string, got {type(value).__name__}")
    m = _QUANTITY_RE.match(value)
    if m is None:
        raise UnitError(f"malformed quantity {value!r}; expected '<number> <unit>'")
    magnitude, unit = m.groups()
    if unit not in table:
        known = ", ".join(sorted(table))
        raise UnitError(f"unknown {kind} unit {unit!r} in {value!r}; expected one of: {known}")
    return float(magnitude) * table[unit]


def format_quantity(value: float, kind: str) -> str:
    """Format a canonical value back into a parseable string (round-trip safe)."""
    canonical, _ = KINDS[kind]
    return f"{value!r} {canonical}"


def parse_ratio(value: object) -> float:
    """Parse a dimensionless ratio.

    Accepts numbers, fraction strings ("160/3"), and colon ratios ("400:1").
    Fractions are evaluated exactly and rounded once at the final float
    conversion.
    """
    if isinstance(value, bool):
        raise UnitError(f"expected a ratio, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if ":" in text:
                num, den = text.split(":")
                return float(Fraction(num.strip()) / Fraction(den.strip()))
            return float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise UnitError(f"malformed ratio {value!r}") from exc
    raise UnitError(f"expected a ratio, got {type(value).__name__}")
