"""Function forms for node cost models and sensor pile-up scaling.

Complexity and output-size models are one of four declarative forms:
constant, linear, power-law, or a piecewise-linear table (clamped at both
endpoints).  All are frozen dataclasses so graphs stay immutable and
picklable for parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantFn",
    "LinearFn",
    "PowerLawFn",
    "TableFn",
    "ConstantScaling",
    "ProportionalScaling",
    "TableScaling",
]


@dataclass(frozen=True)
class ConstantFn:
    value: float

    def __call__(self, x: float) -> float:
        return self.value


@dataclass(frozen=True)
class LinearFn:
    slope: float
    intercept: float = 0.0

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PowerLawFn:
    """value_at_reference * (x / reference) ** exponent."""

    exponent: float
    value_at_reference: float
    reference: float

    def __call__(self, x: float) -> float:
        return self.value_at_reference * (x / self.reference) ** self.exponent


@dataclass(frozen=True)
class TableFn:
    """Piecewise-linear interpolation through (x, y) points, clamped outside."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("table needs >= 2 (x, y) points of equal length")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("table x values must be strictly increasing")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))


def is_nondecreasing(fn, lo: float, hi: float, points: int = 64) -> bool:
    """Sampled monotonicity check used by graph validation."""
    xs = np.linspace(lo, hi, points)
    ys = np.asarray([fn(float(x)) for x in xs])
    return bool(np.all(np.diff(ys) >= -1e-12 * np.maximum(np.abs(ys[:-1]), 1.0)))


# === pile-up scaling ===
#
# A sensor's pileup_scaling maps pile-up to a size multiplier and must be
# exactly 1 at the reference pile-up.  scale() applies the multiplier to a
# size; the proportional form computes size * pileup / reference in that
# order so integral sizes stay exact under rational factors like 200/60.


@dataclass(frozen=True)
class ConstantScaling:
    def __call__(self, pileup: float) -> float:
        return 1.0

    def scale(self, size: float, pileup: float) -> float:
        return size


@dataclass(frozen=True)
class ProportionalScaling:
    reference: float

    def __call__(self, pileup: float) -> float:
        return pileup / self.reference

    def scale(self, size: float, pileup: float) -> float:
        return size * pileup / self.reference


@dataclass(frozen=True)
class TableScaling:
    """Multiplier interpolated from (pileup, multiplier) points.

    Outside the tabulated domain the multiplier clamps to the nearest
    endpoint; callers emit a warning for that case.
    """

    pileups: tuple[float, ...]
    multipliers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.pileups) != len(self.multipliers) or len(self.pileups) < 2:
            raise ValueError("scaling table needs >= 2 points of equal length")
        if any(b <= a for a, b in zip(self.pileups, self.pileups[1:])):
            raise ValueError("scaling table pile-ups must be strictly increasing")

    def __call__(self, pileup: float) -> float:
        return float(np.interp(pileup, self.pileups, self.multipliers))

    def scale(self, size: float, pileup: float) -> float:
        return size * self(pileup)

    def in_domain(self, pileup: float) -> bool:
        return self.pileups[0] <= pileup <= self.pileups[-1]
