"""Function forms for node cost models and sensor pile-up scaling.

Complexity and output-size models are one of four declarative forms:
constant, linear, power-law, or a piecewise-linear table (clamped at both
endpoints).  All are frozen dataclasses so graphs stay immutable and
picklable for parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reference) and self.reference > 0):
            raise ValueError("reference must be finite and positive")

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
        import numpy as np

        return float(np.interp(x, self.xs, self.ys))


CostFn = ConstantFn | LinearFn | PowerLawFn | TableFn


def is_nondecreasing_cost(fn: CostFn) -> bool:
    """Whether fn is a cost form, >= 0 at x = 0 and nondecreasing for x >= 0, read from its
    parameters.  A table is linear between knots, so fn(0) and its knots above 0 decide."""
    if isinstance(fn, ConstantFn):
        return fn.value >= 0
    if isinstance(fn, LinearFn):
        return fn.slope >= 0 and fn.intercept >= 0
    if isinstance(fn, PowerLawFn):
        return fn.exponent >= 0 and fn.value_at_reference >= 0
    if isinstance(fn, TableFn):
        ys = [fn(0.0)] + [y for x, y in zip(fn.xs, fn.ys) if x > 0]
        return ys[0] >= 0 and all(a <= b for a, b in zip(ys, ys[1:]))
    return False


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
        import numpy as np

        return float(np.interp(pileup, self.pileups, self.multipliers))

    def scale(self, size: float, pileup: float) -> float:
        return size * self(pileup)

    def in_domain(self, pileup: float) -> bool:
        return self.pileups[0] <= pileup <= self.pileups[-1]
