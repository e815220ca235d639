"""Per-node classification: score distributions, thresholds, confusion.

Each classifying node carries a model of the scores it assigns to the true
(keep) and false (discard) populations.  The population-weighted CDF

    cdf_node(z) = (n_true * cdf_true(z) + n_false * cdf_false(z)) / (n_true + n_false)

is inverted to place the decision threshold z_T so that a requested fraction
of the incoming flow is rejected, and the four confusion entries follow from
the per-population CDFs at z_T.

Score distributions are either parametric (a named continuous family, in
closed form) or empirical (the distinct sampled scores with the sample count
at or below each).  Empirical CDFs are step functions, so a requested
rejection fraction generally falls inside a step; the operating point solver
keeps the deterministic part above z_T plus a fractional share of the
probability atom at z_T, which makes the outgoing rate meet the reduction
target exactly rather than at step granularity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from .errors import DegeneratePopulationError, OperatingPointError

__all__ = [
    "ParametricScores",
    "EmpiricalScores",
    "ClassifierModel",
    "ConfusionMatrix",
    "OperatingPoint",
    "weighted_cdf",
    "solve_threshold",
    "confusion_at_threshold",
    "solve_operating_point",
    "apply_skill",
]


_SQRT_HALF = math.sqrt(0.5)


def _normal_quantile(q: float) -> float:
    if q in (0.0, 1.0):  # inv_cdf raises at the ends
        return math.inf if q else -math.inf
    from statistics import NormalDist  # loads decimal and fractions: only a normal quantile pays

    return NormalDist().inv_cdf(q)


def _expit(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) past the largest float: the limit is 0
        return 0.0


def _logit(q: float) -> float:
    if q in (0.0, 1.0):
        return math.inf if q else -math.inf
    if 0.3 <= q <= 0.65:
        s = 2.0 * (q - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(q / (1.0 - q))


# Standard form (loc 0, scale 1) of each family: CDF, quantile function and
# mean.  ParametricScores evaluates them at (z - loc) / scale and maps
# standard values back as x * scale + loc.  Against 50-digit mpmath values,
# the normal CDF 0.5 * erfc(-x / sqrt(2)) is within 8 + 2 * x**2 ulps: 27 on
# [-5, 5] and up to 1,646 near x = -37, as erfc amplifies the rounding of
# its argument ~x**2-fold.  The normal quantile, Wichura's AS241 in
# statistics.NormalDist, is within 6 ulps.  The logistic quantile switches to
# log1p near q = 1/2, where log(q / (1 - q)) would lose digits; the tests
# check the logistic pair bit for bit against a reference library.
_FAMILIES = {
    "normal": (lambda x: 0.5 * math.erfc(-x * _SQRT_HALF), _normal_quantile, 0.0),
    "logistic": (_expit, _logit, 0.0),
    "uniform": (lambda x: 0.0 if x <= 0.0 else min(x, 1.0), lambda q: q, 0.5),
}


# Empirical quantiles need enough samples to be stable.
MIN_EMPIRICAL_SAMPLES = 1000

# Width in score units at which the continuous threshold bisection stops.
THRESHOLD_TOL = 1e-9


@dataclass(frozen=True)
class ParametricScores:
    """Continuous family: normal(loc, scale), logistic(loc, scale), uniform(lo, width),
    in closed form (see _FAMILIES for the forms and their accuracy)."""

    family: str
    loc: float
    scale: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown score family {self.family!r}")
        if not math.isfinite(self.loc):
            raise ValueError("loc must be finite")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")

    def cdf(self, z: float) -> float:
        return _FAMILIES[self.family][0]((z - self.loc) / self.scale)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            return math.nan
        return _FAMILIES[self.family][1](q) * self.scale + self.loc

    def mean(self) -> float:
        return _FAMILIES[self.family][2] * self.scale + self.loc

    def atom_mass(self, z: float) -> float:
        return 0.0

    def shift(self, delta: float) -> "ParametricScores":
        return replace(self, loc=self.loc + delta)

    def spread(self) -> float:
        return self.scale


@dataclass(frozen=True)
class EmpiricalScores:
    """Right-continuous step CDF of a sample: the sorted distinct values and,
    for each, the number of samples at or below it."""

    values: tuple[float, ...]
    cumulative: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.cumulative) or self.size < MIN_EMPIRICAL_SAMPLES:
            raise ValueError(
                f"empirical scores need one count per value and >= {MIN_EMPIRICAL_SAMPLES} samples"
            )

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalScores":
        import numpy as np

        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError("empirical scores need a 1-d array of finite samples")
        values, counts = np.unique(arr, return_counts=True)
        return cls(tuple(values.tolist()), tuple(np.cumsum(counts).tolist()))

    @property
    def size(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0

    def count_at_or_below(self, z: float) -> int:
        i = bisect_right(self.values, z)
        return self.cumulative[i - 1] if i else 0

    def cdf(self, z: float) -> float:
        return self.count_at_or_below(z) / self.size

    def quantile(self, q: float) -> float:
        # value at sorted sample index ceil(q * n) - 1: the smallest whose CDF reaches q
        k = max(0, min(self.size - 1, math.ceil(q * self.size) - 1))
        return self.values[bisect_right(self.cumulative, k)]

    def mean(self) -> float:
        below = (0,) + self.cumulative[:-1]
        products = (v * (c - b) for v, c, b in zip(self.values, self.cumulative, below))
        return math.fsum(products) / self.size

    def atom_mass(self, z: float) -> float:
        i = bisect_left(self.values, z)
        below = self.cumulative[i - 1] if i else 0
        return (self.count_at_or_below(z) - below) / self.size

    def shift(self, delta: float) -> "EmpiricalScores":
        return replace(self, values=tuple(v + delta for v in self.values))

    def spread(self) -> float:
        return self.values[-1] - self.values[0]


@dataclass(frozen=True)
class ClassifierModel:
    positive: ParametricScores | EmpiricalScores
    negative: ParametricScores | EmpiricalScores
    skill_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.skill_factor < 0:
            raise ValueError("skill_factor must be >= 0")
        if isinstance(self.positive, EmpiricalScores) != isinstance(self.negative, EmpiricalScores):
            raise ValueError("scores must be both empirical or both parametric")
        # equal means (skill 0) may sit apart by rounding that grows with the scores' magnitude
        pos, neg = self.positive, self.negative
        slack = 16 * math.ulp(1.0) * sum(abs(s.mean()) + s.spread() for s in (pos, neg))
        if neg.mean() - pos.mean() > slack:
            raise ValueError("positive scores must not sit below negative scores")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: float
    fp: float
    tn: float
    fn: float
    threshold: float


@dataclass(frozen=True)
class OperatingPoint:
    """A solved decision point: threshold plus the boundary-atom keep share.

    boundary_keep is the fraction of the probability atom exactly at the
    threshold that is retained (always 0 for continuous models); it is what
    lets empirical models hit a reduction target exactly.
    """

    threshold: float
    boundary_keep: float
    confusion: ConfusionMatrix


def weighted_cdf(model: ClassifierModel, n_true: float, n_false: float, z: float) -> float:
    total = n_true + n_false
    if total <= 0:
        raise DegeneratePopulationError("weighted CDF undefined: both population rates are zero")
    return (n_true * model.positive.cdf(z) + n_false * model.negative.cdf(z)) / total


def solve_threshold(model: ClassifierModel, flow, rejection_fraction: float) -> float:
    """Find z_T with weighted_cdf(z_T) equal to rejection_fraction.

    Continuous models: bisection between the two populations' own quantiles
    at the target, which bracket the mixture's, until the bracket is
    THRESHOLD_TOL wide in score units or no float lies inside it; returns the bracket's
    lower end.  Empirical models: the smallest score value of either
    population whose weighted step CDF reaches the target (right-continuous
    convention).
    """
    if not 0.0 < rejection_fraction < 1.0:
        raise OperatingPointError(
            f"rejection fraction must lie strictly inside (0, 1), got {rejection_fraction}"
        )
    n_true, n_false = flow.n_true, flow.n_false
    total = n_true + n_false
    if total <= 0:
        raise DegeneratePopulationError("cannot place a threshold for an empty flow")

    if isinstance(model.positive, EmpiricalScores):
        return _empirical_quantile(model, n_true, n_false, rejection_fraction)

    # Both population CDFs are <= the target at the lower quantile and >= it
    # at the upper one, so the weighted CDF is too.
    lo, hi = sorted(
        (model.positive.quantile(rejection_fraction), model.negative.quantile(rejection_fraction))
    )
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the tolerance is below the score's resolution
            break
        if weighted_cdf(model, n_true, n_false, mid) < rejection_fraction:
            lo = mid
        else:
            hi = mid
    # below the target, so mass stays above the threshold even when no float
    # threshold keeps exactly rate / reduction
    return lo


def _empirical_quantile(
    model: ClassifierModel, n_true: float, n_false: float, rejection_fraction: float
) -> float:
    pos, neg = model.positive, model.negative

    def weighted(z: float) -> float:
        below = n_true * pos.count_at_or_below(z) / pos.size
        return (below + n_false * neg.count_at_or_below(z) / neg.size) / (n_true + n_false)

    support = sorted(set(pos.values).union(neg.values))
    idx = bisect_left(support, rejection_fraction, key=weighted)
    return support[min(idx, len(support) - 1)]


def confusion_at_threshold(model: ClassifierModel, flow, z_t: float) -> ConfusionMatrix:
    """Confusion entries with the plain keep-strictly-above rule at z_t."""
    cdf_t = model.positive.cdf(z_t)
    cdf_f = model.negative.cdf(z_t)
    return ConfusionMatrix(
        tp=flow.n_true * (1.0 - cdf_t),
        fp=flow.n_false * (1.0 - cdf_f),
        tn=flow.n_false * cdf_f,
        fn=flow.n_true * cdf_t,
        threshold=z_t,
    )


def solve_operating_point(model: ClassifierModel, flow, reduction_target: float) -> OperatingPoint:
    """Solve the threshold for a reduction target and build the confusion matrix.

    The outgoing rate equals flow.rate / reduction_target exactly: any
    probability atom at the threshold is split so the kept fraction lands on
    the target (boundary_keep), which is exact for empirical models and a
    no-op for continuous ones.
    """
    if reduction_target <= 1.0:
        raise OperatingPointError(f"reduction target must exceed 1, got {reduction_target}")
    keep_target = 1.0 / reduction_target
    rejection = 1.0 - keep_target
    if rejection == 1.0:
        raise OperatingPointError(f"reduction target {reduction_target:g} exceeds double precision")
    z_t = solve_threshold(model, flow, rejection)

    n_true, n_false = flow.n_true, flow.n_false
    atom_t = model.positive.atom_mass(z_t)
    atom_f = model.negative.atom_mass(z_t)
    above_t = 1.0 - model.positive.cdf(z_t)
    above_f = 1.0 - model.negative.cdf(z_t)
    total = n_true + n_false

    kept_above = (n_true * above_t + n_false * above_f) / total
    atom_total = (n_true * atom_t + n_false * atom_f) / total
    deficit = keep_target - kept_above
    if atom_total > 0.0:
        boundary_keep = min(1.0, max(0.0, deficit / atom_total))
    else:
        boundary_keep = 0.0

    tp = n_true * (above_t + boundary_keep * atom_t)
    fp = n_false * (above_f + boundary_keep * atom_f)
    # Land tp + fp exactly on rate / reduction_target: scale the kept mass
    # onto the target and build fp as the exact complement.
    out_rate = flow.rate * keep_target
    kept = tp + fp
    if kept > 0.0:
        tp = min(out_rate, tp * (out_rate / kept))
        fp = out_rate - tp
    tn = n_false - fp
    fn = n_true - tp
    return OperatingPoint(
        threshold=z_t,
        boundary_keep=boundary_keep,
        confusion=ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn, threshold=z_t),
    )


def apply_skill(model: ClassifierModel, skill_factor: float) -> ClassifierModel:
    """Scale the location separation between populations by skill_factor.

    Only the positive distribution moves; widths and the negative
    distribution stay put so the false-population rejection behavior remains
    comparable across skill settings.
    """
    if not math.isfinite(skill_factor) or skill_factor < 0:
        raise ValueError("skill_factor must be finite and >= 0")
    if skill_factor == 1.0:
        return model
    separation = model.positive.mean() - model.negative.mean()
    delta = (skill_factor - 1.0) * separation
    return ClassifierModel(
        positive=model.positive.shift(delta),
        negative=model.negative,
        skill_factor=model.skill_factor * skill_factor,
    )
