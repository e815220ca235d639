"""Per-node classification: score distributions, thresholds, confusion.

Each classifying node carries a model of the scores it assigns to the true
(keep) and false (discard) populations.  The population-weighted CDF

    cdf_node(z) = (n_true * cdf_true(z) + n_false * cdf_false(z)) / (n_true + n_false)

is inverted to place the decision threshold z_T so that a requested fraction
of the incoming flow is rejected, and the four confusion entries follow from
the per-population CDFs at z_T.

Score distributions are either parametric (a named continuous family) or
empirical (a sorted sample array).  Empirical CDFs are step functions, so a
requested rejection fraction generally falls inside a step; the operating
point solver keeps the deterministic part above z_T plus a fractional share
of the probability atom at z_T, which makes the outgoing rate meet the
reduction target exactly rather than at step granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

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

_FAMILIES = {"normal": stats.norm, "logistic": stats.logistic, "uniform": stats.uniform}

# Empirical quantiles need enough samples to be stable.
MIN_EMPIRICAL_SAMPLES = 1000


@dataclass(frozen=True)
class ParametricScores:
    """Continuous family: normal(loc, scale), logistic(loc, scale), uniform(lo, width)."""

    family: str
    loc: float
    scale: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown score family {self.family!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def _dist(self):
        return _FAMILIES[self.family](loc=self.loc, scale=self.scale)

    def cdf(self, z: float) -> float:
        return float(self._dist().cdf(z))

    def quantile(self, q: float) -> float:
        return float(self._dist().ppf(q))

    def mean(self) -> float:
        return float(self._dist().mean())

    def atom_mass(self, z: float) -> float:
        return 0.0

    def shift(self, delta: float) -> "ParametricScores":
        return replace(self, loc=self.loc + delta)

    def support(self) -> tuple[float, float]:
        lo, hi = self._dist().support()
        return float(lo), float(hi)


class EmpiricalScores:
    """Sorted sample array with right-continuous step CDF."""

    __slots__ = ("samples",)

    def __init__(self, samples: np.ndarray):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.ndim != 1 or arr.size < MIN_EMPIRICAL_SAMPLES:
            raise ValueError(f"empirical scores need >= {MIN_EMPIRICAL_SAMPLES} samples")
        self.samples = arr
        self.samples.setflags(write=False)

    def cdf(self, z: float) -> float:
        return float(np.searchsorted(self.samples, z, side="right")) / self.samples.size

    def quantile(self, q: float) -> float:
        # smallest sample value whose CDF reaches q
        n = self.samples.size
        k = max(0, min(n - 1, math.ceil(q * n) - 1))
        return float(self.samples[k])

    def mean(self) -> float:
        return float(self.samples.mean())

    def atom_mass(self, z: float) -> float:
        left = np.searchsorted(self.samples, z, side="left")
        right = np.searchsorted(self.samples, z, side="right")
        return float(right - left) / self.samples.size

    def shift(self, delta: float) -> "EmpiricalScores":
        return EmpiricalScores(self.samples + delta)

    def support(self) -> tuple[float, float]:
        return float(self.samples[0]), float(self.samples[-1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmpiricalScores) and np.array_equal(self.samples, other.samples)

    def __repr__(self) -> str:
        return f"EmpiricalScores(n={self.samples.size})"

    # pickling support for parallel sweeps
    def __getstate__(self):
        return np.asarray(self.samples)

    def __setstate__(self, state):
        arr = np.sort(np.asarray(state, dtype=float))
        arr.setflags(write=False)
        self.samples = arr


@dataclass(frozen=True)
class ClassifierModel:
    positive: ParametricScores | EmpiricalScores
    negative: ParametricScores | EmpiricalScores
    skill_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.skill_factor < 0:
            raise ValueError("skill_factor must be >= 0")
        if self.positive.mean() < self.negative.mean():
            raise ValueError("positive scores must not sit below negative scores")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: float
    fp: float
    tn: float
    fn: float
    threshold: float

    @property
    def accepted(self) -> float:
        return self.tp + self.fp

    @property
    def rejected(self) -> float:
        return self.tn + self.fn


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

def _support_union(model: ClassifierModel) -> tuple[float, float]:
    plo, phi = model.positive.support()
    nlo, nhi = model.negative.support()
    return min(plo, nlo), max(phi, nhi)


def solve_threshold(
    model: ClassifierModel,
    flow,
    rejection_fraction: float,
    *,
    tol: float = 1e-9,
) -> float:
    """Find z_T with weighted_cdf(z_T) equal to rejection_fraction.

    Continuous models: bisection to `tol` in score units, leaving the CDF
    within 1e-6 of the target.  Empirical models: the smallest sample value
    whose step CDF reaches the target (right-continuous convention).
    """
    if not 0.0 < rejection_fraction < 1.0:
        raise OperatingPointError(
            f"rejection fraction must lie strictly inside (0, 1), got {rejection_fraction}"
        )
    n_true, n_false = flow.n_true, flow.n_false
    total = n_true + n_false
    if total <= 0:
        raise DegeneratePopulationError("cannot place a threshold for an empty flow")

    if isinstance(model.positive, EmpiricalScores) or isinstance(model.negative, EmpiricalScores):
        return _empirical_quantile(model, n_true, n_false, rejection_fraction)

    lo, hi = _support_union(model)
    # Pull infinite supports in to a finite bracket via per-population quantiles.
    eps = min(rejection_fraction, 1.0 - rejection_fraction) * 1e-3
    if not math.isfinite(lo):
        lo = min(model.positive.quantile(eps), model.negative.quantile(eps))
    if not math.isfinite(hi):
        hi = max(model.positive.quantile(1.0 - eps), model.negative.quantile(1.0 - eps))
    f_lo = weighted_cdf(model, n_true, n_false, lo) - rejection_fraction
    f_hi = weighted_cdf(model, n_true, n_false, hi) - rejection_fraction
    spread = hi - lo
    while f_lo > 0 and spread < 1e12:
        lo -= spread
        spread *= 2
        f_lo = weighted_cdf(model, n_true, n_false, lo) - rejection_fraction
    while f_hi < 0 and spread < 1e12:
        hi += spread
        spread *= 2
        f_hi = weighted_cdf(model, n_true, n_false, hi) - rejection_fraction
    if f_lo > 0 or f_hi < 0:
        attained = (
            weighted_cdf(model, n_true, n_false, lo),
            weighted_cdf(model, n_true, n_false, hi),
        )
        raise OperatingPointError(
            f"rejection fraction {rejection_fraction} unattainable; "
            f"nearest attainable range is [{attained[0]:.9f}, {attained[1]:.9f}]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if weighted_cdf(model, n_true, n_false, mid) < rejection_fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _empirical_quantile(
    model: ClassifierModel, n_true: float, n_false: float, rejection_fraction: float
) -> float:
    candidates = []
    for dist in (model.positive, model.negative):
        if isinstance(dist, EmpiricalScores):
            candidates.append(dist.samples)
        else:  # mixed parametric/empirical model: sample the parametric side densely
            qs = (np.arange(1, 4097) - 0.5) / 4096
            candidates.append(np.asarray([dist.quantile(float(q)) for q in qs]))
    support = np.unique(np.concatenate(candidates))
    total = n_true + n_false
    cdf = (
        n_true * np.searchsorted(model.positive.samples, support, side="right") / model.positive.samples.size
        if isinstance(model.positive, EmpiricalScores)
        else n_true * np.asarray([model.positive.cdf(float(z)) for z in support])
    )
    cdf = cdf + (
        n_false * np.searchsorted(model.negative.samples, support, side="right") / model.negative.samples.size
        if isinstance(model.negative, EmpiricalScores)
        else n_false * np.asarray([model.negative.cdf(float(z)) for z in support])
    )
    cdf /= total
    idx = int(np.searchsorted(cdf, rejection_fraction, side="left"))
    if idx >= support.size:
        idx = support.size - 1
    return float(support[idx])


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
