"""Trigger-menu calibration: turn-on curves, momentum fits, score sampling.

Builds the first-stage (L1T) and second-stage (HLT) classifier models from
per-path trigger descriptions.  Each path has a logistic turn-on curve
eff(p) = plateau * expit((p - threshold) / width) and an exponential momentum
spectrum PDF(p) = lam * exp(-lam * p); lam is fitted so the modeled path rate

    rate(lam) = input_rate * integral eff(p) * PDF(lam, p) dp

matches the measured per-path rate.  Monte Carlo samples over the fitted
spectra then produce empirical score distributions for the true and false
event populations.

A sampled object's per-path score is its detection outcome: a Bernoulli draw
at probability eff(p).  Using the detection probability itself as the score
would make the two populations perfectly separable (the turn-on curve is
monotone in p, and the populations split exactly at the threshold), which no
real trigger achieves; the sampled outcome keeps the overlap that the
downstream threshold solver works against.

PRNG: numpy PCG64.  Path substreams are seeded with SeedSequence((seed,
crc32(path_name))) and subset choices for positive events come from a
dedicated event stream SeedSequence((seed, crc32("__event__"))), so sampling
is bit-identical across runs and platforms for a given seed, regardless of
path iteration order.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.special import expit

from .classifier import ClassifierModel, EmpiricalScores
from .errors import FitInfeasibleError, QuadratureError

__all__ = [
    "EfficiencyCurve",
    "MomentumDistribution",
    "TriggerPath",
    "MenuSpec",
    "trigger_rate",
    "fit_lambda",
    "sample_scores",
    "build_menu",
]

# lam search bracket for the rate fit, in 1/GeV
FIT_BRACKET = (1e-6, 10.0)
FIT_RATE_RTOL = 1e-4
DEFAULT_SAMPLE_COUNT = 50_000


@dataclass(frozen=True)
class EfficiencyCurve:
    """Logistic turn-on: plateau * expit((p - threshold) / width).

    width = 0 degenerates to a step at the threshold.
    """

    object_name: str
    threshold: float  # GeV
    width: float  # GeV
    plateau: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.threshold, self.width, self.plateau))):
            raise ValueError("threshold, width and plateau must be finite")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if not 0.0 < self.plateau <= 1.0:
            raise ValueError("plateau must lie in (0, 1]")

    def __call__(self, p):
        if self.width == 0.0:
            return self.plateau * (np.asarray(p, dtype=float) > self.threshold)
        return self.plateau * expit((np.asarray(p, dtype=float) - self.threshold) / self.width)


@dataclass(frozen=True)
class MomentumDistribution:
    """Exponential momentum spectrum with rate parameter lam (1/GeV)."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def pdf(self, p):
        p = np.asarray(p, dtype=float)
        return np.where(p > 0, self.lam * np.exp(-self.lam * p), 0.0)


@dataclass(frozen=True)
class TriggerPath:
    object_name: str
    curve: EfficiencyCurve
    empirical_rate: float  # Hz
    input_rate: float  # Hz
    momentum: MomentumDistribution | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.input_rate):
            raise ValueError("input_rate must be finite")
        if not 0.0 < self.empirical_rate <= self.input_rate:
            raise ValueError("need 0 < empirical_rate <= input_rate")


@dataclass(frozen=True)
class MenuSpec:
    """A trigger menu: mode plus its paths, as declared by the config."""

    name: str
    mode: str  # "summed" | "one-at-a-time"
    paths: tuple[TriggerPath, ...]
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self) -> None:
        if self.mode not in ("summed", "one-at-a-time"):
            raise ValueError(f"unknown menu mode {self.mode!r}")
        if not self.paths:
            raise ValueError("menu needs at least one path")


def trigger_rate(path: TriggerPath, lam: float) -> float:
    """input_rate * integral of eff(p) * lam * exp(-lam p) over p > 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    curve = path.curve
    if curve.width == 0.0:
        return path.input_rate * curve.plateau * math.exp(-lam * curve.threshold)

    # Substituting u = lam * p makes the exponential decay on an O(1) scale
    # for any lam, so the quadrature never has to chase a 1/lam-wide tail.
    # The interval splits at the turn-on u_t so the sharp transition sits on
    # an edge.  Below the turn-on the integrand is negligible past u = 60
    # (bounded by exp(-60)); that remainder goes into the error budget.
    u_t = lam * curve.threshold

    def g(u: float) -> float:
        return float(curve(u / lam)) * math.exp(-u)

    cut = min(u_t, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        below, err_below = integrate.quad(g, 0.0, cut, epsabs=1e-14, epsrel=1e-10, limit=200)
        above, err_above = integrate.quad(g, u_t, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
    skipped = math.exp(-60.0) if u_t > 60.0 else 0.0
    total = below + above
    err = err_below + err_above + skipped
    if not math.isfinite(total):
        raise QuadratureError(
            f"trigger-rate quadrature diverged for {path.object_name!r} at lam={lam}"
        )
    if err > max(1e-6 * total, 1e-12):
        raise QuadratureError(
            f"trigger-rate quadrature did not converge for {path.object_name!r} at lam={lam}: "
            f"value {total:.6e}, error estimate {err:.2e}"
        )
    return path.input_rate * total


def fit_lambda(path: TriggerPath, *, max_iter: int = 200) -> MomentumDistribution:
    """Invert the monotone lam -> rate map onto the measured path rate.

    The rate is strictly decreasing in lam, so bracketed bisection on
    FIT_BRACKET converges to the unique solution; iteration stops when the
    modeled rate is within FIT_RATE_RTOL of the target.
    """
    target = path.empirical_rate
    lo, hi = FIT_BRACKET
    rate_lo = trigger_rate(path, lo)
    rate_hi = trigger_rate(path, hi)
    if not (rate_hi <= target <= rate_lo):
        raise FitInfeasibleError(
            f"path {path.object_name!r}: target rate {target:.6g} Hz outside the attainable "
            f"range [{rate_hi:.6g}, {rate_lo:.6g}] Hz for lam in {FIT_BRACKET} 1/GeV"
        )
    # Bisect down to a tight relative interval in lam itself: near-flat
    # stretches of the rate curve would otherwise leave lam poorly pinned
    # even when the rate residual looks small.
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 + 1e-8 * mid:
            break
        if trigger_rate(path, mid) > target:  # spectrum too hard, push lam up
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    rate = trigger_rate(path, lam)
    if abs(rate - target) > FIT_RATE_RTOL * target:
        raise FitInfeasibleError(
            f"path {path.object_name!r}: bisection stalled at lam={lam:.9g} "
            f"(rate {rate:.6g} Hz vs target {target:.6g} Hz)"
        )
    return MomentumDistribution(lam)


# === score sampling ===


def _substream(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8")))))
    )


def _momenta_below(u: np.ndarray, lam: float, threshold: float) -> np.ndarray:
    # inverse-CDF of the exponential truncated to (0, threshold]
    return -np.log1p(-u * (1.0 - math.exp(-lam * threshold))) / lam


def _momenta_above(u: np.ndarray, lam: float, threshold: float) -> np.ndarray:
    # memoryless tail: threshold + Exp(lam)
    return threshold - np.log1p(-u) / lam


def sample_scores(
    paths: list[TriggerPath] | tuple[TriggerPath, ...],
    mode: str,
    n: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> tuple[EmpiricalScores, EmpiricalScores]:
    """Monte Carlo the (negative, positive) empirical score distributions.

    Negative samples are events with every object below its path threshold;
    positive samples have at least one object above.  In "summed" mode the
    per-path detection outcomes of one event add into a single scalar score;
    in "one-at-a-time" mode each path contributes its own scores to the
    pooled populations without summation.  Both modes return n negative and
    n positive samples and coincide exactly for a single-path menu.

    Per path the draw order is fixed: negative-block momenta, negative-block
    detection outcomes, then the positive-side blocks in the same order.
    """
    paths = tuple(paths)
    if n < 1000:
        raise ValueError("need n >= 1000 samples")
    for path in paths:
        if path.momentum is None:
            raise ValueError(f"path {path.object_name!r} has no fitted momentum distribution")
    if mode == "summed":
        negative, positive = _sample_summed(paths, n, seed)
    elif mode == "one-at-a-time":
        negative, positive = _sample_one_at_a_time(paths, n, seed)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return EmpiricalScores(negative), EmpiricalScores(positive)


def _sample_summed(paths, n: int, seed: int):
    k = len(paths)
    if k > 20:
        raise ValueError("summed mode enumerates 2^k - 1 subsets; menu too large")
    above_prob = np.array([math.exp(-p.momentum.lam * p.curve.threshold) for p in paths])

    # Choose, per positive event, the non-empty subset of paths whose object
    # lands above threshold: P(S) ~ prod_in(a) * prod_out(1 - a).
    masks = np.array([[(s + 1) >> i & 1 for i in range(k)] for s in range(2**k - 1)], dtype=bool)
    weights = np.prod(np.where(masks, above_prob, 1.0 - above_prob), axis=1)
    weights /= weights.sum()
    event_rng = _substream(seed, "__event__")
    subset = event_rng.choice(len(weights), size=n, p=weights)
    above = masks[subset]  # (n, k) booleans

    neg_total = np.zeros(n)
    pos_total = np.zeros(n)
    for i, path in enumerate(paths):
        rng = _substream(seed, path.object_name)
        lam = path.momentum.lam
        threshold = path.curve.threshold

        u = rng.random(n)
        neg_momenta = _momenta_below(u, lam, threshold)
        neg_total += rng.random(n) < path.curve(neg_momenta)

        u = rng.random(n)
        pos_momenta = np.where(
            above[:, i],
            _momenta_above(u, lam, threshold),
            _momenta_below(u, lam, threshold),
        )
        pos_total += rng.random(n) < path.curve(pos_momenta)
    return neg_total, pos_total


def _sample_one_at_a_time(paths, n: int, seed: int):
    k = len(paths)
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    neg_parts = []
    pos_parts = []
    for path, count in zip(paths, counts):
        rng = _substream(seed, path.object_name)
        lam = path.momentum.lam
        threshold = path.curve.threshold

        u = rng.random(count)
        neg_momenta = _momenta_below(u, lam, threshold)
        neg_parts.append((rng.random(count) < path.curve(neg_momenta)).astype(float))

        u = rng.random(count)
        pos_momenta = _momenta_above(u, lam, threshold)
        pos_parts.append((rng.random(count) < path.curve(pos_momenta)).astype(float))
    return np.concatenate(neg_parts), np.concatenate(pos_parts)


def build_menu(menu: MenuSpec, seed: int = 0) -> ClassifierModel:
    """Fit every path's spectrum, sample scores, return the classifier model."""
    fitted = tuple(
        path if path.momentum is not None else replace(path, momentum=fit_lambda(path))
        for path in menu.paths
    )
    negative, positive = sample_scores(fitted, menu.mode, menu.sample_count, seed)
    return ClassifierModel(positive=positive, negative=negative, skill_factor=1.0)
