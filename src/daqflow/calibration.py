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

import functools
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .classifier import ClassifierModel, EmpiricalScores
from .errors import FitInfeasibleError, QuadratureError

__all__ = [
    "EfficiencyCurve",
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
class TriggerPath:
    object_name: str
    curve: EfficiencyCurve
    empirical_rate: float  # Hz
    input_rate: float  # Hz

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


def _integrand(curve: EfficiencyCurve, lam: float):
    """eff(u / lam) * exp(-u) for one float u, in plain `math`.

    Equal to curve(u / lam) * exp(-u) to a few ulps: the logistic takes the
    branch whose exponential cannot overflow, so arguments far below the
    turn-on give a tiny positive value instead of an OverflowError.
    """
    threshold, width, plateau = curve.threshold, curve.width, curve.plateau
    exp = math.exp  # bound once: quad calls g hundreds of times per rate

    def g(u: float) -> float:
        x = (u / lam - threshold) / width
        if x >= 0.0:
            eff = 1.0 / (1.0 + exp(-x))
        else:
            e = exp(x)
            eff = e / (1.0 + e)
        return plateau * eff * exp(-u)

    return g


def trigger_rate(path: TriggerPath, lam: float) -> float:
    """input_rate * integral of eff(p) * lam * exp(-lam p) over p > 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    curve = path.curve
    if curve.width == 0.0:
        return path.input_rate * curve.plateau * math.exp(-lam * curve.threshold)

    from scipy import integrate  # imported here: commands that never fit skip its load time

    # Substituting u = lam * p makes the exponential decay on an O(1) scale
    # for any lam, so the quadrature never has to chase a 1/lam-wide tail.
    # The interval splits at the turn-on u_t so the sharp transition sits on
    # an edge.  Below the turn-on the integrand is negligible past u = 60
    # (bounded by exp(-60)); that remainder goes into the error budget.
    u_t = lam * curve.threshold
    g = _integrand(curve, lam)

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


def fit_lambda(path: TriggerPath) -> float:
    """Invert the monotone lam -> rate map onto the measured path rate; lam in 1/GeV.

    The rate is strictly decreasing in lam, so once the target lies between
    the rates at the ends of FIT_BRACKET, Brent's method (scipy brentq) finds
    the unique root of log(rate / target) to 1e-10 relative in lam.  On the
    log scale a sharp turn-on, rate ~ exp(-lam * threshold), is linear in
    lam, so the interpolation steps land close from the first iteration.
    The fitted rate must then be within FIT_RATE_RTOL of the target.
    """
    from scipy import optimize

    # brentq re-evaluates the bracket ends and returns a point it evaluated,
    # so each lam is integrated once; trigger_rate stays a call-time global
    rate_at = functools.cache(lambda lam: trigger_rate(path, lam))
    target = path.empirical_rate
    lo, hi = FIT_BRACKET
    rate_lo = rate_at(lo)
    rate_hi = rate_at(hi)
    if not (rate_hi <= target <= rate_lo):
        raise FitInfeasibleError(
            f"path {path.object_name!r}: target rate {target:.6g} Hz outside the attainable "
            f"range [{rate_hi:.6g}, {rate_lo:.6g}] Hz for lam in {FIT_BRACKET} 1/GeV"
        )
    log_target = math.log(target)

    def residual(lam: float) -> float:
        # a rate that underflows to 0 (hard spectra far above a high
        # threshold) counts as the smallest positive float, not log(0)
        return math.log(max(rate_at(lam), math.ulp(0.0))) - log_target

    lam, result = optimize.brentq(
        residual, lo, hi, xtol=1e-12, rtol=1e-10, full_output=True, disp=False
    )
    rate = rate_at(lam)
    if not result.converged or abs(rate - target) > FIT_RATE_RTOL * target:
        raise FitInfeasibleError(
            f"path {path.object_name!r}: Brent's method stopped at lam={lam:.9g} "
            f"({result.flag}; rate {rate:.6g} Hz vs target {target:.6g} Hz)"
        )
    return lam


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
    lams: list[float] | tuple[float, ...],
    mode: str,
    n: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> tuple[EmpiricalScores, EmpiricalScores]:
    """Monte Carlo the (negative, positive) empirical score distributions.

    lams holds each path's fitted spectrum slope (1/GeV), in path order.
    Negative samples are events with every object below its path threshold;
    positive samples have at least one object above.  In "summed" mode the
    per-path detection outcomes of one event add into a single scalar score;
    in "one-at-a-time" mode each path contributes its own scores to the
    pooled populations without summation.  Both modes return n negative and
    n positive samples and coincide exactly for a single-path menu.
    """
    fitted = tuple(zip(paths, lams, strict=True))
    for path, lam in fitted:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"path {path.object_name!r}: lam must be finite and > 0, got {lam}")
    if mode == "summed":
        above = _above_subsets(fitted, n, seed)
        negative, positive = np.zeros(n), np.zeros(n)
        for i, (path, lam) in enumerate(fitted):
            neg, pos = _detections(path, lam, seed, above[:, i])
            negative += neg
            positive += pos
    elif mode == "one-at-a-time":
        # n split over the k paths, the first n % k one larger; positives all above threshold
        shares = np.array_split(np.ones(n, dtype=bool), len(fitted))
        parts = [_detections(path, lam, seed, above) for (path, lam), above in zip(fitted, shares)]
        negative, positive = (np.concatenate(side) for side in zip(*parts))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return EmpiricalScores.from_samples(negative), EmpiricalScores.from_samples(positive)


def _above_subsets(fitted, n: int, seed: int) -> np.ndarray:
    """(n, k) booleans: per positive event, the paths whose object lands above threshold.

    Each event draws a non-empty subset S with P(S) ~ prod_in(a) * prod_out(1 - a),
    where a = exp(-lam * threshold) is the path's chance of an object above.
    """
    k = len(fitted)
    if k > 20:
        raise ValueError("summed mode enumerates 2^k - 1 subsets; menu too large")
    above_prob = np.array([math.exp(-lam * path.curve.threshold) for path, lam in fitted])
    masks = np.array([[(s + 1) >> i & 1 for i in range(k)] for s in range(2**k - 1)], dtype=bool)
    weights = np.prod(np.where(masks, above_prob, 1.0 - above_prob), axis=1)
    weights /= weights.sum()
    subset = _substream(seed, "__event__").choice(len(weights), size=n, p=weights)
    return masks[subset]


def _detections(
    path: TriggerPath, lam: float, seed: int, above: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One path's (negative, positive) detection outcomes, len(above) of each.

    Negative momenta lie below the threshold; positive ones lie above it
    where `above` is true and below it elsewhere.  The draw order is fixed:
    negative-block momenta, their detection outcomes, then the positive
    blocks in the same order.
    """
    rng = _substream(seed, path.object_name)
    threshold, count = path.curve.threshold, len(above)
    u = rng.random(count)
    negative = rng.random(count) < path.curve(_momenta_below(u, lam, threshold))
    u = rng.random(count)
    momenta = np.where(above, _momenta_above(u, lam, threshold), _momenta_below(u, lam, threshold))
    return negative, rng.random(count) < path.curve(momenta)


def build_menu(menu: MenuSpec, seed: int = 0) -> ClassifierModel:
    """Fit every path's spectrum, sample scores, return the classifier model."""
    lams = [fit_lambda(path) for path in menu.paths]
    negative, positive = sample_scores(menu.paths, lams, menu.mode, menu.sample_count, seed)
    return ClassifierModel(positive=positive, negative=negative, skill_factor=1.0)
