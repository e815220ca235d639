"""Trigger-menu calibration: turn-on curves, momentum fits, score sampling.

Builds the first-stage (L1T) and second-stage (HLT) classifier models from
per-path trigger descriptions.  Each path has a logistic turn-on curve
eff(p) = plateau * expit((p - threshold) / width) and an exponential momentum
spectrum PDF(p) = lam * exp(-lam * p); lam is fitted so the modeled path rate

    rate(lam) = input_rate * integral eff(p) * PDF(lam, p) dp

matches the measured per-path rate; `trigger_rate` evaluates that integral
in closed form.  Monte Carlo samples over the fitted spectra then produce
empirical score distributions for the true and false event populations.

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

Calibrate once: `build_menu` keeps two bounded least-recently-used memos.
A fitted lam depends only on its TriggerPath (it has no seed), so a menu
built at a new seed re-samples but never re-fits; the model depends only on
(MenuSpec, seed).  Both keys are frozen dataclasses and both values are
immutable, so a hit hands back the very object a miss built, bit for bit.
A miss calls `fit_lambda` and `sample_scores` through their module names; a
failed fit or sample raises again on every call, since nothing is stored
for it.  `fit_lambda` and `sample_scores` themselves never consult the
memos.  `clear_caches()` empties both, for a caller that patches this
module's functions and needs its next build to see the patch.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .classifier import ClassifierModel, EmpiricalScores
from .errors import FitInfeasibleError

__all__ = [
    "EfficiencyCurve",
    "TriggerPath",
    "MenuSpec",
    "trigger_rate",
    "fit_lambda",
    "sample_scores",
    "build_menu",
    "clear_caches",
]

# lam search bracket for the rate fit, in 1/GeV
FIT_BRACKET = (1e-6, 10.0)
FIT_RATE_RTOL = 1e-4
DEFAULT_SAMPLE_COUNT = 50_000

# Memo bounds: a stream of never-repeating menus (a generated-menu study)
# stays at constant memory.  A model is a few score atoms, a fit one float.
MODEL_CACHE_SIZE = 64
LAMBDA_CACHE_SIZE = 1024


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
        from scipy.special import expit  # imported here: `import daqflow` loads no scipy

        # (p - T)/w overflows to ±inf at a tiny width, or at a p far from T;
        # expit(±inf) is exactly 0 or 1, the step the curve tends to
        with np.errstate(over="ignore"):
            z = (np.asarray(p, dtype=float) - self.threshold) / self.width
        return self.plateau * expit(z)


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


def _cvz_weights(n: int) -> tuple[float, ...]:
    # Cohen, Villegas and Zagier, Experimental Math. 9 (2000) 3-12, Algorithm 1
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, weights = -1.0, -d, []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    return tuple(weights)


# signed weights: sum(w_k * a_k) is sum((-1)^k a_k) for a completely monotone a_k
_CVZ_WEIGHTS = _cvz_weights(24)


def trigger_rate(path: TriggerPath, lam: float) -> float:
    """input_rate * integral of eff(p) * lam * exp(-lam p) over p > 0, in closed form.

    With s = lam * width, c = threshold / width and a = exp(-lam * threshold),
    expanding the logistic in powers of exp(-|p - threshold| / width) on each
    side of the turn-on gives rate = input_rate * plateau * (above + below):

        above = a * s * sum_{k>=0} (-1)^k / (s + k)
              = a * (1 - s * sum_{k>=0} (-1)^k / (s + 1 + k))
        below = s * sum_{k>=1} (-1)^(k+1) b_k,
        b_k   = exp(-min(s, k) c) * (1 - exp(-|k - s| c)) / |k - s|   (c * a at k = s)

    which is the hypergeometric 2F1(1, s; 1 + s; -exp(c)).  Both term
    sequences are moments of a positive measure, so the Cohen-Villegas-Zagier
    acceleration (Experimental Math. 9 (2000) 3-12) sums each to relative
    error below 4 * 5.83^-24 from 24 terms.  The second form of `above` never
    divides by s.  A width of 0, or one so small that c overflows, is a step:
    rate = input_rate * plateau * a.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    curve = path.curve
    a = math.exp(-lam * curve.threshold)
    c = curve.threshold / curve.width if curve.width else math.inf
    if c == math.inf:
        return path.input_rate * curve.plateau * a

    s = lam * curve.width

    def below_term(k: int) -> float:
        gap = abs(k - s)
        if gap == 0.0:
            return c * a
        return math.exp(-min(s, k) * c) * -math.expm1(-gap * c) / gap

    above = a * (1.0 - s * sum(w / (s + k) for k, w in enumerate(_CVZ_WEIGHTS, start=1)))
    below = s * sum(w * below_term(k) for k, w in enumerate(_CVZ_WEIGHTS, start=1))
    return path.input_rate * curve.plateau * (above + below)


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
    # so each lam is evaluated once; trigger_rate stays a call-time global
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
    """Fit every path's spectrum, sample scores, return the classifier model.

    Memoised per (menu, seed), and each fit per path; see the module notes.
    """
    return _built_menu(menu, seed)


@functools.lru_cache(maxsize=LAMBDA_CACHE_SIZE)
def _fitted_lambda(path: TriggerPath) -> float:
    return fit_lambda(path)


@functools.lru_cache(maxsize=MODEL_CACHE_SIZE)
def _built_menu(menu: MenuSpec, seed: int) -> ClassifierModel:
    lams = [_fitted_lambda(path) for path in menu.paths]
    negative, positive = sample_scores(menu.paths, lams, menu.mode, menu.sample_count, seed)
    return ClassifierModel(positive=positive, negative=negative, skill_factor=1.0)


def clear_caches() -> None:
    """Empty both calibration memos: fitted lam per path and model per (menu, seed)."""
    _fitted_lambda.cache_clear()
    _built_menu.cache_clear()
