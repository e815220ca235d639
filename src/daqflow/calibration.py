"""Trigger-menu calibration: turn-on curves, momentum fits, score sampling.

Builds the first-stage (L1T) and second-stage (HLT) classifier models from
per-path trigger descriptions.  Each path has a logistic turn-on curve
eff(p) = plateau / (1 + exp((threshold - p) / width)) and an exponential
momentum spectrum PDF(p) = lam * exp(-lam * p); lam is fitted so the modeled
path rate

    rate(lam) = input_rate * integral eff(p) * PDF(lam, p) dp

matches the measured per-path rate; `trigger_rate` evaluates that integral
in closed form and `fit_lambda` inverts it, both in plain `math`.  The fit
starts from the root of a sharp-turn-on closed form of the rate, exact at
width 0, takes a Newton step on that form's slope, then secant steps, and
evaluates the ends of its lam bracket only when a step needs them: ~1.8
rate evaluations per fit on generated menus.
Monte Carlo samples over the fitted spectra then produce empirical score
distributions for the true and false event populations.

A sampled object's per-path score is its detection outcome: a Bernoulli draw
at probability eff(p).  Using the detection probability itself as the score
would make the two populations perfectly separable (the turn-on curve is
monotone in p, and the populations split exactly at the threshold), which no
real trigger achieves; the sampled outcome keeps the overlap that the
downstream threshold solver works against.

PRNG: numpy PCG64.  Path substreams are seeded with SeedSequence((seed,
crc32(path_name))) and subset choices for positive events come from a
dedicated event stream SeedSequence((seed, crc32("__event__"))), so sampling
is bit-identical across runs for a given seed, regardless of path iteration
order.  Each path draws four blocks in a fixed order: the negative momentum
uniforms, their detection uniforms, the positive ones, theirs.  An outcome
u2 < eff(p) is decided as u2 * (1 + exp(z)) < plateau, z = (threshold - p)
/ width formed from the momentum uniform's log1p (`_add_detections`);
platforms agree as far as their exp and log1p agree, to a few ulps, so an
outcome can differ only for a u2 that close to eff(p), as it can from a
u2 < eff(p) test.  A summed menu's positive events draw their subsets
on the event stream exactly as Generator.choice(p=weights) would: one
uniform per event, located in the normalised cumulative weights, its top
bits by counting and the rest by binary search; path i is above in subset
s when bit i of s + 1 is set.

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

`sample_scores` keeps its large arrays per thread: the two float work rows,
the intp row of subset masks and the two int8 score rows, ~26 bytes per
sample (1.3 MB at n = 50,000).  Each call reuses the arrays of the
thread's last call while n stays the same, since fresh arrays that size
cost page faults on every call; a call still allocates one-byte rows, small
enough for the heap to reuse.  Every row is overwritten or zeroed before it
is read, so a call after a failed one, or at another n, samples as a first
call does.  `clear_caches()` frees the calling thread's scratch as well.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import zlib
from dataclasses import dataclass

from .classifier import ClassifierModel, EmpiricalScores
from .errors import DegeneratePopulationError, FitInfeasibleError

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
# trigger_rate rounds to a few ulps, so it is monotone in lam only to that
# much: the last floats inside a bracket end can give a rate ~5 ulps past
# the end's own rate, and ~0.29 * lam * threshold ulps once exp(-lam *
# threshold) inherits the rounding of a large argument.  A target within
# FIT_END_ULPS + lam * threshold ulps past an end's rate fits that end.
FIT_END_ULPS = 16
DEFAULT_SAMPLE_COUNT = 50_000

# Memo bounds: a stream of never-repeating menus (a generated-menu study)
# stays at constant memory.  A model is a few score atoms, a fit one float.
MODEL_CACHE_SIZE = 64
LAMBDA_CACHE_SIZE = 1024

# The subset draw counts this many top bits of each event's subset index
# before its binary search: 4 was fastest, or within 0.01 ms of it, at every
# k = 4 .. 8 at n = 50,000 (`BENCH_30.json` `subset_table`)
_COUNTED_BITS = 4


@dataclass(frozen=True)
class EfficiencyCurve:
    """Logistic turn-on: plateau / (1 + exp((threshold - p) / width)).

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
        import numpy as np

        return _turn_on(self, np.array(p, dtype=float))


def _turn_on(curve: EfficiencyCurve, p: np.ndarray) -> np.ndarray:
    """Overwrite the float array p with eff(p) and return it; a width of 0 is a step.

    (T - p)/w overflows to ±inf at a tiny width or a p far from T, and exp
    overflows to inf: either gives exactly 0 or plateau, the step the curve
    tends to.
    """
    import numpy as np

    if curve.width == 0.0:
        np.greater(p, curve.threshold, out=p)
        p *= curve.plateau
        return p
    np.subtract(curve.threshold, p, out=p)
    with np.errstate(over="ignore"):
        p /= curve.width
        np.exp(p, out=p)
    p += 1.0
    return np.divide(curve.plateau, p, out=p)


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
    past_s = math.exp(-s * c)  # exp(-min(s, k) c) at every k > s
    above = below = 0.0  # both series, summed left to right
    for k, w in enumerate(_CVZ_WEIGHTS, start=1):
        above += w / (s + k)
        gap = abs(k - s)
        if gap == 0.0:
            below += w * (c * a)
        else:
            below += w * ((math.exp(-k * c) if k < s else past_s) * -math.expm1(-gap * c) / gap)
    return path.input_rate * curve.plateau * (a * (1.0 - s * above) + s * below)


def _sharp_turn_on_root(path: TriggerPath) -> tuple[float, float]:
    """The lam at which the sharp-turn-on closed form of the rate meets the
    target, and the closed form's slope there; lam in 1/GeV.

    Over the whole real line, a logistic turn-on's two-sided Laplace
    transform gives the limit input_rate * plateau * exp(-lam * threshold) *
    pi s / sin(pi s), s = lam * width, for s < 1.  The path's rate leaves out
    the p < 0 part, whose first term is input_rate * plateau * s * exp(-c) /
    (1 - s), c = threshold / width.  The closed form is the limit less that
    term, a fraction q = exp(-(1 - s) c) sin(pi s) / (pi (1 - s)) of it, and
    misses the rate by the next term, ~exp(-(2 - s) c) of the rate.  Newton
    steps solve phi(lam) = lam * threshold - log(pi s / sin(pi s)) -
    log1p(-q) - log(input_rate * plateau / target) = 0, minus the log of the
    closed form over the target, from the width-0 root log(input_rate *
    plateau / target) / threshold; the slope returned is phi'(lam).  The
    width-0 root, with slope threshold, stands in when the width is 0, or
    when s leaves (0, 0.95), q reaches 1 or phi stops rising, where the
    closed form is far from the rate.
    """
    curve = path.curve
    threshold, width = curve.threshold, curve.width
    log_ratio = math.log(path.input_rate * curve.plateau / path.empirical_rate)
    lam = step_root = log_ratio / threshold
    for newton_steps_left in range(5, -1, -1):
        s = lam * width
        if not 0.0 < s < 0.95:
            return step_root, threshold
        x = math.pi * s
        cot = math.pi / math.tan(x)  # d log(sin(pi s)) / ds
        q = math.exp(-(1.0 - s) * (threshold / width)) * math.sin(x) / (math.pi * (1.0 - s))
        if not q < 1.0:
            return step_root, threshold
        # d log q / dlam is threshold + width * (cot + 1 / (1 - s))
        slope = (
            threshold
            - width * (1.0 / s - cot)
            + q * (threshold + width * (cot + 1.0 / (1.0 - s))) / (1.0 - q)
        )
        if not slope > 0.0:
            return step_root, threshold
        if not newton_steps_left:
            return lam, slope
        lam -= (lam * threshold - math.log(x / math.sin(x)) - math.log1p(-q) - log_ratio) / slope


def fit_lambda(path: TriggerPath) -> float:
    """Invert the monotone lam -> rate map onto the measured path rate; lam in 1/GeV.

    The rate is strictly decreasing in lam, so the root of log(rate /
    target) is unique.  The first point is the root of the sharp-turn-on
    closed form (`_sharp_turn_on_root`), 5.2e-8 from the fit on the bundled
    L1 paths; the second is a Newton step on that closed form's slope, and
    each later one the secant step through the two newest points.  A
    FIT_BRACKET end is evaluated only when the fit needs it: until some
    point lies on each side of the root, a step that would leave the
    bracket, end within the stopping distance of an end, turn back past
    the newest point or, from the third point on, grow longer than the
    step before it (the secant creeps where the residual flattens)
    evaluates the end on the root's side instead.  A target past that end's
    rate by at most FIT_END_ULPS + lam * threshold ulps of that rate fits
    that end; past it by more, no lam in the bracket fits.  Once the root
    is bracketed, a step that leaves the bracket, and the step after three
    points in a row on one side of the root, is the regula falsi step on
    the bracket with the Illinois rule (Dowell and Jarratt, BIT 11 (1971)
    168-174), so the bracket keeps shrinking.  The fit stops once the next
    step would move lam by <= 1e-10 * lam, no float lies inside the
    bracket or a residual is 0, and returns the evaluated lam of smallest
    residual; each lam is evaluated once.  The fitted rate must then be
    within FIT_RATE_RTOL of the target.
    """
    target = path.empirical_rate
    log_target = math.log(target)
    lo, hi = FIT_BRACKET
    end_rates: dict[float, float] = {}

    def residual(rate: float) -> float:
        # a rate that underflows to 0 (hard spectra far above a high
        # threshold) counts as the smallest positive float, not log(0)
        return math.log(max(rate, math.ulp(0.0))) - log_target

    def fits_end(end: float, rate: float) -> bool:
        # whether the target lies at or past the end's rate, which is `rate`
        end_rates[end] = rate
        slack = (FIT_END_ULPS + end * path.curve.threshold) * math.ulp(rate)
        if not (rate - slack <= target if end == hi else target <= rate + slack):
            rate_lo, rate_hi = (
                end_rates[e] if e in end_rates else trigger_rate(path, e) for e in FIT_BRACKET
            )
            raise FitInfeasibleError(
                f"path {path.object_name!r}: target rate {target:.6g} Hz outside the attainable "
                f"range [{rate_hi:.6g}, {rate_lo:.6g}] Hz for lam in {FIT_BRACKET} 1/GeV"
            )
        return target <= rate if end == hi else target >= rate

    # b is the newest point, prev the one before it and run the number of
    # points in a row on b's side of the root; a, once a point lies on the
    # other side, is the newest such point, and fa is halved by the Illinois
    # rule.  trigger_rate stays a call-time global.
    inner_lo, inner_hi = lo * (1.0 + 1e-10), hi * (1.0 - 1e-10)  # within stopping distance
    lam, slope = _sharp_turn_on_root(path)
    best = (math.inf, math.nan, math.nan)
    a = fa = b = fb = prev = None
    run = 0
    while best[0] > 0.0:
        if a is not None:
            if not min(a, b) < lam < max(a, b):
                lam = b - fb * (b - a) / (fb - fa)
                if not min(a, b) < lam < max(a, b):
                    break
        elif b is None:
            if not inner_lo < lam < inner_hi:
                lam = lo if lam <= inner_lo else hi
        elif not (b < lam < inner_hi if fb > 0.0 else inner_lo < lam < b):
            lam = hi if fb > 0.0 else lo
        rate = trigger_rate(path, lam)
        if (lam == lo or lam == hi) and fits_end(lam, rate):
            return lam
        f = residual(rate)
        best = min(best, (abs(f), lam, rate))
        if b is None:
            b, fb, run = lam, f, 1
            lam += f / slope  # Newton on the closed form's slope
        else:
            if (f < 0.0) == (fb < 0.0):
                run += 1
                if a is not None:
                    fa /= 2.0  # Illinois: halve the residual of a bracket end kept again
            else:
                a, fa, run = b, fb, 1
            prev, f_prev, b, fb = b, fb, lam, f
            # equal residuals have no secant: nan leaves the bracket
            lam = b - fb * (b - prev) / (fb - f_prev) if fb != f_prev else math.nan
        if abs(lam - b) <= 1e-10 * b and (a is not None or inner_lo < lam < inner_hi):
            break
        if run >= 3:
            if a is not None:
                lam = b - fb * (b - a) / (fb - fa)
            elif abs(lam - b) > abs(b - prev):
                lam = math.nan  # leaves, so the end on the root's side is evaluated
    _, lam, rate = best
    if abs(rate - target) > FIT_RATE_RTOL * target:
        raise FitInfeasibleError(
            f"path {path.object_name!r}: the fit stopped at lam={lam:.9g} "
            f"(rate {rate:.6g} Hz vs target {target:.6g} Hz)"
        )
    return lam


# === score sampling ===


def _substream(seed: int, label: str) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8")))))
    )


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
    n positive samples and coincide exactly for a single-path menu.  A
    summed menu whose every path fits exp(-lam * threshold) == 0 has no
    positive event and raises DegeneratePopulationError.
    """
    fitted = tuple(zip(paths, lams, strict=True))
    for path, lam in fitted:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"path {path.object_name!r}: lam must be finite and > 0, got {lam}")
    import numpy as np

    work, events, scores = _scratch_for(n)
    scores.fill(0)  # per sample, its paths' detections (k <= 20)
    if mode == "summed":
        _above_subsets(fitted, seed, work, events)
        above = np.empty(n, dtype=np.int8)
        for path, lam in fitted:
            np.bitwise_and(events, 1, out=above, casting="unsafe")
            events >>= 1  # the next path's bit comes down to bit 0
            _add_detections(path, lam, seed, above, scores, work)
    elif mode == "one-at-a-time":
        # n split over the k paths, the first n % k one larger; positives all above threshold
        for (path, lam), share in zip(fitted, np.array_split(scores, len(fitted), axis=1)):
            _add_detections(path, lam, seed, 1, share, work)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    negative, positive = (_scores_from_counts(_atom_counts(score)) for score in scores)
    return negative, positive


# per thread, the arrays of its last sample_scores call; see the module notes
_scratch = threading.local()


def _scratch_for(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's sampling scratch for n samples: two float rows, an intp row, two int8 rows."""
    import numpy as np

    held = getattr(_scratch, "arrays", None)
    if held is None or len(held[1]) != n:
        held = _scratch.arrays = (np.empty((2, n)), np.empty(n, np.intp), np.empty((2, n), np.int8))
    return held


def _atom_counts(row: np.ndarray) -> list[int]:
    # np.bincount(row) of an int8 row of scores 0..k, without its n-sized intp copy of the row
    import numpy as np

    return [int(np.count_nonzero(row == score)) for score in range(int(row.max(initial=0)) + 1)]


def _scores_from_counts(counts: list[int]) -> EmpiricalScores:
    # counts[s] samples scored s; EmpiricalScores keeps the scores that occur
    values = [score for score, count in enumerate(counts) if count]
    return EmpiricalScores(
        tuple(map(float, values)), tuple(itertools.accumulate(counts[v] for v in values))
    )


def _above_subsets(fitted, seed: int, work: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Per positive event, the bit mask of the paths whose object lands above threshold.

    Each event draws a non-empty subset S with P(S) ~ prod_in(a) * prod_out(1 - a),
    where a = exp(-lam * threshold) is the path's chance of an object above.
    Subset s (0-based) has mask s + 1: bit i set means path i is above.  The
    masks overwrite and return the intp row events, one per event; work
    holds two rows of at least n = len(events) floats, overwritten.  The
    draw is Generator.choice(len(weights), size=n, p=weights) step for
    step: the same cdf, the same uniforms, and per event the count of cdf
    entries <= u that its searchsorted(side="right") finds.  The top
    min(k, _COUNTED_BITS) bits of that count are the count of the cdf's
    block ends <= u, exact since cdf is sorted: 15 compare-adds into a
    one-byte row at k = 4.  A branch-free binary search decides the rest.
    """
    if len(fitted) > 20:
        raise ValueError("summed mode enumerates 2^k - 1 subsets; menu too large")
    import numpy as np

    # weights[m] = P(mask m): path i doubles the table, its upper half setting bit i
    weights = np.ones(1)
    for path, lam in fitted:
        above_prob = math.exp(-lam * path.curve.threshold)
        weights = np.concatenate((weights * (1.0 - above_prob), weights * above_prob))
    weights = weights[1:]
    total = weights.sum()
    if not total > 0.0:
        names = ", ".join(repr(path.object_name) for path, _ in fitted)
        raise DegeneratePopulationError(
            f"summed menu of paths {names}: no object can land above its threshold "
            f"(every exp(-lam * threshold) underflows to 0), so no positive event exists"
        )
    weights /= total
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    n = len(events)
    uniforms, probes = work[:, :n]
    _substream(seed, "__event__").random(out=uniforms)
    # len(cdf) is 2^k - 1.  Blocks of step entries end at cdf[j step - 1], j =
    # 1 .. 2^counted - 1, and the count of block ends <= u is the block that
    # holds the count of entries <= u.
    step = 1 << (len(fitted) - min(len(fitted), _COUNTED_BITS))
    top = np.zeros(n, dtype=np.uint8)
    bit = np.empty(n, dtype=bool)
    for block_end in cdf[step - 1 :: step]:
        top += np.less_equal(block_end, uniforms, out=bit)
    idx = events
    idx[:] = top
    # with idx the bits decided so far, the next bit is cdf[(2 idx + 1) step
    # - 1] <= u, element idx of cdf[step - 1 :: 2 step]
    while step > 1:
        step >>= 1
        # every index is in range: "clip" only skips the check that buffers `out`
        np.take(cdf[step - 1 :: 2 * step], idx, out=probes, mode="clip")
        idx <<= 1
        idx += np.less_equal(probes, uniforms, out=bit)
    idx += 1
    return idx


def _add_detections(
    path: TriggerPath, lam: float, seed: int, above, scores: np.ndarray, work: np.ndarray
) -> None:
    """Add one path's detection outcomes to scores[0] (negative) and scores[1] (positive).

    Negative momenta lie below the threshold T; positive ones lie above it
    where `above` (1, or an int8 row of 0/1 per sample) is 1 and below it
    elsewhere.  The draw order is fixed: negative-block momentum uniforms
    u1, their detection uniforms u2, then the positive blocks in the same
    order.  By the inverse CDF, p = -L / lam below T (the exponential
    truncated to (0, T]) and T - L / lam above it (the memoryless tail),
    L = log1p(u1 * scale), scale = -(1 - exp(-lam * T)) below and -1 above.
    So (T - p) / width = L * k + c, k = 1 / (lam * width), c = T / width
    below and 0 above, and u2 < eff(p) is u2 * (1 + exp(L * k + c)) <
    plateau: no momentum and no division.  An exp that overflows gives no
    detection (inf, or nan at u2 = 0), as eff(p) = 0 does.  A step curve,
    or one whose c or k is not finite, builds the momenta and evaluates
    `_turn_on` on them.  A row's term per side goes through the uniforms
    row before its draw as above * (above's - below's) + below's, exact
    for each term (for the scale, the sum rounds away the <= 2**-54 error
    of -1 - scale), so both forms of `above` come out bit for bit.  work
    holds two rows of at least len(scores[0]) floats, overwritten.
    """
    import numpy as np

    curve = path.curve
    rng, n = _substream(seed, path.object_name), scores.shape[1]
    x, uniforms = work[:, :n]

    def by_side(side, if_below: float, if_above: float):
        # if_below where side is 0 and if_above where it is 1: a float, or a row in uniforms
        if not isinstance(side, np.ndarray):
            return if_above if side else if_below
        np.multiply(side, if_above - if_below, out=uniforms)
        return np.add(uniforms, if_below, out=uniforms)

    k = 1.0 / (lam * curve.width) if lam * curve.width else math.inf
    c = curve.threshold / curve.width if curve.width else math.inf
    logistic = math.isfinite(k) and math.isfinite(c)
    below_scale = -(1.0 - math.exp(-lam * curve.threshold))
    with np.errstate(over="ignore", invalid="ignore"):
        for side, score in zip((0, above), scores):
            rng.random(out=x)
            x *= by_side(side, below_scale, -1.0)
            np.log1p(x, out=x)
            if logistic:
                x *= k
                x += by_side(side, c, 0.0)
                np.exp(x, out=x)
                x += 1.0
                x *= rng.random(out=uniforms)
                score += x < curve.plateau
            else:
                x /= -lam
                x += by_side(side, 0.0, curve.threshold)
                score += rng.random(out=uniforms) < _turn_on(curve, x)


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
    """Empty both memos (lam per path, model per (menu, seed)) and this thread's scratch.

    The scratch is the ~26 bytes per sample (1.3 MB at n = 50,000) that
    `sample_scores` keeps for its last n.
    """
    _fitted_lambda.cache_clear()
    _built_menu.cache_clear()
    vars(_scratch).clear()
