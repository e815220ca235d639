"""Turn-on curves, spectrum fits, and score sampling.

Trigger rates are checked against mpmath's hypergeometric function at 50
digits and against dense fixed-grid trapezoid sums, the fitter against a
log-grid scan and scipy's brentq, and the samplers against conditional
expectations from quadrature, so no check leans on the code under test for
its reference value.
The sampler's exact output is pinned, and checked atom for atom against a
straightforward reference sampler kept here, which decides each detection
with the turn-on curve itself.
"""

import math
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.special import expit

import daqflow
from daqflow import calibration
from daqflow.calibration import (
    FIT_BRACKET,
    FIT_END_ULPS,
    FIT_RATE_RTOL,
    EfficiencyCurve,
    MenuSpec,
    TriggerPath,
    build_menu,
    fit_lambda,
    sample_scores,
    trigger_rate,
)
from daqflow.classifier import EmpiricalScores
from daqflow.config import load_config
from daqflow.errors import DegeneratePopulationError, FitInfeasibleError

CONFIG_DIR = Path(daqflow.__file__).parent / "configs"


def _sigmoid_path(threshold=30.0, width=2.0, plateau=0.95, rate=10e3, input_rate=40e6):
    curve = EfficiencyCurve(threshold=threshold, width=width, plateau=plateau)
    return TriggerPath("obj", curve, empirical_rate=rate, input_rate=input_rate)


def test_trigger_rate_matches_dense_trapezoid():
    path = _sigmoid_path()
    lam = 0.1
    p = np.linspace(0.0, 300.0, 2**20 + 1)
    integrand = 0.95 * expit((p - 30.0) / 2.0) * lam * np.exp(-lam * p)
    oracle = 40e6 * np.trapezoid(integrand, p)  # tail beyond 300 GeV < 1e-11 relative
    assert trigger_rate(path, lam) == pytest.approx(oracle, rel=1e-5)


def _hypergeometric_rate(path, lam):
    """input * plateau * 2F1(1, s; 1 + s; -exp(c)), s = lam * width, c = threshold / width."""
    with mpmath.workdps(50):
        width = mpmath.mpf(path.curve.width)
        s = mpmath.mpf(lam) * width
        c = mpmath.mpf(path.curve.threshold) / width
        scale = mpmath.mpf(path.input_rate) * mpmath.mpf(path.curve.plateau)
        return scale * mpmath.hyp2f1(1, s, 1 + s, -mpmath.exp(c))


def _relative_miss(path, lam):
    exact = _hypergeometric_rate(path, lam)
    with mpmath.workdps(50):
        return float(abs(trigger_rate(path, lam) - exact) / exact), exact


@settings(max_examples=300, deadline=None)
@given(
    log10_lam=st.floats(math.log10(FIT_BRACKET[0]), math.log10(FIT_BRACKET[1])),
    threshold=st.floats(2.0, 300.0),
    width_frac=st.floats(1e-3, 0.5),
    plateau=st.floats(0.0, 1.0, exclude_min=True),
)
def test_trigger_rate_matches_the_hypergeometric_closed_form(
    log10_lam, threshold, width_frac, plateau
):
    path = _sigmoid_path(threshold, threshold * width_frac, plateau, rate=1.0)
    miss, exact = _relative_miss(path, 10.0**log10_lam)
    if exact > 1e-300:
        assert miss <= 1e-12


@pytest.mark.parametrize(
    "threshold, width, lam", [(3.0, 0.5, 2.0), (30.0, 0.5, 4.0), (30.0, 2.0, 3.0)]
)
def test_trigger_rate_at_an_integer_s(threshold, width, lam):
    # s = lam * width is an integer, so one below-turn-on term sits at k = s
    path = _sigmoid_path(threshold, width, plateau=0.95, rate=1.0)
    assert (lam * width).is_integer()
    miss, _ = _relative_miss(path, lam)
    assert miss <= 1e-12


def _trigger_rate_as_two_sums(path, lam):
    """trigger_rate as first written: two series over a below-threshold term function.

    Each series is summed by an explicit left-to-right loop, as sum() did
    up to Python 3.11; from 3.12 sum() of floats is compensated and would
    round differently.
    """
    curve = path.curve
    a = math.exp(-lam * curve.threshold)
    c = curve.threshold / curve.width if curve.width else math.inf
    if c == math.inf:
        return path.input_rate * curve.plateau * a
    s = lam * curve.width

    def below_term(k):
        gap = abs(k - s)
        if gap == 0.0:
            return c * a
        return math.exp(-min(s, k) * c) * -math.expm1(-gap * c) / gap

    def left_to_right(terms):
        total = 0
        for term in terms:
            total += term
        return total

    weights = tuple(enumerate(calibration._CVZ_WEIGHTS, start=1))
    above = a * (1.0 - s * left_to_right(w / (s + k) for k, w in weights))
    below = s * left_to_right(w * below_term(k) for k, w in weights)
    return path.input_rate * curve.plateau * (above + below)


@settings(max_examples=500, deadline=None)
@given(
    threshold=st.floats(1.0, 400.0),
    width=st.one_of(st.sampled_from([0.0, 1e-310]), st.floats(1e-3, 1000.0)),
    plateau=st.floats(0.0, 1.0, exclude_min=True),
    lam=st.floats(*map(math.log10, FIT_BRACKET)).map(lambda log10_lam: 10.0**log10_lam),
)
# s = lam * width is an integer, so one below-turn-on term sits at k = s
@example(threshold=3.0, width=0.5, plateau=1.0, lam=2.0)
@example(threshold=30.0, width=2.0, plateau=0.95, lam=3.0)
@example(threshold=300.0, width=900.0, plateau=1.0, lam=10.0)  # s = 9000: every k < s
def test_trigger_rate_is_its_two_sum_form_bit_for_bit(threshold, width, plateau, lam):
    path = _sigmoid_path(threshold, width, plateau, rate=1.0)
    assert trigger_rate(path, lam) == _trigger_rate_as_two_sums(path, lam)


def test_near_plateau_rate_and_fit_are_exact():
    # a rate fraction of 0.99945, where a relative miss in the rate is ~160
    # times larger in the fitted lam: a 1e-4 miss there is a percent in lam
    lam = 1.857e-4
    path = _sigmoid_path(threshold=2.949, width=0.681, plateau=1.0, rate=1.0)
    miss, exact = _relative_miss(path, lam)
    assert miss <= 1e-12
    fitted = fit_lambda(replace(path, empirical_rate=float(exact)))
    assert fitted == pytest.approx(lam, rel=1e-9, abs=0.0)


def test_step_curve_rate_is_the_closed_form():
    # a width so small that threshold / width overflows is a step as well
    for width in (0.0, 1e-310):
        curve = EfficiencyCurve(threshold=30.0, width=width, plateau=0.9)
        path = TriggerPath("obj", curve, empirical_rate=1e3, input_rate=40e6)
        for lam in (1e-3, 0.05, 0.4, 1.0):
            assert trigger_rate(path, lam) == 40e6 * 0.9 * math.exp(-lam * 30.0)


@pytest.mark.parametrize(
    "width, p, expected",
    [
        (1e-310, [10.0, 30.0, 50.0], [0.0, 0.475, 0.95]),  # (p - T)/w overflows off the threshold
        (0.5, [-1e308, 1e308], [0.0, 0.95]),  # a moderate width, a p far from T
    ],
)
def test_an_overflowing_turn_on_quotient_is_a_step_without_a_warning(width, p, expected):
    # the suite's error::RuntimeWarning filter turns an unguarded overflow into a failure
    curve = EfficiencyCurve(threshold=30.0, width=width, plateau=0.95)
    assert curve(np.array(p)).tolist() == expected


@pytest.mark.parametrize("width", [0.0, 1e-310])
def test_a_vanishing_width_is_a_step(width):
    curve = EfficiencyCurve(threshold=30.0, width=width, plateau=0.95)
    p = np.array([0.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, 60.0), 1e3])
    assert curve(p).tolist() == [0.0, 0.0, 0.95, 0.95]


@pytest.mark.parametrize("plateau", [1.0, 0.95, 1e-3])
@pytest.mark.parametrize("width", [1e-6, 0.05, 2.0, 80.0])
def test_the_curve_is_within_4_ulps_of_scaled_expit(width, plateau):
    # (p - T)/w from below where expit underflows, past exp's overflow at
    # -709.78, to 40 widths above the threshold
    p = 30.0 + np.linspace(-745.0, 40.0, 200_001) * width
    curve = EfficiencyCurve(threshold=30.0, width=width, plateau=plateau)(p)
    reference = plateau * expit((p - 30.0) / width)
    normal = reference >= np.finfo(float).tiny
    ulps = np.abs(curve - reference)[normal] / np.spacing(reference[normal])
    assert ulps.max() <= 4.0
    assert np.all(curve[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("width", [0.0, 2.0])
def test_the_curve_leaves_its_argument_unchanged(width):
    p = np.linspace(0.0, 60.0, 13)
    EfficiencyCurve(threshold=30.0, width=width, plateau=0.95)(p)
    assert p.tolist() == np.linspace(0.0, 60.0, 13).tolist()


def test_fit_lambda_matches_grid_scan():
    path = _sigmoid_path(rate=10e3)
    fitted = fit_lambda(path)

    # independent rate model: trapezoid in u = lam * p on a fixed grid
    u = np.linspace(0.0, 60.0, 2**14 + 1)
    decay = np.exp(-u)

    def rate(lam):
        eff = 0.95 * expit((u / lam - 30.0) / 2.0)
        return 40e6 * np.trapezoid(eff * decay, u)

    grid = np.geomspace(1e-2, 10.0, 10_000)
    residuals = np.array([abs(rate(lam) - 10e3) for lam in grid])
    oracle = grid[int(np.argmin(residuals))]
    assert fitted == pytest.approx(oracle, rel=1e-3)


def test_step_fit_recovers_the_log_ratio_closed_form():
    # rate = input * plateau * exp(-lam T), so lam = ln(R0 / R) / T exactly
    curve = EfficiencyCurve(threshold=30.0, width=0.0, plateau=0.95)
    r0 = 40e6 * 0.95
    for lam_true in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        target = r0 * math.exp(-lam_true * 30.0)
        closed_form = math.log(r0 / target) / 30.0
        assert closed_form == pytest.approx(lam_true, rel=1e-12)
        path = TriggerPath("obj", curve, empirical_rate=target, input_rate=40e6)
        assert fit_lambda(path) == pytest.approx(closed_form, rel=1e-6)


def test_fit_round_trips_across_three_decades():
    base = _sigmoid_path()
    for lam_true in np.geomspace(1e-3, 1.0, 7):
        target = trigger_rate(base, float(lam_true))
        path = replace(base, empirical_rate=target)
        assert fit_lambda(path) == pytest.approx(float(lam_true), rel=1e-3)


def test_fit_rejects_unreachable_targets():
    path = _sigmoid_path(rate=0.99 * 40e6)  # above the plateau ceiling
    with pytest.raises(FitInfeasibleError, match="attainable"):
        fit_lambda(path)


def _brentq_fit(path):
    """lam from scipy's brentq on the same log residual, or None if no lam hits the target."""
    lo, hi = FIT_BRACKET
    log_target = math.log(path.empirical_rate)

    def residual(lam):
        return math.log(max(trigger_rate(path, lam), math.ulp(0.0))) - log_target

    if residual(lo) < 0.0 or residual(hi) > 0.0:
        return None
    lam = optimize.brentq(residual, lo, hi, xtol=1e-300, rtol=4 * math.ulp(1.0), disp=False)
    miss = abs(trigger_rate(path, lam) - path.empirical_rate)
    return lam if miss <= FIT_RATE_RTOL * path.empirical_rate else None


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(3.0, 250.0),
    width_frac=st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
    plateau=st.floats(0.05, 1.0),
    log10_frac=st.floats(-12.0, 0.0),
)
def test_fit_either_hits_the_target_or_reports_infeasible(
    threshold, width_frac, plateau, log10_frac
):
    input_rate = 40e6
    path = _sigmoid_path(
        threshold, threshold * width_frac, plateau, input_rate * 10.0**log10_frac, input_rate
    )
    oracle = _brentq_fit(path)
    try:
        lam = fit_lambda(path)
    except FitInfeasibleError:
        assert oracle is None
        return
    assert abs(trigger_rate(path, lam) / path.empirical_rate - 1.0) <= FIT_RATE_RTOL
    assert oracle == pytest.approx(lam, rel=1e-8, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    threshold=st.floats(3.0, 250.0),
    width_frac=st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
    plateau=st.floats(0.05, 1.0),
    log10_lam=st.floats(math.log10(FIT_BRACKET[0]), math.log10(FIT_BRACKET[1])),
)
# an absolute tolerance of 1e-12 in lam stops 2.4e-7 relative short here
@example(threshold=214.2, width_frac=16.8 / 214.2, plateau=0.578, log10_lam=math.log10(1.026e-6))
# the lam an ulp below the bracket top has a rate an ulp below the top's rate
@example(threshold=3.0, width_frac=0.14684, plateau=1.0, log10_lam=math.log10(9.999999999999998))
def test_fit_round_trips_the_rate_of_any_lam_in_the_bracket(
    threshold, width_frac, plateau, log10_lam
):
    path = _sigmoid_path(threshold, threshold * width_frac, plateau, rate=1.0)
    lam = 10.0**log10_lam
    rate = trigger_rate(path, lam)
    assume(rate >= 1e-12 * path.input_rate)
    fitted = fit_lambda(replace(path, empirical_rate=rate))
    assert fitted == pytest.approx(lam, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("end, away", [(FIT_BRACKET[0], math.inf), (FIT_BRACKET[1], 0.0)])
def test_a_target_a_few_ulps_past_a_bracket_end_fits_that_end(end, away):
    base = _sigmoid_path(threshold=3.0, width=0.5)
    target = trigger_rate(base, end)
    for _ in range(FIT_END_ULPS + math.floor(end * base.curve.threshold)):
        target = math.nextafter(target, away)
    assert fit_lambda(replace(base, empirical_rate=target)) == end
    with pytest.raises(FitInfeasibleError, match="attainable"):
        fit_lambda(replace(base, empirical_rate=math.nextafter(target, away)))


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(30.0, 60.0),
    width=st.floats(0.03, 0.6),
    plateau=st.floats(0.05, 1.0),
    input_rate=st.floats(1e3, 40e6),
)
# the rate at the last float below the bracket top is 113 ulps below the
# top's own: exp(-lam * threshold) rounds like its argument, lam * threshold ~ 394
@example(
    threshold=39.35660750736197,
    width=0.0995376285991442,
    plateau=0.9331362778003371,
    input_rate=140365.48111803457,
)
def test_the_rate_of_the_last_lam_inside_the_bracket_fits(threshold, width, plateau, input_rate):
    path = _sigmoid_path(threshold, width, plateau, 1.0, input_rate)
    for end, inward in ((FIT_BRACKET[0], math.inf), (FIT_BRACKET[1], 0.0)):
        lam = math.nextafter(end, inward)
        rate = trigger_rate(path, lam)
        assume(rate > 0.0)
        assert fit_lambda(replace(path, empirical_rate=rate)) == pytest.approx(lam, rel=1e-9)


@pytest.mark.parametrize("end", FIT_BRACKET)
def test_a_target_at_a_bracket_end_fits_that_end_exactly(end):
    base = _sigmoid_path(threshold=3.0, width=0.5)
    path = replace(base, empirical_rate=trigger_rate(base, end))
    assert path.empirical_rate > 0.0
    assert fit_lambda(path) == end


def test_fit_reports_a_root_whose_rate_underflows_to_zero():
    # the rate at the top of the bracket underflows to 0 Hz, below the
    # 1e-320 Hz target, so the bracket holds it; the rate at the lam where
    # the fit stops underflows as well, 0 Hz against 1e-320 Hz
    path = TriggerPath("x", EfficiencyCurve(80.0, 0.0, 0.95), 1e-320, 40e6)
    with pytest.raises(FitInfeasibleError, match=r"the fit stopped at lam=9\.31.*rate 0 Hz"):
        fit_lambda(path)


@pytest.mark.parametrize("width", [0.0, 0.1])
def test_fit_survives_a_rate_that_underflows_at_the_bracket_end(width):
    # at lam = 10/GeV a 200 GeV path's rate is exp(-2000): exactly 0.0
    path = _sigmoid_path(threshold=200.0, width=width, plateau=0.9, rate=10.0)
    assert trigger_rate(path, calibration.FIT_BRACKET[1]) == 0.0
    lam = fit_lambda(path)
    assert trigger_rate(path, lam) == pytest.approx(10.0, rel=FIT_RATE_RTOL)
    if width == 0.0:
        assert lam == pytest.approx(math.log(40e6 * 0.9 / 10.0) / 200.0, rel=1e-9)


def _bundled_paths():
    paths = {}
    for cfg_path in sorted(CONFIG_DIR.glob("cms_*.cfg")):
        cfg = load_config(cfg_path)
        for menu in cfg.menus.values():
            for path in menu.paths:
                paths.setdefault(repr(path), path)
    return list(paths.values())


def test_fit_needs_few_rate_evaluations(monkeypatch):
    calls = 0
    rate = calibration.trigger_rate

    def counted(path, lam):
        nonlocal calls
        calls += 1
        return rate(path, lam)

    # fit_lambda resolves trigger_rate through the module global, as tracing relies on
    monkeypatch.setattr(calibration, "trigger_rate", counted)
    # the sharp-turn-on root, then a Newton step on its closed form's slope:
    # the HLT turn-ons are sharp enough for their root to be the fit, and the
    # L1 roots (threshold / width = 10) are 5.2e-8 from it
    menus = load_config(CONFIG_DIR / "cms_base.cfg").menus
    most = {path: 2 for path in menus["l1_menu"].paths}
    most.update((path, 1) for path in menus["hlt_menu"].paths)
    paths = _bundled_paths()
    assert len(paths) == 10 and set(paths) == set(most)
    for path in paths:
        calls = 0
        fit_lambda(path)
        assert 0 < calls <= most[path], (path.object_name, calls)


def test_a_broad_turn_on_fit_does_not_creep(monkeypatch):
    # threshold / width = 4.7, with the root near the top of the bracket,
    # where the residual flattens and secant steps from one side close in
    # by only ~1.5x per step
    path = _sigmoid_path(threshold=240.66, width=51.61, plateau=0.402, rate=1.0)
    path = replace(path, empirical_rate=trigger_rate(path, 9.699))
    lams = []

    def recorded(path, lam):
        lams.append(lam)
        return trigger_rate(path, lam)

    monkeypatch.setattr(calibration, "trigger_rate", recorded)
    assert fit_lambda(path) == pytest.approx(9.699, rel=1e-9, abs=0.0)
    assert len(lams) <= 12, lams


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(3.0, 500.0),
    sharpness=st.floats(5.0, 100.0),
    plateau=st.floats(0.05, 1.0),
    log10_lam=st.floats(math.log10(FIT_BRACKET[0]), math.log10(FIT_BRACKET[1])),
)
def test_a_menu_like_fit_needs_few_rate_evaluations(threshold, sharpness, plateau, log10_lam):
    # threshold / width >= 5 and lam * width <= 0.9, as for a trigger path;
    # over 30,000 such fits the most calls were 3, and 1.05 on average, and
    # 20,000 Hypothesis examples found 4 at threshold / width = 5
    path = _sigmoid_path(threshold, threshold / sharpness, plateau, rate=1.0)
    lam = 10.0**log10_lam
    assume(lam * path.curve.width <= 0.9)
    rate = trigger_rate(path, lam)
    assume(rate > 0.0)
    lams = []

    def recorded(path, lam):
        lams.append(lam)
        return trigger_rate(path, lam)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "trigger_rate", recorded)
        fit_lambda(replace(path, empirical_rate=rate))
    assert len(lams) <= 4, lams


@settings(max_examples=100, deadline=None)
@given(
    threshold=st.floats(3.0, 500.0),
    plateau=st.floats(0.05, 1.0),
    log10_frac=st.floats(-12.0, 0.0),
)
def test_the_sharp_turn_on_root_of_a_step_is_the_log_ratio(threshold, plateau, log10_frac):
    path = _sigmoid_path(threshold, 0.0, plateau, 40e6 * plateau * 10.0**log10_frac, 40e6)
    expected = math.log(path.input_rate * plateau / path.empirical_rate) / threshold
    assert calibration._sharp_turn_on_root(path) == (expected, threshold)


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(3.0, 500.0),
    sharpness=st.floats(10.0, 200.0),
    plateau=st.floats(0.05, 1.0),
    log10_s=st.floats(-6.0, math.log10(0.5)),
)
def test_the_sharp_turn_on_root_is_the_fit_of_a_sharp_turn_on(
    threshold, sharpness, plateau, log10_s
):
    # the closed form leaves out the second term of the rate's p < 0 part,
    # ~exp(-(2 - s) threshold / width) of it: 6.5e-8 at threshold / width = 10
    # and s = 0.5, and 5.2e-8 of lam on the bundled L1 paths
    path = _sigmoid_path(threshold, threshold / sharpness, plateau, rate=1.0)
    lam = 10.0**log10_s / path.curve.width
    assume(FIT_BRACKET[0] < lam < FIT_BRACKET[1])
    path = replace(path, empirical_rate=trigger_rate(path, lam))
    assume(path.empirical_rate > 0.0)
    fitted = fit_lambda(path)
    root, _ = calibration._sharp_turn_on_root(path)
    assert root == pytest.approx(fitted, rel=1e-6, abs=0.0)


def test_fit_evaluates_each_lam_once(monkeypatch):
    rate = calibration.trigger_rate
    seen = []

    def recorded(path, lam):
        seen.append(lam)
        return rate(path, lam)

    monkeypatch.setattr(calibration, "trigger_rate", recorded)
    paths = _bundled_paths()
    assert len(paths) == 10
    for path in paths:
        seen.clear()
        fit_lambda(path)
        # no lam twice, and no bracket end: each bundled root lies well inside
        assert len(seen) == len(set(seen)), (path.object_name, seen)
        assert not set(calibration.FIT_BRACKET) & set(seen), (path.object_name, seen)


def test_the_two_sum_rate_fits_every_bundled_path_to_the_same_lam(monkeypatch):
    paths = _bundled_paths()
    assert len(paths) == 10
    fitted = [fit_lambda(path) for path in paths]
    monkeypatch.setattr(calibration, "trigger_rate", _trigger_rate_as_two_sums)
    assert [fit_lambda(path) for path in paths] == fitted


def test_trigger_rate_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        trigger_rate(_sigmoid_path(), 0.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_trigger_rate_rejects_a_non_finite_lam(lam):
    with pytest.raises(ValueError, match="finite"):
        trigger_rate(_sigmoid_path(), lam)


def test_positive_scores_match_conditional_expectation():
    lam = 0.05
    path = _sigmoid_path()

    # E[eff(p) | p > T] over the memoryless tail T + Exp(lam)
    def integrand(x):
        return 0.95 * expit(x / 2.0) * lam * math.exp(-lam * x)

    expected, err = integrate.quad(integrand, 0.0, np.inf)
    assert err < 1e-9

    n = 50_000
    _, positive = sample_scores([path], [lam], "one-at-a-time", n=n, seed=123)
    sigma = math.sqrt(expected * (1.0 - expected) / n)  # detection outcomes are 0/1
    assert positive.mean() == pytest.approx(expected, abs=3.0 * sigma)


def test_single_path_modes_coincide_exactly():
    path = _sigmoid_path()
    neg_a, pos_a = sample_scores([path], [0.08], "summed", n=5000, seed=5)
    neg_b, pos_b = sample_scores([path], [0.08], "one-at-a-time", n=5000, seed=5)
    assert neg_a == neg_b
    assert pos_a == pos_b


def test_sampling_is_bit_identical_per_seed():
    paths = [_sigmoid_path(threshold=22.0, width=2.2), _sigmoid_path(threshold=38.0, width=3.8)]
    lams = [0.2, 0.1]
    neg_a, pos_a = sample_scores(paths, lams, "summed", n=20_000, seed=20240)
    neg_b, pos_b = sample_scores(paths, lams, "summed", n=20_000, seed=20240)
    assert neg_a == neg_b
    assert pos_a == pos_b

    neg_c, _ = sample_scores(paths, lams, "summed", n=20_000, seed=20241)
    assert neg_a != neg_c


def test_summed_scores_are_path_outcome_sums():
    paths = [_sigmoid_path(threshold=22.0, width=2.2), _sigmoid_path(threshold=38.0, width=3.8)]
    lams = [0.2, 0.1]
    negative, positive = sample_scores(paths, lams, "summed", n=5000, seed=1)
    assert set(negative.values) <= {0.0, 1.0, 2.0}
    assert set(positive.values) <= {0.0, 1.0, 2.0}
    # positive events condition on at least one object above threshold
    assert positive.mean() > negative.mean()


# === pinned atoms: the sampler's exact output ===
#
# (values, cumulative) of the (negative, positive) scores, recorded from the
# sampler that decided every detection with EfficiencyCurve, at the lams the bundled menus fit (held fixed here so
# the pins test sampling alone).

PINNED_LAMS = {
    "l1_menu": (0.20924577050948936, 0.28533514160596984, 0.1651940293493413, 0.019616790985264598),
    "hlt_menu": (
        0.014675931849427705, 0.05870372739771083, 0.02445988641572978,
        0.30574858019641055, 0.14675931849428636, 0.04076647735952197,
    ),
}
PINNED_ATOMS = {
    ("l1_menu", 0): (((0.0, 1.0, 2.0), (49527, 49999, 50000)),
                     ((0.0, 1.0, 2.0, 3.0), (13970, 49678, 49999, 50000))),
    ("l1_menu", 1): (((0.0, 1.0, 2.0), (49514, 49997, 50000)),
                     ((0.0, 1.0, 2.0, 3.0), (13992, 49692, 49999, 50000))),
    ("l1_menu", 20240): (((0.0, 1.0, 2.0), (49548, 49999, 50000)),
                         ((0.0, 1.0, 2.0, 3.0), (14035, 49626, 49998, 50000))),
    ("hlt_menu", 0): (((0.0, 1.0), (49994, 50000)), ((0.0, 1.0), (8129, 50000))),
    ("hlt_menu", 1): (((0.0, 1.0), (49997, 50000)), ((0.0, 1.0), (8269, 50000))),
    ("hlt_menu", 20240): (((0.0, 1.0), (49995, 50000)), ((0.0, 1.0), (8225, 50000))),
}


def _atoms(scores):
    return tuple((s.values, s.cumulative) for s in scores)


@pytest.mark.parametrize(("menu_name", "seed"), list(PINNED_ATOMS))
def test_bundled_menu_atoms_are_pinned(menu_name, seed):
    menu = load_config(CONFIG_DIR / "cms_base.cfg").menus[menu_name]
    sampled = sample_scores(menu.paths, PINNED_LAMS[menu_name], menu.mode, menu.sample_count, seed)
    assert _atoms(sampled) == PINNED_ATOMS[menu_name, seed]


@pytest.mark.parametrize(
    "path, lam, mode, seed, atoms",
    [
        (
            TriggerPath("step", EfficiencyCurve(40.0, 0.0, 0.9), 1e4, 1e6),
            0.11249524175825662, "one-at-a-time", 7,
            (((0.0,), (50000,)), ((0.0, 1.0), (5006, 50000))),
        ),
        (
            TriggerPath("egamma", EfficiencyCurve(30.0, 3.0, 0.95), 150e3, 40e6),
            0.20924577050948936, "summed", 11,
            (((0.0, 1.0), (49882, 50000)), ((0.0, 1.0), (14155, 50000))),
        ),
    ],
    ids=["width_0", "summed"],
)
def test_single_path_atoms_are_pinned(path, lam, mode, seed, atoms):
    assert _atoms(sample_scores([path], [lam], mode, 50_000, seed)) == atoms


# Redraws of the bundled menus as perfbench's menu_fresh workload makes them:
# per path, the factor on its threshold, the factor on width / threshold, the
# plateau, and lam, its redrawn rate's fit to four digits; then the seed and
# the atoms, recorded from the sampler that decided every detection with
# EfficiencyCurve.
GENERATED_MENUS = [
    ("l1_menu", 281, (
        (1.015, 1.34, 0.911, 0.2585), (1.016, 0.958, 0.864, 0.2534),
        (1.093, 1.298, 0.996, 0.2258), (0.829, 1.34, 0.898, 0.02748),
    ), (((0.0, 1.0, 2.0), (49420, 49999, 50000)),
        ((0.0, 1.0, 2.0, 3.0), (17042, 49733, 49999, 50000)))),
    ("l1_menu", 282, (
        (1.167, 1.112, 0.989, 0.1731), (1.171, 0.868, 0.927, 0.2028),
        (0.872, 0.507, 0.991, 0.1878), (1.052, 1.454, 0.869, 0.01982),
    ), (((0.0, 1.0, 2.0), (49256, 49999, 50000)),
        ((0.0, 1.0, 2.0, 3.0), (12732, 49545, 49999, 50000)))),
    ("l1_menu", 283, (
        (1.158, 0.825, 0.867, 0.1878), (1.057, 1.412, 0.873, 0.4639),
        (1.143, 0.753, 0.883, 0.1288), (1.14, 0.613, 0.868, 0.01573),
    ), (((0.0, 1.0), (49707, 50000)),
        ((0.0, 1.0, 2.0, 3.0), (14483, 49755, 49997, 50000)))),
    ("hlt_menu", 284, (
        (1.112, 1.024, 0.887, 0.01319), (0.823, 0.521, 0.934, 0.07169),
        (0.978, 0.945, 0.905, 0.02493), (0.955, 1.01, 0.877, 0.3093),
        (0.798, 1.002, 0.925, 0.1769), (1.122, 1.497, 0.891, 0.03684),
    ), (((0.0, 1.0), (49997, 50000)),
        ((0.0, 1.0), (10082, 50000)))),
    ("hlt_menu", 285, (
        (0.954, 1.373, 0.883, 0.01522), (1.189, 0.527, 0.95, 0.05039),
        (0.916, 0.798, 0.922, 0.02755), (0.897, 1.19, 0.91, 0.3481),
        (1.087, 1.422, 0.864, 0.1378), (0.985, 0.541, 0.882, 0.03969),
    ), (((0.0, 1.0), (49995, 50000)),
        ((0.0, 1.0), (10079, 50000)))),
    ("hlt_menu", 286, (
        (1.052, 0.792, 0.855, 0.01456), (0.965, 1.204, 0.916, 0.06049),
        (1.003, 0.616, 0.862, 0.02201), (1.237, 0.649, 0.878, 0.2319),
        (1.138, 1.145, 0.952, 0.1357), (0.865, 0.742, 0.989, 0.04543),
    ), (((0.0, 1.0), (49991, 50000)),
        ((0.0, 1.0), (9213, 50000)))),
]


def _generated_menu(menu_name, draws):
    menu = load_config(CONFIG_DIR / "cms_base.cfg").menus[menu_name]
    paths = []
    for path, (threshold_factor, width_factor, plateau, _) in zip(menu.paths, draws, strict=True):
        threshold = path.curve.threshold * threshold_factor
        width = threshold * (path.curve.width / path.curve.threshold) * width_factor
        paths.append(replace(path, curve=EfficiencyCurve(threshold, width, plateau)))
    return paths, [lam for *_, lam in draws], menu.mode


@pytest.mark.parametrize(
    ("menu_name", "seed", "draws", "atoms"),
    GENERATED_MENUS,
    ids=[f"{name}-{seed}" for name, seed, *_ in GENERATED_MENUS],
)
def test_generated_menu_atoms_are_pinned(menu_name, seed, draws, atoms):
    paths, lams, mode = _generated_menu(menu_name, draws)
    assert _atoms(sample_scores(paths, lams, mode, 50_000, seed)) == atoms


# === the sampler's shortcuts against the calls they replace ===


def _reference_sample_scores(paths, lams, mode, n, seed):
    """The sampler as first written: Generator.choice for the above-threshold
    subsets, np.where over both momentum branches, EfficiencyCurve for every
    detection and np.unique over float scores."""

    def stream(label):
        entropy = np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8"))))
        return np.random.Generator(np.random.PCG64(entropy))

    def below(u, lam, t):
        return -np.log1p(-u * (1.0 - math.exp(-lam * t))) / lam

    def detections(path, lam, above):
        rng, t = stream(path.object_name), path.curve.threshold
        u = rng.random(len(above))
        negative = rng.random(len(above)) < path.curve(below(u, lam, t))
        u = rng.random(len(above))
        momenta = np.where(above, t - np.log1p(-u) / lam, below(u, lam, t))
        return negative, rng.random(len(above)) < path.curve(momenta)

    k = len(paths)
    if mode == "summed":
        a = np.array([math.exp(-lam * path.curve.threshold) for path, lam in zip(paths, lams)])
        masks = np.array([[(s + 1) >> i & 1 for i in range(k)] for s in range(2**k - 1)], dtype=bool)
        weights = np.prod(np.where(masks, a, 1.0 - a), axis=1)
        weights /= weights.sum()
        above = masks[stream("__event__").choice(len(weights), size=n, p=weights)]
        parts = [detections(path, lam, above[:, i]) for i, (path, lam) in enumerate(zip(paths, lams))]
        sides = (np.sum(side, axis=0, dtype=float) for side in zip(*parts))
    else:
        shares = np.array_split(np.ones(n, dtype=bool), k)
        parts = [detections(path, lam, above) for path, lam, above in zip(paths, lams, shares)]
        sides = (np.concatenate(side).astype(float) for side in zip(*parts))
    return tuple(EmpiricalScores.from_samples(side) for side in sides)


_reference_paths = st.lists(
    st.tuples(
        st.floats(1.0, 400.0),  # threshold
        st.one_of(st.sampled_from([0.0, 1e-310]), st.floats(1e-3, 0.5)),  # width / threshold
        st.floats(0.01, 1.0),  # plateau
        st.floats(-4.0, 0.5),  # log10(lam * threshold)
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    specs=_reference_paths,
    mode=st.sampled_from(["summed", "one-at-a-time"]),
    n=st.integers(1000, 3000),
    seed=st.integers(0, 2**32 - 1),
)
# threshold / width = 1e4: exp((threshold - p) / width) overflows for p below ~99.93 GeV
@example(specs=[(100.0, 1e-4, 0.9, 0.0), (30.0, 0.05, 0.95, -0.5)], mode="summed", n=2000, seed=5)
# threshold / width = 1e308 is finite, 1 / (lam * width) = 1e312 is not: the step branch
@example(specs=[(1.0, 1e-308, 0.8, -4.0), (30.0, 0.05, 0.95, -0.5)], mode="summed", n=2000, seed=6)
def test_sampler_matches_its_reference_atom_for_atom(specs, mode, n, seed):
    paths, lams = [], []
    for i, (threshold, relative_width, plateau, log_at) in enumerate(specs):
        curve = EfficiencyCurve(threshold, relative_width * threshold, plateau)
        paths.append(TriggerPath(f"p{i}", curve, empirical_rate=1.0, input_rate=1e6))
        lams.append(10.0**log_at / threshold)
    sampled = sample_scores(paths, lams, mode, n, seed)
    assert _atoms(sampled) == _atoms(_reference_sample_scores(paths, lams, mode, n, seed))


def test_a_12_path_summed_menu_matches_the_reference_atom_for_atom():
    # 4095 subsets; path i lands above its threshold with chance 0.6 - 0.05 i
    paths = [
        _sigmoid_path(threshold=10.0 + 15.0 * i, width=0.0 if i % 4 == 0 else 1.0 + i)
        for i in range(12)
    ]
    paths = [replace(path, object_name=f"p{i}") for i, path in enumerate(paths)]
    lams = [-math.log(0.6 - 0.05 * i) / path.curve.threshold for i, path in enumerate(paths)]
    sampled = sample_scores(paths, lams, "summed", 20_000, 314)
    reference = _reference_sample_scores(paths, lams, "summed", 20_000, 314)
    assert _atoms(sampled) == _atoms(reference)
    assert len(sampled[1].values) >= 5


@pytest.mark.parametrize("mode", ["summed", "one-at-a-time"])
@pytest.mark.parametrize("width", [1e-306, 4e-306])
def test_a_turn_on_a_few_hundred_ulps_wide_matches_the_reference(width, mode):
    # threshold / width is inf at 1e-306 GeV and 1e308 at 4e-306 GeV, while
    # 1 / (lam * width) is finite: exp overflows, and u2 * inf meets u2 = 0 as nan
    threshold, lam = 400.0, 0.01
    assert math.isfinite(1.0 / (lam * width))
    paths = [TriggerPath("sharp", EfficiencyCurve(threshold, width, 0.9), 1.0, 1e6), _sigmoid_path()]
    lams = [lam, 0.05]
    sampled = sample_scores(paths, lams, mode, 5000, 28)
    assert _atoms(sampled) == _atoms(_reference_sample_scores(paths, lams, mode, 5000, 28))


# lam * threshold per path: a = exp(-lam * threshold) in (0, 1), underflowing
# to 0 (no object above) or rounding to 1.0 (every object above, so the
# subsets without that path weigh 0 and the cdf has ties)
_lam_thresholds = st.one_of(st.floats(1e-3, 8.0), st.sampled_from([800.0, 1e-20]))


def _subset_scratch(n):
    # work rows, and the events row the masks overwrite
    return np.empty((2, n)), np.empty(n, dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(
    lam_thresholds=st.lists(_lam_thresholds, min_size=1, max_size=12),
    n=st.integers(1, 4000),
    seed=st.integers(0, 2**32 - 1),
)
@example(lam_thresholds=[0.05 * (i + 1) for i in range(20)], n=3000, seed=7)
@example(lam_thresholds=[1e-20, 800.0, 1e-20], n=500, seed=1)
# k = 1; every bit counted, none searched; one bit searched after the counted ones
@example(lam_thresholds=[0.7], n=1000, seed=2)
@example(lam_thresholds=[0.3 + 0.4 * i for i in range(calibration._COUNTED_BITS)], n=4000, seed=3)
@example(lam_thresholds=[0.3 + 0.4 * i for i in range(calibration._COUNTED_BITS + 1)], n=4000, seed=4)
def test_above_subsets_are_generator_choice_draws(lam_thresholds, n, seed):
    # path i: threshold 10 + i GeV, lam = lam_threshold / threshold
    paths = [_sigmoid_path(threshold=10.0 + i) for i in range(len(lam_thresholds))]
    fitted = [(path, lt / path.curve.threshold) for path, lt in zip(paths, lam_thresholds)]
    weights = np.ones(1)  # P(mask m), as the sampler builds it
    for path, lam in fitted:
        a = math.exp(-lam * path.curve.threshold)
        weights = np.concatenate((weights * (1.0 - a), weights * a))
    weights = weights[1:]
    if not weights.sum() > 0.0:
        with pytest.raises(DegeneratePopulationError):
            calibration._above_subsets(fitted, seed, *_subset_scratch(n))
        return
    weights /= weights.sum()
    stream = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, zlib.crc32(b"__event__"))))
    )
    expected = stream.choice(len(weights), size=n, p=weights) + 1
    drawn = calibration._above_subsets(fitted, seed, *_subset_scratch(n))
    assert drawn.dtype == expected.dtype
    assert np.array_equal(drawn, expected)


def test_summed_menu_with_no_object_above_threshold_is_degenerate():
    paths = [_sigmoid_path(threshold=500.0), replace(_sigmoid_path(threshold=500.0), object_name="b")]
    with pytest.raises(DegeneratePopulationError, match="'obj', 'b'.*no positive event"):
        sample_scores(paths, [10.0, 10.0], "summed", n=2000)


# === the sampler's per-thread scratch ===


def _bundled_menu(menu_name):
    menu = load_config(CONFIG_DIR / "cms_base.cfg").menus[menu_name]
    return menu.paths, PINNED_LAMS[menu_name], menu.mode


@pytest.mark.parametrize("menu_name", ["l1_menu", "hlt_menu"])
def test_a_new_sample_count_and_back_give_the_same_atoms(menu_name):
    # 4999 splits unevenly over the hlt menu's 6 paths (one-at-a-time)
    paths, lams, mode = _bundled_menu(menu_name)
    assert _atoms(sample_scores(paths, lams, mode, 50_000, 0)) == PINNED_ATOMS[menu_name, 0]
    sampled = sample_scores(paths, lams, mode, 4999, 1)
    assert _atoms(sampled) == _atoms(_reference_sample_scores(paths, lams, mode, 4999, 1))
    assert _atoms(sample_scores(paths, lams, mode, 50_000, 1)) == PINNED_ATOMS[menu_name, 1]


@pytest.mark.parametrize("failing", ["degenerate", "non_finite_lam"])
def test_a_call_after_a_failed_one_gives_the_same_atoms(failing):
    paths, lams, mode = _bundled_menu("l1_menu")
    sample_scores(paths, lams, mode, 50_000, 0)
    if failing == "degenerate":
        with pytest.raises(DegeneratePopulationError):
            sample_scores(paths, [800.0] * len(paths), "summed", 50_000, 0)
    else:
        with pytest.raises(ValueError, match="finite"):
            sample_scores(paths, [*lams[:-1], math.nan], mode, 50_000, 0)
    assert _atoms(sample_scores(paths, lams, mode, 50_000, 20240)) == PINNED_ATOMS["l1_menu", 20240]


def test_threads_sampling_at_once_give_the_serial_atoms():
    # four threads on two cores, all at the same n, so that one shared scratch
    # would be overwritten mid-call; a short switch interval interleaves them often
    jobs = [(name, first) for name in ("l1_menu", "hlt_menu") for first in (0, 100)]
    menus = {name: _bundled_menu(name) for name, _ in jobs}

    def sample_all(job):
        (paths, lams, mode), first = menus[job[0]], job[1]
        return [_atoms(sample_scores(paths, lams, mode, 50_000, s)) for s in range(first, first + 4)]

    serial = [sample_all(job) for job in jobs]
    start = threading.Barrier(len(jobs))

    def run(job):
        start.wait(timeout=60)
        return sample_all(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    assert serial[0][0] == PINNED_ATOMS["l1_menu", 0]


def test_the_scratch_is_kept_for_the_last_sample_count_until_clear_caches():
    held = calibration._scratch_for(3000)
    assert all(a is b for a, b in zip(calibration._scratch_for(3000), held))
    calibration.clear_caches()
    assert calibration._scratch_for(3000)[0] is not held[0]
    assert calibration._scratch_for(2000)[1].shape == (2000,)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 20),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_atom_counts_are_bincount(k, n, seed):
    row = np.random.default_rng(seed).integers(0, k + 1, size=n, dtype=np.int8)
    assert calibration._atom_counts(row) == np.bincount(row).tolist()


def test_build_menu_fits_and_returns_model():
    menu = MenuSpec(
        name="m",
        mode="summed",
        paths=(_sigmoid_path(rate=50e3), _sigmoid_path(threshold=50.0, rate=20e3)),
        sample_count=5000,
    )
    model = build_menu(menu, seed=3)
    assert model.skill_factor == 1.0
    assert model.positive.mean() >= model.negative.mean()
    assert model.positive.size == 5000


# === calibrate once: the two memos behind build_menu ===


@pytest.fixture
def counted_calls(monkeypatch):
    """Empty memos, and a count of the real fits and samples build_menu makes.

    build_menu reaches fit_lambda and sample_scores through their module
    names, so patching those counts every real call; the memos are cleared
    on both sides so no other test sees a model built here, nor this test a
    model built elsewhere.
    """
    calls = {"fit_lambda": 0, "sample_scores": 0}

    def counting(name):
        real = getattr(calibration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    calibration.clear_caches()
    for name in calls:
        monkeypatch.setattr(calibration, name, counting(name))
    yield calls
    calibration.clear_caches()


def _memo_menu(rate=50e3, sample_count=1000):
    paths = (_sigmoid_path(rate=rate), _sigmoid_path(threshold=50.0, width=0.0, rate=20e3))
    return MenuSpec(name="m", mode="summed", paths=paths, sample_count=sample_count)


def test_repeated_build_returns_the_cached_model(counted_calls):
    menu = _memo_menu()
    first = build_menu(menu, seed=3)
    assert counted_calls == {"fit_lambda": 2, "sample_scores": 1}
    # an equal spec built separately is the same key
    assert build_menu(_memo_menu(), seed=3) is first
    assert counted_calls == {"fit_lambda": 2, "sample_scores": 1}


def test_new_seed_samples_again_without_refitting(counted_calls):
    menu = _memo_menu()
    build_menu(menu, seed=3)
    model = build_menu(menu, seed=4)
    assert counted_calls == {"fit_lambda": 2, "sample_scores": 2}
    # the memoised fits give the model an unmemoised build gives (the
    # names imported here are the unpatched functions, so they go uncounted)
    lams = [fit_lambda(path) for path in menu.paths]
    negative, positive = sample_scores(menu.paths, lams, menu.mode, menu.sample_count, 4)
    assert (model.negative, model.positive) == (negative, positive)
    # a menu sharing one path fits only the other
    build_menu(replace(menu, paths=(menu.paths[0], _sigmoid_path(threshold=40.0))), seed=4)
    assert counted_calls == {"fit_lambda": 3, "sample_scores": 3}


def test_model_memo_evicts_least_recently_used(counted_calls):
    menu = _memo_menu()
    size = calibration.MODEL_CACHE_SIZE
    for seed in range(size):
        build_menu(menu, seed)
    build_menu(menu, 0)  # refreshed: seed 1 is now the least recently used
    assert counted_calls["sample_scores"] == size
    build_menu(menu, size)  # one past the bound evicts seed 1
    build_menu(menu, 0)
    assert counted_calls["sample_scores"] == size + 1
    build_menu(menu, 1)
    assert counted_calls["sample_scores"] == size + 2
    # every build fitted each path once: the lam memo is seed-free
    assert counted_calls["fit_lambda"] == len(menu.paths)


def test_clear_caches_empties_both_memos(counted_calls):
    menu = _memo_menu()
    build_menu(menu, seed=3)
    calibration.clear_caches()
    build_menu(menu, seed=3)
    assert counted_calls == {"fit_lambda": 4, "sample_scores": 2}


def test_failed_fit_is_not_cached(counted_calls):
    menu = _memo_menu(rate=0.99 * 40e6)  # above the plateau ceiling
    for _ in range(2):
        with pytest.raises(FitInfeasibleError, match="attainable"):
            build_menu(menu, seed=3)
    assert counted_calls == {"fit_lambda": 2, "sample_scores": 0}


def test_spec_validation():
    with pytest.raises(ValueError):
        EfficiencyCurve(threshold=0.0, width=1.0, plateau=0.9)
    with pytest.raises(ValueError):
        EfficiencyCurve(threshold=30.0, width=-1.0, plateau=0.9)
    with pytest.raises(ValueError):
        EfficiencyCurve(threshold=30.0, width=1.0, plateau=1.5)
    with pytest.raises(ValueError):
        TriggerPath("x", EfficiencyCurve(30.0, 2.0, 0.9), empirical_rate=0.0, input_rate=1e6)
    with pytest.raises(ValueError):
        MenuSpec(name="m", mode="sorted", paths=(_sigmoid_path(),))
    with pytest.raises(ValueError):
        MenuSpec(name="m", mode="summed", paths=())
    with pytest.raises(ValueError):
        sample_scores([_sigmoid_path()], [0.1], "summed", n=10)
    with pytest.raises(ValueError):  # one lam per path
        sample_scores([_sigmoid_path()], [], "summed", n=2000)
    with pytest.raises(ValueError, match="unknown sampling mode 'bogus'"):
        sample_scores([_sigmoid_path()], [0.1], "bogus", n=2000)
    for lam in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam must be finite"):
            sample_scores([_sigmoid_path()], [lam], "summed", n=2000)


# === closed-form oracle for the sampler ===
#
# Per path, with a = exp(-lam T) the chance of an object above threshold:
#   q = P(detect | p <= T) = integral_0^T eff(p) lam exp(-lam p) dp / (1 - a)
#   r = P(detect | p > T)  = E[eff(T + X)], X ~ Exp(lam) (the memoryless tail)
# Summed mode: the negative score is Poisson-binomial in the q_i; the positive
# score conditions on a non-empty above-threshold subset, so it is
#   (PB(a r + (1 - a) q) - P0 PB(q)) / (1 - P0),   P0 = prod(1 - a_i).
# One-at-a-time mode pools count_i outcomes of each path: Bernoulli mixtures
# weighted by the per-path counts.  Everything here uses scipy directly, not
# the calibration module's curve, rate or sampler.

ORACLE_Z_BOUND = 5.0  # per-atom multinomial |z|; the worst seen over seeds 0-19 is ~2.9
ORACLE_MIN_EXPECTED = 5.0  # atoms expected fewer times than this are pooled


def _detection_probs(path, lam):
    threshold, width, plateau = path.curve.threshold, path.curve.width, path.curve.plateau
    a = math.exp(-lam * threshold)
    if width == 0.0:
        return a, 0.0, plateau
    def eff(p):
        return plateau * expit((p - threshold) / width)

    below, _ = integrate.quad(
        lambda p: eff(p) * lam * math.exp(-lam * p), 0.0, threshold, epsabs=0.0, epsrel=1e-12
    )
    above, _ = integrate.quad(
        lambda x: eff(threshold + x) * lam * math.exp(-lam * x), 0.0, np.inf,
        epsabs=0.0, epsrel=1e-12,
    )
    return a, below / (1.0 - a), above


def _poisson_binomial(probs):
    mass = np.array([1.0])
    for p in probs:
        mass = np.convolve(mass, [1.0 - p, p])
    return mass


def _exact_masses(paths, lams, mode, n):
    """{score: probability} of the negative and the positive population."""
    a, q, r = (np.array(v) for v in zip(*map(_detection_probs, paths, lams)))
    if mode == "summed":
        p0 = np.prod(1.0 - a)
        negative = _poisson_binomial(q)
        positive = (_poisson_binomial(a * r + (1.0 - a) * q) - p0 * negative) / (1.0 - p0)
        return dict(enumerate(negative)), dict(enumerate(positive))
    k = len(paths)
    weights = np.array([n // k + (i < n % k) for i in range(k)]) / n
    return (
        {0.0: 1.0 - weights @ q, 1.0: weights @ q},
        {0.0: 1.0 - weights @ r, 1.0: weights @ r},
    )


def _atom_z_scores(scores, masses):
    """Multinomial z of each atom's sampled count against its exact mass.

    Atoms expected fewer than ORACLE_MIN_EXPECTED times, and sampled values
    the masses give no weight, are pooled into one bin; a pooled bin of mass
    0 must be empty.
    """
    n = scores.size
    observed = dict(zip(scores.values, np.diff(scores.cumulative, prepend=0).tolist()))
    support = set(masses) | set(observed)
    rare = [v for v in support if n * masses.get(v, 0.0) < ORACLE_MIN_EXPECTED]
    bins = [[v] for v in support if v not in rare] + ([rare] if rare else [])
    zs = []
    for values in bins:
        p = sum(masses.get(v, 0.0) for v in values)
        count = sum(observed.get(v, 0) for v in values)
        if p <= 0.0:
            assert count == 0, f"sampled values {values} have no exact mass"
            continue
        zs.append((count - n * p) / math.sqrt(n * p * (1.0 - p)))
    return zs


@pytest.mark.parametrize("menu_name", ["l1_menu", "hlt_menu"])
def test_sampled_atoms_match_closed_form_masses(menu_name):
    menu = load_config(CONFIG_DIR / "cms_base.cfg").menus[menu_name]
    paths, n = menu.paths, menu.sample_count
    lams = [fit_lambda(path) for path in paths]
    exact = _exact_masses(paths, lams, menu.mode, n)
    for masses in exact:
        assert math.isclose(math.fsum(masses.values()), 1.0, rel_tol=1e-12)
        assert min(masses.values()) >= -1e-15
    for seed in range(20):
        sampled = sample_scores(paths, lams, menu.mode, n, seed)
        for side, scores, masses in zip(("negative", "positive"), sampled, exact):
            zs = _atom_z_scores(scores, masses)
            assert zs and max(map(abs, zs)) <= ORACLE_Z_BOUND, (seed, side, zs)
