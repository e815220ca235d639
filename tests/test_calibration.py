"""Turn-on curves, spectrum fits, and score sampling.

Rate integrals are checked against dense fixed-grid trapezoid sums, the
fitter against a log-grid scan, and the samplers against conditional
expectations from quadrature, so no check leans on the code under test for
its reference value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from daqflow.calibration import (
    EfficiencyCurve,
    MenuSpec,
    MomentumDistribution,
    TriggerPath,
    build_menu,
    fit_lambda,
    sample_scores,
    trigger_rate,
)
from daqflow.errors import FitInfeasibleError


def _sigmoid_path(threshold=30.0, width=2.0, plateau=0.95, rate=10e3, input_rate=40e6):
    curve = EfficiencyCurve("obj", threshold=threshold, width=width, plateau=plateau)
    return TriggerPath("obj", curve, empirical_rate=rate, input_rate=input_rate)


def test_trigger_rate_matches_dense_trapezoid():
    path = _sigmoid_path()
    lam = 0.1
    p = np.linspace(0.0, 300.0, 2**20 + 1)
    integrand = 0.95 * expit((p - 30.0) / 2.0) * lam * np.exp(-lam * p)
    oracle = 40e6 * np.trapezoid(integrand, p)  # tail beyond 300 GeV < 1e-11 relative
    assert trigger_rate(path, lam) == pytest.approx(oracle, rel=1e-5)


def test_step_curve_rate_is_the_closed_form():
    curve = EfficiencyCurve("obj", threshold=30.0, width=0.0, plateau=0.9)
    path = TriggerPath("obj", curve, empirical_rate=1e3, input_rate=40e6)
    for lam in (1e-3, 0.05, 0.4, 1.0):
        assert trigger_rate(path, lam) == 40e6 * 0.9 * math.exp(-lam * 30.0)


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
    assert fitted.lam == pytest.approx(oracle, rel=1e-3)


def test_step_fit_recovers_the_log_ratio_closed_form():
    # rate = input * plateau * exp(-lam T), so lam = ln(R0 / R) / T exactly
    curve = EfficiencyCurve("obj", threshold=30.0, width=0.0, plateau=0.95)
    r0 = 40e6 * 0.95
    for lam_true in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        target = r0 * math.exp(-lam_true * 30.0)
        closed_form = math.log(r0 / target) / 30.0
        assert closed_form == pytest.approx(lam_true, rel=1e-12)
        path = TriggerPath("obj", curve, empirical_rate=target, input_rate=40e6)
        assert fit_lambda(path).lam == pytest.approx(closed_form, rel=1e-6)


def test_fit_round_trips_across_three_decades():
    base = _sigmoid_path()
    for lam_true in np.geomspace(1e-3, 1.0, 7):
        target = trigger_rate(base, float(lam_true))
        path = replace(base, empirical_rate=target)
        assert fit_lambda(path).lam == pytest.approx(float(lam_true), rel=1e-3)


def test_fit_rejects_unreachable_targets():
    path = _sigmoid_path(rate=0.99 * 40e6)  # above the plateau ceiling
    with pytest.raises(FitInfeasibleError, match="attainable"):
        fit_lambda(path)


def test_trigger_rate_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        trigger_rate(_sigmoid_path(), 0.0)


def test_positive_scores_match_conditional_expectation():
    lam = 0.05
    path = replace(_sigmoid_path(), momentum=MomentumDistribution(lam))

    # E[eff(p) | p > T] over the memoryless tail T + Exp(lam)
    def integrand(x):
        return 0.95 * expit(x / 2.0) * lam * math.exp(-lam * x)

    expected, err = integrate.quad(integrand, 0.0, np.inf)
    assert err < 1e-9

    n = 50_000
    _, positive = sample_scores([path], "one-at-a-time", n=n, seed=123)
    sigma = math.sqrt(expected * (1.0 - expected) / n)  # detection outcomes are 0/1
    assert positive.mean() == pytest.approx(expected, abs=3.0 * sigma)


def test_single_path_modes_coincide_exactly():
    path = replace(_sigmoid_path(), momentum=MomentumDistribution(0.08))
    neg_a, pos_a = sample_scores([path], "summed", n=5000, seed=5)
    neg_b, pos_b = sample_scores([path], "one-at-a-time", n=5000, seed=5)
    assert np.array_equal(neg_a.samples, neg_b.samples)
    assert np.array_equal(pos_a.samples, pos_b.samples)


def test_sampling_is_bit_identical_per_seed():
    paths = [
        replace(_sigmoid_path(threshold=22.0, width=2.2), momentum=MomentumDistribution(0.2)),
        replace(_sigmoid_path(threshold=38.0, width=3.8), momentum=MomentumDistribution(0.1)),
    ]
    neg_a, pos_a = sample_scores(paths, "summed", n=20_000, seed=20240)
    neg_b, pos_b = sample_scores(paths, "summed", n=20_000, seed=20240)
    assert np.array_equal(neg_a.samples, neg_b.samples)
    assert np.array_equal(pos_a.samples, pos_b.samples)

    neg_c, _ = sample_scores(paths, "summed", n=20_000, seed=20241)
    assert not np.array_equal(neg_a.samples, neg_c.samples)


def test_summed_scores_are_path_outcome_sums():
    paths = [
        replace(_sigmoid_path(threshold=22.0, width=2.2), momentum=MomentumDistribution(0.2)),
        replace(_sigmoid_path(threshold=38.0, width=3.8), momentum=MomentumDistribution(0.1)),
    ]
    negative, positive = sample_scores(paths, "summed", n=5000, seed=1)
    assert set(np.unique(negative.samples)) <= {0.0, 1.0, 2.0}
    assert set(np.unique(positive.samples)) <= {0.0, 1.0, 2.0}
    # positive events condition on at least one object above threshold
    assert positive.mean() > negative.mean()


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
    assert model.positive.samples.size == 5000


def test_spec_validation():
    with pytest.raises(ValueError):
        EfficiencyCurve("x", threshold=0.0, width=1.0, plateau=0.9)
    with pytest.raises(ValueError):
        EfficiencyCurve("x", threshold=30.0, width=-1.0, plateau=0.9)
    with pytest.raises(ValueError):
        EfficiencyCurve("x", threshold=30.0, width=1.0, plateau=1.5)
    with pytest.raises(ValueError):
        MomentumDistribution(0.0)
    with pytest.raises(ValueError):
        TriggerPath("x", EfficiencyCurve("x", 30.0, 2.0, 0.9), empirical_rate=0.0, input_rate=1e6)
    with pytest.raises(ValueError):
        MenuSpec(name="m", mode="sorted", paths=(_sigmoid_path(),))
    with pytest.raises(ValueError):
        MenuSpec(name="m", mode="summed", paths=())
    with pytest.raises(ValueError):
        sample_scores(
            [replace(_sigmoid_path(), momentum=MomentumDistribution(0.1))], "summed", n=10
        )
    with pytest.raises(ValueError, match="momentum"):
        sample_scores([_sigmoid_path()], "summed", n=2000)
