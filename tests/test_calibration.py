"""Turn-on curves, spectrum fits, and score sampling.

Rate integrals are checked against dense fixed-grid trapezoid sums, the
fitter against a log-grid scan, and the samplers against conditional
expectations from quadrature, so no check leans on the code under test for
its reference value.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expit

import daqflow
from daqflow import calibration
from daqflow.calibration import (
    FIT_RATE_RTOL,
    EfficiencyCurve,
    MenuSpec,
    TriggerPath,
    build_menu,
    fit_lambda,
    sample_scores,
    trigger_rate,
)
from daqflow.config import load_config
from daqflow.errors import FitInfeasibleError

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


def test_step_curve_rate_is_the_closed_form():
    curve = EfficiencyCurve(threshold=30.0, width=0.0, plateau=0.9)
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


@settings(max_examples=80, deadline=None)
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
    try:
        lam = fit_lambda(path)
    except FitInfeasibleError:
        return
    assert abs(trigger_rate(path, lam) / path.empirical_rate - 1.0) <= FIT_RATE_RTOL


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
    paths = _bundled_paths()
    assert len(paths) == 10
    for path in paths:
        calls = 0
        fit_lambda(path)
        assert 0 < calls <= 20, (path.object_name, calls)


def test_fit_integrates_each_lam_once(monkeypatch):
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
        # the bracket ends and the root are among the points brentq evaluated
        assert set(calibration.FIT_BRACKET) <= set(seen)
        assert len(seen) == len(set(seen)), (path.object_name, seen)


def test_scalar_integrand_equals_the_vectorised_curve():
    rng = np.random.default_rng(7)
    checked = far_below = 0
    for i in range(200):
        threshold = rng.uniform(3.0, 250.0)
        # odd curves are narrow enough that x = -700 still has p >= 0
        width = rng.uniform(0.001, threshold / 700.0) if i % 2 else rng.uniform(0.01, 50.0)
        curve = EfficiencyCurve(threshold, width, plateau=rng.uniform(0.05, 1.0))
        # lam <= 0.01/GeV keeps every value compared here a normal float
        lam = 10.0 ** rng.uniform(-4.0, -2.0)
        g = calibration._integrand(curve, lam)
        # logistic arguments across [-700, 700], both ends included
        xs = np.concatenate([[-700.0, 700.0, 0.0], rng.uniform(-700.0, 700.0, 20)])
        ps = curve.threshold + curve.width * xs
        far_below += ps[0] >= 0.0
        for u in lam * ps[ps >= 0.0]:
            u = float(u)
            expected = float(curve(u / lam)) * math.exp(-u)
            assert expected >= sys.float_info.min
            assert math.isclose(g(u), expected, rel_tol=1e-15, abs_tol=0.0), (curve, lam, u)
            checked += 1
    assert checked > 1000 and far_below >= 100


def test_trigger_rate_rejects_nonpositive_lam():
    with pytest.raises(ValueError):
        trigger_rate(_sigmoid_path(), 0.0)


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
# the calibration module's curve, integrand or sampler.

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
