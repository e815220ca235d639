"""Score distributions, threshold solving, confusion extraction.

The numeric checks are anchored to independently computed references:
quadrature of the mixture density, hand bisection of the analytic CDF, and
direct Monte Carlo — never the module's own arithmetic.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from daqflow.classifier import (
    ClassifierModel,
    EmpiricalScores,
    MIN_EMPIRICAL_SAMPLES,
    ParametricScores,
    apply_skill,
    confusion_at_threshold,
    solve_operating_point,
    solve_threshold,
    weighted_cdf,
)
from daqflow.errors import DegeneratePopulationError, OperatingPointError
from daqflow.graph import MessageFlow


def _flow(n_true, n_false):
    return MessageFlow(rate=n_true + n_false, size=1.0, n_true=n_true, n_false=n_false)


def _normal_pdf(x, mean):
    return math.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)


def test_weighted_cdf_matches_mixture_quadrature():
    # 9:1 false:true mixture of unit normals at 0 and 1, evaluated at 0.5
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=1.0, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )

    def mixture_pdf(x):
        return 0.1 * _normal_pdf(x, 1.0) + 0.9 * _normal_pdf(x, 0.0)

    oracle, err = integrate.quad(mixture_pdf, -30.0, 0.5)
    assert err < 1e-10
    assert weighted_cdf(model, n_true=1.0, n_false=9.0, z=0.5) == pytest.approx(
        oracle, abs=1e-9
    )


def test_solve_threshold_finds_the_mixture_median():
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=1.0, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )

    # hand bisection on the analytic equal-weight mixture CDF
    def mixture_cdf(z):
        return 0.5 * (
            0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            + 0.5 * (1.0 + math.erf((z - 1.0) / math.sqrt(2.0)))
        )

    lo, hi = -10.0, 10.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mixture_cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    assert median == pytest.approx(0.5, abs=1e-9)  # symmetric mixture

    z = solve_threshold(model, _flow(100.0, 100.0), 0.5)
    assert z == pytest.approx(median, abs=1e-6)


def test_confusion_at_two_sigma_separation():
    # means split by two standard deviations, threshold at the midpoint
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=2.0, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )
    cm = confusion_at_threshold(model, _flow(100.0, 100.0), 1.0)

    above, err = integrate.quad(lambda x: _normal_pdf(x, 0.0), 1.0, 30.0)
    assert err < 1e-10
    assert cm.tn == pytest.approx(100.0 * (1.0 - above), abs=1e-6)
    assert cm.tp == pytest.approx(100.0 * (1.0 - above), abs=1e-6)  # symmetric
    assert cm.fp == pytest.approx(100.0 * above, abs=1e-6)
    assert cm.fn == pytest.approx(100.0 * above, abs=1e-6)
    # the well-known 84.1 / 15.9 split at one standard deviation
    assert cm.tp == pytest.approx(84.134, abs=0.001)
    assert cm.fn == pytest.approx(15.866, abs=0.001)


def test_confusion_matches_monte_carlo():
    model = ClassifierModel(
        positive=ParametricScores("logistic", loc=1.3, scale=0.7),
        negative=ParametricScores("normal", loc=0.0, scale=1.1),
    )
    flow = _flow(3e5, 7e5)
    op = solve_operating_point(model, flow, reduction_target=8.0)

    rng = np.random.default_rng(4040)
    n = 400_000
    is_true = rng.random(n) < 0.3
    scores = np.where(
        is_true,
        rng.logistic(1.3, 0.7, size=n),
        rng.normal(0.0, 1.1, size=n),
    )
    keep = scores > op.threshold
    for label, ana, mask in (
        ("tp", op.confusion.tp, keep & is_true),
        ("fp", op.confusion.fp, keep & ~is_true),
        ("tn", op.confusion.tn, ~keep & ~is_true),
        ("fn", op.confusion.fn, ~keep & is_true),
    ):
        p = ana / flow.rate
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(np.count_nonzero(mask) - n * p) < 3.0 * sigma + 1.0, label


def test_operating_point_rate_is_exact():
    rng = np.random.default_rng(99)
    for _ in range(25):
        sep = rng.uniform(0.5, 3.0)
        model = ClassifierModel(
            positive=ParametricScores("normal", loc=sep, scale=rng.uniform(0.5, 2.0)),
            negative=ParametricScores("normal", loc=0.0, scale=rng.uniform(0.5, 2.0)),
        )
        n_true = rng.uniform(1e3, 1e6)
        n_false = rng.uniform(1e3, 1e6)
        flow = _flow(n_true, n_false)
        reduction = rng.uniform(1.5, 400.0)
        op = solve_operating_point(model, flow, reduction)
        cm = op.confusion
        out = cm.tp + cm.fp
        assert out == pytest.approx(flow.rate / reduction, rel=1e-12)
        # row sums conserve the populations
        assert cm.tp + cm.fn == pytest.approx(n_true, rel=1e-9)
        assert cm.fp + cm.tn == pytest.approx(n_false, rel=1e-9)
        assert min(cm.tp, cm.fp, cm.tn, cm.fn) >= 0.0


def test_threshold_is_monotone_in_rejection():
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=1.5, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )
    flow = _flow(1e4, 9e4)
    thresholds = [
        solve_threshold(model, flow, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    ]
    assert thresholds == sorted(thresholds)


def test_roc_moves_monotonically_with_threshold():
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=1.5, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )
    flow = _flow(1e4, 9e4)
    tps, tns = [], []
    for z in np.linspace(-3.0, 4.0, 29):
        cm = confusion_at_threshold(model, flow, float(z))
        tps.append(cm.tp)
        tns.append(cm.tn)
    assert all(b <= a + 1e-9 for a, b in zip(tps, tps[1:]))  # kept signal shrinks
    assert all(b >= a - 1e-9 for a, b in zip(tns, tns[1:]))  # rejected noise grows


def test_high_skill_drives_fn_to_zero():
    # separation starts at ten widths; skill stretches it far past any overlap
    base = ClassifierModel(
        positive=ParametricScores("normal", loc=1.0, scale=0.1),
        negative=ParametricScores("normal", loc=0.0, scale=0.1),
    )
    model = apply_skill(base, 10.0)
    flow = _flow(100.0, 900.0)
    op = solve_operating_point(model, flow, reduction_target=10.0)
    assert op.confusion.fn < 1e-6 * flow.n_true
    assert op.confusion.tp == pytest.approx(100.0, rel=1e-6)


def test_apply_skill_scales_separation_and_composes():
    base = ClassifierModel(
        positive=ParametricScores("normal", loc=2.0, scale=1.0),
        negative=ParametricScores("normal", loc=0.5, scale=1.0),
    )
    once = apply_skill(base, 1.2)
    assert once.positive.mean() - once.negative.mean() == pytest.approx(1.8)
    assert once.negative is base.negative  # only the positive side moves
    assert once.skill_factor == pytest.approx(1.2)

    twice = apply_skill(once, 1.5)
    assert twice.skill_factor == pytest.approx(1.8)
    assert twice.positive.mean() - twice.negative.mean() == pytest.approx(1.5 * 1.8)

    assert apply_skill(base, 1.0) is base


def test_skill_monotonically_improves_tp():
    rng = np.random.default_rng(7)
    base = ClassifierModel(
        positive=EmpiricalScores(rng.normal(1.0, 1.0, size=20_000)),
        negative=EmpiricalScores(rng.normal(0.0, 1.0, size=20_000)),
    )
    flow = _flow(2e4, 1.8e5)
    tps = []
    for skill in (1.0, 1.1, 1.2, 1.3, 1.4):
        op = solve_operating_point(apply_skill(base, skill), flow, reduction_target=40.0)
        tps.append(op.confusion.tp)
    assert all(b >= a - 1e-9 for a, b in zip(tps, tps[1:]))


def test_empirical_cdf_quantile_and_atoms():
    samples = np.repeat(np.arange(10.0), 200)  # 2000 samples, heavy atoms
    dist = EmpiricalScores(samples)
    assert dist.cdf(0.0) == pytest.approx(0.1)  # right-continuous steps
    assert dist.cdf(-0.5) == 0.0
    assert dist.cdf(9.0) == 1.0
    assert dist.atom_mass(3.0) == pytest.approx(0.1)
    assert dist.atom_mass(3.5) == 0.0
    # smallest sample value whose cumulative share reaches q
    assert dist.quantile(0.05) == 0.0
    assert dist.quantile(0.10) == 0.0
    assert dist.quantile(0.1001) == 1.0
    assert dist.quantile(1.0) == 9.0
    assert dist.mean() == pytest.approx(4.5)


def test_empirical_operating_point_hits_rate_exactly():
    rng = np.random.default_rng(11)
    model = ClassifierModel(
        positive=EmpiricalScores(rng.integers(0, 5, size=5000).astype(float)),
        negative=EmpiricalScores(rng.integers(0, 4, size=5000).astype(float)),
    )
    flow = _flow(1e4, 4e6)
    op = solve_operating_point(model, flow, reduction_target=400.0)
    cm = op.confusion
    assert cm.tp + cm.fp == pytest.approx(flow.rate / 400.0, rel=1e-12)
    assert 0.0 <= op.boundary_keep <= 1.0
    assert op.boundary_keep > 0.0  # integer scores force an atom split
    assert cm.tp + cm.fn == pytest.approx(flow.n_true, rel=1e-9)
    assert cm.fp + cm.tn == pytest.approx(flow.n_false, rel=1e-9)


def test_empirical_scores_are_immutable_and_sorted():
    dist = EmpiricalScores(np.linspace(5.0, 0.0, 1500))
    assert dist.samples[0] == 0.0 and dist.samples[-1] == 5.0
    with pytest.raises(ValueError):
        dist.samples[0] = -1.0
    with pytest.raises(ValueError):
        EmpiricalScores(np.zeros(MIN_EMPIRICAL_SAMPLES - 1))


def test_validation_errors():
    with pytest.raises(ValueError, match="family"):
        ParametricScores("gamma", loc=0.0, scale=1.0)
    with pytest.raises(ValueError, match="scale"):
        ParametricScores("normal", loc=0.0, scale=0.0)
    with pytest.raises(ValueError, match="below"):
        ClassifierModel(
            positive=ParametricScores("normal", loc=-1.0, scale=1.0),
            negative=ParametricScores("normal", loc=0.0, scale=1.0),
        )
    model = ClassifierModel(
        positive=ParametricScores("normal", loc=1.0, scale=1.0),
        negative=ParametricScores("normal", loc=0.0, scale=1.0),
    )
    with pytest.raises(OperatingPointError, match="rejection fraction"):
        solve_threshold(model, _flow(1.0, 1.0), 0.0)
    with pytest.raises(OperatingPointError, match="reduction target"):
        solve_operating_point(model, _flow(1.0, 1.0), 1.0)
    with pytest.raises(DegeneratePopulationError):
        weighted_cdf(model, n_true=0.0, n_false=0.0, z=0.0)
    for skill in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="skill_factor"):
            apply_skill(model, skill)


def test_uniform_family_support_and_solving():
    # uniform(loc, scale) spans [loc, loc + scale]
    model = ClassifierModel(
        positive=ParametricScores("uniform", loc=1.0, scale=2.0),
        negative=ParametricScores("uniform", loc=0.0, scale=2.0),
    )
    assert model.positive.support() == (1.0, 3.0)
    op = solve_operating_point(model, _flow(1e3, 9e3), reduction_target=5.0)
    assert op.confusion.tp + op.confusion.fp == pytest.approx(1e4 / 5.0, rel=1e-12)
