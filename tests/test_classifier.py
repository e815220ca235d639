"""Score distributions, threshold solving, confusion extraction.

The numeric checks are anchored to independently computed references:
quadrature of the mixture density, hand bisection of the analytic CDF, and
direct Monte Carlo — never the module's own arithmetic.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from daqflow import classifier
from daqflow.calibration import fit_lambda, sample_scores
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


@pytest.mark.parametrize("loc", [0.0, 1e7, 1e9])
@pytest.mark.parametrize("reduction", [400.0, 1e14, 1e16])
@pytest.mark.parametrize("family", ["normal", "logistic", "uniform"])
def test_parametric_solve_ends_at_extreme_targets_and_locations(
    family, reduction, loc, monkeypatch
):
    # 1 - 1/R near 1 and scores whose float spacing exceeds the solver's
    # tolerance must both end the bisection; a hang shows as too many calls
    calls = 0
    real_weighted_cdf = classifier.weighted_cdf

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 200, "threshold solve did not end within 200 CDF evaluations"
        return real_weighted_cdf(*args)

    monkeypatch.setattr(classifier, "weighted_cdf", counted)
    model = ClassifierModel(
        positive=ParametricScores(family, loc=loc + 2.0, scale=1.0),
        negative=ParametricScores(family, loc=loc, scale=1.0),
    )
    flow = _flow(4e3, 4e7 - 4e3)
    cm = solve_operating_point(model, flow, reduction).confusion
    assert cm.tp + cm.fp == pytest.approx(flow.rate / reduction, rel=1e-9)


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
        positive=EmpiricalScores.from_samples(rng.normal(1.0, 1.0, size=20_000)),
        negative=EmpiricalScores.from_samples(rng.normal(0.0, 1.0, size=20_000)),
    )
    flow = _flow(2e4, 1.8e5)
    tps = []
    for skill in (1.0, 1.1, 1.2, 1.3, 1.4):
        op = solve_operating_point(apply_skill(base, skill), flow, reduction_target=40.0)
        tps.append(op.confusion.tp)
    assert all(b >= a - 1e-9 for a, b in zip(tps, tps[1:]))


def test_skill_zero_levels_the_means_of_the_bundled_menus(load_fixture):
    # the shifted mean lands within rounding of the negative one, on either side
    menus = load_fixture("cms_base").menus
    for menu in menus.values():
        lams = [fit_lambda(p) for p in menu.paths]
        for seed in range(20):
            negative, positive = sample_scores(menu.paths, lams, menu.mode, menu.sample_count, seed)
            level = apply_skill(ClassifierModel(positive, negative), 0.0)
            assert level.skill_factor == 0.0
            assert level.positive.mean() == pytest.approx(negative.mean(), rel=1e-12)
    assert len(menus) == 2


def test_mean_order_guard_forgives_rounding_only():
    rng = np.random.default_rng(3)

    def bimodal(offset):
        halves = (-1e6 + rng.random(1000), 1e6 + rng.random(1000))
        return EmpiricalScores.from_samples(np.concatenate(halves) + offset)

    # scores of size 1e6 with means near 0: the rounding a skill-0 shift leaves
    # grows with the spread, far past any slack that follows the means alone
    for _ in range(20):
        level = apply_skill(ClassifierModel(bimodal(3.0), bimodal(0.0)), 0.0)
        assert level.positive.mean() == pytest.approx(level.negative.mean(), abs=1e-9)

    sparse = rng.integers(0, 5, size=2000) * (rng.random(2000) < 0.01)  # like a summed menu
    cases = [
        ParametricScores("normal", loc=0.0, scale=1.0),
        ParametricScores("logistic", loc=1e6, scale=1e3),
        ParametricScores("uniform", loc=-1e6, scale=2e6),  # mean 0, scores of size 1e6
        EmpiricalScores.from_samples(sparse),
        bimodal(0.0),
    ]
    for negative in cases:
        spread = negative.spread()
        assert spread > 0
        with pytest.raises(ValueError, match="below"):
            ClassifierModel(positive=negative.shift(-1e-6 * spread), negative=negative)


def test_empirical_cdf_quantile_and_atoms():
    samples = np.repeat(np.arange(10.0), 200)  # 2000 samples, heavy atoms
    dist = EmpiricalScores.from_samples(samples)
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
        positive=EmpiricalScores.from_samples(rng.integers(0, 5, size=5000).astype(float)),
        negative=EmpiricalScores.from_samples(rng.integers(0, 4, size=5000).astype(float)),
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
    dist = EmpiricalScores.from_samples(np.linspace(5.0, 0.0, 1500))
    assert (dist.values[0], dist.values[-1]) == (0.0, 5.0)
    assert list(dist.values) == sorted(dist.values) and len(dist.values) == 1500
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.values = ()
    ties = EmpiricalScores.from_samples(np.tile([2.0, 0.0, 2.0, 1.0], 500))
    assert ties == EmpiricalScores(values=(0.0, 1.0, 2.0), cumulative=(500, 1000, 2000))
    assert pickle.loads(pickle.dumps(ties)) == ties
    with pytest.raises(ValueError):
        EmpiricalScores.from_samples(np.zeros(MIN_EMPIRICAL_SAMPLES - 1))
    with pytest.raises(ValueError):
        EmpiricalScores.from_samples(np.append(np.zeros(2000), math.nan))
    with pytest.raises(ValueError):
        EmpiricalScores(values=(0.0, 1.0), cumulative=(2000,))


# Sample arrays as a seeded draw: integer scores with heavy ties (the
# calibrated menus' case) or continuous normal scores, optionally shifted.
_tied = st.tuples(
    st.just("tied"), st.integers(0, 2**32 - 1), st.integers(1000, 4000), st.integers(1, 6)
)
_continuous = st.tuples(
    st.just("continuous"), st.integers(0, 2**32 - 1), st.integers(1000, 4000),
    st.floats(1e-3, 1e3),
)


def _draw(kind, seed, n, spread):
    rng = np.random.default_rng(seed)
    if kind == "tied":
        return rng.integers(0, spread + 1, size=n).astype(float)
    return rng.normal(0.0, spread, size=n)


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(_tied, _continuous),
    shift=st.none() | st.floats(-1e3, 1e3, allow_nan=False),
    qs=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_empirical_atoms_match_the_sorted_sample_array(case, shift, qs):
    samples = _draw(*case)
    dist = EmpiricalScores.from_samples(samples)
    ref = np.sort(samples)
    if shift is not None:
        dist = dist.shift(shift)
        ref = np.sort(ref + shift)
    n = ref.size
    assert dist.size == n

    atoms = ref[:: max(1, n // 50)]
    probes = np.concatenate([atoms, atoms + 1e-9, [ref[0] - 1.0, ref[-1], ref[-1] + 1.0]])
    for z in probes.tolist():
        right = int(np.searchsorted(ref, z, side="right"))
        left = int(np.searchsorted(ref, z, side="left"))
        assert dist.cdf(z) == right / n
        assert dist.atom_mass(z) == (right - left) / n
    for q in qs + [0.0, 1.0, 1 / n, 0.5, (n - 1) / n]:
        assert dist.quantile(q) == ref[max(0, min(n - 1, math.ceil(q * n) - 1))]
    assert (dist.values[0], dist.values[-1]) == (ref[0], ref[-1])
    assert dist.mean() == pytest.approx(float(ref.mean()), rel=1e-12, abs=1e-12)


_SCIPY = {"normal": stats.norm, "logistic": stats.logistic, "uniform": stats.uniform}


def _bits(x) -> str:
    return float(x).hex()


@pytest.mark.parametrize("family", sorted(_SCIPY))
def test_parametric_closed_forms_equal_scipy_stats_bitwise(family):
    rng = np.random.default_rng(20241017)
    for _ in range(200):
        loc = float(rng.normal(0.0, 3.0))
        scale = float(rng.uniform(0.05, 5.0))
        ours = ParametricScores(family, loc=loc, scale=scale)
        ref = _SCIPY[family](loc=loc, scale=scale)
        zs = [loc, loc + scale, -math.inf, math.inf, math.nan]
        zs += rng.normal(loc, 3 * scale, 8).tolist()
        for z in zs:
            assert _bits(ours.cdf(z)) == _bits(ref.cdf(z)), (z, loc, scale)
        qs = [0.0, 1.0, -0.1, 1.1, 1e-300, 1.0 - 1e-16] + rng.uniform(0.0, 1.0, 8).tolist()
        for q in qs:
            assert _bits(ours.quantile(q)) == _bits(ref.ppf(q)), (q, loc, scale)
        assert _bits(ours.mean()) == _bits(ref.mean())


def test_validation_errors():
    with pytest.raises(ValueError, match="family"):
        ParametricScores("gamma", loc=0.0, scale=1.0)
    with pytest.raises(ValueError, match="scale"):
        ParametricScores("normal", loc=0.0, scale=0.0)
    with pytest.raises(ValueError, match="loc must be finite"):
        ParametricScores("normal", loc=math.nan, scale=1.0)
    with pytest.raises(ValueError, match="scale must be finite"):
        ParametricScores("normal", loc=0.0, scale=math.inf)
    with pytest.raises(ValueError, match="below"):
        ClassifierModel(
            positive=ParametricScores("normal", loc=-1.0, scale=1.0),
            negative=ParametricScores("normal", loc=0.0, scale=1.0),
        )
    with pytest.raises(ValueError, match="both empirical or both parametric"):
        ClassifierModel(
            positive=EmpiricalScores.from_samples(np.ones(2000)),
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
    assert model.positive.cdf(1.0) == 0.0 and model.positive.cdf(3.0) == 1.0
    op = solve_operating_point(model, _flow(1e3, 9e3), reduction_target=5.0)
    assert op.confusion.tp + op.confusion.fp == pytest.approx(1e4 / 5.0, rel=1e-12)
