"""Variance estimation, tests, intervals and the robust procedure."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sivreg import (
    DesignError,
    Fit,
    NonpositiveVarianceError,
    Sample,
    SaturatedDesign,
    SimConfig,
    build_design,
    chao_variance,
    confidence_interval,
    estimate_jive1,
    estimate_jive2,
    estimate_sive,
    estimate_tsls,
    filter_design,
    first_stage_strength,
    generate_sample,
    projection_diag_P,
    replication_seed,
    robust_ci,
    robust_test,
    sive_report,
    sive_variance,
    t_test,
    validate_group_sizes,
)
from sivreg.blockops import (
    GroupSizeError,
    SmallCellError,
    _CellMoments,
    apply_A,
    apply_M_W,
    apply_P,
)
from sivreg.design import _DesignStack
from sivreg.estimators import DENOMINATOR_RTOL, EstimatorKind, WeakDenominatorError, _moments
from sivreg.inference import hartley_sigma
from sivreg.oracle import assemble, oracle_chao_variance, oracle_estimate, oracle_variance
from sivreg import blockops, inference, simulation
from sivreg.simulation import _run_grid

from conftest import moment_table, random_design, strong_sample, table_sums
from per_draw_reference import draw_stack, kept_rows, layout_of


def one_group(n, m):
    return build_design([[0]] * n, [1] * m + [0] * (n - m))


def test_sigma_mixed_cells_frozen():
    d = one_group(5, 3)  # active cell size 3, inactive size 2
    T = np.array([2 / 3, -1 / 3, -1 / 3, 0.0, 0.0])  # already cell-demeaned
    sig = hartley_sigma(d, T, np.zeros(5))
    np.testing.assert_allclose(sig.sigma_u2, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sig.sigma_v2, 0.0, atol=1e-12)
    np.testing.assert_allclose(sig.sigma_uv, 0.0, atol=1e-12)
    assert sig.used_fallback.tolist() == [False, False, False, True, True]


def test_sigma_small_cells_use_factor_four():
    d = one_group(4, 2)
    T = np.array([1.0, 0.0, 1.0, 0.0])  # demeans to +-1/2 in both cells
    sig = hartley_sigma(d, T, T)
    np.testing.assert_allclose(sig.sigma_u2, 1.0)
    np.testing.assert_allclose(sig.sigma_v2, 1.0)
    np.testing.assert_allclose(sig.sigma_uv, 1.0)
    assert sig.used_fallback.all()


def test_sigma_equal_arguments_coincide():
    rng = np.random.default_rng(21)
    d = random_design(rng, G=3)
    v = rng.standard_normal(d.n)
    sig = hartley_sigma(d, v, v)
    np.testing.assert_allclose(sig.sigma_u2, sig.sigma_v2, atol=1e-12)
    np.testing.assert_allclose(sig.sigma_u2, sig.sigma_uv, atol=1e-12)


def test_sigma_rejects_singleton_cells():
    d = one_group(4, 1)
    with pytest.raises(DesignError):
        hartley_sigma(d, np.arange(4.0), np.arange(4.0))


def test_noiseless_variance_is_zero():
    d = one_group(8, 4)
    z = d.instrument.astype(float)
    assert sive_variance(d, 2.0 * z, z, 2.0) == 0.0


def test_variance_matches_score_variance_identity():
    rng = np.random.default_rng(22)
    d = random_design(rng, G=4)
    s = strong_sample(rng, d)
    beta0 = 0.7
    var = sive_variance(d, s.outcome, s.treatment, beta0)
    res = robust_test(d, s.outcome, s.treatment, beta0)
    t_a_t = float(s.treatment @ apply_A(d, s.treatment))
    assert abs(var * t_a_t**2 - res["variance_at_beta0"]) < 1e-8 * res["variance_at_beta0"]


def test_variance_translation_invariant_in_controls():
    rng = np.random.default_rng(23)
    d = random_design(rng, G=3)
    s = strong_sample(rng, d)
    beta = estimate_sive(d, s)
    gamma = rng.standard_normal(d.G)
    shifted = s.outcome + gamma[d.group_of]
    base = sive_variance(d, s.outcome, s.treatment, beta)
    assert abs(sive_variance(d, shifted, s.treatment, beta) - base) < 1e-10 * base


def test_t_test_frozen_decisions():
    res = t_test(2.0, 1.0, 0.0)
    assert abs(res["t"] - 2.0) < 1e-12
    assert res["reject"] is True
    assert abs(res["p"] - 0.04550026) < 1e-6
    assert math.isclose(res["p"], 2.0 * float(norm.sf(2.0)), rel_tol=1e-13)
    res = t_test(1.0, 4.0, 0.0)
    assert abs(res["t"] - 0.5) < 1e-12
    assert res["reject"] is False
    assert abs(res["p"] - 0.61708) < 1e-4
    assert math.isclose(res["p"], 2.0 * float(norm.sf(0.5)), rel_tol=1e-13)
    # exactly at the boundary of the one-percent test
    res = t_test(1.0, 1.0, 1.0, alpha=0.01)
    assert res["t"] == 0.0 and res["reject"] is False


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.1, 0.5, 1 - 1e-9, 1e-10, 1e-290, 1e-301])
def test_array_t_decision_equals_t_test(alpha):
    # simulate decides its t-tests on arrays; each decision must be t_test's.
    # The statistics crowd +-z_{1-alpha/2}: every float within 3000 ulps of
    # it, then a band 1e-5 wide on either side.
    rng = np.random.default_rng(2406)
    z = float(norm.isf(alpha / 2.0))
    ulps = z + np.spacing(z) * np.arange(-3000, 3000)
    t = np.concatenate([
        ulps,
        z * (1.0 + rng.uniform(-1e-5, 1e-5, 4000)),
        rng.standard_normal(2000) * 2.0 * z,
        [0.0, np.inf, 1e300],
    ])
    t *= rng.choice([-1.0, 1.0], t.size)
    variance = rng.uniform(0.01, 4.0, t.size)
    beta0 = rng.normal(0.0, 3.0, t.size)
    beta_hat = beta0 + t * np.sqrt(variance)
    # t_test refuses an infinite estimate; on arrays an infinite |t| rejects.
    finite = np.isfinite(beta_hat)
    want = [
        t_test(b, v, b0, alpha)["reject"]
        for b, v, b0 in zip(*(x[finite].tolist() for x in (beta_hat, variance, beta0)))
    ]
    got = inference._t_rejects(beta_hat, variance, beta0, alpha)
    assert got.dtype == bool and got[finite].tolist() == want
    assert (~finite).sum() == 1 and got[~finite].all()
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize(
    "alpha", [0.05, 0.01, 0.1, 0.5, 1 - 1e-9, 1e-6, 1e-10, 1e-290, 1e-301]
)
def test_t_test_rejects_exactly_where_abs_t_exceeds_the_critical_value(alpha):
    # One z decides every test, the one the interval uses.  p = 2 ndtr(-|t|)
    # would not do: near alpha = 1 it keeps only ~1e-16 absolute precision,
    # so p < alpha tips the other way on floats next to z.
    z = inference._critical_value(alpha, True)
    ts = (z + np.spacing(z) * np.arange(-3000, 3001)).tolist()
    assert [t for t in ts if t_test(t, 1.0, 0.0, alpha)["reject"] != (abs(t) > z)] == []


@pytest.mark.parametrize("alpha", [0.5, 0.05, 0.01, 1e-10, 1e-100, 1e-300])
def test_t_test_p_is_alpha_at_the_interval_ends(alpha):
    # At either end of the interval |t| is exactly z: the test does not
    # reject, and the p it reports is alpha.
    for beta0 in confidence_interval(0.0, 1.0, alpha):
        res = t_test(0.0, 1.0, beta0, alpha)
        assert res["reject"] is False
        assert math.isclose(res["p"], alpha, rel_tol=1e-12)


def test_t_test_never_rejects_where_the_interval_is_the_whole_line():
    # alpha / 2 underflows to 0, so z is infinite.
    assert confidence_interval(0.0, 1.0, 5e-324) == (-np.inf, np.inf)
    assert t_test(1e300, 1.0, 0.0, 5e-324)["reject"] is False


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_beta_is_refused_by_name(bad):
    # Each would otherwise come out as a decision, a NaN statistic or a
    # weak-denominator error, none of which names the bad argument.
    rng = np.random.default_rng(50)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    Y, T = s.outcome, s.treatment
    calls = [
        ("beta", lambda: sive_variance(d, Y, T, bad)),
        ("beta_hat", lambda: chao_variance(d, Y, T, bad)),
        ("beta0", lambda: robust_test(d, Y, T, bad)),
        ("beta0", lambda: sive_report(d, s, beta0=bad)),
        ("beta0", lambda: t_test(1.0, 1.0, bad)),
        ("beta_hat", lambda: t_test(bad, 1.0, 0.0)),
        ("beta_hat", lambda: confidence_interval(bad, 1.0)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            call()


def test_t_test_requires_positive_variance():
    with pytest.raises(NonpositiveVarianceError):
        t_test(1.0, 0.0, 0.0)
    with pytest.raises(NonpositiveVarianceError):
        confidence_interval(1.0, -1.0)


def test_sive_variance_group_constant_treatment_is_weak():
    # A annihilates group constants, so T'AT is exactly zero
    rng = np.random.default_rng(3)
    d = random_design(rng)
    T = (d.group_of % 2).astype(float)
    Y = rng.standard_normal(d.n)
    with pytest.raises(WeakDenominatorError, match="numerically zero"):
        sive_variance(d, Y, T, 0.5)


def test_confidence_interval_frozen_values():
    lo, hi = confidence_interval(0.125, 0.342**2, alpha=0.05)
    assert abs(lo - (-0.546)) < 1e-3
    assert abs(hi - 0.795) < 1e-3
    lo, hi = confidence_interval(0.0, 1.0, alpha=0.05)
    assert abs(lo + 1.959963985) < 1e-8
    assert abs(hi - 1.959963985) < 1e-8
    assert hi == float(norm.isf(0.025))


def test_critical_values_keep_their_digits_at_tiny_alpha():
    # z comes from the tail probability alpha/2 itself: formed from
    # 1 - alpha/2 it lost digits as alpha shrank and was infinite once
    # alpha <= 2**-53, so the interval was unbounded and the robust test
    # never rejected.
    for alpha in (0.05, 1e-10, 2e-16, 1e-17):
        assert confidence_interval(0.0, 1.0, alpha=alpha)[1] == float(norm.isf(alpha / 2))
    assert confidence_interval(0.0, 1.0, alpha=1e-17) == (-8.573944076720883, 8.573944076720883)
    assert t_test(9.0, 1.0, 0.0, alpha=1e-17)["reject"]
    rng = np.random.default_rng(0)
    d = random_design(rng, G=20, size_range=(16, 24))
    s = strong_sample(rng, d, tau=1.0, pi=3.0)
    Y, T = s.outcome, s.treatment
    assert robust_test(d, Y, T, beta0=5.0, alpha=1e-17)["reject"]
    assert not robust_test(d, Y, T, beta0=1.0, alpha=1e-17)["reject"]
    window = {"low": -10.0, "high": 10.0}
    tiny = robust_ci(d, Y, T, grid=window, alpha=1e-17)
    assert not tiny["unbounded"] and not tiny["unbounded_within_grid"]
    [(lo, hi)] = tiny["intervals"]
    [(lo_05, hi_05)] = robust_ci(d, Y, T, grid=window)["intervals"]
    assert lo < lo_05 < 1.0 < hi_05 < hi


def test_confidence_interval_width_scales_with_se():
    lo1, hi1 = confidence_interval(0.0, 1.0)
    lo2, hi2 = confidence_interval(0.0, 4.0)
    assert abs((hi2 - lo2) - 2.0 * (hi1 - lo1)) < 1e-10


def test_robust_test_never_rejects_truth_without_noise():
    d = one_group(8, 4)
    z = d.instrument.astype(float)
    res = robust_test(d, 2.0 * z, z, beta0=2.0)
    assert res["score"] == 0.0
    assert res["variance_at_beta0"] == 0.0
    assert res["reject"] is False


def test_robust_test_agrees_with_t_test_under_strong_id():
    rng = np.random.default_rng(24)
    d = random_design(rng, G=5, size_range=(8, 12))
    agree = 0
    total = 500
    for _ in range(total):
        s = strong_sample(rng, d, tau=1.0, pi=1.2)
        beta = estimate_sive(d, s)
        var = sive_variance(d, s.outcome, s.treatment, beta)
        if var <= 0:
            continue
        classic = t_test(beta, var, 1.0)["reject"]
        robust = robust_test(d, s.outcome, s.treatment, 1.0)["reject"]
        agree += classic == robust
    assert agree / total >= 0.95


def test_robust_ci_covers_point_estimate_under_strong_id():
    rng = np.random.default_rng(25)
    d = random_design(rng, G=5, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    beta = estimate_sive(d, s)
    res = robust_ci(d, s.outcome, s.treatment)
    assert res["alpha"] == 0.05
    assert res["grid"]["low"] < beta < res["grid"]["high"]
    assert len(res["intervals"]) >= 1
    assert any(lo <= beta <= hi for lo, hi in res["intervals"])
    assert res["unbounded_within_grid"] is False


def test_robust_ci_weak_id_accepts_across_grid():
    rng = np.random.default_rng(26)
    d = random_design(rng, G=4, size_range=(8, 12))
    n = d.n
    # no instrument effect at all: any slope is nearly acceptable
    T = rng.standard_normal(n)
    Y = 0.5 * T + rng.standard_normal(n)
    res = robust_ci(d, Y, T, grid={"low": -4.0, "high": 4.0, "step": 0.25})
    accepted = sum(hi - lo for lo, hi in res["intervals"])
    assert accepted >= 4.0
    assert res["unbounded_within_grid"] is True


def test_robust_ci_far_grid_is_empty():
    # the statistic approaches a positive constant as beta0 grows, so the
    # design must be strong enough for that limit to clear the critical value
    rng = np.random.default_rng(27)
    d = random_design(rng, G=5, size_range=(30, 40))
    s = strong_sample(rng, d, tau=1.0, pi=1.5)
    res = robust_ci(d, s.outcome, s.treatment, grid={"low": 50.0, "high": 60.0, "step": 1.0})
    assert res["intervals"] == []
    assert res["unbounded_within_grid"] is False


@pytest.mark.parametrize(
    "low, high",
    [
        (-np.inf, np.inf),
        (-np.inf, 5.0),
        (-5.0, np.inf),
        (1e308, 1.7e308),  # their sum overflows
        (-1e308, 1.7e308),  # a finite midpoint, but R = Y - center T overflows
    ],
)
def test_robust_ci_infinite_or_huge_window_is_solved_around_zero(low, high):
    # A window whose midpoint is infinite or overflows the table gives the
    # exact set solved on the table at 0, clipped, without a warning.  The
    # window [-100, 100] is solved there too, and holds the whole set.
    rng = np.random.default_rng(3)
    d = random_design(rng, G=200)
    s = strong_sample(rng, d, pi=2.0)
    Y, T = s.outcome, s.treatment
    at_zero = robust_ci(d, Y, T, grid={"low": -100.0, "high": 100.0})
    exact = at_zero["intervals"]
    assert len(exact) == 1 and not at_zero["unbounded_within_grid"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = robust_ci(d, Y, T, grid={"low": low, "high": high, "step": 1.0})
    assert res["intervals"] == [
        (max(lo, low), min(hi, high)) for lo, hi in exact if lo <= high and hi >= low
    ]
    assert res["unbounded"] is False


def test_robust_ci_default_grid_needs_positive_variance():
    d = one_group(8, 4)
    z = d.instrument.astype(float)
    with pytest.raises(NonpositiveVarianceError, match="grid"):
        robust_ci(d, 2.0 * z, z)


@pytest.mark.parametrize("step", [0.0, np.nan, np.inf, -1.0])
def test_robust_ci_refuses_a_step_that_is_not_finite_and_positive(step):
    rng = np.random.default_rng(28)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    with pytest.raises(ValueError, match="grid step must be finite and positive"):
        robust_ci(d, s.outcome, s.treatment, grid={"low": -1.0, "high": 3.0, "step": step})


@pytest.mark.parametrize("low, high", [(1.0, 1.0), (3.0, -1.0), (0.0, np.nan)])
def test_robust_ci_refuses_a_window_whose_high_does_not_exceed_its_low(low, high):
    rng = np.random.default_rng(28)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    with pytest.raises(ValueError, match=f"^grid high {high} must exceed grid low {low}$"):
        robust_ci(d, s.outcome, s.treatment, grid={"low": low, "high": high})


def test_chao_zero_residual_is_zero():
    d = one_group(8, 4)
    z = d.instrument.astype(float)
    gamma = 3.0
    Y = 2.0 * z + gamma
    beta = estimate_sive(d, Sample(Y, z))
    assert abs(beta - 2.0) < 1e-12
    assert chao_variance(d, Y, z, beta) == 0.0


def test_chao_scale_and_shift_properties():
    rng = np.random.default_rng(29)
    d = random_design(rng, G=3, size_range=(6, 10))
    s = strong_sample(rng, d)
    beta = estimate_sive(d, s)
    base = chao_variance(d, s.outcome, s.treatment, beta)
    assert base > 0.0
    scaled = chao_variance(d, 3.0 * s.outcome, s.treatment, 3.0 * beta)
    assert abs(scaled - 9.0 * base) < 1e-8 * scaled
    gamma = rng.standard_normal(d.G)
    shifted = chao_variance(d, s.outcome + gamma[d.group_of], s.treatment, beta)
    assert abs(shifted - base) < 1e-8 * base


def test_variance_fallback_design_still_positive():
    rng = np.random.default_rng(30)
    d = build_design([[g] for g in range(5) for _ in range(4)], [1, 1, 0, 0] * 5)
    s = strong_sample(rng, d)
    beta = estimate_sive(d, s)
    sig = hartley_sigma(d, s.treatment, s.outcome - beta * s.treatment)
    assert sig.used_fallback.all()
    assert sive_variance(d, s.outcome, s.treatment, beta) > 0.0


def test_report_noiseless_degenerates_gracefully():
    d = one_group(8, 4)
    z = d.instrument.astype(float)
    report = sive_report(d, Sample(2.0 * z, z))
    assert report.beta_hat == 2.0
    assert report.variance == 0.0
    assert report.std_error == 0.0
    assert report.ci_low == report.ci_high == 2.0
    assert report.t_stat is None
    assert report.fs_diag is not None and report.fs_diag["FS"] > 0


def test_report_fields_round_trip():
    rng = np.random.default_rng(31)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    report = sive_report(d, s, alpha=0.05, beta0=1.0)
    payload = report.to_json_dict()
    assert set(payload) == {
        "beta_hat", "variance", "std_error", "ci_low", "ci_high",
        "beta0", "t_stat", "fs_diag",
    }
    assert payload["ci_low"] < payload["beta_hat"] < payload["ci_high"]
    assert abs(payload["std_error"] - np.sqrt(payload["variance"])) < 1e-12
    lo, hi = confidence_interval(report.beta_hat, report.variance)
    assert abs(payload["ci_low"] - lo) < 1e-12
    assert abs(payload["ci_high"] - hi) < 1e-12


def weak_or_strong_sample(rng, design, pi):
    """Endogenous treatment with first-stage strength ``pi`` (0 = unidentified)."""
    z = design.instrument.astype(float)
    u = rng.standard_normal(design.n)
    T = pi * z + u
    Y = 0.5 * T + 0.6 * u + rng.standard_normal(design.n)
    return Y, T


def set_shape(res):
    intervals, low, high = res["intervals"], res["grid"]["low"], res["grid"]["high"]
    if not intervals:
        return "empty"
    if not res["unbounded"]:
        return "bounded"
    left, right = intervals[0][0] == low, intervals[-1][1] == high
    if left and right:
        return "line" if len(intervals) == 1 else "two rays"
    return "ray"


def test_robust_ci_agrees_with_grid_inversion():
    # The grid inversion that robust_ci replaced, kept as the reference: the
    # exact set must agree with the per-point test away from its endpoints.
    rng = np.random.default_rng(40)
    probes = np.linspace(-10.0, 10.0, 41)
    window = {"low": -20.0, "high": 20.0, "step": 1.0}
    shapes = set()
    for rep in range(15):
        d = random_design(rng, G=3, size_range=(10, 20))
        Y, T = weak_or_strong_sample(rng, d, pi=(0.0, 0.2, 1.0)[rep % 3])
        for two_sided in (True, False):
            res = robust_ci(d, Y, T, grid=window, two_sided=two_sided)
            shapes.add(set_shape(res))
            ends = [e for iv in res["intervals"] for e in iv if abs(e) < 20.0]
            for b in probes:
                if any(abs(b - e) <= 1e-8 for e in ends):
                    continue
                inside = any(lo <= b <= hi for lo, hi in res["intervals"])
                test = robust_test(d, Y, T, float(b), two_sided=two_sided)
                assert inside == (not test["reject"]), (rep, two_sided, b, res)
    assert shapes >= {"bounded", "ray", "line", "two rays"}


def test_robust_ci_inverts_the_test_when_the_score_is_flat():
    # Integer data on which T'AT is exactly 0.0, so the score S does not
    # move with beta0 and Q = S^2 - crit^2 V is a parabola with a constant
    # S^2 term.  S must stay a line of slope 0 there: trimmed to degree 0,
    # it broadcasts over V's three coefficients and the set comes back empty.
    d = SaturatedDesign(np.repeat(np.arange(6), 6), np.tile([0, 0, 0, 1, 1, 1], 6))
    T = np.array([2, 0, 1, 0, 2, 1, 1, 1, 2, 2, 1, 2, 1, 2, 0, 1, 0, 0,
                  1, 1, 1, 2, 2, 2, 0, 2, 0, 1, 2, 2, 0, 0, 2, 1, 0, 2], dtype=float)
    Y = np.array([3, 1, 3, 1, -1, 3, -1, -1, -3, -3, -1, 1, 0, -1, 1, -1, 2, -3,
                  -2, -2, -1, 2, 1, 3, -2, -3, -2, 1, -2, -2, 1, 1, -2, -2, 3, 3],
                 dtype=float)
    assert moment_table(d, T, Y).a_form()[1] == 0.0
    window = {"low": -5.0, "high": 5.0}
    for two_sided in (True, False):
        res = robust_ci(d, Y, T, grid=window, two_sided=two_sided)
        assert len(res["intervals"]) == 2, res  # two rays
        ends = [e for iv in res["intervals"] for e in iv]
        for b in np.linspace(-5.0, 5.0, 401):
            if any(abs(b - e) <= 1e-8 for e in ends):
                continue
            inside = any(lo <= b <= hi for lo, hi in res["intervals"])
            test = robust_test(d, Y, T, float(b), two_sided=two_sided)
            assert inside == (not test["reject"]), (two_sided, b, res)


def test_robust_polynomials_are_exact():
    # The expansion around 0, evaluated at beta, against the direct score and
    # variance at beta (the constant terms of the expansion around beta).
    from sivreg.inference import _robust_polynomials

    rng = np.random.default_rng(41)
    for pi in (0.0, 1.0):
        d = random_design(rng, G=4, size_range=(5, 12))
        Y, T = weak_or_strong_sample(rng, d, pi)
        score, variance = _robust_polynomials(moment_table(d, T, Y))
        for beta in (-50.0, -1.0, 0.0, 0.3, 2.0, 1000.0):
            s_at, v_at = _robust_polynomials(moment_table(d, T, Y, center=beta))
            s, v = s_at[0], v_at[0]
            assert abs(score[0] + score[1] * beta - s) <= 1e-10 * abs(s)
            v_poly = np.polynomial.polynomial.polyval(beta, variance)
            assert abs(v_poly - v) <= 1e-10 * abs(v)


def test_robust_ci_always_accepts_point_estimate():
    rng = np.random.default_rng(42)
    for rep in range(12):
        d = random_design(rng, G=3, size_range=(6, 14))
        Y, T = weak_or_strong_sample(rng, d, pi=(0.0, 0.2, 1.0)[rep % 3])
        beta = estimate_sive(d, Sample(Y, T))
        window = {"low": beta - 1.0, "high": beta + 1.0}
        for two_sided in (True, False):
            res = robust_ci(d, Y, T, grid=window, two_sided=two_sided)
            assert any(lo <= beta <= hi for lo, hi in res["intervals"])


def test_robust_ci_noiseless_window_contains_truth_off_grid():
    # T varies within cells, so the variance is positive away from the truth
    # and the set shrinks to the single point beta = 2, which is not a grid
    # point of this window.
    rng = np.random.default_rng(43)
    d = random_design(rng, G=4, size_range=(8, 12))
    T = 3.0 * d.instrument + rng.standard_normal(d.n)
    res = robust_ci(d, 2.0 * T, T, grid={"low": 1.3, "high": 2.9, "step": 0.5})
    assert res["intervals"] == [(2.0, 2.0)]
    assert res["unbounded"] is False
    assert res["grid"]["step"] == 0.5
    res = robust_ci(d, 2.0 * T, T, grid={"low": 1.3, "high": 2.9})
    assert res["intervals"] == [(2.0, 2.0)]
    assert res["grid"]["step"] is None


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_alpha_must_lie_inside_unit_interval(alpha):
    rng = np.random.default_rng(44)
    d = random_design(rng, G=3, size_range=(8, 12))
    s = strong_sample(rng, d)
    with pytest.raises(ValueError, match="alpha"):
        t_test(1.0, 1.0, 0.0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        confidence_interval(0.0, 1.0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        robust_test(d, s.outcome, s.treatment, 1.0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        robust_ci(d, s.outcome, s.treatment, grid={"low": 0.0, "high": 2.0}, alpha=alpha)


@pytest.mark.parametrize(
    "call",
    [
        lambda d, v: apply_A(d, v),
        lambda d, v: sive_variance(d, np.ones(d.n), v, 1.0),
        lambda d, v: robust_ci(d, v, np.ones(d.n), grid={"low": 0.0, "high": 2.0}),
    ],
    ids=["apply_A", "sive_variance", "robust_ci"],
)
def test_wrong_length_vector_raises_design_error(call):
    d = random_design(np.random.default_rng(45), G=3, size_range=(8, 12))
    with pytest.raises(DesignError, match=f"expected \\({d.n},\\)"):
        call(d, np.ones(d.n - 1))


def test_import_does_not_load_scipy_stats():
    # numpy 1.x imports numpy.polynomial itself: only what sivreg adds counts.
    code = (
        "import sys, numpy; numpy_own = set(sys.modules); import sivreg; "
        "print(*(m in sys.modules and m not in numpy_own for m in ('scipy.stats', "
        "'scipy.linalg', 'sivreg.cli', 'sivreg.oracle', 'argparse', 'hashlib', "
        "'numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == " ".join(["False"] * 7)


def test_per_observation_references_are_exported_by_their_modules_only():
    import sivreg

    references = {
        blockops: ["SmallCellError", "apply_A", "apply_M_W", "apply_M_WZ", "apply_MM_inv",
                   "apply_MM_inv_W", "apply_P", "cell_sizes", "sive_diag_D"],
        inference: ["SigmaEstimates", "hartley_sigma"],
    }
    # Each stays defined in and listed by its module (the names the
    # benchmark's tracer wraps) and is gone from the package namespace.
    for module, names in references.items():
        for name in names:
            assert name in module.__all__, name
            assert getattr(module, name).__module__ == module.__name__, name
            assert name not in sivreg.__all__ and not hasattr(sivreg, name), name
    # The two operators the estimation API needs stay on the import path.
    assert sivreg.projection_diag_P is blockops.projection_diag_P
    assert sivreg.trace_A_squared is blockops.trace_A_squared


DEFAULT_COMMANDS = """
import json, sys
import sivreg
from sivreg.cli import main

data, config, out = sys.argv[1:]
base = ["--data", data, "--outcome", "y", "--treatment", "t", "--instrument", "z",
        "--covariates", "w"]
codes = [main(["estimate", *base, "--estimator", kind])
         for kind in ("sive", "tsls-saturated", "jive1", "jive2")]
codes.append(main(["robust-ci", *base]))
codes.append(main(["audit", "--data", data, "--instrument", "z", "--covariates", "w"]))
codes.append(main(["simulate", "--config", config, "--out", out]))
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = scipy_modules()
generic = main(["estimate", *base, "--estimator", "tsls-generic"])
oracle = "sivreg.oracle" in sys.modules
reference = main(["estimate", *base, "--reference"])
print(json.dumps({"codes": codes, "scipy": loaded, "generic": generic,
                  "scipy_after_generic": scipy_modules(), "oracle": oracle,
                  "reference": reference,
                  "oracle_after_reference": "sivreg.oracle" in sys.modules}))
"""


def test_default_commands_do_not_load_scipy(tmp_path):
    rng = np.random.default_rng(46)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    rows = zip(s.outcome.tolist(), s.treatment.tolist(), d.instrument.tolist(),
               d.group_of.tolist())
    data = tmp_path / "d.csv"
    data.write_text("y,t,z,w\n" + "".join(f"{y!r},{t!r},{z},{g}\n" for y, t, z, g in rows))
    config = tmp_path / "sim.json"
    config.write_text('{"n": 160, "L": [1, 2], "replications": 3, "master_seed": 11}')
    out = subprocess.run(
        [sys.executable, "-c", DEFAULT_COMMANDS, str(data), str(config), str(tmp_path / "sim")],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {
        "codes": [0] * 7, "scipy": [], "generic": 0, "scipy_after_generic": [],
        "oracle": False, "reference": 0, "oracle_after_reference": True,
    }, out.stderr


# --- The per-cell moment table against the operator path and the oracle ---

TABLE_RTOL = 1e-12


def operator_polynomials(d, Y, T, center):
    """Score and variance coefficients from hartley_sigma and apply_A.

    Each coefficient is returned with its per-observation terms, whose
    absolute sum is the scale at which any order of summation is accurate.
    """
    R = Y - center * T
    sig = hartley_sigma(d, T, R)
    a, b = apply_A(d, T), apply_A(d, R)
    score = [a * R, -(a * T)]
    variance = [
        sig.sigma_u2 * b * b + sig.sigma_v2 * a * a + 2.0 * sig.sigma_uv * a * b,
        -4.0 * (sig.sigma_u2 * a * b + sig.sigma_uv * a * a),
        4.0 * sig.sigma_u2 * a * a,
    ]
    return score, variance


def operator_ratio_terms(kind, d, T):
    """Per-observation ``Op T`` of each ratio estimator, from the operators."""
    if kind is EstimatorKind.SIVE:
        return apply_A(d, T)
    if kind is EstimatorKind.TSLS_SATURATED:
        return apply_P(d, T)
    if kind is EstimatorKind.JIVE1:
        return apply_P(d, T) - projection_diag_P(d) * T
    Td = apply_M_W(d, T)
    return apply_M_W(d, apply_P(d, Td) - projection_diag_P(d) * Td)


ESTIMATORS = {
    EstimatorKind.SIVE: estimate_sive,
    EstimatorKind.TSLS_SATURATED: estimate_tsls,
    EstimatorKind.JIVE1: estimate_jive1,
    EstimatorKind.JIVE2: estimate_jive2,
}


def assert_sum_close(value, terms, rtol=TABLE_RTOL):
    reference = float(np.sum(terms))
    scale = float(np.sum(np.abs(terms)))
    assert abs(value - reference) <= rtol * scale, (value, reference, scale)


def exact_cell_data(rng, d, level, deviation):
    """``level`` plus ``deviation`` rounded to multiples of 2**-8 so that every
    cell sum is a multiple of the cell size: each cell mean, and so each
    within-cell deviation, is then computed exactly, even at an offset of 1e6.
    """
    ticks = np.round(256.0 * deviation)
    sums = np.bincount(d.cell, weights=ticks, minlength=2 * d.G)
    k = np.bincount(d.cell, minlength=2 * d.G)
    excess = np.mod(sums, np.maximum(k, 1))
    last = np.full(2 * d.G, -1)
    last[d.cell] = np.arange(d.n)  # the last row of each cell
    ticks[last[k > 0]] -= excess[k > 0]
    return level + ticks / 256.0


@st.composite
def table_cases(draw, binary=False):
    """A filtered design with data, covering the table's edge cases.

    Cells of size 2 take the Hartley fallback; groups with fewer than two
    observations on a side are dropped by filter_design; T and Y may carry
    offsets of 1e6, and the slope may be 1024 so that the residual at a
    center near it cancels most of Y.  The data are exact in binary (see
    exact_cell_data), so the deviations that enter both paths carry no
    rounding, and the comparison measures the table's arithmetic alone.
    With ``binary`` T is 0/1 (some zeros as -0.0) with no offset, and a
    cell's share of ones is 0, 0.3, 0.7 or 1, so some cells have one arm.
    """
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6
        )
    )
    assume(any(m >= 2 and k >= 2 for m, k in cells))
    seed = draw(st.integers(0, 2**32 - 1))
    offset_T = 0.0 if binary else draw(st.sampled_from([0.0, 1e6]))
    offset_Y = draw(st.sampled_from([0.0, 1e6]))
    slope = draw(st.sampled_from([0.5, 1024.0]))
    rng = np.random.default_rng(seed)
    labels, flags = [], []
    for g, (m, k) in enumerate(cells):
        labels += [g] * (m + k)
        flags += [1] * m + [0] * k
    perm = rng.permutation(len(flags))
    raw = build_design([labels[i] for i in perm], [flags[i] for i in perm])
    d, _ = filter_design(raw, validate_group_sizes(raw), Sample(np.zeros(raw.n), np.zeros(raw.n)))
    z = d.instrument.astype(float)
    u = rng.standard_normal(d.n)
    if binary:
        share = rng.choice([0.0, 0.3, 0.7, 1.0], size=2 * d.G)[d.cell]
        T = (rng.random(d.n) < share).astype(float)
        T[(T == 0.0) & (rng.random(d.n) < 0.5)] = -0.0
    else:
        T = exact_cell_data(rng, d, offset_T, rng.uniform(0.5, 2.0) * z + u)
    noise = 0.6 * u + rng.standard_normal(d.n)
    Y = exact_cell_data(rng, d, offset_Y, slope * (T - offset_T) + noise)
    return d, Sample(Y, T), slope, (offset_T, offset_Y)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_cases())
def test_moment_table_matches_operator_path(case):
    # The table runs on the data with their offsets; the operator path, whose
    # dot products would otherwise carry the offsets' rounding, runs on the
    # data without them (exact, see exact_cell_data).  Every quantity here
    # but JIVE1's is invariant to the offsets.
    from sivreg.inference import _robust_polynomials

    d, s, slope, (offset_T, offset_Y) = case
    Y, T = s.outcome, s.treatment
    Y0, T0 = Y - offset_Y, T - offset_T
    for center in (0.0, 0.25, 37.0, slope):
        score, variance = _robust_polynomials(moment_table(d, T, Y, center))
        ref_score, ref_variance = operator_polynomials(d, Y0, T0, center)
        for value, terms in zip([*score, *variance], [*ref_score, *ref_variance]):
            assert_sum_close(float(value), terms)

    fs = first_stage_strength(d, pi=moment_table(d, T, Y).group_gaps()[0])["FS"]
    assert_sum_close(fs * d.n, apply_P(d, T0) * T0)

    for kind, estimate in ESTIMATORS.items():
        Yr, Tr = (Y, T) if kind is EstimatorKind.JIVE1 else (Y0, T0)
        op_T = operator_ratio_terms(kind, d, Tr)
        num, den = op_T * Yr, op_T * Tr
        # The library refuses a denominator below 1e-12 ||T||^2 (an offset
        # in T raises ||T||^2, so such data are refused).
        if abs(float(np.sum(den))) <= DENOMINATOR_RTOL * float(T @ T):
            with pytest.raises(WeakDenominatorError):
                estimate(d, s)
            continue
        ref = float(np.sum(num)) / float(np.sum(den))
        bound = (np.sum(np.abs(num)) + abs(ref) * np.sum(np.abs(den))) / abs(np.sum(den))
        assert abs(estimate(d, s) - ref) <= TABLE_RTOL * bound, kind

    # The variance near the estimate, rounded to a multiple of 2**-10 so that
    # the residual the operator path forms is exact too.
    a_t_terms = apply_A(d, T0) * T0
    t_a_t = float(np.sum(a_t_terms))
    if abs(t_a_t) <= DENOMINATOR_RTOL * float(T @ T):
        return
    beta = np.round(estimate_sive(d, s) * 1024.0) / 1024.0
    _, v_terms = operator_polynomials(d, Y0, T0, beta)
    v0 = float(np.sum(v_terms[0]))
    bound = (
        np.sum(np.abs(v_terms[0])) + 2.0 * abs(v0) * np.sum(np.abs(a_t_terms)) / abs(t_a_t)
    ) / t_a_t**2
    assert abs(sive_variance(d, Y, T, beta) - v0 / t_a_t**2) <= TABLE_RTOL * bound


# One group of 8 rows whose two cells have equal means of T: the terms of
# T'PT are all 0, and the dense T'PT is exactly 0.
EQUAL_CELL_MEANS = (
    build_design([0] * 8, [1, 1, 1, 1, 0, 0, 0, 1]),
    Sample(
        np.array([2346.28125, 1292.26953125, 613.9375, 375.4453125, 767.28515625,
                  1676.3515625, 279.671875, -89.45703125]),
        np.array([2.2890625, 1.26171875, 0.6015625, 0.3671875, 0.75, 1.63671875,
                  0.2734375, -0.0859375]),
    ),
    1024.0,
    (0.0, 0.0),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(table_cases(), table_cases(binary=True)))
@example(EQUAL_CELL_MEANS)
def test_moment_table_matches_dense_oracle(case):
    d, s, _, (offset_T, offset_Y) = case
    # The dense operators would lose the digits an offset of 1e6 takes.
    Y, T = s.outcome - offset_Y, s.treatment - offset_T
    s = Sample(Y, T)
    dense = assemble(d)
    for kind, estimate in ESTIMATORS.items():
        den = operator_ratio_terms(kind, d, T) * T
        if abs(np.sum(den)) <= DENOMINATOR_RTOL * float(T @ T):
            with pytest.raises(WeakDenominatorError):
                estimate(d, s)
            continue
        if abs(np.sum(den)) <= 1e-6 * np.sum(np.abs(den)):
            continue  # a near-zero denominator: the ratio has no 8 stable digits
        ref = oracle_estimate(kind, dense, Y, T)
        assert abs(estimate(d, s) - ref) <= 1e-8 * max(1.0, abs(ref)), kind
    den = apply_A(d, T) * T
    # Not identified (the raise is checked above), or no 8 stable digits.
    if abs(np.sum(den)) <= max(DENOMINATOR_RTOL * float(T @ T), 1e-6 * np.sum(np.abs(den))):
        return
    beta_hat = estimate_sive(d, s)
    ref = oracle_variance(dense, Y, T, beta_hat)
    assert abs(sive_variance(d, Y, T, beta_hat) - ref) <= 1e-8 * abs(ref)


_POWER_SUMS = ("s20", "s11", "s02", "s30", "s21", "s12", "s40", "s31", "s22")
ATOM_CENTERS = (0.0, 0.25, 37.0)


def row_table(design, T, Y, center=0.0):
    """The table merged from one-row atoms, whatever T holds."""
    with mock.patch.object(blockops, "_binary_arms", lambda T: None):
        return moment_table(design, T, Y, center)


def assert_atoms_match_rows(design, T, Y, center):
    """The table from (cell, arm) atoms against the one from one-row atoms at
    ``center``: counts, means and ``tt`` bit for bit, and each power sum and
    each coefficient of ``_robust_polynomials`` within 1e-12 of the absolute
    sum of the terms the one-row table adds up.

    Those terms bound what rounding can do to either table.  A power sum's
    are ``|u^j e^l|``.  A coefficient's are its products with
    ``a = pt - d u`` taken as ``|pt| + |d u|``, ``b = pr - d e`` as
    ``|pr| + |d e|`` and a Hartley estimate ``w1 x_i - w2 X`` as
    ``w1 |x_i| + w2 sum |x|``; where ``a`` cancels to 0, its terms do not.
    """
    from sivreg.inference import _robust_polynomials

    atoms, rows = moment_table(design, T, Y, center), row_table(design, T, Y, center)
    assert atoms.atoms.counts is not None and rows.atoms.counts is None
    for name in ("k", "mean_T", "mean_Y", "tt"):
        assert np.asarray(getattr(atoms, name)).tobytes() == np.asarray(
            getattr(rows, name)
        ).tobytes(), name

    def gather(per_cell):
        return per_cell.reshape(-1)[design.cell]

    def cell_sum(x):
        return np.bincount(design.cell.reshape(-1), x.reshape(-1), minlength=rows.k.size)

    u = T - gather(rows.mean_T)
    e = Y - gather(rows.mean_Y) - np.asarray(center) * u
    got_sums, want_sums = table_sums(atoms), table_sums(rows)
    for name in _POWER_SUMS:
        scale = cell_sum(np.abs(u) ** int(name[1]) * np.abs(e) ** int(name[2]))
        error = np.abs(got_sums[name] - want_sums[name]).reshape(-1)
        assert (error <= TABLE_RTOL * scale).all(), (name, center)

    pt, pr = rows.p_values()
    d = gather(rows.d)
    a, b = gather(np.abs(pt)) + d * np.abs(u), gather(np.abs(pr)) + d * np.abs(e)
    w1, w2 = blockops._constants(design).hartley

    def hartley(x):
        return gather(w1) * x + gather(w2 * cell_sum(x).reshape(rows.k.shape))

    s_uu, s_ee, s_ue = hartley(u * u), hartley(e * e), hartley(np.abs(u * e))
    n = design.group_sizes.astype(np.float64)
    m = design.treated_counts.astype(np.float64)
    weight = m * (n - m) / n
    gap_T, gap_R = rows.group_gaps()
    scales = [
        (weight * np.abs(gap_T * gap_R)).sum(axis=-1) + (d * np.abs(u * e)).sum(axis=-1),
        (weight * gap_T * gap_T).sum(axis=-1) + (d * u * u).sum(axis=-1),
        (s_uu * b * b + s_ee * a * a + 2.0 * s_ue * a * b).sum(axis=-1),
        4.0 * (s_uu * a * b + s_ue * a * a).sum(axis=-1),
        4.0 * (s_uu * a * a).sum(axis=-1),
    ]
    for got, want, scale in zip(
        np.concatenate(_robust_polynomials(atoms)),
        np.concatenate(_robust_polynomials(rows)),
        scales,
    ):
        assert (np.abs(got - want) <= TABLE_RTOL * scale).all(), center


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_cases(binary=True))
def test_atom_table_matches_row_table(case):
    # The two layouts share the cell means and the deviations of Y, so they
    # differ only in how the sums are formed: per row, or merged from arms.
    d, s, slope, _ = case
    for center in ATOM_CENTERS + (slope,):
        assert_atoms_match_rows(d, s.treatment, s.outcome, center)


@st.composite
def binary_stacks(draw):
    """A stack of designs on one grouping with 0/1 T, zero where a design
    drops a group (groups of 1 to 8 rows, so most designs drop some)."""
    R = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset_Y = draw(st.sampled_from([0.0, 1e6]))
    slope = draw(st.sampled_from([0.5, 1024.0]))
    group_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    instrument = (rng.random((R, group_of.size)) < 0.5).astype(np.int64)
    stack = _DesignStack.of_rows(group_of, instrument)
    T = (rng.random(instrument.shape) < 0.3 + 0.4 * instrument).astype(float)
    Y = offset_Y + slope * T + rng.standard_normal(T.shape)
    T[~kept_rows(stack)] = 0.0
    Y[~kept_rows(stack)] = 0.0
    return stack, T, Y, slope


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(binary_stacks())
def test_atom_table_matches_row_table_on_a_stack(case):
    stack, T, Y, slope = case
    per_design = 0.25 + np.arange(T.shape[0])[:, None]
    for center in ATOM_CENTERS + (slope, per_design):
        assert_atoms_match_rows(stack, T, Y, center)


def _dense_chao_by_blocks(d, Y, T, beta, rows_per_block=400):
    """``chao_variance`` from the dense reference, a few whole groups at a time.

    Every operator in it is block diagonal over groups, so the numerator is
    the sum over blocks of groups of each block's ``oracle_chao_variance``
    times its ``(T'AT)^2``.  Blocks hold several groups because one group's
    T'AT can be exactly 0 (a single treated row: A has a zero diagonal).
    """
    num = den = 0.0
    block_of = (np.cumsum(d.group_sizes) // rows_per_block)[d.group_of]
    for b in np.unique(block_of):
        rows = np.flatnonzero(block_of == b)
        groups = d.group_of[rows]
        block = SaturatedDesign(groups - groups.min(), d.instrument[rows])
        dense = assemble(block, cap=rows.size)
        y, t = Y[rows], T[rows]
        t_a_t = float(t @ dense.A @ t)
        num += oracle_chao_variance(dense, y, t, beta) * t_a_t**2
        den += t_a_t
    return num / den**2


@pytest.mark.parametrize("L", [25, 300])
def test_chao_variance_matches_dense_reference_at_paper_scale(L):
    # n = 3000 is past the dense oracle's cap for the whole design.
    cfg = SimConfig(n=3000, L=L, p1=0.49)
    for rep in range(3):
        draw = generate_sample(cfg, replication_seed(7, rep))
        d, s = draw.design, draw.sample
        beta = estimate_sive(d, s)
        fast = chao_variance(d, s.outcome, s.treatment, beta)
        ref = _dense_chao_by_blocks(d, s.outcome, s.treatment, beta)
        assert abs(fast - ref) <= 1e-8 * abs(ref), (L, rep, fast, ref)


def test_chao_variance_on_group_of_size_two_is_group_size_error():
    d = build_design([[0]] * 2 + [[1]] * 8, [1, 0] + [1, 1, 1, 1, 0, 0, 0, 0])
    rng = np.random.default_rng(44)
    Y, T = rng.standard_normal(d.n), rng.standard_normal(d.n)
    with pytest.raises(GroupSizeError):
        chao_variance(d, Y, T, 0.5)


def test_moment_table_pass_counts(monkeypatch):
    # One table per statistic, two for the report (center 0 and beta_hat),
    # and in the Monte Carlo one per center per batch of joined row chunks,
    # shared by all four estimators and both variances.
    calls = []
    real_init = _CellMoments.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_CellMoments, "__init__", counted)
    rng = np.random.default_rng(45)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    Y, T = s.outcome, s.treatment

    def passes(call):
        calls.clear()
        call()
        return len(calls)

    for estimate in (estimate_sive, estimate_tsls, estimate_jive1, estimate_jive2):
        assert passes(lambda: estimate(d, s)) == 1, estimate.__name__
    assert passes(lambda: sive_variance(d, Y, T, 0.7)) == 1
    assert passes(lambda: chao_variance(d, Y, T, 0.7)) == 1
    assert passes(lambda: robust_test(d, Y, T, 0.7)) == 1
    assert passes(lambda: sive_report(d, s)) == 2

    cfg = SimConfig(n=400, L=2, p1=0.69, replications=7, master_seed=3)
    # ROWS = n: chunks of one draw and batches of up to 20, so the seven
    # chunks make one batch that ends mid-batch.  Then batches of three
    # chunks of two draws: one full, and one ending after a one-draw chunk.
    monkeypatch.setattr(simulation, "ROWS", cfg.n)
    assert simulation._widths(cfg.n, cfg.L) == (1, 20)
    for widths, batches in (((1, 20), 1), ((2, 3), 2)):
        monkeypatch.setattr(simulation, "_widths", lambda n, G, widths=widths: widths)
        for variants, per_batch in ((("vhat", "chao"), 2), ((), 1)):
            calls.clear()
            bias_rows, size_rows = _run_grid(cfg, variants=variants)
            rows = bias_rows + size_rows
            assert all(r["value"] == 0.0 for r in rows if r["metric"] == "attrition")
            assert len(calls) == per_batch * batches


def _count_builds_and_sums(monkeypatch):
    """Patch in counters of ``_Atoms`` builds and cell sums; return
    ``passes(call)``, the two counts ``call()`` makes."""
    builds, sums = [], []
    real_init = blockops._Atoms.__init__
    monkeypatch.setattr(
        blockops._Atoms, "__init__", lambda self, *a: builds.append(1) or real_init(self, *a)
    )
    real_sum = blockops._cell_sum
    monkeypatch.setattr(blockops, "_cell_sum", lambda *a: sums.append(1) or real_sum(*a))

    def passes(call):
        builds.clear()
        sums.clear()
        call()
        return len(builds), len(sums)

    return passes


def _binary_and_other_treatments(rng, d):
    """Y and a 0/1 T, then the same T with one entry set to 0.5 or 2.0."""
    T = (rng.random(d.n) < 0.2 + 0.6 * d.instrument).astype(float)
    Y = T + rng.standard_normal(d.n)
    yield Y, T
    for other in (0.5, 2.0):
        T_other = T.copy()
        T_other[3] = other
        yield Y, T_other


def test_table_on_a_base_reuses_the_sums_free_of_the_center(monkeypatch):
    # A second table on the same atoms builds no atoms and sums only s11: no
    # cell sum from (cell, arm) atoms and one from one-row atoms, as the
    # means and s20 are shared.  It is bit-equal to a table on atoms of its
    # own at either center, each group of sums included.
    passes = _count_builds_and_sums(monkeypatch)
    rng = np.random.default_rng(46)
    d = random_design(rng, G=6, size_range=(6, 14))
    for Y, T in _binary_and_other_treatments(rng, d):
        binary = set(np.unique(T)) <= {0.0, 1.0}
        base = moment_table(d, T, Y)
        for center in (0.7, 0.0):
            fresh = moment_table(d, T, Y, center)
            shared = []
            assert passes(
                lambda: shared.append(_CellMoments(d, base.atoms, center))
            ) == (0, 0 if binary else 1)
            want = table_sums(fresh) | {"tt": fresh.tt}
            for name, got in (table_sums(shared[0]) | {"tt": shared[0].tt}).items():
                assert np.asarray(got).tobytes() == np.asarray(want[name]).tobytes(), name
        report = sive_report(d, Sample(Y, T))
        assert report.variance == sive_variance(d, Y, T, report.beta_hat)


def test_a_binary_treatment_is_read_once_per_entry_point(monkeypatch):
    # Every entry point builds its atoms once, whatever T holds.  From a 0/1
    # T the one cell sum is the cell means of Y; from a T with one other
    # value, one-row atoms give robust_ci without a window 4 + 8 sums and
    # robust_ci with one 2 + 9.  The report, the two variances and the
    # robust test at one value leave out the robust sums: 4 + 5 and 2 + 6.
    passes = _count_builds_and_sums(monkeypatch)
    rng = np.random.default_rng(46)
    d = random_design(rng, G=6, size_range=(6, 14))
    window = {"low": -5.0, "high": 5.0}
    for Y, T in _binary_and_other_treatments(rng, d):
        binary = set(np.unique(T)) <= {0.0, 1.0}
        assert passes(lambda: sive_report(d, Sample(Y, T))) == (1, 1 if binary else 9)
        assert passes(lambda: robust_ci(d, Y, T)) == (1, 1 if binary else 12)
        assert passes(lambda: robust_ci(d, Y, T, grid=window)) == (1, 1 if binary else 11)
        for entry in (sive_variance, chao_variance, robust_test):
            assert passes(lambda: entry(d, Y, T, 0.3)) == (1, 1 if binary else 8), entry


@pytest.mark.parametrize("binary, bound", [(False, 6), (True, 4)])
def test_report_and_windowed_robust_ci_peak_in_n_vectors(binary, bound):
    # The traced peak of sive_report plus robust_ci on a window, above what
    # is allocated before, in n-vectors of float64 (5.21 for a continuous T,
    # whose one-row atoms keep u and e0; 1.35 for a 0/1 T).  A first call
    # keeps the design's constants, which are not counted.
    rng = np.random.default_rng(11)
    d = random_design(rng, G=1000, size_range=(60, 140))
    s = strong_sample(rng, d)
    if binary:
        T = (rng.random(d.n) < 0.2 + 0.6 * d.instrument).astype(float)
        s = Sample(T + rng.standard_normal(d.n), T)
    window = {"low": -5.0, "high": 5.0}

    def op():
        sive_report(d, s)
        robust_ci(d, s.outcome, s.treatment, grid=window)

    op()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * d.n, peak / (8 * d.n)


def test_binary_atoms_peak_in_n_vectors():
    # The traced peak of one build of 0/1 atoms in the set-up above, in
    # n-vectors of float64: 1.35, the atom ids of every row block (one
    # int64 n-vector), the arms (one byte a row) and one block's
    # temporaries.  Gathering whole n-vectors instead peaked at 3.14.  A
    # first build keeps the design's constants, which are not counted.
    rng = np.random.default_rng(11)
    d = random_design(rng, G=1000, size_range=(60, 140))
    T = (rng.random(d.n) < 0.2 + 0.6 * d.instrument).astype(float)
    Y = T + rng.standard_normal(d.n)
    blockops._Atoms(d, T, Y)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blockops._Atoms(d, T, Y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * d.n, peak / (8 * d.n)


_VECTOR_ENTRY_POINTS = {
    "sive_variance": lambda d, Y, T: sive_variance(d, Y, T, 0.5),
    "chao_variance": lambda d, Y, T: chao_variance(d, Y, T, 0.5),
    "robust_test": lambda d, Y, T: robust_test(d, Y, T, 0.5),
    "robust_ci_window": lambda d, Y, T: robust_ci(d, Y, T, grid={"low": -5, "high": 5}),
    "robust_ci_default": lambda d, Y, T: robust_ci(d, Y, T),
    # the shares of a sample are read off its moment table
    "first_stage_strength": lambda d, Y, T: first_stage_strength(
        d, pi=_moments(d, Sample(Y, T)).group_gaps()[0]
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry, vector",
    [(entry, vector) for entry in _VECTOR_ENTRY_POINTS for vector in ("Y", "T")],
)
def test_non_finite_vectors_are_rejected(entry, vector, bad):
    # A NaN used to read as "every beta rejected" (empty set), a NaN score
    # that is not rejected, or a NaN variance.
    rng = np.random.default_rng(46)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    vectors = {"Y": s.outcome.copy(), "T": s.treatment.copy()}
    vectors[vector][3] = bad
    with pytest.raises(DesignError, match="non-finite"):
        _VECTOR_ENTRY_POINTS[entry](d, vectors["Y"], vectors["T"])


def test_entry_points_read_each_moment_table_once(monkeypatch, tmp_path):
    # The report and every estimator of the command line share their
    # center-0 table between the estimate and the first-stage strength, and
    # robust_ci without a window solves the set on the table at the point
    # estimate that gives the window's variance.
    import sivreg
    from sivreg.cli import DatasetSchema, cmd_estimate

    tables, standalone = [], []
    real_init = _CellMoments.__init__

    def counted_init(self, *args, **kwargs):
        tables.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_CellMoments, "__init__", counted_init)
    # Cell-mean passes outside the moment tables go through these names.
    for module in (sivreg.estimators, sivreg.inference, sivreg.cli):
        if hasattr(module, "_cell_means"):
            real = module._cell_means

            def counted_means(*args, _real=real, **kwargs):
                standalone.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "_cell_means", counted_means)
    rng = np.random.default_rng(47)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    Y, T = s.outcome, s.treatment

    def passes(call):
        tables.clear()
        standalone.clear()
        call()
        return len(tables), len(standalone)

    assert passes(lambda: sive_report(d, s)) == (2, 0)
    assert passes(lambda: robust_ci(d, Y, T)) == (2, 0)
    assert passes(lambda: robust_ci(d, Y, T, grid={"low": -5, "high": 5})) == (1, 0)

    data = tmp_path / "data.csv"
    data.write_text("y,t,z,w\n" + "".join(
        f"{y!r},{t!r},{z},{w}\n"
        for y, t, z, w in zip(Y.tolist(), T.tolist(), d.instrument, d.group_of)
    ))
    schema = DatasetSchema("y", "t", "z", ("w",))
    for kind in EstimatorKind:
        tables_per_estimate = 2 if kind is EstimatorKind.SIVE else 1
        assert passes(lambda: cmd_estimate(data, schema, estimator=kind)) == (
            tables_per_estimate, 0
        ), kind


# Each Fit method with the public function it stands for, as
# ``(on a fit, from the rows)``, both taking the design, Y and T.
_OVERFLOWING_WINDOW = {"low": -1e308, "high": 1.7e308}
_FIT_CALLS = {
    "report": (
        lambda fit: fit.report(0.1, 0.3),
        lambda d, Y, T: sive_report(d, Sample(Y, T), 0.1, 0.3),
    ),
    **{
        f"estimate_{kind.value}": (
            lambda fit, kind=kind: fit.estimate(kind),
            lambda d, Y, T, estimate=estimate: estimate(d, Sample(Y, T)),
        )
        for kind, estimate in (
            (EstimatorKind.SIVE, estimate_sive),
            (EstimatorKind.TSLS_SATURATED, estimate_tsls),
            (EstimatorKind.JIVE1, estimate_jive1),
            (EstimatorKind.JIVE2, estimate_jive2),
        )
    },
    "first_stage_strength": (
        lambda fit: fit.first_stage_strength(),
        lambda d, Y, T: first_stage_strength(d, pi=_moments(d, Sample(Y, T)).group_gaps()[0]),
    ),
    "sive_variance": (lambda fit: fit.sive_variance(0.7), lambda d, Y, T: sive_variance(d, Y, T, 0.7)),
    "sive_variance_at_0": (lambda fit: fit.sive_variance(0.0), lambda d, Y, T: sive_variance(d, Y, T, 0.0)),
    "chao_variance": (lambda fit: fit.chao_variance(0.7), lambda d, Y, T: chao_variance(d, Y, T, 0.7)),
    "robust_test": (
        lambda fit: fit.robust_test(0.4, 0.1, False),
        lambda d, Y, T: robust_test(d, Y, T, 0.4, 0.1, False),
    ),
    "robust_ci_default": (lambda fit: fit.robust_ci(), lambda d, Y, T: robust_ci(d, Y, T)),
    "robust_ci_window": (
        lambda fit: fit.robust_ci({"low": -5.0, "high": 5.0, "step": 0.5}, 0.1),
        lambda d, Y, T: robust_ci(d, Y, T, {"low": -5.0, "high": 5.0, "step": 0.5}, 0.1),
    ),
    "robust_ci_overflow": (
        lambda fit: fit.robust_ci(_OVERFLOWING_WINDOW, two_sided=False),
        lambda d, Y, T: robust_ci(d, Y, T, _OVERFLOWING_WINDOW, two_sided=False),
    ),
}


def _fit_samples():
    """A design with a continuous T, then with a 0/1 T."""
    rng = np.random.default_rng(49)
    d = random_design(rng, G=30, size_range=(6, 14))
    s = strong_sample(rng, d)
    T = (rng.random(d.n) < 0.2 + 0.6 * d.instrument).astype(float)
    return d, [(s.outcome, s.treatment), (T + rng.standard_normal(d.n), T)]


def test_public_functions_are_fit_methods_on_a_fresh_fit():
    # Same bits: a float's repr tells every float apart, -0.0 from 0.0 too.
    d, samples = _fit_samples()
    for Y, T in samples:
        for name, (method, public) in _FIT_CALLS.items():
            assert repr(method(Fit(d, Y, T))) == repr(public(d, Y, T)), name


def test_a_fit_reads_its_rows_once_in_any_call_order(monkeypatch):
    # One fit builds its atoms once, at construction, whichever methods are
    # called and in what order; each answer equals a fresh fit's, though the
    # table at 0 and the one at the SIVE estimate are then shared.
    passes = _count_builds_and_sums(monkeypatch)
    d, samples = _fit_samples()
    rng = np.random.default_rng(50)
    names = list(_FIT_CALLS)
    orders = [names, names[::-1]] + [list(rng.permutation(names)) for _ in range(4)]
    for Y, T in samples:
        fresh = {name: repr(method(Fit(d, Y, T))) for name, (method, _) in _FIT_CALLS.items()}
        for order in orders:
            got = {}

            def calls(order=order, got=got):
                fit = Fit(d, Y, T)
                for name in order:
                    got[name] = repr(_FIT_CALLS[name][0](fit))

            assert passes(calls)[0] == 1, order
            assert got == fresh, order


def test_robust_ci_on_an_overflowing_window_falls_back_to_the_table_at_0(monkeypatch):
    # The window's midpoint is finite, but the table there overflows: the
    # set is solved on the table at 0, a second table on a fresh fit and the
    # kept one on a fit that has built it.  Both give the set of a window
    # around the data, clipped.
    d, samples = _fit_samples()
    tables = []
    real_init = _CellMoments.__init__
    monkeypatch.setattr(
        _CellMoments, "__init__", lambda self, *a: tables.append(a[2:]) or real_init(self, *a)
    )
    for Y, T in samples:
        exact = Fit(d, Y, T).robust_ci({"low": -100.0, "high": 100.0})["intervals"]
        assert len(exact) == 1
        tables.clear()
        fresh = Fit(d, Y, T).robust_ci(_OVERFLOWING_WINDOW)
        assert len(tables) == 2 and tables[1] == ()
        assert fresh["intervals"] == exact
        fit = Fit(d, Y, T)
        fit.report()
        tables.clear()
        assert repr(fit.robust_ci(_OVERFLOWING_WINDOW)) == repr(fresh)
        assert len(tables) == 1


@pytest.mark.parametrize("alpha, two_sided", [(0.05, True), (0.05, False), (0.7, False)])
def test_robust_test_decides_where_its_table_overflows(alpha, two_sided):
    # Past |beta0| ~ 1e153 the variance at beta0 is inf, then NaN, which
    # must not read as "not positive, so accept".  The decision there, on
    # S/|beta0| and V/beta0^2, agrees with the one at 1e150, where the table
    # is finite: it rejects when the set is bounded and accepts on a weak
    # design whose set is the whole line.
    d, samples = _fit_samples()
    rng = np.random.default_rng(51)
    weak = (rng.standard_normal(d.n), rng.standard_normal(d.n))
    assert robust_ci(d, *weak, _OVERFLOWING_WINDOW)["intervals"] == [(-1e308, 1.7e308)]
    for (Y, T), bounded in [*((s, True) for s in samples), (weak, False)]:
        fit = Fit(d, Y, T)
        for sign in (1.0, -1.0):
            near = fit.robust_test(sign * 1e150, alpha, two_sided)
            assert np.isfinite(near["variance_at_beta0"])
            if two_sided:
                assert near["reject"] is bounded
            for beta0 in (1e154, 1e200, 1.7e308):
                far = fit.robust_test(sign * beta0, alpha, two_sided)
                assert not np.isfinite(far["variance_at_beta0"])
                assert far["reject"] is near["reject"], (beta0, sign)


def test_one_sided_robust_ci_needs_alpha_below_half():
    rng = np.random.default_rng(48)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d)
    window = {"low": -5, "high": 5}
    with pytest.raises(ValueError, match="alpha < 0.5"):
        robust_ci(d, s.outcome, s.treatment, grid=window, alpha=0.6, two_sided=False)
    assert robust_ci(d, s.outcome, s.treatment, grid=window, alpha=0.6)["intervals"]


def stack_of(d, rows):
    """``d`` stacked len(rows) times, with one ``(T, Y)`` per design."""
    R = len(rows)
    stack = _DesignStack.of_rows(d.group_of, np.tile(d.instrument, (R, 1)))
    return stack, np.stack([T for T, _ in rows]), np.stack([Y for _, Y in rows])


def assert_same_bits(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), label


def assert_sive_variance_is_v0(design, T, Y, center):
    """``_sive_variance`` against ``_robust_polynomials``'s v0 over
    ``(T'AT)^2``, each on a table of its own and both on one table."""
    from sivreg.estimators import _identified_ratio
    from sivreg.inference import _robust_polynomials, _sive_variance

    def via_polynomials(table):
        score, variance = _robust_polynomials(table)
        return _identified_ratio(variance[0], -score[1], table.tt, power=2)

    want = via_polynomials(moment_table(design, T, Y, center))
    assert_same_bits(_sive_variance(moment_table(design, T, Y, center)), want, center)
    shared = moment_table(design, T, Y, center)
    assert_same_bits(_sive_variance(shared), want, center)
    assert_same_bits(via_polynomials(shared), want, center)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_cases(), st.booleans())
def test_sive_variance_reads_v0_of_the_robust_polynomials(case, binary_kind):
    # Both kinds of table: the continuous draw, and T thresholded to 0/1.
    d, s, slope, _ = case
    T = (s.treatment > np.median(s.treatment)).astype(float) if binary_kind else s.treatment
    Y = s.outcome
    stack, T2, Y2 = stack_of(d, [(T, Y), (T, Y[::-1].copy())])
    for center in ATOM_CENTERS + (slope,):
        assert_sive_variance_is_v0(d, T, Y, center)
        assert_sive_variance_is_v0(stack, T2, Y2, center)
    assert_sive_variance_is_v0(stack, T2, Y2, np.array([[0.25], [slope]]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(binary_stacks())
def test_sive_variance_reads_v0_on_a_stack_that_drops_groups(case):
    stack, T, Y, slope = case
    for center in ATOM_CENTERS + (slope, 0.25 + np.arange(T.shape[0])[:, None]):
        assert_sive_variance_is_v0(stack, T, Y, center)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 199), st.booleans())
def test_estimates_variance_and_robust_set_keep_the_model_invariances(seed, binary):
    # End to end, on a 0/1 T ((cell, arm) atoms) and a continuous one
    # (one-row atoms): swapping the instrument's arms leaves every estimate,
    # the report's variance and the robust set unchanged; Y + b T shifts
    # every estimate, and the set on a window shifted by b, by b; a Y scales
    # every estimate by a.  Each within 1e-12 of the value, or of 1 if smaller.
    rng = np.random.default_rng(seed)
    d = random_design(rng, G=int(rng.integers(5, 30)), size_range=(6, 20))
    s = strong_sample(rng, d)
    if binary:
        T = (rng.random(d.n) < 0.2 + 0.6 * d.instrument).astype(float)
        s = Sample(0.3 * d.group_of + T + rng.standard_normal(d.n), T)
    Y, T = s.outcome, s.treatment
    swapped = SaturatedDesign(d.group_of, 1 - d.instrument)
    b, a = 2.5, -3.0

    def close(got, want):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

    def endpoints(design, Y, low):
        ci = robust_ci(design, Y, T, grid={"low": low, "high": low + 20.0})
        return [x for interval in ci["intervals"] for x in interval]

    for estimate in (estimate_sive, estimate_tsls, estimate_jive1, estimate_jive2):
        beta = estimate(d, s)
        close(estimate(swapped, s), beta)
        close(estimate(d, Sample(Y + b * T, T)), beta + b)
        close(estimate(d, Sample(a * Y, T)), a * beta)
    close(sive_report(swapped, s).variance, sive_report(d, s).variance)
    want = endpoints(d, Y, -10.0)
    for got, ref in (
        (endpoints(swapped, Y, -10.0), want),
        (endpoints(d, Y + b * T, -10.0 + b), [x + b for x in want]),
    ):
        assert len(got) == len(ref)
        for x, y in zip(got, ref):
            close(x, y)


def _constants_of(design, fresh=False):
    """Every field of the design's constants record, which is computed once
    and kept; with ``fresh``, computed anew by the function the cache wraps."""
    f = blockops._constants
    return vars((f.__wrapped__ if fresh else f)(design))


def _arrays(value):
    return value if isinstance(value, tuple) else (value,)


def assert_kept_read_only_and_fresh(first, again, fresh):
    """``again`` is ``first`` (kept), every array in it is read-only, and it
    equals ``fresh``, the same constants computed on a new object."""
    for name in first:
        assert again[name] is first[name], name
        for arr, ref in zip(_arrays(first[name]), _arrays(fresh[name]), strict=True):
            assert_same_bits(arr, ref, name)
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[...] = 0.0


def _forms(table, fresh=False):
    """A table's kept forms, and the sums of ``(AT)^2`` the variances share."""
    from sivreg.inference import _aa

    names = ("group_gaps", "p_values", "p_form", "a_form")
    forms = {name: getattr(_CellMoments, name) for name in names}
    forms["aa"] = _aa
    return {name: (f.__wrapped__ if fresh else f)(table) for name, f in forms.items()}


def _copies(forms):
    return {name: tuple(map(np.copy, _arrays(value))) for name, value in forms.items()}


def assert_forms_survive_every_reader(design, T, Y, remake):
    """Run the four estimators and both variances on one table
    at center 0, then check that its forms are still their first values;
    its design's constants and its forms are kept, read-only, and equal a
    recomputation on a fresh design (``remake``) and a fresh table."""
    from sivreg.estimators import _FORMS, _estimates
    from sivreg.inference import _chao_variance, _sive_variance

    table = moment_table(design, T, Y)
    first_forms = _forms(table)
    before = _copies(first_forms)
    constants = _constants_of(design)
    for kind in _FORMS:
        _estimates(kind, table)
    _sive_variance(table)
    _chao_variance(table)
    after = _forms(table)
    for name, value in before.items():
        for got, want in zip(_arrays(after[name]), value, strict=True):
            assert_same_bits(got, want, name)
    fresh_design = remake()
    assert_kept_read_only_and_fresh(
        constants, _constants_of(design), _constants_of(fresh_design, fresh=True)
    )
    fresh_table = moment_table(fresh_design, T, Y)
    assert_kept_read_only_and_fresh(first_forms, after, _forms(fresh_table, fresh=True))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_cases(), st.booleans())
def test_kept_constants_and_forms_are_read_only_and_survive_the_estimators(case, binary_kind):
    d, s, _, _ = case
    T = (s.treatment > np.median(s.treatment)).astype(float) if binary_kind else s.treatment
    Y = s.outcome
    assert_forms_survive_every_reader(d, T, Y, lambda: SaturatedDesign(d.group_of, d.instrument))
    stack, T2, Y2 = stack_of(d, [(T, Y), (T[::-1].copy(), Y)])
    assert_forms_survive_every_reader(
        stack, T2, Y2, lambda: _DesignStack.of_rows(d.group_of, np.tile(d.instrument, (2, 1)))
    )


def test_one_mask_rule_for_the_constants_of_a_stack():
    # A Monte Carlo chunk whose draws drop groups: on the groups a draw keeps,
    # every field of the stack's constants is bit-equal to that of the draw's
    # filtered design, and every field is finite on the groups it drops.
    cell = SimConfig(n=3000, L=300, replications=4, master_seed=3)
    stack = draw_stack(cell, range(4))[0]
    assert not stack.keep.all()
    fields = vars(blockops._constants(stack))
    assert fields.pop("smallest") == 2
    for name, value in fields.items():
        for arr in value if isinstance(value, tuple) else (value,):
            assert np.isfinite(arr).all(), name
    for r in range(4):
        draw = generate_sample(cell, replication_seed(cell.master_seed, r))
        want = vars(blockops._constants(draw.design))
        assert want["smallest"] >= 2
        kept = stack.keep[r]
        for name, value in fields.items():
            pairs = zip(value, want[name]) if isinstance(value, tuple) else [(value, want[name])]
            for got, ref in pairs:
                got = got[r] if got.shape[-1] == stack.G else got[r].reshape(-1, 2)
                assert_same_bits(got[kept].reshape(-1), ref, (name, r))


def test_kept_constants_of_a_simulated_stack():
    # A Monte Carlo chunk whose draws drop groups (L = 300 at n = 3000).
    cell = SimConfig(n=3000, L=300, replications=4, master_seed=3)
    stack, T, Y, _ = draw_stack(cell, range(4))
    assert not stack.keep.all()
    group_of = layout_of(cell).group_of
    instrument = stack.cell % 2
    assert_forms_survive_every_reader(
        stack, T, Y, lambda: _DesignStack.of_rows(group_of, instrument)
    )
