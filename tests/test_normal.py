"""The Cephes ``ndtri`` port in ``sivreg._normal`` and the p-value of
``t_test`` against ``scipy.special``, which stays the reference, and the two
simulation rules built on ``ndtri``."""

import math

import numpy as np
import pytest
from scipy.special import bdtr
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import binom

from sivreg._normal import ndtri
from sivreg.inference import t_test
from sivreg.simulation import (
    SimConfig,
    _binomial_half_quantile,
    _layout,
    generate_sample,
    propensity,
)


def assert_bit_equal(port, reference, points):
    got = np.array([port(p) for p in points.tolist()])
    want = reference(points)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (points[differ][:5], got[differ][:5], want[differ][:5])


RNG = np.random.default_rng(20261018)


@pytest.mark.parametrize(
    "points",
    [
        RNG.random(50_000),
        np.linspace(0.0, 1.0, 50_001)[1:-1],
        10.0 ** -RNG.uniform(0.0, 300.0, 50_000),
        1.0 - 10.0 ** -RNG.uniform(0.0, 16.0, 50_000),
        np.array([5e-324, 1e-310, 0.025, 0.5, 0.975, np.nextafter(1.0, 0.0)]),
    ],
    ids=["uniform", "linspace", "log-low-tail", "log-high-tail", "edges"],
)
def test_ndtri_is_bit_equal_to_scipy(points):
    assert_bit_equal(ndtri, scipy_ndtri, points)


@pytest.mark.parametrize(
    "points",
    [
        np.linspace(-40.0, 40.0, 160_001),
        RNG.uniform(-40.0, 40.0, 50_000),
        np.array([-np.inf, -38.5, -37.5, -0.0, 0.0, math.sqrt(0.5), 38.5, np.inf]),
    ],
    ids=["linspace", "uniform", "edges"],
)
def test_t_test_p_matches_scipy(points):
    # p = erfc(|t| / sqrt 2) against 2 ndtr(-|t|), at t = points.  An
    # infinite t comes from a finite estimate and null whose gap overflows.
    got = np.array([
        t_test(1e308, 1.0, -1e308)["p"] if math.isinf(t) else t_test(t, 1.0, 0.0)["p"]
        for t in points.tolist()
    ])
    want = 2.0 * scipy_ndtr(-np.abs(points))
    normal = want >= np.finfo(float).tiny
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0.0)
    # In the subnormal band glibc's erfc need not fall monotonically, so
    # only its ceiling and its underflow to 0 are pinned.
    assert (got[~normal] < 2.3e-308).all()
    assert (got[np.abs(points) >= 38.6] == 0.0).all()


def test_ndtri_ends_and_outside():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    for p in (-0.5, 1.5, math.nan):
        assert math.isnan(ndtri(p))


def test_binomial_quantile_matches_the_bdtr_rule():
    for n in range(3001):
        want = int(np.searchsorted(bdtr(np.arange(n + 1), n, 0.5), 0.025))
        assert _binomial_half_quantile(n) == want, n


def test_binomial_quantile_past_float_range():
    # 2**5000 has no float64; binom.ppf still answers through its own search.
    assert _binomial_half_quantile(5000) == int(binom.ppf(0.025, 5000, 0.5))


@pytest.mark.parametrize("L,p1", [(1, 0.49), (25, 0.29), (100, 0.39), (300, 0.69)])
def test_draw_rule_matches_the_cdf_rule(L, p1):
    cfg = SimConfig(n=3000, L=L, p1=p1)
    layout = _layout(cfg.n, L, cfg.n_hetero, cfg.h)
    x, group_of = layout.x, layout.group_of
    for seed in range(50):
        draw = generate_sample(cfg, seed)
        rng = np.random.default_rng(seed)
        q = rng.random(cfg.n) < propensity(x)
        u = rng.standard_normal((2, cfg.n))[0]
        t = scipy_ndtr(u) <= np.where(q, cfg.p1, cfg.p0)
        kept = np.isin(group_of, draw.audit.kept_groups)
        np.testing.assert_array_equal(draw.sample.treatment, t[kept].astype(np.float64))
