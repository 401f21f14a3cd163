"""Dense reference implementations against the fast blockwise paths."""

import numpy as np
import pytest
from scipy.stats import norm

from sivreg import (
    EstimatorKind,
    Sample,
    build_design,
    chao_variance,
    estimate_jive1,
    estimate_jive2,
    estimate_sive,
    estimate_tsls,
    projection_diag_P,
    robust_ci,
    sive_variance,
    trace_A_squared,
)
from sivreg.inference import hartley_sigma
from sivreg.oracle import (
    assemble,
    oracle_chao_variance,
    oracle_estimate,
    oracle_sigma,
    oracle_variance,
)

from conftest import random_design, strong_sample

FAST = {
    EstimatorKind.SIVE: estimate_sive,
    EstimatorKind.TSLS_SATURATED: estimate_tsls,
    EstimatorKind.JIVE1: estimate_jive1,
    EstimatorKind.JIVE2: estimate_jive2,
}


def test_assemble_matrix_shapes_and_invariants():
    d = build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 1, 0, 0])
    dense = assemble(d)
    n = d.n
    for mat in (dense.P, dense.M_W, dense.M_WZ, dense.D, dense.A):
        assert mat.shape == (n, n)
    np.testing.assert_allclose(dense.P @ dense.P, dense.P, atol=1e-10)
    np.testing.assert_allclose(dense.A, dense.A.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(dense.A), 0.0, atol=1e-10)
    np.testing.assert_allclose(np.trace(dense.P), d.G, atol=1e-10)


def test_assemble_projection_matrix_frozen():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    dense = assemble(d)
    block = np.array(
        [
            [0.25, 0.25, -0.25, -0.25],
            [0.25, 0.25, -0.25, -0.25],
            [-0.25, -0.25, 0.25, 0.25],
            [-0.25, -0.25, 0.25, 0.25],
        ]
    )
    np.testing.assert_allclose(dense.P, block, atol=1e-12)


def test_assemble_enforces_size_cap():
    d = build_design([[0]] * 6, [1, 1, 1, 0, 0, 0])
    with pytest.raises(ValueError, match="cap"):
        assemble(d, cap=5)


def test_assemble_rejects_degenerate_groups():
    with pytest.raises(Exception):
        assemble(build_design([[0]] * 4, [1, 1, 1, 1]))
    with pytest.raises(Exception):
        assemble(build_design([[0]] * 4, [1, 0, 0, 0]))


def test_fast_paths_match_oracle_everywhere():
    rng = np.random.default_rng(40)
    for _ in range(20):
        d = random_design(rng)
        dense = assemble(d)
        s = strong_sample(rng, d)
        Y, T = s.outcome, s.treatment
        for kind, fast in FAST.items():
            a = fast(d, s)
            b = oracle_estimate(kind, dense, Y, T)
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))
        beta = estimate_sive(d, s)
        v_fast = sive_variance(d, Y, T, beta)
        v_dense = oracle_variance(dense, Y, T, beta)
        assert abs(v_fast - v_dense) < 1e-8 * max(1e-12, abs(v_dense))
        c_fast = chao_variance(d, Y, T, beta)
        c_dense = oracle_chao_variance(dense, Y, T, beta)
        assert abs(c_fast - c_dense) < 1e-8 * max(1e-12, abs(c_dense))
        sig_fast = hartley_sigma(d, T, Y - beta * T)
        sig_dense = oracle_sigma(dense, T, Y - beta * T)
        np.testing.assert_allclose(sig_fast.sigma_u2, sig_dense.sigma_u2, atol=1e-8)
        np.testing.assert_allclose(sig_fast.sigma_v2, sig_dense.sigma_v2, atol=1e-8)
        np.testing.assert_allclose(sig_fast.sigma_uv, sig_dense.sigma_uv, atol=1e-8)
        np.testing.assert_array_equal(sig_fast.used_fallback, sig_dense.used_fallback)


def test_oracle_sigma_fallback_matches_fast():
    rng = np.random.default_rng(41)
    d = build_design([[g] for g in range(4) for _ in range(4)], [1, 1, 0, 0] * 4)
    dense = assemble(d)
    T = rng.standard_normal(d.n)
    r = rng.standard_normal(d.n)
    sig_fast = hartley_sigma(d, T, r)
    sig_dense = oracle_sigma(dense, T, r)
    assert sig_dense.used_fallback.all()
    np.testing.assert_allclose(sig_fast.sigma_u2, sig_dense.sigma_u2, atol=1e-10)
    np.testing.assert_allclose(sig_fast.sigma_uv, sig_dense.sigma_uv, atol=1e-10)


def test_trace_identities_against_dense():
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = random_design(rng)
        dense = assemble(d)
        assert abs(np.trace(dense.P) - d.G) < 1e-10
        assert abs(projection_diag_P(d).sum() - d.G) < 1e-10
        assert abs(trace_A_squared(d) - np.trace(dense.A @ dense.A)) < 1e-8


def test_diagonal_identity_dense():
    rng = np.random.default_rng(43)
    for _ in range(5):
        d = random_design(rng)
        dense = assemble(d)
        lhs = np.diag(dense.M_WZ @ dense.D @ dense.M_WZ)
        np.testing.assert_allclose(lhs, np.diag(dense.P), atol=1e-10)


def test_dense_spectrum_in_unit_interval():
    rng = np.random.default_rng(44)
    d = random_design(rng, G=5)
    eig = np.linalg.eigvalsh(assemble(d).A)
    assert -1.0 - 1e-10 <= eig.min() and eig.max() <= 1.0 + 1e-10


def test_oracle_is_unguarded_where_fast_path_raises():
    # the reference path computes the raw ratio with no weak-denominator
    # guard: on a flat first stage it returns a roundoff-driven number while
    # the production estimator refuses
    d = build_design([[0]] * 6, [1, 1, 1, 0, 0, 0])
    dense = assemble(d)
    T = np.ones(6)
    with np.errstate(invalid="ignore", divide="ignore"):
        value = oracle_estimate(EstimatorKind.SIVE, dense, np.arange(6.0), T)
    assert isinstance(value, float)
    with pytest.raises(Exception, match="robust"):
        estimate_sive(d, Sample(np.arange(6.0), T))


def test_robust_ci_endpoints_match_dense_score_test():
    # Exact endpoints: the dense score test accepts just inside each finite
    # endpoint and rejects just outside it.
    crit = float(norm.ppf(0.975))
    checked = 0
    for seed, pi in ((60, 1.5), (61, 1.0)):
        rng = np.random.default_rng(seed)
        d = random_design(rng, G=3, size_range=(8, 12))
        s = strong_sample(rng, d, tau=1.0, pi=pi)
        Y, T = s.outcome, s.treatment
        dense = assemble(d)
        t_a_t = float(T @ dense.A @ T)

        def accepts(beta):
            score = float(T @ dense.A @ (Y - beta * T))
            var = oracle_variance(dense, Y, T, beta) * t_a_t**2
            return not var > 0.0 or abs(score) <= crit * np.sqrt(var)

        res = robust_ci(d, Y, T, grid={"low": -1e3, "high": 1e3})
        for lo, hi in res["intervals"]:
            for end, inward in ((lo, 1.0), (hi, -1.0)):
                if abs(end) == 1e3:
                    continue
                step = 1e-6 * max(1.0, abs(end))
                assert accepts(end + inward * step)
                assert not accepts(end - inward * step)
                checked += 1
    assert checked >= 2


def test_robust_ci_endpoints_are_exact_when_treatment_explains_the_outcome():
    # Y = 1e4 T + 1e-4 noise: expanded around 0, the score variance's
    # coefficients cancel in their leading digits, and the set came out
    # empty (seed 64) or with endpoints where the dense statistic is 2.4 and
    # 2.9 (seed 66).  Centred in the reporting window, every finite endpoint
    # is accepted just inside and rejected just outside.
    crit = float(norm.ppf(0.975))
    checked = 0
    for seed in (64, 66):
        rng = np.random.default_rng(seed)
        d = random_design(rng, G=20, size_range=(16, 24))
        s = strong_sample(rng, d)
        T = s.treatment
        Y = 1e4 * T + 1e-4 * s.outcome
        dense = assemble(d)
        t_a_t = float(T @ dense.A @ T)

        def accepts(beta):
            score = float(T @ dense.A @ (Y - beta * T))
            var = oracle_variance(dense, Y, T, beta) * t_a_t**2
            return not var > 0.0 or abs(score) <= crit * np.sqrt(var)

        for grid in (None, {"low": 9999.0, "high": 10003.0}):
            res = robust_ci(d, Y, T, grid=grid)
            assert len(res["intervals"]) == 1
            lo, hi = res["intervals"][0]
            step = 1e-3 * (hi - lo)
            for end, inward in ((lo, 1.0), (hi, -1.0)):
                assert end not in (res["grid"]["low"], res["grid"]["high"])
                assert accepts(end + inward * step)
                assert not accepts(end - inward * step)
                checked += 1
    assert checked == 8
