"""End-to-end acceptance gate.

One test per shipped guarantee: exact algebraic identities of the block
operators, equivalence of the fast paths with the dense reference, sampling
behaviour of the variance estimators, and Monte Carlo replication targets.
The bias replication runs a subgrid of the paper's design (n=3000, 1000
replications, as in scripts/configs/full_scale.json); the size and
identification-robust coverage targets run at n=1000.  Every tolerance, draw
count, and seed is pinned so reruns are deterministic, and each test asserts
its own wall-clock budget.
"""

import csv
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sivreg import (
    EstimatorKind,
    Sample,
    build_design,
    chao_variance,
    estimate_jive1,
    estimate_jive2,
    estimate_sive,
    estimate_tsls,
    filter_design,
    robust_test,
    sive_report,
    sive_variance,
    trace_A_squared,
    validate_group_sizes,
)
from sivreg.blockops import apply_MM_inv
from sivreg.inference import hartley_sigma
from sivreg.oracle import (
    assemble,
    oracle_chao_variance,
    oracle_estimate,
    oracle_sigma,
    oracle_variance,
)
from sivreg.estimators import PopulationInputs, population_moments
from sivreg.simulation import (
    SimConfig,
    generate_sample,
    replication_seed,
    run_bias_experiment,
    run_size_experiment,
)

from conftest import random_design, strong_sample

MASTER_SEED = 20260817

FAST_ESTIMATORS = {
    EstimatorKind.SIVE: estimate_sive,
    EstimatorKind.TSLS_SATURATED: estimate_tsls,
    EstimatorKind.JIVE1: estimate_jive1,
    EstimatorKind.JIVE2: estimate_jive2,
}


def _within_rel(a, b, rtol=1e-8):
    """Elementwise |a-b| <= rtol * max(1, |b|); the unit floor keeps the
    check meaningful for entries that are legitimately near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def _block_design(G, n_g, m_g):
    rows = [(g,) for g in range(G) for _ in range(n_g)]
    flags = ([1] * m_g + [0] * (n_g - m_g)) * G
    return build_design(rows, flags)


def test_criterion_1_diagonal_identity():
    # diag(P) must equal diag(M_WZ D M_WZ) on every admissible design; the
    # fast paths rely on this cancellation having zero diagonal remainder.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        design = random_design(rng, G=int(rng.integers(1, 21)), size_range=(4, 12))
        dense = assemble(design)
        gap = dense.P - dense.M_WZ @ dense.D @ dense.M_WZ
        worst = max(worst, float(np.max(np.abs(np.diag(gap)))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"max diagonal gap {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    # Point estimates, the variance estimate, the per-observation sigma
    # triple, and the cluster-style variance must all agree with the dense
    # reference to 1e-8 relative error.
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    for _ in range(100):
        design = random_design(rng, G=int(rng.integers(1, 9)), size_range=(4, 12))
        assert design.n <= 200
        sample = strong_sample(rng, design)
        dense = assemble(design)
        Y, T = sample.outcome, sample.treatment

        for kind, fast in FAST_ESTIMATORS.items():
            assert _within_rel(fast(design, sample), oracle_estimate(kind, dense, Y, T))

        beta = estimate_sive(design, sample)
        resid = Y - beta * T
        sig = hartley_sigma(design, T, resid)
        ref = oracle_sigma(dense, T, resid)
        assert _within_rel(sig.sigma_u2, ref.sigma_u2)
        assert _within_rel(sig.sigma_v2, ref.sigma_v2)
        assert _within_rel(sig.sigma_uv, ref.sigma_uv)
        assert np.array_equal(sig.used_fallback, ref.used_fallback)

        assert _within_rel(sive_variance(design, Y, T, beta), oracle_variance(dense, Y, T, beta))
        assert _within_rel(chao_variance(design, Y, T, beta), oracle_chao_variance(dense, Y, T, beta))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_trace_bounds():
    # tr(P) = G holds exactly (verified in rational arithmetic) and
    # G <= tr(A^2) <= 3G on every admissible design.
    rng = np.random.default_rng(33)
    for idx in range(200):
        design = random_design(rng, G=int(rng.integers(1, 21)), size_range=(4, 12))
        tr_p = Fraction(0)
        tr_a2 = Fraction(0)
        for n_g, m_g in zip(design.group_sizes, design.treated_counts):
            n_g, m_g = int(n_g), int(m_g)
            k_g = n_g - m_g
            tr_p += m_g * (Fraction(1, m_g) - Fraction(1, n_g)) + k_g * Fraction(m_g, n_g * k_g)
            tr_a2 += 1 + (Fraction(k_g**2, m_g - 1) + Fraction(m_g**2, k_g - 1)) / n_g**2
        assert tr_p == design.G
        assert Fraction(design.G) <= tr_a2 <= Fraction(3 * design.G)
        assert math.isclose(trace_A_squared(design), float(tr_a2), rel_tol=1e-9)
        if idx % 10 == 0:
            dense = assemble(design)
            assert math.isclose(float(np.trace(dense.P)), design.G, rel_tol=1e-10)
            assert math.isclose(float(np.trace(dense.A @ dense.A)), float(tr_a2), rel_tol=1e-9)


def test_criterion_4_sigma_unbiasedness_and_fallback_bias():
    t0 = time.perf_counter()
    draws = 50_000

    # Part 1: on a design whose cells all have >= 3 observations, the
    # per-observation variance estimator is unbiased coordinate by
    # coordinate under known heteroskedasticity.
    design = _block_design(G=5, n_g=8, m_g=4)
    dense = assemble(design)
    rng = np.random.default_rng(MASTER_SEED)
    s2 = rng.uniform(0.25, 4.0, design.n)
    M = dense.M_WZ
    K = np.column_stack([apply_MM_inv(design, col) for col in np.eye(design.n)])
    U = rng.standard_normal((draws, design.n)) * np.sqrt(s2)
    estimates = (U @ M.T) ** 2 @ K.T
    for k in range(3):
        sig = hartley_sigma(design, U[k], np.zeros(design.n))
        assert not any(sig.used_fallback)
        np.testing.assert_allclose(sig.sigma_u2, estimates[k], rtol=1e-10, atol=1e-12)
    mean = estimates.mean(axis=0)
    mc_se = estimates.std(axis=0, ddof=1) / math.sqrt(draws)
    gap = np.abs(mean - s2)
    assert np.all(gap <= 3.0 * mc_se), f"worst |mean - truth| / se = {np.max(gap / mc_se):.2f}"

    # Part 2: when every cell has exactly 2 observations the estimator falls
    # back to a positively biased form, so the assembled variance estimate
    # must dominate the infeasible one built from the true moments.
    design2 = _block_design(G=5, n_g=4, m_g=2)
    dense2 = assemble(design2)
    n2 = design2.n
    s_u = rng.uniform(0.6, 1.5, n2)
    s_e = rng.uniform(0.5, 1.3, n2)
    rho = rng.uniform(-0.5, 0.7, n2)
    s_ue = rho * s_u * s_e
    shock = rng.standard_normal((draws, n2, 2))
    u = shock[:, :, 0] * s_u
    eps = (rho * shock[:, :, 0] + np.sqrt(1.0 - rho**2) * shock[:, :, 1]) * s_e
    T = 1.5 * design2.instrument.astype(np.float64) + u
    A, Mz = dense2.A, dense2.M_WZ
    At, Ar = T @ A, eps @ A
    Mt, Mr = T @ Mz, eps @ Mz
    den = np.einsum("ri,ri->r", At, T) ** 2
    num_hat = (
        (4.0 * Mt**2 * Ar**2).sum(axis=1)
        + (4.0 * Mr**2 * At**2).sum(axis=1)
        + 2.0 * (4.0 * Mt * Mr * Ar * At).sum(axis=1)
    )
    num_inf = (
        (s_u**2 * Ar**2).sum(axis=1)
        + (s_e**2 * At**2).sum(axis=1)
        + 2.0 * (s_ue * Ar * At).sum(axis=1)
    )
    v_hat = num_hat / den
    v_inf = num_inf / den
    for k in range(3):
        sig = hartley_sigma(design2, T[k], eps[k])
        assert all(sig.used_fallback)
        # residual at the true coefficient: Y - 1*T = eps with Y = T + eps
        assert math.isclose(sive_variance(design2, T[k] + eps[k], T[k], 1.0), v_hat[k], rel_tol=1e-10)
    assert v_hat.mean() >= v_inf.mean(), (
        f"mean feasible {v_hat.mean():.4f} < mean infeasible {v_inf.mean():.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_5_moment_identities():
    # At a fixed design, the Monte Carlo average of T'(op)Y must match the
    # closed-form population numerator for each estimator within 3 MC
    # standard errors.
    t0 = time.perf_counter()
    draws = 100_000
    design = build_design([(0,)] * 7 + [(1,)] * 5, [1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0])
    dense = assemble(design)
    n = design.n
    z = design.instrument.astype(np.float64)
    g = design.group_of

    rng = np.random.default_rng(MASTER_SEED)
    pi = np.array([0.9, 0.6])
    tau = np.array([1.3, -0.4])
    psi = np.array([0.8, -1.1])
    phi = np.array([0.5, 2.0])
    s_u = rng.uniform(0.6, 1.4, n)
    s_e = rng.uniform(0.5, 1.2, n)
    rho = rng.uniform(-0.6, 0.8, n)
    inputs = PopulationInputs(
        pi=pi, tau=tau, sigma_ue=rho * s_u * s_e, sigma_uu=s_u**2, psi=psi, phi=phi
    )

    shock = rng.standard_normal((draws, n, 2))
    U = shock[:, :, 0] * s_u
    E = (rho * shock[:, :, 0] + np.sqrt(1.0 - rho**2) * shock[:, :, 1]) * s_e
    T = psi[g] + pi[g] * z + U
    Y = phi[g] + (tau * pi)[g] * z + E

    diag_p = np.diag(np.diag(dense.P))
    operators = {
        EstimatorKind.TSLS_SATURATED: dense.P,
        EstimatorKind.JIVE1: dense.P - diag_p,
        EstimatorKind.JIVE2: dense.M_W @ (dense.P - diag_p) @ dense.M_W,
        EstimatorKind.SIVE: dense.A,
    }
    for kind, op in operators.items():
        num_mc = np.einsum("ri,ij,rj->r", T, op, Y) / n
        num, _ = population_moments(kind, design, inputs)
        mc_se = num_mc.std(ddof=1) / math.sqrt(draws)
        gap = abs(float(num_mc.mean()) - num)
        assert gap <= 3.0 * mc_se, f"{kind.value}: |gap| = {gap:.5f} > 3*{mc_se:.5f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_bias_replication():
    t0 = time.perf_counter()
    config = SimConfig(n=3000, replications=1000, master_seed=MASTER_SEED)
    rows = run_bias_experiment(
        config,
        L_values=[1, 25, 100],
        p1_values=[0.39, 0.69],
        estimators=(EstimatorKind.SIVE, EstimatorKind.TSLS_SATURATED),
    )
    median = {
        (row["L"], row["p1"], row["estimator"]): row["value"]
        for row in rows
        if row["metric"] == "median_bias"
    }
    elapsed = time.perf_counter() - t0

    # The many-instrument bias of the plug-in baseline must grow with the
    # number of groups in the weak-compliance column.
    tsls_path = [abs(median[(L, 0.39, "tsls-saturated")]) for L in (1, 25, 100)]
    assert tsls_path[0] < tsls_path[1] < tsls_path[2], f"not increasing: {tsls_path}"

    # The jackknifed saturated estimator must stay median-unbiased (within
    # 0.05) in every cell of the grid.  The grid runs at the paper's n=3000
    # with 1000 replications: at n=1000 with 100 groups the weak cell
    # (p1=0.39) has n*FS/sqrt(tr(A^2)) of about 0.6, a tenth of the draws
    # flip the sign of T'AT, and the median bias is about -0.15.  That cell
    # lies outside the regime where the point estimate is median-unbiased
    # (identification strength must grow faster than the square root of the
    # number of groups); there only robust_test / robust_ci stay valid.
    bad = [
        f"L={L} p1={p1}: |median bias| = {abs(median[(L, p1, 'sive')]):.4f}"
        for L in (1, 25, 100)
        for p1 in (0.39, 0.69)
        if abs(median[(L, p1, "sive")]) >= 0.05
    ]
    assert not bad, "cells out of bounds: " + "; ".join(bad)
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_size_replication():
    t0 = time.perf_counter()
    base = dict(n=1000, replications=2000, master_seed=MASTER_SEED)

    def reject_rate(rows, estimator):
        (row,) = [r for r in rows if r["metric"] == "reject_rate" and r["estimator"] == estimator]
        return row["value"]

    strong = run_size_experiment(
        SimConfig(**base), L_values=[1], p1_values=[0.69], variance_variants=("vhat",)
    )
    rate_strong = reject_rate(strong, "sive_vhat")
    assert 0.03 <= rate_strong <= 0.07, f"rejection rate {rate_strong:.4f}"

    weak = run_size_experiment(
        SimConfig(**base), L_values=[100], p1_values=[0.39], variance_variants=("vhat",)
    )
    rate_weak = reject_rate(weak, "sive_vhat")
    assert rate_weak <= 0.07, f"rejection rate {rate_weak:.4f}"

    # Strong treatment-effect heterogeneity on 30% of the sample (the same
    # share the full-scale configuration boosts): the homogeneity-based
    # variance must over-reject where the heterogeneity-robust one holds.
    hetero = run_size_experiment(
        SimConfig(h=10.0, n_hetero=300, **base),
        L_values=[100],
        p1_values=[0.69],
        variance_variants=("chao",),
    )
    rate_hetero = reject_rate(hetero, "sive_chao")
    assert rate_hetero > 0.07, f"rejection rate {rate_hetero:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_8_empirical_benchmark():
    data = Path(__file__).resolve().parents[1] / "data" / "card_extract.csv"
    if not data.exists():
        pytest.skip("data/card_extract.csv not present; remaining criteria stand alone")
    with data.open(newline="") as fh:
        records = list(csv.DictReader(fh))
    covariate_cols = ("black", "smsa66", "smsa76", "south66", "south76")
    covariates = [tuple(int(float(row[c])) for c in covariate_cols) for row in records]
    instrument = [int(float(row["nearc4"])) for row in records]
    outcome = np.array([float(row["lwage"]) for row in records])
    treatment = np.array([1.0 if float(row["educ"]) > 12.0 else 0.0 for row in records])

    raw = build_design(covariates, instrument)
    sample = Sample(outcome=outcome, treatment=treatment)
    design, sample = filter_design(raw, validate_group_sizes(raw), sample)
    report = sive_report(design, sample)
    assert abs(report.beta_hat - 0.125) <= 1e-3, f"estimate {report.beta_hat:.4f}"
    assert abs(report.std_error - 0.342) <= 1e-3, f"std error {report.std_error:.4f}"


def test_criterion_9_identification_robust_coverage():
    # With p1 = p0 nothing is identified; the score test evaluated at the
    # true estimand must still control size.
    config = SimConfig(n=1000, L=25, p0=0.22, p1=0.22, h=0.0, master_seed=MASTER_SEED)
    rejections = 0
    used = 0
    for rep in range(1000):
        draw = generate_sample(config, replication_seed(config.master_seed, rep))
        result = robust_test(
            draw.design,
            draw.sample.outcome,
            draw.sample.treatment,
            beta0=draw.truth["beta_sive"],
        )
        used += 1
        rejections += bool(result["reject"])
    assert used == 1000
    rate = rejections / used
    assert rate <= 0.07, f"rejection rate {rate:.4f}"
