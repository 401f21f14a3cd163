"""Point estimators and population estimands."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sivreg import (
    DegenerateGroupError,
    DesignError,
    EstimationError,
    EstimatorKind,
    Fit,
    GroupSizeError,
    PopulationInputs,
    RankDeficiencyError,
    Sample,
    WeakDenominatorError,
    build_design,
    estimate_jive1,
    estimate_jive2,
    estimate_sive,
    estimate_tsls,
    estimate_tsls_generic,
    first_stage_strength,
    population_estimand,
    population_moments,
    sive_report,
    trace_A_squared,
)

from sivreg.blockops import _cell_means
from sivreg.estimators import PIVOT_RTOL, _drop_collinear, _moments
from sivreg.oracle import DenseDesign, oracle_estimate

from conftest import random_design, strong_sample

ALL_BLOCKWISE = (estimate_sive, estimate_tsls, estimate_jive1, estimate_jive2)


def two_groups():
    return build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 1, 0, 0])


def test_noiseless_identity_all_estimators():
    d = two_groups()
    z = d.instrument.astype(float)
    s = Sample(outcome=z, treatment=z)
    for estimator in ALL_BLOCKWISE:
        assert abs(estimator(d, s) - 1.0) < 1e-12


def test_noiseless_doubling_all_estimators():
    d = two_groups()
    z = d.instrument.astype(float)
    s = Sample(outcome=2.0 * z, treatment=z)
    for estimator in ALL_BLOCKWISE:
        assert abs(estimator(d, s) - 2.0) < 1e-12


def test_zero_outcome_gives_zero():
    d = two_groups()
    z = d.instrument.astype(float)
    s = Sample(outcome=np.zeros(d.n), treatment=z)
    for estimator in ALL_BLOCKWISE:
        assert estimator(d, s) == 0.0


def test_group_constant_treatment_is_weak():
    d = two_groups()
    gamma = np.array([1.0, 3.0])
    s = Sample(outcome=np.arange(d.n, dtype=float), treatment=gamma[d.group_of])
    for estimator in (estimate_sive, estimate_tsls, estimate_jive2):
        with pytest.raises(WeakDenominatorError, match="robust"):
            estimator(d, s)
    # the un-demeaned jackknife keeps a diagonal term, so its denominator
    # survives even a flat first stage
    assert np.isfinite(estimate_jive1(d, s))


def test_jackknife_without_demeaning_is_biased_by_group_effects():
    # T and Y share group-level shifts; removing diag(P) without demeaning
    # leaks them into the ratio, while the other three estimators do not.
    d = two_groups()
    z = d.instrument.astype(float)
    psi = np.array([1.0, 2.0])
    phi = np.array([3.0, -1.0])
    s = Sample(outcome=z + phi[d.group_of], treatment=z + psi[d.group_of])
    assert abs(estimate_sive(d, s) - 1.0) < 1e-10
    assert abs(estimate_tsls(d, s) - 1.0) < 1e-10
    assert abs(estimate_jive2(d, s) - 1.0) < 1e-10
    assert abs(estimate_jive1(d, s) - 1.0) > 0.1


def test_scale_equivariance_and_shift_behaviour():
    rng = np.random.default_rng(11)
    d = random_design(rng, G=4)
    s = strong_sample(rng, d)
    gamma = rng.standard_normal(d.G)
    shifted = Sample(s.outcome + gamma[d.group_of], s.treatment)
    for estimator in (estimate_sive, estimate_tsls, estimate_jive2):
        base = estimator(d, s)
        scaled = estimator(d, Sample(3.0 * s.outcome, s.treatment))
        assert abs(scaled - 3.0 * base) < 1e-10
        # group-level outcome shifts are absorbed by the controls
        assert abs(estimator(d, shifted) - base) < 1e-10


def test_generic_exact_identification_is_a_moment_ratio():
    rng = np.random.default_rng(12)
    n = 40
    z = rng.integers(0, 2, n).astype(float)
    T = 0.5 + 1.5 * z + rng.standard_normal(n)
    Y = 1.0 + 2.0 * T + rng.standard_normal(n)
    beta, var = estimate_tsls_generic(Y, T, z[:, None])
    assert abs(beta - (z @ Y) / (z @ T)) < 1e-10
    assert var > 0.0
    # one instrument may be given as a vector
    assert estimate_tsls_generic(Y, T, z) == (beta, var)
    # the checks read copies: the caller's arrays stay writeable
    assert Y.flags.writeable and T.flags.writeable


@pytest.mark.parametrize(
    "bad, message",
    [
        ("Y", "^outcome contains non-finite entries$"),
        ("T", "^treatment contains non-finite entries$"),
        ("short Y", "^length mismatch: outcome has 39 entries, treatment has 40$"),
        ("short Y and T", "^sample has 39 rows but the instruments have 40$"),
        ("2-D Y", "^outcome and treatment must be 1-dimensional$"),
    ],
)
def test_generic_refuses_a_malformed_outcome_or_treatment(bad, message):
    # Checked before any arithmetic: a NaN would give (nan, nan), an inf
    # numpy's SVD failure and a short vector numpy's concatenate error.
    rng = np.random.default_rng(16)
    z = rng.integers(0, 2, 40).astype(float)
    Y, T = rng.standard_normal(40), z + rng.standard_normal(40)
    Y[3] = np.nan if bad == "Y" else Y[3]
    T[5] = np.inf if bad == "T" else T[5]
    Y = Y[1:] if bad.startswith("short") else Y[:, None] if bad == "2-D Y" else Y
    T = T[1:] if bad == "short Y and T" else T
    with pytest.raises(DesignError, match=message):
        estimate_tsls_generic(Y, T, z[:, None])


@pytest.mark.parametrize(
    "bad, message",
    [
        ("short controls", "^sample has 40 rows but the controls have 39$"),
        ("NaN instrument", "^the instruments contain non-finite entries$"),
        ("inf control", "^the controls contain non-finite entries$"),
    ],
)
def test_generic_refuses_a_malformed_instrument_or_control_matrix(bad, message):
    # Checked before the intercept is centred out: a short control matrix
    # used to reach numpy's concatenate error, and a NaN or an inf the
    # collinearity check's plain ValueError.
    rng = np.random.default_rng(17)
    z = rng.integers(0, 2, 40).astype(float)
    Y, T = rng.standard_normal(40), z + rng.standard_normal(40)
    Z, C = z[:, None].copy(), np.column_stack([np.ones(40), rng.standard_normal(40)])
    C = C[1:] if bad == "short controls" else C
    Z[7, 0] = np.nan if bad == "NaN instrument" else Z[7, 0]
    C[9, 1] = np.inf if bad == "inf control" else C[9, 1]
    with pytest.raises(DesignError, match=message):
        estimate_tsls_generic(Y, T, Z, C)


def test_generic_controls_absorbing_outcome():
    rng = np.random.default_rng(13)
    n = 50
    C = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = rng.integers(0, 2, n).astype(float)
    T = z + rng.standard_normal(n)
    Y = C @ np.array([2.0, -1.0])
    beta, _ = estimate_tsls_generic(Y, T, z[:, None], C)
    assert abs(beta) < 1e-8


def test_generic_duplicate_instruments_are_dropped():
    rng = np.random.default_rng(14)
    n = 40
    z = rng.integers(0, 2, n).astype(float)
    T = z + 0.3 * rng.standard_normal(n)
    Y = 2.0 * T + rng.standard_normal(n)
    b1, v1 = estimate_tsls_generic(Y, T, z[:, None])
    b2, v2 = estimate_tsls_generic(Y, T, np.column_stack([z, z, 2.0 * z]))
    assert abs(b1 - b2) < 1e-10
    assert abs(v1 - v2) < 1e-8


@st.composite
def collinear_matrices(draw):
    """Columns drawn fresh, or as a copy, a scaled copy, zeros or a combination
    of two earlier columns, in a drawn order; possibly more than rows.

    A combination's weights are drawn from the generator: with a weight of
    1, ``c = a + w b`` leaves the residual of ``a`` once ``b`` is pivoted, a
    tie with ``a`` that only rounding breaks.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["fresh", "copy", "scaled", "zero", "combined"]))
        pick = draw(st.integers(0, max(len(cols) - 1, 0)))
        other = draw(st.integers(0, max(len(cols) - 1, 0)))
        if kind == "zero":
            cols.append(np.zeros(n))
        elif kind == "fresh" or not cols:
            cols.append(draw(st.sampled_from([1.0, 1e-3, 1e3])) * rng.standard_normal(n))
        elif kind == "copy":
            cols.append(cols[pick].copy())
        elif kind == "scaled":
            cols.append(draw(st.sampled_from([-1.0, 2.0, -3.0, 1e-6])) * cols[pick])
        else:
            w = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
            cols.append(w[0] * cols[pick] + w[1] * cols[other])
    return np.column_stack(cols)[:, draw(st.permutations(range(len(cols))))]


def scipy_kept(columns):
    """The columns that the first pivots of ``scipy.linalg.qr(pivoting=True)``
    keep, those whose diagonal of R exceeds ``PIVOT_RTOL`` times the first."""
    r, pivots = scipy.linalg.qr(columns, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if not (diag.size and diag[0] > 0):
        return []
    return sorted(pivots[: int(np.sum(diag > PIVOT_RTOL * diag[0]))].tolist())


@settings(max_examples=300, deadline=None)
@given(collinear_matrices())
def test_drop_collinear_keeps_the_columns_scipy_pivoted_qr_keeps(columns):
    # Equal columns, or a column and its negation, tie exactly.  scipy's BLAS
    # breaks such a tie by rounding; _drop_collinear keeps the first of them.
    first_equal = [
        next(k for k in range(j + 1)
             if np.array_equal(columns[:, k], c) or np.array_equal(columns[:, k], -c))
        for j, c in enumerate(columns.T)
    ]
    names = [f"c{j}" for j in range(columns.shape[1])]
    got, kept_names, dropped = _drop_collinear(columns, names)
    kept = sorted({first_equal[j] for j in scipy_kept(columns)})
    assert kept_names == [names[j] for j in kept]
    assert dropped == [name for j, name in enumerate(names) if j not in kept]
    assert np.array_equal(got, columns[:, kept])


def test_generic_collinear_instruments_name_dropped_columns():
    rng = np.random.default_rng(15)
    n = 30
    z = rng.standard_normal(n)
    C = np.column_stack([np.ones(n), z])
    T = z + rng.standard_normal(n)
    Y = T + rng.standard_normal(n)
    with pytest.raises(RankDeficiencyError, match="z0"):
        estimate_tsls_generic(Y, T, z[:, None], C, instrument_names=["z0"])


def test_generic_matches_normal_equations():
    rng = np.random.default_rng(16)
    for _ in range(5):
        n = 60
        C = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        Z = rng.standard_normal((n, 3))
        T = Z @ np.array([0.8, -0.5, 0.3]) + C @ np.array([1.0, 0.2, -0.1])
        T = T + rng.standard_normal(n)
        Y = 1.7 * T + C @ np.array([0.5, -0.4, 0.9]) + rng.standard_normal(n)
        beta, _ = estimate_tsls_generic(Y, T, Z, C)
        X = np.column_stack([T, C])
        F = np.column_stack([Z, C])
        PF = F @ np.linalg.solve(F.T @ F, F.T)
        ref = np.linalg.solve(X.T @ PF @ X, X.T @ PF @ Y)[0]
        assert abs(beta - ref) < 1e-8


def test_generic_variance_scales_quadratically():
    rng = np.random.default_rng(17)
    n = 50
    z = rng.integers(0, 2, n).astype(float)
    T = z + rng.standard_normal(n)
    Y = T + rng.standard_normal(n)
    _, v1 = estimate_tsls_generic(Y, T, z[:, None])
    _, v2 = estimate_tsls_generic(5.0 * Y, T, z[:, None])
    assert abs(v2 - 25.0 * v1) < 1e-8 * max(1.0, v2)


def test_generic_on_saturated_dummies_matches_blockwise_tsls():
    rng = np.random.default_rng(18)
    d = random_design(rng, G=4)
    s = strong_sample(rng, d)
    W = np.equal.outer(d.group_of, np.arange(d.G)).astype(float)
    interactions = W * d.instrument.astype(float)[:, None]
    beta, _ = estimate_tsls_generic(s.outcome, s.treatment, interactions, W)
    assert abs(beta - estimate_tsls(d, s)) < 1e-8


def test_sive_estimand_frozen_value():
    d = build_design([[0]] * 8 + [[1]] * 8, [1] * 4 + [0] * 4 + [1] * 2 + [0] * 6)
    inputs = PopulationInputs(pi=[1.0, 1.0], tau=[1.0, 3.0])
    assert abs(population_estimand(EstimatorKind.SIVE, d, inputs) - 13 / 7) < 1e-12


def test_sive_estimand_single_group_is_its_effect():
    d = build_design([[0]] * 6, [1, 1, 1, 0, 0, 0])
    inputs = PopulationInputs(pi=0.4, tau=[2.5])
    assert abs(population_estimand(EstimatorKind.SIVE, d, inputs) - 2.5) < 1e-12


def test_sive_estimand_is_convex_combination():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = random_design(rng)
        pi = rng.uniform(0.1, 1.0, d.G)
        tau = rng.normal(size=d.G)
        value = population_estimand(EstimatorKind.SIVE, d, PopulationInputs(pi=pi, tau=tau))
        assert tau.min() - 1e-12 <= value <= tau.max() + 1e-12


def test_tsls_estimand_reduces_to_sive_without_endogeneity():
    d = two_groups()
    inputs = PopulationInputs(pi=[0.7, 0.4], tau=[1.0, 2.0], sigma_ue=0.0, sigma_uu=0.0)
    tsls = population_estimand(EstimatorKind.TSLS_SATURATED, d, inputs)
    sive = population_estimand(EstimatorKind.SIVE, d, PopulationInputs(pi=[0.7, 0.4], tau=[1.0, 2.0]))
    assert abs(tsls - sive) < 1e-12


def test_tsls_estimand_homoskedastic_shift():
    d = build_design([[0]] * 8 + [[1]] * 8, [1] * 4 + [0] * 4 + [1] * 2 + [0] * 6)
    base_num, base_den = population_moments(
        EstimatorKind.SIVE, d, PopulationInputs(pi=[1.0, 1.0], tau=[1.0, 3.0])
    )
    num, den = population_moments(
        EstimatorKind.TSLS_SATURATED,
        d,
        PopulationInputs(pi=[1.0, 1.0], tau=[1.0, 3.0], sigma_ue=0.7, sigma_uu=1.3),
    )
    # the projection diagonal sums to G, so a constant moment adds sigma * G / n
    assert abs((num - base_num) - 0.7 * d.G / d.n) < 1e-12
    assert abs((den - base_den) - 1.3 * d.G / d.n) < 1e-12


def test_zero_compliance_estimand():
    d = two_groups()
    equal = PopulationInputs(pi=0.0, tau=[1.5, 1.5])
    assert population_estimand(EstimatorKind.SIVE, d, equal) == 1.5
    unequal = PopulationInputs(pi=0.0, tau=[1.0, 2.0])
    with pytest.raises(EstimationError, match="denominator is zero"):
        population_estimand(EstimatorKind.SIVE, d, unequal)


def test_estimand_missing_inputs_are_rejected():
    d = two_groups()
    bare = PopulationInputs(pi=[0.5, 0.5], tau=[1.0, 1.0])
    with pytest.raises(ValueError, match="sigma_ue and sigma_uu"):
        population_estimand(EstimatorKind.TSLS_SATURATED, d, bare)
    with pytest.raises(ValueError, match="psi and phi"):
        population_estimand(EstimatorKind.JIVE1, d, bare)
    with pytest.raises(ValueError, match="sigma_ue and sigma_uu"):
        population_estimand(EstimatorKind.JIVE2, d, bare)
    with pytest.raises(ValueError, match="no population estimand"):
        population_moments(EstimatorKind.TSLS_GENERIC, d, bare)


def test_check_precedence_on_small_and_empty_cells():
    # A cell of one observation leaves P, and so TSLS, JIVE1 and JIVE2,
    # defined, while D and A need two per cell; an empty cell leaves neither.
    d = build_design([[0]] * 5 + [[1]] * 6, [1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    s = strong_sample(np.random.default_rng(5), d)
    W = np.eye(d.G)[d.group_of]
    Z = W * d.instrument[:, None]
    M_W = np.eye(d.n) - W @ np.linalg.solve(W.T @ W, W.T)
    MZ = M_W @ Z
    P = MZ @ np.linalg.solve(Z.T @ MZ, MZ.T)
    dense = DenseDesign(W=W, Z=Z, P=P, M_W=M_W, M_WZ=None, D=None, A=None)
    for estimate, kind in (
        (estimate_tsls, EstimatorKind.TSLS_SATURATED),
        (estimate_jive1, EstimatorKind.JIVE1),
        (estimate_jive2, EstimatorKind.JIVE2),
    ):
        want = oracle_estimate(kind, dense, s.outcome, s.treatment)
        assert abs(estimate(d, s) - want) <= 1e-8 * max(1.0, abs(want)), kind
    message = r"^group 0 has m_g=1 and n_g - m_g=4; need m_g >= 2 and n_g - m_g >= 2$"
    for call in (lambda: estimate_sive(d, s), lambda: sive_report(d, s),
                 lambda: trace_A_squared(d)):
        with pytest.raises(GroupSizeError, match=message):
            call()

    empty = build_design([[0]] * 5 + [[1]] * 6, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    s = strong_sample(np.random.default_rng(5), empty)
    message = r"^group 0 has m_g=0 and n_g - m_g=5; need m_g >= 1 and n_g - m_g >= 1$"
    for estimate in ALL_BLOCKWISE:
        with pytest.raises(DegenerateGroupError, match=message):
            estimate(empty, s)


def test_first_stage_strength_frozen_values():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    diag = first_stage_strength(d, pi=0.5)
    assert abs(diag["FS"] - 0.0625) < 1e-12
    assert abs(diag["mu_n"] - 0.25) < 1e-12
    full = first_stage_strength(d, pi=1.0)
    assert abs(full["FS"] - 0.25) < 1e-12


def test_first_stage_strength_from_treatment():
    d = two_groups()
    z = d.instrument.astype(float)
    diag = first_stage_strength(d, pi=_moments(d, Sample(z, z)).group_gaps()[0])
    # perfect compliance: estimated shares differ by exactly one
    expected = first_stage_strength(d, pi=[1.0, 1.0])
    assert abs(diag["FS"] - expected["FS"]) < 1e-12
    assert abs(diag["mu_n"] - expected["mu_n"]) < 1e-12

    # A table's gaps are the per-row gaps of cell means bit for bit: a 0/1 T
    # is summed as exact counts, any other T by the same cell means.
    rng = np.random.default_rng(15)
    d = random_design(rng, G=6)
    for T in (rng.integers(0, 2, d.n).astype(float), rng.standard_normal(d.n)):
        means = _cell_means(d, T)
        gaps = _moments(d, Sample(T, T)).group_gaps()[0]
        assert gaps.tobytes() == (means[1::2] - means[0::2]).tobytes()


def test_first_stage_strength_needs_one_share_per_group():
    d = two_groups()
    with pytest.raises(ValueError, match="^pi must be a scalar or have length G=2$"):
        first_stage_strength(d, pi=[0.5, 0.5, 0.5])


def test_sample_length_checked():
    d = two_groups()
    with pytest.raises(Exception, match="rows"):
        estimate_sive(d, Sample(np.zeros(3), np.zeros(3)))


def offset_iv_data(n=1800, seed=7):
    """A binary instrument and an outcome with an offset of 50."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, n).astype(float)
    u = rng.standard_normal(n)
    T = 0.8 * z + u
    Y = 50.0 + 0.7 * T + 0.5 * u + rng.standard_normal(n)
    return Y, T, z


def longdouble_iv_ratio(Y, T, z):
    """cov(z, Y) / cov(z, T) in extended precision."""
    Y, T, z = (v.astype(np.longdouble) for v in (Y, T, z))
    zc = z - z.mean()
    return (zc @ (Y - Y.mean())) / (zc @ (T - T.mean()))


def test_generic_intercept_is_partialled_out_before_the_qr():
    # With an intercept the exactly identified 2SLS is the covariance ratio;
    # uncentred columns lose about 1e-12 of it to the offset of Y.
    Y, T, z = offset_iv_data()
    ref = longdouble_iv_ratio(Y, T, z)
    for C in (np.ones(Y.size), np.full((Y.size, 1), 3.0)):
        beta, var = estimate_tsls_generic(Y, T, z[:, None], C)
        assert abs(float((beta - ref) / ref)) <= 1e-13
        assert var > 0.0


def test_generic_refuses_controls_that_overflow_when_centred():
    # Partialling out the intercept takes each column's mean, and a column
    # near the top of the float range sums past it.
    rng = np.random.default_rng(52)
    z = rng.integers(0, 2, 20).astype(float)
    T = z + rng.standard_normal(20)
    C = np.column_stack([np.ones(20), rng.uniform(1e308, 1.7e308, 20)])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="the controls overflow when centred"):
            estimate_tsls_generic(T + rng.standard_normal(20), T, z, C)


def test_a_fit_estimates_only_the_blockwise_estimators():
    rng = np.random.default_rng(53)
    d = random_design(rng, G=3, size_range=(8, 12))
    s = strong_sample(rng, d)
    with pytest.raises(ValueError, match="not a blockwise estimator"):
        Fit(d, s.outcome, s.treatment).estimate(EstimatorKind.TSLS_GENERIC)


def test_generic_not_saturated_cli_spec_is_accurate_with_an_offset(tmp_path):
    from sivreg.cli import DatasetSchema, SpecChoice, cmd_estimate

    Y, T, z = offset_iv_data()
    lines = ["y,t,z"] + [f"{y!r},{t!r},{int(q)}" for y, t, q in zip(Y.tolist(), T.tolist(), z)]
    data = tmp_path / "offset.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = cmd_estimate(
        str(data), DatasetSchema("y", "t", "z"), spec=SpecChoice.NOT_SATURATED,
        estimator=EstimatorKind.TSLS_GENERIC,
    )
    ref = longdouble_iv_ratio(Y, T, z)
    assert abs(float((payload["estimate"]["beta_hat"] - ref) / ref)) <= 1e-13
