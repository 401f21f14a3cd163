"""Variance estimation and testing for the saturated jackknife estimator.

The variance estimator combines per-observation error-moment estimates with
quadratic forms in A:

    V = [ r' A D_{s_u} A r  +  T' A D_{s_v} A T  +  2 r' A D_{s_uv} A T ]
        / (T' A T)^2,       with r = Y - T beta.

The error moments come from Hartley-style unbiased estimators that invert the
Hadamard square of the cell-demeaning operator; cells of size 2 make that
inverse singular and are routed to a rescaled fallback that biases the
variance upward (conservative).  Evaluating everything at a hypothesized
beta_0 instead of the estimate yields the identification-robust score test.

Nothing here is computed one observation at a time.  Within a cell the
Hartley estimate is ``w1 x_i - w2 sum_c x``, and AT and Ar are a cell
constant minus a multiple of the within-cell deviation, so every dot product
above is a polynomial in per-cell power sums of the deviations of T and r.
A ``Fit`` reads one sample's rows into atoms once; a table at any beta_0
merges those sums from them (``blockops._CellMoments``), each group on its
first read, and the score, its variance and their coefficients in beta_0 are
O(G) arithmetic on them.  The public functions are ``Fit`` methods on a fresh
fit.  ``hartley_sigma`` is the per-observation reference the tests compare
against.  The two variances also run on a stack of designs' tables, one value
per design (NaN where T'AT is not identified).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .blockops import (
    _cell_sum,
    _CellMoments,
    _constants,
    _dot,
    _memo,
    apply_M_WZ,
    cell_sizes,
)
from .design import DesignError, Sample, SaturatedDesign, _check_sample, _require_number
from .estimators import (
    EstimationError,
    EstimatorKind,
    _atoms,
    _identified_ratio,
    _point_estimate,
    _single,
    first_stage_strength,
)

__all__ = [
    "Fit",
    "SigmaEstimates",
    "InferenceReport",
    "NonpositiveVarianceError",
    "hartley_sigma",
    "sive_variance",
    "t_test",
    "confidence_interval",
    "robust_test",
    "robust_ci",
    "chao_variance",
    "sive_report",
]


class NonpositiveVarianceError(EstimationError):
    """The variance estimate is not positive; directs users to the robust test."""


@dataclass(frozen=True)
class SigmaEstimates:
    """Per-observation error-moment estimates.

    sigma_u2 estimates E[u^2 | .] (treatment-equation error), sigma_v2 the
    residual-equation counterpart and sigma_uv the cross moment.
    used_fallback marks observations whose cell has size 2.
    """

    sigma_u2: np.ndarray
    sigma_v2: np.ndarray
    sigma_uv: np.ndarray
    used_fallback: np.ndarray


def hartley_sigma(design: SaturatedDesign, treatment, residual) -> SigmaEstimates:
    """Unbiased per-observation variance/covariance estimates.

    For observations in cells of size >= 3, applies the inverse Hadamard
    square of the cell demeaner to the products of demeaned treatment and
    residual.  Observations sharing their cell with exactly one other get the
    rescaled products ``4 (M a)_i (M b)_i`` instead, which biases the
    assembled variance upward.

    Parameters
    ----------
    treatment : array_like, length n
    residual : array_like, length n
        ``Y - T beta`` at whichever beta the caller is testing.
    """
    treatment = np.asarray(treatment, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    k = cell_sizes(design)
    if (k < 2).any():
        i = int(np.argmax(k < 2))
        raise DesignError(
            f"observation {i} is alone in its cell; every cell needs size >= 2"
        )
    ut = apply_M_WZ(design, treatment)
    rt = apply_M_WZ(design, residual)
    w1, w2 = (w[design.cell] for w in _constants(design).hartley)

    def estimate(x):
        return w1 * x - w2 * _cell_sum(design, x)[design.cell]

    return SigmaEstimates(
        sigma_u2=estimate(ut * ut),
        sigma_v2=estimate(rt * rt),
        sigma_uv=estimate(rt * ut),
        used_fallback=k < 3,
    )


def _robust_polynomials(t: _CellMoments) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, lowest degree first, of the score and its variance in
    ``d = beta0 - center``, from a table at ``center``.

    With ``R = Y - T center``, ``a = AT`` and ``b = AR`` the score is
    ``S = a'R - d a'T``, so ``T'AT`` is ``-score[1]``.  The moment estimates
    are linear in the products of demeaned vectors, so at the residual
    ``R - T d`` they expand in ``s_uu, s_ee, s_eu`` from
    ``hartley_sigma(design, T, R)``, and the variance is the quadratic
    ``V = v0 + v1 d + v2 d^2`` with ``v0 = s_uu.b^2 + s_ee.a^2 + 2 s_eu.ab``,
    ``v1 = -4 (s_uu.ab + s_eu.a^2)`` and ``v2 = 4 s_uu.a^2``.  The constant
    terms are the score and variance at ``beta0 = center``.
    """
    (_, s21, _, _), (s30, s40, s31) = t.variance_sums(), t.robust_sums()
    d, (pt, pr), aa = t.d, t.p_values(), _aa(t)
    td, rd, dd = pt * d, pr * d, d * d
    ab, w = t.k * pt * pr + dd * t.s11, _constants(t.design).hartley
    t_a_r, t_a_t = t.a_form()
    v1 = -4.0 * (
        _hartley(w, t.s20, pt * pr * t.s20 - td * s21 - rd * s30 + dd * s31, ab)
        + _hartley(w, t.s11, pt * pt * t.s11 - 2.0 * td * s21 + dd * s31, aa)
    )
    v2 = 4.0 * _hartley(w, t.s20, pt * pt * t.s20 - 2.0 * td * s30 + dd * s40, aa)
    return np.array([t_a_r, -t_a_t]), np.array([_variance_at_center(t), v1, v2])


@_memo
def _aa(t: _CellMoments) -> np.ndarray:
    """Per cell, ``sum a^2 = k pt^2 + d^2 s20`` with ``a = AT = pt - d u``; both
    variances read it.  Likewise ``b = AR = pr - d e``, and every product,
    such as ``u^2 b^2``, sums per cell (``pr^2 s20 - 2 pr d s21 + d^2 s22``)."""
    pt = t.p_values()[0]
    return t.k * pt * pt + t.d * t.d * t.s20


def _hartley(w: tuple, x_sum, xf_sum, f_sum):
    """A Hartley estimate ``w1 x_i - w2 X`` dotted with f: ``w1 sum(x f) - w2 X F``."""
    return _dot(w[0], xf_sum) - _dot(w[1], x_sum * f_sum)


def _variance_at_center(t: _CellMoments):
    """``v0`` of ``_robust_polynomials``: the variance at ``beta0 = center``."""
    s02, s21, s12, s22 = t.variance_sums()
    d, (pt, pr), aa = t.d, t.p_values(), _aa(t)
    td, rd, dd = pt * d, pr * d, d * d
    w = _constants(t.design).hartley
    # bb and ab are formed inside their own terms: fewer arrays alive at once.
    return (
        _hartley(w, t.s20, pr * pr * t.s20 - 2.0 * rd * s21 + dd * s22, t.k * pr * pr + dd * s02)
        + _hartley(w, s02, pt * pt * s02 - 2.0 * td * s12 + dd * s22, aa)
        + 2.0 * _hartley(w, t.s11, pt * pr * t.s11 - td * s12 - rd * s21 + dd * s22,
                         t.k * pt * pr + dd * t.s11)
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")


def _require_positive(variance: float) -> None:
    if not variance > 0.0:
        raise NonpositiveVarianceError(
            f"variance estimate {variance} is not positive; "
            "use the identification-robust test (robust_test / robust_ci)"
        )


def _critical_value(alpha: float, two_sided: bool) -> float:
    return -ndtri(alpha / 2.0 if two_sided else alpha)


def sive_variance(design: SaturatedDesign, Y, T, beta: float) -> float:
    """Variance estimate for the saturated jackknife estimator at ``beta``.

    ``beta`` is the point estimate in the standard mode or a hypothesized
    value in the identification-robust mode.  The result is not a sum of
    squares and can be negative in finite samples; negativity is surfaced by
    the consumers rather than truncated here.
    """
    return Fit(design, Y, T).sive_variance(beta)


def _sive_variance(t: _CellMoments):
    """``sive_variance`` from a table at ``center = beta``."""
    return _identified_ratio(_variance_at_center(t), t.a_form()[1], t.tt, power=2)


def t_test(beta_hat: float, variance: float, beta0: float, alpha: float = 0.05) -> dict:
    """Two-sided normal test of ``beta = beta0``, rejecting where ``|t| >
    z_{1-alpha/2}`` (``_t_rejects``).  Returns ``{"t", "reject", "p"}``, with
    ``p = 2 ndtr(-|t|)`` reported beside the decision, which it does not make."""
    _require_number("beta_hat", beta_hat)
    _require_number("beta0", beta0)
    _check_alpha(alpha)
    _require_positive(variance)
    t = (beta_hat - beta0) / np.sqrt(variance)
    reject = bool(_t_rejects(beta_hat, variance, beta0, alpha))
    return {"t": float(t), "reject": reject, "p": 2.0 * ndtr(-abs(t))}


def _t_rejects(beta_hat, variance, beta0, alpha: float):
    """The t-test's decision ``|t| > z_{1-alpha/2}`` on scalars or arrays
    (False where t is NaN; never at alpha so small that z is infinite)."""
    return np.abs((beta_hat - beta0) / np.sqrt(variance)) > _critical_value(alpha, True)


def confidence_interval(
    beta_hat: float, variance: float, alpha: float = 0.05
) -> tuple[float, float]:
    """Symmetric two-sided interval ``beta_hat +/- z_{1-alpha/2} sqrt(variance)``."""
    _check_alpha(alpha)
    _require_positive(variance)
    half = _critical_value(alpha, two_sided=True) * float(np.sqrt(variance))
    return beta_hat - half, beta_hat + half


def _accepts(score: float, variance: float, crit: float, two_sided: bool) -> bool:
    """The robust test's decision: it rejects only where the variance is
    positive and the studentized score (its absolute value if two-sided)
    exceeds ``crit``."""
    if not variance > 0.0:
        return True
    stat = score / np.sqrt(variance)
    return not (abs(stat) if two_sided else stat) > crit


def robust_test(
    design: SaturatedDesign,
    Y,
    T,
    beta0: float,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> dict:
    """Identification-robust score test of ``beta = beta0``.

    Uses the score ``T'A(Y - T beta0)`` with its variance evaluated at
    ``beta0``, so validity needs no identification strength.  A nonpositive
    variance estimate yields a non-rejection (conservative).  Where the
    variance at ``beta0`` overflows, the decision is made on ``S/|beta0|``
    and ``V/beta0^2`` from the table at 0.  Returns
    ``{"score", "variance_at_beta0", "reject"}``, both values at ``beta0``.
    """
    return Fit(design, Y, T).robust_test(beta0, alpha, two_sided)


def _real_roots(c: np.ndarray) -> list[float]:
    """Real roots of ``c[0] + c[1] x + c[2] x^2`` without cancellation.

    A zero leading coefficient leaves the linear root, if any; a polynomial
    that is identically zero has no isolated roots.
    """
    c0, c1, c2 = (float(v) for v in c)
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
    if q == 0.0:
        return [0.0]
    return [q / c2, c0 / q]


def _robust_set(
    score: np.ndarray, variance: np.ndarray, center: float, crit: float, two_sided: bool
) -> list[tuple[float, float]]:
    """Exact set of beta0 that the robust test does not reject, as closed
    intervals, from the score and variance polynomials of
    ``_robust_polynomials`` on a table at ``center``.

    The decision (``_accepts``) can change only where V or ``Q = S^2 -
    crit^2 V`` changes sign.  With ``crit > 0`` every such breakpoint (a real
    root of V or Q) is itself accepted, and membership is constant between
    breakpoints, so one probe per gap and per ray decides the rest.  All of
    this is solved in ``d = beta0 - center`` and shifted back at the end.
    The center should lie where the set is reported: far from it, V's
    coefficients cancel badly when T explains most of Y.  Endpoints may be
    infinite.  Q keeps all three terms when S is flat (``T'AT = 0``).
    """
    (s0, s1), (v0, v1, v2) = score, variance
    q = np.array([s0 * s0, 2.0 * (s0 * s1), s1 * s1]) - crit**2 * variance
    points = _real_roots(variance) + _real_roots(q)
    points = sorted({p for p in points if np.isfinite(p)})

    def accepted(beta: float) -> bool:
        return _accepts(s0 + s1 * beta, v0 + (v1 + v2 * beta) * beta, crit, two_sided)

    if not points:
        return [(-np.inf, np.inf)] if accepted(0.0) else []
    # Pieces in order: left ray, first point, first gap, ..., last point, right ray.
    pieces = [(-np.inf, points[0], accepted(points[0] - 1.0 - abs(points[0])))]
    for left, right in zip(points, points[1:]):
        pieces += [(left, left, True), (left, right, accepted(0.5 * (left + right)))]
    last = points[-1]
    pieces += [(last, last, True), (last, np.inf, accepted(last + 1.0 + abs(last)))]

    intervals: list[tuple[float, float]] = []
    for lo, hi, ok in pieces:
        if not ok:
            continue
        if intervals and intervals[-1][1] == lo:
            intervals[-1] = (intervals[-1][0], hi)
        else:
            intervals.append((lo, hi))
    return [(lo + center, hi + center) for lo, hi in intervals]


def robust_ci(
    design: SaturatedDesign,
    Y,
    T,
    grid: dict | None = None,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> dict:
    """Identification-robust confidence set with exact endpoints.

    The set of hypothesized values the robust test does not reject is solved
    in closed form: the score is linear and its variance estimate exactly
    quadratic in beta0, so the endpoints are roots of two quadratics, found
    from one moment table centred in the reporting window (below).  The set
    can be bounded, a union of two rays, the whole line or empty.
    ``unbounded`` flags an exact set that extends to infinity.  A one-sided
    set needs ``alpha < 0.5``.

    ``grid`` is the reporting window ``{"low", "high"}``: the exact set is
    clipped to ``[low, high]``, and ``unbounded_within_grid`` flags
    acceptance at either window edge.  An optional ``step`` does not affect
    the set; it must be finite and positive, and is echoed as given (None
    when absent).  Without a grid, the window defaults to the point estimate
    plus/minus 10 standard errors, which requires the standard variance to
    exist.  The set is solved on the table at the point estimate that gives
    that variance, or, with a grid, on a table at the window's midpoint;
    at 0 if that midpoint is infinite or the table there overflows.
    The result lists the maximal intervals of the clipped set, which may be
    empty, disjoint or single points.
    """
    return Fit(design, Y, T).robust_ci(grid, alpha, two_sided)


def chao_variance(design: SaturatedDesign, Y, T, beta_hat: float) -> float:
    """Comparison variance estimator built from group-level moment estimates.

    ``V_c = (T'A D_1 A T + (e*u)' J (A*A) J (e*u)) / (T'AT)^2`` where J is the
    inverse Hadamard square of the group demeaner, ``D_1 = diag(J (e*e))``,
    and e, u are the cell-demeaned residual and treatment.  Requires what A
    requires (``GroupSizeError`` otherwise); unlike the main estimator it is
    not robust to within-group effect heterogeneity.
    """
    return Fit(design, Y, T).chao_variance(beta_hat)


def _chao_variance(t: _CellMoments):
    """``chao_variance`` from a table at ``center = beta_hat``.

    In a cell ``(AT)_i = pt - d u_i``, and J acts as ``w1 x_i - w2 X_g`` with
    the Hartley weights of whole groups (k = n_g) and ``X_g`` the group total
    of x.  So ``D_1 = w1 e^2 - w2 S02_g`` and ``J(e*u) = w1 e u - w2 S11_g``.
    ``A*A`` is ``d^2`` between two members of a cell and ``1/n_g^2`` across
    the group's two cells, so with ``W_c`` the cell sum of ``J(e*u)`` the
    second term is ``d^2 (W_c^2 - sum_c J(e*u)^2)`` per cell plus
    ``2 W_0 W_1 / n_g^2`` per group.
    """
    s02, _, s12, s22 = t.variance_sums()
    d, pt, aa, c = t.d, t.p_values()[0], _aa(t), _constants(t.design)
    w1, w2 = (np.repeat(w, 2, axis=-1) for w in c.group_hartley)
    s02_g, s11_g = (
        np.repeat(s.reshape(s.shape[:-1] + (-1, 2)).sum(axis=-1), 2, axis=-1)
        for s in (s02, t.s11)
    )
    term1 = _dot(w1, pt * pt * s02 - 2.0 * pt * d * s12 + d * d * s22)
    term1 -= _dot(w2 * s02_g, aa)
    shift = w2 * s11_g
    del w2, s02_g, s11_g  # freed once read, before the products where memory peaks
    w_sum = w1 * t.s11 - shift * t.k
    w_sq = w1 * w1 * s22 - 2.0 * w1 * shift * t.s11 + shift * shift * t.k
    del w1, shift
    term2 = _dot(d * d, w_sum * w_sum - w_sq)
    term2 += 2.0 * _dot(w_sum[..., 0::2] * w_sum[..., 1::2], c.inv_n2)
    return _identified_ratio(term1 + term2, t.a_form()[1], t.tt, power=2)


@dataclass(frozen=True)
class InferenceReport:
    """Point estimate with variance, interval, test and first-stage diagnostics.

    Fields that require a variance, and ``beta0``, are None when no variance
    is available for the estimator.
    """

    beta_hat: float
    variance: float | None
    std_error: float | None
    ci_low: float | None
    ci_high: float | None
    beta0: float | None
    t_stat: float | None
    fs_diag: dict | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _normal_report(
    beta_hat: float, variance: float | None, alpha: float, beta0: float, fs_diag: dict
) -> InferenceReport:
    """Normal-theory interval and t statistic of ``beta = beta0`` at ``beta_hat``.

    Without a variance (None), those and ``beta0`` are None.  An exactly zero
    variance (noiseless data) degenerates gracefully: zero standard error, a
    point interval, and no t statistic.  A negative one is an error.
    """
    if variance is None:
        return InferenceReport(beta_hat, None, None, None, None, None, None, fs_diag)
    if variance < 0.0:
        raise NonpositiveVarianceError(
            f"variance estimate {variance} is negative; "
            "use the identification-robust test (robust_test / robust_ci)"
        )
    if variance > 0.0:
        ci_low, ci_high = confidence_interval(beta_hat, variance, alpha)
        t_stat = float((beta_hat - beta0) / np.sqrt(variance))
    else:
        ci_low, ci_high = beta_hat, beta_hat
        t_stat = None
    std_error = float(np.sqrt(variance))
    return InferenceReport(beta_hat, variance, std_error, ci_low, ci_high, beta0, t_stat, fs_diag)


def sive_report(
    design: SaturatedDesign,
    sample: Sample,
    alpha: float = 0.05,
    beta0: float = 0.0,
) -> InferenceReport:
    """Full inference report for the saturated jackknife estimator.

    The interval and test follow ``_normal_report``: a zero variance gives a
    point interval and no t statistic, a negative one an error.
    """
    _check_sample(design, sample)
    return Fit(design, sample.outcome, sample.treatment).report(alpha, beta0)


class Fit:
    """One sample's inference: Y and T, checked as ``sive_variance`` does, are
    read into atoms once, and each method builds its tables on them (O(G) for
    a 0/1 T).  The table at 0 and ``at_beta_hat`` are kept from first use.
    The public functions of the same names (``sive_report`` for ``report``)
    are these methods on a fresh fit, bit for bit."""

    def __init__(self, design: SaturatedDesign, Y, T):
        self.design, self.atoms = design, _atoms(design, T, Y)

    @_memo
    def base(self) -> _CellMoments:
        """The table at 0."""
        return _CellMoments(self.design, self.atoms)

    @_memo
    def at_beta_hat(self) -> tuple[float, _CellMoments, float]:
        """The SIVE estimate, the table at it and its ``sive_variance``."""
        beta_hat = _point_estimate(EstimatorKind.SIVE, self.base())
        table = _CellMoments(self.design, self.atoms, beta_hat)
        return beta_hat, table, _single(_sive_variance(table))

    def estimate(self, kind: EstimatorKind) -> float:
        """The estimate of one of the four blockwise estimators."""
        return _point_estimate(kind, self.base())

    def first_stage_strength(self) -> dict:
        """``first_stage_strength`` at the sample's complier shares."""
        return first_stage_strength(self.design, pi=self.base().group_gaps()[0])

    def report(self, alpha: float = 0.05, beta0: float = 0.0) -> InferenceReport:
        _require_number("beta0", beta0)
        beta_hat, _, variance = self.at_beta_hat()
        return _normal_report(beta_hat, variance, alpha, beta0, self.first_stage_strength())

    def sive_variance(self, beta: float) -> float:
        _require_number("beta", beta)
        return _single(_sive_variance(_CellMoments(self.design, self.atoms, beta)))

    def chao_variance(self, beta_hat: float) -> float:
        _require_number("beta_hat", beta_hat)
        return _single(_chao_variance(_CellMoments(self.design, self.atoms, beta_hat)))

    def robust_test(self, beta0: float, alpha: float = 0.05, two_sided: bool = True) -> dict:
        _require_number("beta0", beta0)
        _check_alpha(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            table = _CellMoments(self.design, self.atoms, beta0)
            var, score = float(_variance_at_center(table)), float(table.a_form()[0])
        s, v = score, var
        if not np.isfinite(var):
            # Far from the data the table at beta0 overflows: decide on S/|beta0|
            # and V/beta0^2, from the polynomials at 0, which are finite there.
            (s0, s1), (v0, v1, v2) = _robust_polynomials(self.base())
            s, v = s0 / abs(beta0) + s1 * np.sign(beta0), (v0 / beta0 + v1) / beta0 + v2
        reject = not _accepts(s, v, _critical_value(alpha, two_sided), two_sided)
        return {"score": score, "variance_at_beta0": var, "reject": reject}

    def robust_ci(self, grid: dict | None = None, alpha: float = 0.05, two_sided: bool = True):
        _check_alpha(alpha)
        crit = _critical_value(alpha, two_sided)
        if not crit > 0.0:
            raise ValueError("a one-sided robust confidence set needs alpha < 0.5")
        table = None
        if grid is None:
            beta_hat, table, variance = self.at_beta_hat()
            if not variance > 0.0:
                raise NonpositiveVarianceError(
                    "cannot derive a default grid: the variance estimate is not "
                    "positive; supply grid={'low': ..., 'high': ...}"
                )
            se = float(np.sqrt(variance))
            grid = {"low": beta_hat - 10.0 * se, "high": beta_hat + 10.0 * se}
        low, high = float(grid["low"]), float(grid["high"])
        if not high > low:
            raise ValueError(f"grid high {high} must exceed grid low {low}")
        step = grid.get("step")
        if step is not None:
            step = float(step)
            if not 0.0 < step < np.inf:
                raise ValueError(f"grid step must be finite and positive, got {step}")

        with np.errstate(over="ignore", invalid="ignore"):
            if table is None:
                # Halves first, so that huge edges do not overflow the sum.
                center = 0.5 * low + 0.5 * high
                center = center if np.isfinite(center) else 0.0
                table = _CellMoments(self.design, self.atoms, center)
            polynomials = _robust_polynomials(table)
        if not np.isfinite(np.concatenate(polynomials)).all():
            # Far from the data, R = Y - center T overflows: solve around 0, as
            # any overflow there is the data's own, and is reported.
            table = self.base()
            polynomials = _robust_polynomials(table)
        exact = _robust_set(*polynomials, table.center, crit, two_sided)
        intervals = [
            (float(max(lo, low)), float(min(hi, high)))
            for lo, hi in exact
            if lo <= high and hi >= low
        ]
        return {
            "intervals": intervals,
            "unbounded_within_grid": bool(
                intervals and (intervals[0][0] == low or intervals[-1][1] == high)
            ),
            "unbounded": bool(exact and (exact[0][0] == -np.inf or exact[-1][1] == np.inf)),
            "grid": {"low": low, "high": high, "step": step},
            "alpha": alpha,
        }
