"""Point estimators and population estimand oracles.

The four saturated estimators are ratios of quadratic forms ``T' Op Y / T' Op
T`` that differ only in the operator:

* TSLS uses ``P``,
* JIVE1 removes the diagonal, ``P - D_P``,
* JIVE2 sandwiches the diagonal removal between group demeanings,
  ``M_W (P - D_P) M_W``,
* SIVE replaces the diagonal with its cell-demeaned counterpart,
  ``A = P - M_WZ D M_WZ``.

All four operators are block diagonal over cells, so each ratio is O(G)
arithmetic on the cell means and second-order sums of one pass over the data
(``blockops._CellMoments``).  The forms run as they are on a stack of designs,
one value per design; there a denominator that is not identified gives NaN
where a single design raises.

The population_* functions evaluate the corresponding estimands at the
realized group counts, which is what the Monte Carlo harness uses as truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blockops import (
    projection_diag_P,
    _Atoms,
    _CellMoments,
    _check_vector,
    _constants,
    _dot,
    _require_cells,
)
from .design import DesignError, Sample, SaturatedDesign, _check_sample

__all__ = [
    "EstimatorKind",
    "PopulationInputs",
    "EstimationError",
    "WeakDenominatorError",
    "RankDeficiencyError",
    "estimate_sive",
    "estimate_tsls",
    "estimate_jive1",
    "estimate_jive2",
    "estimate_tsls_generic",
    "population_estimand",
    "population_moments",
    "first_stage_strength",
]

# Relative pivot tolerance for dropping collinear columns in the generic path.
PIVOT_RTOL = 1e-10
# |T' Op T| below this times ||T||^2 counts as a zero denominator.
DENOMINATOR_RTOL = 1e-12


class EstimationError(RuntimeError):
    """An estimator could not be computed from the data."""


class WeakDenominatorError(EstimationError):
    """The quadratic-form denominator is numerically zero."""


class RankDeficiencyError(EstimationError):
    """The generic design matrices are rank deficient."""


class EstimatorKind(enum.Enum):
    TSLS_SATURATED = "tsls-saturated"
    JIVE1 = "jive1"
    JIVE2 = "jive2"
    SIVE = "sive"
    TSLS_GENERIC = "tsls-generic"


@dataclass(frozen=True)
class PopulationInputs:
    """Population quantities entering the estimand formulas.

    pi and tau are per-group (complier share and local effect).  sigma_ue and
    sigma_uu are per-observation conditional moments E[u e | .] and E[u^2 | .]
    (scalars broadcast to a homoskedastic model).  psi and phi are the
    per-group inactive-cell means of treatment and outcome; only the JIVE1
    estimand needs them.
    """

    pi: object
    tau: object
    sigma_ue: object = None
    sigma_uu: object = None
    psi: object = None
    phi: object = None


def _identified_ratio(num, den, tt, power: int = 1):
    """``num / den**power`` for a quadratic-form denominator ``den = T' Op T``,
    NaN (per design of a stack) where ``|den|`` is at most 1e-12 ``tt``, the
    table's ||T||^2.

    The power is ``np.float_power``, which rounds a square as the scalar
    ``**`` does; ``**`` on an array squares by multiplication.
    """
    ok = np.abs(den) > DENOMINATOR_RTOL * tt  # False at NaN, which stays NaN
    scale = np.float_power(den, power)
    return np.divide(num, scale, out=np.full(np.shape(den), np.nan), where=ok)


def _single(value) -> float:
    """One design's value of a ratio from ``_identified_ratio``, raising where
    the denominator is not identified."""
    if np.isnan(value):
        raise WeakDenominatorError(
            "quadratic-form denominator is numerically zero relative to ||T||^2; "
            "identification is too weak for a point estimate, use the "
            "identification-robust test instead"
        )
    return float(value)


def _atoms(design: SaturatedDesign, T, Y) -> _Atoms:
    """T's and Y's atoms, each vector checked (Y first): outside ``simulation``,
    the one place that reads a sample's rows into atoms."""
    Y = _check_vector(design, Y)
    return _Atoms(design, _check_vector(design, T), Y)


def _moments(design: SaturatedDesign, sample: Sample) -> _CellMoments:
    """The table of a sample at center 0."""
    _check_sample(design, sample)
    return _CellMoments(design, _atoms(design, sample.treatment, sample.outcome))


def _jive1_form(t: _CellMoments) -> tuple:
    """The P forms with the diagonal of P removed.

    ``sum_i P_ii T_i Y_i`` is, per cell, ``P_cc (s11 + k mean_T mean_Y)``.
    """
    p_diag = _require_cells(t.design, 1).p_diag
    num, den = t.p_form()  # kept on the table: read-only, so not ``-=``
    num = num - _dot(p_diag, t.s11 + t.k * t.mean_T * t.mean_Y)
    return num, den - _dot(p_diag, t.s20 + t.k * t.mean_T * t.mean_T)


def _jive2_form(t: _CellMoments) -> tuple:
    """The forms of ``M_W (P - D_P) M_W``; demeans before removing the diagonal.

    P absorbs the group demeaning, and a cell's mean deviates from its
    group's by its share of the gap of cell means, so the removed diagonal is
    ``P_cc s11`` per cell plus ``(m_g^3 + (n_g - m_g)^3) / n_g^3`` times the
    product of the gaps per group.
    """
    c = _require_cells(t.design, 1)
    p_diag, between = c.p_diag, c.between
    num, den = t.p_form()
    gap_T, gap_Y = t.group_gaps()
    num = num - (_dot(p_diag, t.s11) + _dot(between, gap_T * gap_Y))
    return num, den - (_dot(p_diag, t.s20) + _dot(between, gap_T * gap_T))


# Each blockwise estimator as its ``(T' Op Y, T' Op T)`` on a moment table.
_FORMS = {
    EstimatorKind.SIVE: _CellMoments.a_form,
    EstimatorKind.TSLS_SATURATED: _CellMoments.p_form,
    EstimatorKind.JIVE1: _jive1_form,
    EstimatorKind.JIVE2: _jive2_form,
}


def _estimates(kind: EstimatorKind, table: _CellMoments):
    """Estimate of one of the four blockwise estimators from a moment table at
    center 0; on a stack one per design, NaN where the denominator is not
    identified."""
    if kind not in _FORMS:
        raise ValueError(f"not a blockwise estimator: {kind!r}")
    return _identified_ratio(*_FORMS[kind](table), table.tt)


def _point_estimate(kind: EstimatorKind, table: _CellMoments) -> float:
    """``_estimates`` of one design."""
    return _single(_estimates(kind, table))


def estimate_sive(design: SaturatedDesign, sample: Sample) -> float:
    """``T'AY / T'AT`` from the per-cell moments."""
    return _point_estimate(EstimatorKind.SIVE, _moments(design, sample))


def estimate_tsls(design: SaturatedDesign, sample: Sample) -> float:
    """``T'PY / T'PT`` on the saturated design."""
    return _point_estimate(EstimatorKind.TSLS_SATURATED, _moments(design, sample))


def estimate_jive1(design: SaturatedDesign, sample: Sample) -> float:
    """Ratio with the diagonal of P removed."""
    return _point_estimate(EstimatorKind.JIVE1, _moments(design, sample))


def estimate_jive2(design: SaturatedDesign, sample: Sample) -> float:
    """Ratio with ``M_W (P - D_P) M_W``."""
    return _point_estimate(EstimatorKind.JIVE2, _moments(design, sample))


def _drop_collinear(columns: np.ndarray, names: list) -> tuple[np.ndarray, list, list]:
    """Keep a maximal independent column subset, in the original order, by
    column-pivoted QR (Businger-Golub): pivot on the first column of largest
    residual norm, as LAPACK's geqp3 does, project it out of the others, and
    stop once that norm is at most ``PIVOT_RTOL`` times the first pivot's.
    Elementwise steps and row-by-row sums keep equal columns' norms equal, so
    of equal columns the first is kept."""
    if not np.isfinite(columns).all():
        raise ValueError("array must not contain infs or NaNs")
    residual = columns.copy()
    kept = []
    first = None
    for _ in range(min(columns.shape)):
        norms = np.sqrt(np.square(residual).sum(axis=0))
        norms[kept] = -1.0
        j = int(np.argmax(norms))
        first = norms[j] if first is None else first
        if not norms[j] > PIVOT_RTOL * first:
            break
        q = residual[:, j, None] / norms[j]
        residual -= q * (q * residual).sum(axis=0)
        kept.append(j)
    kept.sort()
    dropped = [name for j, name in enumerate(names) if j not in kept]
    return columns[:, kept], [names[j] for j in kept], dropped


def estimate_tsls_generic(
    Y,
    T,
    instrument_matrix,
    control_matrix=None,
    instrument_names=None,
    control_names=None,
) -> tuple[float, float]:
    """Textbook two-stage least squares on explicit design matrices.

    Collinear columns are dropped by pivoted QR elimination (controls first,
    then instruments against the surviving controls).  A constant control
    column, the intercept, is partialled out first by centring the other
    columns, which leaves the coefficient, the residuals and the HC0 variance
    as they are.  Returns the treatment coefficient and its HC0 sandwich
    variance.

    Raises
    ------
    DesignError
        If Y, T, the instruments or the controls are not finite with one row per entry of Y.
    RankDeficiencyError
        If no instrument survives elimination or the projected regressors are
        singular; the message lists the columns that elimination removed.
    """
    # Copies, so that the caller's arrays are not made read-only.
    sample = Sample(np.array(Y, dtype=np.float64), np.array(T, dtype=np.float64))
    Y, T = sample.outcome, sample.treatment
    Zin = np.atleast_2d(np.asarray(instrument_matrix, dtype=np.float64))
    if Zin.shape[0] == 1 and Y.size > 1:
        Zin = Zin.T
    C = np.empty((Y.size, 0)) if control_matrix is None else control_matrix
    C = np.asarray(C, dtype=np.float64)
    if C.ndim == 1:
        C = C[:, None]
    for M, name in ((Zin, "instruments"), (C, "controls")):
        if M.shape[0] != Y.size:
            raise DesignError(f"sample has {Y.size} rows but the {name} have {M.shape[0]}")
        if not np.isfinite(M).all():
            raise DesignError(f"the {name} contain non-finite entries")
    if instrument_names is None:
        instrument_names = [f"instrument[{j}]" for j in range(Zin.shape[1])]
    if control_names is None:
        control_names = [f"control[{j}]" for j in range(C.shape[1])]
    control_names = list(control_names)

    constant = np.flatnonzero((C == C[:1]).all(axis=0) & (C[0] != 0)) if C.size else []
    if len(constant):
        # Frisch-Waugh-Lovell: centring every other column partials out the
        # intercept, so offsets in Y or T cost the QR no digits.  Of several
        # constant columns the largest is kept, as the pivoting would.
        j = int(constant[np.argmax(np.abs(C[0, constant]))])
        C = np.delete(C, j, axis=1)
        del control_names[j]
        Y, T, Zin, C = (v - v.mean(axis=0) for v in (Y, T, Zin, C))

    C, kept_control_names, dropped = _drop_collinear(C, control_names)
    # Instruments collinear with the controls carry no identifying variation.
    combined, kept_names, dropped_z = _drop_collinear(
        np.hstack([C, Zin]), kept_control_names + list(instrument_names)
    )
    dropped += dropped_z
    n_controls = len(kept_control_names)
    Zfull = combined
    if Zfull.shape[1] <= n_controls:
        raise RankDeficiencyError(
            "no instrument column survives collinearity elimination; dropped: "
            + ", ".join(dropped)
        )

    X = np.column_stack([T, C])
    coef, *_ = np.linalg.lstsq(Zfull, X, rcond=None)
    Xhat = Zfull @ coef
    XtX = Xhat.T @ X
    cond = np.linalg.cond(XtX)
    if not np.isfinite(cond) or cond > 1.0 / PIVOT_RTOL:
        raise RankDeficiencyError(
            "projected regressors are rank deficient (treatment may be collinear "
            "with the controls); dropped columns: " + (", ".join(dropped) or "none")
        )
    beta = np.linalg.solve(XtX, Xhat.T @ Y)
    resid = Y - X @ beta
    bread = np.linalg.inv(XtX)
    meat = (Xhat * resid[:, None] ** 2).T @ Xhat
    cov = bread @ meat @ bread.T
    return float(beta[0]), float(cov[0, 0])


def _broadcast(values, length: int, label: str, name: str) -> np.ndarray:
    """``values`` as a float array of ``length`` (named ``label``); a scalar is repeated."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.shape != (length,):
        raise ValueError(f"{name} must be a scalar or have length {label}={length}")
    return arr


def population_moments(
    kind: EstimatorKind, design: SaturatedDesign, inputs: PopulationInputs
) -> tuple[float, float]:
    """Numerator and denominator of the population estimand.

    Both are scaled as ``E[T' Op Y] / n`` and ``E[T' Op T] / n`` for the
    operator matching ``kind``, evaluated at the realized group counts.  The
    SIVE moments also take a stack of designs, one pair per design.
    """
    G, n = design.G, design.n
    pi = _broadcast(inputs.pi, G, "G", "pi")
    tau = _broadcast(inputs.tau, G, "G", "tau")
    c = _constants(design)
    p_tilde, v_tilde = c.size_share, c.share * (1.0 - c.share)
    base = p_tilde * pi**2 * v_tilde

    if kind is EstimatorKind.SIVE:
        return _dot(base, tau), base.sum(axis=-1)

    if kind is EstimatorKind.TSLS_SATURATED:
        if inputs.sigma_ue is None or inputs.sigma_uu is None:
            raise ValueError("the TSLS estimand needs sigma_ue and sigma_uu")
        sigma_ue = _broadcast(inputs.sigma_ue, n, "n", "sigma_ue")
        sigma_uu = _broadcast(inputs.sigma_uu, n, "n", "sigma_uu")
        p_diag = projection_diag_P(design)
        num = float(base @ tau) + float(sigma_ue @ p_diag) / n
        den = float(base.sum()) + float(sigma_uu @ p_diag) / n
        return num, den

    if kind is EstimatorKind.JIVE1:
        if inputs.psi is None or inputs.phi is None:
            raise ValueError("the JIVE1 estimand needs psi and phi")
        inv_m = 1.0 / _require_cells(design, 1).k[1::2]
        psi = _broadcast(inputs.psi, G, "G", "psi")
        phi = _broadcast(inputs.phi, G, "G", "phi")
        b_y = float((p_tilde * pi * (phi + tau * psi) * v_tilde * inv_m).sum())
        b_y += float((psi * phi).sum()) / n
        b_t = 2.0 * float((p_tilde * pi * psi * v_tilde * inv_m).sum())
        b_t += float((psi**2).sum()) / n
        num = float((base * (1.0 - inv_m)) @ tau) - b_y
        den = float((base * (1.0 - inv_m)).sum()) - b_t
        return num, den

    if kind is EstimatorKind.JIVE2:
        if inputs.sigma_ue is None or inputs.sigma_uu is None:
            raise ValueError("the JIVE2 estimand needs sigma_ue and sigma_uu")
        sigma_ue = _broadcast(inputs.sigma_ue, n, "n", "sigma_ue")
        sigma_uu = _broadcast(inputs.sigma_uu, n, "n", "sigma_uu")
        p_diag = projection_diag_P(design)
        g = design.group_of
        weight = 2.0 * p_diag / c.n[g] - c.inv_n2[g]
        shrink = pi**2 * (1.0 - 3.0 * v_tilde)
        b_y1 = -float((shrink * tau).sum()) / n
        b_t1 = -float(shrink.sum()) / n
        b_y2 = float(sigma_ue @ weight) / n
        b_t2 = float(sigma_uu @ weight) / n
        return float(base @ tau) + b_y1 + b_y2, float(base.sum()) + b_t1 + b_t2

    raise ValueError(f"no population estimand for {kind}")


def population_estimand(
    kind: EstimatorKind, design: SaturatedDesign, inputs: PopulationInputs
) -> float:
    """Evaluate the closed-form estimand of ``kind`` at the realized counts.

    For SIVE the result is a convex combination of the per-group effects with
    weights proportional to ``(n_g/n) pi_g^2 V[Q|group]``; when every complier
    share is zero those weights are undefined, and the estimand is returned
    only if the per-group effects are all equal (then every weighting agrees).
    """
    num, den = population_moments(kind, design, inputs)
    if den == 0.0:
        if kind is EstimatorKind.SIVE:
            shared = _shared_effect(_broadcast(inputs.tau, design.G, "G", "tau"))
            if not np.isnan(shared):
                return float(shared)
        raise EstimationError(
            f"the {kind.value} estimand is undefined: its denominator is zero"
        )
    return float(num / den)


def _shared_effect(tau: np.ndarray, keep: np.ndarray | None = None):
    """The effect every (kept) group has, NaN if they differ: the SIVE
    estimand when no group has a first stage, since every weighting agrees."""
    if keep is None:
        keep = np.ones(tau.shape, dtype=bool)
    low = np.where(keep, tau, np.inf).min(axis=-1)
    high = np.where(keep, tau, -np.inf).max(axis=-1)
    return np.where(low == high, low, np.nan)


def first_stage_strength(design: SaturatedDesign, pi) -> dict:
    """First-stage signal FS and the concentration parameter ``mu_n = n FS / G``
    from per-group complier shares ``pi``: known ones, or a sample's estimates,
    its moment table's gaps of cell means of T (``table.group_gaps()[0]``)."""
    pi = _broadcast(pi, design.G, "G", "pi")
    c = _constants(design)
    fs = float((c.size_share * pi**2 * c.share * (1.0 - c.share)).sum())
    return {"FS": fs, "mu_n": design.n / design.G * fs}
