"""The Monte Carlo grid one draw at a time, as it ran before draws were
stacked: the reference that the chunked ``simulation._run_grid`` is tested
against.

Each replication builds its own filtered design (``generate_sample``), one
moment table at center 0 and one at SIVE's estimate, and raises where the
batch sets a per-replication flag.  The loop body is kept as it was; it is
only split at the same seam as the batch, one grid cell per call.

``draw_stack`` is a chunk's rows as the batch stacked them before it reduced
them straight to (cell, arm) atoms: T and Y zeroed row by row.
"""

import numpy as np

from sivreg import simulation
from sivreg.blockops import _Atoms, _CellMoments
from sivreg.design import DesignError, _DesignStack
from sivreg.estimators import EstimationError, EstimatorKind, _point_estimate
from sivreg.inference import _chao_variance, _sive_variance, t_test
from sivreg.simulation import (
    DEFAULT_ESTIMATORS,
    _VARIANTS,
    _cell_configs,
    _median_rows,
    _rate_rows,
    generate_sample,
    replication_seed,
)


def layout_of(cell):
    """The ``simulation._layout`` of ``cell``."""
    return simulation._layout(cell.n, cell.L, cell.n_hetero, cell.h)


def draw_stack(cell, reps):
    """Replications ``reps`` of ``cell``, stacked: ``(stack, T, Y, finite)``.

    T and Y, of shape (R, n), are zero on the rows of the groups a draw
    drops, and on every row of a draw with a non-finite Y (which a Sample
    would refuse; T is 0/1), which ``finite`` marks False.
    """
    raw = simulation._raw_draw(cell, [replication_seed(cell.master_seed, rep) for rep in reps])
    layout = layout_of(cell)
    q, treated, Y = simulation._cell_rows(cell, layout, raw, last=True)
    stack = _DesignStack.of_rows(layout.group_of, q)
    finite = np.isfinite(Y).all(axis=1)
    dropped = ~(kept_rows(stack) & finite[:, None])
    Y[dropped] = 0.0
    return stack, np.where(dropped, 0.0, treated), Y, finite


def kept_rows(stack):
    """Per draw of ``stack`` (built by ``_DesignStack.of_rows``), the rows of
    the groups it keeps."""
    return stack.keep.reshape(-1)[stack.cell // 2]


def per_draw_replications(cell, estimators, variants, alpha):
    """``simulation._replications`` one draw at a time."""
    kinds = tuple(estimators)
    if variants and EstimatorKind.SIVE not in kinds:
        kinds += (EstimatorKind.SIVE,)
    errors = {kind: [] for kind in estimators}
    hits = {variant: [] for variant in variants}
    for rep in range(cell.replications):
        try:
            draw = generate_sample(cell, replication_seed(cell.master_seed, rep))
            Y, T = draw.sample.outcome, draw.sample.treatment
            table = _CellMoments(draw.design, _Atoms(draw.design, T, Y))
        except (DesignError, EstimationError):
            continue
        truth = draw.truth["beta_sive"]
        estimates = {}
        for kind in kinds:
            try:
                estimates[kind] = _point_estimate(kind, table)
            except (DesignError, EstimationError):
                pass
        for kind in estimators:
            if kind in estimates:
                errors[kind].append(estimates[kind] - truth)
        beta_hat = estimates.get(EstimatorKind.SIVE)
        if beta_hat is None or not variants:
            continue
        at_beta_hat = _CellMoments(draw.design, _Atoms(draw.design, T, Y), beta_hat)
        for variant in variants:
            variance = _sive_variance if variant == "vhat" else _chao_variance
            try:
                var = variance(at_beta_hat)
                res = t_test(beta_hat, var, truth, alpha)
            except (DesignError, EstimationError):
                continue
            hits[variant].append(1.0 if res["reject"] else 0.0)
    return errors, hits


def per_draw_run_grid(
    config,
    L_values=None,
    p1_values=None,
    estimators=DEFAULT_ESTIMATORS,
    variants=_VARIANTS,
    alpha=0.05,
):
    """``simulation._run_grid`` one draw at a time."""
    for kind in estimators:
        if kind not in DEFAULT_ESTIMATORS:
            raise ValueError(f"not a blockwise estimator: {kind!r}")
    for variant in variants:
        if variant not in _VARIANTS:
            raise ValueError(f"unknown variance variant: {variant!r}")

    bias_rows, size_rows = [], []
    for cell in _cell_configs(config, L_values, p1_values):
        errors, hits = per_draw_replications(cell, estimators, variants, alpha)
        for kind in estimators:
            bias_rows += _median_rows(cell, kind.value, errors[kind], cell.replications)
        for variant in variants:
            size_rows += _rate_rows(
                cell, f"sive_{variant}", hits[variant], cell.replications
            )
    return bias_rows, size_rows
