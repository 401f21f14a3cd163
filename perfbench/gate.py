"""Independent correctness gate built on the dense reference ``sivreg.oracle``.

A, P and M_WZ are block diagonal by covariate group, and every cell of the
Hadamard-square inverse lies inside one group.  So T'AY, T'AT and the
numerator of the variance estimate are sums of per-group values, and each
group can be assembled densely on its own: exact at sizes where one n-by-n
matrix would not fit in memory.

The gate never calls the blockwise operators; it groups rows with numpy,
assembles each group with ``sivreg.oracle.assemble`` and evaluates the
formulas with ``sivreg.oracle.oracle_sigma`` and dense products.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

RTOL = 1e-8


def close(value, reference) -> bool:
    """``|value - reference| <= RTOL * |reference|``, false for a missing value."""
    if value is None or not math.isfinite(value):
        return False
    return abs(value - reference) <= RTOL * abs(reference)


def kept_groups(codes: np.ndarray, instrument: np.ndarray):
    """Group rows by code and keep groups with >= 2 active and >= 2 inactive rows.

    Returns (row mask, compact group index of the kept rows, kept group count).
    """
    _, group = np.unique(codes, return_inverse=True)
    group = group.ravel()
    sizes = np.bincount(group)
    active = np.bincount(group, weights=instrument).astype(np.int64)
    keep = (active >= 2) & (sizes - active >= 2)
    compact = np.cumsum(keep) - 1
    rows = keep[group]
    return rows, compact[group[rows]], int(keep.sum())


def evaluate(group_of, instrument, Y, T, betas) -> dict:
    """Oracle sums over the groups of a filtered sample, in one pass.

    ``group_of`` holds compact group indices (every group has at least two
    active and two inactive rows).  Returns ``{"ty": T'AY, "tt": T'AT,
    "num": {beta: variance numerator}}`` for every requested beta.
    """
    from sivreg.design import SaturatedDesign
    from sivreg.oracle import assemble, oracle_sigma

    group_of = np.asarray(group_of, dtype=np.int64)
    instrument = np.asarray(instrument, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    betas = sorted({float(b) for b in betas})
    order = np.argsort(group_of, kind="stable")
    ty = tt = 0.0
    num = dict.fromkeys(betas, 0.0)
    for idx in np.split(order, np.cumsum(np.bincount(group_of))[:-1]):
        z = instrument[idx]
        block = SaturatedDesign(
            group_of=np.zeros(idx.size, dtype=np.int64),
            instrument=z,
            group_sizes=[idx.size],
            treated_counts=[int(z.sum())],
        )
        dense = assemble(block, cap=idx.size)
        y, t = Y[idx], T[idx]
        a_t = dense.A @ t
        ty += float(a_t @ y)
        tt += float(a_t @ t)
        for beta in betas:
            r = y - beta * t
            sig = oracle_sigma(dense, t, r)
            a_r = dense.A @ r
            num[beta] += (
                float(sig.sigma_u2 @ (a_r * a_r))
                + float(sig.sigma_v2 @ (a_t * a_t))
                + 2.0 * float(sig.sigma_uv @ (a_r * a_t))
            )
    return {"ty": ty, "tt": tt, "num": num}


def accepts(result: dict, beta: float, alpha: float) -> bool:
    """Two-sided score test at ``beta`` fails to reject (nonpositive variance accepts)."""
    score = result["ty"] - beta * result["tt"]
    var = result["num"][float(beta)]
    if not var > 0.0:
        return True
    return abs(score) / math.sqrt(var) <= NormalDist().inv_cdf(1.0 - alpha / 2.0)


def ci_probes(ci: dict) -> list[tuple[float, bool]]:
    """(beta, must accept) pairs one grid step inside and outside each finite endpoint.

    An endpoint is finite when it lies strictly inside the grid range.  The
    probes hold for grid endpoints and for exact endpoints alike.
    """
    low, high, step = ci["grid"]["low"], ci["grid"]["high"], ci["grid"]["step"]
    probes = []
    for lo, hi in ci["intervals"]:
        inside = min(step, (hi - lo) / 2.0)
        if lo > low + step / 2.0:
            probes += [(lo + inside, True), (lo - step, False)]
        if hi < high - step / 2.0:
            probes += [(hi - inside, True), (hi + step, False)]
    return probes


def check_estimate(result: dict, beta_hat, variance) -> list[str]:
    """Failures of a reported (beta_hat, variance) pair against the oracle.

    ``result`` must hold the variance numerator at the reported beta_hat.
    """
    problems = []
    beta_ref = result["ty"] / result["tt"]
    if not close(beta_hat, beta_ref):
        problems.append(f"beta_hat {beta_hat!r} != oracle {beta_ref!r}")
        return problems
    var_ref = result["num"][float(beta_hat)] / result["tt"] ** 2
    if not close(variance, var_ref):
        problems.append(f"variance {variance!r} != oracle {var_ref!r}")
    return problems


def check_ci(result: dict, ci: dict) -> list[str]:
    """Failures of a reported robust confidence set against the oracle score test."""
    problems = []
    if not ci["intervals"]:
        problems.append("empty confidence set")
    for beta, must_accept in ci_probes(ci):
        if accepts(result, beta, ci["alpha"]) != must_accept:
            verb = "accept" if must_accept else "reject"
            problems.append(f"oracle does not {verb} beta0={beta!r}")
    return problems
