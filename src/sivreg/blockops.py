"""Matrix-free application of the saturated-design operators.

Naming convention used throughout the package:

* ``M_W``   annihilator of the group dummies (within-group demeaning),
* ``M_WZ``  annihilator of the group dummies and instrument interactions
  (within-cell demeaning, where a cell is a group split by instrument
  status),
* ``P``     projection onto the instrument interactions after partialling
  out the group dummies,
* ``D``     the diagonal matrix with ``P_ii = [M_WZ D M_WZ]_ii``,
* ``A``     the jackknife operator ``P - M_WZ D M_WZ`` (symmetric, zero
  diagonal).

All of these are block diagonal over groups or cells, so every application
below is O(n) using bincount reductions.  Dense n-by-n matrices exist only in
the reference module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignError, SaturatedDesign

__all__ = [
    "CellIndex",
    "DegenerateGroupError",
    "GroupSizeError",
    "SmallCellError",
    "iter_cells",
    "cell_sizes",
    "projection_diag_P",
    "sive_diag_D",
    "apply_M_W",
    "apply_M_WZ",
    "apply_P",
    "apply_A",
    "apply_MM_inv",
    "apply_MM_inv_W",
    "trace_A_squared",
]


class DegenerateGroupError(DesignError):
    """A group has all observations on one side of the instrument."""


class GroupSizeError(DesignError):
    """A group is too small for the jackknife operators (needs m_g >= 2 and n_g - m_g >= 2)."""


class SmallCellError(DesignError):
    """A Hadamard-square block is singular because a cell (or group) has size <= 2."""


@dataclass(frozen=True)
class CellIndex:
    """One cell of the (group, instrument status) partition."""

    group: int
    status: int
    size: int


def iter_cells(design: SaturatedDesign) -> list[CellIndex]:
    """Nonempty cells ordered by (group, status=1 first)."""
    cells = []
    for g in range(design.G):
        m = int(design.treated_counts[g])
        k = int(design.group_sizes[g]) - m
        if m > 0:
            cells.append(CellIndex(g, 1, m))
        if k > 0:
            cells.append(CellIndex(g, 0, k))
    return cells


def _check_vector(design: SaturatedDesign, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != design.n:
        raise ValueError(f"vector has shape {v.shape}, expected ({design.n},)")
    return v


def _per_obs_counts(design: SaturatedDesign):
    g = design.group_of
    z = design.instrument.astype(bool)
    n_g = design.group_sizes[g].astype(np.float64)
    m_g = design.treated_counts[g].astype(np.float64)
    return g, z, n_g, m_g


def cell_sizes(design: SaturatedDesign) -> np.ndarray:
    """Size of each observation's own cell (m_g if active, n_g - m_g if not)."""
    _, z, n_g, m_g = _per_obs_counts(design)
    return np.where(z, m_g, n_g - m_g)


def _require_nondegenerate(design: SaturatedDesign) -> None:
    m = design.treated_counts
    bad = (m == 0) | (m == design.group_sizes)
    if bad.any():
        g = int(np.argmax(bad))
        raise DegenerateGroupError(
            f"group {g} has m_g={int(m[g])} of n_g={int(design.group_sizes[g])}; "
            "need 0 < m_g < n_g"
        )


def _require_group_sizes(design: SaturatedDesign) -> None:
    m = design.treated_counts
    k = design.group_sizes - m
    bad = (m < 2) | (k < 2)
    if bad.any():
        g = int(np.argmax(bad))
        raise GroupSizeError(
            f"group {g} has m_g={int(m[g])} and n_g - m_g={int(k[g])}; "
            "need m_g >= 2 and n_g - m_g >= 2"
        )


def projection_diag_P(design: SaturatedDesign) -> np.ndarray:
    """Diagonal of P in closed form.

    ``P_ii = 1/m_g - 1/n_g`` for instrument-active observations and
    ``(m_g/n_g) / (n_g - m_g)`` otherwise; the diagonal sums to G.
    """
    _require_nondegenerate(design)
    _, z, n_g, m_g = _per_obs_counts(design)
    return np.where(z, 1.0 / m_g - 1.0 / n_g, (m_g / n_g) / (n_g - m_g))


def sive_diag_D(design: SaturatedDesign) -> np.ndarray:
    """Diagonal of D, the unique diagonal matrix with ``P_ii = [M_WZ D M_WZ]_ii``.

    Requires m_g >= 2 and n_g - m_g >= 2 in every group.
    """
    _require_group_sizes(design)
    _, z, n_g, m_g = _per_obs_counts(design)
    active = (n_g - m_g) / (m_g - 1.0)
    inactive = m_g / (n_g - m_g - 1.0)
    return np.where(z, active, inactive) / n_g


def apply_M_W(design: SaturatedDesign, v) -> np.ndarray:
    """Demean within each group (annihilate the group dummies)."""
    v = _check_vector(design, v)
    g = design.group_of
    means = np.bincount(g, weights=v, minlength=design.G) / design.group_sizes
    return v - means[g]


def apply_M_WZ(design: SaturatedDesign, v) -> np.ndarray:
    """Demean within each cell (annihilate group dummies and interactions)."""
    v = _check_vector(design, v)
    g, z, n_g, m_g = _per_obs_counts(design)
    G = design.G
    sum_act = np.bincount(g[z], weights=v[z], minlength=G)
    sum_ina = np.bincount(g[~z], weights=v[~z], minlength=G)
    m = design.treated_counts
    k = design.group_sizes - m
    mean_act = np.divide(sum_act, m, out=np.zeros(G), where=m > 0)
    mean_ina = np.divide(sum_ina, k, out=np.zeros(G), where=k > 0)
    return v - np.where(z, mean_act[g], mean_ina[g])


def apply_P(design: SaturatedDesign, v) -> np.ndarray:
    """Apply P.

    Within group g the image is ``c_g (z - (m_g/n_g))`` where z is the
    instrument column and ``c_g`` the demeaned-instrument inner product with v
    scaled by ``m_g (1 - m_g/n_g)``.
    """
    v = _check_vector(design, v)
    _require_nondegenerate(design)
    g, z, n_g, m_g = _per_obs_counts(design)
    G = design.G
    share = design.treated_counts / design.group_sizes.astype(np.float64)
    zsum = np.bincount(g[z], weights=v[z], minlength=G)
    gsum = np.bincount(g, weights=v, minlength=G)
    c = (zsum - share * gsum) / (design.treated_counts * (1.0 - share))
    return c[g] * (z.astype(np.float64) - share[g])


def apply_A(design: SaturatedDesign, v) -> np.ndarray:
    """Apply ``A = P - M_WZ D M_WZ``; A is symmetric with a zero diagonal."""
    v = _check_vector(design, v)
    d = sive_diag_D(design)
    return apply_P(design, v) - apply_M_WZ(design, d * apply_M_WZ(design, v))


def apply_MM_inv(design: SaturatedDesign, v) -> np.ndarray:
    """Apply the inverse of the Hadamard square of M_WZ.

    Per cell of size k >= 3 the inverse block acts as
    ``k/(k-2) * (v - (sum v) / (k (k-1)))``.  Cells of size <= 2 make the
    block singular: entries there must be zero, otherwise a SmallCellError is
    raised (callers route those observations to the small-cell fallback).
    """
    v = _check_vector(design, v)
    g, z, n_g, m_g = _per_obs_counts(design)
    k = np.where(z, m_g, n_g - m_g)
    small = k <= 2
    if np.any(small & (v != 0.0)):
        i = int(np.argmax(small & (v != 0.0)))
        raise SmallCellError(
            f"cell (group {int(g[i])}, status {int(design.instrument[i])}) has size "
            f"{int(k[i])} <= 2, so the Hadamard-square block is singular"
        )
    G = design.G
    sum_act = np.bincount(g[z], weights=v[z], minlength=G)
    sum_ina = np.bincount(g[~z], weights=v[~z], minlength=G)
    csum = np.where(z, sum_act[g], sum_ina[g])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k / (k - 2.0) * (v - csum / (k * (k - 1.0)))
    return np.where(small, 0.0, out)


def apply_MM_inv_W(design: SaturatedDesign, v) -> np.ndarray:
    """Apply the inverse of the Hadamard square of M_W (group-level blocks).

    Same closed form as :func:`apply_MM_inv` with k = n_g; requires every
    group to have at least 3 observations.
    """
    v = _check_vector(design, v)
    small = design.group_sizes <= 2
    if small.any():
        g = int(np.argmax(small))
        raise SmallCellError(
            f"group {g} has size {int(design.group_sizes[g])} <= 2, so the "
            "Hadamard-square of M_W is singular"
        )
    g = design.group_of
    k = design.group_sizes[g].astype(np.float64)
    gsum = np.bincount(g, weights=v, minlength=design.G)[g]
    return k / (k - 2.0) * (v - gsum / (k * (k - 1.0)))


def trace_A_squared(design: SaturatedDesign) -> float:
    """Closed-form tr(A^2); lies in [G, 3G] whenever A exists."""
    _require_group_sizes(design)
    n_g = design.group_sizes.astype(np.float64)
    m_g = design.treated_counts.astype(np.float64)
    k_g = n_g - m_g
    per_group = 1.0 + (k_g**2 / (m_g - 1.0) + m_g**2 / (k_g - 1.0)) / n_g**2
    return float(per_group.sum())
