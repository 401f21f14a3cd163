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
below is O(n): one cell sum, then per-cell coefficients gathered by cell id
(``design.cell``).  Dense n-by-n matrices exist only in the reference module.
"""

from __future__ import annotations

import numpy as np

from .design import DesignError, SaturatedDesign

__all__ = [
    "DegenerateGroupError",
    "GroupSizeError",
    "SmallCellError",
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


def _check_vector(design: SaturatedDesign, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != design.n:
        raise DesignError(f"vector has shape {v.shape}, expected ({design.n},)")
    return v


def _cell_sum(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    """Sum of v over each cell, indexed by cell id (length 2G)."""
    return np.bincount(design.cell, weights=v, minlength=2 * design.G)


def _group_sum(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    return _cell_sum(design, v).reshape(-1, 2).sum(axis=1)


def _per_cell(inactive, active) -> np.ndarray:
    """Interleave per-group values into a per-cell array (length 2G)."""
    return np.column_stack((inactive, active)).ravel()


def _cell_counts(design: SaturatedDesign) -> np.ndarray:
    m = design.treated_counts
    return _per_cell(design.group_sizes - m, m)


def _cell_means(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    """Mean of v over each cell; zero for an empty cell."""
    k = _cell_counts(design)
    return np.divide(_cell_sum(design, v), k, out=np.zeros(k.size), where=k > 0)


def cell_sizes(design: SaturatedDesign) -> np.ndarray:
    """Size of each observation's own cell (m_g if active, n_g - m_g if not)."""
    return _cell_counts(design)[design.cell]


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
    n = design.group_sizes.astype(np.float64)
    m = design.treated_counts.astype(np.float64)
    return _per_cell((m / n) / (n - m), 1.0 / m - 1.0 / n)[design.cell]


def sive_diag_D(design: SaturatedDesign) -> np.ndarray:
    """Diagonal of D, the unique diagonal matrix with ``P_ii = [M_WZ D M_WZ]_ii``.

    Requires m_g >= 2 and n_g - m_g >= 2 in every group.
    """
    _require_group_sizes(design)
    n = design.group_sizes.astype(np.float64)
    m = design.treated_counts.astype(np.float64)
    k = n - m
    return _per_cell(m / (k - 1.0) / n, k / (m - 1.0) / n)[design.cell]


def apply_M_W(design: SaturatedDesign, v) -> np.ndarray:
    """Demean within each group (annihilate the group dummies)."""
    v = _check_vector(design, v)
    means = _group_sum(design, v) / design.group_sizes
    return v - means[design.group_of]


def apply_M_WZ(design: SaturatedDesign, v) -> np.ndarray:
    """Demean within each cell (annihilate group dummies and interactions)."""
    v = _check_vector(design, v)
    return v - _cell_means(design, v)[design.cell]


def apply_P(design: SaturatedDesign, v) -> np.ndarray:
    """Apply P.

    Within group g the image is ``c_g (z - m_g/n_g)``, where z is the
    instrument column and ``c_g`` the difference of the active and inactive
    cell means of v.
    """
    v = _check_vector(design, v)
    _require_nondegenerate(design)
    means = _cell_means(design, v)
    c = means[1::2] - means[0::2]
    share = design.treated_counts / design.group_sizes.astype(np.float64)
    return _per_cell(-c * share, c * (1.0 - share))[design.cell]


def apply_A(design: SaturatedDesign, v) -> np.ndarray:
    """Apply ``A = P - M_WZ D M_WZ``; A is symmetric with a zero diagonal."""
    v = _check_vector(design, v)
    d = sive_diag_D(design)
    return apply_P(design, v) - apply_M_WZ(design, d * apply_M_WZ(design, v))


def _apply_A_hadamard(design: SaturatedDesign, w: np.ndarray) -> np.ndarray:
    """Apply the elementwise square of A.

    In group g, ``A_ij`` is ``(n_g - c) / (n_g (c - 1))`` for two distinct
    members of one cell of size c and ``-1 / n_g`` across the two cells.
    """
    n = design.group_sizes.astype(np.float64)
    m = design.treated_counts.astype(np.float64)
    k = n - m
    own = _per_cell((m / (n * (k - 1.0))) ** 2, (k / (n * (m - 1.0))) ** 2)
    s = _cell_sum(design, w)
    c = design.cell
    return own[c] * (s[c] - w) + (1.0 / n**2)[design.group_of] * s[c ^ 1]


def apply_MM_inv(design: SaturatedDesign, v) -> np.ndarray:
    """Apply the inverse of the Hadamard square of M_WZ.

    Per cell of size k >= 3 the inverse block acts as
    ``k/(k-2) * (v - (sum v) / (k (k-1)))``.  Cells of size <= 2 make the
    block singular: entries there must be zero, otherwise a SmallCellError is
    raised (callers route those observations to the small-cell fallback).
    """
    v = _check_vector(design, v)
    k = _cell_counts(design)
    big = k > 2
    touched = ~big[design.cell] & (v != 0.0)
    if touched.any():
        i = int(np.argmax(touched))
        raise SmallCellError(
            f"cell (group {int(design.group_of[i])}, status {int(design.instrument[i])}) "
            f"has size {int(k[design.cell[i]])} <= 2, so the Hadamard-square block is singular"
        )
    scale = np.divide(k, k - 2.0, out=np.zeros(k.size), where=big)
    shift = np.divide(_cell_sum(design, v), k * (k - 1.0), out=np.zeros(k.size), where=big)
    return scale[design.cell] * (v - shift[design.cell])


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
    k = design.group_sizes.astype(np.float64)
    scale = k / (k - 2.0)
    shift = _group_sum(design, v) / (k * (k - 1.0))
    g = design.group_of
    return scale[g] * (v - shift[g])


def trace_A_squared(design: SaturatedDesign) -> float:
    """Closed-form tr(A^2); lies in [G, 3G] whenever A exists."""
    _require_group_sizes(design)
    n_g = design.group_sizes.astype(np.float64)
    m_g = design.treated_counts.astype(np.float64)
    k_g = n_g - m_g
    per_group = 1.0 + (k_g**2 / (m_g - 1.0) + m_g**2 / (k_g - 1.0)) / n_g**2
    return float(per_group.sum())
