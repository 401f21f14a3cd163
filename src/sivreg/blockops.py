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
(``design.cell``).  Every coefficient that depends on the data only through
the per-group counts (n_g, m_g) is computed once per design, in one
read-only record (``_Constants``), the only place that converts the counts
to floats or applies a stack's keep mask.  Dense n-by-n matrices exist only
in the reference module.
Quadratic forms in these operators need no n-vector at all: ``_CellMoments``
reduces them to per-cell sums, which is how the estimators and both variances
use them; the public operators are their per-observation reference.  One
pass over the rows gathers per-atom counts, means and centred sums of squares
(``_Atoms``), per (cell, arm) for a 0/1 treatment, in fixed row blocks, and
per row for any other;
tables at any center share them and ``s20``, and merge each further group of
sums from them on its first read.  The table and its per-cell helpers also
take a stack of R designs (``design._DesignStack``), with a leading axis of
length R on every array, and ``_dot`` reduces both shapes alike.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .design import DesignError, SaturatedDesign, _DesignStack, _require_finite

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


def _memo(fn):
    """``fn(obj)`` of a design, a moment table, atoms or a fit (none changes),
    kept on ``obj`` read-only from the first call; a raised check is not kept."""
    key = "_memo" + fn.__name__

    @wraps(fn)
    def once(obj):
        memo = vars(obj)
        if key not in memo:
            value = memo[key] = fn(obj)
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        return memo[key]

    return once


def _check_vector(design: SaturatedDesign, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != design.n:
        raise DesignError(f"vector has shape {v.shape}, expected ({design.n},)")
    _require_finite(v, "vector")
    return v


def _dot(x: np.ndarray, y: np.ndarray):
    """Inner product over the last axis, for each index of the leading ones.

    On vectors it is bit-equal to ``x @ y``, and on stacks to ``@`` row by
    row, so one design is the stack with no leading axis.  That holds for
    stacks in C order, as every table array is; an F-ordered operand (say,
    from a broadcast view) can sum in another order.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _cell_sum(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    """Sum of v over each cell, indexed by cell id (length 2G; (R, 2G) for a
    stack, whose flat cell ids cover all R designs in one pass).

    ``np.add.at`` rather than ``np.bincount``: bincount copies a read-only
    input (the design's cell ids, a Sample's vectors), an n-sized allocation
    per call.  Both add in observation order, so the sums are identical.
    """
    out = np.zeros(v.shape[:-1] + (2 * design.G,))
    np.add.at(out.reshape(-1), design.cell.reshape(-1), v.reshape(-1))
    return out


def _group_sum(design: SaturatedDesign, v: np.ndarray) -> np.ndarray:
    return _cell_sum(design, v).reshape(-1, 2).sum(axis=1)


def _per_cell(inactive, active) -> np.ndarray:
    """Interleave per-group values into a per-cell array (length 2G)."""
    shape = inactive.shape[:-1] + (2 * inactive.shape[-1],)
    out = np.empty(shape, dtype=np.result_type(inactive, active))
    out[..., 0::2], out[..., 1::2] = inactive, active
    return out


class _Constants:
    """What the operators read of a design's per-group counts n_g and m_g,
    computed once per design or stack (``_constants``), every array read-only.

    Per cell (length 2G, inactive then active): ``k`` the count as a float,
    ``p_factor`` P's factor of the group's gap of cell means, ``p_diag`` and
    ``d`` the diagonals of P and D, and ``hartley`` the ``_hartley_weights``
    of k.  Per group (length G): ``n`` the size as a float, ``share``
    ``m_g/n_g``, ``size_share`` ``n_g/n``, ``p_weight`` the P forms' weight,
    ``between`` JIVE2's between-weight, ``group_hartley`` the
    ``_hartley_weights`` of n_g and ``inv_n2`` ``1/n_g^2``.  ``smallest`` is
    the smallest cell that ``_require_cells`` checks, 2 on a stack.

    A ratio that would divide by a count of a group that a stack drops, or
    that a check refuses on one design, is zero there, without dividing; on
    one design it is never read, since the check raises first.
    """

    def __init__(self, design: SaturatedDesign):
        n = self.n = design.group_sizes.astype(np.float64)
        m = design.treated_counts.astype(np.float64)
        k = n - m
        low = np.minimum(m, k)
        stack = isinstance(design, _DesignStack)

        def kept(num, den, minimum: int) -> np.ndarray:
            ok = design.keep if stack else low >= minimum
            return np.divide(num, den, out=np.zeros(ok.shape), where=ok)

        share = self.share = m / n
        self.k = _per_cell(k, m)
        self.size_share = kept(n, design.n, 0)
        self.p_factor = _per_cell(-share, 1.0 - share)
        self.p_weight = m * k / n
        self.p_diag = _per_cell(kept(share, k, 1), kept(1.0, m, 1) - kept(1.0, n, 1))
        self.d = _per_cell(kept(m, k - 1.0, 2) / n, kept(k, m - 1.0, 2) / n)
        self.between = (m**3 + k**3) / n**3
        self.hartley = _hartley_weights(self.k)
        self.group_hartley = _hartley_weights(n)
        self.inv_n2 = 1.0 / n**2
        self.smallest = 2 if stack else int(low.min())
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)


# The constants of a design or a stack, computed once and kept on it.
_constants = _memo(_Constants)


def _cell_means(design: SaturatedDesign, v: np.ndarray, k=None) -> np.ndarray:
    """Mean of v over each cell of counts k (the design's by default); zero
    for an empty cell."""
    k = _constants(design).k if k is None else k
    return np.divide(_cell_sum(design, v), k, out=np.zeros(k.shape), where=k > 0)


def cell_sizes(design: SaturatedDesign) -> np.ndarray:
    """Size of each observation's own cell (m_g if active, n_g - m_g if not)."""
    return _constants(design).k[design.cell].astype(np.int64)


def _require_cells(design: SaturatedDesign, minimum: int) -> _Constants:
    """The design's constants, once every group has ``minimum`` or more
    observations per cell: 1 for P, else ``DegenerateGroupError``, and 2 for
    D and A, else ``GroupSizeError``, naming the first group short of it.
    A stack's kept groups have two or more per cell, so it is not checked."""
    c = _constants(design)
    if c.smallest < minimum:
        m = design.treated_counts
        k = design.group_sizes - m
        g = int(np.argmax((m < minimum) | (k < minimum)))
        raise (DegenerateGroupError if minimum == 1 else GroupSizeError)(
            f"group {g} has m_g={int(m[g])} and n_g - m_g={int(k[g])}; "
            f"need m_g >= {minimum} and n_g - m_g >= {minimum}"
        )
    return c


def projection_diag_P(design: SaturatedDesign) -> np.ndarray:
    """Diagonal of P in closed form.

    ``P_ii = 1/m_g - 1/n_g`` for instrument-active observations and
    ``(m_g/n_g) / (n_g - m_g)`` otherwise; the diagonal sums to G.
    """
    return _require_cells(design, 1).p_diag[design.cell]


def sive_diag_D(design: SaturatedDesign) -> np.ndarray:
    """Diagonal of D, the unique diagonal matrix with ``P_ii = [M_WZ D M_WZ]_ii``.

    Requires m_g >= 2 and n_g - m_g >= 2 in every group.
    """
    return _require_cells(design, 2).d[design.cell]


def apply_M_W(design: SaturatedDesign, v) -> np.ndarray:
    """Demean within each group (annihilate the group dummies)."""
    v = _check_vector(design, v)
    means = _group_sum(design, v) / _constants(design).n
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
    factor = _require_cells(design, 1).p_factor
    means = _cell_means(design, v)
    return (factor * np.repeat(means[1::2] - means[0::2], 2))[design.cell]


def apply_A(design: SaturatedDesign, v) -> np.ndarray:
    """Apply ``A = P - M_WZ D M_WZ``; A is symmetric with a zero diagonal."""
    v = _check_vector(design, v)
    d = sive_diag_D(design)
    return apply_P(design, v) - apply_M_WZ(design, d * apply_M_WZ(design, v))


def _hartley_weights(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block of size k, ``(w1, w2)`` with the inverse Hadamard square of
    the block's demeaner acting as ``w1 x_i - w2 sum x``: ``k/(k-2)`` and
    ``1/((k-1)(k-2))`` for k >= 3.  A block of size 2 gets ``(4, 0)``, the
    variance estimators' rescaled fallback ``4 x_i``.
    """
    big = k >= 3
    w1 = np.divide(k, k - 2.0, out=np.full(k.shape, 4.0), where=big)
    w2 = np.divide(1.0, (k - 1.0) * (k - 2.0), out=np.zeros(k.shape), where=big)
    return w1, w2


def apply_MM_inv(design: SaturatedDesign, v) -> np.ndarray:
    """Apply the inverse of the Hadamard square of M_WZ.

    Per cell of size k >= 3 the inverse block acts as
    ``k/(k-2) * (v - (sum v) / (k (k-1)))``.  Cells of size <= 2 make the
    block singular: entries there must be zero, otherwise a SmallCellError is
    raised (callers route those observations to the small-cell fallback).
    """
    v = _check_vector(design, v)
    c = _constants(design)
    big = c.k > 2
    touched = ~big[design.cell] & (v != 0.0)
    if touched.any():
        i = int(np.argmax(touched))
        raise SmallCellError(
            f"cell (group {int(design.group_of[i])}, status {int(design.instrument[i])}) "
            f"has size {int(c.k[design.cell[i]])} <= 2, so the Hadamard-square block is singular"
        )
    w1, w2 = c.hartley
    return w1[design.cell] * v - (w2 * _cell_sum(design, v))[design.cell]


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
    w1, w2 = _constants(design).group_hartley
    g = design.group_of
    return w1[g] * v - (w2 * _group_sum(design, v))[g]


def trace_A_squared(design: SaturatedDesign) -> float:
    """Closed-form tr(A^2); lies in [G, 3G] whenever A exists."""
    c = _require_cells(design, 2)
    n_g, k_g, m_g = c.n, c.k[0::2], c.k[1::2]
    per_group = 1.0 + (k_g**2 / (m_g - 1.0) + m_g**2 / (k_g - 1.0)) / n_g**2
    return float(per_group.sum())


def _binary_arms(T: np.ndarray) -> np.ndarray | None:
    """``T == 1`` if every entry of T is 0, -0.0 or 1, else None."""
    treated = T == 1.0
    return treated if np.count_nonzero(treated) + np.count_nonzero(T == 0.0) == T.size else None


_ROWS = 8192  # rows per block of the (cell, arm) atom pass


class _Atoms:
    """Per-atom statistics of T and Y, read from the rows once.

    An atom is a set of rows of a cell on which ``u = T - mean_T`` is
    constant.  Per atom: the count ``k_a``, u, the mean of ``e0 = Y -
    mean_Y`` and the centred sum of squares ``ss`` of e0.  At a center c,
    ``sum e = k_a delta`` and ``sum e^2 = ss + k_a delta^2`` with ``delta =
    mean(e0) - c u`` (the pairwise merge of Chan, Golub and LeVeque).  Y is
    centred on its cell mean first: sums of Y itself would lose the digits
    an offset in Y takes.  ``to_cells`` adds per-atom values up per cell;
    ``tt`` is ``T'T``.

    A T that is exactly 0/1 has one atom per (cell, arm), u being ``-p`` in
    arm 0 and ``1 - p`` in arm 1 for the cell's share p of ones: a count of
    the atom ids ``cell + T * (number of cells)``, the cell sums of Y and
    two sums over atoms give them.  Arrays are (2, ...), arm first, so that
    ``to_cells`` adds two contiguous blocks, and ``tt`` is the count of ones,
    exact below 2**53.  The rows are read in blocks of ``_ROWS``, each
    block's atom ids formed once: each sum adds a block's values into one
    zeroed per-atom array (``np.add.at``), in row order as one
    ``np.bincount`` over all rows does, bit for bit.  The ids are the only
    n-sized array; the other temporaries are a block's, which the allocator
    reuses rather than handing back to the system and faulting in anew.
    Any other T has one atom per row, of count 1 and ss 0, kept as ``u``
    and ``mean_e0``; ``counts`` and ``ss`` are then None, so that the merge
    neither multiplies by 1 nor adds 0, and ``to_cells`` is the cell sum.
    (Cell, arm) atoms of stacks on one grouping join along the draw axis
    (``join``).

    A caller that knows T to be 0/1 may pass ``treated`` (``T == 1``) for
    T.  The atoms of the cells ``dropped`` marks (per draw and cell) are
    zeroed after the sums, each of which reads only its own atom's rows.
    """

    def __init__(self, design: SaturatedDesign, T: np.ndarray | None, Y: np.ndarray,
                 treated: np.ndarray | None = None, dropped: np.ndarray | None = None):
        treated = _binary_arms(T) if treated is None else treated
        if treated is None:
            self.to_cells = lambda x: _cell_sum(design, x)
            self.counts = self.ss = None
            self.mean_T, self.mean_Y = _cell_means(design, T), _cell_means(design, Y)
            self.tt = _dot(T, T)
            self.u = self.mean_T.reshape(-1)[design.cell]
            np.subtract(T, self.u, out=self.u)
            self.mean_e0 = self.mean_Y.reshape(-1)[design.cell]
            np.subtract(Y, self.mean_e0, out=self.mean_e0)
            return
        shape = (2,) + design.cell.shape[:-1] + (2 * design.G,)
        size = int(np.prod(shape))
        cell, treated, y = design.cell.reshape(-1), treated.reshape(-1), Y.reshape(-1)
        rows = [slice(i, i + _ROWS) for i in range(0, cell.size, _ROWS)]
        atoms = [cell[r] + size // 2 * treated[r] for r in rows]
        del treated  # freed before the build, where a table's memory peaks

        def atom_sum(values):
            out = np.zeros(size)
            for r, atom in zip(rows, atoms):
                np.add.at(out, atom, values(r, atom))
            return out.reshape(shape)

        def e0(r, atom):
            e = mean_Y[cell[r]]
            return np.subtract(y[r], e, out=e)

        self.to_cells = _add_arms
        self.counts = atom_sum(lambda r, atom: 1.0)
        if dropped is not None:
            self.counts[:, dropped] = 0.0
        # The cell counts, read off the atoms: a chunk of draws is reduced
        # without its stack's constants.
        k = _add_arms(self.counts)
        self.mean_Y = _cell_means(design, Y, k)
        self.mean_T = np.divide(self.counts[1], k, out=np.zeros(k.shape), where=k > 0)
        self.tt = self.counts[1].sum(axis=-1)
        mean_Y = self.mean_Y.reshape(-1)
        self.mean_e0 = np.divide(
            atom_sum(e0), self.counts, out=np.zeros(shape), where=self.counts > 0
        )
        mean_e0 = self.mean_e0.reshape(-1)
        self.ss = atom_sum(lambda r, atom: np.square(e0(r, atom) - mean_e0[atom]))
        if dropped is not None:
            self.ss[:, dropped] = 0.0

    def deviations(self, center=0.0) -> tuple:
        """Per atom ``(u, k_a delta, delta)`` at ``center``, formed anew for
        each group of sums (a (cell, arm) atom's u too: O(G)), not kept."""
        u = self.u if self.counts is None else np.stack((-self.mean_T, 1.0 - self.mean_T))
        delta = self.mean_e0
        if np.any(center):
            delta = center * u
            np.subtract(self.mean_e0, delta, out=delta)
        return u, delta if self.counts is None else self.counts * delta, delta

    @_memo
    def s20(self) -> np.ndarray:
        """Per cell ``sum u^2``, free of the center: the tables on these atoms share it."""
        u = self.deviations()[0]
        return self.to_cells(u * u if self.counts is None else self.counts * u * u)

    @classmethod
    def join(cls, parts) -> _Atoms:
        """The (cell, arm) atoms of stacks on one grouping, one stack after
        the other along the draw axis; every value is the part's own."""
        joined = cls.__new__(cls)
        joined.to_cells = _add_arms
        for axis, names in ((1, ("counts", "mean_e0", "ss")), (0, ("mean_T", "mean_Y", "tt"))):
            for name in names:
                setattr(joined, name, np.concatenate([getattr(a, name) for a in parts], axis))
        return joined


def _add_arms(x: np.ndarray) -> np.ndarray:
    """Per cell, the sum over its two (cell, arm) atoms (as ``x.sum(axis=0)``
    adds them, and faster)."""
    return x[0] + x[1]


class _CellMoments:
    """Per-cell sufficient statistics of a treatment T and ``R = Y - center T``.

    Every quadratic form of the estimators and the variances is block diagonal
    over cells, so it reduces to a few numbers per cell (arrays of length 2G,
    indexed by cell id): the counts ``k``, the means ``mean_T`` and
    ``mean_Y``, and the power sums ``s<j><l> = sum u^j e^l`` of the
    within-cell deviations ``u = T - mean_T`` and ``e = (Y - mean_Y) -
    center u`` of R, in which offsets in Y and T cancel before any product.
    ``tt`` is ``T'T``, the scale the denominators are judged on.

    The sums are merged from ``atoms``, ``_Atoms(design, T, Y)``: per (cell,
    arm) for a 0/1 T (the paper's binary treatment), O(G), and per row for
    any other T.  A table sums ``s11`` and reads ``s20``, which the tables
    on the same atoms share: all the ratio estimators need.  The groups
    ``variance_sums`` (both variances) and ``robust_sums`` (only the robust
    test's variance polynomial in beta0) are each summed in one pass by
    their first reader, and kept, as is each form (``group_gaps``,
    ``p_values``, ``p_form``, ``a_form``), read-only.

    On a stack of R designs, T and Y are (R, n), ``center`` is a scalar or
    one per design, shape (R, 1), every array gains the leading axis, and
    each form returns one value per design.  Within a cell, ``(P T)_i`` is a
    constant ``pt`` and ``(A T)_i`` is ``pt - d u_i`` with d the cell's
    entry of D; likewise ``(A R)_i`` is ``pr - d e_i``.
    """

    def __init__(self, design: SaturatedDesign, atoms: _Atoms, center=0.0):
        self.design, self.atoms, self.center = design, atoms, center
        self.centered = bool(np.any(center))
        self.k = _constants(design).k
        self.mean_T, self.mean_Y, self.tt = atoms.mean_T, atoms.mean_Y, atoms.tt
        self.s20 = atoms.s20()
        u, e1, _ = atoms.deviations(center)
        self.s11 = atoms.to_cells(u * e1)

    @_memo
    def variance_sums(self) -> tuple:
        """``(s02, s21, s12, s22)``, summed with at most five per-row arrays
        alive at once: u, e0, uu, delta or e2, and one product."""
        to_cells, ss = self.atoms.to_cells, self.atoms.ss
        u, e1, delta = self.atoms.deviations(self.center)
        uu = u * u
        s21 = to_cells(uu * e1)
        e2 = e1 * delta if ss is None else ss + e1 * delta
        del e1, delta
        return to_cells(e2), s21, to_cells(u * e2), to_cells(uu * e2)

    @_memo
    def robust_sums(self) -> tuple:
        """``(s30, s40, s31)``, the robust test's extra sums."""
        to_cells, k = self.atoms.to_cells, self.atoms.counts
        u, e1, _ = self.atoms.deviations(self.center)
        uu = u * u
        kuu = (u if k is None else k * u) * uu
        s30, s40 = to_cells(kuu), to_cells(kuu * u)
        del kuu
        return s30, s40, to_cells(uu * u * e1)

    @_memo
    def group_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Per group, active minus inactive cell mean of T and of R."""
        gap_T = self.mean_T[..., 1::2] - self.mean_T[..., 0::2]
        gap_Y = self.mean_Y[..., 1::2] - self.mean_Y[..., 0::2]
        return gap_T, gap_Y - self.center * gap_T if self.centered else gap_Y

    @_memo
    def p_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell, the constant values of PT and PR: the group's gap of cell
        means times ``-m_g/n_g`` (inactive cell) or ``1 - m_g/n_g`` (active)."""
        factor = _require_cells(self.design, 1).p_factor
        gap_T, gap_R = self.group_gaps()
        return factor * np.repeat(gap_T, 2, axis=-1), factor * np.repeat(gap_R, 2, axis=-1)

    @_memo
    def p_form(self) -> tuple:
        """``(T'PR, T'PT)``: per group ``m_g (n_g - m_g) / n_g`` times the gaps."""
        weight = _require_cells(self.design, 1).p_weight
        gap_T, gap_R = self.group_gaps()
        return _dot(weight, gap_T * gap_R), _dot(weight, gap_T * gap_T)

    @property
    def d(self) -> np.ndarray:
        """Per cell, the diagonal of D."""
        return _require_cells(self.design, 2).d

    @_memo
    def a_form(self) -> tuple:
        """``(T'AR, T'AT)``: the P forms less ``sum_c d_c s11`` and ``sum_c d_c s20``."""
        t_p_r, t_p_t = self.p_form()
        return t_p_r - _dot(self.d, self.s11), t_p_t - _dot(self.d, self.s20)
