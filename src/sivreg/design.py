"""Saturated design construction, validation and filtering.

A saturated design assigns each observation to a covariate group (one dummy per
unique covariate value) and records a binary instrument whose interaction with
the group dummies forms the instrument set.  Downstream operators only need
the per-observation group index, the instrument flags and the per-group counts
(n_g group size, m_g active-instrument count).
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import NamedTuple

import numpy as np

__all__ = [
    "DesignError",
    "EmptyDesignError",
    "SaturatedDesign",
    "Sample",
    "GroupAudit",
    "build_design",
    "validate_group_sizes",
    "filter_design",
    "design_summary",
]


class DesignError(ValueError):
    """A design or sample fails a structural requirement."""


class EmptyDesignError(DesignError):
    """Filtering removed every group."""


def _require_number(name: str, value) -> None:
    """Raise unless ``value`` is a finite real number (and not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _int_array(values, name: str) -> np.ndarray:
    """``values`` as int64; an entry that is not a whole number raises.

    A plain ``astype`` would truncate 0.5 to 0 without a word.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            as_int = arr.astype(np.int64)
    except (TypeError, ValueError):
        raise DesignError(f"{name} entries must be integers") from None
    bad = as_int != arr
    if bad.any():
        i = int(np.argmax(bad))
        raise DesignError(
            f"{name} entries must be integers "
            f"(found {arr.ravel()[[i]].tolist()[0]!r} at index {i})"
        )
    return as_int


@dataclass(frozen=True)
class SaturatedDesign:
    """Immutable saturated design.

    Only ``group_of`` and ``instrument`` are needed: the per-group counts are
    derived from one count of rows per cell, and counts passed must equal them.

    Attributes
    ----------
    group_of : ndarray of int, shape (n,)
        Group index of each observation; the indices used are exactly
        ``0, ..., G-1``.
    instrument : ndarray of int, shape (n,)
        Binary instrument flag per observation.
    group_sizes : ndarray of int, shape (G,)
        Number of observations n_g in each group.
    treated_counts : ndarray of int, shape (G,)
        Number of instrument-active observations m_g in each group.
    group_keys : tuple or None
        Optional canonical covariate value per group, in group order.
    cell : ndarray of int, shape (n,)
        Cell id ``2 * group_of + instrument``: group g owns cells 2g
        (instrument inactive) and 2g + 1 (active).
    """

    group_of: np.ndarray
    instrument: np.ndarray
    group_sizes: np.ndarray | None = None
    treated_counts: np.ndarray | None = None
    group_keys: tuple | None = None

    def __post_init__(self) -> None:
        group_of = _int_array(self.group_of, "group_of")
        instrument = _int_array(self.instrument, "instrument")
        if group_of.ndim != 1 or instrument.ndim != 1:
            raise DesignError("group_of and instrument must be 1-dimensional")
        if group_of.shape != instrument.shape:
            raise DesignError(
                f"length mismatch: group_of has {group_of.size} entries, "
                f"instrument has {instrument.size}"
            )
        if group_of.size == 0:
            raise EmptyDesignError("design has no observations")
        bad = (instrument < 0) | (instrument > 1)
        if bad.any():
            i = int(np.argmax(bad))
            raise DesignError(
                f"instrument entries must be 0 or 1 (found {instrument[i].item()} at row {i})"
            )
        if group_of.min() < 0:
            raise DesignError("group indices must be non-negative")
        G = int(group_of.max()) + 1
        cells = np.bincount(2 * group_of + instrument, minlength=2 * G).reshape(G, 2)
        counts = {"group_sizes": cells.sum(axis=1), "treated_counts": cells[:, 1]}
        if not counts["group_sizes"].all():
            g = int(np.argmin(counts["group_sizes"]))
            raise DesignError(
                f"group indices must cover [0, {G}) but group {g} has no observations"
            )
        for name, derived in counts.items():
            given = getattr(self, name)
            if given is not None and not np.array_equal(_int_array(given, name), derived):
                raise DesignError(f"{name} disagree with group_of and instrument")
            object.__setattr__(self, name, _readonly(derived))
        if self.group_keys is not None and len(self.group_keys) != G:
            raise DesignError(f"group_keys must have one entry per group ({G})")
        object.__setattr__(self, "group_of", _readonly(group_of))
        object.__setattr__(self, "instrument", _readonly(instrument))

    @property
    def n(self) -> int:
        return self.group_of.size

    @property
    def G(self) -> int:
        return self.group_sizes.size

    @cached_property
    def cell(self) -> np.ndarray:
        return _readonly(2 * self.group_of + self.instrument)

    def to_json_dict(self) -> dict:
        """Serialize the design for audit trails."""
        return {
            "n": self.n,
            "G": self.G,
            "group_of": self.group_of.tolist(),
            "instrument": self.instrument.tolist(),
        }


class _DesignStack:
    """R designs on one grouping, one instrument draw each, stacked along a
    leading axis: the Monte Carlo's batches for ``blockops._CellMoments``.

    A stack is built from its per-(group, arm) counts, shape (R, G, 2), and
    every statistic on it from per-cell sums (``blockops._Atoms``), so
    stacks on one grouping join along the draw axis by joining their counts.
    The size filter is a mask here, not a row deletion, so every design keeps
    the grouping's shape.  ``keep[r, g]`` marks the groups that design r keeps
    (both cells of size >= 2, as ``validate_group_sizes`` by default), and a
    dropped group carries zero weight in every statistic: its atoms (or the
    vectors summed over its rows) must be zero, and a per-cell weight that
    would divide by one of its counts is zero.  Per-group arrays are (R, G), per-cell
    ones (R, 2G), and ``n`` is the kept observation count of each design,
    shape (R, 1).
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.G = counts.shape[1]
        self.treated_counts = counts[..., 1]
        self.group_sizes = counts.sum(axis=-1)
        self.keep = (counts >= 2).all(axis=-1)
        self.n = np.where(self.keep, self.group_sizes, 0).sum(axis=1, keepdims=True)

    @classmethod
    def of_rows(cls, group_of: np.ndarray, instrument: np.ndarray) -> _DesignStack:
        """The stack of the instrument draws (R, n) on ``group_of``, with its
        rows: ``cell[r, i]`` is observation i's cell as a flat id ``r * 2G +
        2 group_of[i] + instrument[r, i]``."""
        R = instrument.shape[0]
        G = int(group_of.max()) + 1
        cell = 2 * group_of + 2 * G * np.arange(R)[:, None]
        cell += instrument
        stack = cls(np.bincount(cell.ravel(), minlength=R * 2 * G).reshape(R, G, 2))
        stack.cell = cell
        return stack


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise DesignError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class Sample:
    """Outcome and treatment vectors aligned to a design.

    The treatment is binary in the intended applications but any real values
    are accepted.
    """

    outcome: np.ndarray
    treatment: np.ndarray

    def __post_init__(self) -> None:
        outcome = np.asarray(self.outcome, dtype=np.float64)
        treatment = np.asarray(self.treatment, dtype=np.float64)
        if outcome.ndim != 1 or treatment.ndim != 1:
            raise DesignError("outcome and treatment must be 1-dimensional")
        if outcome.shape != treatment.shape:
            raise DesignError(
                f"length mismatch: outcome has {outcome.size} entries, "
                f"treatment has {treatment.size}"
            )
        _require_finite(outcome, "outcome")
        _require_finite(treatment, "treatment")
        object.__setattr__(self, "outcome", _readonly(outcome))
        object.__setattr__(self, "treatment", _readonly(treatment))

    @property
    def n(self) -> int:
        return self.outcome.size


@dataclass(frozen=True)
class GroupAudit:
    """Result of a group-size validation.

    ``violations`` holds ``(group index, n_g, m_g, reason)`` tuples and
    ``kept_groups`` the indices of all other groups; every group appears in
    exactly one of the two.
    """

    violations: tuple
    kept_groups: tuple


def build_design(covariate_rows, instrument) -> SaturatedDesign:
    """Group observations by their exact covariate value.

    Parameters
    ----------
    covariate_rows : sequence or ndarray
        One covariate tuple per observation, all of one length, or one
        scalar per observation (a 1-tuple), or an array with one row (2-D)
        or one value (1-D) per observation.  Rows are compared by exact
        equality of the full tuple, so continuous covariates must already be
        discretized; ``-0.0`` equals ``0.0`` and ``1`` equals ``1.0``.
    instrument : array_like
        Binary flags, one per observation.

    Returns
    -------
    SaturatedDesign
        Groups indexed in order of first appearance, each keyed by the
        covariate value of its first row.

    Raises
    ------
    DesignError
        On length mismatch, rows of unequal length, a NaN covariate value or
        a non-binary instrument entry.
    """
    instrument = _int_array(instrument, "instrument")
    if instrument.ndim != 1:
        raise DesignError("instrument must be 1-dimensional")
    n = len(covariate_rows)
    if instrument.size != n:
        raise DesignError(
            f"length mismatch: {n} covariate rows but {instrument.size} instrument entries"
        )
    if isinstance(covariate_rows, np.ndarray):
        if covariate_rows.ndim not in (1, 2):
            raise DesignError("a covariate array must be 1- or 2-dimensional")
        columns = list(covariate_rows.T) if covariate_rows.ndim == 2 else [covariate_rows]
    elif n and isinstance(covariate_rows[0], (tuple, list, np.ndarray)):
        try:
            widths = set(map(len, covariate_rows))
        except TypeError:
            widths = None
        if widths is None or len(widths) != 1:
            raise DesignError("covariate rows must all have the same length")
        columns = [_as_column(values) for values in zip(*covariate_rows)]
    else:
        columns = [_as_column(covariate_rows)]
    return _design_from_columns(columns, instrument)


def _as_column(values):
    """``values`` as a numeric array where that keeps Python equality, else as is.

    Python ints and floats compare exactly, so a column mixing them may
    become float64 only while every value is below 2**53 in magnitude.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):
        return values
    if arr.ndim == 1 and (
        arr.dtype.kind in "biu"
        or (arr.dtype.kind == "f" and not (np.abs(arr) >= 2.0**53).any())
    ):
        return arr
    return values


class _Coded(NamedTuple):
    """A column as ``codes`` into its distinct values ``labels``, which are
    numbered in order of first appearance: row i holds ``labels[codes[i]]``."""

    codes: np.ndarray
    labels: list

    def cells(self, rows=slice(None)) -> list:
        return list(map(self.labels.__getitem__, self.codes[rows].tolist()))

    def relabel(self, fn) -> _Coded:
        """``fn`` applied to every cell, at one call per label: labels that
        ``fn`` maps to equal values merge, keeping first-appearance order."""
        index: dict = {}
        remap = [index.setdefault(fn(v), len(index)) for v in self.labels]
        if len(index) == len(remap):  # nothing merged: the codes stand
            return _Coded(self.codes, list(index))
        return _Coded(np.array(remap, dtype=np.int64)[self.codes], list(index))


def _coder() -> defaultdict:
    """A dict that numbers each new key it is asked for, from 0 up."""
    return defaultdict(count().__next__)


def _code(cells) -> _Coded:
    """One dict pass: equal cells share a code, labelled by their first."""
    index = _coder()
    codes = np.fromiter(map(index.__getitem__, cells), np.int64, len(cells))
    return _Coded(codes, list(index))


def _factorize(column, j: int) -> tuple[np.ndarray, int]:
    """Codes in ``[0, k)`` equal exactly where the column's values are equal.

    A numeric column gets the codes of ``np.unique(..., return_inverse=True)``,
    which number its values in sorted order; ``_dense_codes`` gives them
    without a sort where it can.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        dense = _dense_codes(column)
        if dense is not None:
            return dense
        uniques, codes = np.unique(column, return_inverse=True)
        nan_codes = np.flatnonzero(uniques != uniques)
    else:
        codes, uniques = column if isinstance(column, _Coded) else _code(column)
        nan_codes = [k for k, v in enumerate(uniques) if v != v]
    if len(nan_codes):
        i = int(np.argmax(np.isin(codes, nan_codes)))
        raise DesignError(f"covariate column {j} has a NaN at row {i}")
    return codes, len(uniques)


def _dense_codes(column: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``np.unique``'s inverse and count for an int64 column, or a float64
    one on the integer grid above its minimum, that spans at most n values;
    None for any other column (NaN, infinite, non-integral, wide, or of
    another dtype).

    Each value's offset ``v - min`` is an index into a table of the span:
    a bincount marks the offsets present, and their running count numbers
    them in sorted order.  A float offset is rounding-free when ``offset +
    min`` gives back v, so distinct values have distinct offsets.
    """
    n = column.size
    if not n or column.dtype not in (np.int64, np.float64):
        return None
    lo, hi = column.min().item(), column.max().item()
    if not hi - lo < n:  # also False where lo or hi is NaN or infinite
        return None
    offsets = column - lo
    if column.dtype == np.float64:
        as_int = offsets.astype(np.int64)
        if not np.array_equal(as_int + lo, column):
            return None
        offsets = as_int
    rank = np.cumsum(np.bincount(offsets) > 0) - 1
    return rank[offsets], int(rank[-1]) + 1


# Largest product of column cardinalities that one int64 key can index.
_KEY_SPAN = 2**63


def _design_from_columns(columns, instrument) -> SaturatedDesign:
    """Group rows by their tuple of covariate values, one entry per column.

    ``instrument`` is an int64 array of 0/1 flags of length n, and each
    column a numeric ndarray, a ``_Coded`` column or a sequence of hashable
    values of length n.  Groups are numbered in order of first appearance
    and keyed by their first row's values; no covariate columns make one
    group.

    The columns fold into one int64 key per row in ``[0, span)``, compacted
    by a sort only if the next fold could overflow or, at the end, if the
    span exceeds n; the groups are then found by direct addressing.
    """
    n = instrument.size
    key = np.zeros(n, dtype=np.int64)
    span = 1
    for j, column in enumerate(columns):
        codes, k = _factorize(column, j)
        if span * k > _KEY_SPAN:
            key, span = _compact(key)
        key = key * k + codes
        span *= k
    if span > n:
        key, span = _compact(key)
    # Each key's first row, then the keys present in order of it.
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, key, np.arange(n))
    present = np.flatnonzero(first < n)
    present = present[np.argsort(first[present])]
    first = first[present]
    G = first.size
    group_id = np.empty(span, dtype=np.int64)
    group_id[present] = np.arange(G)
    group_of = group_id[key]

    per_column = [_cells_at(column, first) for column in columns]
    keys = tuple(zip(*per_column)) if columns else ((),) * G
    return SaturatedDesign(group_of, instrument, group_keys=keys)


def _compact(key: np.ndarray) -> tuple[np.ndarray, int]:
    """The key renumbered onto ``[0, distinct keys)``, and that count."""
    uniques, inverse = np.unique(key, return_inverse=True)
    return inverse, uniques.size


def _cells_at(column, rows: np.ndarray) -> list:
    if isinstance(column, np.ndarray):
        return column[rows].tolist()
    if isinstance(column, _Coded):
        return column.cells(rows)
    return list(map(column.__getitem__, rows.tolist()))


def validate_group_sizes(
    design: SaturatedDesign, min_active: int = 2, min_inactive: int = 2
) -> GroupAudit:
    """Flag groups with too few active or inactive observations.

    The default thresholds (2, 2) keep exactly the groups on which the
    jackknife operators are defined; (3, 3) is the strengthened requirement
    under which the variance estimators need no small-cell fallback.
    The audit itself never fails.
    """
    if min_active < 1 or min_inactive < 1:
        raise ValueError("thresholds must be at least 1")
    sizes = design.group_sizes
    active = design.treated_counts
    bad = (active < min_active) | (sizes - active < min_inactive)
    violating = np.flatnonzero(bad)
    violations = tuple(
        (g, n_g, m_g, _size_reason(n_g, m_g, min_active, min_inactive))
        for g, n_g, m_g in zip(
            violating.tolist(), sizes[violating].tolist(), active[violating].tolist()
        )
    )
    return GroupAudit(
        violations=violations, kept_groups=tuple(np.flatnonzero(~bad).tolist())
    )


def _size_reason(n_g: int, m_g: int, min_active: int, min_inactive: int) -> str:
    reasons = []
    if m_g < min_active:
        reasons.append(f"active count {m_g} < {min_active}")
    if n_g - m_g < min_inactive:
        reasons.append(f"inactive count {n_g - m_g} < {min_inactive}")
    return "; ".join(reasons)


def _check_sample(design: SaturatedDesign, sample: Sample) -> None:
    if sample.n != design.n:
        raise DesignError(
            f"sample has {sample.n} rows but design has {design.n} observations"
        )


def filter_design(
    design: SaturatedDesign, audit: GroupAudit, sample: Sample
) -> tuple[SaturatedDesign, Sample]:
    """Drop all observations in violating groups.

    Surviving rows keep their relative order and group indices are
    re-compacted in ascending old-index order, which preserves the
    first-appearance ordering.  The sample rows are dropped in lockstep.

    Raises
    ------
    EmptyDesignError
        If the audit leaves no groups.
    DesignError
        If the sample length does not match the design.
    """
    _check_sample(design, sample)
    filtered, row_mask = _filter_groups(design, audit)
    if row_mask is None:
        return design, sample
    return filtered, Sample(sample.outcome[row_mask], sample.treatment[row_mask])


def _filter_groups(
    design: SaturatedDesign, audit: GroupAudit
) -> tuple[SaturatedDesign, np.ndarray | None]:
    """The design half of ``filter_design``: the design on the kept groups'
    rows, with its groups renumbered and their keys, and the mask of those
    rows (None, and ``design`` itself, when no group is dropped)."""
    if not audit.kept_groups:
        raise EmptyDesignError("every group violates the size thresholds")
    if not audit.violations:
        return design, None

    keep_group = np.zeros(design.G, dtype=bool)
    keep_group[list(audit.kept_groups)] = True
    row_mask = keep_group[design.group_of]

    old_to_new = np.full(design.G, -1, dtype=np.int64)
    old_to_new[list(audit.kept_groups)] = np.arange(len(audit.kept_groups))
    new_keys = None
    if design.group_keys is not None:
        new_keys = tuple(design.group_keys[g] for g in audit.kept_groups)
    filtered = SaturatedDesign(
        old_to_new[design.group_of[row_mask]],
        design.instrument[row_mask],
        group_keys=new_keys,
    )
    return filtered, row_mask


def design_summary(design: SaturatedDesign) -> dict:
    """Headline counts: n, G, their ratio and the group-size extremes."""
    return {
        "n": design.n,
        "G": design.G,
        "ratio": design.G / design.n,
        "min_group_size": int(design.group_sizes.min()),
        "max_group_size": int(design.group_sizes.max()),
        "min_treated_count": int(design.treated_counts.min()),
        "max_treated_count": int(design.treated_counts.max()),
    }
