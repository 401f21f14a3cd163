"""Grouping, validation, filtering and summary of saturated designs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sivreg import (
    DesignError,
    EmptyDesignError,
    Sample,
    SaturatedDesign,
    build_design,
    design_summary,
    filter_design,
    validate_group_sizes,
)

from sivreg import design as design_module

from conftest import random_design


def test_build_groups_by_covariate_value():
    d = build_design([[0], [0], [1], [1]], [1, 0, 1, 0])
    assert d.G == 2
    assert d.n == 4
    assert d.group_sizes.tolist() == [2, 2]
    assert d.treated_counts.tolist() == [1, 1]
    assert d.group_of.tolist() == [0, 0, 1, 1]


def test_build_single_group_when_covariates_equal():
    d = build_design([[7], [7], [7], [7]], [1, 1, 0, 0])
    assert d.G == 1
    assert d.group_sizes.tolist() == [4]
    assert d.treated_counts.tolist() == [2]


def test_build_mixed_type_tuple_keys():
    d = build_design([["a", 1], ["a", 1], ["b", 0]], [1, 0, 1])
    assert d.G == 2
    assert d.group_sizes.tolist() == [2, 1]
    assert d.treated_counts.tolist() == [1, 1]
    assert d.group_keys == (("a", 1), ("b", 0))


def test_build_groups_a_column_numpy_cannot_hold_by_python_equality():
    d = build_design([1, "a", (1, 2), 1], [0, 1, 0, 1])
    assert d.G == 3
    assert d.group_of.tolist() == [0, 1, 2, 0]
    assert d.group_keys == ((1,), ("a",), ((1, 2),))


def test_build_scalar_rows_become_one_tuples():
    d = build_design([3.5, 3.5, 1.0, 1.0], [1, 0, 0, 1])
    assert d.group_keys == ((3.5,), (1.0,))


def test_build_first_appearance_order():
    d = build_design([[9], [2], [9], [2]], [1, 1, 0, 0])
    assert d.group_keys == ((9,), (2,))
    assert d.group_of.tolist() == [0, 1, 0, 1]


def test_build_length_mismatch():
    with pytest.raises(DesignError, match="3 covariate rows but 2"):
        build_design([[0], [0], [1]], [1, 0])


def test_build_non_binary_instrument_names_row():
    with pytest.raises(DesignError, match="at row 2"):
        build_design([[0], [0], [0], [0]], [1, 0, 2, 0])


def test_design_rejects_fractional_instrument():
    # int64 casting would truncate 0.5 to 0 and accept the design
    with pytest.raises(DesignError, match=r"instrument entries must be integers .*0\.5 at index 0"):
        SaturatedDesign(
            group_of=np.zeros(5, dtype=int),
            instrument=[0.5, 1, 1, 0, 0],
            group_sizes=[5],
            treated_counts=[2],
        )
    with pytest.raises(DesignError, match="must be integers"):
        build_design([[0]] * 5, [0.5, 1, 1, 0, 0])


def test_design_rejects_fractional_group_index():
    # int64 casting would truncate 0.7 to group 0
    with pytest.raises(DesignError, match=r"group_of entries must be integers .*0\.7 at index 0"):
        SaturatedDesign(
            group_of=[0.7, 0, 0, 0, 0],
            instrument=[1, 1, 0, 0, 0],
            group_sizes=[5],
            treated_counts=[2],
        )


def test_design_accepts_whole_float_and_bool_entries():
    d = SaturatedDesign(
        group_of=[0.0, 0.0, 1.0, 1.0],
        instrument=np.array([True, False, True, False]),
        group_sizes=[2.0, 2.0],
        treated_counts=[1, 1],
    )
    assert d.group_of.dtype == np.int64 and d.instrument.tolist() == [1, 0, 1, 0]


def test_design_non_binary_instrument_names_row():
    with pytest.raises(DesignError, match=r"0 or 1 \(found 2 at row 1\)"):
        SaturatedDesign(
            group_of=[0, 0, 0], instrument=[1, 2, 0], group_sizes=[3], treated_counts=[1]
        )


def test_build_rejects_2d_instrument():
    with pytest.raises(DesignError, match="1-dimensional"):
        build_design([[0], [0]], [[1], [0]])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SaturatedDesign(["a", "b"], [1, 0]), "^group_of entries must be integers$"),
        (lambda: SaturatedDesign([[0, 0]], [1, 0]), "^group_of and instrument must be 1-dimensional$"),
        (lambda: SaturatedDesign([0, 0, 0], [1, 0]),
         "^length mismatch: group_of has 3 entries, instrument has 2$"),
        (lambda: SaturatedDesign([0, 0], [1, 0], group_keys=("a", "b")),
         r"^group_keys must have one entry per group \(1\)$"),
        (lambda: Sample([[1.0, 2.0]], [0.0, 1.0]), "^outcome and treatment must be 1-dimensional$"),
    ],
    ids=["non-numeric", "2-D group_of", "unequal lengths", "group_keys", "2-D outcome"],
)
def test_malformed_design_or_sample_is_refused(make, message):
    with pytest.raises(DesignError, match=message):
        make()


def test_design_arrays_read_only():
    d = build_design([[0], [0], [1], [1]], [1, 0, 1, 0])
    for arr in (d.group_of, d.instrument, d.group_sizes, d.treated_counts):
        with pytest.raises(ValueError):
            arr[0] = 5


def test_design_rejects_inconsistent_counts():
    with pytest.raises(DesignError):
        SaturatedDesign(
            group_of=np.array([0, 0]),
            instrument=np.array([1, 0]),
            group_sizes=np.array([3]),
            treated_counts=np.array([1]),
        )


def test_design_derives_counts_and_checks_given_ones():
    group_of, instrument = [0, 1, 0, 2, 1, 2, 0], [1, 0, 0, 1, 1, 1, 1]
    derived = SaturatedDesign(group_of, instrument, group_keys=("a", "b", "c"))
    given = SaturatedDesign(
        group_of, instrument, group_sizes=[3, 2, 2], treated_counts=[2, 1, 2]
    )
    for d in (derived, given):
        assert d.G == 3
        assert d.group_sizes.tolist() == [3, 2, 2]
        assert d.treated_counts.tolist() == [2, 1, 2]
        assert d.group_sizes.dtype == np.int64 and not d.group_sizes.flags.writeable
    with pytest.raises(DesignError, match="group_sizes disagree"):
        SaturatedDesign(group_of, instrument, group_sizes=[3, 2, 2, 0])
    with pytest.raises(DesignError, match="treated_counts disagree"):
        SaturatedDesign(group_of, instrument, treated_counts=[2, 2, 1])
    with pytest.raises(DesignError, match=r"cover \[0, 3\) but group 1 has no"):
        SaturatedDesign([0, 2, 0, 2], [1, 0, 0, 1])
    with pytest.raises(DesignError, match="non-negative"):
        SaturatedDesign([0, -1], [1, 0])


def test_to_json_dict_round_trips_arrays():
    d = build_design([[0], [1], [0], [1]], [1, 1, 0, 0])
    payload = d.to_json_dict()
    assert payload == {
        "n": 4,
        "G": 2,
        "group_of": [0, 1, 0, 1],
        "instrument": [1, 1, 0, 0],
    }


def test_sample_requires_finite_values():
    with pytest.raises(DesignError):
        Sample(outcome=[1.0, np.nan], treatment=[0.0, 1.0])
    with pytest.raises(DesignError):
        Sample(outcome=[1.0, 2.0], treatment=[np.inf, 1.0])
    with pytest.raises(DesignError):
        Sample(outcome=[1.0, 2.0], treatment=[0.0])


def test_validate_flags_small_active_cell():
    d = build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 0, 0, 0])
    audit = validate_group_sizes(d)
    assert audit.kept_groups == (0,)
    assert len(audit.violations) == 1
    g, n_g, m_g, reason = audit.violations[0]
    assert (g, n_g, m_g) == (1, 4, 1)
    assert reason == "active count 1 < 2"
    assert all(type(v) is int for v in (g, n_g, m_g, *audit.kept_groups))


def test_validate_clean_design_keeps_everything():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    audit = validate_group_sizes(d)
    assert audit.violations == ()
    assert audit.kept_groups == (0,)


def test_validate_strengthened_thresholds():
    d = build_design([[0]] * 5, [1, 1, 0, 0, 0])
    audit = validate_group_sizes(d, min_active=3, min_inactive=3)
    assert audit.kept_groups == ()
    assert audit.violations[0][3] == "active count 2 < 3"


def test_validate_combines_both_reasons():
    d = build_design([[0], [0]], [1, 0])
    audit = validate_group_sizes(d)
    assert audit.violations[0][3] == "active count 1 < 2; inactive count 1 < 2"


def test_validate_rejects_threshold_below_one():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    with pytest.raises(ValueError, match="at least 1"):
        validate_group_sizes(d, min_active=0)


def test_filter_drops_violating_group():
    rows = [[0], [1], [0], [1], [0], [1], [0], [1], [0]]
    q = [1, 1, 1, 0, 0, 0, 0, 1, 0]
    d = build_design(rows, q)
    s = Sample(outcome=np.arange(9.0), treatment=np.arange(9.0) * 2)
    audit = validate_group_sizes(d)
    kept_d, kept_s = filter_design(d, audit, s)
    assert set(audit.kept_groups) <= {0, 1}
    keep = np.isin(d.group_of, audit.kept_groups)
    assert kept_d.n == int(keep.sum())
    # relative row order survives the drop
    np.testing.assert_array_equal(kept_s.outcome, np.arange(9.0)[keep])
    np.testing.assert_array_equal(kept_s.treatment, np.arange(9.0)[keep] * 2)
    # indices re-compact to 0..G-1
    assert kept_d.group_of.max() == kept_d.G - 1


def test_filter_no_violations_returns_same_objects():
    d = build_design([[0]] * 4 + [[1]] * 4, [1, 1, 0, 0, 1, 1, 0, 0])
    s = Sample(np.zeros(8), np.ones(8))
    audit = validate_group_sizes(d)
    d2, s2 = filter_design(d, audit, s)
    assert d2 is d
    assert s2 is s


def test_filter_everything_violating_raises():
    d = build_design([[0], [0], [1], [1]], [1, 0, 1, 0])
    s = Sample(np.zeros(4), np.zeros(4))
    audit = validate_group_sizes(d)
    with pytest.raises(EmptyDesignError):
        filter_design(d, audit, s)


def test_filter_rejects_sample_length_mismatch():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    audit = validate_group_sizes(d)
    with pytest.raises(DesignError, match="sample has 3 rows"):
        filter_design(d, audit, Sample(np.zeros(3), np.zeros(3)))


def test_filter_preserves_group_keys():
    rows = [["a"]] * 4 + [["b"]] * 2 + [["c"]] * 4
    q = [1, 1, 0, 0, 1, 0, 0, 0, 1, 1]
    d = build_design(rows, q)
    audit = validate_group_sizes(d)
    kept_d, _ = filter_design(d, audit, Sample(np.zeros(10), np.zeros(10)))
    assert kept_d.group_keys == (("a",), ("c",))


def test_validate_then_filter_at_minimum_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_design(rng)
        s = Sample(rng.standard_normal(d.n), rng.standard_normal(d.n))
        audit = validate_group_sizes(d, min_active=1, min_inactive=1)
        d2, s2 = filter_design(d, audit, s)
        assert d2 is d and s2 is s


def test_summary_single_group():
    d = build_design([[0]] * 4, [1, 1, 0, 0])
    summary = design_summary(d)
    assert summary["n"] == 4
    assert summary["G"] == 1
    assert summary["ratio"] == 0.25
    assert summary["min_group_size"] == summary["max_group_size"] == 4
    assert summary["min_treated_count"] == summary["max_treated_count"] == 2


def test_summary_pairs_ratio_half():
    d = build_design([[g] for g in range(6) for _ in range(2)], [1, 0] * 6)
    assert design_summary(d)["ratio"] == 0.5


def test_summary_many_small_groups():
    sizes = [8] * 114 + [7] * 124  # 238 groups, 1780 observations
    rows, q = [], []
    for g, size in enumerate(sizes):
        rows += [[g]] * size
        q += [1, 1, 1] + [0] * (size - 3)
    d = build_design(rows, q)
    summary = design_summary(d)
    assert summary["n"] == 1780
    assert summary["G"] == 238
    assert abs(summary["ratio"] - 238 / 1780) < 1e-12
    assert round(summary["ratio"], 2) == 0.13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_group_counts_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    d = random_design(rng)
    perm = rng.permutation(d.n)
    rows = [(int(d.group_keys[d.group_of[i]][0]),) for i in perm]
    d2 = build_design(rows, d.instrument[perm])
    assert d2.n == d.n and d2.G == d.G
    assert sorted(d2.group_sizes.tolist()) == sorted(d.group_sizes.tolist())
    # per-key counts are identical even though indices may be relabeled
    by_key = {k: (int(d.group_sizes[g]), int(d.treated_counts[g]))
              for g, k in enumerate(d.group_keys)}
    by_key2 = {k: (int(d2.group_sizes[g]), int(d2.treated_counts[g]))
               for g, k in enumerate(d2.group_keys)}
    assert by_key == by_key2


def test_build_rejects_nan_covariate():
    nan = float("nan")
    q = [1, 1, 0, 0] * 2
    with pytest.raises(DesignError, match="column 0 has a NaN at row 0"):
        build_design([nan] * 4 + [1.0] * 4, q)
    with pytest.raises(DesignError, match="column 1 has a NaN at row 5"):
        build_design([("a", 1.0)] * 5 + [("a", nan)] + [("b", 2.0)] * 2, q)
    with pytest.raises(DesignError, match="column 0 has a NaN at row 2"):
        build_design([(1, "x"), ("u", "x"), (nan, "x")] + [(1, "y")] * 5, q)
    with pytest.raises(DesignError, match="column 1 has a NaN at row 3"):
        build_design(np.array([[0.0, 1.0]] * 3 + [[0.0, np.nan]] * 5), q)


def test_build_rejects_rows_of_unequal_length():
    with pytest.raises(DesignError, match="same length"):
        build_design([(1, 2), (1,), (1, 2), (1,)], [1, 0, 1, 0])
    with pytest.raises(DesignError, match="same length"):
        build_design([(1,), 1, (1,), 1], [1, 0, 1, 0])
    with pytest.raises(DesignError, match="1- or 2-dimensional"):
        build_design(np.zeros((4, 1, 1)), [1, 0, 1, 0])


def test_build_signed_zeros_share_the_first_key():
    for rows in ([-0.0, 0.0, 0.0, -0.0], np.array([-0.0, 0.0, 0.0, -0.0])):
        d = build_design(rows, [1, 0, 1, 0])
        assert d.G == 1
        assert math.copysign(1.0, d.group_keys[0][0]) == -1.0
    d = build_design([(0.0, "a"), (-0.0, "a"), (0, "a")], [1, 0, 1])
    assert d.G == 1
    assert math.copysign(1.0, d.group_keys[0][0]) == 1.0


def test_build_large_ints_compare_exactly_with_floats():
    # float64 cannot hold 2**53 + 1; Python compares it with 2.0**53 exactly
    d = build_design([2**53 + 1, 2.0**53, 0.5, 2**53], [1, 0, 1, 0])
    assert d.group_of.tolist() == [0, 1, 2, 1]
    assert d.group_keys == ((2**53 + 1,), (2.0**53,), (0.5,))
    d = build_design([(-1, "a"), (2**63, "a"), (-1, "a")], [1, 0, 1])
    assert d.group_of.tolist() == [0, 1, 0]


def test_build_many_wide_columns_do_not_overflow_the_key():
    # Five columns of 4096 values each after the first: folding them into one
    # int64 key without re-compacting would wrap the last row onto row 0.
    n = 4096
    rows = np.zeros((n + 16, 6), dtype=np.int64)
    rows[:n, 1:] = np.arange(n)[:, None]
    rows[n:, 0] = np.arange(1, 17)
    d = build_design(rows, np.zeros(n + 16, dtype=np.int64))
    assert d.G == n + 16


def test_build_empty_and_zero_width_rows():
    with pytest.raises(EmptyDesignError):
        build_design([], [])
    d = build_design([()] * 4, [1, 0, 1, 0])
    assert d.G == 1 and d.group_keys == ((),)
    d = build_design(np.zeros((4, 0)), [1, 0, 1, 0])
    assert d.G == 1 and d.group_keys == ((),)


def _reference_design(covariate_rows, instrument):
    """The per-row dict loop that grouped rows before the columnar version."""
    index_of: dict = {}
    keys: list = []
    group_of = []
    for row in covariate_rows:
        key = tuple(row) if isinstance(row, (tuple, list, np.ndarray)) else (row,)
        g = index_of.get(key)
        if g is None:
            g = len(keys)
            index_of[key] = g
            keys.append(key)
        group_of.append(g)
    G = len(keys)
    group_of = np.array(group_of, dtype=np.int64)
    instrument = np.asarray(instrument, dtype=np.int64)
    return (
        group_of,
        keys,
        np.bincount(group_of, minlength=G),
        np.bincount(group_of[instrument == 1], minlength=G),
    )


def _same_value(a, b) -> bool:
    """Equal, and of the same sign when the value is a zero."""
    if a != b:
        return False
    if isinstance(a, (str, np.str_)) or a != 0:
        return True
    return math.copysign(1.0, float(a)) == math.copysign(1.0, float(b))


# Small pools so that rows collide; 2**53 + 1 and 2**64 need exact comparison
# against floats, and True == 1 == 1.0 and -0.0 == 0 as dict keys.
_VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.5, 2.0**53, 2**53 + 1, 2**64, float("inf")]),
    st.sampled_from(["a", "b", "1", ""]),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
)
_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.5, 3.0]), st.floats(allow_nan=False)
)


@st.composite
def _covariate_inputs(draw):
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["tuples", "lists", "scalars", "array1d", "array2d"]))
    if kind in ("tuples", "lists"):
        width = draw(st.integers(0, 3))
        pools = [draw(st.lists(_VALUES, min_size=1, max_size=4)) for _ in range(width)]
        rows = [
            tuple(draw(st.sampled_from(pool)) for pool in pools) for _ in range(n)
        ]
        rows = [list(r) for r in rows] if kind == "lists" else rows
    elif kind == "scalars":
        pool = draw(st.lists(_VALUES, min_size=1, max_size=5))
        rows = [draw(st.sampled_from(pool)) for _ in range(n)]
    else:
        width = 1 if kind == "array1d" else draw(st.integers(1, 3))
        pool = draw(st.lists(_NUMBERS, min_size=1, max_size=4))
        cells = [draw(st.sampled_from(pool)) for _ in range(n * width)]
        dtype = draw(st.sampled_from([np.float64, np.int64, object]))
        if dtype is np.int64:
            cells = [int(c) % 7 - 3 if math.isfinite(c) else 5 for c in cells]
        rows = np.array(cells, dtype=dtype)
        rows = rows if kind == "array1d" else rows.reshape(n, width)
    instrument = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return rows, instrument


def _assert_matches_reference(rows, instrument):
    group_of, keys, sizes, treated = _reference_design(rows, instrument)
    d = build_design(rows, instrument)
    np.testing.assert_array_equal(d.group_of, group_of)
    np.testing.assert_array_equal(d.group_sizes, sizes)
    np.testing.assert_array_equal(d.treated_counts, treated)
    assert len(d.group_keys) == len(keys)
    for new, old in zip(d.group_keys, keys):
        assert isinstance(new, tuple) and len(new) == len(old)
        assert all(_same_value(a, b) for a, b in zip(new, old)), (new, old)


@settings(max_examples=300, deadline=None)
@given(_covariate_inputs())
def test_build_design_matches_per_row_dict_loop(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("wide", [False, True])
def test_build_design_matches_per_row_dict_loop_at_scale(monkeypatch, wide):
    # 1e5 shuffled rows: two numeric columns holding both -0.0 and 0.0, and a
    # text column.  The wide case adds two columns of many values, so the
    # cardinality product passes 2**63 and the key must be compacted before
    # the last fold as well as after it.
    n = 100_000
    rng = np.random.default_rng(20 + wide)
    pool = np.array([-0.0, 0.0, 1.0, -2.5, 7.0])
    if wide:
        pool = np.concatenate([pool, rng.standard_normal(60_000)])
    columns = [rng.choice(pool, n), rng.choice(pool, n),
               rng.choice(["north", "south", "east"], n)]
    if wide:
        columns += [rng.integers(0, 60_000, n), rng.integers(0, 60_000, n)]
    columns = [c.tolist() for c in columns]
    rows = list(zip(*columns))
    rows = [rows[i] for i in rng.permutation(n)]
    compactions = []
    real_compact = design_module._compact
    monkeypatch.setattr(design_module, "_compact",
                        lambda key: compactions.append(1) or real_compact(key))
    _assert_matches_reference(rows, rng.integers(0, 2, n))
    assert len(compactions) == (2 if wide else 0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factorize_codes_a_numeric_column_as_np_unique(data):
    # Integral int64 and float64 columns of n values spanning n - 1, n or
    # n + 1 integers, negative and large ones among them, with -0.0 for some
    # float zeros: the codes and count of np.unique(..., return_inverse=True),
    # by direct addressing exactly where the int64 span is at most n.
    n = data.draw(st.integers(2, 40), label="n")
    span = data.draw(st.sampled_from([n - 1, n, n + 1]), label="span")
    offsets = data.draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    offsets[:2] = [0, span - 1]  # the span is hit exactly
    low = data.draw(st.sampled_from([-(2**62), -(2**52), -n, -1, 0, 5, 2**52]), label="low")
    ints = np.array(offsets, dtype=np.int64) + low
    floats = ints.astype(np.float64)
    signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    floats[(floats == 0.0) & np.array(signs)] = -0.0
    for column in (ints, floats):
        uniques, inverse = np.unique(column, return_inverse=True)
        codes, k = design_module._factorize(column, 0)
        assert codes.tolist() == inverse.tolist() and k == uniques.size
    assert (design_module._dense_codes(ints) is not None) == (span <= n)
    nan_row = data.draw(st.integers(0, n - 1), label="nan_row")
    floats[[nan_row, -1]] = np.nan
    with pytest.raises(DesignError, match=f"column 2 has a NaN at row {nan_row}$"):
        design_module._factorize(floats, 2)
