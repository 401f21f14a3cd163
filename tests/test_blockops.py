"""Closed-form block operators against frozen values and dense references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sivreg import (
    DegenerateGroupError,
    GroupSizeError,
    build_design,
    projection_diag_P,
    trace_A_squared,
)
from sivreg import blockops
from sivreg.blockops import (
    SmallCellError,
    apply_A,
    apply_M_W,
    apply_M_WZ,
    apply_MM_inv,
    apply_MM_inv_W,
    apply_P,
    cell_sizes,
    sive_diag_D,
)
from sivreg.design import _DesignStack
from sivreg.oracle import assemble

from conftest import random_design


def one_group(n, m):
    return build_design([[0]] * n, [1] * m + [0] * (n - m))


def test_projection_diag_balanced_group():
    d = one_group(4, 2)
    np.testing.assert_allclose(projection_diag_P(d), np.full(4, 0.25))


def test_projection_diag_unbalanced_group():
    d = one_group(5, 2)
    expected = [0.3, 0.3, 2 / 15, 2 / 15, 2 / 15]
    np.testing.assert_allclose(projection_diag_P(d), expected)


def test_projection_diag_sums_to_group_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = random_design(rng)
        assert abs(projection_diag_P(d).sum() - d.G) < 1e-10


def test_projection_diag_degenerate_group_named():
    d = build_design([[0]] * 4 + [[1]] * 3, [1, 1, 0, 0, 1, 1, 1])
    with pytest.raises(DegenerateGroupError, match="group 1"):
        projection_diag_P(d)


def test_cell_requirement_messages_name_group_and_both_counts():
    d = build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(
        DegenerateGroupError,
        match=r"^group 1 has m_g=4 and n_g - m_g=0; need m_g >= 1 and n_g - m_g >= 1$",
    ):
        apply_P(d, np.ones(d.n))
    d = build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 0, 0, 0])
    with pytest.raises(
        GroupSizeError,
        match=r"^group 1 has m_g=1 and n_g - m_g=3; need m_g >= 2 and n_g - m_g >= 2$",
    ):
        sive_diag_D(d)


def test_sive_diag_unbalanced_group():
    d = one_group(5, 2)
    np.testing.assert_allclose(sive_diag_D(d), [0.6, 0.6, 0.2, 0.2, 0.2])


def test_sive_diag_balanced_group():
    d = one_group(4, 2)
    np.testing.assert_allclose(sive_diag_D(d), np.full(4, 0.5))


def test_sive_diag_requires_two_per_cell():
    with pytest.raises(GroupSizeError):
        sive_diag_D(one_group(4, 1))
    with pytest.raises(GroupSizeError):
        sive_diag_D(one_group(4, 3))


def test_sive_diag_decays_with_group_size():
    values = []
    for n in (4, 8, 16, 32):
        d = one_group(n, n // 2)
        values.append(float(sive_diag_D(d).max()))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_demean_by_group():
    d = one_group(4, 2)
    out = apply_M_W(d, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(out, [-1.5, -0.5, 0.5, 1.5])


def test_demean_kills_group_constants():
    rng = np.random.default_rng(1)
    d = random_design(rng)
    gamma = rng.standard_normal(d.G)
    np.testing.assert_allclose(apply_M_W(d, gamma[d.group_of]), 0.0, atol=1e-12)


def test_demean_by_cell():
    d = one_group(6, 3)
    v = np.zeros(6)
    v[0] = 1.0
    out = apply_M_WZ(d, v)
    np.testing.assert_allclose(out, [2 / 3, -1 / 3, -1 / 3, 0, 0, 0])


def test_demean_by_cell_kills_cell_constants():
    rng = np.random.default_rng(2)
    d = random_design(rng)
    gamma = rng.standard_normal(d.G)
    delta = rng.standard_normal(d.G)
    v = gamma[d.group_of] + delta[d.group_of] * d.instrument
    np.testing.assert_allclose(apply_M_WZ(d, v), 0.0, atol=1e-12)


def test_apply_P_unit_vector():
    d = one_group(4, 2)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(apply_P(d, v), [0.25, 0.25, -0.25, -0.25])


def test_apply_P_idempotent_and_annihilates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_design(rng)
        v = rng.standard_normal(d.n)
        pv = apply_P(d, v)
        np.testing.assert_allclose(apply_P(d, pv), pv, atol=1e-12)
        # P projects inside the instrument space: it kills M_WZ residuals
        np.testing.assert_allclose(apply_P(d, apply_M_WZ(d, v)), 0.0, atol=1e-12)
        gamma = rng.standard_normal(d.G)
        np.testing.assert_allclose(apply_P(d, gamma[d.group_of]), 0.0, atol=1e-12)


def test_apply_A_zero_diagonal_and_annihilates_controls():
    rng = np.random.default_rng(4)
    d = random_design(rng, G=3)
    for i in range(d.n):
        e = np.zeros(d.n)
        e[i] = 1.0
        assert abs(apply_A(d, e)[i]) < 1e-12
    gamma = rng.standard_normal(d.G)
    np.testing.assert_allclose(apply_A(d, gamma[d.group_of]), 0.0, atol=1e-12)


def test_apply_A_symmetric_bilinear_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = random_design(rng)
        v = rng.standard_normal(d.n)
        w = rng.standard_normal(d.n)
        assert abs(v @ apply_A(d, w) - w @ apply_A(d, v)) < 1e-12


def test_hadamard_inverse_cell_of_three():
    d = one_group(6, 3)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    out = apply_MM_inv(d, v)
    np.testing.assert_allclose(out, [2.5, -0.5, -0.5, 0, 0, 0])


def test_hadamard_inverse_ones_eigenvector():
    d = one_group(8, 4)  # both cells size 4
    out = apply_MM_inv(d, np.ones(8))
    np.testing.assert_allclose(out, np.full(8, 4 / 3))


def test_hadamard_inverse_small_cell_rejected_only_when_touched():
    d = one_group(5, 2)  # active cell has size 2
    bad = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(SmallCellError, match="status 1"):
        apply_MM_inv(d, bad)
    ok = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    out = apply_MM_inv(d, ok)
    assert np.all(np.isfinite(out))
    assert out[0] == out[1] == 0.0


def test_hadamard_inverse_group_level_frozen():
    d = one_group(3, 1)
    np.testing.assert_allclose(apply_MM_inv_W(d, [1.0, 0.0, 0.0]), [2.5, -0.5, -0.5])
    np.testing.assert_allclose(apply_MM_inv_W(d, np.ones(3)), np.full(3, 1.5))


def test_hadamard_inverse_group_level_small_group_always_rejected():
    d = build_design([[0], [0], [1], [1], [1], [1]], [1, 0, 1, 1, 0, 0])
    with pytest.raises(SmallCellError, match="group 0"):
        apply_MM_inv_W(d, np.zeros(6))


def test_hadamard_inverses_invert_dense_squares():
    rng = np.random.default_rng(6)
    d = random_design(rng, G=3, size_range=(6, 10), min_active=3, min_inactive=3)
    dense = assemble(d)
    v = rng.standard_normal(d.n)
    mm = dense.M_WZ * dense.M_WZ
    np.testing.assert_allclose(mm @ apply_MM_inv(d, v), v, atol=1e-10)
    mmw = dense.M_W * dense.M_W
    np.testing.assert_allclose(mmw @ apply_MM_inv_W(d, v), v, atol=1e-10)


def test_trace_A_squared_balanced_group():
    assert abs(trace_A_squared(one_group(4, 2)) - 1.5) < 1e-12


def test_trace_A_squared_matches_dense_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = random_design(rng)
        dense = assemble(d)
        closed = trace_A_squared(d)
        assert abs(closed - np.trace(dense.A @ dense.A)) < 1e-8
        assert d.G - 1e-12 <= closed <= 3 * d.G + 1e-12


def test_dense_A_eigenvalues_bounded_by_one():
    rng = np.random.default_rng(8)
    d = random_design(rng, G=4)
    eig = np.linalg.eigvalsh(assemble(d).A)
    assert eig.min() >= -1.0 - 1e-10
    assert eig.max() <= 1.0 + 1e-10


def test_operators_match_dense_matrices():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = random_design(rng)
        dense = assemble(d)
        v = rng.standard_normal(d.n)
        np.testing.assert_allclose(apply_P(d, v), dense.P @ v, atol=1e-10)
        np.testing.assert_allclose(apply_M_W(d, v), dense.M_W @ v, atol=1e-10)
        np.testing.assert_allclose(apply_M_WZ(d, v), dense.M_WZ @ v, atol=1e-10)
        np.testing.assert_allclose(apply_A(d, v), dense.A @ v, atol=1e-10)
        np.testing.assert_allclose(sive_diag_D(d), np.diag(dense.D), atol=1e-12)
        np.testing.assert_allclose(projection_diag_P(d), np.diag(dense.P), atol=1e-10)


def test_cell_layout():
    d = build_design([[0]] * 5 + [[1]] * 4, [1, 1, 0, 0, 0, 1, 1, 0, 0])
    np.testing.assert_array_equal(d.cell, 2 * d.group_of + d.instrument)
    assert d.cell is d.cell
    with pytest.raises(ValueError):
        d.cell[0] = 0
    per_obs = cell_sizes(d)
    np.testing.assert_array_equal(per_obs, [2, 2, 3, 3, 3, 2, 2, 2, 2])


def test_demeaning_with_empty_cells():
    # group 1 has no inactive member and group 2 no active one, so the last
    # cell id (2G - 1) is empty
    d = build_design([[0]] * 4 + [[1]] * 3 + [[2]] * 3, [1, 1, 0, 0, 1, 1, 1, 0, 0, 0])
    v = np.array([1.0, 3.0, 5.0, 9.0, 4.0, 10.0, 1.0, 1.0, 2.0, 6.0])
    np.testing.assert_array_equal(cell_sizes(d), [2, 2, 2, 2, 3, 3, 3, 3, 3, 3])
    np.testing.assert_allclose(
        apply_M_W(d, v), [-3.5, -1.5, 0.5, 4.5, -1, 5, -4, -2, -1, 3], atol=1e-12
    )
    np.testing.assert_allclose(
        apply_M_WZ(d, v), [-1, 1, -2, 2, -1, 5, -4, -2, -1, 3], atol=1e-12
    )
    np.testing.assert_allclose(
        apply_MM_inv_W(d, v), [-1, 3, 7, 15, 4.5, 22.5, -4.5, -1.5, 1.5, 13.5], atol=1e-12
    )
    gamma = np.array([0.3, -1.7, 2.2])
    delta = np.array([5.0, 0.4, -0.9])
    constants = gamma[d.group_of] + delta[d.group_of] * d.instrument
    np.testing.assert_allclose(apply_M_WZ(d, constants), 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_operators_are_linear(seed):
    rng = np.random.default_rng(seed)
    d = random_design(rng, G=2)
    v = rng.standard_normal(d.n)
    w = rng.standard_normal(d.n)
    a, b = rng.standard_normal(2)
    for op in (apply_P, apply_A, apply_M_W, apply_M_WZ):
        left = op(d, a * v + b * w)
        right = a * op(d, v) + b * op(d, w)
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_dot_is_matmul_on_vectors_and_row_by_row():
    # One design's forms must keep the bits of ``x @ y``, and a stack's rows
    # the bits of each design's, strided views (every other cell) included.
    from sivreg.blockops import _dot

    rng = np.random.default_rng(48)
    for size in (1, 2, 3, 7, 64, 301, 2000):
        R = int(rng.integers(1, 6))
        x = rng.standard_normal((R, 2 * size)) * 10.0 ** rng.integers(-3, 4, (R, 1))
        y = rng.standard_normal((R, 2 * size))
        for a, b in ((x, y), (x[:, 1::2], y[:, ::2]), (x, y[0])):
            got = _dot(a, b)
            want = [a[r] @ (b[r] if b.ndim == 2 else b) for r in range(R)]
            assert got.tolist() == want
            assert [_dot(a[r], b[r] if b.ndim == 2 else b) for r in range(R)] == want


def _one_shot_atoms(design, treated, Y, dropped=None):
    """The (cell, arm) atoms of ``_Atoms`` from one ``np.bincount`` over all
    rows per sum: ``counts, mean_Y, mean_e0, ss, s20``."""
    shape = (2,) + design.cell.shape[:-1] + (2 * design.G,)
    size = int(np.prod(shape))
    cell = design.cell.reshape(-1)
    atom = cell + size // 2 * treated.reshape(-1)
    counts = np.bincount(atom, minlength=size).astype(np.float64).reshape(shape)
    if dropped is not None:
        counts[:, dropped] = 0.0
    k = counts[0] + counts[1]
    sum_Y = np.bincount(cell, Y.reshape(-1), minlength=size // 2).reshape(k.shape)
    mean_Y = np.divide(sum_Y, k, out=np.zeros(k.shape), where=k > 0)
    e0 = Y.reshape(-1) - mean_Y.reshape(-1)[cell]
    sum_e0 = np.bincount(atom, e0, minlength=size).reshape(shape)
    mean_e0 = np.divide(sum_e0, counts, out=np.zeros(shape), where=counts > 0)
    e0 -= mean_e0.reshape(-1)[atom]
    ss = np.bincount(atom, e0 * e0, minlength=size).reshape(shape)
    if dropped is not None:
        ss[:, dropped] = 0.0
    mean_T = np.divide(counts[1], k, out=np.zeros(k.shape), where=k > 0)
    u = np.stack((-mean_T, 1.0 - mean_T))
    s20 = counts * u * u
    return counts, mean_Y, mean_e0, ss, s20[0] + s20[1]


def _atom_rows(rng, shape, offset):
    """A 0/1 T and a Y of ``shape``, each with some -0.0 entries, Y around ``offset``."""
    T = (rng.random(shape) < 0.5).astype(np.float64)
    Y = offset + T + rng.standard_normal(shape)
    for v in (T, Y):
        v[rng.random(shape) < 0.1] = -0.0
    return T, Y


def _assert_atoms_equal_one_shot(atoms, design, treated, Y, dropped=None):
    got = (atoms.counts, atoms.mean_Y, atoms.mean_e0, atoms.ss, atoms.s20())
    names = ("counts", "mean_Y", "mean_e0", "ss", "s20")
    for name, a, b in zip(names, got, _one_shot_atoms(design, treated, Y, dropped)):
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.sampled_from([1, 3, 7]),
    offset=st.sampled_from([0.0, 1e6, -1e8]),
)
def test_blocked_atoms_equal_one_shot_sums(seed, rows, offset):
    # The (cell, arm) atom pass reads its rows in blocks of _ROWS: every sum
    # adds the same values in the same row order as one bincount over all
    # rows, so each atom is bit-equal to it, on a design and on a stack
    # whose dropped cells are zeroed.
    rng = np.random.default_rng(seed)
    d = random_design(rng, size_range=(2, 12))
    R = int(rng.integers(1, 4))
    stack = _DesignStack.of_rows(d.group_of, rng.random((R, d.n)) < 0.5)
    dropped = np.repeat(~stack.keep, 2, axis=1) | (rng.random((R, 2 * stack.G)) < 0.2)
    T, Y = _atom_rows(rng, d.n, offset)
    stack_T, stack_Y = _atom_rows(rng, (R, d.n), offset)
    with mock.patch.object(blockops, "_ROWS", rows):
        atoms = blockops._Atoms(d, T, Y)
        stack_atoms = blockops._Atoms(stack, None, stack_Y, stack_T == 1.0, dropped)
    _assert_atoms_equal_one_shot(atoms, d, T == 1.0, Y)
    _assert_atoms_equal_one_shot(stack_atoms, stack, stack_T == 1.0, stack_Y, dropped)


@pytest.mark.parametrize("edge", [-1, 0, 1, "3 blocks + 7"])
def test_blocked_atoms_at_block_edges(edge):
    # At the real block size, a design of one row short of a block, one
    # block, one row over, and three blocks and 7 rows.
    rows = blockops._ROWS
    n = 3 * rows + 7 if edge == "3 blocks + 7" else rows + edge
    rng = np.random.default_rng(n)
    d = build_design(rng.integers(0, 40, (n, 1)).tolist(), rng.random(n) < 0.5)
    T, Y = _atom_rows(rng, n, 1e6)
    _assert_atoms_equal_one_shot(blockops._Atoms(d, T, Y), d, T == 1.0, Y)
