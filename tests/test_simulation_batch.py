"""The chunked Monte Carlo against the per-draw reference.

``per_draw_reference`` runs the grid one draw at a time, each on its own
filtered design.  The batch stacks a chunk's draws and masks the groups each
draw drops, so where no draw drops a group it must reproduce the reference
bit for bit; elsewhere the dot products over groups run over zero-padded
rows and may differ in the last bits.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sivreg import simulation
from sivreg._normal import ndtri
from sivreg.blockops import _Atoms, _CellMoments
from sivreg.design import DesignError
from sivreg.estimators import EstimationError, _estimates
from sivreg.inference import (
    _chao_variance,
    _sive_variance,
    _variance_at_center,
    chao_variance,
    robust_test,
    sive_variance,
)
from sivreg.simulation import (
    DEFAULT_ESTIMATORS,
    _VARIANTS,
    SimConfig,
    _replications,
    _run_grid,
    _truth,
    generate_sample,
    outcome_level,
    propensity,
    replication_seed,
    summarize,
)

from conftest import moment_table, table_sums
from per_draw_reference import (
    draw_stack,
    kept_rows,
    layout_of,
    per_draw_replications,
    per_draw_run_grid,
)

SECOND_ORDER = ("k", "mean_T", "mean_Y", "s20", "s11")
FOURTH_ORDER = SECOND_ORDER + ("s02", "s30", "s21", "s12", "s40", "s31", "s22")


@st.composite
def grid_cells(draw):
    """A small, weak or unidentified (p1 = p0 = 0.22) grid cell, and a chunk
    size that does not divide its replication count unless that is 1."""
    n = draw(st.integers(40, 400))
    per_chunk = draw(st.integers(1, 6))
    replications = draw(st.integers(1, 13))
    assume(replications == 1 or replications % per_chunk)
    cell = SimConfig(
        n=n,
        L=draw(st.integers(1, 60)),
        p1=draw(st.sampled_from([0.22, 0.24, 0.3])),
        h=draw(st.sampled_from([0.0, 2.0])),
        n_hetero=draw(st.integers(0, n)),
        replications=replications,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cell, per_chunk


def _drops(cell: SimConfig) -> bool:
    """Whether any replication of the cell drops a group."""
    return not draw_stack(cell, range(cell.replications))[0].keep.all()


def _agree(got, want, exact: bool) -> None:
    """Bit-equal where the draw keeps every group; else to 1e-9 relative.

    A ratio's denominator may cancel down to 1e-12 ||T||^2, so last-bit
    differences in its zero-padded sums grow by up to that cancellation;
    over 1,500 random cells the largest relative gap seen was 2e-11.
    """
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_cells())
def test_stacked_tables_equal_per_draw_tables(case):
    # The tables, and the estimates and variances read off them, per draw.
    cell, per_chunk = case
    reps = range(min(per_chunk, cell.replications))
    stack, T, Y, finite = draw_stack(cell, reps)
    truth, valid = _truth(cell, layout_of(cell), stack, finite)
    centers = 0.37 + np.arange(len(reps))
    stacked = (
        (moment_table(stack, T, Y), 0.0 * centers, SECOND_ORDER),
        (moment_table(stack, T, Y, centers[:, None]), centers, FOURTH_ORDER),
    )
    for i, rep in enumerate(reps):
        try:
            draw = generate_sample(cell, replication_seed(cell.master_seed, rep))
        except (DesignError, EstimationError):
            assert not valid[i]
            continue
        assert valid[i]
        assert abs(truth[i] - draw.truth["beta_sive"]) <= 1e-12 * abs(truth[i])
        kept = np.flatnonzero(stack.keep[i])
        assert kept.tolist() == list(draw.audit.kept_groups)
        cells = np.column_stack((2 * kept, 2 * kept + 1)).ravel()
        dropped = np.setdiff1d(np.arange(2 * stack.G), cells)
        d, s = draw.design, draw.sample
        refs = []
        for table, center, names in stacked:
            ref = moment_table(d, s.treatment, s.outcome, center[i])
            refs.append(ref)
            got_sums, want_sums = table_sums(table), table_sums(ref)
            for name in names:
                got, want = got_sums[name][i], want_sums[name]
                scale = max(float(np.abs(want).max()), 1e-300)
                assert np.abs(got[cells] - want).max() <= 1e-12 * scale, name
                if name != "k":
                    assert not got[dropped].any(), name
        exact = bool(stack.keep[i].all())
        (table2, *_), (table4, *_) = stacked
        for kind in DEFAULT_ESTIMATORS:
            got = _estimates(kind, table2)[i]
            _agree(got, _estimates(kind, refs[0]), exact)
        for variance in (_sive_variance, _chao_variance):
            _agree(variance(table4)[i], variance(refs[1]), exact)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_cells())
def test_chunked_replications_match_per_draw(case):
    cell, per_chunk = case
    with mock.patch.object(simulation, "ROWS", per_chunk * cell.n):
        errors, hits = _replications([cell], DEFAULT_ESTIMATORS, _VARIANTS, 0.05)[0]
    want_errors, want_hits = per_draw_replications(
        cell, DEFAULT_ESTIMATORS, _VARIANTS, 0.05
    )
    assert _lists(hits) == want_hits
    exact = not _drops(cell)
    for kind in DEFAULT_ESTIMATORS:
        got, want = np.array(errors[kind]), np.array(want_errors[kind])
        assert got.shape == want.shape, kind
        _agree(got, want, exact)


def test_rows_byte_identical_where_no_group_is_dropped():
    # n = 3000 keeps every group at L = 25 (seed 3) and drops some at L = 300
    # in every replication; p1 = 0.3 is weak.
    cfg = SimConfig(n=3000, replications=12, master_seed=3)
    Ls, p1s = [25, 300], [0.3, 0.49]
    bias, size = _run_grid(cfg, Ls, p1s)
    want_bias, want_size = per_draw_run_grid(cfg, Ls, p1s)
    assert summarize(size) == summarize(want_size)
    for got, want in zip(bias, want_bias):
        cell = SimConfig(n=3000, L=got["L"], p1=got["p1"], replications=12, master_seed=3)
        if got["metric"] == "attrition" or not _drops(cell):
            assert summarize([got]) == summarize([want])
        else:
            for key in ("value", "mc_se"):
                assert abs(got[key] - want[key]) <= 1e-12
    assert not _drops(SimConfig(n=3000, L=25, p1=0.49, replications=12, master_seed=3))
    assert _drops(SimConfig(n=3000, L=300, p1=0.49, replications=12, master_seed=3))


def test_non_finite_draw_is_attrition_for_everything():
    # beta (1 + h) overflows, so every draw's outcome holds inf or NaN: a
    # Sample would refuse it, and the stack flags the draw and zeroes its rows.
    cell = SimConfig(n=60, L=2, beta=1e308, h=10.0, n_hetero=30, replications=3)
    with np.errstate(over="ignore", invalid="ignore"):
        stack, T, Y, finite = draw_stack(cell, range(cell.replications))
        valid = _truth(cell, layout_of(cell), stack, finite)[1]
        bias, size = _run_grid(cell)
    assert not valid.any()
    assert not T.any() and not Y.any()
    assert all(r["value"] == 1.0 for r in bias + size if r["metric"] == "attrition")


def one_draw(cell: SimConfig, seed):
    """q, T and Y of one replication as they were drawn before chunks were
    filled in place: one generator, one (n,) and one (2, n) request."""
    rng = np.random.default_rng(seed)
    x = layout_of(cell).x
    hetero_rows = np.argsort(x, kind="stable")[: cell.n_hetero]
    q = (rng.random(cell.n) < propensity(x)).astype(np.int64)
    z = rng.standard_normal((2, cell.n))
    eps = cell.rho * z[0] + np.sqrt(1.0 - cell.rho**2) * z[1]
    quantile = np.where(q == 1, ndtri(cell.p1), ndtri(cell.p0))
    t = (z[0] <= quantile).astype(np.float64)
    gamma = np.ones(cell.n)
    gamma[hetero_rows] = 1.0 + cell.h
    return q, t, outcome_level(x) + cell.beta * gamma * t + eps


@st.composite
def draw_chunks(draw):
    """A cell (n = 1 included, n rarely a multiple of L) and a chunk of
    consecutive replications starting anywhere; beta = 1e308 with h > 0
    overflows Y to inf on the treated rows that get the shifted effect."""
    n = draw(st.one_of(st.just(1), st.integers(1, 300)))
    cell = SimConfig(
        n=n,
        L=draw(st.integers(1, 40)),
        p1=draw(st.sampled_from([0.05, 0.3, 0.49, 0.95])),
        rho=draw(st.sampled_from([0.0, 0.527, -0.9, 0.999])),
        beta=draw(st.sampled_from([0.2, -3.0, 1e308])),
        h=draw(st.sampled_from([0.0, 2.0, 10.0])),
        n_hetero=draw(st.integers(0, n)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    start = draw(st.integers(0, 10_000))
    return cell, range(start, start + draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw_chunks())
@example((SimConfig(n=60, L=7, beta=1e308, h=10.0, n_hetero=30, master_seed=2), range(5, 9)))
@example((SimConfig(n=1, L=3, n_hetero=1, master_seed=1), range(7, 9)))
def test_chunk_draws_equal_per_replication_draws(case):
    # Filling a chunk's rows in place reads each replication's stream as the
    # per-replication requests did, bit for bit; a draw whose Y overflows is
    # still attrition for everything, with its rows zeroed.
    # A cell that is not the last to read the raw draws writes Y anew; the
    # last writes it over the uniforms, to the same bits.
    cell, reps = case
    seeds = [replication_seed(cell.master_seed, rep) for rep in reps]
    with np.errstate(over="ignore", invalid="ignore"):
        raw, layout = simulation._raw_draw(cell, seeds), layout_of(cell)
        q, treated, Y = simulation._cell_rows(cell, layout, raw, last=False)
        U = raw[0]
        rows_last = simulation._cell_rows(cell, layout, raw, last=True)
        assert raw == [] and rows_last[2] is U
        stack, T_stack, Y_stack, finite = draw_stack(cell, reps)
        valid = _truth(cell, layout, stack, finite)[1]
        refs = [one_draw(cell, seed) for seed in seeds]
    T = treated.astype(np.float64)
    assert q.shape == T.shape == Y.shape == (len(reps), cell.n)
    for got, want in zip(rows_last, (q, treated, Y)):
        assert got.tobytes() == want.tobytes()
    for i, (q_ref, t_ref, y_ref) in enumerate(refs):
        assert np.array_equal(q[i], q_ref)
        assert T[i].tobytes() == t_ref.tobytes()
        assert Y[i].tobytes() == y_ref.tobytes()
        finite = bool(np.isfinite(y_ref).all())
        kept = kept_rows(stack)[i] & finite
        assert T_stack[i].tobytes() == np.where(kept, t_ref, 0.0).tobytes()
        assert Y_stack[i].tobytes() == np.where(kept, y_ref, 0.0).tobytes()
        if not finite:
            assert not valid[i]
            assert not T_stack[i].any() and not Y_stack[i].any()


def test_generate_sample_draws_through_the_chunk_draw(monkeypatch):
    cell = SimConfig(n=301, L=7, beta=0.7, h=2.0, n_hetero=100)
    seed = replication_seed(5, 3)
    calls = []
    real_draw = simulation._raw_draw

    def draw(config, seeds):
        calls.append(list(seeds))
        return real_draw(config, seeds)

    monkeypatch.setattr(simulation, "_raw_draw", draw)
    sample_draw = generate_sample(cell, seed)
    assert calls == [[seed]]
    q_ref, t_ref, y_ref = one_draw(cell, seed)
    rows = np.isin(layout_of(cell).group_of, sample_draw.audit.kept_groups)
    assert np.array_equal(sample_draw.design.instrument, q_ref[rows])
    assert sample_draw.sample.treatment.tobytes() == t_ref[rows].tobytes()
    assert sample_draw.sample.outcome.tobytes() == y_ref[rows].tobytes()


def _batched(cell: SimConfig, widths: tuple, variants: tuple):
    """``_replications`` with ``widths`` draws per row chunk and row chunks
    per table batch."""
    with mock.patch.object(simulation, "_widths", lambda n, G: widths):
        return _replications([cell], DEFAULT_ESTIMATORS, variants, 0.05)[0]


def _lists(buffers: dict) -> dict:
    """Flat float64 result buffers, each as a list of floats."""
    assert all(values.typecode == "d" for values in buffers.values())
    return {key: values.tolist() for key, values in buffers.items()}


def _assert_bit_equal(got, want) -> None:
    """Errors and hits, list by list, equal to the last bit."""
    for got_lists, want_lists in zip(got, want, strict=True):
        assert got_lists.keys() == want_lists.keys()
        for key, values in want_lists.items():
            assert np.array(got_lists[key]).tobytes() == np.array(values).tobytes(), key


@st.composite
def batch_widths(draw):
    """A small grid cell (often weak, or dropping groups), a row-chunk width
    of 1-5 draws, a batch of 1-4 chunks, and a replication count that is a
    multiple of neither width (of the batch's only, for one-draw chunks);
    with both variants, or none (the bias-only path)."""
    chunk, chunks = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    replications = draw(st.integers(2, 23))
    assume(replications % (chunk * chunks) and (chunk == 1 or replications % chunk))
    n = draw(st.integers(12, 300))
    cell = SimConfig(
        n=n,
        L=draw(st.integers(1, 40)),
        p1=draw(st.sampled_from([0.22, 0.3, 0.49])),
        h=draw(st.sampled_from([0.0, 2.0])),
        n_hetero=draw(st.integers(0, n)),
        replications=replications,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cell, chunk, chunks, draw(st.sampled_from([_VARIANTS, ()]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch_widths())
@example((SimConfig(n=300, L=25, p1=0.3, replications=11, master_seed=4), 2, 3, ()))
def test_batch_width_leaves_every_draw_bit_equal(case):
    # Joining row chunks into one table batch changes no draw's estimates,
    # variances or tests: every op on the batch is elementwise or row by row.
    cell, chunk, chunks, variants = case
    got = _batched(cell, (chunk, chunks), variants)
    _assert_bit_equal(got, _batched(cell, (chunk, 1), variants))
    if not variants:
        assert got[1] == {}


def test_non_finite_draw_in_a_middle_chunk_is_attrition_for_that_draw_only(monkeypatch):
    # Chunks of two draws, three to a batch: replication 3 ends the first
    # batch's middle chunk.  With an inf in its outcome it is dropped from
    # every list, and every other draw keeps its values to the last bit.
    cell = SimConfig(n=300, L=3, p1=0.49, replications=11, master_seed=5)
    bad, widths = 3, (2, 3)
    full = _batched(cell, widths, _VARIANTS)
    before = _batched(dataclasses.replace(cell, replications=bad), widths, _VARIANTS)
    through = _batched(dataclasses.replace(cell, replications=bad + 1), widths, _VARIANTS)
    for lists, lists_before in zip(through, before):
        for key, values in lists.items():
            assert len(values) == len(lists_before[key]) + 1, key  # the draw is valid

    real_draw = simulation._raw_draw

    def draw(config, seeds):
        raw = real_draw(config, seeds)
        for eps, seed in zip(raw[2], seeds):  # Y = level + beta gamma T + eps
            if seed.spawn_key == (bad,):
                eps[7] = np.inf
        return raw

    monkeypatch.setattr(simulation, "_raw_draw", draw)
    want = tuple(
        {key: values[: len(head[key])] + values[len(upto[key]):] for key, values in lists.items()}
        for lists, head, upto in zip(full, before, through)
    )
    _assert_bit_equal(_batched(cell, widths, _VARIANTS), want)


def test_draw_with_no_kept_group_in_a_wide_batch():
    # Groups of six rows: replications 3 and 6 keep no group, the first in
    # the middle chunk of a batch, the second opening the next batch.  They
    # are attrition, and the rest agree with the per-draw reference.
    cell = SimConfig(n=12, L=2, p1=0.49, replications=9, master_seed=0)
    stack, _, _, finite = draw_stack(cell, range(cell.replications))
    valid = _truth(cell, layout_of(cell), stack, finite)[1]
    assert np.flatnonzero(~stack.keep.any(axis=1)).tolist() == [3, 6]
    assert not valid[[3, 6]].any()
    got = _batched(cell, (2, 3), _VARIANTS)
    _assert_bit_equal(got, _batched(cell, (2, 1), _VARIANTS))
    want_errors, want_hits = per_draw_replications(cell, DEFAULT_ESTIMATORS, _VARIANTS, 0.05)
    assert _lists(got[1]) == want_hits
    for kind in DEFAULT_ESTIMATORS:
        _agree(np.array(got[0][kind]), np.array(want_errors[kind]), exact=False)


def test_variances_read_none_of_the_robust_sums(monkeypatch):
    # s30, s40 and s31 are read only by the robust test's variance polynomial
    # in beta0: the public variances, the robust test at one value and a
    # simulate batch never build them.  Both variances, the variance at the
    # center and the A forms on a table that builds only what they read are
    # bit-equal to those on one whose groups were all built first.  A chunk
    # that drops groups, and one design whose T is not 0/1 (one-row atoms).
    built = []
    real = _CellMoments.robust_sums
    monkeypatch.setattr(_CellMoments, "robust_sums", lambda t: built.append(1) or real(t))
    cell = SimConfig(n=3000, L=300, replications=4, master_seed=3)
    stack, T, Y, _ = draw_stack(cell, range(4))
    draw = generate_sample(cell, replication_seed(3, 0))
    T1 = draw.sample.treatment + 0.25 * draw.sample.outcome
    for entry in (sive_variance, chao_variance, robust_test):
        entry(draw.design, draw.sample.outcome, T1, 0.7)
    _replications([cell], DEFAULT_ESTIMATORS, _VARIANTS, 0.05)
    assert not built
    cases = ((stack, T, Y, 0.2 + np.arange(4.0)[:, None]), (draw.design, T1, draw.sample.outcome, 0.7))
    for design, T, Y, center in cases:
        full = moment_table(design, T, Y, center)
        full.robust_sums(), full.variance_sums()
        lean = moment_table(design, T, Y, center)
        for variance in (_sive_variance, _chao_variance, _variance_at_center):
            assert variance(lean).tobytes() == variance(full).tobytes()
        assert np.array(lean.a_form()).tobytes() == np.array(full.a_form()).tobytes()
        assert len(built) == 1 and "_memorobust_sums" not in vars(lean)
        built.clear()


@pytest.mark.parametrize("L, widths, bound_kb", [(25, (4, 12), 780), (300, (4, 1), 760)])
def test_replications_traced_peak(L, widths, bound_kb):
    # The traced peak of one grid cell at the paper's n, above what is
    # allocated before, in KB: 705.6 at L = 25 (batches of 48 draws) and
    # 700.9 at L = 300 (batches of one chunk of 4), each batch up to ROWS // 5
    # cell entries.  A first call keeps the cell's layout, which is not
    # counted.
    cell = SimConfig(n=3000, L=L, p1=0.49, replications=100, master_seed=1941)
    assert simulation._widths(cell.n, L) == widths

    def run():
        _replications([cell], DEFAULT_ESTIMATORS, _VARIANTS, 0.05)

    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound_kb * 1024, peak / 1024


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw_chunks())
@example((SimConfig(n=60, L=7, beta=1e308, h=10.0, n_hetero=30, master_seed=2), range(5, 9)))
def test_reduced_atoms_equal_atoms_of_zeroed_rows(case):
    # A chunk's rows go straight to (cell, arm) atoms, and the atoms of the
    # groups a draw drops (of every group, if its Y is not finite) are zeroed
    # after the sums.  Every atom a table reads, and every table sum, equals
    # that of the rows zeroed first, to the last bit; only the dropped cells'
    # counts differ (zero, not the cell's size in arm 0).
    cell, reps = case
    seeds = [replication_seed(cell.master_seed, rep) for rep in reps]
    with np.errstate(over="ignore", invalid="ignore"):
        raw, layout = simulation._raw_draw(cell, seeds), layout_of(cell)
        counts, atoms, finite = simulation._reduce(
            layout, *simulation._cell_rows(cell, layout, raw, True)
        )
        stack, T, Y, want_finite = draw_stack(cell, reps)
        want = _Atoms(stack, T, Y)
        centers = 0.3 + np.arange(len(reps))[:, None]
        # Every group of sums is built here, where the overflow is expected.
        tables = [
            (table_sums(_CellMoments(stack, atoms, c)), table_sums(_CellMoments(stack, want, c)))
            for c in (0.0, centers)
        ]
    assert counts.tobytes() == stack.counts.tobytes()
    assert finite.tolist() == want_finite.tolist()
    for name in ("mean_T", "mean_Y", "tt", "mean_e0", "ss"):
        assert getattr(atoms, name).tobytes() == getattr(want, name).tobytes(), name
    kept = np.repeat(stack.keep & finite[:, None], 2, axis=1)
    assert atoms.counts[:, kept].tobytes() == want.counts[:, kept].tobytes()
    assert not atoms.counts[:, ~kept].any()
    for got_sums, want_sums in tables:
        for name in FOURTH_ORDER:
            assert got_sums[name].tobytes() == want_sums[name].tobytes(), name


@st.composite
def grids(draw):
    """A grid of L values with 1 and one L >= n (every group of size 1, so
    all dropped), one to three p1 values (weak and unidentified among them),
    h often nonzero, a replication count that is not a multiple of the row
    chunk, and a small ROWS, so that the pending budget runs batches early."""
    n = draw(st.integers(12, 120))
    per_chunk = draw(st.integers(1, 5))
    replications = draw(st.integers(2, 13))
    assume(per_chunk == 1 or replications % per_chunk)
    Ls = [1, *draw(st.lists(st.integers(2, n), max_size=2)), draw(st.integers(n, 2 * n))]
    p1s = draw(st.lists(st.sampled_from([0.22, 0.3, 0.49, 0.69]), min_size=1, max_size=3,
                        unique=True))
    config = SimConfig(
        n=n,
        h=draw(st.sampled_from([0.0, 2.0, -0.5])),
        n_hetero=draw(st.integers(0, n)),
        replications=replications,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return config, draw(st.permutations(Ls)), p1s, per_chunk * n


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_grid_rows_equal_its_cells_run_one_at_a_time(case):
    # Every cell of a grid reads the grid's shared raw draws, and batches run
    # at each cell's own width or early under the pending budget; none of
    # that changes a row, to the last bit.
    config, Ls, p1s, rows = case
    with mock.patch.object(simulation, "ROWS", rows):
        bias, size = _run_grid(config, Ls, p1s)
        want_bias, want_size = [], []
        for cell in simulation._cell_configs(config, Ls, p1s):
            cell_bias, cell_size = _run_grid(cell)
            want_bias += cell_bias
            want_size += cell_size
    assert summarize(bias) == summarize(want_bias)
    assert summarize(size) == summarize(want_size)


def test_monte_carlo_grid_traced_peak():
    # The benchmark's grid (n = 3000, L = 25 and 300): traced peak 922 KB
    # above what is allocated before, against 775 KB when each cell drew its
    # own rows.  The L = 25 cell reduces its rows while the raw chunk (288
    # KB) is kept for L = 300, and each cell's batch runs while the other
    # cell's chunks are pending.  A first call keeps the cells' layouts,
    # which are not counted.
    config = SimConfig(n=3000, replications=100, master_seed=1941)

    def run():
        _run_grid(config, [25, 300], [0.49])

    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 990 * 1024, peak / 1024


def test_grid_reads_each_layout_once(monkeypatch):
    # 40 distinct L values, more than the layout cache holds, by 2 p1 values
    # and in 3 row chunks: each layout is computed once for the grid, and
    # the cells that share L share it.
    config = SimConfig(n=120, replications=5, master_seed=2)
    cells = simulation._cell_configs(config, range(1, 41), [0.3, 0.49])
    seen = {}
    real_run_batch = simulation._run_batch

    def run_batch(cell, layout, *args):
        assert seen.setdefault(cell.L, layout) is layout
        return real_run_batch(cell, layout, *args)

    monkeypatch.setattr(simulation, "ROWS", 2 * config.n)
    monkeypatch.setattr(simulation, "_run_batch", run_batch)
    simulation._layout.cache_clear()
    _replications(cells, DEFAULT_ESTIMATORS, _VARIANTS, 0.05)
    assert simulation._layout.cache_info().misses == 40
    assert len(seen) == 40


def test_full_scale_grid_traced_peak():
    # full_scale.json's 35 cells (7 L by 5 p1) at n = 3000 and 100
    # replications: traced peak 1,963 KB above what is allocated before,
    # against 2,264 KB when each result was a Python float in a list.  A
    # first call keeps the layouts, which are not counted.
    config = SimConfig(n=3000, replications=100, master_seed=20260817)

    def run():
        _run_grid(config, [1, 2, 25, 50, 100, 200, 300], [0.29, 0.39, 0.49, 0.59, 0.69])

    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2000 * 1024, peak / 1024
