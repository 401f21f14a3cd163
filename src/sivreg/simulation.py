"""Monte Carlo harness: data generation, bias and size grids, summaries.

The synthetic design draws a covariate X from a low-discrepancy sequence, a
binary instrument Q whose propensity is cubic in X, and a binary treatment
driven by a latent normal shifted by Q, so the complier share in every group
is ``p1 - p0``.  Outcomes combine a smooth X-effect, a (possibly
heterogeneous) treatment effect, and an error correlated with the latent
treatment shock.  Experiments sweep the number of covariate values L and the
treated threshold p1, recording median bias and test size per grid cell.

Replications are drawn in row chunks once for the whole grid; each cell
reads its layout (``_Layout``) once, reduces its rows of a chunk at once to
per-(cell, arm) statistics and joins whole chunks along a leading axis into
table batches (``design._DesignStack``) for the same moment tables,
estimators and variances as one design, each failed check a per-draw flag.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import numbers
import csv as _csv
from array import array
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .blockops import _Atoms, _CellMoments
from .design import (
    GroupAudit,
    Sample,
    SaturatedDesign,
    _DesignStack,
    _require_number,
    filter_design,
    validate_group_sizes,
)
from .estimators import (
    EstimatorKind,
    PopulationInputs,
    _estimates,
    _shared_effect,
    population_estimand,
    population_moments,
)
from .inference import _chao_variance, _sive_variance, _t_rejects

__all__ = [
    "SimConfig",
    "SimDraw",
    "halton",
    "propensity",
    "outcome_level",
    "generate_sample",
    "replication_seed",
    "run_bias_experiment",
    "run_size_experiment",
    "summarize",
    "SUMMARY_COLUMNS",
]

# Propensity clamp: the cubic is only guaranteed inside (0,1) for part of the
# unit interval, so Bernoulli draws use probabilities in [CLAMP, 1-CLAMP].
CLAMP = 0.01

# Rows per chunk of stacked replications: a chunk holds max(1, ROWS // n)
# draws, which bounds its temporaries to a few ROWS-long arrays.  A table
# batch of whole chunks holds up to ROWS // 5 cell entries per array, since
# the tables keep about five times as many arrays alive as the rows do.
ROWS = 12_000

# The layout version every JSON report and artifact carries.
SCHEMA_VERSION = 1

SUMMARY_COLUMNS = (
    "experiment",
    "L",
    "p1",
    "h",
    "estimator",
    "metric",
    "value",
    "mc_se",
    "replications",
)

DEFAULT_ESTIMATORS = (
    EstimatorKind.SIVE,
    EstimatorKind.TSLS_SATURATED,
    EstimatorKind.JIVE1,
    EstimatorKind.JIVE2,
)
_VARIANTS = ("vhat", "chao")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte Carlo cell.

    ``n_hetero`` left as None resolves to min(900, n), the reference count
    capped so small test configs remain valid.
    """

    n: int = 3000
    L: int = 1
    p0: float = 0.22
    p1: float = 0.49
    rho: float = 0.527
    beta: float = 0.2
    h: float = 0.0
    n_hetero: int | None = None
    replications: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "L", "n_hetero", "replications", "master_seed"):
            value = getattr(self, name)
            if not (name == "n_hetero" and value is None):  # None: resolved below
                object.__setattr__(self, name, _integer(name, value))
        for name in ("p0", "p1", "rho", "beta", "h"):
            _require_number(name, getattr(self, name))
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.L < 1:
            raise ValueError("L must be at least 1")
        for name in ("p0", "p1"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        if not abs(self.rho) < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if self.n_hetero is None:
            object.__setattr__(self, "n_hetero", min(900, self.n))
        if not 0 <= self.n_hetero <= self.n:
            raise ValueError("n_hetero must lie in [0, n]")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a fraction or a non-number raises."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SimDraw:
    """One simulated dataset after size filtering, with its population truth.

    ``truth`` holds per-group complier shares ``pi`` (all equal to p1 - p0),
    per-group effects ``tau``, and the implied estimand ``beta_sive``.  The
    ``audit`` records which raw covariate groups the size filter dropped.
    """

    design: SaturatedDesign
    sample: Sample
    truth: dict
    audit: GroupAudit


def halton(index: int, base: int = 2) -> float:
    """Radical-inverse value of ``index`` in the given base.

    The sequence starts at index 1; index 0 would map every base to 0 and is
    rejected.
    """
    if index < 1:
        raise ValueError("halton index starts at 1")
    if base < 2:
        raise ValueError("halton base must be at least 2")
    value = 0.0
    scale = 1.0
    i = int(index)
    while i > 0:
        scale /= base
        value += scale * (i % base)
        i //= base
    return value


def propensity(x) -> np.ndarray:
    """Instrument propensity: a cubic in x, clamped away from 0 and 1."""
    x = np.asarray(x, dtype=np.float64)
    raw = 0.119 + 1.785 * x - 1.534 * x**2 + 0.597 * x**3
    return np.clip(raw, CLAMP, 1.0 - CLAMP)


def outcome_level(x) -> np.ndarray:
    """Baseline outcome component: log of a positive cubic in x."""
    x = np.asarray(x, dtype=np.float64)
    return np.log(129.7 + 1247.7 * x - 2149.0 * x**2 + 1515.7 * x**3)


def replication_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Independent, order-insensitive seed for one replication."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


class _Layout:
    """What no draw of a cell with (n, L, n_hetero, h) changes, computed once
    per grid (``_layout``), every array read-only.

    X cycles through the first L radical-inverse points, and since they are
    distinct, row i is in group ``group_of[i] = i mod L`` keyed by its
    point, as ``build_design(x, q)`` would number it.  ``prop`` and ``level``
    are ``propensity(x)`` and ``outcome_level(x)``, ``gamma`` the effect per
    row in units of beta (1 + h on the n_hetero rows of smallest X, ties in
    row order, else 1) and ``mean`` its group means.
    """

    def __init__(self, n: int, L: int, n_hetero: int, h: float):
        points = np.array([halton(i, 2) for i in range(1, L + 1)])
        group_of = self.group_of = np.arange(n) % L
        x = self.x = points[group_of]
        self.keys = tuple((point,) for point in points[:n].tolist())
        self.prop, self.level = propensity(x), outcome_level(x)
        gamma = self.gamma = np.ones(n)
        gamma[np.argsort(x, kind="stable")[:n_hetero]] = 1.0 + h
        self.mean = np.bincount(group_of, weights=gamma) / np.bincount(group_of)
        for arr in (group_of, x, self.prop, self.level, gamma, self.mean):
            arr.setflags(write=False)


# A cell's layout, computed once and shared by every cell with its key.
_layout = functools.lru_cache(maxsize=32)(_Layout)


def _raw_draw(config: SimConfig, seeds: list) -> list:
    """``[U, Z0, eps]``, each (R, n): draw r fills row r from
    ``default_rng(seeds[r])`` with n uniforms U and 2n normals Z0, Z1, and
    eps = rho Z0 + sqrt(1 - rho^2) Z1; a grid's cells share them all."""
    n = config.n
    U, Z0, Z1 = (np.empty((len(seeds), n)) for _ in range(3))
    for u, z0, z1, seed in zip(U, Z0, Z1, seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=u)
        rng.standard_normal(out=z0)
        rng.standard_normal(out=z1)
    # eps with its terms swapped, which leaves every bit as it is.
    Z1 *= math.sqrt(1.0 - config.rho**2)
    Z1 += Z0 * config.rho
    return [U, Z0, Z1]


def _cell_rows(cell: SimConfig, layout: _Layout, raw: list, last: bool) -> tuple:
    """Instrument q, treated flag ``T == 1`` and outcome Y, each (R, n), of
    ``cell`` on the draws ``raw`` (``_raw_draw``), before the size filter.
    The ``last`` cell to read ``raw`` empties it and writes Y over U."""
    U, Z0, eps = raw
    if last:
        raw.clear()
    q = U < layout.prop
    # ndtr(u) <= p, with ndtr inverted once per instrument arm.
    treated = Z0 <= np.take([ndtri(cell.p0), ndtri(cell.p1)], q)
    # Y = level + beta gamma T + eps, its terms swapped: every bit the same.
    Y = np.multiply(cell.beta * layout.gamma, treated, out=U if last else None)
    Y += layout.level
    Y += eps
    return q, treated, Y


def generate_sample(config: SimConfig, seed=None) -> SimDraw:
    """Draw one dataset and compute its population truth.

    X cycles through the first L points of the base-2 radical-inverse
    sequence (observation i gets point i mod L), so group sizes are as equal
    as possible.  Groups with fewer than two treated-eligible or two
    ineligible observations are dropped before anything else is computed.
    """
    layout = _layout(config.n, config.L, config.n_hetero, config.h)
    draws = _raw_draw(config, [config.master_seed if seed is None else seed])
    q, t, y = (v[0] for v in _cell_rows(config, layout, draws, last=True))
    raw = SaturatedDesign(layout.group_of, q, group_keys=layout.keys)
    audit = validate_group_sizes(raw, min_active=2, min_inactive=2)
    design, sample = filter_design(raw, audit, Sample(outcome=y, treatment=t))

    tau = config.beta * layout.mean[list(audit.kept_groups)]
    pi = np.full(design.G, config.p1 - config.p0)
    truth = {
        "pi": pi,
        "tau": tau,
        "beta_sive": population_estimand(
            EstimatorKind.SIVE, design, PopulationInputs(pi=pi, tau=tau)
        ),
    }
    return SimDraw(design=design, sample=sample, truth=truth, audit=audit)


def _truth(cell: SimConfig, layout: _Layout, stack: _DesignStack, finite) -> tuple:
    """Per draw of ``stack``, its ``beta_sive`` (NaN where undefined, as for
    a draw that keeps no group) and whether it is valid: finite and with a
    defined ``beta_sive``; the others are attrition for everything.  Each
    draw's values are its own, however many draws the stack holds."""
    tau = cell.beta * layout.mean
    inputs = PopulationInputs(pi=cell.p1 - cell.p0, tau=tau)
    num, den = population_moments(EstimatorKind.SIVE, stack, inputs)
    out = _shared_effect(tau, stack.keep) if (den == 0.0).any() else np.empty(den.shape)
    truth = np.divide(num, den, out=out, where=den != 0.0)
    return truth, finite & ~np.isnan(truth)


def _cell_configs(config: SimConfig, L_values, p1_values) -> list:
    """One validated config per grid cell, L major."""
    Ls = tuple(L_values) if L_values is not None else (config.L,)
    p1s = tuple(p1_values) if p1_values is not None else (config.p1,)
    return [dataclasses.replace(config, L=L, p1=p1) for L in Ls for p1 in p1s]


def _median_se(errors) -> float:
    """Standard error of the median from its distribution-free 95% interval.

    The interval runs from the order statistic x_(l) to x_(n+1-l), where l is
    the 2.5% quantile of Binomial(n, 1/2) (and n+1-l one above the 97.5%
    quantile).  Its half-width over z_0.975 stays valid for heavy-tailed
    errors, where a normal-theory sd/sqrt(n) formula is driven by the tails.
    """
    x = np.sort(np.asarray(errors, dtype=np.float64))
    lower = max(_binomial_half_quantile(x.size) - 1, 0)
    upper = x.size - 1 - lower
    return float(x[upper] - x[lower]) / (2.0 * ndtri(0.975))


def _binomial_half_quantile(n: int) -> int:
    """The 2.5% quantile of Binomial(n, 1/2), in exact integer arithmetic.

    It is the first k with P(X <= k) >= 0.025, that is with
    40 * sum_{j <= k} C(n, j) >= 2**n.  Floats would overflow 2**n past
    n = 1023.
    """
    target = 1 << n
    k, term, total = 0, 1, 1
    while 40 * total < target:
        term = term * (n - k) // (k + 1)
        k += 1
        total += term
    return k


def _rows(
    experiment: str, cell: SimConfig, label: str, metrics, used: int, requested: int
) -> list:
    """One row per ``(metric, value, mc_se)`` over ``used`` draws, then the
    cell's attrition row over all ``requested``."""
    base = dict(experiment=experiment, L=cell.L, p1=cell.p1, h=cell.h, estimator=label)
    rows = [
        dict(base, metric=metric, value=value, mc_se=se, replications=used)
        for metric, value, se in metrics
    ]
    attrition = (requested - used) / requested
    return rows + [dict(base, metric="attrition", value=attrition, mc_se=None,
                        replications=requested)]


def _median_rows(cell: SimConfig, label: str, errors, requested: int) -> list:
    used = len(errors)
    if used:
        med = float(np.median(errors))
        se = _median_se(errors) if used > 1 else None
    else:
        med, se = None, None
    metrics = [
        ("median_bias", med, se),
        ("abs_median_bias", None if med is None else abs(med), se),
    ]
    return _rows("bias", cell, label, metrics, used, requested)


def _rate_rows(cell: SimConfig, label: str, hits, requested: int) -> list:
    used = len(hits)
    if used:
        rate = float(np.mean(hits))
        se = math.sqrt(rate * (1.0 - rate) / used)
    else:
        rate, se = None, None
    return _rows("size", cell, label, [("reject_rate", rate, se)], used, requested)


def _widths(n: int, G: int) -> tuple[int, int]:
    """Draws per row chunk and row chunks per table batch, for draws of n
    rows on G groups: max(1, ROWS // n) draws, and as many whole chunks as
    keep a batch within ROWS // 5 cell entries (2G per draw), at least one."""
    chunk = max(1, ROWS // n)
    return chunk, max(1, ROWS // 5 // (2 * G * chunk))


def _replications(cells: list, estimators: tuple, variants: tuple, alpha: float) -> list:
    """Per cell of a grid (they differ only in L and p1), each estimator's
    errors and each variant's t-test rejections (1.0 or 0.0) over the
    replications that yield them, in replication order, as ``array("d")``.

    Replication r of every cell is drawn from ``replication_seed(master_seed,
    r)``, so each row chunk of max(1, ROWS // n) replications is drawn once
    for the grid, and each cell reduces its rows of it at once (``_reduce``).
    A cell's chunks join into table batches of up to ROWS // 5 cell entries
    (``_widths``, ``_run_batch``); past ROWS entries pending in all cells
    together (a chunk counting 32 more, about its arrays' fixed cost), the
    cell holding the most runs its batch early.
    """
    first = cells[0]
    results = [tuple({key: array("d") for key in keys} for keys in (estimators, variants))
               for _ in cells]
    layouts = [_layout(cell.n, cell.L, cell.n_hetero, cell.h) for cell in cells]
    widths = [_widths(first.n, min(first.n, cell.L)) for cell in cells]  # the layout's G
    pending, held = [[] for _ in cells], [0] * len(cells)

    def run(i: int) -> None:
        parts, pending[i], held[i] = pending[i], [], 0
        _run_batch(cells[i], layouts[i], parts, *results[i], alpha)

    chunk = widths[0][0]
    for start in range(0, first.replications, chunk):
        reps = range(start, min(start + chunk, first.replications))
        raw = _raw_draw(first, [replication_seed(first.master_seed, rep) for rep in reps])
        for i, (cell, layout) in enumerate(zip(cells, layouts)):
            last_cell = i == len(cells) - 1
            pending[i].append(_reduce(layout, *_cell_rows(cell, layout, raw, last_cell)))
            held[i] += pending[i][-1][0].size + 32  # a chunk's fixed cost
            while sum(held) > ROWS:
                run(held.index(max(held)))
        last = start + chunk >= first.replications
        for i, parts in enumerate(pending):  # due batches, once the rows are gone
            if parts and (last or len(parts) == widths[i][1]):
                run(i)
    return results


def _reduce(layout: _Layout, q, treated, Y) -> tuple:
    """A chunk's rows of a cell (``_cell_rows``) on ``layout`` reduced to
    ``(counts, atoms, finite)``: its per-(group, arm) counts, its (cell, arm)
    atoms, zero on the groups a draw drops and on every group of a draw
    whose Y is not finite, and per draw whether its Y is finite."""
    stack = _DesignStack.of_rows(layout.group_of, q)
    finite = np.isfinite(Y).all(axis=1)
    dropped = np.repeat(~(stack.keep & finite[:, None]), 2, axis=1)
    return stack.counts, _Atoms(stack, None, Y, treated, dropped), finite


def _run_batch(cell: SimConfig, layout: _Layout, parts, errors, hits, alpha: float):
    """Append the errors and rejections of the chunks ``parts`` (a list of
    ``_reduce`` results, in replication order, emptied as they are joined)
    to the float64 buffers ``errors`` (per estimator) and ``hits`` (per variant).

    The chunks join along the draw axis into one stack, whose design
    constants and population truth (``_truth``) are computed once, and
    their atoms into one set (the chunks' own counts and atoms are then
    freed).  It builds one moment table at center 0 for every estimator
    and, when variants are requested, one on the same atoms at each draw's
    SIVE estimate, whose forms both variances share; the atoms go once it
    has summed the variances' sums.  Errors and tests are against each
    draw's own ``beta_sive``.  A failed draw is attrition for everything, a
    failed estimate for its own estimator (SIVE's also for every variant),
    and a variance that is not positive for its own variant.
    """
    kinds = tuple(errors)
    if hits and EstimatorKind.SIVE not in kinds:
        kinds += (EstimatorKind.SIVE,)
    counts, atoms, finite = zip(*parts)
    parts.clear()
    stack, atoms = _DesignStack(np.concatenate(counts)), _Atoms.join(atoms)
    del counts
    truth, valid = _truth(cell, layout, stack, np.concatenate(finite))
    table = _CellMoments(stack, atoms)
    estimates = {kind: _estimates(kind, table) for kind in kinds}
    for kind in errors:
        ok = valid & ~np.isnan(estimates[kind])
        # A byte view of the values, appended to the buffer without a copy.
        errors[kind].frombytes(memoryview(estimates[kind][ok] - truth[ok]).cast("B"))
    if not hits:
        return
    beta_hat = estimates[EstimatorKind.SIVE]
    ok = valid & ~np.isnan(beta_hat)
    if not ok.any():
        return
    center = np.where(ok, beta_hat, 0.0)[:, None]
    at_beta_hat = _CellMoments(stack, atoms, center)
    at_beta_hat.variance_sums()  # before the atoms go: both variances read only these
    del atoms, table.atoms, at_beta_hat.atoms
    for variant in hits:
        variance = (_sive_variance if variant == "vhat" else _chao_variance)(at_beta_hat)
        # t_test's own rule: a variance that is not positive (or NaN) is not tested.
        tested = ok & (variance > 0.0)
        rejects = _t_rejects(beta_hat[tested], variance[tested], truth[tested], alpha)
        hits[variant].frombytes(memoryview(rejects.astype(np.float64)).cast("B"))


def _run_grid(
    config: SimConfig,
    L_values=None,
    p1_values=None,
    estimators=DEFAULT_ESTIMATORS,
    variants=_VARIANTS,
    alpha: float = 0.05,
) -> tuple[list, list]:
    """Bias rows and size rows from one draw per (cell, replication).

    Each draw gives every estimator's error and every variant's t-test (see
    ``_replications``).  The arguments and every grid cell's config are
    checked before the first draw.
    """
    for kind in estimators:
        if kind not in DEFAULT_ESTIMATORS:
            raise ValueError(f"not a blockwise estimator: {kind!r}")
    for variant in variants:
        if variant not in _VARIANTS:
            raise ValueError(f"unknown variance variant: {variant!r}")

    bias_rows, size_rows = [], []
    cells = _cell_configs(config, L_values, p1_values)
    results = _replications(cells, tuple(estimators), tuple(variants), alpha)
    for cell, (errors, hits) in zip(cells, results):
        for kind in estimators:
            bias_rows += _median_rows(cell, kind.value, errors[kind], cell.replications)
        for variant in variants:
            size_rows += _rate_rows(
                cell, f"sive_{variant}", hits[variant], cell.replications
            )
    return bias_rows, size_rows


def run_bias_experiment(
    config: SimConfig,
    L_values=None,
    p1_values=None,
    estimators=DEFAULT_ESTIMATORS,
) -> list:
    """Median bias of each estimator over an L-by-p1 grid.

    Each grid cell runs ``config.replications`` draws; per-replication errors
    are estimates minus that draw's own ``beta_sive``.  A failed replication
    (degenerate design, weak denominator, ...) is excluded from the median
    and counted in the cell's attrition rows.  Only the four blockwise
    estimators are accepted.
    """
    return _run_grid(config, L_values, p1_values, estimators, variants=())[0]


def run_size_experiment(
    config: SimConfig,
    L_values=None,
    p1_values=None,
    variance_variants=_VARIANTS,
    alpha: float = 0.05,
) -> list:
    """Rejection rate of the SIVE t-test at the true estimand.

    Each replication tests H0: beta = beta_sive (that draw's own truth) with
    the heterogeneity-robust variance ("vhat") and/or the comparison
    estimator ("chao").  Nonpositive variances and estimation failures count
    as attrition, not as rejections.
    """
    return _run_grid(config, L_values, p1_values, (), variance_variants, alpha)[1]


def _json_ready(obj):
    """``obj`` for ``json.dumps``: tuples as lists, an integer as an int, any
    other real number as a float, or None if it is not finite."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def summarize(rows, csv_path=None, json_path=None) -> tuple[str, str]:
    """Render experiment rows as CSV and JSON text, optionally writing files.

    Columns appear in the fixed order of ``SUMMARY_COLUMNS``; missing values
    are empty CSV fields and JSON nulls.  Numbers are written with full
    round-trip precision so the two artifacts carry identical values.
    """
    normalized = [{c: _json_ready(row[c]) for c in SUMMARY_COLUMNS} for row in rows]

    buffer = io.StringIO()
    writer = _csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for row in normalized:
        writer.writerow(
            ["" if row[col] is None else str(row[col]) for col in SUMMARY_COLUMNS]
        )
    csv_text = buffer.getvalue()

    json_text = (
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "columns": list(SUMMARY_COLUMNS),
                "rows": normalized,
            },
            indent=2,
            allow_nan=False,
        )
        + "\n"
    )

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json_text)
    return csv_text, json_text
