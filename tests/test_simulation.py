"""Simulation harness: sequences, DGP, experiment runners and summaries."""

import json

import numpy as np
import pytest
from scipy.stats import binom, norm

from sivreg import simulation
from sivreg.cli import cmd_simulate, main
from sivreg.estimators import EstimatorKind
from sivreg.simulation import (
    SUMMARY_COLUMNS,
    SimConfig,
    _median_rows,
    generate_sample,
    halton,
    outcome_level,
    propensity,
    replication_seed,
    run_bias_experiment,
    run_size_experiment,
    summarize,
)


def test_halton_base_two_frozen():
    assert halton(1, 2) == 0.5
    assert halton(2, 2) == 0.25
    assert halton(3, 2) == 0.75
    assert halton(4, 2) == 0.125


def test_halton_base_three_frozen():
    assert abs(halton(1, 3) - 1 / 3) < 1e-15
    assert abs(halton(2, 3) - 2 / 3) < 1e-15
    assert abs(halton(3, 3) - 1 / 9) < 1e-15


def test_halton_points_distinct_in_unit_interval():
    points = [halton(i, 2) for i in range(1, 301)]
    assert len(set(points)) == 300
    assert all(0.0 < p < 1.0 for p in points)


def test_halton_rejects_bad_arguments():
    with pytest.raises(ValueError):
        halton(0, 2)
    with pytest.raises(ValueError):
        halton(1, 1)


def test_propensity_cubic_and_clamping():
    assert abs(propensity(0.0) - 0.119) < 1e-12
    assert propensity(-1.0) == 0.01
    assert propensity(2.0) == 0.99
    inside = propensity(np.linspace(0.0, 1.0, 50))
    assert np.all((inside >= 0.01) & (inside <= 0.99))


def test_outcome_level_positive_argument():
    assert np.isfinite(outcome_level(0.0))
    assert np.isfinite(outcome_level(1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(rho=1.5)
    with pytest.raises(ValueError):
        SimConfig(p1=1.5)
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    with pytest.raises(ValueError):
        SimConfig(n=100, n_hetero=101)
    with pytest.raises(ValueError):
        SimConfig(L=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("replications", 2.5),
        ("master_seed", 1.5),
        ("n", 300.5),
        ("n", "300"),
        ("L", [2.7]),
        ("replications", True),
        ("h", float("nan")),
        ("beta", float("inf")),
        ("alpha", "0.1"),
        # an integer past the float range, which math.isfinite cannot convert
        pytest.param("rho", 10**400, id="rho-10**400"),
        ("master_seed", -1),
    ],
)
def test_simulate_rejects_bad_config_value(tmp_path, capsys, field, value):
    # Each of these used to end in a traceback (exit 1), run on a truncated
    # or coerced value, or count every replication as attrition.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 200, "replications": 2, field: value}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_config_integers_are_normalized_and_every_grid_value_checked(tmp_path):
    cfg = SimConfig(n=300.0, L=np.int64(4), replications=2.0, beta=1)
    assert (cfg.n, cfg.L, cfg.replications, cfg.beta) == (300, 4, 2, 1)
    assert all(type(v) is int for v in (cfg.n, cfg.L, cfg.replications, cfg.beta))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 200, "L": [2, 3.5], "replications": 2}))
    with pytest.raises(ValueError, match="L must be an integer, got 3.5"):
        cmd_simulate(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_config_hetero_count_defaults():
    assert SimConfig(n=3000).n_hetero == 900
    assert SimConfig(n=200).n_hetero == 200
    assert SimConfig(n=3000, n_hetero=10).n_hetero == 10


def test_replication_seeds_are_order_free():
    a = replication_seed(7, 3).generate_state(4)
    b = replication_seed(7, 3).generate_state(4)
    c = replication_seed(7, 4).generate_state(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_homogeneous_draw_truth():
    cfg = SimConfig(n=3000, L=25, h=0.0, master_seed=1)
    draw = generate_sample(cfg)
    np.testing.assert_allclose(draw.truth["tau"], 0.2)
    np.testing.assert_allclose(draw.truth["pi"], cfg.p1 - cfg.p0)
    assert abs(draw.truth["beta_sive"] - 0.2) < 1e-12
    assert draw.design.n == draw.sample.n


def test_draw_is_deterministic_in_seed():
    cfg = SimConfig(n=400, L=4, master_seed=0)
    seed = replication_seed(11, 2)
    a = generate_sample(cfg, replication_seed(11, 2))
    b = generate_sample(cfg, seed)
    np.testing.assert_array_equal(a.design.group_of, b.design.group_of)
    np.testing.assert_array_equal(a.design.instrument, b.design.instrument)
    np.testing.assert_array_equal(a.sample.outcome, b.sample.outcome)
    np.testing.assert_array_equal(a.sample.treatment, b.sample.treatment)


def test_ineligible_take_up_matches_baseline_rate():
    cfg = SimConfig(n=3000, L=1, master_seed=5)
    draw = generate_sample(cfg)
    t = draw.sample.treatment
    q = draw.design.instrument
    rate = t[q == 0].mean()
    n0 = int((q == 0).sum())
    assert abs(rate - cfg.p0) < 3.0 * np.sqrt(cfg.p0 * (1 - cfg.p0) / n0)


def test_group_filter_keeps_usable_designs_at_scale():
    # moderate grids survive intact; with 200 groups of 15 the extreme
    # propensity values lose their cells, but most of the sample remains
    draw = generate_sample(SimConfig(n=3000, L=25, master_seed=2))
    assert draw.design.n == 3000
    assert draw.design.G == 25
    draw = generate_sample(SimConfig(n=3000, L=200, master_seed=2))
    assert draw.design.n / 3000 > 0.5
    assert draw.design.G > 100
    assert len(draw.audit.violations) + len(draw.audit.kept_groups) == 200


def test_heterogeneity_goes_to_smallest_covariate_values():
    # two groups of 8 at x = 0.5 and x = 0.25; the 8 boosted observations
    # are exactly the x = 0.25 group
    cfg = SimConfig(n=16, L=2, h=3.0, n_hetero=8, master_seed=3)
    draw = generate_sample(cfg)
    assert draw.design.G == 2
    by_key = dict(zip(draw.design.group_keys, draw.truth["tau"]))
    assert abs(by_key[(0.25,)] - 0.8) < 1e-12
    assert abs(by_key[(0.5,)] - 0.2) < 1e-12
    lo, hi = min(draw.truth["tau"]), max(draw.truth["tau"])
    assert lo <= draw.truth["beta_sive"] <= hi


def test_covariate_layout_is_computed_once_and_read_only():
    from sivreg.simulation import _layout

    layout = _layout(50, 7, 20, 1.5)
    assert _layout(50, 7, 20, 1.5) is layout
    x, group_of = layout.x, layout.group_of
    arrays = (x, group_of, layout.prop, layout.level, layout.gamma, layout.mean)
    assert not any(a.flags.writeable for a in arrays)
    points = [halton(i, 2) for i in range(1, 8)]
    assert x.tolist() == [points[i % 7] for i in range(50)]
    assert group_of.tolist() == [i % 7 for i in range(50)]
    assert layout.keys == tuple((p,) for p in points)
    assert layout.prop.tobytes() == propensity(x).tobytes()
    assert layout.level.tobytes() == outcome_level(x).tobytes()
    # The shifted effect on the 20 rows of smallest X, ties in row order.
    gamma = np.ones(50)
    gamma[np.argsort(x, kind="stable")[:20]] = 2.5
    assert layout.gamma.tolist() == gamma.tolist()
    means = [gamma[group_of == g].mean() for g in range(7)]
    np.testing.assert_allclose(layout.mean, means, rtol=1e-15)


@pytest.mark.parametrize("n, L", [(40, 1), (5, 9), (3000, 300)])
def test_covariate_layout_design_matches_build_design(n, L):
    from sivreg import SaturatedDesign, build_design
    from sivreg.simulation import _layout

    layout = _layout(n, L, 0, 0.0)
    q = np.random.default_rng(n + L).integers(0, 2, n)
    mine = SaturatedDesign(layout.group_of, q, group_keys=layout.keys)
    built = build_design(layout.x, q)
    assert mine.group_of.tolist() == built.group_of.tolist()
    assert mine.group_keys == built.group_keys
    assert mine.group_sizes.tolist() == built.group_sizes.tolist()
    assert mine.treated_counts.tolist() == built.treated_counts.tolist()


def test_bias_rows_have_fixed_shape():
    cfg = SimConfig(n=200, L=1, replications=3, master_seed=4)
    rows = run_bias_experiment(cfg, L_values=[1, 2], p1_values=[0.49])
    assert all(set(r) == set(SUMMARY_COLUMNS) for r in rows)
    # 2 cells x 4 estimators x 3 metrics
    assert len(rows) == 24
    metrics = {r["metric"] for r in rows}
    assert metrics == {"median_bias", "abs_median_bias", "attrition"}
    for r in rows:
        if r["metric"] == "attrition":
            assert 0.0 <= r["value"] <= 1.0
            assert r["replications"] == 3


def test_bias_every_draw_failing_counts_as_attrition():
    # no first stage but heterogeneous group effects: the estimand itself is
    # undefined, so every replication is dropped
    cfg = SimConfig(
        n=120, L=2, p1=0.22, p0=0.22, h=2.0, n_hetero=30, replications=3, master_seed=0
    )
    rows = run_bias_experiment(cfg)
    for r in rows:
        if r["metric"] == "attrition":
            assert r["value"] == 1.0
        else:
            assert r["value"] is None
            assert r["replications"] == 0


def test_size_rows_have_fixed_shape():
    cfg = SimConfig(n=300, L=1, replications=4, master_seed=6)
    rows = run_size_experiment(cfg, L_values=[1], p1_values=[0.49, 0.69])
    assert all(set(r) == set(SUMMARY_COLUMNS) for r in rows)
    # 2 cells x 2 variants x 2 metrics
    assert len(rows) == 8
    labels = {r["estimator"] for r in rows}
    assert labels == {"sive_vhat", "sive_chao"}
    for r in rows:
        if r["metric"] == "reject_rate" and r["value"] is not None:
            assert 0.0 <= r["value"] <= 1.0


def test_size_rejects_unknown_variant():
    cfg = SimConfig(n=300, replications=2)
    with pytest.raises(ValueError, match="variant"):
        run_size_experiment(cfg, variance_variants=("vhat", "bootstrap"))


def test_bias_rejects_generic_estimator_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample before validating the estimators")

    monkeypatch.setattr(simulation, "_raw_draw", no_draw)
    cfg = SimConfig(n=300, replications=2)
    with pytest.raises(ValueError, match="blockwise"):
        run_bias_experiment(cfg, estimators=(EstimatorKind.TSLS_GENERIC,))


def test_summarize_empty_rows_is_header_only():
    csv_text, json_text = summarize([])
    assert csv_text == ",".join(SUMMARY_COLUMNS) + "\n"
    payload = json.loads(json_text)
    assert payload["schema_version"] == 1
    assert payload["columns"] == list(SUMMARY_COLUMNS)
    assert payload["rows"] == []


def test_summarize_none_becomes_empty_field_and_null():
    row = {
        "experiment": "bias",
        "L": 1,
        "p1": 0.49,
        "h": 0.0,
        "estimator": "sive",
        "metric": "median_bias",
        "value": None,
        "mc_se": None,
        "replications": 0,
    }
    csv_text, json_text = summarize([row])
    line = csv_text.splitlines()[1]
    assert line == "bias,1,0.49,0.0,sive,median_bias,,,0"
    assert json.loads(json_text)["rows"][0]["value"] is None


def test_summarize_csv_and_json_carry_identical_numbers():
    cfg = SimConfig(n=200, L=1, replications=3, master_seed=8)
    rows = run_bias_experiment(cfg, L_values=[1], p1_values=[0.49])
    csv_text, json_text = summarize(rows)
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    parsed = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for csv_row, json_row in zip(parsed, json.loads(json_text)["rows"]):
        for col in ("value", "mc_se"):
            if csv_row[col] == "":
                assert json_row[col] is None
            else:
                assert float(csv_row[col]) == json_row[col]


def test_summarize_writes_files(tmp_path):
    cfg = SimConfig(n=200, L=1, replications=2, master_seed=9)
    rows = run_size_experiment(cfg, variance_variants=("vhat",))
    csv_path = tmp_path / "size.csv"
    json_path = tmp_path / "size.json"
    csv_text, json_text = summarize(rows, csv_path=csv_path, json_path=json_path)
    assert csv_path.read_text() == csv_text
    assert json_path.read_text() == json_text


def test_experiment_rows_are_reproducible():
    cfg = SimConfig(n=200, L=2, replications=3, master_seed=10)
    a = run_bias_experiment(cfg, L_values=[1], p1_values=[0.39])
    b = run_bias_experiment(cfg, L_values=[1], p1_values=[0.39])
    assert summarize(a)[0] == summarize(b)[0]


def test_median_mc_se_tracks_spread_of_medians_under_heavy_tails():
    # Cauchy errors: the median's seed-to-seed spread is about pi / (2 sqrt(n)),
    # while a normal-theory sd / sqrt(n) formula is driven by the tails.
    cell = SimConfig(n=200, replications=1)
    medians, ses = [], []
    for seed in range(300):
        errors = np.random.default_rng(seed).standard_cauchy(201)
        row = _median_rows(cell, "sive", list(errors), 201)[0]
        medians.append(row["value"])
        ses.append(row["mc_se"])
    x = np.sort(errors)
    lower = int(binom.ppf(0.025, x.size, 0.5)) - 1
    reference = float(x[x.size - 1 - lower] - x[lower]) / (2.0 * float(norm.ppf(0.975)))
    assert ses[-1] == reference
    ratio = float(np.median(ses)) / float(np.std(medians, ddof=1))
    assert 0.8 <= ratio <= 1.25


def _simulate(tmp_path, **config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    cmd_simulate(path, out)
    return out


def test_simulate_draws_each_replication_once(monkeypatch, tmp_path):
    # Replication r of every grid cell has the same seed, so it is drawn
    # once for the whole grid: 3 raw draws for 2 x 2 cells of 3 replications.
    real = simulation._raw_draw
    keys = []

    def counted(cell, seeds):
        keys.extend(seed.spawn_key for seed in seeds)
        return real(cell, seeds)

    monkeypatch.setattr(simulation, "_raw_draw", counted)
    _simulate(tmp_path, n=200, L=[1, 2], p1=[0.49, 0.69], replications=3)
    assert sorted(keys) == [(0,), (1,), (2,)]


def test_simulate_files_equal_separate_experiments(tmp_path):
    # Weak and unidentified cells, so some attrition rows are nonzero.
    Ls, p1s = [2, 10], [0.22, 0.3]
    scalars = {"n": 120, "h": 2.0, "n_hetero": 30, "replications": 8, "master_seed": 1}
    out = _simulate(tmp_path, L=Ls, p1=p1s, alpha=0.1, **scalars)
    cfg = SimConfig(**scalars)
    bias = summarize(run_bias_experiment(cfg, Ls, p1s))
    size = summarize(run_size_experiment(cfg, Ls, p1s, alpha=0.1))
    assert (out / "bias.csv").read_text() == bias[0]
    assert (out / "bias.json").read_text() == bias[1]
    assert (out / "size.csv").read_text() == size[0]
    assert (out / "size.json").read_text() == size[1]
    rows = json.loads(bias[1])["rows"] + json.loads(size[1])["rows"]
    assert any(r["metric"] == "attrition" and r["value"] > 0 for r in rows)


def _record_batches(monkeypatch) -> dict:
    """Patch ``simulation._run_batch`` to keep the replication indices of the
    batch it runs, under ``"reps"`` of the returned dict.  For a grid of one
    cell: its batches run in replication order, one draw per part's flag."""
    batch = {"reps": np.arange(0)}
    real_run_batch = simulation._run_batch

    def run_batch(cell, layout, parts, *args):
        start = batch["reps"][-1] + 1 if batch["reps"].size else 0
        batch["reps"] = start + np.arange(sum(finite.size for _, _, finite in parts))
        return real_run_batch(cell, layout, parts, *args)

    monkeypatch.setattr(simulation, "_run_batch", run_batch)
    return batch


def test_failed_sive_estimate_is_attrition_for_sive_and_both_variants(
    monkeypatch, tmp_path
):
    # A batch's estimates are one per stacked draw, NaN for a failed one;
    # the draws are told apart by the replication indices of the batch.
    failing_reps = [1, 3]
    real_estimate = simulation._estimates
    batch = _record_batches(monkeypatch)

    def estimate(kind, table):
        result = real_estimate(kind, table)
        if kind is EstimatorKind.SIVE:
            result[np.isin(batch["reps"], failing_reps)] = np.nan
        return result

    monkeypatch.setattr(simulation, "_estimates", estimate)
    out = _simulate(tmp_path, n=300, L=[1], p1=[0.69], replications=5, master_seed=12)
    rows = []
    for name in ("bias.json", "size.json"):
        rows += json.loads((out / name).read_text())["rows"]
    attrition = {r["estimator"]: r["value"] for r in rows if r["metric"] == "attrition"}
    assert attrition == {
        "sive": 0.4,
        "tsls-saturated": 0.0,
        "jive1": 0.0,
        "jive2": 0.0,
        "sive_vhat": 0.4,
        "sive_chao": 0.4,
    }


def test_failed_variance_or_t_test_is_attrition_for_that_variant_only(
    monkeypatch, tmp_path
):
    # The comparison variance fails (NaN) on draws 0 and 2; the main variance
    # is negative on draw 4, so its t-test raises there.
    real_sive, real_chao = simulation._sive_variance, simulation._chao_variance
    batch = _record_batches(monkeypatch)

    def chao(table):
        result = real_chao(table)
        result[np.isin(batch["reps"], (0, 2))] = np.nan
        return result

    def sive(table):
        result = real_sive(table)
        result[batch["reps"] == 4] = -1.0
        return result

    monkeypatch.setattr(simulation, "_chao_variance", chao)
    monkeypatch.setattr(simulation, "_sive_variance", sive)
    out = _simulate(tmp_path, n=300, L=[1], p1=[0.69], replications=5, master_seed=12)
    rows = []
    for name in ("bias.json", "size.json"):
        rows += json.loads((out / name).read_text())["rows"]
    attrition = {r["estimator"]: r["value"] for r in rows if r["metric"] == "attrition"}
    assert attrition == {
        "sive": 0.0,
        "tsls-saturated": 0.0,
        "jive1": 0.0,
        "jive2": 0.0,
        "sive_vhat": 0.2,
        "sive_chao": 0.4,
    }
