"""End-to-end command-line interface tests (in-process)."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sivreg
from sivreg import EstimatorKind, estimate_tsls_generic
from sivreg.cli import (
    CliValidationError,
    DatasetSchema,
    SpecChoice,
    _generic_fit,
    _json_ready,
    _prepare,
    cmd_audit,
    cmd_estimate,
    cmd_robust_ci,
    cmd_simulate,
    main,
)
from sivreg.estimators import RankDeficiencyError

from conftest import random_design, strong_sample


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def noiseless_csv(tmp_path, name="clean.csv"):
    rows = []
    for w in (0, 1):
        for z in (1, 1, 0, 0):
            rows.append([2.0 * z, float(z), z, w])
    return write_csv(tmp_path / name, ["y", "t", "z", "w"], rows)


def noisy_csv(tmp_path, seed=50, name="noisy.csv"):
    rng = np.random.default_rng(seed)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=1.2)
    rows = [
        [s.outcome[i], s.treatment[i], int(d.instrument[i]), int(d.group_of[i])]
        for i in range(d.n)
    ]
    return write_csv(tmp_path / name, ["y", "t", "z", "w"], rows)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--outcome", "y", "--treatment", "t", "--instrument", "z", "--covariates", "w"]


def test_python_dash_m_runs_the_command_line():
    src = str(Path(sivreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "sivreg", "--help"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0
    assert out.stderr == ""
    assert out.stdout.startswith("usage: sivreg")


def test_one_parser_serves_a_usage_error_then_a_valid_call(tmp_path, capsys):
    # main builds its parser once per process; a call that stops at a usage
    # error leaves nothing on it that a later call could trip over (had the
    # --binarize leaked, z would be all 0 and every group a violation).
    from sivreg.cli import _build_parser

    data = noisy_csv(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["audit", "--data", data, "--binarize", "z:5"])
    assert stop.value.code == 2
    assert "--instrument" in capsys.readouterr().err
    code, out, err = run(["audit", "--data", data, "--instrument", "z", "--covariates", "w"],
                         capsys)
    assert code == 0, err
    assert json.loads(out)["audit"]["violations"] == []
    assert _build_parser() is _build_parser()


def test_estimate_noiseless_dataset(tmp_path, capsys):
    data = noiseless_csv(tmp_path)
    code, out, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "estimate"
    assert payload["spec"] == "fully-saturated"
    assert payload["estimator"] == "sive"
    est = payload["estimate"]
    assert est["beta_hat"] == 2.0
    assert est["variance"] == 0.0
    assert est["std_error"] == 0.0
    assert est["ci_low"] == est["ci_high"] == 2.0
    assert est["t_stat"] is None
    assert payload["design_summary"]["n"] == 8
    assert payload["design_summary"]["G"] == 2
    assert payload["audit"]["violations"] == []


def test_estimate_cli_matches_api(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    code, out, _ = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 0
    schema = DatasetSchema("y", "t", "z", ("w",))
    api = cmd_estimate(data, schema)
    assert json.loads(out) == json.loads(json.dumps(_json_ready(api)))


def test_estimate_runs_are_byte_identical(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["estimate", "--data", data, *BASE, "--out", str(f1)], capsys)[0] == 0
    assert run(["estimate", "--data", data, *BASE, "--out", str(f2)], capsys)[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_estimate_saturated_baselines_report_point_only(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    for estimator in ("tsls-saturated", "jive1", "jive2"):
        code, out, _ = run(
            ["estimate", "--data", data, *BASE, "--estimator", estimator], capsys
        )
        assert code == 0
        est = json.loads(out)["estimate"]
        assert np.isfinite(est["beta_hat"])
        assert est["variance"] is None
        assert est["std_error"] is None
        assert est["ci_low"] is None and est["ci_high"] is None
        assert est["fs_diag"] is not None


def test_estimate_generic_matches_blockwise_on_saturated_spec(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    _, out_blockwise, _ = run(
        ["estimate", "--data", data, *BASE, "--estimator", "tsls-saturated"], capsys
    )
    _, out_generic, _ = run(
        ["estimate", "--data", data, *BASE, "--estimator", "tsls-generic"], capsys
    )
    a = json.loads(out_blockwise)["estimate"]["beta_hat"]
    b = json.loads(out_generic)["estimate"]["beta_hat"]
    assert abs(a - b) < 1e-8
    generic = json.loads(out_generic)["estimate"]
    assert generic["variance"] is not None and generic["variance"] > 0


def test_estimate_linear_spec_runs_generic(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    code, out, _ = run(
        ["estimate", "--data", data, *BASE, "--spec", "not-saturated",
         "--estimator", "tsls-generic"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == "not-saturated"
    assert np.isfinite(payload["estimate"]["beta_hat"])
    for spec in ("saturated-instruments", "saturated-controls"):
        code, out, _ = run(
            ["estimate", "--data", data, *BASE, "--spec", spec,
             "--estimator", "tsls-generic"], capsys
        )
        assert code == 0, spec


def test_estimate_blockwise_requires_fully_saturated(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    for estimator in ("sive", "tsls-saturated", "jive1", "jive2"):
        code, _, err = run(
            ["estimate", "--data", data, *BASE, "--spec", "not-saturated",
             "--estimator", estimator], capsys
        )
        assert code == 2
        assert "error:" in err and "unsupported combination" in err


def test_estimate_linear_spec_needs_numeric_covariates(tmp_path, capsys):
    rows = [[1.0, 0.0, 1, "north"], [0.5, 1.0, 0, "north"],
            [0.2, 0.0, 1, "north"], [0.9, 1.0, 0, "north"]]
    data = write_csv(tmp_path / "str.csv", ["y", "t", "z", "w"], rows)
    code, _, err = run(
        ["estimate", "--data", data, *BASE, "--spec", "not-saturated",
         "--estimator", "tsls-generic"], capsys
    )
    assert code == 2
    assert "numeric" in err


TWO_COVARIATES = ["--outcome", "y", "--treatment", "t", "--instrument", "z",
                  "--covariates", "a,b"]


def two_covariate_data(rng, G=24, dropped=3, size_range=(6, 14), constant_t=False):
    """Rows ``[y, t, z, a, b]`` in shuffled order and each row's group.

    Group g has its own numeric covariates (a, b); the first ``dropped``
    groups have a single active row, so the default size filter drops them.
    Y carries an offset of 50.  With ``constant_t`` the treatment is one
    random value per group.
    """
    rows, groups = [], []
    for g in range(G):
        a, b = float(g % 5), 0.75 * (g // 5)
        n_g = int(rng.integers(size_range[0], size_range[1] + 1))
        m_g = 1 if g < dropped else int(rng.integers(2, n_g - 1))
        z = rng.permutation([1] * m_g + [0] * (n_g - m_g))
        u = rng.uniform(0.5, 1.5) * rng.standard_normal(n_g)
        if constant_t:
            t = np.full(n_g, rng.uniform(-1.0, 1.0))
        else:
            t = 0.3 * a - 0.2 * b + rng.uniform(0.5, 1.5) * z + u
        y = 50.0 + 0.4 * a + b + rng.uniform(0.5, 1.5) * t + 0.5 * u
        y += rng.standard_normal(n_g)
        rows += [[y[i], t[i], int(z[i]), a, b] for i in range(n_g)]
        groups += [g] * n_g
    perm = rng.permutation(len(rows))
    return [rows[i] for i in perm], np.array(groups)[perm]


def dense_generic_reference(rows, groups, spec, dropped=3):
    """``estimate_tsls_generic`` on explicit group-dummy matrices W."""
    arr = np.array(rows, dtype=np.float64)
    kept = groups >= dropped
    Y, T, q, a, b = arr[kept].T
    _, g = np.unique(groups[kept], return_inverse=True)
    W = (g[:, None] == np.arange(g.max() + 1)).astype(np.float64)
    linear = np.column_stack([np.ones(Y.size), a, b])
    Z, C = {
        SpecChoice.NOT_SATURATED: (q[:, None], linear),
        SpecChoice.SATURATED_INSTRUMENTS: (W * q[:, None], linear),
        SpecChoice.SATURATED_CONTROLS: (q[:, None], W),
        SpecChoice.FULLY_SATURATED: (W * q[:, None], W),
    }[spec]
    return estimate_tsls_generic(Y, T, Z, C)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_generic_specs_match_explicit_dummy_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rows, groups = two_covariate_data(rng)
    data = write_csv(tmp_path / "gen.csv", ["y", "t", "z", "a", "b"], rows)
    schema = DatasetSchema("y", "t", "z", ("a", "b"))
    for spec in SpecChoice:
        payload = cmd_estimate(
            data, schema, spec=spec, estimator=EstimatorKind.TSLS_GENERIC
        )
        assert payload["design_summary"]["G"] == 24 - 3
        est = payload["estimate"]
        beta, var = dense_generic_reference(rows, groups, spec)
        assert abs(est["beta_hat"] - beta) <= 1e-10 * abs(beta), spec
        assert abs(est["variance"] - var) <= 1e-10 * var, spec


def test_generic_treatment_constant_within_groups(tmp_path, capsys):
    rows, _ = two_covariate_data(np.random.default_rng(5), constant_t=True)
    data = write_csv(tmp_path / "flat.csv", ["y", "t", "z", "a", "b"], rows)
    messages = {
        "saturated-controls": "projected regressors are rank deficient",
        "fully-saturated": "no instrument column survives collinearity "
        "elimination; dropped: fitted treatment",
    }
    for spec, message in messages.items():
        code, out, err = run(
            ["estimate", "--data", data, *TWO_COVARIATES, "--spec", spec,
             "--estimator", "tsls-generic"], capsys
        )
        assert code == 3 and out == "", spec
        assert message in err, err
    code, out, err = run(
        ["estimate", "--data", data, *TWO_COVARIATES,
         "--spec", "saturated-instruments", "--estimator", "tsls-generic"], capsys
    )
    assert code == 0, err
    assert np.isfinite(json.loads(out)["estimate"]["beta_hat"])


def test_generic_string_covariates(tmp_path, capsys):
    rows, groups = two_covariate_data(np.random.default_rng(6))
    named = [row[:3] + [f"region{g}"] for row, g in zip(rows, groups)]
    numeric = write_csv(tmp_path / "num.csv", ["y", "t", "z", "a", "b"], rows)
    strings = write_csv(tmp_path / "str.csv", ["y", "t", "z", "w"], named)
    for spec in ("saturated-controls", "fully-saturated"):
        argv = ["--spec", spec, "--estimator", "tsls-generic"]
        code, out, err = run(["estimate", "--data", strings, *BASE, *argv], capsys)
        assert code == 0, err
        _, ref, _ = run(["estimate", "--data", numeric, *TWO_COVARIATES, *argv], capsys)
        assert json.loads(out)["estimate"] == json.loads(ref)["estimate"]
    err = validation_error(
        ["estimate", "--data", strings, *BASE, "--spec", "saturated-instruments",
         "--estimator", "tsls-generic"], capsys
    )
    assert "not numeric" in err


def test_generic_fit_builds_no_group_dummy_matrix(tmp_path):
    rows, _ = two_covariate_data(np.random.default_rng(8), G=400, size_range=(40, 60))
    data = write_csv(tmp_path / "big.csv", ["y", "t", "z", "a", "b"], rows)
    schema = DatasetSchema("y", "t", "z", ("a", "b"))
    prep = _prepare(data, schema, 2, 2, ())
    bound = prep.design.n * prep.design.G * 8 / 4
    for spec in SpecChoice:
        # Untraced first: lazy imports and cached design fields are not the fit's.
        _generic_fit(spec, schema, prep)
        tracemalloc.start()
        try:
            _generic_fit(spec, schema, prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (spec, peak, bound)


SATURATED_GENERIC = (SpecChoice.FULLY_SATURATED, SpecChoice.SATURATED_CONTROLS)


def test_saturated_generic_fit_peaks_below_two_vectors(tmp_path):
    # A 0/1 treatment is read into (cell, arm) atoms, whose only n-sized
    # array is the atom ids; the rest of the fit is O(G).
    rng = np.random.default_rng(9)
    n, G = 100_000, 1000
    g, z = rng.integers(0, G, n), rng.integers(0, 2, n)
    t = (rng.random(n) < 0.3 + 0.4 * z).astype(float)
    y = 0.01 * g + t + rng.standard_normal(n)
    data = tmp_path / "binary.csv"
    np.savetxt(data, np.column_stack([y, t, z, g % 40, g // 40]), fmt="%.17g",
               delimiter=",", header="y,t,z,a,b", comments="")
    schema = DatasetSchema("y", "t", "z", ("a", "b"))
    prep = _prepare(data, schema, 2, 2, ())
    bound = 2 * prep.design.n * 8
    for spec in SATURATED_GENERIC:
        # Untraced first: lazy imports and cached design fields are not the fit's.
        _generic_fit(spec, schema, prep)
        tracemalloc.start()
        try:
            _generic_fit(spec, schema, prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (spec, peak / (8 * prep.design.n))


def exact_saturated_generic(rows, groups, spec, dropped=3):
    """``dense_generic_reference`` under a saturated spec in exact rational
    arithmetic, by Frisch-Waugh-Lovell: Y, T and the instrument demeaned
    within groups, the instrument under ``fully-saturated`` replaced by the
    fitted treatment, per group T's projection on the demeaned instrument."""
    by_group = {}
    for row, g in zip(rows, groups.tolist()):
        if g >= dropped:
            by_group.setdefault(g, []).append([Fraction(v) for v in row[:3]])
    X, T, Y = [], [], []
    for members in by_group.values():
        means = [sum(column) / len(members) for column in zip(*members)]
        y, t, x = ([row[j] - means[j] for row in members] for j in range(3))
        if spec is SpecChoice.FULLY_SATURATED:
            slope = sum(a * b for a, b in zip(x, t)) / sum(a * a for a in x)
            x = [slope * a for a in x]
        X, T, Y = X + x, T + t, Y + y
    den = sum(x * t for x, t in zip(X, T))
    beta = sum(x * y for x, y in zip(X, Y)) / den
    return beta, sum((x * (y - beta * t)) ** 2 for x, y, t in zip(X, Y, T)) / den**2


def relative_gap(got, want) -> float:
    """The larger relative difference of (beta, variance) pairs, exactly."""
    return max(float(abs(Fraction(g) - Fraction(w)) / abs(Fraction(w)))
               for g, w in zip(got, want))


@st.composite
def saturated_generic_cases(draw):
    """Rows ``[y, t, z, a, b]``, each row's group, the number of groups the
    size filter drops (numbered first, as ``dense_generic_reference`` takes
    them) and the offsets of T and Y.

    Cells have 1 to 10 rows, so some are of size 2 and a group with a cell
    of 1 is dropped.  T is 0/1, a cell's share of ones at least 3/4 (active)
    or at most 1/4 (inactive), or continuous with a gap of 6 to 10 per group,
    so that T'PT passes the library's rule, 1e-12 ||T||^2, even with T + 1e6.
    With an offset, a cell's mean rounds by about eps times the offset.
    """
    cells = draw(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                          min_size=1, max_size=6))
    assume(any(min(cell) >= 2 for cell in cells))
    cells.sort(key=lambda cell: min(cell) >= 2)  # stable: dropped groups first
    binary = draw(st.booleans())
    offset_T = 0.0 if binary else draw(st.sampled_from([0.0, 1e6, -1e6]))
    offset_Y = draw(st.sampled_from([0.0, 1e3, 1e6, -1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    rows, groups = [], []
    for g, (m, k) in enumerate(cells):
        gap = rng.uniform(6.0, 10.0)
        for z, size in ((1, m), (0, k)):
            if binary:
                ones = int(np.ceil(0.75 * size)) if z else int(np.floor(0.25 * size))
                t = rng.permutation([1.0] * ones + [0.0] * (size - ones))
            else:
                t = offset_T + gap * z + 0.5 * rng.standard_normal(size)
            noise = rng.uniform(0.5, 1.5) * rng.standard_normal(size)
            y = offset_Y + 0.3 * g + 1.5 * (t - offset_T) + noise
            rows += [[y[i], t[i], z, float(g), 0.0] for i in range(size)]
            groups += [g] * size
    perm = rng.permutation(len(rows))
    dropped = sum(min(cell) < 2 for cell in cells)
    return [rows[i] for i in perm], np.array(groups)[perm], dropped, (offset_T, offset_Y)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(saturated_generic_cases())
def test_saturated_generic_matches_explicit_dummy_reference(case):
    rows, groups, dropped, offsets = case
    schema = DatasetSchema("y", "t", "z", ("a", "b"))
    with tempfile.TemporaryDirectory() as tmp:
        data = write_csv(Path(tmp) / "cells.csv", ["y", "t", "z", "a", "b"], rows)
        prep = _prepare(data, schema, 2, 2, ())
    for spec in SATURATED_GENERIC:
        got = _generic_fit(spec, schema, prep)
        try:
            ref = dense_generic_reference(rows, groups, spec, dropped)
        except RankDeficiencyError:
            ref = None  # T + 1e6 is nearly a sum of the dummies W: the QR path refuses
        if ref is not None and relative_gap(got, ref) <= 1e-10:
            continue
        # The QR path loses digits to an offset, which the exact values decide.
        assert offsets != (0.0, 0.0), (spec, got, ref)
        exact = exact_saturated_generic(rows, groups, spec, dropped)
        assert relative_gap(got, exact) <= 1e-10, (spec, got, exact)
        if ref is not None:
            assert relative_gap(got, exact) < relative_gap(ref, exact)


def test_estimate_generic_reference_rejected_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    err = validation_error(
        ["estimate", "--data", missing, *BASE, "--estimator", "tsls-generic",
         "--reference"], capsys
    )
    assert err == "--reference is available only for the blockwise estimators"


def test_estimate_weak_denominator_exits_numerical(tmp_path, capsys):
    rows = []
    for w in (0, 1):
        for z in (1, 1, 0, 0):
            rows.append([float(np.cos(len(rows))), 1.0, z, w])
    data = write_csv(tmp_path / "flat.csv", ["y", "t", "z", "w"], rows)
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 3
    assert "robust" in err


def test_estimate_reference_recomputation(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    code, out, _ = run(["estimate", "--data", data, *BASE, "--reference"], capsys)
    assert code == 0
    payload = json.loads(out)
    ref = payload["reference"]
    assert abs(ref["beta_hat"] - payload["estimate"]["beta_hat"]) < 1e-8
    assert abs(ref["variance"] - payload["estimate"]["variance"]) < 1e-8 * max(
        1e-12, payload["estimate"]["variance"]
    )


def test_estimate_binarize_recodes_treatment(tmp_path, capsys):
    rows = []
    for w in (0, 1):
        for z in (1, 1, 0, 0):
            rows.append([2.0 * z, 12.0 + 2.0 * z, z, w])
    data = write_csv(tmp_path / "years.csv", ["y", "t", "z", "w"], rows)
    code, out, _ = run(
        ["estimate", "--data", data, *BASE, "--binarize", "t:12"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"]["beta_hat"] == 2.0
    # strict inequality: the rows at exactly 12 recode to zero
    assert payload["design_summary"]["n"] == 8


def test_estimate_alpha_validation(tmp_path, capsys):
    data = noiseless_csv(tmp_path)
    code, _, err = run(["estimate", "--data", data, *BASE, "--alpha", "1.5"], capsys)
    assert code == 2
    assert "alpha" in err


def test_parse_errors_exit_with_validation_code(tmp_path, capsys):
    # missing column
    data = write_csv(tmp_path / "m.csv", ["y", "t", "z"], [[1.0, 0.0, 1]])
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 2 and "missing columns: w" in err

    # non-binary instrument
    rows = [[1.0, 0.0, 2, 0], [1.0, 0.0, 1, 0], [1.0, 1.0, 0, 0], [0.0, 1.0, 0, 0]]
    data = write_csv(tmp_path / "nb.csv", ["y", "t", "z", "w"], rows)
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 2

    # blank cell in a numeric column
    rows = [[1.0, "", 1, 0], [1.0, 0.0, 1, 0], [1.0, 1.0, 0, 0], [0.0, 1.0, 0, 0]]
    data = write_csv(tmp_path / "blank.csv", ["y", "t", "z", "w"], rows)
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 2 and "t" in err

    # header only
    data = write_csv(tmp_path / "empty.csv", ["y", "t", "z", "w"], [])
    code, _, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 2 and "no data rows" in err

    # malformed binarize spec
    data = noiseless_csv(tmp_path, "ok.csv")
    code, _, err = run(["estimate", "--data", data, *BASE, "--binarize", "t12"], capsys)
    assert code == 2 and "binarize" in err
    code, _, err = run(["estimate", "--data", data, *BASE, "--binarize", "t:x"], capsys)
    assert code == 2

    # missing file
    code, _, err = run(["estimate", "--data", str(tmp_path / "nope.csv"), *BASE], capsys)
    assert code == 4


def test_robust_ci_cli_matches_api(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    args = ["robust-ci", "--data", data, *BASE,
            "--grid-low", "-2", "--grid-high", "4"]
    code, out, _ = run(args, capsys)
    assert code == 0
    schema = DatasetSchema("y", "t", "z", ("w",))
    api = cmd_robust_ci(data, schema, grid={"low": -2.0, "high": 4.0})
    assert json.loads(out) == json.loads(json.dumps(_json_ready(api)))
    result = json.loads(out)["robust_ci"]
    assert result["intervals"], "expected a non-empty confidence set"


def test_robust_ci_grid_flags_must_be_consistent(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    code, _, err = run(
        ["robust-ci", "--data", data, *BASE, "--grid-low", "-2"], capsys
    )
    assert code == 2 and "grid" in err


def test_robust_ci_has_no_grid_step_flag(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["robust-ci", "--data", data, *BASE,
              "--grid-low", "-2", "--grid-high", "4", "--grid-step", "0.05"])
    captured = capsys.readouterr()
    assert (stop.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --grid-step" in captured.err


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-1"])
def test_robust_ci_refuses_a_grid_step_that_is_not_finite_and_positive(
    tmp_path, capsys, step
):
    data = noisy_csv(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["robust-ci", "--data", data, *BASE,
              "--grid-low", "-2", "--grid-high", "4", f"--grid-step={step}"])
    captured = capsys.readouterr()
    assert (stop.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --grid-step={step}" in captured.err


def test_robust_ci_noiseless_default_grid_is_numerical_failure(tmp_path, capsys):
    data = noiseless_csv(tmp_path)
    code, _, err = run(["robust-ci", "--data", data, *BASE], capsys)
    assert code == 3
    assert "grid" in err


def test_robust_ci_noiseless_explicit_grid_accepts_truth(tmp_path, capsys):
    data = noiseless_csv(tmp_path)
    code, out, _ = run(
        ["robust-ci", "--data", data, *BASE,
         "--grid-low", "1", "--grid-high", "3"], capsys
    )
    assert code == 0
    result = json.loads(out)["robust_ci"]
    assert any(lo <= 2.0 <= hi for lo, hi in result["intervals"])


def test_audit_cli_matches_api(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    code, out, _ = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "w"], capsys
    )
    assert code == 0
    api = cmd_audit(data, DatasetSchema(None, None, "z", ("w",)))
    assert json.loads(out) == json.loads(json.dumps(_json_ready(api)))


def test_audit_reports_all_violating_dataset(tmp_path, capsys):
    rows = [[1, 0], [0, 0], [1, 1], [0, 1]]
    data = write_csv(tmp_path / "tiny.csv", ["z", "w"], rows)
    code, out, _ = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "w"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["filtered_summary"] is None
    assert len(payload["audit"]["violations"]) == 2
    assert payload["audit"]["kept_groups"] == []
    v = payload["audit"]["violations"][0]
    assert {"group", "group_size", "active_count", "reason", "key"} <= set(v)


def test_audit_thresholds_and_dump(tmp_path, capsys):
    data = noisy_csv(tmp_path)
    dump = tmp_path / "design.json"
    code, out, _ = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "w",
         "--min-active", "3", "--min-inactive", "3", "--dump-design", str(dump)],
        capsys,
    )
    assert code == 0
    saved = json.loads(dump.read_text())
    payload = json.loads(out)
    assert payload["design_file"] == str(dump)
    assert saved["n"] == payload["filtered_summary"]["n"]
    assert set(saved) == {"n", "G", "group_of", "instrument"}


def test_audit_dump_with_nothing_kept_fails(tmp_path, capsys):
    rows = [[1, 0], [0, 0], [1, 1], [0, 1]]
    data = write_csv(tmp_path / "tiny.csv", ["z", "w"], rows)
    code, _, err = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "w",
         "--dump-design", str(tmp_path / "d.json")], capsys
    )
    assert code == 2
    assert "nothing to dump" in err


SIM_CONFIG = {
    "n": 160,
    "L": [1, 2],
    "p1": 0.49,
    "replications": 3,
    "master_seed": 11,
}


def test_simulate_writes_reproducible_artifacts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code, stdout, _ = run(["simulate", "--config", str(cfg), "--out", str(out1)], capsys)
    assert code == 0
    manifest = json.loads(stdout)
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 11
    assert manifest["config"]["L"] == [1, 2]
    names = {"bias.csv", "bias.json", "size.csv", "size.json", "manifest.json"}
    assert {p.name for p in out1.iterdir()} == names
    assert run(["simulate", "--config", str(cfg), "--out", str(out2)], capsys)[0] == 0
    for name in sorted(names):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / "seeded"
    code, stdout, _ = run(
        ["simulate", "--config", str(cfg), "--out", str(out), "--seed", "99"], capsys
    )
    assert code == 0
    manifest = json.loads(stdout)
    assert manifest["master_seed"] == 99
    assert manifest["config"]["master_seed"] == 99


@pytest.mark.parametrize("seed", [2.5, True])
def test_simulate_seed_must_be_an_integer(tmp_path, seed):
    # SimConfig checks the seed as given: no truncation to 2, no bool as 1.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        cmd_simulate(cfg, tmp_path / "out", seed=seed)
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    # A negative seed used to pass the config check and fail only at the
    # first draw, with numpy's message, after the output directory was made.
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
        sivreg.SimConfig(master_seed=-1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 2 and "master_seed must be non-negative" in err
    assert not out.exists()


def test_simulate_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 160, "frobnicate": 1}))
    code, _, err = run(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")], capsys)
    assert code == 2 and "frobnicate" in err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    code, _, err = run(
        ["simulate", "--config", str(notjson), "--out", str(tmp_path / "y")], capsys
    )
    assert code == 2

    code, _, err = run(
        ["simulate", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "z")], capsys
    )
    assert code == 4


@pytest.mark.parametrize(
    "config, message",
    [
        ([{"n": 160}], "config must be a JSON object"),
        ({"n": 160, "L": []}, "L and p1 must each have at least one value"),
        ({"n": 160, "p1": []}, "L and p1 must each have at least one value"),
    ],
)
def test_simulate_refuses_a_config_of_the_wrong_shape(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert validation_error(["simulate", "--config", str(path), "--out", str(out)], capsys) == (
        message
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: DatasetSchema("y", "t", ""), "an instrument column is required"),
        (lambda data: cmd_estimate(data, DatasetSchema(None, "t", "z", ("w",))),
         "outcome and treatment columns are required for this command"),
        (lambda data: cmd_estimate(data, DatasetSchema("y", None, "z", ("w",))),
         "outcome and treatment columns are required for this command"),
    ],
    ids=["no instrument", "no outcome", "no treatment"],
)
def test_a_schema_without_a_needed_role_is_refused(tmp_path, call, message):
    data = write_text(tmp_path / "ok.csv", "y,t,z,w\n" + OK_ROWS)
    with pytest.raises(CliValidationError, match=f"^{message}$"):
        call(data)


@pytest.mark.parametrize("command", ["estimate", "robust-ci"])
def test_a_column_given_two_roles_is_refused(tmp_path, capsys, command):
    ok = write_text(tmp_path / "ok.csv", "y,t,z,w\n" + OK_ROWS)
    argv = [command, "--data", ok, "--outcome", "y", "--treatment", "y", "--instrument", "z",
            "--covariates", "w"]
    assert validation_error(argv, capsys) == "columns assigned to more than one role: y"


def test_simulate_manifest_hash_tracks_config(tmp_path, capsys):
    cfg1, cfg2 = tmp_path / "c1.json", tmp_path / "c2.json"
    cfg1.write_text(json.dumps(SIM_CONFIG))
    cfg2.write_text(json.dumps({**SIM_CONFIG, "p1": 0.39}))
    _, out1, _ = run(["simulate", "--config", str(cfg1), "--out", str(tmp_path / "h1")], capsys)
    _, out2, _ = run(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "h2")], capsys)
    h1 = json.loads(out1)["config_sha256"]
    h2 = json.loads(out2)["config_sha256"]
    assert h1 != h2 and len(h1) == 64


# --- ingest: exact messages, precedence and cell semantics -------------------


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def validation_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


OK_ROWS = "1,0,1,0\n2,1,1,0\n0,0,0,0\n1,1,0,0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("y,t,z,w\n1,0,1,0\n1,0,1,0,9\n", "data row 2: more fields than header columns"),
        ("y,t,z,w\n1,0,1,0\n1,0,1\n", "data row 2: fewer fields than header columns"),
        # blank lines are skipped and not counted
        ("y,t,z,w\n1,0,1,0\n\n\n1,0,1\n", "data row 2: fewer fields than header columns"),
        ("y,t,z,w\n1,0,1,0\n\n1,x,1,0\n", "column 't', data row 2: cannot parse 'x' as a number"),
        ("y,t,z,w\n1,0,1,0\n1, ,1,0\n", "column 't', data row 2: missing value"),
        ("y,t,z,w\n1,0,1,0\n1,0,1,\n", "column 'w', data row 2: missing value"),
        ("y,t,z,w\n1,0,1,0\nabc,0,1,0\n", "column 'y', data row 2: cannot parse 'abc' as a number"),
        ("y,t,z,w\n1,0,1,0\n1,0,2,0\n",
         "column 'z' must be 0/1 but data row 2 has 2.0; "
         "a threshold can be applied with --binarize z:THRESH"),
        ("y,t,z\n1,0,1\n", "missing columns: w"),
        ("q,t,z\n1,0,1\n", "missing columns: y, w"),
    ],
)
def test_ingest_error_messages(tmp_path, capsys, text, message):
    data = write_text(tmp_path / "bad.csv", text)
    assert validation_error(["estimate", "--data", data, *BASE], capsys) == message


def test_ingest_file_level_messages(tmp_path, capsys):
    empty = write_text(tmp_path / "empty.csv", "")
    assert validation_error(["estimate", "--data", empty, *BASE], capsys) == (
        f"{empty}: empty file; a header row is required"
    )
    dup = write_text(tmp_path / "dup.csv", "y,t,z,w,t\n1,0,1,0,0\n")
    assert validation_error(["estimate", "--data", dup, *BASE], capsys) == (
        f"{dup}: duplicate column names in header"
    )
    header_only = write_text(tmp_path / "header.csv", "y,t,z,w\n\n\n")
    assert validation_error(["estimate", "--data", header_only, *BASE], capsys) == (
        f"{header_only}: no data rows"
    )
    ok = write_text(tmp_path / "ok.csv", "y,t,z,w\n" + OK_ROWS)
    assert validation_error(
        ["estimate", "--data", ok, *BASE, "--binarize", "q:1"], capsys
    ) == "--binarize column 'q' not in header"
    assert validation_error(
        ["audit", "--data", ok, "--instrument", "z", "--covariates", "w",
         "--binarize", "q:1"], capsys
    ) == "--binarize column 'q' not in header"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("command", ["estimate", "robust-ci", "audit"])
def test_binarize_refuses_a_nonfinite_threshold(tmp_path, capsys, command, raw):
    # Any comparison with NaN is False and every finite value is below inf,
    # so such a threshold would recode every row to one value.
    ok = write_text(tmp_path / "ok.csv", "y,t,z,w\n" + OK_ROWS)
    roles = BASE if command != "audit" else ["--instrument", "z", "--covariates", "w"]
    assert validation_error(
        [command, "--data", ok, *roles, "--binarize", f"t:{raw}"], capsys
    ) == f"--binarize threshold {raw!r} is not a finite number"


@pytest.mark.parametrize("command", ["estimate", "audit"])
def test_binarize_refuses_a_column_named_twice(tmp_path, capsys, command):
    # A second spec would threshold the 0/1 column the first one made.
    ok = write_text(tmp_path / "ok.csv", "y,t,z,w\n" + OK_ROWS)
    roles = BASE if command != "audit" else ["--instrument", "z", "--covariates", "w"]
    binarize = ["--binarize", "t:0", "--binarize", "y:1", "--binarize", "t:1"]
    assert validation_error([command, "--data", ok, *roles, *binarize], capsys) == (
        "--binarize names column 't' more than once"
    )


@pytest.mark.parametrize(
    "header, rows, extra, message",
    [
        # header errors come before row-shape errors
        ("y,t,z,w,w", "1,0,1\n", (), "duplicate column names in header"),
        # row-shape errors come before missing columns
        ("y,t,z", "1,0\n", (), "data row 1: fewer fields than header columns"),
        # "no data rows" comes before missing columns
        ("y,t,z", "", (), "no data rows"),
        # missing columns come before --binarize
        ("y,t,z", "1,0,1\n", ("--binarize", "q:1"), "missing columns: w"),
        # --binarize comes before the instrument
        ("y,t,z,w,e", "1,0,2,0,x\n", ("--binarize", "e:1"),
         "column 'e', data row 1: cannot parse 'x' as a number"),
        # every --binarize spec is parsed before any column name is checked
        ("y,t,z,w", "1,0,1,0\n", ("--binarize", "q:1", "--binarize", "t12"),
         "--binarize expects COL:THRESH, got 't12'"),
        # the instrument comes before the covariates
        ("y,t,z,w", "1,0,2,\n", (), "column 'z' must be 0/1"),
        # covariates come before the outcome
        ("y,t,z,w", "x,0,1,\n", (), "column 'w', data row 1: missing value"),
        # the outcome comes before the treatment
        ("y,t,z,w", "x,x,1,0\n", (), "column 'y', data row 1: cannot parse"),
        # within a column, the first bad row is reported
        ("y,t,z,w", "1,0,1,0\n1,,1,0\n1,x,1,0\n", (), "column 't', data row 2: missing value"),
        # missing columns come before a column that --binarize names twice
        ("y,t,z", "1,0,1\n", ("--binarize", "t:0", "--binarize", "t:1"), "missing columns: w"),
        # a column named twice is refused before its cells are read
        ("y,t,z,w,e", "1,0,1,0,x\n", ("--binarize", "e:1", "--binarize", "e:2"),
         "--binarize names column 'e' more than once"),
    ],
)
def test_ingest_error_precedence(tmp_path, capsys, header, rows, extra, message):
    data = write_text(tmp_path / "p.csv", f"{header}\n{rows}")
    err = validation_error(["estimate", "--data", data, *BASE, *extra], capsys)
    assert message in err


def test_ingest_whitespace_padded_cells_parse_as_numbers(tmp_path, capsys):
    plain = noiseless_csv(tmp_path)
    padded_rows = []
    for w in (0, 1):
        for z in (1, 1, 0, 0):
            padded_rows.append([f" {2.0 * z} ", f"{float(z)} ", f" {z}", f"  {w}  "])
    padded = write_csv(tmp_path / "padded.csv", ["y", "t", "z", "w"], padded_rows)
    _, out_plain, _ = run(["estimate", "--data", plain, *BASE], capsys)
    code, out_padded, err = run(["estimate", "--data", padded, *BASE], capsys)
    assert code == 0, err
    assert out_padded == out_plain


def test_ingest_numeric_and_string_covariate_equality(tmp_path, capsys):
    # "1" and "1.0" are one group in a numeric column, two in a string column
    rows = []
    for label in ("1", "1.0"):
        for z in (1, 1, 0, 0):
            rows.append([z, label, label if z else f" {label} ", "x"])
    rows.append([1, "2", "other", "x"])
    data = write_csv(tmp_path / "eq.csv", ["z", "num", "text", "note"], rows)
    code, out, err = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "num"], capsys
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["raw_summary"]["G"] == 2
    assert payload["audit"]["kept_groups"] == [0]
    assert payload["audit"]["violations"][0]["key"] == [2.0]
    code, out, err = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "text"], capsys
    )
    assert code == 0, err
    payload = json.loads(out)
    # stripped strings: " 1" and "1" agree, "1" and "1.0" do not
    assert payload["raw_summary"]["G"] == 3
    assert payload["audit"]["kept_groups"] == [0, 1]
    assert payload["audit"]["violations"][0]["key"] == ["other"]


def test_ingest_ignores_unused_non_numeric_column(tmp_path, capsys):
    rows = []
    for w in (0, 1):
        for z in (1, 1, 0, 0):
            rows.append(["free text", 2.0 * z, float(z), z, w, ""])
    data = write_csv(tmp_path / "extra.csv", ["note", "y", "t", "z", "w", "blank"], rows)
    code, out, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 0, err
    assert json.loads(out)["estimate"]["beta_hat"] == 2.0


def test_ingest_empty_covariate_list_is_one_group(tmp_path, capsys):
    data = noiseless_csv(tmp_path)
    argv = ["--outcome", "y", "--treatment", "t", "--instrument", "z", "--covariates", ""]
    code, out, err = run(["estimate", "--data", data, *argv], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["design_summary"]["G"] == 1
    assert payload["estimate"]["beta_hat"] == 2.0
    code, out, err = run(
        ["audit", "--data", data, "--instrument", "z", "--covariates", "",
         "--min-active", "5"], capsys
    )
    assert code == 0, err
    assert json.loads(out)["audit"]["violations"][0]["key"] == []


def test_ingest_nan_covariate_is_a_validation_error(tmp_path, capsys):
    rows = [[1.0, 0.0, z, w] for w in ("0", "nan") for z in (1, 1, 0, 0)]
    data = write_csv(tmp_path / "nan.csv", ["y", "t", "z", "w"], rows)
    err = validation_error(["estimate", "--data", data, *BASE], capsys)
    assert err == "column 'w', data row 5: NaN is not a covariate value"


_DATA_OPTIONS = [
    (("--data",), "data", None, None, True),
    (("--outcome",), "outcome", None, None, True),
    (("--treatment",), "treatment", None, None, True),
    (("--instrument",), "instrument", None, None, True),
    (("--covariates",), "covariates", "", None, False),
    (("--binarize",), "binarize", None, None, False),
    (("--min-active",), "min_active", 2, None, False),
    (("--min-inactive",), "min_inactive", 2, None, False),
    (("--out",), "out", None, None, False),
]


def test_parser_options_are_pinned():
    # Every subcommand's option strings, dests, defaults, choices and
    # required flags, in declaration order.
    import argparse

    from sivreg.cli import _build_parser

    (sub,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {
        name: [
            (tuple(a.option_strings), a.dest, a.default,
             None if a.choices is None else tuple(a.choices), a.required)
            for a in parser._actions
            if a.dest != "help"
        ]
        for name, parser in sub.choices.items()
    }
    alpha = (("--alpha",), "alpha", 0.05, None, False)
    audit_data = [o for o in _DATA_OPTIONS if o[1] not in ("outcome", "treatment")]
    assert found == {
        "estimate": [
            *_DATA_OPTIONS,
            (("--spec",), "spec", "fully-saturated",
             ("not-saturated", "fully-saturated", "saturated-instruments",
              "saturated-controls"), False),
            (("--estimator",), "estimator", "sive",
             ("tsls-saturated", "jive1", "jive2", "sive", "tsls-generic"), False),
            alpha,
            (("--reference",), "reference", False, None, False),
        ],
        "robust-ci": [
            *_DATA_OPTIONS,
            alpha,
            (("--grid-low",), "grid_low", None, None, False),
            (("--grid-high",), "grid_high", None, None, False),
        ],
        "simulate": [
            (("--config",), "config", None, None, True),
            (("--out",), "out", None, None, True),
            (("--seed",), "seed", None, None, False),
        ],
        "audit": [
            *audit_data,
            (("--dump-design",), "dump_design", None, None, False),
        ],
    }


def test_ingest_accepts_a_utf8_byte_order_mark(tmp_path, capsys):
    # Spreadsheet programs save CSV with a BOM; it must not become part of
    # the first column's name.
    plain = noisy_csv(tmp_path, name="plain.csv")
    text = Path(plain).read_text(encoding="utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for argv in (["estimate", *BASE], ["robust-ci", *BASE],
                 ["audit", "--instrument", "z", "--covariates", "w"]):
        _, out_plain, _ = run([argv[0], "--data", plain, *argv[1:]], capsys)
        code, out_bom, err = run([argv[0], "--data", str(bom), *argv[1:]], capsys)
        assert code == 0, err
        assert out_bom == out_plain


def test_estimate_negative_variance_exits_numerical(tmp_path, capsys):
    # A weak first stage (pi = 0.3) whose SIVE variance estimate is negative.
    rng = np.random.default_rng(146)
    d = random_design(rng, G=4, size_range=(8, 12))
    s = strong_sample(rng, d, tau=1.0, pi=0.3)
    from sivreg import estimate_sive, sive_variance

    variance = sive_variance(d, s.outcome, s.treatment, estimate_sive(d, s))
    assert variance < 0.0
    rows = [
        [s.outcome[i], s.treatment[i], int(d.instrument[i]), int(d.group_of[i])]
        for i in range(d.n)
    ]
    data = write_csv(tmp_path / "negative.csv", ["y", "t", "z", "w"], rows)
    code, out, err = run(["estimate", "--data", data, *BASE], capsys)
    assert code == 3 and out == ""
    assert err == (
        f"error: variance estimate {variance} is negative; "
        "use the identification-robust test (robust_test / robust_ci)\n"
    )
