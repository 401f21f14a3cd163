"""The parent-diff script: the cases it runs and how it reports a difference."""

import csv
import json
from pathlib import Path

import pytest

from sivreg.cli import SpecChoice, _build_parser
from sivreg.estimators import EstimatorKind

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def diff_parent(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import diff_parent

    return diff_parent


def test_commands_cover_every_subcommand_estimator_spec_and_window(diff_parent, tmp_path):
    # The script is the repository's one output check, so its cases must
    # reach every path a CLI flag can choose.
    from scale_out import write_csv

    data = tmp_path / "data.csv"
    write_csv(data, 500, 5)
    with open(data, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    parser = _build_parser()
    parsed = [parser.parse_args(argv) for argv in diff_parent.commands(data, tmp_path).values()]

    subcommands = next(a.choices for a in parser._actions if a.dest == "command")
    assert {args.command for args in parsed} == set(subcommands)
    estimates = [args for args in parsed if args.command == "estimate"]
    assert {args.estimator for args in estimates} == {k.value for k in EstimatorKind}
    assert {args.spec for args in estimates} == {s.value for s in SpecChoice}
    for command in ("estimate", "robust-ci"):
        binary = {
            {row[args.treatment] for row in rows} <= {"0", "1"}
            for args in parsed
            if args.command == command
        }
        assert binary == {True, False}, command
    # The saturated generic specs read the rows into either kind of atoms.
    for spec in (SpecChoice.FULLY_SATURATED, SpecChoice.SATURATED_CONTROLS):
        binary = {
            {row[args.treatment] for row in rows} <= {"0", "1"}
            for args in estimates
            if args.estimator == EstimatorKind.TSLS_GENERIC.value and args.spec == spec.value
        }
        assert binary == {True, False}, spec
    windows = [args for args in parsed if args.command == "robust-ci"]
    assert any(args.grid_low is None for args in windows)
    assert any(
        args.grid_low is not None and args.grid_low + args.grid_high != 0.0 for args in windows
    )
    # A window so far out that the table at its midpoint overflows.
    assert any(
        args.grid_low is not None and abs(args.grid_low / 2 + args.grid_high / 2) >= 1e154
        for args in windows
    )
    assert any(args.command == "audit" and args.dump_design for args in parsed)


def test_differences_give_each_differing_field_its_sizes(diff_parent, tmp_path):
    a = {"estimate": {"ci_low": 1.0, "ci_high": 3.0, "beta_hat": 2.0}, "note": "x"}
    b = {"estimate": {"ci_low": 1.0, "ci_high": 3.5, "beta_hat": 2.0}, "note": "y"}
    for side, report in (("rev", a), ("head", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "out.json").write_text(json.dumps(report))
    rev, head = tmp_path / "rev" / "out.json", tmp_path / "head" / "out.json"

    lines = diff_parent.differences(rev, head, 0, 0)
    assert lines[0].split() == ["field", "max_abs", "max_rel", "values"]
    assert lines[1].split() == ["out.json:estimate.ci_high", "0.5", "0.143", "1"]
    assert lines[2:] == ["mismatch out.json:note: 'x' != 'y'"]
    assert diff_parent.differences(rev, rev, 0, 0) is None
    assert diff_parent.differences(rev, head, 0, 2) == ["exit 0 against 2"]
    # Every case is written to succeed: failing alike is not agreeing.
    assert diff_parent.differences(rev, rev, 2, 2) == ["exit 2 against 2"]
    none = tmp_path / "head" / "none.json"
    assert diff_parent.differences(rev, none, 0, 0) == ["output only in rev"]
    assert diff_parent.differences(none, none, 0, 0) == ["no output on either side"]
