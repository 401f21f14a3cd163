"""The output-diff script on small estimate reports and simulate directories."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"


def run(a, b):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )
    return out.returncode, out.stdout


def field_line(stdout, field):
    return next(line.split() for line in stdout.splitlines() if line.startswith(field + " "))


def test_identical_reports_exit_zero(tmp_path):
    report = {"estimate": {"beta_hat": 0.25, "variance": 1e-3, "t_stat": None}}
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(report))
    code, stdout = run(tmp_path / "a.json", tmp_path / "b.json")
    assert code == 0
    assert field_line(stdout, "a.json:estimate.beta_hat")[1:] == ["0", "0", "1"]
    assert "mismatch" not in stdout


def test_reports_fold_list_positions_and_list_mismatches(tmp_path):
    a = {"ci": [[1.0, 2.0], [3.0, 4.0]], "note": "x", "only_a": 1}
    b = {"ci": [[1.0, 2.5], [3.0, 4.0]], "note": "y"}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    code, stdout = run(tmp_path / "a.json", tmp_path / "b.json")
    assert code == 1
    _, max_abs, max_rel, count = field_line(stdout, "a.json:ci[*][*]")
    assert (float(max_abs), float(max_rel), int(count)) == (0.5, 0.2, 4)
    assert "mismatch a.json:note: 'x' != 'y'" in stdout
    assert "mismatch a.json:only_a: only in A" in stdout


def test_simulate_directories_compare_csv_columns_and_files(tmp_path):
    for side, value in (("A", "0.125"), ("B", "0.5")):
        d = tmp_path / side
        d.mkdir()
        (d / "bias.csv").write_text(f"estimator,value\nsive,{value}\ntsls,1\n")
        (d / "bias.json").write_text(json.dumps({"rows": [{"value": float(value)}]}))
    (tmp_path / "A" / "manifest.json").write_text("{}")
    code, stdout = run(tmp_path / "A", tmp_path / "B")
    assert code == 1
    assert field_line(stdout, "bias.csv:value")[1:] == ["0.375", "0.75", "2"]
    assert field_line(stdout, "bias.json:rows[*].value")[1:] == ["0.375", "0.75", "1"]
    assert "mismatch manifest.json: file only in A" in stdout
