"""The scale-out script at a small size."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_out.py"


def test_scale_out_runs_estimate_on_a_generated_csv(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--rows", "2000", "--seed", "3", "--dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["rows"] == 2000 and result["exit_code"] == 0
    assert result["wall_s"] > 0.0 and result["peak_rss_mb"] > 0.0
    header = (tmp_path / "scale_out.csv").read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == "id,y,t,educ,a,b,region"
    report = json.loads((tmp_path / "scale_out.json").read_text(encoding="utf-8"))
    # 2000 rows over 1000 groups: the size filter keeps only some of them
    assert 0 < report["design_summary"]["n"] <= 2000
    assert report["estimate"]["beta_hat"] is not None


def test_scale_out_repeat_reports_the_median_wall_time(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--rows", "2000", "--seed", "4", "--repeat", "3",
         "--dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["repeat"] == 3 and result["exit_code"] == 0
    runs = result["wall_runs_s"]
    assert len(runs) == 3 and result["wall_s"] == sorted(runs)[1]
    assert result["peak_rss_mb"] > 0.0


def test_scale_out_refuses_a_repeat_below_one():
    out = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "--repeat must be at least 1" in out.stderr


def test_scale_out_levels_sets_the_covariate_levels(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--rows", "3000", "--seed", "5", "--levels", "3",
         "--dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["levels"] == 3
    lines = (tmp_path / "scale_out.csv").read_text(encoding="utf-8").splitlines()[1:]
    a, b, region = zip(*(line.split(",")[4:] for line in lines))
    assert set(a) == set(b) == {"0", "1", "2"}
    assert set(region) == {"region_00", "region_01", "region_02"}
    report = json.loads((tmp_path / "scale_out.json").read_text(encoding="utf-8"))
    # 3000 rows over 27 groups: every group passes the size filter
    assert report["design_summary"]["G"] == 27
