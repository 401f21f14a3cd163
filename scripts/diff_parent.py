#!/usr/bin/env python3
"""Run the same sivreg commands on this checkout and on another revision, and
compare every output.

Usage: python scripts/diff_parent.py REV

REV is checked out with ``git worktree add --detach`` in a temporary
directory (under ``$RUNNER_TEMP`` if it is set), and the 20,000-row CSV of
``scripts/scale_out.py --seed 5`` is written once.  On both trees, with each
tree's ``src`` on the path, the script runs ``estimate`` with each of the five
estimators and ``robust-ci`` with the default window and with ``--grid-low -5
--grid-high 5``, each once with ``--outcome y --treatment t`` and once with
``--outcome t --treatment y``; ``audit --dump-design``, its dump moved aside
after each run so both reports name one path; and ``simulate`` on the CI
smoke config with seed 1941.  Each pair of outputs is compared field by field
(``diff_outputs.py``), and one line is printed per output.  Exit status: 0 if
every output and exit code agree, 1 otherwise.  The worktree is removed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from diff_outputs import diff_outputs
from scale_out import write_csv

ROOT = Path(__file__).resolve().parents[1]
ESTIMATORS = ("sive", "tsls-saturated", "jive1", "jive2", "tsls-generic")
ROLES = {"yt": ("y", "t"), "ty": ("t", "y")}
SMOKE = {"n": 600, "L": [1, 5, 60], "p1": [0.3, 0.49], "replications": 12}


def commands(data: Path, work: Path) -> dict:
    """Each output's name and the sivreg arguments that write it to ``work``."""
    spec = ["--data", str(data), "--instrument", "educ", "--binarize", "educ:12",
            "--covariates", "a,b,region"]
    runs = {}
    for role, (outcome, treatment) in ROLES.items():
        args = spec + ["--outcome", outcome, "--treatment", treatment]
        for est in ESTIMATORS:
            runs[f"estimate_{est}_{role}.json"] = ["estimate", *args, "--estimator", est]
        runs[f"robust-ci_{role}.json"] = ["robust-ci", *args]
        runs[f"robust-ci-window_{role}.json"] = ["robust-ci", *args,
                                                 "--grid-low=-5", "--grid-high=5"]
    runs["audit.json"] = ["audit", *spec, "--dump-design", str(work / "design.json")]
    runs["simulate"] = ["simulate", "--config", str(work / "smoke.json"), "--seed", "1941"]
    return {name: [*argv, "--out", str(work / "out" / name)] for name, argv in runs.items()}


def run_tree(tree: Path, runs: dict, work: Path, side: Path) -> dict:
    """Run every command on ``tree`` and move its outputs to ``side``.
    Returns each output's exit code."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    side.mkdir()
    codes = {}
    for name, argv in runs.items():
        child = subprocess.run([sys.executable, "-m", "sivreg", *argv], env=env, cwd=tree,
                               capture_output=True, text=True)
        codes[name] = child.returncode
        if child.returncode:
            print(f"{side.name} {name}: exit {child.returncode}: {child.stderr.strip()}")
        if name == "audit.json" and (work / "design.json").exists():
            (work / "design.json").rename(side / "design.json")
    for out in (work / "out").iterdir():
        out.rename(side / out.name)
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as tmp:
        work = Path(tmp)
        rev, sides = work / "tree", (work / "rev", work / "head")
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(rev), args[0]], check=True)
        try:
            write_csv(work / "data.csv", 20_000, 5)
            (work / "smoke.json").write_text(json.dumps(SMOKE), encoding="utf-8")
            (work / "out").mkdir()
            runs = commands(work / "data.csv", work)
            codes = [run_tree(tree, runs, work, side) for tree, side in zip((rev, ROOT), sides)]
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(rev)], check=False)
        same = True
        for name in [*runs, "design.json"]:
            a, b = sides[0] / name, sides[1] / name
            if codes[0].get(name, 0) != codes[1].get(name, 0) or a.exists() != b.exists():
                agree = False
            elif not a.exists():
                agree = True  # both failed alike, with no output
            else:
                table, mismatches = diff_outputs(a, b)
                agree = not mismatches and all(e[0] == 0.0 for e in table.values())
            same &= agree
            print(f"{'identical' if agree else 'DIFFERS':<9}  {name}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
