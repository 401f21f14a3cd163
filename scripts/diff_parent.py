#!/usr/bin/env python3
"""Run the same sivreg commands on this checkout and on another revision, and
compare every output.

Usage: python scripts/diff_parent.py REV

REV is checked out with ``git worktree add --detach`` in a temporary
directory (under ``$RUNNER_TEMP`` if it is set), and the 20,000-row CSV of
``scripts/scale_out.py --seed 5`` is written once.  Both trees run, each
command in a fresh process with that tree's ``src`` on the path:

- ``estimate`` with each of the five estimators, and ``robust-ci`` with the
  default window, with ``--grid-low -5 --grid-high 5``, with
  ``--grid-low -3 --grid-high 4`` (a window whose midpoint is not 0) and
  with ``--grid-low 1e200 --grid-high 1e201`` (a window whose table
  overflows, so the set is solved at 0), each once with ``--outcome y
  --treatment t`` (a 0/1 treatment) and once with ``--outcome t --treatment
  y`` (a continuous one);
- ``estimate --estimator tsls-generic --covariates a,b`` with the three other
  specs (the two linear ones need numeric covariates);
- ``audit --dump-design``, its dump moved aside after each run so both
  reports name one path;
- ``simulate`` on a small smoke grid and on a fixed paper-scale grid (n 3000,
  L 25 and 300, p1 0.49, 100 replications), both with seed 1941, and on
  ``scripts/configs/heterogeneity_h10.json``.

Each pair of outputs is compared field by field (``diff_outputs.py``), and one
line is printed per output, ``identical`` or ``DIFFERS``.  Under each
``DIFFERS`` come the fields that differ, each with its largest absolute and
relative difference and its number of values, then any other mismatch.
Every case is written to succeed, so a nonzero exit or a missing output is a
``DIFFERS`` even when both trees fail alike.  Exit status: 0 if every command
exits 0 on both trees and every output agrees, 1 otherwise.  The worktree is
removed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from diff_outputs import diff_outputs, report
from scale_out import write_csv

ROOT = Path(__file__).resolve().parents[1]
ESTIMATORS = ("sive", "tsls-saturated", "jive1", "jive2", "tsls-generic")
GENERIC_SPECS = ("not-saturated", "saturated-instruments", "saturated-controls")
ROLES = {"yt": ("y", "t"), "ty": ("t", "y")}
WINDOWS = {"window": ("-5", "5"), "window34": ("-3", "4"), "window1e200": ("1e200", "1e201")}
GRIDS = {
    "smoke": {"n": 600, "L": [1, 5, 60], "p1": [0.3, 0.49], "replications": 12},
    # The defaults of perfbench's monte_carlo workload when this grid was
    # written; a fixed copy, which does not follow them if they change.
    "monte_carlo": {"n": 3000, "L": [25, 300], "p1": [0.49], "replications": 100},
}


def commands(data: Path, work: Path) -> dict:
    """Each output's name and the sivreg arguments that write it to ``work``."""
    source = ["--data", str(data), "--instrument", "educ", "--binarize", "educ:12"]
    spec = source + ["--covariates", "a,b,region"]
    runs = {}
    for role, (outcome, treatment) in ROLES.items():
        args = spec + ["--outcome", outcome, "--treatment", treatment]
        for est in ESTIMATORS:
            runs[f"estimate_{est}_{role}.json"] = ["estimate", *args, "--estimator", est]
        runs[f"robust-ci_{role}.json"] = ["robust-ci", *args]
        for window, (low, high) in WINDOWS.items():
            runs[f"robust-ci-{window}_{role}.json"] = ["robust-ci", *args,
                                                       f"--grid-low={low}", f"--grid-high={high}"]
    numeric = source + ["--covariates", "a,b", "--outcome", "y", "--treatment", "t"]
    for s in GENERIC_SPECS:
        runs[f"estimate_tsls-generic_{s}.json"] = ["estimate", *numeric,
                                                   "--estimator", "tsls-generic", "--spec", s]
    runs["audit.json"] = ["audit", *spec, "--dump-design", str(work / "design.json")]
    for grid in GRIDS:
        runs[f"simulate_{grid}"] = ["simulate", "--config", str(work / f"{grid}.json"),
                                    "--seed", "1941"]
    runs["simulate_h10"] = ["simulate", "--config",
                            str(ROOT / "scripts" / "configs" / "heterogeneity_h10.json")]
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


def differences(a: Path, b: Path, code_a: int, code_b: int) -> list[str] | None:
    """None if both runs succeed with equal outputs, else the lines that say
    how they differ.  Every case is written to succeed, so a nonzero exit or
    a missing output is reported even when both sides fail alike."""
    if code_a or code_b:
        return [f"exit {code_a} against {code_b}"]
    if not (a.exists() and b.exists()):
        sides = [p.parent.name for p in (a, b) if p.exists()]
        return [f"output only in {sides[0]}" if sides else "no output on either side"]
    table, mismatches = diff_outputs(a, b)
    fields = [field for field, entry in table.items() if entry[0] != 0.0]
    return report(table, mismatches, fields) if fields or mismatches else None


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
            for grid, config in GRIDS.items():
                (work / f"{grid}.json").write_text(json.dumps(config), encoding="utf-8")
            (work / "out").mkdir()
            runs = commands(work / "data.csv", work)
            codes = [run_tree(tree, runs, work, side) for tree, side in zip((rev, ROOT), sides)]
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(rev)], check=False)
        same = True
        for name in [*runs, "design.json"]:
            lines = differences(sides[0] / name, sides[1] / name,
                                codes[0].get(name, 0), codes[1].get(name, 0))
            same &= lines is None
            print(f"{'identical' if lines is None else 'DIFFERS':<9}  {name}")
            for line in lines or ():
                print(f"    {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
