#!/usr/bin/env python3
"""Wall time and peak memory of ``sivreg estimate`` on a large CSV.

Usage: python scripts/scale_out.py [--rows N] [--seed S] [--repeat K] [--levels L]
                                   [--dir DIR]

Writes a seeded CSV with the columns ``id,y,t,educ,a,b,region`` (L**3
covariate groups, 1000 by default: integer a and b and string region with L
levels each; ``educ > 12`` exactly when the instrument is on), then runs
``python -m sivreg estimate`` on it in a child process K times (default 1),
with this checkout's ``src`` on the path.
Prints one JSON line: rows, CSV size, the children's exit code (the first
non-zero one; later runs are skipped), the median and each wall time, and the
largest peak RSS of any child (``RUSAGE_CHILDREN``; the CSV is written in
this process, not a child).
Without ``--dir`` the CSV and the report go to a temporary directory that is
removed afterwards.  Exit status: the child's.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
LEVELS = 10  # default levels of each of a, b and region
CHUNK = 100_000


def write_csv(path: Path, rows: int, seed: int, levels: int = LEVELS) -> None:
    """A seeded sample over ``levels**3`` groups, written CHUNK rows at a time."""
    rng = np.random.default_rng(seed)
    groups = levels**3
    propensity = rng.uniform(0.3, 0.7, groups)
    base = rng.uniform(0.15, 0.35, groups)
    complier = rng.uniform(0.2, 0.45, groups)
    effect = 0.2 + 0.1 * rng.standard_normal(groups)
    level = rng.normal(1.0, 0.5, groups)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,y,t,educ,a,b,region\n")
        for start in range(0, rows, CHUNK):
            k = min(CHUNK, rows - start)
            code = rng.integers(0, groups, k)
            z = rng.random(k) < propensity[code]
            latent = rng.random(k)
            t = (latent < base[code] + complier[code] * z).astype(np.int64)
            y = level[code] + effect[code] * t + 1.2 * (latent - 0.5) + rng.standard_normal(k)
            educ = np.where(z, rng.integers(13, 21, k), rng.integers(8, 13, k))
            a, b, r = code // levels**2, (code // levels) % levels, code % levels
            fh.writelines(
                f"{i},{yi!r},{ti},{ei},{ai},{bi},region_{ri:02d}\n"
                for i, yi, ti, ei, ai, bi, ri in zip(
                    range(start, start + k), y.tolist(), t.tolist(), educ.tolist(),
                    a.tolist(), b.tolist(), r.tolist(),
                )
            )


def measure(work: Path, rows: int, seed: int, repeat: int = 1, levels: int = LEVELS) -> dict:
    data, report = work / "scale_out.csv", work / "scale_out.json"
    write_csv(data, rows, seed, levels)
    argv = [
        sys.executable, "-m", "sivreg", "estimate", "--data", str(data),
        "--outcome", "y", "--treatment", "t", "--instrument", "educ",
        "--binarize", "educ:12", "--covariates", "a,b,region", "--out", str(report),
    ]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    walls = []
    for _ in range(repeat):
        start = time.perf_counter()
        child = subprocess.run(argv, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if child.returncode:
            break
    # The largest peak of any child waited for, so of all K runs.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "rows": rows,
        "seed": seed,
        "levels": levels,
        "csv_mb": round(data.stat().st_size / 2**20, 1),
        "exit_code": child.returncode,
        "repeat": repeat,
        "wall_s": round(statistics.median(walls), 3),
        "wall_runs_s": [round(w, 3) for w in walls],
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }
    if child.returncode:
        result["stderr"] = child.stderr.strip()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the child this many times on the one CSV")
    parser.add_argument("--levels", type=int, default=LEVELS,
                        help="levels of each of a, b and region (levels**3 groups)")
    parser.add_argument("--dir", default=None, help="keep the CSV and report here")
    args = parser.parse_args(argv)
    if args.rows < 1:
        parser.error("--rows must be at least 1")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.levels < 1:
        parser.error("--levels must be at least 1")
    kept = contextlib.nullcontext(args.dir) if args.dir else tempfile.TemporaryDirectory()
    with kept as work:
        Path(work).mkdir(parents=True, exist_ok=True)
        result = measure(Path(work), args.rows, args.seed, args.repeat, args.levels)
    print(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
