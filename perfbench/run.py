"""Run one benchmark workload for one seed and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload cli_estimate --seed 1 --seconds 20 --trace 0

Workloads: cli_estimate, inference_100k, monte_carlo (see workloads.py).
Lines starting with '#' are a human-readable report; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a run with every public function of
each layer wrapped in a span.  Spans and a record of each run are written to
``.perfbench_out/``; scratch inputs live in ``.perfbench_work/`` for the
duration of the run.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy loads, here and in child processes.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli_estimate", "inference_100k", "monte_carlo")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    needed = (src / "sivreg" / "__init__.py", ROOT / "BENCHMARK.json")
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a full checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
