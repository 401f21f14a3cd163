"""Smoke self-test of the benchmark itself.

From the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size through set-up, two ops and the gate;
feeds the gate a deliberately perturbed beta_hat, a widened confidence set
and a differing simulation output and requires each to be reported as a
failure; checks that tracing counts repeat and that uninstalling restores the
original functions; runs ``run.py`` once per trace mode and checks the shape
of its last line against BENCHMARK.json; and checks that ``run.py`` fails
without printing a result in a directory holding only the benchmark.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import timed_ops  # noqa: E402
from reference import KERNELS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CliEstimate, Inference100k, MonteCarlo  # noqa: E402

FAILURES = []


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def smoke(workload, tracer=None) -> list:
    workload.generate()
    workload.setup()
    _, _, outputs, errors = timed_ops(workload, KERNELS[workload.name](), 0.0, tracer, min_ops=2)
    problems = workload.gate(outputs)
    check(not any(errors) and not any(problems),
          f"{workload.name}: tiny run passes the gate {errors} {problems}")
    return outputs


def test_cli(work: Path) -> None:
    wl = CliEstimate(7, work, rows=3000, levels=(2, 2, 3), tiny=1)
    outputs = smoke(wl)
    report = json.loads(outputs[0])
    report["estimate"]["beta_hat"] *= 1.0 + 1e-6
    bad = json.dumps(report, indent=2).encode() + b"\n"
    check(bool(wl.gate([bad])[0]), "cli_estimate: gate rejects a perturbed beta_hat")


def test_inference(work: Path) -> None:
    wl = Inference100k(7, work, n=4000, groups=20, tiny=2)
    tracer = Tracer()
    wl.generate()
    wl.setup()
    import sivreg.blockops
    import sivreg.inference

    original = sivreg.inference.apply_A
    tracer.install()
    try:
        check(sivreg.inference.apply_A is not original, "tracer rebinds imported names")
    finally:
        tracer.uninstall()
    check(sivreg.inference.apply_A is original and sivreg.blockops.apply_A is original,
          "tracer uninstall restores the original functions")
    _, _, outputs, errors = timed_ops(wl, KERNELS[wl.name](), 0.0, tracer, min_ops=2)
    check(sivreg.inference.apply_A is original, "traced ops leave the original functions bound")
    problems = wl.gate(outputs)
    check(not any(errors) and not any(problems),
          f"inference_100k: tiny run passes the gate {errors} {problems}")
    ops = tracer.per_op()
    calls = [{fn: c for fn, (c, _) in op["functions"].items()} for op in ops]
    check(calls[0] == calls[1], "exact call counts repeat across ops")
    check(calls[0].get("inference.robust_test") == wl.grid_points,
          "robust_test calls per op equal the grid points")

    beta, var, ci = outputs[0]
    check(bool(wl.gate([(beta * (1.0 + 1e-6), var, ci)])[0]),
          "inference_100k: gate rejects a perturbed beta_hat")
    check(bool(wl.gate([(beta, var * (1.0 + 1e-6), ci)])[0]),
          "inference_100k: gate rejects a perturbed variance")
    step = ci["grid"]["step"]
    wide = dict(ci, intervals=[(lo - 3 * step, hi + 3 * step) for lo, hi in ci["intervals"]])
    check(bool(wl.gate([(beta, var, wide)])[0]),
          "inference_100k: gate rejects a widened confidence set")


def test_monte_carlo(work: Path) -> None:
    wl = MonteCarlo(7, work, n=400, L=(5,), replications=4)
    outputs = smoke(wl)
    changed = dict(outputs[1], sha256="0" * 64)
    check(bool(wl.gate([outputs[0], changed])[1]),
          "monte_carlo: gate rejects differing output files")


def test_run_py(work: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "monte_carlo", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        check(set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"],
              f"run.py --trace {trace}: exit 0 and a correct result line")
        check(set(last.get("metrics", {})) == {m["name"] for m in spec[key]},
              f"run.py --trace {trace}: reports exactly the {key} metrics")

    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without a result in a directory holding only the benchmark")


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for test in (test_cli, test_inference, test_monte_carlo, test_run_py):
            sub = work / test.__name__
            sub.mkdir()
            test(sub)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
