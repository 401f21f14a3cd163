"""Timed runs, set-up measurement, tracing and metric assembly.

Two measures keep timings comparable across runs on a machine whose speed
drifts (see reference.py):

* the run is pinned to one vCPU (its own affinity only), so every timing,
  the import probe and the reference kernel see the same vCPU;
* the workload's reference kernel is timed between consecutive ops, and
  every op time is rescaled by ``NOMINAL_S / reference time``, i.e. reported
  at the kernel's nominal speed.  Set-up, mostly an interpreter importing
  numpy and scipy, follows the kernel only over minutes, not per call, so
  it is rescaled by the run's median kernel time instead.  Raw wall times
  are printed and kept in the run record next to the rescaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import KERNELS, NOMINAL_S
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Inference100k, MonteCarlo

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sivreg; "
    "print(time.perf_counter() - t)"
)
CACHE_NOTE = (
    "vectors are <= ~1.6 MB (2e5 float64) at these sizes, inside the 105 MiB L3 "
    "of the reference machine, so no bandwidth or roofline figure is reported"
)


def pin_to_one_cpu() -> int:
    """Restrict this process (and its children) to the last CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(root: Path) -> dict:
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    code = hashlib.sha256()
    for path in sorted((root / "src" / "sivreg").rglob("*.py")):
        code.update(path.relative_to(root).as_posix().encode())
        code.update(path.read_bytes())
    return {
        "git_sha": sha,
        "code_sha256": code.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_seconds(root: Path) -> float:
    """Wall time of ``import sivreg`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(workload, reference, seconds: float, tracer: Tracer | None = None,
              min_ops: int = 1):
    """Closed loop: one op at a time until ``seconds`` have passed.

    With a tracer, ops alternate untraced and traced (the tracer is installed
    only around odd-numbered ops), so both kinds see the same phases of the
    machine's speed; the run ends only once ``min_ops`` ops of each kind are
    done.  Returns (op wall times, reference time around each op, collected
    outputs, op errors); an op that raises gets output None and its error.
    """
    times, refs, outputs, errors = [], [], [], []
    deadline = time.perf_counter() + seconds
    ref_before = reference.seconds()
    while True:
        traced = tracer is not None and len(times) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            span = tracer.begin_op()
        t0 = time.perf_counter()
        try:
            workload.op()
            error = None
        except Exception as exc:  # every failure of the program counts, none stops the run
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            tracer.end_op(span)
            tracer.uninstall()
        ref_after = reference.seconds()
        times.append(t1 - t0)
        refs.append((ref_before + ref_after) / 2.0)
        ref_before = ref_after
        output = None
        if error is None:
            try:
                output = workload.result()
            except Exception as exc:
                error = f"collecting output: {type(exc).__name__}: {exc}"
        outputs.append(output)
        errors.append(error)
        per_kind = len(times) // 2 if tracer is not None else len(times)
        if per_kind >= min_ops and time.perf_counter() >= deadline:
            return times, refs, outputs, errors


def timed_setups(workload, root: Path, repeats: int) -> list[float]:
    """Wall time of ``repeats`` set-ups, each with a fresh-interpreter import."""
    times = []
    for _ in range(repeats):
        imported = import_seconds(root)
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        times.append(imported + time.perf_counter() - t0)
    return times


def at_nominal_speed(times: list, refs: list) -> list:
    return [t * NOMINAL_S / r for t, r in zip(times, refs)]


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, root, work, out_dir, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, root, work, out_dir, spec) -> dict:
    cpu = pin_to_one_cpu()
    env = dict(environment(root), pinned_cpu=cpu)
    workload = WORKLOADS[name](seed, work)
    workload.generate()
    # Imported here once; set-up counts the import as timed in a fresh interpreter.
    import sivreg  # noqa: F401

    setups = timed_setups(workload, root, 1 if trace else SETUP_REPEATS)
    rss_setup = peak_rss_mb()

    tracer = Tracer() if trace else None
    times, refs, outputs, errors = timed_ops(
        workload, KERNELS[name](), seconds, tracer, min_ops=2 if trace else 1
    )
    rss_peak = peak_rss_mb()

    try:
        problems = workload.gate(outputs)
    except Exception as exc:
        problems = [[f"gate raised {type(exc).__name__}: {exc}"]] * len(outputs)
    problems = [([err] if err else []) + found for err, found in zip(errors, problems)]

    if trace:
        metrics, counts = _trace_metrics(workload, tracer, times, outputs, problems)
        _check_saved_counts(counts, outputs, problems, out_dir / (
            f"counts-{name}-seed{seed}-{env['code_sha256'][:16]}.json"))
        tracer.save(out_dir / f"spans-{name}-seed{seed}-{os.getpid()}.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setups) * NOMINAL_S / statistics.median(refs),
            "op_s": statistics.median(at_nominal_speed(times, refs)),
            "peak_rss_mb": rss_peak,
        }

    failed = sum(1 for p in problems if p)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "env": env, "inputs": workload.record(), "attempted": len(times), "failed": failed,
        "op_wall_s": times, "op_reference_s": refs,
        "setup_wall_s": setups,
        "rss_after_setup_mb": rss_setup, "rss_after_ops_mb": rss_peak,
        "problems": [p for p in problems if p][:20], "metrics": metrics,
    }
    _report(workload, record)
    (out_dir / f"run-{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }


def _exact_counts(op: dict, output) -> dict:
    """The counts that must repeat exactly for the same code, workload and seed."""
    counts = {fn: calls for fn, (calls, _) in sorted(op["functions"].items())}
    counts["simulation.draw_calls"] = op["draw_calls"]
    counts["simulation.distinct_draws"] = op["distinct_draws"]
    if isinstance(output, dict) and "rows" in output:
        counts["simulation.attrition"] = list(MonteCarlo.attrition(output["rows"]))
    return counts


def _trace_metrics(workload, tracer: Tracer, times, outputs, problems) -> tuple[dict, dict]:
    """Per-layer metrics from the traced (odd-numbered) ops, and the exact counts.

    Self times are per-op means, counts come from the first traced op and
    must repeat exactly in every other traced op.
    """
    ops = tracer.per_op()
    first = ops[0]
    metrics = {}
    for fn in tracer.functions:
        metrics[f"{fn}.calls"] = first["functions"].get(fn, (0, 0.0))[0]
        metrics[f"{fn}.self_s"] = statistics.fmean(
            op["functions"].get(fn, (0, 0.0))[1] for op in ops
        )
    wall = statistics.fmean(op["wall_s"] for op in ops)
    for layer in LAYERS:
        mine = [fn for fn in tracer.functions if fn.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(metrics[f"{fn}.calls"] for fn in mine)
        metrics[f"{layer}.self_s"] = sum(metrics[f"{fn}.self_s"] for fn in mine)
        metrics[f"{layer}.share"] = metrics[f"{layer}.self_s"] / wall
    metrics["bench.self_s"] = statistics.fmean(op["functions"]["bench.op"][1] for op in ops)
    metrics["tracing.op_s"] = statistics.median(op["wall_s"] for op in ops)
    # Adjacent untraced/traced pairs share the machine's speed phase.
    untraced = times[0::2]
    ratio = statistics.median(t / u for u, t in zip(untraced, times[1::2]))
    metrics["tracing.overhead_share"] = ratio - 1.0
    metrics["tracing.overhead_s"] = (ratio - 1.0) * statistics.median(untraced)

    draws = first["draw_calls"]
    metrics["simulation.draw_reuse"] = first["distinct_draws"] / draws if draws else 0.0
    dropped, attempted = 0, 0
    if isinstance(workload, MonteCarlo) and outputs[1] is not None:
        dropped, attempted = MonteCarlo.attrition(outputs[1]["rows"])
    metrics["simulation.attrition_share"] = dropped / attempted if attempted else 0.0

    counts = [_exact_counts(op, out) for op, out in zip(ops, outputs[1::2])]
    for k, c in enumerate(counts):
        if c != counts[0]:
            problems[2 * k + 1].append("exact call counts differ from the first traced op")
    return metrics, counts[0]


def _check_saved_counts(counts: dict, outputs, problems, saved: Path) -> None:
    """Compare with the counts of an earlier traced run of the same code and seed."""
    if not saved.exists():
        saved.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
        return
    if json.loads(saved.read_text(encoding="utf-8")) != counts:
        for k in range(1, len(outputs), 2):
            problems[k].append(f"exact call counts differ from {saved.name}")


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _report(workload, record: dict) -> None:
    """Human-readable summary; every line starts with '#'."""
    times = record["op_wall_s"]
    print(f"# workload {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seconds={record['seconds']}")
    print(f"# why: {record['why']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    print(f"# note: {CACHE_NOTE}")
    print("# inputs: " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    q1, med, q3 = _quartiles(times)
    print(f"# ops: {len(times)} attempted, {record['failed']} failed; raw wall op time "
          f"median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}); reference kernel median "
          f"{statistics.median(record['op_reference_s']):.4f} s (nominal {NOMINAL_S})")
    print(f"# metric error_rate = {record['failed'] / len(times)} ratio")
    if record["trace"]:
        print(f"# raw wall op time: untraced median {statistics.median(times[0::2]):.4f} s, "
              f"traced {statistics.median(times[1::2]):.4f} s")
    else:
        _report_end_to_end(workload, record["metrics"]["op_s"], record["op_reference_s"])
    print(f"# peak RSS after set-up {record['rss_after_setup_mb']:.1f} MB, "
          f"after ops {record['rss_after_ops_mb']:.1f} MB")
    for name, value in sorted(record["metrics"].items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"# metric {name} = {shown}")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")


def _report_end_to_end(workload, op_s: float, refs: list) -> None:
    """The per-workload forms of the end-to-end figures, at nominal speed."""
    print(f"# metric rows_per_s = {workload.rows_per_op() / op_s:.1f} 1/s")
    if isinstance(workload, Inference100k):
        report_s, ci_s = (
            statistics.median(at_nominal_speed([p[k] for p in workload.phase_s], refs))
            for k in (0, 1)
        )
        print(f"# metric report_ms = {1e3 * report_s:.3f} ms")
        print(f"# metric robust_ci_s = {ci_s:.4f} s")
    if isinstance(workload, MonteCarlo):
        reps = workload.cells() * workload.config["replications"]
        print(f"# metric replications_per_s = {reps / op_s:.2f} 1/s")
