"""The three benchmark workloads.

Each is a closed loop: one caller, one call at a time, in this process.
A workload makes its inputs from the seed (``generate``, not timed), makes
the program calls that precede timing (``setup``), runs one timed op
(``op``), collects that op's output outside the timed section (``result``)
and checks every collected output against the dense reference (``gate``).

cli_estimate
    ``sivreg estimate`` in-process on a seeded CSV of 200k rows and about
    1000 groups (integer covariates a, b and the string covariate region).
    The data-file-to-report path: CSV ingest and design build dominate.
inference_100k
    ``sive_report`` plus ``robust_ci`` over a fixed 61-point grid on one
    in-memory design of 1e5 rows and about 1000 groups, built at set-up.
    Pure operator and inference arithmetic on a reused design.
monte_carlo
    ``sivreg simulate`` in-process at paper scale: n=3000, L in {25, 300},
    p1=0.49, 100 replications.  Many small fresh designs, so per-call and
    per-design fixed costs dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from gate import check_ci, check_estimate, ci_probes, evaluate, kept_groups


class OpFailed(RuntimeError):
    """The program returned a failure status."""


def _cli_main(argv) -> str:
    """Run the command line in-process; returns what it printed on stdout."""
    from sivreg.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise OpFailed(f"sivreg {argv[0]} exited with code {code}")
    return buffer.getvalue()


def _grouped_sample(rng, rows: int, groups: int, tiny: int):
    """Rows spread over ``groups`` covariate groups with a binary instrument.

    ``tiny`` groups get about two rows each, so the size filter drops them.
    Compliance, effects and baselines vary by group; the treatment error is
    correlated with the outcome error (endogeneity).
    """
    weights = np.ones(groups)
    weights[rng.choice(groups, size=tiny, replace=False)] = 2.0 * groups / rows
    code = rng.choice(groups, size=rows, p=weights / weights.sum())
    propensity = rng.uniform(0.3, 0.7, groups)
    z = (rng.random(rows) < propensity[code]).astype(np.int64)
    base = rng.uniform(0.15, 0.35, groups)
    complier = rng.uniform(0.2, 0.45, groups)
    latent = rng.random(rows)
    t = (latent < base[code] + complier[code] * z).astype(np.float64)
    effect = 0.2 + 0.1 * rng.standard_normal(groups)
    level = rng.normal(1.0, 0.5, groups)
    noise = 1.2 * (latent - 0.5) + rng.standard_normal(rows)
    y = level[code] + effect[code] * t + noise
    return code, z, t, y


class CliEstimate:
    name = "cli_estimate"

    def __init__(self, seed: int, work: Path, rows: int = 200_000, levels=(10, 10, 10),
                 tiny: int = 10):
        # levels of a, b and region: 1000 covariate groups by default
        self.seed, self.work, self.rows, self.levels, self.tiny = seed, work, rows, levels, tiny
        self.csv = work / "data.csv"
        self.report = work / "report.json"

    def _write_csv(self, path: Path, rng, rows: int, tiny: int) -> tuple:
        na, nb, nr = self.levels
        code, z, t, y = _grouped_sample(rng, rows, na * nb * nr, tiny)
        a, b, region = code // (nb * nr), (code // nr) % nb, code % nr
        # educ > 12 exactly when the instrument is on; --binarize educ:12 recovers it.
        educ = np.where(z == 1, rng.integers(13, 21, rows), rng.integers(8, 13, rows))
        lines = ["id,y,t,educ,a,b,region\n"]
        lines += [
            f"{i},{yi!r},{int(ti)},{ei},{ai},{bi},region_{ri:02d}\n"
            for i, yi, ti, ei, ai, bi, ri in zip(
                range(rows), y.tolist(), t.tolist(), educ.tolist(),
                a.tolist(), b.tolist(), region.tolist(),
            )
        ]
        path.write_text("".join(lines), encoding="utf-8")
        return code, z, t, y

    def _argv(self, csv: Path, out: Path) -> list[str]:
        return [
            "estimate", "--data", str(csv), "--outcome", "y", "--treatment", "t",
            "--instrument", "educ", "--binarize", "educ:12",
            "--covariates", "a,b,region", "--out", str(out),
        ]

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.code, self.z, self.t, self.y = self._write_csv(self.csv, rng, self.rows, self.tiny)
        self.warm_csv = self.work / "warmup.csv"
        self._write_csv(self.warm_csv, rng, 2000, 0)

    def setup(self) -> None:
        _cli_main(self._argv(self.warm_csv, self.work / "warmup.json"))

    def op(self) -> None:
        _cli_main(self._argv(self.csv, self.report))

    def result(self) -> bytes:
        data = self.report.read_bytes()
        self.report.unlink()
        return data

    def record(self) -> dict:
        rows, _, G = kept_groups(self.code, self.z)
        return {"seed": self.seed, "rows": self.rows, "n": int(rows.sum()), "G": G}

    def rows_per_op(self) -> int:
        return self.rows

    def gate(self, outputs: list) -> list[list[str]]:
        rows, group, G = kept_groups(self.code, self.z)
        reports = [json.loads(out) for out in outputs if out is not None]
        betas = [r["estimate"]["beta_hat"] for r in reports]
        oracle = evaluate(group, self.z[rows], self.y[rows], self.t[rows], betas)
        problems = []
        for out in outputs:
            if out is None:
                problems.append(["no output"])
                continue
            report = json.loads(out)
            found = check_estimate(
                oracle, report["estimate"]["beta_hat"], report["estimate"]["variance"]
            )
            summary = report["design_summary"]
            if (summary["n"], summary["G"]) != (int(rows.sum()), G):
                found.append(f"design n/G {summary['n']}/{summary['G']} != {int(rows.sum())}/{G}")
            if out != outputs[0]:
                found.append("report differs from the first op's")
            problems.append(found)
        return problems


class Inference100k:
    name = "inference_100k"

    def __init__(self, seed: int, work: Path, n: int = 100_000, groups: int = 1000,
                 tiny: int = 10, grid_points: int = 61):
        self.seed, self.n, self.groups, self.tiny = seed, n, groups, tiny
        self.grid_points = grid_points
        self.phase_s: list[tuple[float, float]] = []

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.code, self.z, self.t, self.y = _grouped_sample(rng, self.n, self.groups, self.tiny)
        self.covariates = self.code.tolist()

    def setup(self) -> None:
        from sivreg import (
            Sample, build_design, filter_design, robust_test, sive_report,
            validate_group_sizes,
        )

        raw = build_design(self.covariates, self.z)
        audit = validate_group_sizes(raw)
        self.design, self.sample = filter_design(raw, audit, Sample(self.y, self.t))
        report = sive_report(self.design, self.sample)
        se = report.std_error
        step = 20.0 * se / (self.grid_points - 1)
        # beta_hat +/- 10 SE; the half step keeps the last point inside the range.
        self.grid = {
            "low": report.beta_hat - 10.0 * se,
            "high": report.beta_hat + 10.0 * se + step / 2.0,
            "step": step,
        }
        robust_test(self.design, self.sample.outcome, self.sample.treatment, report.beta_hat)

    def op(self) -> None:
        from sivreg import robust_ci, sive_report

        t0 = time.perf_counter()
        report = sive_report(self.design, self.sample)
        t1 = time.perf_counter()
        ci = robust_ci(self.design, self.sample.outcome, self.sample.treatment, grid=self.grid)
        t2 = time.perf_counter()
        self.phase_s.append((t1 - t0, t2 - t1))
        self._last = (report.beta_hat, report.variance, ci)

    def result(self):
        return self._last

    def record(self) -> dict:
        return {
            "seed": self.seed, "rows": self.n, "n": self.design.n, "G": self.design.G,
            "grid_points": self.grid_points,
        }

    def rows_per_op(self) -> int:
        return self.design.n

    def gate(self, outputs: list) -> list[list[str]]:
        rows, group, G = kept_groups(self.code, self.z)
        betas = set()
        for out in outputs:
            if out is not None:
                betas.add(out[0])
                betas.update(beta for beta, _ in ci_probes(out[2]))
        oracle = evaluate(group, self.z[rows], self.y[rows], self.t[rows], betas)
        size_ok = (self.design.n, self.design.G) == (int(rows.sum()), G)
        problems = []
        for out in outputs:
            if out is None:
                problems.append(["no output"])
                continue
            beta_hat, variance, ci = out
            found = check_estimate(oracle, beta_hat, variance) + check_ci(oracle, ci)
            if not size_ok:
                found.append("design size disagrees with the independent grouping")
            problems.append(found)
        return problems


class MonteCarlo:
    name = "monte_carlo"
    OUTPUTS = ("bias.csv", "bias.json", "size.csv", "size.json", "manifest.json")

    def __init__(self, seed: int, work: Path, n: int = 3000, L=(25, 300), p1=(0.49,),
                 replications: int = 100):
        self.seed, self.work = seed, work
        self.config = {
            "n": n, "L": list(L), "p1": list(p1), "replications": replications,
            "master_seed": seed,
        }
        self.out = work / "sim"
        self.first_draws: dict = {}

    def generate(self) -> None:
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.warm_path = self.work / "warmup.json"
        self.warm_path.write_text(json.dumps(dict(self.config, replications=2)), encoding="utf-8")

    def setup(self) -> None:
        warm_out = self.work / "warmup"
        _cli_main(["simulate", "--config", str(self.warm_path), "--out", str(warm_out)])

    def op(self) -> None:
        self._stdout = _cli_main(
            ["simulate", "--config", str(self.config_path), "--out", str(self.out)]
        )

    def result(self) -> dict:
        digest = hashlib.sha256(self._stdout.encode())
        for name in self.OUTPUTS:
            digest.update((self.out / name).read_bytes())
        rows = []
        for name in ("bias.json", "size.json"):
            rows += json.loads((self.out / name).read_text(encoding="utf-8"))["rows"]
        shutil.rmtree(self.out)
        return {"sha256": digest.hexdigest(), "rows": rows}

    def cells(self) -> int:
        return len(self.config["L"]) * len(self.config["p1"])

    def record(self) -> dict:
        return {
            "seed": self.seed, "n": self.config["n"], "L": self.config["L"],
            "p1": self.config["p1"], "replications": self.config["replications"],
            "first_draw_n_G": self.first_draws,
        }

    def rows_per_op(self) -> int:
        # The bias and the size grid each draw every (cell, replication).
        return 2 * self.cells() * self.config["replications"] * self.config["n"]

    @staticmethod
    def attrition(rows) -> tuple[int, int]:
        """(replications dropped, replications attempted) over all attrition rows."""
        dropped = attempted = 0
        for row in rows:
            if row["metric"] == "attrition":
                attempted += row["replications"]
                dropped += round(row["value"] * row["replications"])
        return dropped, attempted

    def _first_draws(self) -> list[str]:
        """Library estimate and variance on each cell's first draw against the oracle."""
        from sivreg import (
            SimConfig, estimate_sive, generate_sample, replication_seed, sive_variance,
        )

        problems = []
        for L in self.config["L"]:
            for p1 in self.config["p1"]:
                cfg = SimConfig(n=self.config["n"], L=L, p1=p1,
                                replications=self.config["replications"],
                                master_seed=self.seed)
                draw = generate_sample(cfg, replication_seed(self.seed, 0))
                d, s = draw.design, draw.sample
                self.first_draws[f"L={L},p1={p1}"] = [d.n, d.G]
                beta = estimate_sive(d, s)
                var = sive_variance(d, s.outcome, s.treatment, beta)
                oracle = evaluate(d.group_of, d.instrument, s.outcome, s.treatment, [beta])
                problems += [f"L={L} p1={p1}: {p}" for p in check_estimate(oracle, beta, var)]
        return problems

    def gate(self, outputs: list) -> list[list[str]]:
        shared = self._first_draws()
        expected = {(L, p1) for L in self.config["L"] for p1 in self.config["p1"]}
        problems = []
        for out in outputs:
            if out is None:
                problems.append(["no output"])
                continue
            found = list(shared)
            if out["sha256"] != outputs[0]["sha256"]:
                found.append("output files differ from the first op's")
            cells = {(r["L"], r["p1"]) for r in out["rows"]}
            if cells != expected:
                found.append(f"cells {sorted(cells)} != {sorted(expected)}")
            _, attempted = self.attrition(out["rows"])
            # 4 estimators in the bias grid, 2 variance variants in the size grid.
            if attempted != 6 * len(expected) * self.config["replications"]:
                found.append(f"attrition rows cover {attempted} replications")
            problems.append(found)
        return problems


WORKLOADS = {w.name: w for w in (CliEstimate, Inference100k, MonteCarlo)}
