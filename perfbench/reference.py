"""Reference kernels that measure the machine's current speed.

The reference machine is a shared 2-vCPU VM whose speed drifts by up to
1.8x over tens of seconds, separately on each vCPU.  The harness times one of
these kernels between consecutive ops and rescales each op to the kernel's
nominal time.  Each kernel imitates the dominant work of one workload, so it
slows down with the op under the same kind of contention (a small or a large
working set, interpreter or numpy work), but it uses no sivreg code, so no
change to the program moves it.  Each allocates far less than its
workload's op, so it never sets the peak RSS.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

NOMINAL_S = 0.2


class Ingest:
    """csv.DictReader over 3000 rows, float parsing and tuple grouping."""

    REPEATS = 12

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        lines = ["id,y,t,educ,a,b,region"]
        for i in range(3000):
            t, educ, a, b, region = rng.integers([0, 8, 0, 0, 0], [2, 21, 10, 10, 10]).tolist()
            lines.append(f"{i},{rng.standard_normal()!r},{t},{educ},{a},{b},region_{region:02d}")
        self.text = "\n".join(lines) + "\n"

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            rows = list(csv.DictReader(io.StringIO(self.text)))
            y = np.array([float(row["y"].strip()) for row in rows])
            keys = [(float(row["a"]), float(row["b"]), row["region"].strip()) for row in rows]
            groups: dict = {}
            index = np.array([groups.setdefault(key, len(groups)) for key in keys])
            np.bincount(index, weights=y)
        return time.perf_counter() - t0


class Arithmetic:
    """Masked bincounts and gathers over 1e5-element vectors."""

    REPEATS = 34

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.group = rng.integers(0, 1000, 100_000)
        self.active = rng.random(100_000) < 0.5
        self.v = rng.standard_normal(100_000)

    def seconds(self) -> float:
        g, z, v = self.group, self.active, self.v
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            s_act = np.bincount(g[z], weights=v[z], minlength=1000)
            s_ina = np.bincount(g[~z], weights=v[~z], minlength=1000)
            v - np.where(z, s_act[g], s_ina[g]) / 100.0
        return time.perf_counter() - t0


class SmallCalls:
    """Per-draw work at n=3000: a Python radical-inverse loop, grouping 3000
    float 1-tuples in a dict, and many short numpy calls."""

    REPEATS = 85

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.y = rng.standard_normal(3000)

    def seconds(self) -> float:
        y = self.y
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            points = []
            for i in range(1, 301):
                value, scale = 0.0, 1.0
                while i > 0:
                    scale /= 2.0
                    value += scale * (i % 2)
                    i //= 2
                points.append(value)
            x = np.array(points)[np.arange(3000) % 300]
            index: dict = {}
            group = np.array([index.setdefault((float(v),), len(index)) for v in x])
            active = np.random.default_rng(0).random(3000) < 0.5
            for _ in range(10):
                sums = np.bincount(group[active], weights=y[active], minlength=300)
                counts = np.bincount(group, minlength=300)
                y - np.where(active, sums[group], counts[group])
        return time.perf_counter() - t0


KERNELS = {"cli_estimate": Ingest, "inference_100k": Arithmetic, "monte_carlo": SmallCalls}
