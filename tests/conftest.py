"""Shared generators for randomized design/sample tests."""

import numpy as np

from sivreg import Sample, build_design
from sivreg.blockops import _Atoms, _CellMoments


def random_design(rng, G=None, size_range=(4, 12), min_active=2, min_inactive=2):
    """A valid saturated design with shuffled row order.

    Group labels double as the single covariate, so group_keys are the
    labels; shuffling exercises the first-appearance indexing.
    """
    if G is None:
        G = int(rng.integers(1, 8))
    lo = max(size_range[0], min_active + min_inactive)
    labels, flags = [], []
    for g in range(G):
        n_g = int(rng.integers(lo, size_range[1] + 1))
        m_g = int(rng.integers(min_active, n_g - min_inactive + 1))
        labels += [g] * n_g
        flags += [1] * m_g + [0] * (n_g - m_g)
    perm = rng.permutation(len(flags))
    return build_design([(int(labels[i]),) for i in perm], [flags[i] for i in perm])


def strong_sample(rng, design, tau=1.0, pi=0.8):
    """Sample with a strong first stage and heteroskedastic correlated errors."""
    n = design.n
    z = design.instrument.astype(np.float64)
    g = design.group_of.astype(np.float64)
    scale_u = rng.uniform(0.5, 1.5, size=n)
    scale_e = rng.uniform(0.5, 1.5, size=n)
    shock = rng.standard_normal((2, n))
    u = scale_u * shock[0]
    e = scale_e * (0.5 * shock[0] + np.sqrt(0.75) * shock[1])
    T = 0.3 * g + pi * z + u
    Y = -0.2 * g + tau * T + e
    return Sample(outcome=Y, treatment=T)


def moment_table(design, T, Y, center=0.0):
    """The moment table of T and Y at ``center``, on atoms of its own."""
    return _CellMoments(design, _Atoms(design, T, Y), center)


def table_sums(table):
    """Every per-cell array of ``table`` by name: the counts, the means and
    each power sum ``s<j><l>``, building the groups of sums not yet built."""
    names = ("s02", "s21", "s12", "s22", "s30", "s40", "s31")
    return {"k": table.k, "mean_T": table.mean_T, "mean_Y": table.mean_Y,
            "s20": table.s20, "s11": table.s11,
            **dict(zip(names, table.variance_sums() + table.robust_sums()))}


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if outcome != "skipped" and getattr(rep, "when", "call") != "call":
                continue
            rows.append((nodeid.split("::", 1)[1], outcome))
    if rows:
        label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(set(rows)):
            terminalreporter.write_line(f"{label[verdict]}  {name}")
