#!/usr/bin/env python3
"""Compare two sivreg outputs field by field.

Usage: python scripts/diff_outputs.py A B

A and B are two sivreg JSON reports of any subcommand (``estimate``,
``robust-ci``, ``audit``), or two ``sivreg simulate`` output directories,
whose ``.json`` and ``.csv`` files are compared by name.
For every numeric field the largest absolute and relative difference is
printed; list positions are folded, so ``bias.json:rows[*].value`` covers the
value of every row and ``bias.csv:value`` a whole CSV column.  Non-numeric
mismatches, fields present on one side only and missing files are listed
after the table.  Exit status: 0 if the outputs agree exactly, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

MAX_MISMATCHES = 50


def _load(path: Path):
    """JSON as parsed; CSV as a list of rows keyed by column name."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.DictReader(text.splitlines()))
    return json.loads(text)


def _number(value):
    """``value`` as a float if it is a JSON or CSV number, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _leaves(value, path: str, folded: str):
    """Yield ``(path, folded path, leaf)`` for every scalar under ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}", f"{folded}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]", f"{folded}[*]")
    else:
        yield path, folded, value


def _csv_leaves(rows, name: str):
    for i, row in enumerate(rows):
        for column, cell in row.items():
            yield f"{name}[{i}].{column}", f"{name}:{column}", cell


def compare(a, b, name: str, table: dict, mismatches: list) -> None:
    """Fold the differences of two parsed outputs into ``table`` and ``mismatches``.

    ``table`` maps a folded field to ``[max_abs, max_rel, count]``.
    """
    if name.endswith(".csv"):
        left, right = _csv_leaves(a, name), _csv_leaves(b, name)
    else:
        left, right = _leaves(a, name + ":", name + ":"), _leaves(b, name + ":", name + ":")
    left = {path: (folded, leaf) for path, folded, leaf in left}
    right = {path: (folded, leaf) for path, folded, leaf in right}
    for path in left.keys() | right.keys():
        if path not in right or path not in left:
            side = "A" if path in left else "B"
            mismatches.append(f"{path.replace(':.', ':')}: only in {side}")
            continue
        folded, x = left[path]
        y = right[path][1]
        nx, ny = _number(x), _number(y)
        if nx is None or ny is None:
            if x != y:
                mismatches.append(f"{path.replace(':.', ':')}: {x!r} != {y!r}")
            continue
        if nx == ny or (math.isnan(nx) and math.isnan(ny)):
            diff = rel = 0.0
        else:
            diff = abs(nx - ny)
            scale = max(abs(nx), abs(ny))
            rel = diff / scale if scale > 0.0 else math.inf
            if math.isnan(diff):
                diff = rel = math.inf
        entry = table.setdefault(folded.replace(":.", ":"), [0.0, 0.0, 0])
        entry[0] = max(entry[0], diff)
        entry[1] = max(entry[1], rel)
        entry[2] += 1


def diff_outputs(a: Path, b: Path) -> tuple[dict, list]:
    """Numeric table and mismatch list for two reports or two output directories."""
    table: dict = {}
    mismatches: list = []
    if a.is_dir() != b.is_dir():
        raise ValueError("compare two files or two directories")
    if not a.is_dir():
        compare(_load(a), _load(b), a.name, table, mismatches)
        return table, mismatches
    names = {p.name for d in (a, b) for p in d.iterdir() if p.suffix in (".json", ".csv")}
    for name in sorted(names):
        if not (a / name).exists() or not (b / name).exists():
            mismatches.append(f"{name}: file only in {'A' if (a / name).exists() else 'B'}")
            continue
        compare(_load(a / name), _load(b / name), name, table, mismatches)
    return table, mismatches


def report(table: dict, mismatches: list, fields) -> list[str]:
    """The table's rows for ``fields`` under a header, then the mismatches."""
    width = max([len("field")] + [len(k) for k in fields])
    lines = [f"{'field':<{width}}  {'max_abs':>10}  {'max_rel':>10}  {'values':>7}"]
    for field in sorted(fields):
        max_abs, max_rel, count = table[field]
        lines.append(f"{field:<{width}}  {max_abs:>10.3g}  {max_rel:>10.3g}  {count:>7}")
    lines += [f"mismatch {line}" for line in sorted(mismatches)[:MAX_MISMATCHES]]
    if len(mismatches) > MAX_MISMATCHES:
        lines.append(f"... and {len(mismatches) - MAX_MISMATCHES} more mismatches")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    table, mismatches = diff_outputs(Path(args[0]), Path(args[1]))
    print("\n".join(report(table, mismatches, table)))
    differs = bool(mismatches) or any(e[0] > 0.0 for e in table.values())
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
