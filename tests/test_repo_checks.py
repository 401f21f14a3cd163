"""Checks on the repository itself: benchmark names and library imports."""

import ast
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_relative_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


def test_benchmark_functions_exist_and_library_has_no_unused_imports():
    # The benchmark's tracer wraps the functions in each layer's __all__; a
    # per-layer metric naming a function that is gone would read 0.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3:
            continue
        layer, fn, _ = parts
        module = importlib.import_module(f"sivreg.{layer}")
        if fn not in module.__all__ or not inspect.isfunction(getattr(module, fn)):
            missing.append(f"{layer}.{fn}")
    assert not missing, f"per_layer names no public function: {sorted(set(missing))}"

    unused = [
        name
        for path in sorted((ROOT / "src" / "sivreg").glob("*.py"))
        for name in _unused_relative_imports(path)
    ]
    assert not unused, f"unused relative imports: {unused}"


def _third_party_imports(path: Path) -> set[str]:
    """Top-level modules that ``path`` imports, function-level imports
    included, other than the standard library's and the package's own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    tops = {name.partition(".")[0] for name in names}
    return tops - set(sys.stdlib_module_names) - {"__future__", "sivreg"}


def test_library_imports_exactly_its_declared_dependencies():
    # Each distribution named in pyproject.toml's dependencies is imported
    # under its own name.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', block)
    }
    imported = set().union(
        *(_third_party_imports(path) for path in (ROOT / "src" / "sivreg").glob("*.py"))
    )
    assert imported == declared
