"""Checks on the repository itself: benchmark names and library imports."""

import ast
import importlib
import inspect
import json
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
