"""The package's public names, and the functions the benchmark traces."""

import ast
import importlib
from pathlib import Path

import recourse_game as rg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recourse_game"


def _literal(path: Path, name: str):
    """The literal assigned to a module-level name, read without importing."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


def test_every_exported_name_resolves_once():
    assert len(rg.__all__) == len(set(rg.__all__))
    missing = [name for name in rg.__all__ if not hasattr(rg, name)]
    assert not missing


def test_every_traced_function_is_callable():
    # The benchmark wraps these by module and name; a missing one drops its
    # per-layer metrics, which the benchmark's contract requires.
    traced = _literal(ROOT / "benchmark" / "tracer.py", "TRACED")
    assert traced
    for target in traced:
        module, fn = target.split(".")
        found = getattr(importlib.import_module(f"recourse_game.{module}"), fn, None)
        assert callable(found), target


def test_datagen_imports_only_core_from_the_package():
    tree = ast.parse((PACKAGE / "datagen.py").read_text())
    local = {
        n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level
    }
    assert local == {"core"}



def test_marginal_states_are_built_only_in_behavior():
    # One home for the incremental states: every other module reaches them
    # through fixed_marginal_state, joint_marginal_state and _advance.
    builders = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "MarginalState"
            ):
                builders.add(path.name)
    assert builders == {"behavior.py"}


def test_no_module_imports_inside_a_function():
    nested = []
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not nested


def test_no_module_reads_the_environment():
    # every input arrives through flags or the JSON config
    readers = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if "os" in names or getattr(node, "module", None) == "os":
                    readers.append(f"{path.name}:{node.lineno}")
    assert not readers
