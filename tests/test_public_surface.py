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


def _called_names(node: ast.AST) -> set[str]:
    """The plain names that node calls, e.g. `f` in `f(x)`."""
    return {
        n.func.id
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(path.read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_lazy_greedy_starts_from_a_state_it_is_given():
    # one loop for every objective: the caller builds the marginal state, and
    # the values the loop may pick are those the state does not reject
    loop = _functions(PACKAGE / "algorithms.py")["_lazy_greedy"]
    assert "policy" not in [a.arg for a in loop.args.args]
    builders = {"fixed_marginal_state", "joint_marginal_state"}
    assert not _called_names(loop) & builders


def test_only_the_oracles_read_a_ground_set_in_algorithms():
    # the solvers take their candidates from the state builders in behavior.py,
    # which refuse members outside that set; only the brute-force oracles
    # enumerate a ground set themselves
    readers = {
        name
        for name, fn in _functions(PACKAGE / "algorithms.py").items()
        if any(c.startswith("ground_set_") for c in _called_names(fn))
    }
    assert readers == {"brute_force_fixed", "brute_force_joint"}


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


def test_no_behavior_function_takes_a_random_stream():
    # behavior.py is the deterministic best-response engine; a Monte-Carlo
    # estimate belongs to the battery in checks.py
    drawers = [
        f"{fn.name}:{fn.lineno}"
        for fn in ast.walk(ast.parse((PACKAGE / "behavior.py").read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "rng" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    ]
    assert not drawers


# Exported names that no module of the package refers to: the bench traces the
# first three, and the feature path (the last three) waits for its caller. A
# new dead export fails below, and a caller that lands shrinks this list.
UNREFERENCED_EXPORTS = {
    "assign_explanations",
    "black_box_utility",
    "sort_canonical",
    "build_cost_matrix",
    "load_feature_table",
    "save_feature_table",
}


def test_every_other_export_has_a_caller_in_the_package():
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    assert set(rg.__all__) - referenced == UNREFERENCED_EXPORTS
