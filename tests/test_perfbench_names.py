"""The benchmark harness in perfbench/ imports and wraps package names by
string. A refactor that renames one of them must fail here, in the tests,
instead of failing a benchmark run."""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# COUNTERS entries whose functions were deleted from the package; their
# counters read 0 until the harness drops them
DEAD_COUNTERS = {
    "TableHopf.ten3_mul",
    "algebra_inverse",
    "scalar_eq",
    "scalar_is_zero",
}


def resolves(module: str, dotted: str) -> bool:
    """Whether module.dotted names an object: a submodule, a function, a
    class or a class attribute."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def layer_table(name: str) -> tuple:
    """The literal value of a module-level table of perfbench/layers.py."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/layers.py defines no {name}")


@pytest.mark.parametrize("script", ["setup_probe.py", "micro.py"])
def test_every_name_a_perfbench_script_imports_resolves(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "equidouble"
        for alias in node.names
    ]
    assert imported
    assert [pair for pair in imported if not resolves(*pair)] == []


def test_every_span_resolves_and_only_the_known_counters_are_dead():
    spans = layer_table("SPANS")
    assert spans and [entry for entry in spans if not resolves(entry[1], entry[2])] == []
    dead = {entry[2] for entry in layer_table("COUNTERS") if not resolves(entry[1], entry[2])}
    assert dead == DEAD_COUNTERS
