"""The benchmark's per-layer metrics read mvhedge functions by their
"layer.function" names (perfbench/run.py, _layer_metrics).  A function
renamed or made private would silently read 0, so every such name must
be a public function of that mvhedge module."""
import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def layer_function_names() -> list[str]:
    module = ast.parse(RUN_PY.read_text())
    body = next(node for node in module.body
                if isinstance(node, ast.FunctionDef) and node.name == "_layer_metrics")
    return sorted({
        arg.value
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("incl", "own", "calls")
        for arg in node.args if isinstance(arg, ast.Constant)
    })


def is_public_function(name: str) -> bool:
    layer, attr = name.split(".")
    module = importlib.import_module(f"mvhedge.{layer}")
    fn = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_layer_metrics_name_public_functions():
    names = layer_function_names()
    assert "opportunity.compute_opportunity" in names
    assert [name for name in names if not is_public_function(name)] == []
