"""Helpers that nothing in the package uses should go: every public
function of mvhedge is named by some module of the package other than
__init__.py, which only re-exports."""
import ast
import inspect
from pathlib import Path

import mvhedge as mv


def names_loaded(path: Path) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_function_is_used_in_the_package():
    modules = [p for p in Path(mv.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(names_loaded, modules))
    public = [name for name in mv.__all__ if inspect.isfunction(getattr(mv, name))]
    assert "compute_opportunity" in public
    assert [name for name in public if name not in used] == []
