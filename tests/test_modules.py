"""The layout of the library's source."""

import ast
from pathlib import Path

import qwi

MODULES = sorted(Path(qwi.__file__).parent.rglob("*.py"))


def test_no_module_imports_inside_a_function():
    """Every import of the library sits at the top of its module, so an
    import cycle shows when the package loads, not on the first call."""
    assert len(MODULES) >= 10
    inside = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []
