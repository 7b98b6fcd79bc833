"""The layout of the library's source."""

import ast
from pathlib import Path

import qwi
from qwi import plmap
from qwi.plmap import PLMap

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


#: The breakpoint storage of a `PLMap` and the private method that writes it.
STORAGE = {"cuts", "image_cuts", "slopes", "c0", "_store"}


def test_only_plmap_reads_the_map_storage():
    """No library module but `plmap` reads a map's storage, as the `plmap`
    docstring claims, so a change of storage stays inside that file."""
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in MODULES if path.name != "plmap.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in STORAGE]
    assert reads == []


#: What every module may read of a map, as the `plmap` docstring lists it:
#: the constructors, the group operations, `restrict` and the queries.
SHARED_INTERFACE = {"identity", "translation", "compose", "inverse", "conjugate_by",
                    "restrict", "apply", "support", "signed_support", "fixed_items",
                    "regions"}
#: What `conjugacy` reads beyond it.
CONJUGACY_READS = {"germ", "cuts_in", "clip"}


def test_conjugacy_reads_a_map_through_germ_cuts_in_and_clip():
    """The public names of `PLMap` that `conjugacy` reads as attributes lie
    within the shared interface and `germ`, `cuts_in` and `clip`, and the
    `plmap` docstring names each of them; so a new class of elements
    implements only these to run the conjugator construction."""
    public = {name for name in dir(PLMap) if not name.startswith("_")}
    path = Path(qwi.__file__).parent / "conjugacy.py"
    read = {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr in public}
    allowed = SHARED_INTERFACE | CONJUGACY_READS
    assert read - allowed == set()
    assert CONJUGACY_READS <= read
    assert [name for name in sorted(allowed) if f"`{name}`" not in plmap.__doc__] == []
