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
#: the constructors, the group operations, `restrict`, `apply` and the two
#: views of its fixed and moving structure.
SHARED_INTERFACE = {"identity", "translation", "compose", "inverse", "conjugate_by",
                    "restrict", "apply", "signed_support", "regions"}
#: What `conjugacy` reads beyond it.
CONJUGACY_READS = {"germ", "cuts_in", "clip"}


def _public(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


def test_conjugacy_reads_a_map_through_germ_cuts_in_and_clip():
    """The public names of `PLMap` that `conjugacy` reads as attributes lie
    within the shared interface and `germ`, `cuts_in` and `clip`, and the
    `plmap` docstring names each of them; so a new class of elements
    implements only these to run the conjugator construction."""
    public = _public(PLMap)
    path = Path(qwi.__file__).parent / "conjugacy.py"
    read = {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr in public}
    allowed = SHARED_INTERFACE | CONJUGACY_READS
    assert read - allowed == set()
    assert CONJUGACY_READS <= read
    assert [name for name in sorted(allowed) if f"`{name}`" not in plmap.__doc__] == []


#: The public names of `PLMap` outside the interface and the storage, each
#: with the reader that keeps it.
PLMAP_ONLY = {
    "is_identity": "`format_pl` prints the identity as `pl id`",
    "apply_inverse": "the benchmark's spot check steps maps with it",
}


def test_every_public_name_of_a_map_has_a_listed_reader():
    """A public name of `PLMap` is in the shared interface, in what
    `conjugacy` reads, in the storage, or listed with its reader: so a new
    class of elements knows every view of a map that it must give."""
    allowed = SHARED_INTERFACE | CONJUGACY_READS | STORAGE | set(PLMAP_ONLY)
    assert _public(PLMap) - allowed == set()


def test_no_module_reads_a_map_outside_its_interface():
    """No library module but `plmap` reads a public name of `PLMap` outside
    the shared interface, and `conjugacy` reads `germ`, `cuts_in` and `clip`
    besides."""
    public = _public(PLMap)
    reads = []
    for path in MODULES:
        if path.name == "plmap.py":
            continue
        allowed = SHARED_INTERFACE | (CONJUGACY_READS if path.name == "conjugacy.py" else set())
        reads += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Attribute) and node.attr in public - allowed]
    assert reads == []


#: Public library names that no library module reads, each with its reader.
UNREAD = {
    ("plmap.py", "apply_inverse"): PLMAP_ONLY["apply_inverse"],
}


def _definitions(tree: ast.Module):
    """The public top-level functions and classes of a module and the public
    methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_"))


def _reads(tree: ast.Module):
    """(name, line) of every name the module reads: as a variable, as an
    attribute, or by `from ... import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_library_name_has_a_reader_in_the_library():
    """Each public function, class and method of the library is read by some
    library module outside its own definition, or is listed with its
    reader: what only tests read belongs in the tests."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    reads = {}
    for mod, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((mod, line))
    unread = [(mod, node.name) for mod, tree in trees.items() for node in _definitions(tree)
              if all(m == mod and node.lineno <= line <= node.end_lineno
                     for m, line in reads.get(node.name, ()))]
    assert sorted(unread) == sorted(UNREAD)
