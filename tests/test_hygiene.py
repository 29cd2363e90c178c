"""Every name a module imports is used in that module (``__init__.py`` re-exports are
exempt), only ``topofeat.fileio`` opens or writes files, and every function, class and
method of the package has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/topofeat/*.py"), *ROOT.glob("scripts/*.py"),
                             *ROOT.glob("tests/*.py")] if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of the module reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nx = np.pi + c\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def file_calls(source: str) -> list[str]:
    """The calls of ``open`` and of ``write_text``, ``write_bytes`` or ``open`` methods."""
    names = [node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return [name for name in names if name in ("open", "write_text", "write_bytes")]


def test_scan_flags_file_writes_only():
    source = "open(p)\np.write_text(t)\nPath(p).write_bytes(b)\np.read_text()\nos.replace(a, b)\n"
    assert file_calls(source) == ["open", "write_text", "write_bytes"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name != "tests"
                                  and p.name != "fileio.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_fileio_opens_or_writes_files(path):
    """Every other file goes through ``fileio.write_atomic``, so none is left half written."""
    assert file_calls(path.read_text()) == []


# Definitions with no caller in src/, scripts/ or perfbench/ that stay on purpose.
UNCALLED = {
    "denoise.kpdtm_objective": "test oracle: the k-PDTM objective a fit's history must match",
    "reference.rips_filtration": "test oracle: the textbook filtration behind rips_diagram",
    "reference.compute_persistence": "test oracle: boundary-matrix reduction for rips_diagram",
    "reference.brute_force_betti": "test oracle: Betti numbers by brute-force rank",
    "EvalReport.from_json": "reads report.json back; the acceptance round trip uses it",
}


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and ``Class.method`` for each method but dunders."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def references(source: str) -> set[str]:
    """Every name, attribute and string constant; a benchmark looks hooks up by string."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def uncalled(source: str, refs: set[str], exported: set[str]) -> list[str]:
    """Definitions of ``source`` that ``refs`` never names and the package does not export."""
    return [name for name in definitions(source)
            if name.rsplit(".", 1)[-1] not in refs and name not in exported]


def test_scan_flags_only_uncalled_definitions():
    source = ("def used(): pass\ndef unused(): pass\ndef hooked(): pass\ndef public(): pass\n"
              "class Box:\n    def __init__(self): pass\n    def get(self): pass\n"
              "    def put(self): pass\n")
    refs = references("used()\nbox.get()\nsetattr(m, 'hooked', w)\n")
    assert uncalled(source, refs, {"public"}) == ["unused", "Box", "Box.put"]


def test_every_definition_has_a_caller():
    refs = set()
    for path in [*ROOT.glob("src/topofeat/*.py"), *ROOT.glob("scripts/*.py"),
                 *ROOT.glob("perfbench/*.py")]:
        refs |= references(path.read_text())
    init = ast.parse((ROOT / "src" / "topofeat" / "__init__.py").read_text())
    exported = {a.asname or a.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    found = [name if "." in name else f"{path.stem}.{name}"
             for path in sorted(ROOT.glob("src/topofeat/*.py"))
             for name in uncalled(path.read_text(), refs, exported)]
    assert sorted(found) == sorted(UNCALLED)
