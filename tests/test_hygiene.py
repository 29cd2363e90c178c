"""Every name a module imports is used in that module (``__init__.py`` re-exports are
exempt), and only ``topofeat.fileio`` opens or writes files."""

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
