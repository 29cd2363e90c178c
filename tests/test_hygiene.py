"""Every name a module imports is used in that module (``__init__.py`` re-exports are
exempt), no module imports a test module, only ``topofeat.fileio`` opens or writes
files, every function, class and method of the package has a caller outside the
tests, a stage reads every config field, and importing the package loads no
``scipy.signal``."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest
from oracles import child_stdout

from topofeat.config import PipelineConfig

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


def imported_test_modules(source: str) -> list[str]:
    """Imported modules and names that start with ``test_``, in import order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [node.module or "", *(a.name for a in node.names)]
    return [name for name in found if name.rsplit(".", 1)[-1].startswith("test_")]


def test_scan_flags_only_test_modules():
    source = ("import test_a\nimport os.test_b as b\nfrom tests.test_c import x\n"
              "from .test_d import y\nfrom tests import test_e\nfrom oracles import EDGE_VALUES\n"
              "import testing\n")
    assert imported_test_modules(source) == ["test_a", "os.test_b", "tests.test_c", "test_d",
                                             "test_e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_a_test_module(path):
    """Shared oracles and tables live in ``tests/oracles.py``, which imports the same
    way under either of pytest's import modes."""
    assert imported_test_modules(path.read_text()) == []


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


def references(source: str) -> tuple[set[str], set[str]]:
    """The bare names, and the attributes and string constants (a benchmark looks
    hooks up by string)."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names, attrs


def uncalled(source: str, refs: tuple[set[str], set[str]], exported: set[str]) -> list[str]:
    """Definitions of ``source`` that ``refs`` never names and the package does not export.

    A method counts as named only by an attribute or a string: a bare name,
    such as a variable of the same name, cannot call it."""
    names, attrs = refs
    return [name for name in definitions(source) if name not in exported
            and name.rsplit(".", 1)[-1] not in (attrs if "." in name else names | attrs)]


def test_scan_flags_only_uncalled_definitions():
    source = ("def used(): pass\ndef unused(): pass\ndef hooked(): pass\ndef public(): pass\n"
              "class Box:\n    def __init__(self): pass\n    def get(self): pass\n"
              "    def put(self): pass\n    def window(self): pass\n")
    refs = references("used()\nbox.get()\nsetattr(m, 'hooked', w)\nwindow = 512\n")
    assert uncalled(source, refs, {"public"}) == ["unused", "Box", "Box.put", "Box.window"]


def test_every_definition_has_a_caller():
    names, attrs = set(), set()
    for path in [*ROOT.glob("src/topofeat/*.py"), *ROOT.glob("scripts/*.py"),
                 *ROOT.glob("perfbench/*.py")]:
        file_names, file_attrs = references(path.read_text())
        names |= file_names
        attrs |= file_attrs
    init = ast.parse((ROOT / "src" / "topofeat" / "__init__.py").read_text())
    exported = {a.asname or a.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    found = [name if "." in name else f"{path.stem}.{name}"
             for path in sorted(ROOT.glob("src/topofeat/*.py"))
             for name in uncalled(path.read_text(), (names, attrs), exported)]
    assert found == []


def unread_fields(names: list[str], sources: list[str]) -> list[str]:
    """The names that no source reads as an attribute or holds as a string constant."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [name for name in names if name not in read]


def test_scan_flags_only_unread_fields():
    sources = ["x = cfg.rate\ncfg.seed = 1\nreplace(cfg, jobs=2)\n", 'CUT = ("window_sec",)\n']
    assert unread_fields(["rate", "seed", "jobs", "window_sec"], sources) == ["seed", "jobs"]


def test_every_config_field_is_read():
    """A setting that no stage reads is a fixed choice of the method, and belongs in a
    constant beside the code that uses it.  ``config.py`` declares and checks the
    fields and ``cli.py`` sets them, so neither counts as a reader."""
    sources = [p.read_text() for p in sorted(ROOT.glob("src/topofeat/*.py"))
               if p.name not in ("config.py", "cli.py")]
    assert unread_fields([f.name for f in fields(PipelineConfig)], sources) == []


def test_package_import_loads_no_scipy_signal():
    # the band-pass is the package's own, and scipy.signal costs every process
    # tens of MB, so no import may bring it back
    script = "import sys, topofeat, topofeat.cli\nprint('scipy.signal' in sys.modules)\n"
    assert child_stdout(script, {}) == "False\n"
