"""Tests for the package's module structure."""

import ast
import graphlib
from pathlib import Path

import braidforms

PACKAGE = Path(braidforms.__file__).parent


def module_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that a module's top-level statements import."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("braidforms."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("braidforms"):
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                out.add(module.split(".")[0])
            else:  # from . import x: the submodule x, or a name of __init__
                out.update(a.name if a.name in modules else "__init__" for a in node.names)
    return out


def test_no_import_cycles():
    # Imports inside functions are left out: they run after every module
    # has loaded.
    paths = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {name: module_imports(path, set(paths)) for name, path in paths.items()}
    assert graph["__init__"] and graph["quadforms"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
