"""Tests for the package's module structure."""

import ast
import graphlib
import types
from pathlib import Path

import braidforms

PACKAGE = Path(braidforms.__file__).parent
TESTS = Path(__file__).parent


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
    # __init__ loads its modules on first use, so it imports none at top level.
    assert graph["cli"] and graph["counts"] and graph["quadforms"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def cached_functions() -> set[str]:
    """module.function for each function in the package under cache or lru_cache."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):  # lru_cache(maxsize=...)
                        decorator = decorator.func
                    name = getattr(decorator, "attr", getattr(decorator, "id", None))
                    if name in ("cache", "lru_cache"):
                        found.add(f"{path.stem}.{node.name}")
    return found


def test_no_new_module_global_caches():
    # A process-wide cache is shared by every caller and grows with each
    # argument, so each one kept here has its reason.
    assert cached_functions() == {
        # benchmarks/tracer.py reads the cache_info() of these two tables,
        # so they stay until the benchmark is re-pinned.
        "quadforms.enumerate_classes",
        "counts.trace_classes",
        # Built once for callers that run main in process.
        "cli.build_parser",
    }


def test_one_refusal_of_the_excluded_trace():
    # Library code refuses t = +-2 only through quadforms._check_trace; the
    # CLI's verify words its own error for a range with no t left to check.
    phrase, refusals = "+-2 is excluded", []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py" and phrase in (source := path.read_text()):
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Raise):
                    refusals += [(path.stem, text.value) for text in ast.walk(node)
                                 if isinstance(text, ast.Constant) and phrase in str(text.value)]
    assert refusals == [("quadforms", "t = +-2 is excluded")]


def borrowed_private_names() -> set[str]:
    """module._name for each private name that a package module takes from another."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.level or node.module.startswith("braidforms.")):
                module = node.module.removeprefix("braidforms.")
                found.update(f"{module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem}
                  and node.attr.startswith("_") and not node.attr.startswith("__")):
                found.add(f"{node.value.id}.{node.attr}")
    return found


def test_private_names_have_one_owner():
    # A private helper is a rule that its module owns.  Only these two are
    # lent out: the one refusal of t = +-2, and the residue pass over the
    # mirror orbits that counts tallies.
    assert borrowed_private_names() <= {"quadforms._check_trace", "quadforms._residues"}


def function_names(body: list[ast.stmt]):
    """The functions that a block defines, nested ones too, outside class bodies."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        if not isinstance(node, ast.ClassDef):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from function_names(getattr(node, block, []))


def test_helper_names_have_one_definition():
    # A helper that two test modules need lives once, in tests/oracles.py,
    # so a change to how tests draw matrices, words or traces is made in
    # one place.  It imports nothing: it reads the syntax trees.
    owners = {}
    for path in sorted(TESTS.glob("*.py")):
        body = ast.parse(path.read_text()).body
        names = set(function_names(body))
        names.update(target.id for node in body if isinstance(node, ast.Assign)
                     for target in node.targets if isinstance(target, ast.Name))
        for name in names:
            owners.setdefault(name, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def test_all_is_the_import_block():
    # The export table of __init__ names each module's public names; a name
    # loads its module on first use.
    names = [name for module_names in braidforms._EXPORTS.values() for name in module_names]
    assert len(names) == 47
    assert braidforms.__all__ == sorted(names)
    assert not [name for name in names if name.startswith("_")
                or isinstance(getattr(braidforms, name), types.ModuleType)]
    for module, module_names in braidforms._EXPORTS.items():
        for name in module_names:
            assert getattr(braidforms, name).__module__ == f"braidforms.{module}", name
    namespace = {}
    exec("from braidforms import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(names)
