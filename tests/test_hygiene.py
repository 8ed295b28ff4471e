"""Source hygiene: every package module uses each name it imports, every
package function and method has a caller outside the tests, the package
exports exactly what it imports, every name the benchmark's tracer hooks
still exists, and the CLI writes files through one path."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "straingrid"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def imported_names(tree):
    """Names bound by imports, apart from explicit re-exports (`import x as x`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname != alias.name:
                    yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_package_function_has_a_caller():
    """A module-level function that neither package code nor a demo names
    serves only the tests, and belongs in tests/oracles.py. The CLI's
    cmd_* functions are named in set_defaults(func=...), and main in the
    __main__ guard."""
    named = set()
    for path in [*SRC.glob("*.py"), *DEMOS]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = [f"{path.name}:{node.name}" for path in MODULES
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name not in named]
    assert not uncalled, f"package functions only tests call: {uncalled}"


def benchmark_hooks():
    """(module, attribute) of every name perfbench/spans.py wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans, [(module, attribute)
                   for module, attribute, _ in spans.CALL_SITES + spans.INTEGRATE_SITES]


def test_every_package_method_has_a_caller():
    """A method or property of a package class that neither package code
    nor a demo names as an attribute serves only the tests. Python calls
    the dunder methods, and a method the benchmark's tracer hooks by its
    dotted path (Trajectory.at) must stay for the hook to resolve."""
    named = {node.attr for path in [*SRC.glob("*.py"), *DEMOS]
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    hooked = {attribute for _, attribute in benchmark_hooks()[1]}
    unnamed = [f"{path.name}:{cls.name}.{node.name}" for path in MODULES
               for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__") and node.name not in named
               and f"{cls.name}.{node.name}" not in hooked]
    assert not unnamed, f"package methods only tests call: {unnamed}"


def test_package_exports_exactly_its_imports():
    """A name deleted from a module cannot linger in straingrid.__all__."""
    import straingrid

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(straingrid.__all__) == imported
    assert len(straingrid.__all__) == len(imported)


def test_benchmark_hooks_resolve():
    """perfbench/spans.py wraps these module-level names; a refactor that
    drops one would leave the traced benchmark run silently incomplete."""
    spans, sites = benchmark_hooks()
    missing = [f"{m}.{a}" for m, a in sites if spans._resolve(m, a) is None]
    assert sites and not missing, f"hooked names that no longer resolve: {missing}"


def test_cli_opens_files_and_makes_directories_in_one_place_each():
    """Every artifact goes through _atomic_write, and only the writers
    make directories, so a rejected command leaves none behind."""
    tree = ast.parse((SRC / "cli.py").read_text())
    sites = set()
    for func in tree.body:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("open", "mkdir"):
                    sites.add((name, getattr(func, "name", None)))
    assert sites == {("open", "_atomic_write"), ("mkdir", "_write_run"), ("mkdir", "cmd_sweep")}
