"""Source hygiene: every package module uses each name it imports, the
package exports exactly what it imports, and every name the benchmark's
tracer hooks still exists."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "straingrid"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [(module, attribute) for module, attribute, _ in spans.CALL_SITES + spans.INTEGRATE_SITES]
    missing = [f"{m}.{a}" for m, a in sites if spans._resolve(m, a) is None]
    assert sites and not missing, f"hooked names that no longer resolve: {missing}"
