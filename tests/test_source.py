"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import dutchbook

PACKAGE = Path(dutchbook.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_package_holds_no_assert_statement():
    # python -O strips asserts, so an invariant the package relies on must
    # be enforced by code that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracer.py patches these module attributes from outside, so a
    # renamed or deleted one would otherwise fail only the traced run
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_all_lists_exactly_the_reexported_names():
    exported = {
        name
        for name, value in vars(dutchbook).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(set(dutchbook.__all__)) == len(dutchbook.__all__)
    assert set(dutchbook.__all__) == exported


def _names_imported_from_dutchbook(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dutchbook"
        for alias in node.names
    }


def test_all_covers_every_name_the_demos_readme_and_benchmark_import():
    scripts = sorted((ROOT / "demos").glob("*.py"))
    scripts += sorted((ROOT / "bench").glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in scripts]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    used = set().union(*map(_names_imported_from_dutchbook, sources))
    assert "load_fixture_market" in used  # the sources were found and read
    assert used - set(dutchbook.__all__) == set()


def _function(module_path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(module_path.read_text(encoding="utf-8"))
    (found,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return found


def test_the_certificate_reads_no_cached_integer_view():
    # certificate_failures scales the report's own rationals itself; reading
    # Gamble.scaled or OddsTable.scaled_odds would share arithmetic with the
    # stake solve and the sweep, which read those views
    check = _function(PACKAGE / "strategy.py", "certificate_failures")
    read = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(check)
        if isinstance(node, ast.Attribute)
        and node.attr in {"scaled", "scaled_odds"}
    ]
    assert read == []
