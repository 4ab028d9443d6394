"""The package has no runtime dependencies: its modules import only the
standard library and the package itself, and pyproject.toml lists none. Its
floats are summed by one rule, power.fold_sum, never by the builtin sum()."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "carbondef").glob("*.py"))


def imported_names(path: Path) -> set[str]:
    """The top-level name of each module ``path`` imports, deferred imports too;
    a relative import is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("carbondef" if node.level else node.module.partition(".")[0])
    return names


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "ingest.py", "report.py"}
    assert "json" in imported_names(ROOT / "src" / "carbondef" / "report.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    assert imported_names(path) - sys.stdlib_module_names - {"carbondef"} == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_names_no_builtin_sum(path):
    # sum() compensates its rounding since Python 3.12, so a report total summed by it would change bytes
    # with the interpreter; power.fold_sum adds left to right on every interpreter
    tree = ast.parse(path.read_text("utf-8"), str(path))
    assert "sum" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert "dependencies" not in project
    assert "dependencies" not in project.get("dynamic", [])
