"""The package has no runtime dependencies: its modules import only the
standard library and the package itself, and pyproject.toml lists none. Its
floats are summed by one rule, power.fold_sum, never by the builtin sum(), and
every JSON entry list is read into columns by one reader, ingest._columns."""

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



def column_readers(tree: ast.AST) -> set[str]:
    """The function (``""`` at module level) around each column read of an entry list: an
    ``itemgetter``, or a comprehension whose element subscripts one of its own loop variables."""
    readers = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = getattr(node, "name", function)
        if isinstance(node, ast.Name) and node.id == "itemgetter" or isinstance(node, ast.alias) and (
                node.name.rpartition(".")[2] == "itemgetter" and node.asname is not None):
            readers.add(function)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            targets = {name.id for generator in node.generators for name in ast.walk(generator.target)
                       if isinstance(name, ast.Name)}
            if isinstance(node.elt, ast.Subscript) and isinstance(node.elt.value, ast.Name) and node.elt.value.id in targets:
                readers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return readers


def test_one_bulk_reader_reads_every_entry_list():
    # the trace, feed and ledger parsers all read their entry lists through ingest._columns, whose fault
    # path names the first faulty entry; a parser with its own bulk read would need its own locator too
    tree = ast.parse((ROOT / "src" / "carbondef" / "ingest.py").read_text("utf-8"))
    assert column_readers(tree) == {"_columns"}
    assert column_readers(ast.parse("rows = [raw[key] for raw in entries]")) == {""}
    assert column_readers(ast.parse("def f(e):\n    return list(map(itemgetter('k'), e))")) == {"f"}

def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert "dependencies" not in project
    assert "dependencies" not in project.get("dynamic", [])
