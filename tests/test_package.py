"""The package has no runtime dependencies: its modules import only the
standard library and the package itself, and pyproject.toml lists none. Its
floats are summed by one rule, power.fold_sum, never by the builtin sum();
every JSON entry list is read into columns by one reader, ingest._columns; and
every typed row list is one view, power.ColumnRows (report.Rows renders the report's)."""

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


def row_views(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The classes that define ``__getitem__`` (a def or an assignment), and those based on ``ColumnRows``."""
    indexed, based = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if any(getattr(item, "name", None) == "__getitem__" or isinstance(item, ast.Name) and item.id == "__getitem__"
                   and isinstance(item.ctx, ast.Store) for statement in node.body for item in ast.walk(statement)):
                indexed.add(node.name)
            if any(getattr(base, "id", getattr(base, "attr", None)) == "ColumnRows" for base in node.bases):
                based.add(node.name)
    return indexed, based


def test_one_row_view_serves_every_typed_row_list():
    # every typed row list is a power.ColumnRows and report.Rows renders the report's; another indexed class,
    # or one based on ColumnRows, would be a second view whose len() could build its rows
    found = [row_views(ast.parse(path.read_text("utf-8"), str(path))) for path in MODULES]
    indexed = {(path.name, name) for path, (names, _) in zip(MODULES, found) for name in names}
    assert indexed == {("power.py", "ColumnRows"), ("report.py", "Rows")}
    assert set().union(*(based for _, based in found)) == set()
    assert row_views(ast.parse("class A(power.ColumnRows):\n    __getitem__ = list.__getitem__\n"
                               "class B(ColumnRows):\n    def __getitem__(self, i): ...")) == ({"A", "B"}, {"A", "B"})


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert "dependencies" not in project
    assert "dependencies" not in project.get("dynamic", [])
