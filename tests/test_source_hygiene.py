"""Source rules checked with the standard library's ast module.

- No module of the package imports a name it never uses, apart from the
  names it re-exports through ``__all__``.
- Only ``barloop.exactlin`` calls the ``IntMatrix`` constructor directly;
  everyone else builds matrices with ``from_columns``, ``from_rows``,
  ``zeros`` or ``identity``.
- Only ``barloop.exactlin`` reads a matrix as dense rows (``to_rows``);
  everyone else reads its sparse columns, so dense rows stay private to
  it.  Tests may still call ``to_rows``.
- Inside ``barloop.exactlin`` only ``to_json_dict`` calls ``to_rows``:
  Smith normal form reads sparse columns and hands the dense kernel only
  the residual block left after unit-pivot elimination, never a
  densified matrix.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "barloop"
EXACTLIN = PACKAGE / "exactlin"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree):
    """Names bound by an import that no expression reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                a.asname or a.name.split(".")[0] for a in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _exported(tree))


def direct_matrix_calls(tree):
    """Line numbers of calls to the IntMatrix constructor itself."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "IntMatrix")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "IntMatrix"
            )
        )
    ]


def dense_row_calls(tree):
    """Line numbers of calls to a ``to_rows`` method."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_rows"
    ]


def dense_rows_outside_json(tree):
    """Line numbers of ``to_rows`` calls outside a ``to_json_dict``."""
    inside = {
        line
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "to_json_dict"
        for line in dense_row_calls(fn)
    }
    return [line for line in dense_row_calls(tree) if line not in inside]


def _offenders(paths, rule):
    found = {}
    for path in paths:
        hits = rule(_parse(path))
        if hits:
            found[path.relative_to(ROOT).as_posix()] = hits
    return found


def test_rules_detect_what_they_forbid():
    tree = ast.parse(
        "import os, os.path\n"
        "from m import a, b as c, d\n"
        "__all__ = ['d']\n"
        "a(IntMatrix(1, 1, [0]), exactlin.IntMatrix(0, 0, []))\n"
        "IntMatrix.zeros(1, 1)\n"
        "d(m.to_rows(), m.column(0), to_rows)\n"
        "def to_json_dict(m):\n"
        "    return m.to_rows()\n"
        "def smith_normal_form(m):\n"
        "    return m.to_rows()\n"
    )
    assert unused_imports(tree) == ["c", "os"]
    assert direct_matrix_calls(tree) == [4, 4]
    assert dense_row_calls(tree) == [6, 8, 10]
    assert dense_rows_outside_json(tree) == [6, 10]


def test_no_unused_imports_in_the_package():
    assert _offenders(sorted(PACKAGE.rglob("*.py")), unused_imports) == {}


def test_only_exactlin_calls_the_matrix_constructor():
    paths = [
        p for p in sorted(PACKAGE.rglob("*.py")) if EXACTLIN not in p.parents
    ]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert _offenders(paths, direct_matrix_calls) == {}


def test_only_exactlin_reads_dense_rows():
    paths = [
        p for p in sorted(PACKAGE.rglob("*.py")) if EXACTLIN not in p.parents
    ]
    assert _offenders(paths, dense_row_calls) == {}


def test_exactlin_reads_dense_rows_only_for_json():
    paths = sorted(EXACTLIN.rglob("*.py"))
    assert _offenders(paths, dense_rows_outside_json) == {}
