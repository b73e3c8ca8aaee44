"""Source rules checked with the standard library's ast module.

- No module of the package imports a name it never uses, apart from the
  names it re-exports through ``__all__``.
- The ``IntMatrix`` constructor trusts its columns to be in stored form,
  so only the functions in ``MATRIX_CONSTRUCTOR_SITES`` call it:
  ``from_columns``, which normalizes what it is given, and
  ``mapping_cone``, whose blocks are already normalized.  Everyone else,
  tests included, builds matrices with ``from_columns``, ``from_rows``
  or ``zeros``.
- No module of the package reads a matrix as dense rows (``to_rows``):
  every caller reads sparse columns, and Smith normal form eliminates
  on sparse rows, never on a densified matrix.  Tests and the
  benchmark may still call ``to_rows``.
- Every function and method the package defines, dunders aside, is read
  by name somewhere in the package or the benchmark: a function as an
  ``ast.Name`` or an ``ast.Attribute``, a method (a function defined in
  a class body) only as an ``ast.Attribute``, so a local that shares its
  name does not count; in the benchmark also a string constant, since
  its tracer names the entry points it wraps by string.  A few are kept
  unread on purpose; ``UNREAD_ON_PURPOSE`` says why.
- Every attribute a package class stores on ``self`` is loaded by name
  somewhere in the package or the benchmark (an ``ast.Attribute`` in
  ``Load`` context, or a string passed to ``getattr`` or ``hasattr``; in
  the benchmark also any string constant).  ``STORED_UNREAD_ON_PURPOSE``
  lists the exceptions.
- A method name that a method or stored attribute of a package class in
  another class hierarchy also uses is listed in ``SHARED_NAMES``, which
  says whose members of that name the package or the benchmark reads.
  The two rules above see a shared name as read when any owner's member
  is read, so each new shared name fails until someone checks every
  owner.
- Every exception class that ``errors.py`` defines is raised by name
  (``raise X(...)`` or ``raise X``) somewhere in the package, so no
  error type outlives the code that raised it.
- The package calls a ``validate()`` method only at the call sites in
  ``VALIDATE_CALL_SITES``: each input is checked where it enters, and a
  law that holds by theorem on what is derived from it is checked by
  the tests, not at run time.
- The package defines a ``validate`` method only on the classes in
  ``VALIDATE_DEFINITIONS``; the law checks that only tests run live in
  ``tests/laws.py``, so none drifts back into the package.
- No module of the package calls ``isinstance`` on a simplicial-set
  class (``SimplicialSet`` or a package class derived from it): a set
  that answers its chain window faster does so by overriding methods,
  not through a second code path that asks which set it has.
- The ``bases``, ``index`` and ``label_of`` of a chain window are set
  only inside ``exactlin.basis_window``, the one window builder; the
  ``None`` that ``ChainComplexWindow.__init__`` stores in them is the
  one other store the package or the benchmark makes.  So a window
  that keeps a basis was built from it by the one builder.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "barloop"
ERRORS = PACKAGE / "errors.py"
BENCH = ROOT / "perfbench"

# (file, function) of every call of the IntMatrix constructor itself
MATRIX_CONSTRUCTOR_SITES = {
    ("src/barloop/exactlin/core.py", "from_columns"),
    ("src/barloop/exactlin/core.py", "mapping_cone"),
}

UNREAD_ON_PURPOSE = {
    "_Parser.error": "argparse calls it to reject a command line",
}

STORED_UNREAD_ON_PURPOSE = {
    "MismatchAt.element": "the error says where a comparison failed; "
    "test_barcobar.py asserts it",
}


VALIDATE_CALL_SITES = {
    ("weqcheck.py", "weq_verdict"): "a monoid map enters here; "
    "MonoidMap.validate makes its nerve a simplicial map, so the chain "
    "map and its cone need no check",
}


VALIDATE_DEFINITIONS = {
    "MonoidMap": "the input check that weq_verdict runs where a map "
    "enters",
    "CoalgebraMap": "a law check that only tests run, kept in the package "
    "because the benchmark's tracer wraps it by class; every other law "
    "check lives in tests/laws.py",
}


SHARED_NAMES = {
    "describe": "HomologyEntry (cli, weqcheck, the benchmark's oracles) "
    "and RewriteSystem (cli): both read",
    "hi": "ChainComplexWindow, DgCoalgebraWindow and WeqVerdict: all read "
    "by the package",
    "identity": "FiniteMonoid's stored identity and the MonoidMap.identity "
    "constructor: both read by the package",
    "ok": "IsoCertificate's stored flag (cli, loopgroup, the benchmark) "
    "and ValidationReport's property (its own __bool__): both read",
    "order": "FiniteMonoid's method and GroupCompletion's stored order: "
    "both read by the package",
    "rank": "ChainComplexWindow, DgCoalgebraWindow and LoopGroupLevel "
    "(cli, the benchmark): all read",
    "to_json_dict": "FiniteMonoid, HomologyTable, LoopGroupLevel, "
    "MonoidPresentation, PresentedDgAlgebra, SimplicialSet, Verdict and "
    "WeqVerdict: all read by cli",
    "validate": "MonoidMap: read by weq_verdict, where a map enters; "
    "CoalgebraMap: wrapped by the benchmark's tracer",
    "word": "FormalSimplex's stored word and PresentedDgAlgebra.word: both "
    "read by the package",
}


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
    """(function, line) of each call of the IntMatrix constructor itself:
    ``IntMatrix(...)``, ``x.IntMatrix(...)``, or ``cls(...)`` in a method
    of a class named IntMatrix; the function is the innermost enclosing
    def, or None at module level."""
    found = []

    def visit(node, function, in_matrix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, function, child.name == "IntMatrix")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, in_matrix)
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name)
                 and child.func.id == "IntMatrix")
                or (isinstance(child.func, ast.Attribute)
                    and child.func.attr == "IntMatrix")
                or (in_matrix and isinstance(child.func, ast.Name)
                    and child.func.id == "cls")
            ):
                found.append((function, child.lineno))
            visit(child, function, in_matrix)

    visit(tree, None, False)
    return found


def dense_row_calls(tree):
    """Line numbers of calls to a ``to_rows`` method."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_rows"
    ]


def names_read(tree, strings=False):
    """(names, attributes) an expression reads: every ``ast.Name`` and
    every ``ast.Attribute``, and with ``strings`` every string constant,
    which joins both."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            names.add(node.value)
            attributes.add(node.value)
    return names, attributes


def unread_functions(tree, names, attributes):
    """(line, name) of each function defined, dunders aside, that is not
    read: a method, named ``Class.method``, unless it is in
    ``attributes``, any other function unless it is in either set."""
    owner = {
        id(node): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            node.name.startswith("__") and node.name.endswith("__")
        ):
            continue
        cls = owner.get(id(node))
        if cls is not None and node.name not in attributes:
            found.append((node.lineno, f"{cls}.{node.name}"))
        elif cls is None and not (node.name in names or node.name in attributes):
            found.append((node.lineno, node.name))
    return sorted(found)


def attributes_loaded(tree, strings=False):
    """Attribute names an expression loads: every ``ast.Attribute`` in
    ``Load`` context and every string passed to ``getattr`` or
    ``hasattr``, and with ``strings`` every string constant too."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            loaded.add(node.args[1].value)
        elif strings and isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            loaded.add(node.value)
    return loaded


def unread_attributes(tree, loaded):
    """(line, "Class.attr") of the first store of each attribute a class
    stores on ``self`` whose name is not in ``loaded``."""
    first = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in loaded
            ):
                key = f"{cls.name}.{node.attr}"
                first[key] = min(first.get(key, node.lineno), node.lineno)
    return sorted(
        (line, key) for key, line in first.items()
        if key not in STORED_UNREAD_ON_PURPOSE
    )


def shared_member_names(trees):
    """{method name: sorted owners} for each name that a method of one
    package class and a method or stored attribute of a class in another
    hierarchy both use; dunders aside.  A hierarchy is a class with all
    the package classes below it, so an override does not count."""
    members, parent = {}, {}
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))
            }
            stored = {
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
            members[cls.name] = (methods, stored)
            parent[cls.name] = [
                b.id for b in cls.bases if isinstance(b, ast.Name)
            ]

    def root(name):
        bases = [b for b in parent[name] if b in members]
        return root(bases[0]) if bases else name

    shared = {}
    for a, (methods, _) in members.items():
        for b, (methods_b, stored_b) in members.items():
            if root(a) != root(b):
                for name in methods & (methods_b | stored_b):
                    shared.setdefault(name, set()).update((a, b))
    return {name: sorted(owners) for name, owners in shared.items()}


def exception_classes(tree):
    """(line, name) of each top-level class derived from Exception,
    directly or through classes defined before it in the same tree."""
    derived, found = {"Exception"}, []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in derived for b in node.bases
        ):
            derived.add(node.name)
            found.append((node.lineno, node.name))
    return found


def names_raised(tree):
    """Names raised directly: ``X`` in ``raise X(...)`` and ``raise X``,
    also as the last part of a dotted name."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def validate_calls(tree):
    """(function, line) of each call of a ``validate`` method, the
    function being the innermost enclosing def, or None at module
    level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "validate"
            ):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def validate_definitions(tree):
    """(class, line) of each ``validate`` method defined in a class
    body."""
    return [
        (cls.name, node.lineno)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "validate"
    ]


def simplicial_set_classes(trees):
    """Names of ``SimplicialSet`` and of every class in the trees derived
    from it, directly or through other such classes."""
    bases = {
        cls.name: {
            b.id if isinstance(b, ast.Name) else b.attr
            for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))
        }
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }
    found, grown = {"SimplicialSet"}, True
    while grown:
        more = {name for name, up in bases.items() if up & found}
        grown = not more <= found
        found |= more
    return found


def isinstance_calls_on(tree, classes):
    """Line numbers of ``isinstance`` calls whose class argument names
    one of classes, alone or in a tuple, also as the last part of a
    dotted name."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) > 1
        ):
            continue
        arg = node.args[1]
        named = arg.elts if isinstance(arg, ast.Tuple) else [arg]
        if any(
            (isinstance(c, ast.Name) and c.id in classes)
            or (isinstance(c, ast.Attribute) and c.attr in classes)
            for c in named
        ):
            found.append(node.lineno)
    return sorted(found)


WINDOW_BASIS_ATTRIBUTES = ("bases", "index", "label_of")


def window_basis_stores(tree):
    """(function, line) of each store to an attribute named in
    ``WINDOW_BASIS_ATTRIBUTES``, by assignment or by ``setattr``, the
    function being the innermost enclosing def; a constructor's
    ``x = None`` is not reported."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                function == "__init__"
                and isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Constant)
                and child.value.value is None
            ):
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and child.attr in WINDOW_BASIS_ATTRIBUTES
            ) or (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "setattr"
                and len(child.args) > 1
                and isinstance(child.args[1], ast.Constant)
                and child.args[1].value in WINDOW_BASIS_ATTRIBUTES
            ):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


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
        "class K:\n"
        "    def __init__(self): self.method()\n"
        "    def method(self): return helper\n"
        "    def unread(self): return 'by_string', 'strung'\n"
        "    def shadowed(self): pass\n"
        "    def strung(self): pass\n"
        "def helper(shadowed=0): return shadowed\n"
        "def by_string(): pass\n"
    )
    assert unused_imports(tree) == ["c", "os"]
    assert direct_matrix_calls(tree) == [(None, 4), (None, 4)]
    assert dense_row_calls(tree) == [6]
    assert unread_functions(tree, *names_read(tree)) == [
        (10, "K.unread"), (11, "K.shadowed"), (12, "K.strung"),
        (14, "by_string"),
    ]
    assert unread_functions(tree, *names_read(tree, strings=True)) == [
        (10, "K.unread"), (11, "K.shadowed")
    ]
    tree = ast.parse(
        "class IntMatrix:\n"
        "    @classmethod\n"
        "    def from_columns(cls, rows, columns):\n"
        "        return cls(rows, tuple(columns))\n"
        "    def copy(self): return IntMatrix(self.rows, self._c)\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def make(cls): return cls(), IntMatrix.zeros(0, 0)\n"
        "def cone(cls):\n"
        "    def block(): return exactlin.IntMatrix(0, ())\n"
        "    return cls(1), block()\n"
    )
    assert direct_matrix_calls(tree) == [
        ("from_columns", 4), ("copy", 5), ("block", 10)
    ]
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, x):\n"
        "        self.kept = self.lost = x\n"
        "        self.by_getattr = self.by_hasattr = self.by_string = x\n"
        "        self.lost = 2 * x\n"
        "class MismatchAt:\n"
        "    def __init__(self): self.element = None\n"
        "a = A(1)\n"
        "a.kept, a.lost2\n"
        "getattr(a, 'by_getattr'), hasattr(a, 'by_hasattr'), 'by_string'\n"
    )
    assert unread_attributes(tree, attributes_loaded(tree)) == [
        (3, "A.lost"), (4, "A.by_string")
    ]
    assert unread_attributes(tree, attributes_loaded(tree, strings=True)) == [
        (3, "A.lost")
    ]
    tree = ast.parse(
        "class A:\n"
        "    def shared(self): pass\n"
        "    def own(self): pass\n"
        "    def __len__(self): return 0\n"
        "class B(A):\n"
        "    def own(self): pass\n"
        "class C(B):\n"
        "    def __init__(self): self.own = 1\n"
        "class D:\n"
        "    def __init__(self): self.shared = self.kept = 1\n"
        "    def __len__(self): return 1\n"
        "    def kept(self): pass\n"
    )
    assert shared_member_names([tree]) == {"shared": ["A", "D"]}
    tree = ast.parse(
        "class Report: pass\n"
        "class Base(Exception): pass\n"
        "class Raised(Base): pass\n"
        "class Dotted(Raised): pass\n"
        "class Bare(Base): pass\n"
        "class Built(Base): pass\n"
        "class Stale(Base): pass\n"
        "def f(errors):\n"
        "    if errors: raise Base('x')\n"
        "    if f: raise errors.Dotted('y') from None\n"
        "    if errors: raise Bare\n"
        "    try: pass\n"
        "    except Stale: raise\n"
        "    raise Raised(Built())\n"
    )
    assert exception_classes(tree) == [
        (2, "Base"), (3, "Raised"), (4, "Dotted"), (5, "Bare"),
        (6, "Built"), (7, "Stale"),
    ]
    raised = names_raised(tree)
    assert [c for c in exception_classes(tree) if c[1] not in raised] == [
        (6, "Built"), (7, "Stale")
    ]
    tree = ast.parse(
        "m.validate()\n"
        "def f(c):\n"
        "    def g(): return c.validate\n"
        "    return [c.validate() for _ in g().validate()]\n"
        "class K:\n"
        "    def validate(self): return self.other.validate(1)\n"
    )
    assert validate_calls(tree) == [
        (None, 1), ("f", 4), ("f", 4), ("validate", 6)
    ]
    tree = ast.parse(
        "def validate(x): return x\n"
        "class K:\n"
        "    validate = None\n"
        "    def check(self):\n"
        "        def validate(): pass\n"
        "    def validate(self): pass\n"
        "class L(K):\n"
        "    class Inner:\n"
        "        async def validate(self): pass\n"
    )
    assert validate_definitions(tree) == [("K", 6), ("Inner", 9)]
    tree = ast.parse(
        "class W:\n"
        "    def __init__(self, b):\n"
        "        self.bases = self.index = None\n"
        "        self.label_of = b\n"
        "def build(w, b):\n"
        "    w.bases, w.hi = b, 1\n"
        "    w.index[0] = {}\n"
        "    setattr(w, 'label_of', str)\n"
        "    w.indices = None\n"
        "def patch(w):\n"
        "    w.bases = None\n"
        "    w.bases[0][0] = 1\n"
    )
    assert window_basis_stores(tree) == [
        ("__init__", 4), ("build", 6), ("build", 8), ("patch", 11)
    ]
    tree = ast.parse(
        "class SimplicialSet: pass\n"
        "class Nerve(SimplicialSet): pass\n"
        "class Fast(Nerve): pass\n"
        "class Other(sp.SimplicialSet): pass\n"
        "class Window: pass\n"
        "def f(k, w):\n"
        "    isinstance(w, Window), isinstance(k, (int, Fast))\n"
        "    if isinstance(k, sp.Nerve): return 1\n"
        "    return isinstance(k, SimplicialSet) or isinstance(k)\n"
        "    isinstance(k, Other)\n"
    )
    classes = simplicial_set_classes([tree])
    assert classes == {"SimplicialSet", "Nerve", "Fast", "Other"}
    assert isinstance_calls_on(tree, classes) == [7, 8, 9, 10]


def test_no_unused_imports_in_the_package():
    assert _offenders(sorted(PACKAGE.rglob("*.py")), unused_imports) == {}


def test_only_exactlin_calls_the_matrix_constructor():
    """Within exactlin, only the functions in MATRIX_CONSTRUCTOR_SITES."""
    sites = set()
    paths = sorted(PACKAGE.rglob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        module = path.relative_to(ROOT).as_posix()
        sites |= {(module, f) for f, _ in direct_matrix_calls(_parse(path))}
    assert sites == MATRIX_CONSTRUCTOR_SITES


def test_package_reads_no_dense_rows():
    assert _offenders(sorted(PACKAGE.rglob("*.py")), dense_row_calls) == {}


def test_every_function_is_read():
    paths = sorted(PACKAGE.rglob("*.py"))
    names, attributes = set(), set()
    for path in paths:
        n, a = names_read(_parse(path))
        names |= n
        attributes |= a
    for path in BENCH.rglob("*.py"):
        n, a = names_read(_parse(path), strings=True)
        names |= n
        attributes |= a

    def unread(tree):
        return [
            hit for hit in unread_functions(tree, names, attributes)
            if hit[1] not in UNREAD_ON_PURPOSE
        ]

    assert _offenders(paths, unread) == {}


def test_every_stored_attribute_is_loaded():
    paths = sorted(PACKAGE.rglob("*.py"))
    loaded = set()
    for path in paths:
        loaded |= attributes_loaded(_parse(path))
    for path in BENCH.rglob("*.py"):
        loaded |= attributes_loaded(_parse(path), strings=True)
    assert _offenders(paths, lambda tree: unread_attributes(tree, loaded)) == {}


def test_shared_member_names_are_reviewed():
    trees = [_parse(p) for p in sorted(PACKAGE.rglob("*.py"))]
    shared = shared_member_names(trees)
    assert set(shared) == set(SHARED_NAMES), {
        "new": {n: o for n, o in shared.items() if n not in SHARED_NAMES},
        "gone": sorted(set(SHARED_NAMES) - set(shared)),
    }


def test_every_exception_class_is_raised():
    raised = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        raised |= names_raised(_parse(path))
    classes = exception_classes(_parse(ERRORS))
    assert classes[0][1] == "BarloopError" and len(classes) > 1
    assert [c for c in classes if c[1] not in raised] == []


def test_the_package_validates_only_where_an_input_enters():
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for function, line in validate_calls(_parse(path)):
            sites.setdefault((module, function), []).append(line)
    assert set(sites) == set(VALIDATE_CALL_SITES), sites


def test_the_package_defines_validate_only_on_listed_classes():
    owners = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for cls, line in validate_definitions(_parse(path)):
            owners.setdefault(cls, []).append(line)
    assert set(owners) == set(VALIDATE_DEFINITIONS), owners


def test_no_isinstance_on_a_simplicial_set_class():
    paths = sorted(PACKAGE.rglob("*.py"))
    classes = simplicial_set_classes([_parse(p) for p in paths])
    assert {"SimplicialSet", "NerveSimplicialSet"} <= classes
    assert _offenders(
        paths, lambda tree: isinstance_calls_on(tree, classes)
    ) == {}


def test_only_basis_window_sets_a_window_basis():
    sites = {}
    paths = sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.rglob("*.py"))
    for path in paths:
        module = path.relative_to(ROOT).as_posix()
        for function, line in window_basis_stores(_parse(path)):
            sites.setdefault((module, function), []).append(line)
    assert set(sites) == {("src/barloop/exactlin/core.py", "basis_window")}, (
        sites
    )
