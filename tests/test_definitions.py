"""Every top-level definition of the package is read, and every defaulted
parameter passed, by the code that ships.

The scan parses the package, the scripts and the benchmark with ``ast``,
as tests/test_imports.py does. A top-level function, class or constant of
``src/edgeplan/*.py`` counts as read when some name, attribute or import
in those files names it outside its own definition. A defaulted parameter
of a module-level function or method counts as passed when some call in
those files, matched by name (a class's name calls its ``__init__``),
passes it by keyword, positionally at its index, or through ``*`` or
``**``. An exception class of the package counts as caught when some
``except`` clause in those files names it, or some ``isinstance`` or
``issubclass`` call names it as its class argument; a distinction that
nothing catches is a plain ValueError. Code that only the tests read,
pass or catch belongs with the tests (tests/oracles.py), not in the
package. A parameter of a package function, method or nested function
counts as read when its function's body names it; ``self`` and ``cls``
of a method are exempt.
"""

import ast
import builtins
import glob
import os
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "edgeplan", "*.py")))
READERS = sorted(path for pattern in ("src/edgeplan/*.py", "scripts/*.py", "perfbench/*.py")
                 for path in glob.glob(os.path.join(ROOT, pattern)))


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and assigned names, each
    with the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def names_read(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """The names the code under ``node`` reads, by a name, an attribute or
    an import, leaving out the subtree ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
        stack.extend(ast.iter_child_nodes(n))
    return out


def parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


TREES = {path: parse(path) for path in READERS}


def unread(path: str, trees: dict[str, ast.Module]) -> list[str]:
    """The definitions of the module at ``path`` that no tree in ``trees``
    reads outside the definition itself."""
    elsewhere = set().union(*(names_read(tree) for p, tree in trees.items() if p != path))
    tree = trees[path]
    return sorted(name for name, node in definitions(tree).items()
                  if name not in elsewhere and name not in names_read(tree, skip=node)
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_sees_the_readers():
    assert {"src/edgeplan/cli.py", "scripts/run_solver_suite.py",
            "perfbench/checks.py"} <= {os.path.relpath(p, ROOT) for p in READERS}


def test_unread_definitions_are_found():
    module = ("A = 1\nB: int = 2\nC, D = 3, 4\n"
              "def f():\n    return f()\n"
              "class K:\n    pass\n"
              "def g():\n    return A + C\n"
              "__version__ = '1'\n")
    trees = {"m.py": ast.parse(module),
             "other.py": ast.parse("from m import B\nimport x\nx.g(K)\n")}
    assert unread("m.py", trees) == ["D", "f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_definition_is_read(path):
    names = unread(path, TREES)
    assert names == [], f"{os.path.relpath(path, ROOT)}: nothing outside tests/ reads {names}"


# random_test_instance is the generator the tests share with
# scripts/run_solver_suite.py; its link_density and tokens exist for the tests
TEST_PARAMETERS = ("random_test_instance(link_density)", "random_test_instance(tokens)")


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index or None if keyword-only)
    for each defaulted parameter of the module's functions and of its
    classes' methods; ``self``/``cls`` take no index, and ``__init__`` is
    called by its class's name."""
    funcs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs += [(cls.name if f.name == "__init__" else f.name, f)
                  for f in cls.body if isinstance(f, ast.FunctionDef)]
    out = []
    for name, f in funcs:
        a = f.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        out += [(name, arg, first + k) for k, arg in enumerate(positional[first:])]
        out += [(name, arg.arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None]
    return out


def calls(trees) -> dict[str, list[tuple[int, bool, set]]]:
    """callee name -> (positional count, has ``*``, keyword names with None
    for ``**``) per call in the trees."""
    out = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                star = any(isinstance(arg, ast.Starred) for arg in node.args)
                out[name].append((len(node.args), star, {kw.arg for kw in node.keywords}))
    return out


def unpassed(tree: ast.Module, trees) -> list[str]:
    """name(parameter) of each defaulted parameter of ``tree`` that no call
    in ``trees`` passes."""
    seen = calls(trees)
    return sorted(f"{name}({param})" for name, param, index in defaulted_parameters(tree)
                  if not any(
                      param in keywords or None in keywords
                      or (index is not None and (star or index < count))
                      for count, star, keywords in seen[name]))


def test_unpassed_parameters_are_found():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "def g(a=1):\n    pass\n"
              "class K:\n"
              "    def __init__(self, x=1, y=2):\n        pass\n"
              "    def m(self, z=1):\n        pass\n")
    caller = ("f(0, 1, d=2)\ng(*args)\nK(0)\nK(**opts)\nobj.m(z=2)\n")
    assert unpassed(ast.parse(module), [ast.parse(caller)]) == ["f(c)", "f(e)"]
    assert unpassed(ast.parse(module), []) == ["K(x)", "K(y)", "f(b)", "f(c)", "f(d)",
                                               "f(e)", "g(a)", "m(z)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_parameter_is_passed(path):
    names = [name for name in unpassed(TREES[path], TREES.values())
             if name not in TEST_PARAMETERS]
    assert names == [], f"{os.path.relpath(path, ROOT)}: nothing outside tests/ passes {names}"


def test_allowed_parameters_are_still_unpassed():
    gen = os.path.join(ROOT, "src", "edgeplan", "gen.py")
    assert set(TEST_PARAMETERS) <= set(unpassed(TREES[gen], TREES.values()))


def exception_classes(trees: dict[str, ast.Module]) -> dict[str, str]:
    """class name -> path of each top-level class in ``trees`` whose bases
    reach Exception, through builtin exceptions or other classes of the
    trees, matched by name."""
    bases = {node.name: ([b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                          if isinstance(b, (ast.Name, ast.Attribute))], path)
             for path, tree in trees.items() for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def reaches(name: str, seen: frozenset = frozenset()) -> bool:
        if name not in bases:
            builtin = getattr(builtins, name, None)
            return isinstance(builtin, type) and issubclass(builtin, Exception)
        return name not in seen and any(reaches(b, seen | {name}) for b in bases[name][0])

    return {name: path for name, (_, path) in bases.items() if reaches(name)}


def names_caught(trees) -> set[str]:
    """The names in the trees' ``except`` clauses and in the class argument
    of their ``isinstance`` and ``issubclass`` calls."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                target = node.type
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
                target = node.args[1]
            else:
                continue
            out |= names_read(target)
    return out


def test_uncaught_exceptions_are_found():
    module = ("class A(ValueError):\n    pass\n"
              "class B(A):\n    pass\n"
              "class C(B):\n    pass\n"
              "class D(errors.Error, Exception):\n    pass\n"
              "class E(OSError):\n    pass\n"
              "class F(Exception):\n    pass\n"
              "class G(KeyboardInterrupt):\n    pass\n"
              "class H(str):\n    pass\n"
              "raise C()\n")
    caller = ("try:\n    f()\nexcept (m.A, KeyError):\n    pass\n"
              "except E as e:\n    pass\n"
              "isinstance(x, D)\nissubclass(y, (int, F))\ncallable(B)\n")
    trees = {"m.py": ast.parse(module)}
    classes = exception_classes(trees)
    assert sorted(classes) == ["A", "B", "C", "D", "E", "F"]
    assert sorted(set(classes) - names_caught([ast.parse(caller)])) == ["B", "C"]


EXCEPTIONS = exception_classes({path: TREES[path] for path in PACKAGE})
CAUGHT = names_caught(TREES.values())


def test_scan_sees_the_exceptions():
    assert {"CliError", "ParseError", "InvalidShape", "SizeLimit"} <= set(EXCEPTIONS)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_exception_is_caught(path):
    names = sorted(name for name, p in EXCEPTIONS.items() if p == path and name not in CAUGHT)
    assert names == [], f"{os.path.relpath(path, ROOT)}: nothing outside tests/ catches {names}"


def unread_parameters(tree: ast.Module) -> list[str]:
    """qualified.name(parameter) of each parameter, ``self`` and ``cls``
    aside, that nothing in its function reads: of every module-level
    function, method and nested function, whose body, nested functions
    included, is searched for the parameter's name."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
                if isinstance(node, ast.ClassDef) and params[:1] in (["self"], ["cls"]):
                    params = params[1:]
                params += [f"*{arg.arg}" for arg in (a.vararg,) if arg is not None]
                params += [f"**{arg.arg}" for arg in (a.kwarg,) if arg is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend(f"{prefix}{child.name}({p})" for p in params
                           if p.lstrip("*") not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(out)


# parameter -> why nothing in its function reads it
UNREAD_PARAMETERS = {
    "build_ilp(instance)": "perfbench calls build_ilp(instance, table) positionally; "
                           "the parameter goes when perfbench may be edited",
}


def test_unread_parameters_are_found():
    module = ("def f(a, b, *args, c=1, **kw):\n    return a + args[0]\n"
              "def g(x, y):\n    def h(z, w):\n        return x + z\n    return h\n"
              "class K:\n"
              "    def m(self, p, q):\n        return q\n"
              "    @classmethod\n    def n(cls, r):\n        return cls\n"
              "def s(self):\n    pass\n")
    assert unread_parameters(ast.parse(module)) == [
        "K.m(p)", "K.n(r)", "f(**kw)", "f(b)", "f(c)", "g(y)", "g.h(w)", "s(self)"]
    assert unread_parameters(ast.parse("def f(a):\n    def g(self):\n        return a\n"
                                       "    return g\n")) == ["f.g(self)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_parameter_is_read(path):
    names = [name for name in unread_parameters(TREES[path])
             if name not in UNREAD_PARAMETERS]
    assert names == [], f"{os.path.relpath(path, ROOT)}: nothing reads the parameters {names}"


def test_allowed_unread_parameters_are_still_unread():
    found = {name for path in PACKAGE for name in unread_parameters(TREES[path])}
    assert set(UNREAD_PARAMETERS) <= found
