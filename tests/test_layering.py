"""No module of the package reads another module's underscore names, each
module lists in __all__ only what it defines, the modules that work on
coordinate rows name no Point, and no function keeps hidden state.

Each module's private helpers are its own; a shared quantity gets a
public function in the module that owns it, and only that module exports
it (the package __init__ gathers the public names). Points are checked and
unwrapped at the public edge, so basis, entropy, specfun, spectrum and
waves see only coordinate arrays. The one piece of module state a
function may change is waves._LEVEL_CACHE, and nothing is memoized by
functools.
"""

import ast
from pathlib import Path

import eigenband

PACKAGE = Path(eigenband.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_module(node: ast.ImportFrom):
    """The eigenband module an ImportFrom reads names from, else None."""
    if node.level == 1 and node.module:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("eigenband."):
        return node.module.split(".", 1)[1]
    return None


def private_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _package_module(node)
            if owner is not None:
                found += [f"{owner}.{a.name}" for a in node.names if _private(a.name)]
            elif node.level == 1 or node.module == "eigenband":
                # from . import manifold as mf
                for a in node.names:
                    if a.name in MODULES:
                        aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    src = ("from . import manifold as mf\n"
           "from .spectrum import _half_space, band_terms\n"
           "def f(m):\n"
           "    from eigenband.basis import _upward\n"
           "    return mf._torus_delta(m), mf.log_map, m._private\n")
    assert sorted(private_reads(src)) == ["basis._upward", "manifold._torus_delta",
                                          "spectrum._half_space"]


def test_no_cross_module_private_reads():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = private_reads(path.read_text())
        if found:
            offenders[path.name] = found
    assert offenders == {}


def reexports(source: str) -> list[str]:
    """Every name of source's module-level __all__ that no module-level def,
    class or assignment of source binds."""
    tree = ast.parse(source)
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = {t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                listed = [e.value for e in node.value.elts]
    return [name for name in listed if name not in defined]


def test_reexport_checker_sees_every_form():
    src = ("from .spectrum import k_lambda\n"
           "import math as pi\n"
           "__all__ = ['f', 'K', 'C', 'D', 'k_lambda', 'pi', 'missing']\n"
           "def f():\n"
           "    g = 1\n"
           "    return g\n"
           "class K:\n"
           "    h = 2\n"
           "C, (D, E) = 1, (2, 3)\n")
    assert reexports(src) == ["k_lambda", "pi", "missing"]


def test_all_lists_only_own_names():
    found = {path.stem: reexports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


# modules that work on coordinate rows only: Points stay at the public edge
ROW_MODULES = ("basis", "entropy", "specfun", "spectrum", "waves")
POINT_NAMES = {"Point", "check_point", "make_point"}


def point_references(source: str) -> list[str]:
    """Every name of POINT_NAMES that source imports, reads or calls, bare or
    as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in POINT_NAMES]
        elif isinstance(node, ast.Name) and node.id in POINT_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in POINT_NAMES:
            found.append(node.attr)
    return found


def test_point_checker_sees_every_form():
    src = ("from .manifold import SPHERE2, Point\n"
           "from . import manifold as mf\n"
           "def f(m, x: Point, c):\n"
           "    return mf.check_point(m, x), mf.make_point(m, c), x.coords\n")
    assert sorted(point_references(src)) == ["Point", "Point", "check_point", "make_point"]


def test_row_modules_take_no_points():
    found = {name: point_references((PACKAGE / f"{name}.py").read_text())
             for name in ROW_MODULES}
    assert {name: refs for name, refs in found.items() if refs} == {}


# the one piece of module state a function may change: expected_sup's last
# level scan, which it empties before it builds another
ALLOWED_STATE = {"waves": {"_LEVEL_CACHE"}}
MUTATORS = {"clear", "pop", "popitem", "update", "setdefault", "append", "extend",
            "insert", "remove", "add", "discard"}
MEMOIZERS = {"cache", "lru_cache"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a function's own scope: its body without nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def state_writes(source: str) -> list[str]:
    """Every module-level name that a function of source mutates: by item or
    slice assignment or del, by a global statement, or by a call of one of
    MUTATORS on it. A name the function (or a function around it) binds is
    its own, not the module's."""
    tree = ast.parse(source)
    module_names = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in getattr(node, "targets", [getattr(node, "target", None)])
                    for t in ast.walk(target) if isinstance(t, ast.Name)}
    found = []

    def visit(scope, enclosing):
        args = [a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)]
        nodes = list(_own_nodes(scope))
        declared = {n for node in nodes if isinstance(node, ast.Global) for n in node.names}
        local = enclosing | set(args) | {
            node.id for node in nodes
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)} - declared
        found.extend(declared)

        def module_name(node):
            return (node.id if isinstance(node, ast.Name) and node.id in module_names
                    and node.id not in local else None)

        for node in nodes:
            if isinstance(node, SCOPES):
                visit(node, local)
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                found.append(module_name(node.value))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                found.append(module_name(node.func.value))

    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, SCOPES):
            visit(node, set())
        else:
            todo.extend(ast.iter_child_nodes(node))
    return sorted(name for name in found if name)


def memoizer_uses(source: str) -> list[str]:
    """Every functools.cache or lru_cache that source imports or reads."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in MEMOIZERS]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr in MEMOIZERS):
            found.append(node.attr)
    return sorted(found)


def test_state_checker_sees_every_form():
    src = ("import functools as ft\n"
           "from functools import lru_cache, partial\n"
           "_A, _B = {}, []\n"
           "_C: dict = {}\n"
           "_D = _E = _F = {}\n"
           "def f(x):\n"
           "    global _G\n"
           "    _A[x] = 1\n"
           "    _B.append(x)\n"
           "    del _C[x]\n"
           "    _E[1:2] = [x]\n"
           "    _F = {}\n"
           "    _F.clear()\n"
           "    def g(_D):\n"
           "        _D.add(1)\n"
           "        _E.update(x)\n"
           "        _F.pop()\n"
           "    return g, lambda: _D.discard(x), _A.get(x), len(_B)\n"
           "class K:\n"
           "    def m(self, _A):\n"
           "        _A.popitem()\n"
           "        _C.setdefault(1, 2)\n"
           "@ft.cache\n"
           "def h():\n"
           "    return ft.reduce\n")
    assert state_writes(src) == ["_A", "_B", "_C", "_C", "_D", "_E", "_E", "_G"]
    assert memoizer_uses(src) == ["cache", "lru_cache"]


def test_only_the_level_cache_is_module_state():
    writes = {path.stem: set(state_writes(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in writes.items() if found} == ALLOWED_STATE
    uses = {path.name: memoizer_uses(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in uses.items() if found} == {}
