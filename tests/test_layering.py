"""No module of the package reads another module's underscore names, and
the modules that work on coordinate rows name no Point.

Each module's private helpers are its own; a shared quantity gets a
public function in the module that owns it. Points are checked and
unwrapped at the public edge, so basis, entropy, specfun, spectrum and
waves see only coordinate arrays.
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
