"""Every public library name has a caller, or a stated reason to stay.

A public name is a module-level function or class of a library module
(not __init__.py) whose name has no leading underscore, or such a method
or property of one of those classes.  It counts as used when an ast.Name
or ast.Attribute with its identifier appears in another library module,
in its own module outside its own definition, or in a perfbench/*.py
file (read only), where a name imported from arrzeta counts too (the
benchmark imports snc_zeta and rank2_zeta under other names).  The
package's re-exports in __init__.py are not uses.  The scan goes by
identifier, not by type, so a method shares its uses with every name
spelled the same.  Every unused name must be in ALLOWED with a reason,
and every name in ALLOWED must exist and be unused, so the list stays
exact.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "arrzeta"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "core.MultiPoly.is_zero": "public predicate of the result type; the tests read it",
    "zeta.ZetaFunction.is_zero": "public predicate of a zeta function; the tests read it",
    "walls.walls_from_resolution": "the validated route nd_wall_set is checked against "
                                   "in test_walls.py",
    "arrangement.IntersectionLattice.euler_below":
        "the flag-sum oracle conftest.fraction_flag_sum and test_lattice.py read it",
}


def _definitions(tree, module):
    """(dotted name, definition node) of each public function and class of
    a module, and of each public method and property of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(("%s.%s" % (module, node.name), node))
            if isinstance(node, ast.ClassDef):
                out += [("%s.%s.%s" % (module, node.name, item.name), item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _identifiers(tree, skip=None):
    """The identifiers of every Name and Attribute in a tree, leaving out
    the subtree of skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unused():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(LIBRARY.glob("*.py"))}
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bench |= _identifiers(tree)
        bench |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "arrzeta" for alias in node.names}
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        others = set(bench)
        for other, t in trees.items():
            if other != module:
                others |= _identifiers(t)
        for dotted, node in _definitions(tree, module):
            if node.name not in others and node.name not in _identifiers(tree, skip=node):
                unused.append(dotted)
    return unused


def test_definitions_are_found():
    # the scan sees functions, classes, methods, properties and classmethods
    names = {d for path in LIBRARY.glob("*.py") if path.stem != "__init__"
             for d, _ in _definitions(ast.parse(path.read_text()), path.stem)}
    assert {"core.AffineForm", "core.AffineForm.canonical", "core.AffineForm.nvars",
            "core.div_linear", "zeta.ZetaFunction.evaluate"} <= names
    assert not any(d.rsplit(".", 1)[1].startswith("_") for d in names)


def test_every_public_name_is_used_or_allowed():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert sorted(_unused()) == sorted(ALLOWED)
