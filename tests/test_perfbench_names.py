"""Every arrzeta name the benchmark under perfbench/ reads still exists.

The benchmark is frozen: it may not change with the library.  So a name
it imports or reads (A.rank, from arrzeta.zeta import snc_zeta,
arrzeta.core.MultiPoly.__mul__) must keep resolving, and every call it
makes must still bind to the callee's parameters (A.candidate_poles(arr,
lattice=...)).  The function names in tracer.LAYERS are looked up with
getattr and a default, and the tracer reports a missing one as absent, so
they are not checked; the layer modules themselves must exist.
"""

import ast
import importlib
import inspect
from pathlib import Path

import arrzeta

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _lookup(dotted):
    """The object at a dotted path from the arrzeta package, importing
    submodules on the way; None if some part does not exist."""
    parts = dotted.split(".")
    obj = arrzeta
    for k in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[k])
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:k + 1]))
            except ImportError:
                return None
    return obj


def _chain(node, roots):
    """The dotted arrzeta path of a Name.attr.attr chain rooted at a name
    bound to arrzeta, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in roots:
        return ".".join([roots[node.id]] + attrs[::-1])
    return None


def _arrzeta_reads(tree):
    """(names, calls): the dotted arrzeta names a module imports or reads,
    and (dotted callee, positional count, keywords) for each call of one."""
    roots, names, calls = {}, [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "arrzeta":
                    names.append(alias.name)
                    roots[alias.asname or "arrzeta"] = alias.name if alias.asname else "arrzeta"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "arrzeta":
            for alias in node.names:
                names.append("%s.%s" % (node.module, alias.name))
                roots[alias.asname or alias.name] = "%s.%s" % (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _chain(node, roots)
            if dotted:
                names.append(dotted)
        elif isinstance(node, ast.Call):
            dotted = _chain(node.func, roots)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            if dotted and not starred:
                calls.append((dotted, len(node.args), tuple(k.arg for k in node.keywords)))
    return names, calls


def _benchmark_reads():
    names, calls = [], []
    for path in sorted(PERFBENCH.glob("*.py")):
        n, c = _arrzeta_reads(ast.parse(path.read_text()))
        names += [(path.name, x) for x in n]
        calls += [(path.name,) + x for x in c]
    return names, calls


def test_benchmark_names_resolve():
    names, _ = _benchmark_reads()
    read = {x for _, x in names}
    # the scan sees each kind of read: attribute of the package alias,
    # from-import, and a chain through a submodule to a method
    assert {"arrzeta.rank", "arrzeta.QMatrix.from_rows", "arrzeta.zeta.snc_zeta",
            "arrzeta.cli.zeta_from_json", "arrzeta.core.MultiPoly.__mul__"} <= read
    assert [(f, x) for f, x in names if _lookup(x) is None] == []


def test_benchmark_calls_bind():
    _, calls = _benchmark_reads()
    assert ("workloads.py", "arrzeta.candidate_poles", 1, ("lattice",)) in calls
    unbound = []
    for fname, dotted, npos, keywords in calls:
        target = _lookup(dotted)
        if not callable(target):
            continue
        try:
            inspect.signature(target).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as e:
            unbound.append((fname, dotted, str(e)))
    assert unbound == []


def test_tracer_layers_are_modules():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    assert layers and all(inspect.ismodule(_lookup("arrzeta." + layer)) for layer in layers)
