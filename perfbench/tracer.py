"""Spans around calls into arrzeta's public functions, recorded from outside.

install() replaces each listed function at every module binding it is
imported under (arrzeta.zeta.intersection_lattice, arrzeta.rank, ...) with
a wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory; uninstall() puts the
original functions back.  Self time is a span's duration minus the time
its child spans cover.
"""

import functools
from time import perf_counter

import arrzeta
import arrzeta.arrangement
import arrzeta.cli
import arrzeta.core
import arrzeta.examples
import arrzeta.harness
import arrzeta.vmono
import arrzeta.walls
import arrzeta.zeta

MODULES = (arrzeta, arrzeta.core, arrzeta.arrangement, arrzeta.zeta, arrzeta.harness,
           arrzeta.walls, arrzeta.cli, arrzeta.examples, arrzeta.vmono)

# the public functions measured in each layer (one layer per module);
# examples and vmono are fixtures and a demo, reached only through cli
LAYERS = {
    "core": ("rank", "kernel_basis", "divides_linear"),
    "arrangement": ("closure", "intersection_lattice", "dense_edges", "interval_arrangement",
                    "restriction_arrangement", "proj_complement_euler", "char_poly",
                    "complement_euler", "is_essential", "is_indecomposable"),
    "zeta": ("enumerate_chains", "local_zeta", "global_zeta", "multivariate_local_zeta",
             "multivariate_global_zeta", "poles", "candidate_poles"),
    "harness": ("lct", "adapted_vector", "validate_adapted", "nd_check", "smc_verify",
                "multi_nd_check", "multi_smc_verify", "log_canonical_polytope"),
    "walls": ("nd_wall_set", "separating_walls", "chamber_path"),
    "cli": ("run",),
}
HARNESS_VERDICTS = ("lct", "adapted_vector", "validate_adapted", "nd_check", "smc_verify",
                    "multi_nd_check", "multi_smc_verify")
ZETA_RESULTS = ("local_zeta", "global_zeta", "multivariate_local_zeta",
                "multivariate_global_zeta")
# results whose size is recorded with the span
SIZED = {"intersection_lattice": len, "enumerate_chains": len, "nd_wall_set": len}
SIZED.update({name: (lambda z: len(z.terms)) for name in ZETA_RESULTS})


class Tracer:
    """Collects spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index, op index)
        self.sizes = {}       # span index -> size of the result
        self.zetas = []       # every ZetaFunction a zeta span returned
        self.op = -1
        self._stack = []
        self._patched = []
        self.absent = []

    def _wrap(self, name, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = SIZED.get(name.split(".")[-1])
        keep = name.split(".")[-1] in ZETA_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if size is not None:
                sizes[idx] = size(result)
            if keep:
                self.zetas.append(result)
            return result
        return wrapper

    def install(self):
        for layer, names in LAYERS.items():
            home = getattr(arrzeta, layer)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.absent.append("%s.%s" % (layer, fname))
                    continue
                wrapper = self._wrap("%s.%s" % (layer, fname), original)
                for mod in MODULES:
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        mul = arrzeta.core.MultiPoly.__mul__
        wrapped = self._wrap("core.MultiPoly.mul", mul)
        for attr in ("__mul__", "__rmul__"):
            self._patched.append((arrzeta.core.MultiPoly, attr, mul))
            setattr(arrzeta.core.MultiPoly, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def roots(self):
        """Index of the outermost span above each span (itself at the top)."""
        out = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out
