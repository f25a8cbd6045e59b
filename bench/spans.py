"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``diskpoly`` modules from the
outside: every module namespace (and every module-level dict, such as the
suite table) that holds the original function object gets the wrapper, so
calls through ``from .x import f`` bindings are seen too.  Spans are kept
as per-(name, parent) aggregates in memory; self time is a span's duration
minus the durations of its direct child spans.  Nothing inside the package
is edited.
"""

import sys
import time

# Spanned functions, by defining module.  "DiskExpr" spans the constructor,
# which is where canonicalisation happens.
SPANNED = {
    "numerics": ("incomplete_beta", "hyp2f1", "jacobi_p"),
    "zernike": ("eval_explicit", "eval_gauss1", "eval_gauss2", "eval_jacobi",
                "eval_rodrigues", "eval_contour", "eval_contour_adaptive",
                "monomial_coeffs", "rodrigues_expr", "inner_product", "explicit_expr"),
    "algebra": ("DiskExpr", "mul", "add", "scale", "d_z", "d_zbar", "prune", "eval_expr"),
    "spectral": ("psi", "nabla", "nabla_star", "magnetic_laplacian", "eigen_residual",
                 "factorization_residuals", "bridge_pair"),
    "cauchy": ("cauchy_direct_2d", "cauchy_zernike_quad", "cauchy_monomial_closed",
               "cauchy_monomial_2f1", "cauchy_zernike_closed"),
    "suites": ("suite_routes", "suite_contour", "suite_cauchy", "suite_orthogonality",
               "suite_spectral", "suite_hermite"),
    "report": ("serialize",),
    "cli": ("cmd_verify", "cmd_table"),
}

# Counted, not spanned: these run hundreds of thousands of times per pass.
COUNTED = {"numerics": ("pochhammer",)}

# A call of the key that opens a child span named in the value is a build
# (a cache miss); the other calls were served from the cache.
BUILD_CHILDREN = {"zernike.rodrigues_expr": frozenset({"algebra.d_z", "algebra.d_zbar"})}

# lru_cache-wrapped rules whose hit ratio is read from cache_info().
CACHED = {"numerics": ("gauss_legendre", "gauss_jacobi_radial")}

_ROOT = ""


class Recorder:
    """Installs wrappers, aggregates spans, and restores the originals."""

    def __init__(self):
        self._stack = [[_ROOT, 0.0, None]]  # frames: [name, child seconds, child names]
        self._active = {}                   # name -> nesting depth, for total_s
        self.spans = {}                     # (name, parent) -> [calls, seconds, self seconds]
        self.totals = {}                    # name -> seconds in outermost spans
        self.counts = {}
        self.builds = {}
        self._patches = []                  # (namespace dict, key, original)
        self._ctor = None

    # -- wrappers ----------------------------------------------------

    def _span(self, name, fn):
        stack, active, spans, totals = self._stack, self._active, self.spans, self.totals
        clock = time.perf_counter
        watch = BUILD_CHILDREN.get(name)
        builds = self.builds

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, set() if watch else None]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                if depth == 0:
                    totals[name] = totals.get(name, 0.0) + dur
                parent[1] += dur
                if parent[2] is not None:
                    parent[2].add(name)
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, dur, dur - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                if watch and frame[2] & watch:
                    builds[name] = builds.get(name, 0) + 1

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove --------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diskpoly" or modname.startswith("diskpoly.")):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is original:
                    self._patches.append((ns, key, original))
                    ns[key] = replacement
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._patches.append((val, dkey, original))
                            val[dkey] = replacement

    def install(self):
        import diskpoly  # noqa: F401  (loads every submodule)

        for short, names in SPANNED.items():
            mod = sys.modules["diskpoly." + short]
            for fname in names:
                label = f"{short}.{fname}"
                if fname == "DiskExpr":
                    cls = mod.DiskExpr
                    self._ctor = (cls, cls.__init__)
                    cls.__init__ = self._span(label, cls.__init__)
                    continue
                original = getattr(mod, fname)
                self._replace_everywhere(original, self._span(label, original))
        for short, names in COUNTED.items():
            mod = sys.modules["diskpoly." + short]
            for fname in names:
                original = getattr(mod, fname)
                self._replace_everywhere(original, self._counter(f"{short}.{fname}", original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()
        if self._ctor is not None:
            cls, init = self._ctor
            cls.__init__ = init
            self._ctor = None

    # -- export ------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for the result file."""
        hit_ratio = {}
        for short, names in CACHED.items():
            mod = sys.modules["diskpoly." + short]
            for fname in names:
                info = getattr(mod, fname).cache_info()
                looked = info.hits + info.misses
                hit_ratio[f"{short}.{fname}"] = info.hits / looked if looked else 0.0
        return {
            "spans": [[name, parent, c, t, s]
                      for (name, parent), (c, t, s) in sorted(self.spans.items())],
            "totals": dict(sorted(self.totals.items())),
            "counts": dict(self.counts),
            "builds": dict(self.builds),
            "hit_ratio": hit_ratio,
        }


def per_function(snap: dict) -> dict:
    """Fold (name, parent) aggregates into name -> {calls, self_s, total_s}."""
    out = {}
    for name, _parent, calls, _dur, self_s in snap["spans"]:
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += calls
        rec["self_s"] += self_s
    for name, total in snap["totals"].items():
        out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})["total_s"] = total
    return out


def child_calls(snap: dict, name: str, parent: str) -> int:
    return sum(c for n, p, c, _t, _s in snap["spans"] if n == name and p == parent)


def child_totals(snap: dict, parent: str) -> dict:
    """Seconds spent in each direct child of ``parent``."""
    out = {}
    for name, p, _c, dur, _s in snap["spans"]:
        if p == parent:
            out[name] = out.get(name, 0.0) + dur
    return out
