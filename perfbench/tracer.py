"""Layer tracing for the qlg2 benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions of each qlg2 layer with
wrappers.  A function is patched in every namespace its name is bound in
(for example `levi_right_split` lives in `pbw`, `parthasarathy` and
`checks`), check functions are patched in the `CHECKS` registry, and
`uninstall()` puts every original object back.

Layer calls become spans (name, start, end, parent) kept in flat arrays in
memory and written out by `write_spans`.  A span's self time is its duration
minus the durations of its child spans.  `Scalar`/`KScalar` entry points are
too frequent for spans: they get call counts and one timer that runs only
while no other Scalar entry point is active ("outermost time").
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

STAGE_PREFIX = "checks.stage."
CHECK_PREFIX = "checks.check."

# (module, attribute path, span name); a class attribute path patches every
# alias of the same function in the class, e.g. `__mul__` and `__rmul__`.
SPAN_TARGETS = (
    ("qlg2.pbw", "levi_right_split", "pbw.levi_right_split"),
    ("qlg2.pbw", "normal_form", "pbw.normal_form"),
    ("qlg2.pbw", "AlgebraElement.__mul__", "pbw.AlgebraElement.mul"),
    ("qlg2.parthasarathy", "reduce_to_M", "parthasarathy.reduce_to_M"),
    ("qlg2.parthasarathy", "casimir_in_M", "parthasarathy.casimir_in_M"),
    ("qlg2.rmatrix", "casimir_eigenvalue", "rmatrix.casimir_eigenvalue"),
    ("qlg2.rmatrix", "TruncatedRMatrix.build", "rmatrix.TruncatedRMatrix.build"),
    ("qlg2.rmatrix", "quantum_trace_pairing", "rmatrix.quantum_trace_pairing"),
    ("qlg2.modules", "ModuleOperator.__matmul__", "modules.ModuleOperator.matmul"),
    ("qlg2.modules", "ExteriorModule.rho", "modules.ExteriorModule.rho"),
    ("qlg2.linalg", "mmul", "linalg.mmul"),
    ("qlg2.linalg", "nullspace", "linalg.nullspace"),
    ("qlg2.checks", "run_check", "checks.run_check"),
    ("qlg2.cli", "main", "cli.main"),
)

SCALAR_TARGETS = (
    ("Scalar.__mul__", "scalar.Scalar.mul"),
    ("Scalar.__add__", "scalar.Scalar.add"),
    ("Scalar.__truediv__", "scalar.Scalar.div"),
    ("Scalar.__rtruediv__", "scalar.Scalar.div"),
    ("Scalar.evaluate", "scalar.Scalar.evaluate"),
    ("KScalar.__mul__", "scalar.KScalar.mul"),
)

# memo tables whose sizes are reported after a traced run
CACHES = (
    ("qlg2.pbw", "_E_STR_CACHE", "pbw.cache.e_str.entries"),
    ("qlg2.pbw", "_F_STR_CACHE", "pbw.cache.f_str.entries"),
    ("qlg2.pbw", "_CROSS_CACHE", "pbw.cache.cross.entries"),
    ("qlg2.pbw", "_U_CACHE", "pbw.cache.u.entries"),
    ("qlg2.pbw", "_BASE_CACHE", "pbw.cache.base.entries"),
    ("qlg2.parthasarathy", "_SPLIT_CACHE", "parthasarathy.split_cache.entries"),
    ("qlg2.modules", "_WEDGE_CACHE", "modules.cache.wedge.entries"),
)


def _qlg2_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "qlg2" or name.startswith("qlg2.")]


def _resolve(module, path):
    obj = importlib.import_module(module)
    *owners, attr = path.split(".")
    for o in owners:
        obj = getattr(obj, o)
    return obj, attr


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = {}
        self.counters = {}
        self.scalar_calls = {}
        self.scalar_s = 0.0
        self._scalar_active = [False]
        self._pairs = set()
        self.pair_calls = 0
        self.pair_repeats = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _span(self, fn, name, measure=None):
        """Wrap `fn` in a span.  `name` is a string or a callable of the call
        arguments returning the span name, or None for no span."""
        stack, depth = self._stack, self._depth
        names, parents, outers = self.name, self.parent, self.outer
        starts, ends = self.start, self.end
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kwargs):
            nid = fixed
            if nid is None:
                label = name(args)
                if label is None:
                    return fn(*args, **kwargs)
                nid = self._id(label)
            d = depth.get(nid, 0)
            depth[nid] = d + 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outers.append(d == 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                depth[nid] = d
            if measure is not None:
                measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper._perfbench_wrapper = True
        return wrapper

    def _count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- Scalar entry points -------------------------------------------------

    def _scalar(self, fn, metric, track_pairs, scalar_type):
        calls = self.scalar_calls
        calls.setdefault(metric, 0)
        active = self._scalar_active
        pairs = self._pairs

        def wrapper(x, y):
            calls[metric] += 1
            if track_pairs and type(y) is scalar_type and x._n and y._n:
                hx, hy = hash(x), hash(y)
                key = hash((hx, hy) if hx <= hy else (hy, hx))
                self.pair_calls += 1
                if key in pairs:
                    self.pair_repeats += 1
                else:
                    pairs.add(key)
            if active[0]:
                return fn(x, y)
            active[0] = True
            t0 = perf_counter()
            try:
                return fn(x, y)
            finally:
                self.scalar_s += perf_counter() - t0
                active[0] = False

        wrapper.__wrapped__ = fn
        wrapper._perfbench_wrapper = True
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_attr(self, holder, attr, new):
        self._patches.append(("attr", holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    def _patch_everywhere(self, original, wrapper):
        """Bind `wrapper` wherever a qlg2 module binds `original`."""
        for mod in _qlg2_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, wrapper)

    def _patch_class(self, cls, original, wrapper):
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patch_attr(cls, attr, wrapper)

    def _patch_target(self, owner, attr, wrap):
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            self._patch_attr(owner, attr, classmethod(wrap(raw.__func__)))
        elif isinstance(owner, type):
            self._patch_class(owner, raw, wrap(raw))
        else:
            original = getattr(owner, attr)
            self._patch_everywhere(original, wrap(original))

    def install(self):
        checks = importlib.import_module("qlg2.checks")
        parthasarathy = importlib.import_module("qlg2.parthasarathy")
        scalar_type = importlib.import_module("qlg2.scalar").Scalar

        measures = {
            "pbw.levi_right_split":
                lambda a, r: self._count("pbw.levi_right_split.out_terms", len(r)),
            "pbw.AlgebraElement.mul":
                lambda a, r: self._count("pbw.AlgebraElement.mul.out_terms",
                                         len(getattr(r, "terms", ()))),
            "parthasarathy.reduce_to_M":
                lambda a, r: self._count("parthasarathy.reduce_to_M.terms",
                                         len(a[0].terms)),
        }
        for module, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            self._patch_target(
                owner, attr,
                lambda fn, name=name: self._span(fn, name, measures.get(name)))

        for path, metric in SCALAR_TARGETS:
            owner, attr = _resolve("qlg2.scalar", path)
            track = metric == "scalar.Scalar.mul"
            self._patch_target(owner, attr, lambda fn, m=metric, t=track:
                               self._scalar(fn, m, t, scalar_type))

        # split-cache lookups: a hit is a word already split at that cap
        split_cache = parthasarathy._SPLIT_CACHE

        def split_word(word, degree_cap, _orig=parthasarathy._split_word):
            self._count("parthasarathy.split_cache.lookups", 1)
            if (word, degree_cap) in split_cache:
                self._count("parthasarathy.split_cache.hits", 1)
            return _orig(word, degree_cap)

        split_word._perfbench_wrapper = True
        self._patch_everywhere(parthasarathy._split_word, split_word)

        # Context stages: a span only when the property is actually built
        def stage_name(args):
            ctx, key = args[0], args[1]
            return None if key in ctx._cache else STAGE_PREFIX + key

        self._patch_class(checks.Context, checks.Context._get,
                          self._span(checks.Context._get, stage_name))

        for check_id, entry in list(checks.CHECKS.items()):
            statement, fn = entry
            self._patches.append(("item", checks.CHECKS, check_id, entry))
            checks.CHECKS[check_id] = (
                statement, self._span(fn, CHECK_PREFIX + check_id))
        return self

    def uninstall(self):
        for kind, holder, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._patches = []

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-name totals: calls, outermost inclusive time, self time, and
        time excluding nested Context stage builds."""
        n = len(self.name)
        stage = [nm.startswith(STAGE_PREFIX) for nm in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        child_stage = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if stage[self.name[i]]:
                    child_stage[p] += dur[i]
        out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0, "excl_stage_s": 0.0}
               for nm in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                row["s"] += dur[i]
                row["excl_stage_s"] += dur[i] - child_stage[i]
        return out

    def cache_sizes(self):
        return {metric: len(getattr(sys.modules[module], attr))
                for module, attr, metric in CACHES}

    def write_spans(self, path):
        """Write spans as five arrays in native byte order (name id, parent
        index, outermost flag, start, end; `array` type codes in the header)
        after a JSON header line naming the span names and the count."""
        arrays = (self.name, self.parent, self.outer, self.start, self.end)
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name),
                      "byteorder": sys.byteorder,
                      "arrays": ["name:i", "parent:i", "outer:b",
                                 "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)


def leftover_wrappers():
    """Names in qlg2 modules, classes or the check registry that still hold a
    benchmark wrapper (empty after a correct `uninstall`)."""
    checks = sys.modules["qlg2.checks"]
    found = []

    def is_wrapper(value):
        value = getattr(value, "__func__", value)
        return getattr(value, "_perfbench_wrapper", False)

    for mod in _qlg2_modules():
        for attr, value in vars(mod).items():
            if is_wrapper(value):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if is_wrapper(cvalue):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    for check_id, (_statement, fn) in checks.CHECKS.items():
        if is_wrapper(fn):
            found.append(f"CHECKS[{check_id}]")
    return found
