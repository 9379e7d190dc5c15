"""Traced runs: spans around weilreg's public functions, recorded from outside.

`Tracer.install()` replaces every public module-level function of every
weilreg module, and a few methods of `Polynomial`, `MonomialOrder` and
`Ideal`, with timing wrappers.  A wrapper is bound at every place that
holds the original object: the defining module, every module that bound
the name with `from .x import f`, the package namespace and class
attributes such as `Polynomial.__radd__ = __add__`.  `uninstall()` puts the
originals back.  No file of the program changes.

Each call becomes a span with a name, start, end, parent span and session
id, kept in memory.  A span's self time is its duration minus the time
its child spans cover.  Some calls are too frequent to keep one span each
and are folded into their caller instead:

* polynomial arithmetic (`+`, `-`, `*`, `mul_term`): timed, its time
  subtracted from the caller's self time, summed as `poly.arith`;
* `Polynomial.leading_term` and `MonomialOrder.key`: counted only, their
  time stays in the caller's self time.
"""

import inspect
import json
import time

perf = time.perf_counter

LAYERS = (
    "orders", "poly", "polygcd", "ideals", "linalg", "varieties", "ratfunc", "maps",
    "groups", "actions", "regularize", "atlas", "slices", "exprparse", "sessions",
)

# class, method -> metric family
FOLDED_TIMED = {
    ("poly", "Polynomial", "__add__"): "poly.arith",
    ("poly", "Polynomial", "__sub__"): "poly.arith",
    ("poly", "Polynomial", "__mul__"): "poly.arith",
    ("poly", "Polynomial", "mul_term"): "poly.arith",
}
COUNTED = {
    ("poly", "Polynomial", "leading_term"): "poly.leading_term",
    ("orders", "MonomialOrder", "key"): "orders.key",
}
METHOD_SPANS = {
    ("ideals", "Ideal", "groebner_basis"): "ideals.Ideal.groebner_basis",
}


class _Stats:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Span recorder over an imported weilreg package."""

    def __init__(self, modules):
        self.modules = modules  # name -> module, for every loaded weilreg module
        self.stats = {}
        self.spans = []  # [name, start, end, parent, session]
        self.stack = []  # [span index or -1, child seconds]
        self.session = None
        self.basis_size_max = 0
        self.specialized = set()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stats()
        return st

    def _span_wrapper(self, name, fn, hook=None):
        st = self._stat(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self.session])
            frame = [index, 0.0]
            stack.append(frame)
            st.calls += 1
            st.depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                st.depth -= 1
                duration = end - start
                st.self_s += duration - frame[1]
                if not st.depth:
                    st.total_s += duration
                if stack:
                    stack[-1][1] += duration
                span = spans[index]
                span[1], span[2] = start, end
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _folded_wrapper(self, name, fn):
        st = self._stat(name)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            st.calls += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                st.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _counted_wrapper(self, name, fn):
        st = self._stat(name)

        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _basis_hook(self, args, result):
        self.basis_size_max = max(self.basis_size_max, len(result))

    def _specialize_hook(self, args, result):
        g = args[1]
        key = g if isinstance(g, str) else tuple(str(c) for c in g)
        self.specialized.add((self.session, key))

    # -- binding --------------------------------------------------------------

    def _targets(self):
        """id(original) -> (original, wrapper), for everything this tracer wraps."""
        wrappers = {}
        hooks = {"ideals.buchberger": self._basis_hook, "actions.specialize": self._specialize_hook}
        for layer in LAYERS:
            module = self.modules[f"weilreg.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._span_wrapper(name, obj, hooks.get(name)))
        for table, make in ((FOLDED_TIMED, self._folded_wrapper),
                            (COUNTED, self._counted_wrapper),
                            (METHOD_SPANS, self._span_wrapper)):
            for (layer, cls, attr), name in table.items():
                fn = vars(getattr(self.modules[f"weilreg.{layer}"], cls))[attr]
                wrappers[id(fn)] = (fn, make(name, fn))
        return wrappers

    def install(self):
        wrappers = self._targets()
        namespaces = []
        for module in self.modules.values():
            namespaces.append(module)
            namespaces += [obj for obj in vars(module).values()
                           if inspect.isclass(obj) and obj.__module__.startswith("weilreg")]
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, obj in list(vars(ns).items()):
                target = wrappers.get(id(obj))
                if target is not None and target[0] is obj:
                    setattr(ns, attr, target[1])
                    self._patches.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_ms(self, name):
        st = self.stats.get(name)
        return st.self_s * 1000 if st else 0.0

    def total_ms(self, name):
        st = self.stats.get(name)
        return st.total_s * 1000 if st else 0.0

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, session) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": None if parent < 0 else parent,
                    "session": session, "start_ms": round((start - origin) * 1000, 4),
                    "end_ms": round((end - origin) * 1000, 4),
                }) + "\n")


# -- per-layer metrics ----------------------------------------------------------

MAP_FUNCTIONS = ("graph_closure", "inverse", "compose", "biregular_locus", "is_graph_closed")


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced round.

    `records` is the list of record lists the round's sessions produced.
    Returns name -> (value, unit, exact) where exact marks counts that must
    repeat identically for the same inputs."""
    t = tracer
    requests = t.calls("ideals.Ideal.groebner_basis")
    computed = t.calls("ideals.buchberger")
    specialize = t.calls("actions.specialize")
    m = {
        "sessions.parse_session.ms": (t.total_ms("sessions.parse_session"), "ms", False),
        "sessions.emit_report.ms": (t.total_ms("sessions.emit_report"), "ms", False),
        "sessions.records": (sum(len(r) for r in records), "count", True),
        "exprparse.parse_fraction.self_ms": (t.self_ms("exprparse.parse_fraction"), "ms", False),
        "ideals.buchberger.calls": (computed, "count", True),
        "ideals.buchberger.self_ms": (t.self_ms("ideals.buchberger"), "ms", False),
        "ideals.reduce_full.calls": (t.calls("ideals.reduce_full"), "count", True),
        "ideals.reduce_full.self_ms": (t.self_ms("ideals.reduce_full"), "ms", False),
        "ideals.eliminate.total_ms": (t.total_ms("ideals.eliminate"), "ms", False),
        "ideals.saturate.total_ms": (t.total_ms("ideals.saturate"), "ms", False),
        "ideals.groebner_steps": (sum(r["groebner_steps"] for rs in records for r in rs), "count", True),
        "ideals.basis_size_max": (t.basis_size_max, "count", True),
        "ideals.basis_requests": (requests, "count", True),
        "ideals.basis_cache_hit_ratio": (1 - computed / requests if requests else 0.0, "ratio", True),
        "orders.key.calls": (t.calls("orders.key"), "count", True),
        "poly.leading_term.calls": (t.calls("poly.leading_term"), "count", True),
        "poly.arith.self_ms": (t.self_ms("poly.arith"), "ms", False),
        "polygcd.poly_gcd.calls": (t.calls("polygcd.poly_gcd"), "count", True),
        "polygcd.poly_gcd.self_ms": (t.self_ms("polygcd.poly_gcd"), "ms", False),
        "polygcd.simplify_fraction.total_ms": (t.total_ms("polygcd.simplify_fraction"), "ms", False),
        "ratfunc.compose_fraction.calls": (t.calls("ratfunc.compose_fraction"), "count", True),
        "ratfunc.compose_fraction.self_ms": (t.self_ms("ratfunc.compose_fraction"), "ms", False),
        "linalg.solve_linear.calls": (t.calls("linalg.solve_linear"), "count", True),
        "linalg.mat_inverse.calls": (t.calls("linalg.mat_inverse"), "count", True),
    }
    for fn in MAP_FUNCTIONS:
        m[f"maps.{fn}.calls"] = (t.calls(f"maps.{fn}"), "count", True)
        m[f"maps.{fn}.total_ms"] = (t.total_ms(f"maps.{fn}"), "ms", False)
    m.update({
        "actions.make_rational_action.total_ms": (t.total_ms("actions.make_rational_action"), "ms", False),
        "actions.g_regular_locus.total_ms": (t.total_ms("actions.g_regular_locus"), "ms", False),
        "actions.specialize.calls": (specialize, "count", True),
        "actions.specialize.distinct_ratio": (
            len(t.specialized) / specialize if specialize else 0.0, "ratio", True),
        "atlas.build_atlas.total_ms": (t.total_ms("atlas.build_atlas"), "ms", False),
        "atlas.check_atlas.total_ms": (t.total_ms("atlas.check_atlas"), "ms", False),
        "regularize.regularize_finite.total_ms": (t.total_ms("regularize.regularize_finite"), "ms", False),
        "slices.certify_regular.total_ms": (t.total_ms("slices.certify_regular"), "ms", False),
        "slices.regularity_from_subgroup.total_ms": (
            t.total_ms("slices.regularity_from_subgroup"), "ms", False),
    })
    return m


# The workloads on which each per-layer metric should move an end-to-end
# metric (README.md says which one).  The binding self-check requires every
# metric to be non-zero on the workloads listed for it, so a refactor that
# moves or re-imports a function fails the traced run instead of silently
# reading zero.
_IDEALS = ("mapcalc", "atlas")
EXPECTED = {
    "sessions.parse_session.ms": ("golden",),
    "sessions.emit_report.ms": ("golden",),
    "sessions.records": ("golden",),
    "exprparse.parse_fraction.self_ms": ("golden",),
    "ideals.buchberger.calls": _IDEALS,
    "ideals.buchberger.self_ms": _IDEALS,
    "ideals.reduce_full.calls": _IDEALS,
    "ideals.reduce_full.self_ms": _IDEALS,
    "ideals.eliminate.total_ms": _IDEALS,
    "ideals.saturate.total_ms": _IDEALS,
    "ideals.groebner_steps": _IDEALS,
    "ideals.basis_size_max": _IDEALS,
    "ideals.basis_requests": _IDEALS,
    "ideals.basis_cache_hit_ratio": _IDEALS,
    "orders.key.calls": ("mapcalc",),
    "poly.leading_term.calls": ("mapcalc",),
    "poly.arith.self_ms": ("atlas",),
    "polygcd.poly_gcd.calls": ("atlas",),
    "polygcd.poly_gcd.self_ms": ("atlas",),
    "polygcd.simplify_fraction.total_ms": ("atlas",),
    "ratfunc.compose_fraction.calls": ("atlas",),
    "ratfunc.compose_fraction.self_ms": ("atlas",),
    # solve_linear runs only when a generator's pullback is not itself one of
    # the stable generators, which their construction as an orbit rules out:
    # no session reaches it.  mat_inverse (slice certificates) measures linalg.
    "linalg.solve_linear.calls": (),
    "linalg.mat_inverse.calls": ("golden",),
    **{f"maps.{fn}.{kind}": ("mapcalc", "atlas") if fn in ("compose", "inverse") else ("mapcalc",)
       for fn in MAP_FUNCTIONS for kind in ("calls", "total_ms")},
    "actions.make_rational_action.total_ms": ("golden",),
    "actions.g_regular_locus.total_ms": ("golden", "atlas"),
    "actions.specialize.calls": ("atlas",),
    "actions.specialize.distinct_ratio": ("atlas",),
    "atlas.build_atlas.total_ms": ("atlas",),
    "atlas.check_atlas.total_ms": ("atlas",),
    "regularize.regularize_finite.total_ms": ("golden",),
    "slices.certify_regular.total_ms": ("golden",),
    "slices.regularity_from_subgroup.total_ms": ("golden",),
}
# The atlas construction must do no work where no session asks for one.
EXPECTED_ZERO = {"atlas.build_atlas.total_ms": ("mapcalc",), "atlas.check_atlas.total_ms": ("mapcalc",)}


def binding_problems(workload, metrics):
    """Metrics that read zero where work is expected, or non-zero where none is."""
    problems = []
    for name, workloads in EXPECTED.items():
        if workload in workloads and not metrics[name][0]:
            problems.append(f"{name} is 0 on {workload}: is the function still bound where it is called?")
    for name, workloads in EXPECTED_ZERO.items():
        if workload in workloads and metrics[name][0]:
            problems.append(f"{name} is {metrics[name][0]} on {workload}, expected 0")
    return problems
