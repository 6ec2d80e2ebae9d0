"""Layer tracer for the traced benchmark run.

The tracer wraps public functions of the klrlab layers from the outside: the program
itself is not instrumented.  A wrapped call records its call count and its self time,
which is the call's duration minus the time spent in wrapped calls it made.  A call's
duration runs from its wrapper's first clock reading to its last, so the wrapper's
own bookkeeping is charged to the callee, not to its wrapped caller: a change that
only removes child calls shows in the child's self time.  What stays outside those
two readings (the call into the wrapper, the suspend check and the last two additions)
is a few operations per call and is charged to the caller.  Every
call is aggregated in place rather than stored as a span, because the arithmetic
layer alone makes about a million calls in one module round.

A name imported with `from .x import f` lives in the importing module's namespace
too, so `install` replaces the original in every loaded module and class that holds
it; otherwise calls such as `cyclo.canonical_terms` or `uqmod.solve_linear` would
bypass the wrapper and go uncounted.
"""

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, metric prefix).  Class methods are given as "Class.method";
# each is wrapped once and the wrapper replaces every alias of the original.
TARGETS = [
    ("klrlab.qint", "solve_linear", "qint.solve_linear"),
    ("klrlab.qint", "matrix_rank", "qint.matrix_rank"),
    ("klrlab.qint", "LaurentFrac.__init__", "qint.LaurentFrac.new"),
    ("klrlab.qint", "LaurentPoly.__mul__", "qint.LaurentPoly.mul"),
    ("klrlab.uqmod", "build_irreducible", "uqmod.build_irreducible"),
    ("klrlab.uqmod", "verify_relations", "uqmod.verify_relations"),
    ("klrlab.uqmod", "shapovalov_gram", "uqmod.shapovalov_gram"),
    ("klrlab.uqmod", "gram_entry", "uqmod.gram_entry"),
    ("klrlab.klr", "canonical_terms", "klr.canonical_terms"),
    ("klrlab.klr", "normal_form", "klr.normal_form"),
    ("klrlab.klr", "multiply", "klr.multiply"),
    ("klrlab.klr", "factor_general", "klr.factor_general"),
    ("klrlab.cyclo", "gdim_hom", "cyclo.gdim_hom"),
    ("klrlab.cyclo", "cyc_reduce", "cyclo.cyc_reduce"),
    ("klrlab.cyclo", "pi_project", "cyclo.pi_project"),
    ("klrlab.cli", "main", "cli.main"),
    ("klrlab.cli", "build_parser", "cli.build_parser"),
    ("klrlab.cli", "emit", "cli.emit"),
    ("klrlab.cache", "ResultCache.get", "cache.get"),
    ("klrlab.cache", "ResultCache.put", "cache.put"),
    ("klrlab.combi", "enumerate_gt_patterns", "combi.enumerate_gt_patterns"),
]

ABSENT = None


class Tracer:
    """Call counts and self times per wrapped name, plus the layer counters that are
    read around the calls (cache hits, bytes written, quotient contexts)."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.cache_hits = 0
        self.bytes_written = 0
        self.contexts = []
        self._stack = [0.0]
        self._suspended = 0

    @contextlib.contextmanager
    def suspend(self):
        """Calls made inside (reference checks) count toward no layer."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                child = stack.pop()
                calls[name] += 1
                dur = clock() - start
                self_s[name] += dur - child
                stack[-1] += dur

        return traced

    def _wrap_get(self, fn):
        traced = self.wrap("cache.get", fn)

        @functools.wraps(fn)
        def get(cache, key):
            got = traced(cache, key)
            if got is not None and not self._suspended:
                self.cache_hits += 1
            return got

        return get

    def _wrap_put(self, fn):
        traced = self.wrap("cache.put", fn)

        @functools.wraps(fn)
        def put(cache, key, payload):
            out = traced(cache, key, payload)
            if not self._suspended:
                self.bytes_written += os.path.getsize(cache.path_for(key))
            return out

        return put

    def _wrap_make_context(self, fn):
        @functools.wraps(fn)
        def make_context(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            if not self._suspended:
                self.contexts.append(ctx)
            return ctx

        return make_context

    def install(self):
        """Wrap every target and replace each reference to it in loaded modules."""
        for module_name, path, metric in TARGETS:
            owner = sys.modules[module_name]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if metric == "cache.get":
                wrapper = self._wrap_get(original)
            elif metric == "cache.put":
                wrapper = self._wrap_put(original)
            else:
                wrapper = self.wrap(metric, original)
            _replace_everywhere(original, wrapper, owner)
        cyclo = sys.modules["klrlab.cyclo"]
        original = cyclo.make_context
        _replace_everywhere(original, self._wrap_make_context(original), cyclo)


def _replace_everywhere(original, wrapper, owner):
    namespaces = [owner] + [
        m for name, m in list(sys.modules.items()) if m is not None and m is not owner
    ]
    for ns in namespaces:
        d = getattr(ns, "__dict__", None)
        if not isinstance(d, (dict, type(type.__dict__))):
            continue
        for key, value in list(d.items()):
            if value is original:
                setattr(ns, key, wrapper)


def cyclo_counts(contexts):
    """Rows generated and fed, echelon rank and capped sources over every quotient
    context the ops created, children included.  Reads program state, so a program
    that keeps it elsewhere gets every value reported as absent instead of a crash."""
    seen = set()
    todo = list(contexts)
    generated = fed = rank = capped = 0
    try:
        while todo:
            ctx = todo.pop()
            if id(ctx) in seen:
                continue
            seen.add(id(ctx))
            todo.extend(ctx.children.values())
            for source in ctx.sources.values():
                generated += len(source.rows)
                capped += bool(source.capped)
            for state in ctx.states.values():
                fed += state["fed"]
                rank += state["ech"].rank()
    except (AttributeError, KeyError, TypeError):
        return dict.fromkeys(
            ("rows_generated", "rows_fed", "echelon_rank", "row_yield", "capped_sources"),
            ABSENT,
        )
    return {
        "rows_generated": generated,
        "rows_fed": fed,
        "echelon_rank": rank,
        "row_yield": rank / fed if fed else 0.0,
        "capped_sources": capped,
    }
