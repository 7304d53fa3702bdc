"""Outside-in tracer for the groupoidal modules.

``Tracer.install(package)`` wraps every module-level function of the
package's modules and rebinds every alias of it in the globals of every
``groupoidal.*`` module (``from .site_core import fibre_product`` copies
the function into the importing module, so rebinding only the defining
module would miss those calls).  ``restore()`` puts the originals back.

A span is one call, or one resumption of a generator.  Spans nest on one
stack (the benchmark runs one thread); a span's self time is its duration
minus the durations of its direct child spans.  Finished spans are kept in
memory as (job, depth, function, start, end) rows, up to ``SPAN_CAP`` of
them, and written out by ``write_spans``; the counters cover every span.
"""

import inspect
import json
import time
from collections import defaultdict

SPAN_CAP = 100_000
# one-line helpers called millions of times from inside methods; wrapping
# them would multiply the run time and measure mostly the tracer
UNTRACED = {"site_core.pair_id"}

LAYERS = ("site_core", "backends", "groupoid", "action", "bundle",
          "bibundle", "morphism", "nerve", "cli")

TRACED = {
    "site_core": ("fibre_product", "coequalizer", "is_cover", "is_iso",
                  "compose", "all_maps", "valid_mor_table", "axiom_harness"),
    "backends": ("all_finspaces", "make_finspace"),
    "groupoid": ("validate_groupoid", "cech_groupoid", "pullback_groupoid"),
    "action": ("enumerate_actions", "validate_action", "validate_bibundle"),
    "bundle": ("orbit_space", "is_basic", "check_principal"),
    "bibundle": ("compose_bibundles", "associator", "bibundle_isomorphic",
                 "enumerate_bibundles", "brute_force_quasi_inverse",
                 "validate_bibundle_map"),
    "morphism": ("enumerate_functors", "exists_ananat", "is_ana_equivalence",
                 "validate_functor"),
    "nerve": ("unique_inner3_check", "validate_simplex", "horn_fill_inner2"),
    "cli": ("parse_model", "build_model", "run_command"),
}

# useful results over attempts: (search, the validator or step it tries
# each candidate with, how a call's result counts as hits)
RATIOS = {
    "action.enumerate_actions": "action.validate_action",
    "morphism.enumerate_functors": "morphism.validate_functor",
    "bibundle.bibundle_isomorphic": "bibundle.validate_bibundle_map",
    "bibundle.brute_force_quasi_inverse": "bibundle.compose_bibundles",
    "nerve.unique_inner3_check": "nerve.validate_simplex",
    "site_core.all_maps": "site_core.valid_mor_table",
}


def _hits(name, result):
    if name == "nerve.unique_inner3_check":
        return len(result["fillers"])
    return result is not None


def is_validator(fn_name):
    return fn_name.startswith("validate_") or fn_name == "check_principal"


class Tracer:
    def __init__(self):
        self.job = -1
        self.stack = []  # [name, start, child_time]
        self.active = defaultdict(int)  # name -> frames on the stack
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.hits = defaultdict(int)
        self.attempts = defaultdict(int)  # search -> validator calls under it
        self.pullbacks = 0  # fibre_product calls under axiom_harness
        self.spans = []
        self.dropped = 0
        self._saved = []

    # -- spans
    def _enter(self, name, call=True):
        if call:
            self.calls[name] += 1
            for search, step in RATIOS.items():
                if step == name and self.active[search]:
                    self.attempts[search] += 1
            if name == "site_core.fibre_product" and \
                    self.active["site_core.axiom_harness"]:
                self.pullbacks += 1
        self.active[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.job, len(self.stack), name, start, end))
        else:
            self.dropped += 1

    # -- wrappers
    def _wrap_function(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if name in RATIOS:
                tracer.hits[name] += _hits(name, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            call = True
            try:
                while True:
                    tracer._enter(name, call)
                    call = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.hits[name] += 1
                    yield item
            finally:
                gen.close()
        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for fn_name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, fn_name)
                if name in UNTRACED:
                    continue
                wrap = self._wrap_generator \
                    if inspect.isgeneratorfunction(fn) else self._wrap_function
                wrapped[fn] = wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    # -- results
    def metrics(self, jobs, overhead):
        """Per-layer metrics, per traced job."""
        out = {}
        layer_calls, layer_self = defaultdict(int), defaultdict(float)
        val_calls, val_self = 0, 0.0
        for name, n in self.calls.items():
            layer, fn_name = name.split(".", 1)
            layer_calls[layer] += n
            layer_self[layer] += self.self_s[name]
            if is_validator(fn_name):
                val_calls += n
                val_self += self.self_s[name]
        for layer in LAYERS:
            out[layer + ".calls"] = (layer_calls[layer] / jobs, "count/job")
            out[layer + ".self_s"] = (layer_self[layer] / jobs, "s/job")
        out["validators.calls"] = (val_calls / jobs, "count/job")
        out["validators.self_s"] = (val_self / jobs, "s/job")
        for layer, fns in TRACED.items():
            for fn_name in fns:
                name = "%s.%s" % (layer, fn_name)
                out[name + ".calls"] = (self.calls[name] / jobs, "count/job")
                out[name + ".self_s"] = (self.self_s[name] / jobs, "s/job")
        for search in RATIOS:
            att = self.attempts[search]
            out[search + ".hit_ratio"] = (
                self.hits[search] / att if att else 0.0, "ratio")
        harness = self.calls["site_core.axiom_harness"]
        out["site_core.axiom_harness.pullbacks_per_call"] = (
            self.pullbacks / harness if harness else 0.0, "count")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write_spans(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
