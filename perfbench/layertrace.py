"""Layer tracing for the benchmark, installed from outside the library.

Each layer is one ``mops`` module.  The tracer replaces the module's public
functions (and the ``RationalFunction`` arithmetic methods for the
``rational`` layer) by wrappers that time each call.  A wrapped name is
also replaced wherever another module bound the same function object with
a from-import, because callers look names up there.

Per-element helpers are left unwrapped: the wrapper cost would swamp the
layer (``as_partition`` alone runs about 690k times in one level-density
job).  Their time counts toward the layer that called them.

A span is recorded when a call crosses into another layer: (name, start,
end, parent span, job id).  Calls inside the same layer are merged into
the enclosing span but still counted.  Self time is computed on the fly:
a call's duration minus the time its wrapped callees took.  Spans are kept
in memory up to ``SPAN_CAP`` and written out at the end; the metrics do
not depend on the cap.
"""

import json
import time

LAYERS = ("rational", "partitions", "hypergeom", "jack", "binom", "orthopoly", "expect", "symfun")

# Public names that are per-element helpers, called once per square, part
# or partition inside the layers' loops.
HELPERS = frozenset(
    {
        "as_partition", "weight", "is_subpartition", "compare", "dominates",
        "conjugate", "arm", "leg", "upper_hook", "lower_hook", "rho", "z_aut",
        "serialize", "deserialize", "sfact", "leaves", "has_true_product",
    }
)

RATIONAL_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)

# Functions that sum a hypergeometric series; hypergeom.terms counts the
# term evaluations made inside them.
SERIES = frozenset({"ghypergeom", "smallest_eig_terms", "largest_eig_cdf"})
TERM_FUNCTIONS = frozenset({"jack_identity_value", "jack_expand"})
# Functions that return a memo table; a call that grows the registered
# tables built one, any other call was a hit.
TABLE_FUNCTIONS = {
    "jack_monomial_coefficients": "jack",
    "gbinomial_table": "binom",
    "hook_products": "partitions",
}
ENUMERATORS = frozenset({"partitions_of", "subpartitions_of"})

SPAN_CAP = 200_000

_clock = time.perf_counter


class Tracer:
    """Installs the wrappers, accumulates counts, and removes them again."""

    def __init__(self, mops_package):
        import importlib

        self.pkg = mops_package
        self.modules = {
            name: importlib.import_module("mops." + name) for name in LAYERS
        }
        self.cache = importlib.import_module("mops.cache")
        self.job = None
        self.spans = []
        self.next_span = 0
        self.dropped = 0
        self._stack = []
        self._patches = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.rational_ops = 0
        self.canon_calls = 0
        self.canon_useful = 0
        self.enumerated = 0
        self.series_depth = 0
        self.series_enumerated = 0
        self.terms = 0
        self.built = {"jack": 0, "binom": 0, "partitions": 0}
        self.hits = {"jack": 0, "binom": 0, "partitions": 0}
        self.max_entries = 0

    def cache_entries(self):
        return sum(len(t) for t in getattr(self.cache, "_REGISTRY", ()))

    def note_job_end(self):
        self.max_entries = max(self.max_entries, self.cache_entries())

    def counters(self):
        """Raw counts of this tracer; add them up with ``merge``."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update({"self_s." + k: v for k, v in self.self_s.items()})
        out.update({"built." + k: v for k, v in self.built.items()})
        out.update({"hits." + k: v for k, v in self.hits.items()})
        out.update(
            rational_ops=self.rational_ops,
            canon_calls=self.canon_calls,
            canon_useful=self.canon_useful,
            enumerated=self.enumerated,
            series_enumerated=self.series_enumerated,
            terms=self.terms,
            max_entries=self.max_entries,
        )
        return out

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, layer, name):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        tracer = self
        bare = name.rsplit(".", 1)[-1]
        table_layer = TABLE_FUNCTIONS.get(bare)
        is_series = bare in SERIES
        is_term = bare in TERM_FUNCTIONS
        is_enum = bare in ENUMERATORS
        is_rational = layer == "rational"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[3] if parent is not None else -1
            if parent is None or parent[0] != layer:
                span_id = tracer.next_span
                tracer.next_span += 1
            else:
                span_id = -1
            if is_term and tracer.series_depth:
                tracer.terms += 1
            if is_series:
                tracer.series_depth += 1
            if table_layer is not None:
                before = tracer.cache_entries()
            # frame: layer, start, child time, id of the span it belongs to
            frame = [layer, 0.0, 0.0, span_id if span_id >= 0 else parent_id]
            stack.append(frame)
            frame[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                calls[layer] += 1
                if is_series:
                    tracer.series_depth -= 1
                if span_id >= 0:
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, name, start, end, parent_id, tracer.job))
                    else:
                        tracer.dropped += 1
            if is_rational:
                tracer.rational_ops += 1
            elif is_enum:
                tracer.enumerated += len(result)
                if tracer.series_depth:
                    tracer.series_enumerated += len(result)
            elif table_layer is not None:
                if tracer.cache_entries() > before:
                    tracer.built[table_layer] += 1
                else:
                    tracer.hits[table_layer] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_canonicalize(self, fn):
        tracer = self

        def canonicalize(num, den):
            out = fn(num, den)
            if num:  # a zero numerator is normalised without a gcd
                tracer.canon_calls += 1
                # the gcd was not 1 when the stored denominator is not the
                # given one up to sign
                if out[1] != den and out[1] != {e: -c for e, c in den.items()}:
                    tracer.canon_useful += 1
            return out

        return canonicalize

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        if self._patches:
            return
        rational = self.modules["rational"]
        rf_class = rational.RationalFunction
        for meth in RATIONAL_METHODS:
            orig = rf_class.__dict__[meth]
            self._set(rf_class, meth, self._wrap(orig, "rational", "RationalFunction." + meth))
        if hasattr(rational, "_canonicalize"):
            self._set(rational, "_canonicalize", self._wrap_canonicalize(rational._canonicalize))
        owners = list(self.modules.values()) + [self.pkg]
        for extra in ("cli", "parser", "operators"):
            mod = getattr(self.pkg, extra, None)
            if mod is not None:
                owners.append(mod)
        for layer in LAYERS:
            if layer == "rational":
                continue
            module = self.modules[layer]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or name in HELPERS or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__ or isinstance(fn, type):
                    continue
                wrapper = self._wrap(fn, layer, layer + "." + name)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, attr, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    def write_spans(self, path):
        with open(path, "a") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "job": job}
                handle.write(json.dumps(record))
                handle.write("\n")


def merge(a, b):
    """Counters of two traced runs taken together."""
    out = dict(a)
    for key, value in b.items():
        if key == "max_entries":
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def layer_metrics(c):
    """The per-layer metrics from raw counters."""

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = c["self_s." + layer]
        if layer != "rational":
            out[layer + ".calls"] = c["calls." + layer]
    out["rational.ops"] = c["rational_ops"]
    out["rational.canon_calls"] = c["canon_calls"]
    out["rational.canon_useful_ratio"] = ratio(c["canon_useful"], c["canon_calls"])
    out["partitions.enumerated"] = c["enumerated"]
    hits, built = c["hits.partitions"], c["built.partitions"]
    out["partitions.hook_hit_ratio"] = ratio(hits, hits + built)
    out["hypergeom.terms"] = c["terms"]
    out["hypergeom.term_yield_ratio"] = ratio(c["terms"], c["series_enumerated"])
    for layer in ("jack", "binom"):
        hits, built = c["hits." + layer], c["built." + layer]
        out[layer + ".tables_built"] = built
        out[layer + ".table_hit_ratio"] = ratio(hits, hits + built)
    out["cache.entries"] = c["max_entries"]
    return out
