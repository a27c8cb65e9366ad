"""Spans around calls into enokit's layers, installed from outside.

Each target names a public function (or `Class.method`) and the layer it
belongs to. `Tracer.install` replaces every binding of that name in every
loaded `enokit.*` module with a wrapper that records a span: layer, start,
end and the index of the enclosing span. A name that no module holds any
more is reported as absent, so the benchmark survives refactors that move
or delete internals.

A layer's self time is the sum of its spans minus the time of the spans
directly inside them. Counters attached to a target run after its span has
closed, inside a `trace.count` span of their own, so their cost lands in
the tracing overhead and not in the caller's self time.
"""

import sys
from collections import Counter
from time import perf_counter


def _rational_bits(x):
    if isinstance(x, int):
        return x.bit_length()
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if isinstance(num, int) and isinstance(den, int) and not isinstance(x, float):
        return num.bit_length() + den.bit_length()
    return 0


def _count_table(tracer, args, kwargs, table):
    counts = tracer.counts
    levels = getattr(table, "levels", ())
    counts["numerics.dd_entries"] += sum(len(level) for level in levels)
    counts["numerics.rational_bits"] += sum(
        _rational_bits(x) for level in levels for x in level)


def _count_bounds(tracer, args, kwargs, bounds):
    tracer.counts["stability.bound_entries"] += sum(len(b) for b in bounds.values())


def _count_terms(tracer, args, kwargs, terms):
    tracer.counts["stability.oracle_terms"] += len(terms)


def _count_call(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return count


def _count_trials(tracer, args, kwargs, report):
    tracer.counts["harness.trials"] += report.trials_run


def _traces_counter(layer):
    """Breakpoints, left moves, and the inputs whose exact ties are counted
    after the pass."""
    def count(tracer, args, kwargs, traces):
        counts = tracer.counts
        counts[layer + ".breakpoints"] += len(traces)
        if not traces:
            return
        sigs = [t.left_signature for t in traces]
        sigs.append(traces[-1].right_signature)
        moves = 0
        for sig in sigs:
            offs = sig.offsets
            moves += sum(1 for j in range(1, len(offs)) if offs[j] != offs[j - 1])
        counts[layer + ".left_moves"] += moves
        field = args[0] if args else kwargs["field"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        tracer.inputs.append((layer, field, p))
    return count


# (layer, name, counter). `name` is a module-level function or
# `Class.method`; every enokit module binding it is wrapped.
TARGETS = (
    ("grid.field", "Mesh.__init__", None),
    ("grid.field", "CellAverageField.__init__", None),
    ("grid.field", "PointValueField.__init__", None),
    ("kernels.primitive", "primitive_floats", None),
    ("kernels.primitive", "primitive_floats_py", None),
    ("kernels.recon", "recon_traces", None),
    ("kernels.interp", "interp_traces", None),
    ("eno_reconstruction", "interface_traces",
     _traces_counter("eno_reconstruction")),
    ("eno_interpolation", "midpoint_traces", _traces_counter("eno_interpolation")),
    ("stability.sign_report", "sign_report", None),
    ("grid.primitive", "primitive_from_averages", _count_call("grid.primitive_calls")),
    ("numerics.dd_table", "divided_difference_table", _count_table),
    ("stability.oracle", "telescoped_jump_reconstruction", None),
    ("stability.oracle", "telescoped_jump_interpolation", None),
    ("stability.oracle", "telescoped_terms_reconstruction", _count_terms),
    ("stability.oracle", "telescoped_terms_interpolation", _count_terms),
    ("stability.bounds", "position_bounds", _count_bounds),
    ("stability.bounds", "bound_Cp", None),
    ("stability.bounds", "bound_cp", None),
    ("harness", "fuzz_sign_property", _count_trials),
    ("cli", "main", None),
    ("numerics.parse", "FloatBackend.parse", None),
    ("numerics.parse", "ExactBackend.parse", None),
    ("numerics.serialize", "FloatBackend.serialize", None),
    ("numerics.serialize", "ExactBackend.serialize", None),
)

# Targets whose spans exist only while the workload's fields are built.
SETUP_LAYERS = ("grid.field",)


class Tracer:
    """Wrappers, spans and counters for one traced pass at a time."""

    def __init__(self, layers_filter):
        self.targets = [t for t in TARGETS if layers_filter(t[0])]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.inputs = []
        self._undo = []
        self.absent = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.inputs = []

    def _wrap(self, layer, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            record = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, counter, args, kwargs, result):
        record = ["trace.count", perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        counter(self, args, kwargs, result)
        record[2] = perf_counter()

    def install(self):
        """Wrap every target found; record the names found nowhere."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "enokit" or name.startswith("enokit."))]
        self.absent = []
        for layer, name, counter in self.targets:
            found = False
            if "." in name:
                cls_name, method = name.split(".")
                seen = set()
                for module in modules:
                    cls = vars(module).get(cls_name)
                    if not isinstance(cls, type) or id(cls) in seen:
                        continue
                    seen.add(id(cls))
                    fn = cls.__dict__.get(method)
                    if fn is None:
                        continue
                    found = True
                    setattr(cls, method, self._wrap(layer, fn, counter))
                    self._undo.append((cls, method, fn))
            else:
                for module in modules:
                    fn = vars(module).get(name)
                    if not callable(fn) or isinstance(fn, type):
                        continue
                    found = True
                    setattr(module, name, self._wrap(layer, fn, counter))
                    self._undo.append((module, name, fn))
            if not found:
                self.absent.append(name)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo = []

    def self_times_ms(self):
        """{layer: self time in ms} over the spans recorded since reset."""
        spans = self.spans
        inner = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        out = {}
        for (layer, start, end, parent), covered in zip(spans, inner):
            out[layer] = out.get(layer, 0.0) + (end - start - covered) * 1e3
        return out

