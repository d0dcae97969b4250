"""Spans around the package's entry points, recorded from outside the package.

``install`` replaces every entry point listed in ``LAYERS`` by a wrapper, in
every ``adoforge`` module namespace that holds it: ``engine`` and ``graded``
import with ``from .x import y``, so patching only the defining module would
miss their calls.  Methods are wrapped on their class.  A binding left
unwrapped raises ``TraceBindingError``.

Each wrapper opens a span (layer, start, end, parent) on a stack and folds it
into per-layer totals when it closes: self time (the span minus its child
spans) and call counts.  An entry called inside a span of its own layer (for
example ``kernel_basis`` calling ``Subspace.from_vectors``) adds no span.  The
time spent computing counters is kept out of every layer and reported on its
own, so self times, counter time and the time outside any span add up to the
traced wall time.  The program is single-threaded and has no queues, so no
layer has wait time to record.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class TraceBindingError(RuntimeError):
    pass


def _bits(values) -> int:
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _matrix_bits(m) -> int:
    return _bits(v for _, _, v in m.entries())


def _rref_counters(attr, args, result):
    """Elimination size (rows x cols) and largest numerator or denominator
    handed to it."""
    if attr == "Subspace.from_vectors":
        _cls, ambient, vectors = args
        return {"cells": len(vectors) * ambient, "max_entry_bits": _bits(x for v in vectors for x in v if x)}
    if attr == "solve_multi":
        a, b = args
        return {"cells": a.rows * (a.cols + b.cols), "max_entry_bits": max(_matrix_bits(a), _matrix_bits(b))}
    if attr == "solve":
        a, b = args
        return {"cells": a.rows * (a.cols + 1), "max_entry_bits": max(_matrix_bits(a), _bits(x for x in b if x))}
    (m,) = args
    return {"cells": m.rows * m.cols, "max_entry_bits": _matrix_bits(m)}


def _matmul_counters(attr, args, result):
    """Multiply-adds done by the sparse product: for every stored a[r, k],
    one per stored entry of row k of b."""
    a, b = args
    row_len = {}
    mults = 0
    for r in range(a.rows):
        for k in a.row_map(r):
            n = row_len.get(k)
            if n is None:
                n = row_len[k] = len(b.row_map(k))
            mults += n
    return {"mults": mults}


def _kronecker_counters(attr, args, result):
    return {"nnz_out": result.nnz()}


# layer -> (defining module, entry points, counter function or None)
LAYERS = {
    "jsonio.parse": ("jsonio", ("load_json", "algebra_from_json", "representation_from_json"), None),
    "jsonio.emit": ("jsonio", ("dumps_canonical", "representation_to_json", "certificate_to_json"), None),
    "liealg.validate": ("liealg", ("validate",), None),
    "liealg.nilpotency_class": ("liealg", ("nilpotency_class",), None),
    "liealg.codim1_refinement": ("liealg", ("codim1_refinement",), None),
    "liealg.quotient": ("liealg", ("quotient",), None),
    "freenilp.present": ("freenilp", ("present",), None),
    "freenilp.free_nilpotent": ("freenilp", ("free_nilpotent",), None),
    "graded.current_algebra": ("graded", ("current_algebra",), None),
    "graded.cocycle_space": ("graded", ("cocycle_space",), None),
    "graded.satisfies_identity": ("graded", ("Cocycle.satisfies_identity",), None),
    "graded.cocycle_extension_rep": ("graded", ("cocycle_extension_rep",), None),
    "graded.graded_faithful_rep": ("graded", ("graded_faithful_rep",), None),
    "engine.distinguish": ("engine", ("_distinguish",), None),
    "engine.glue": ("engine", ("_glue_traced",), None),
    "engine.verify_output": ("engine", ("verify_output",), None),
    "reps.is_homomorphism": ("reps", ("is_homomorphism",), None),
    "reps.is_nilpotent_rep": ("reps", ("is_nilpotent_rep",), None),
    "reps.rep_kernel": ("reps", ("rep_kernel",), None),
    "reps.element_action": ("reps", ("element_action",), None),
    "reps.tensor_product": ("reps", ("tensor_product",), None),
    "reps.kernel_submodule": ("reps", ("kernel_submodule",), None),
    "reps.cyclic_submodule": ("reps", ("cyclic_submodule",), None),
    "reps.restrict_along": ("reps", ("restrict_along",), None),
    "reps.direct_sum": ("reps", ("direct_sum",), None),
    "linalg.rref": (
        "linalg",
        ("kernel_basis", "solve_multi", "solve", "rank", "rref", "Subspace.from_vectors"),
        _rref_counters,
    ),
    "linalg.matmul": ("linalg", ("RationalMatrix.__matmul__",), _matmul_counters),
    "linalg.apply": ("linalg", ("RationalMatrix.apply",), None),
    "linalg.kronecker": ("linalg", ("kronecker",), _kronecker_counters),
    "linalg.spanbasis_add": ("linalg", ("SpanBasis.add",), None),
}

# counter name -> (how totals combine across calls, unit)
COUNTERS = {
    "linalg.rref.cells": (sum, "count"),
    "linalg.rref.max_entry_bits": (max, "bits"),
    "linalg.matmul.mults": (sum, "count"),
    "linalg.kronecker.nnz_out": (sum, "count"),
}


def entry_points() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs, _ in LAYERS.values() for attr in attrs]


class Recorder:
    """Per-layer span totals for one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: dict[str, int] = defaultdict(int)
        self.hits: Counter = Counter()   # entry point -> calls, nested ones included
        self.counter_s = 0.0             # time computing counters
        self._stack: list[list] = []     # [layer, time covered by child spans]

    def wrap(self, layer: str, entry: str, fn, counter):
        stack = self._stack
        attr = entry.split(".", 1)[1]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.hits[entry] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if attr == "Subspace.from_vectors":
                args = (args[0], args[1], list(args[2]))
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                t = clock()
                for name, value in counter(attr, args, result).items():
                    key = f"{layer}.{name}"
                    self.counters[key] = COUNTERS[key][0]((self.counters[key], value))
                spent = clock() - t
                self.counter_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", attr)
        return wrapper


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "adoforge" or name.startswith("adoforge."))]


def install(recorder: Recorder) -> None:
    """Wrap every entry point in LAYERS; raise TraceBindingError if any
    module or class still holds an unwrapped original afterwards."""
    modules = _package_modules()
    originals = []
    for layer, (modname, attrs, counter) in LAYERS.items():
        module = sys.modules[f"adoforge.{modname}"]
        for attr in attrs:
            entry = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(recorder.wrap(layer, entry, raw.__func__, counter)))
                    originals.append(raw.__func__)
                else:
                    setattr(cls, meth, recorder.wrap(layer, entry, raw, counter))
                originals.append(raw)
                continue
            fn = getattr(module, attr)
            wrapped = recorder.wrap(layer, entry, fn, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)
            originals.append(fn)
    missed = []
    for m in modules:
        for name, value in vars(m).items():
            if any(value is o for o in originals):
                missed.append(f"{m.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for meth, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, classmethod) else raw
                    if any(inner is o for o in originals):
                        missed.append(f"{m.__name__}.{name}.{meth}")
    if missed:
        raise TraceBindingError(f"entry points still bound unwrapped: {', '.join(missed)}")


def units() -> dict[str, str]:
    """Unit of every metric ``layer_metrics`` reports."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
    out.update((key, unit) for key, (_, unit) in COUNTERS.items())
    return out


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = recorder.self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = recorder.calls.get(layer, 0)
    for key in COUNTERS:
        out[key] = recorder.counters.get(key, 0)
    return out
