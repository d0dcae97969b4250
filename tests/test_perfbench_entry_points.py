"""Every entry point that ``perfbench/spans.py`` wraps still exists.

The tracer wraps each name in ``spans.LAYERS`` and a traced benchmark run
fails on one it cannot find; resolving the names here shows a deleted or
renamed entry point in milliseconds, without a traced run.  The file is
loaded by path and nothing under ``perfbench/`` is changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_entry_points(layers):
    """The ``module.name`` or ``module.Class.method`` entries of ``layers``
    that the package does not define where the tracer looks for them: a
    function in its module's namespace, a method in its class's own
    namespace."""
    missing = []
    for modname, attrs, _counter in layers.values():
        module = importlib.import_module(f"adoforge.{modname}")
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or name not in vars(holder):
                missing.append(f"{modname}.{attr}")
    return missing


def test_every_spans_entry_point_exists():
    spans = load_spans()
    assert spans.entry_points()
    assert missing_entry_points(spans.LAYERS) == []


def test_a_missing_entry_point_is_named():
    layers = {"probe": ("linalg", ("rref", "hstack", "SpanBasis.add", "SpanBasis.gone", "Gone.add"), None)}
    assert missing_entry_points(layers) == ["linalg.hstack", "linalg.SpanBasis.gone", "linalg.Gone.add"]
