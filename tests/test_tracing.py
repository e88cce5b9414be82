"""The benchmark tracer (perfbench/tracing.py) looks up the toricsums
functions and methods it wraps by name when it is imported. Importing it
here makes a refactor that drops or renames one of them fail the suite
instead of breaking `perfbench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrapped_object():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, fns in {**tracing.SPANS, **tracing.CALL_COUNTERS}.items():
        assert fns and all(callable(f) for f in fns), name
    for metric, spans in tracing.SELF_TIMES.items():
        assert set(spans) <= set(tracing.SPANS), metric
