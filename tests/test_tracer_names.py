"""The benchmark's tracer looks up each function it times by name; a name
that leaves its module would otherwise show only when a traced benchmark run
raises AttributeError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        target = getattr(importlib.import_module(f"wazz.{module}"), name, None)
        assert callable(target), f"wazz.{module}.{name}"
