"""The benchmark's tracer wraps package functions by name: every name it
lists must resolve, or the traced benchmark run silently loses a layer."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, fn_name, _ in tracer.TARGETS:
        module = importlib.import_module(f"rvrank.{module_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"rvrank.{module_name}.{fn_name} is traced but does not exist"
