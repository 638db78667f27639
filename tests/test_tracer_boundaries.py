"""The benchmark tracer rebinds the functions it times by name, so a
renamed or removed library function breaks every traced benchmark run.
This keeps those names resolvable from the test suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_boundaries_resolve():
    if not TRACER.is_file():
        pytest.skip("bench/tracer.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{func}"
        for module, funcs in tracer.BOUNDARIES.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"qsympoly.{module}"), func, None))
    ]
    assert tracer.BOUNDARIES and missing == []
