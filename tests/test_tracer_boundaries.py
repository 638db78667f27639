"""The benchmark tracer rebinds the functions it times by name, so a
renamed or removed library function breaks every traced benchmark run.
This keeps those names resolvable from the test suite, and the 2phi1
layer's boundary on its call path."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qsympoly as qp
from qsympoly import sympoly

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


def test_eval_hypergeometric_reaches_qcore_boundary(monkeypatch):
    # the tracer times the 2phi1 layer as qcore.basic_hypergeometric; a sum
    # inlined elsewhere would leave that boundary reading 0 calls per op
    calls = []
    orig = sympoly.basic_hypergeometric

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(sympoly, "basic_hypergeometric", counted)
    ctx = qp.QContext(0.5)
    V = qp.make_ultraspherical(0.4, 0.7, ctx).V
    points = [(n, x) for n in range(7) for x in (-0.6, 0.0, 0.35)]
    for n, x in points:
        qp.eval_hypergeometric(n, V, ctx, x)
    assert len(calls) == len(points)
    assert [args[-1] for args in calls] == [n // 2 for n, _ in points]
