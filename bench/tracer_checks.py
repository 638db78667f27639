"""Checks of the span tracer.

    python -m pytest bench/tracer_checks.py

The file name keeps these out of the repository's default test collection;
pytest collects a file named on its command line whatever its name.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402

KINDS = ("check",) + workloads.EVALUATE_KINDS


def _op(kind: str, tmp_path) -> workloads.Op:
    """The first operation of that kind at a fixed seed."""
    if kind == "check":
        return next(workloads.check_sweep_rounds(7, str(tmp_path)))[0]
    return next(op for op in next(workloads.evaluate_rounds(7, str(tmp_path)))
                if op.kind == kind)


def _traced(*op_list):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [ops.execute(op, tracer, i) for i, op in enumerate(op_list)]
    finally:
        tracer.uninstall()
    return tracer, outcomes


@pytest.mark.parametrize("kind", KINDS)
def test_traced_output_is_byte_identical(kind, tmp_path):
    op = _op(kind, tmp_path)
    plain = ops.execute(op)
    tracer, (traced,) = _traced(op)
    for attr in ("rc", "value", "exc", "stdout", "stderr", "file"):
        assert getattr(traced, attr) == getattr(plain, attr), attr
    assert len(tracer) >= 2  # the root span and at least one boundary


def test_self_times_sum_to_wall_time(tmp_path):
    tracer, _ = _traced(_op("check", tmp_path), _op("eval", tmp_path))
    recs = list(tracer.records())
    own = tracer.self_times()
    roots = [i for i, r in enumerate(recs) if r[3] == -1]
    assert [recs[i][4] for i in roots] == [0, 1]
    for root in roots:
        _, start, end, _, op_id = recs[root]
        total = sum(own[i] for i, r in enumerate(recs) if r[4] == op_id)
        assert total == pytest.approx(end - start, abs=1e-9)
    children: dict = {}
    for i, (_, start, end, parent, op_id) in enumerate(recs):
        assert own[i] >= -1e-12
        if parent >= 0:
            _, p_start, p_end, _, p_op = recs[parent]
            assert p_start <= start <= end <= p_end and p_op == op_id
            children.setdefault(parent, []).append((start, end))
    for spans in children.values():
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_every_boundary_is_recorded_and_restored(tmp_path):
    import qsympoly
    from qsympoly import families, weights

    original = weights.weight_star
    tracer, _ = _traced(_op("check", tmp_path))
    seen = {tracer.names[r[0]] for r in tracer.records()}
    assert {"cli.main", "families.orthogonality_matrix", "weights.weight_star",
            "qcore.q_shifted_factorial_inf"} <= seen
    assert weights.weight_star is original
    assert families.weight_star is original and qsympoly.weight_star is original
    assert len(tracer.names) == 1 + sum(len(f) for f in BOUNDARIES.values())


def test_no_spans_outside_an_operation():
    from qsympoly import qcore

    tracer = Tracer()
    tracer.install()
    try:
        qcore.q_binomial(6, 3, qcore.QContext(0.5))
    finally:
        tracer.uninstall()
    assert len(tracer) == 0
