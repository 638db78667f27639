"""tools/check_ab.py times two trees and exits 1 on any differing output.
This checks the verdict it prints, and that it draws only command-line
operations from the benchmark workloads."""

import pytest
from conftest import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("check_ab")


def test_verdict(tool):
    rows = [(0.010, 0.007, True), (0.020, 0.016, True), (0.030, 0.030, True)]
    lines, code = tool.verdict(rows)
    assert code == 0
    assert lines == [
        "operations 3",
        "parent 20.00 ms/op",
        "change 17.67 ms/op",
        # the median of 0.7, 0.8 and 1.0, not the ratio of the means
        "median ratio change/parent 0.800",
        "outputs: all equal",
    ]
    lines, code = tool.verdict(rows + [(0.010, 0.005, False)])
    assert code == 1
    assert lines[-1] == "outputs differ on 1 of 4 operations"


def test_operations_are_command_lines(tool, tmp_path):
    ops = tool.operations("evaluate", 1011, 12, str(tmp_path))
    assert len(ops) == 12
    assert all(op.argv for op in ops)
    assert {op.kind for op in ops} <= {"table", "export-poly", "export-weight"}
