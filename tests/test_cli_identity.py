"""tools/cli_identity.py reports 0 differing runs for any matrix it runs,
so a matrix that lost runs would still pass.  This pins its size, and
checks the helper that shows the first differing stdout line of a run."""

import pytest
from conftest import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("cli_identity")


def test_matrix_has_251_distinct_runs(tool):
    runs = tool.matrix()
    assert len(runs) == len(set(runs)) == 251


def test_first_difference(tool):
    old = "PASS a: 1.0e-30\nPASS b: 3.415e-28\nPASS c\n"
    assert tool.first_difference(old, old) is None
    new = old.replace("3.415e-28", "4.001e-28")
    assert tool.first_difference(old, new) == (2, "PASS b: 3.415e-28", "PASS b: 4.001e-28")
    # a line only one side has reads as None on the other
    assert tool.first_difference(old, old + "extra") == (4, None, "extra")
    assert tool.first_difference("x\ny", "x") == (2, "y", None)
