"""tools/cli_identity.py reports 0 differing runs for any matrix it runs,
so a matrix that lost runs would still pass.  This pins its size, and
checks the helper that shows the first differing stdout line of a run."""

import pytest
from conftest import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("cli_identity")


def test_matrix_has_314_distinct_runs(tool):
    runs = tool.matrix()
    assert len(runs) == len(set(runs)) == 314
    # 254 in float arithmetic, 60 on the mpf output path at 30 digits
    assert sum(precision is None for precision, _ in runs) == 254
    assert sum(precision == "30" for precision, _ in runs) == 60


def test_label(tool):
    assert tool.label(None, ("check", "all", "-q", "0.5")) == "check all -q 0.5"
    assert tool.label("30", ("table",)) == "QSYMPOLY_PRECISION=30 table"


def test_first_difference(tool):
    old = "PASS a: 1.0e-30\nPASS b: 3.415e-28\nPASS c\n"
    assert tool.first_difference(old, old) is None
    new = old.replace("3.415e-28", "4.001e-28")
    assert tool.first_difference(old, new) == (2, "PASS b: 3.415e-28", "PASS b: 4.001e-28")
    # a line only one side has reads as None on the other
    assert tool.first_difference(old, old + "extra") == (4, None, "extra")
    assert tool.first_difference("x\ny", "x") == (2, "y", None)
