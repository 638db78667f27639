"""tools/cli_identity.py reports 0 differing runs for any matrix it runs,
so a matrix that lost runs would still pass.  This pins its size, and
checks the helper that shows the first differing stdout line of a run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_identity.py"


@pytest.fixture(scope="module")
def tool():
    if not TOOL.is_file():
        pytest.skip("tools/cli_identity.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("cli_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_has_242_distinct_runs(tool):
    runs = tool.matrix()
    assert len(runs) == len(set(runs)) == 242


def test_first_difference(tool):
    old = "PASS a: 1.0e-30\nPASS b: 3.415e-28\nPASS c\n"
    assert tool.first_difference(old, old) is None
    new = old.replace("3.415e-28", "4.001e-28")
    assert tool.first_difference(old, new) == (2, "PASS b: 3.415e-28", "PASS b: 4.001e-28")
    # a line only one side has reads as None on the other
    assert tool.first_difference(old, old + "extra") == (4, None, "extra")
    assert tool.first_difference("x\ny", "x") == (2, "y", None)
